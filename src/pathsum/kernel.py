"""Gaussian kernel sums over path classes, with certified truncation.

The weight of a class decays as exp(-b N^2) in its step count N, where
b = M dx^2/(2 dt hbar) collects all physical parameters. Sums over classes
are evaluated in ascending order with Neumaier compensated summation and
stopped by a geometric tail majorant, so every result carries a rigorous
bound on what was left out.

The scan utilities map where the j = 0 term dominates the full sum; the
closed-form diffusion propagator and its finite-difference residual provide
the continuum cross-check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .core import (
    DivergenceError,
    PathClass1D,
    PhysicalParams,
    SeriesCapError,
    SumResult,
    ValidationError,
    _require_int,
    _require_positive,
    _require_tol,
    max_series_terms,
)


def _gauss_term(b: float, n: int) -> float:
    # The scan limit value. It must equal the series' j = 0 term bit for bit
    # (ratio >= 1 is promised exactly), so both multiply -b by the exact
    # integer n*n; (-b*n)*n rounds differently.
    return math.exp(-b * (n * n))


class _Neumaier:
    """Compensated accumulator; error stays O(eps) independent of term count."""

    __slots__ = ("partial", "carry")

    def __init__(self):
        self.partial = 0.0
        self.carry = 0.0

    def add(self, term: float) -> None:
        new = self.partial + term
        if abs(self.partial) >= abs(term):
            self.carry += (self.partial - new) + term
        else:
            self.carry += (term - new) + self.partial
        self.partial = new

    def value(self) -> float:
        return self.partial + self.carry


def _check_sum_args(b: float, m: int, m_name: str, tol: float) -> None:
    if isinstance(b, bool) or not isinstance(b, (int, float)):
        raise ValidationError("b", f"must be a real number, got {b!r}")
    if math.isnan(b):
        raise ValidationError("b", "must not be NaN")
    if b <= 0:
        raise DivergenceError(f"series diverges for b = {b}; need b > 0")
    _require_int(m_name, m)
    if m < 1:
        raise ValidationError(m_name, f"must be >= 1, got {m}")
    _require_tol(tol)


def _gauss_series(b: float, m: int, tol: float, weighted: bool, shift: int) -> SumResult:
    """Sum of w(n) exp(-b ((m+2n)^2 - shift)) over n >= 0, w = n+1 if weighted else 1.

    shift = m*m sums the ratio to the leading term. Terms are added until
    the geometric tail majorant nxt/(1-r), r = nxt/term, drops to tol times
    the partial sum. The linear weight lets early terms grow when b is
    small, so the stop is tried only once r < 1; from there the ratio
    decreases monotonically and the majorant is valid.
    """
    cap = max_series_terms()
    acc = _Neumaier()
    n = 0
    term = math.exp(-b * (m * m - shift))  # the weight is 1 at n = 0
    while True:
        acc.add(term)
        terms_used = n + 1
        nxt_m = m + 2 * terms_used
        nxt = math.exp(-b * (nxt_m * nxt_m - shift))
        if weighted:
            nxt *= n + 2
        value = acc.value()
        if term > 0.0:
            ratio = nxt / term
            if ratio < 1.0:
                bound = nxt / (1.0 - ratio)
                if bound <= tol * value:
                    return SumResult(value=value, terms_used=terms_used, truncation_bound=bound)
        else:
            # fully underflowed tail
            return SumResult(value=value, terms_used=terms_used, truncation_bound=0.0)
        if terms_used >= cap:
            name, m_name = ("kernel_sum_2d", "m1") if weighted else ("kernel_sum_1d", "m")
            raise SeriesCapError(
                f"{name}(b={b}, {m_name}={m}) hit the {cap}-term cap at tol={tol}"
            )
        n += 1
        term = nxt


def kernel_sum_1d(b: float, m: int, tol: float = 1e-12) -> SumResult:
    """Sum of exp(-b (m+2j)^2) over j >= 0, truncated with a certified bound.

    Summation stops once the geometric tail majorant drops to tol times the
    partial sum; truncation_bound is that majorant.
    """
    _check_sum_args(b, m, "m", tol)
    return _gauss_series(b, m, tol, False, 0)


def kernel_sum_2d(b: float, m1: int, tol: float = 1e-12) -> SumResult:
    """Sum of exp(-b (m1+2j+2k)^2) over j, k >= 0, via exact reindexing.

    Collecting the (j, k) pairs with j + k = n gives the single series
    sum_n (n+1) exp(-b (m1+2n)^2), summed with the same certified stop.
    """
    _check_sum_args(b, m1, "m1", tol)
    return _gauss_series(b, m1, tol, True, 0)


@dataclass(frozen=True)
class KernelScanRow:
    """One scan point: the full sum against its j = 0 limit value."""

    m: int
    b: float
    sum_value: float
    limit_value: float
    ratio: float
    terms_used: int

    @property
    def bm(self) -> float:
        return self.b * self.m


def threshold_scan(
    m_values,
    b_min: float,
    b_max: float,
    n_points: int,
    tol: float = 1e-12,
) -> list[KernelScanRow]:
    """Evaluate sum/limit ratios on a uniform b grid for each m.

    ratio >= 1.0 holds exactly for every row, and for fixed m it is
    non-increasing in b; rows are ordered by m, then ascending b. The grid
    starts at b_min and ends at b_max exactly.
    """
    m_list = list(m_values)
    if not m_list:
        raise ValidationError("m_values", "must be non-empty")
    for m in m_list:
        _require_int("m_values", m)
        if m < 1:
            raise ValidationError("m_values", f"entries must be >= 1, got {m}")
    _require_positive("b_min", b_min)
    _require_positive("b_max", b_max)
    if not b_min < b_max:
        raise ValidationError("b_max", f"need b_min < b_max, got {b_min} >= {b_max}")
    _require_int("n_points", n_points)
    if n_points < 2:
        raise ValidationError("n_points", f"must be >= 2, got {n_points}")

    last = n_points - 1
    # the blend can round an endpoint off by an ulp, so both are taken as given
    interior = ((b_min * (last - i) + b_max * i) / last for i in range(1, last))
    grid = [b_min, *interior, b_max]
    rows = []
    for m in m_list:
        for b in grid:
            res = kernel_sum_1d(b, m, tol)
            limit = _gauss_term(b, m)
            if limit >= sys.float_info.min:
                ratio = res.value / limit
            else:
                # sum/limit would be imprecise or 0/0: sum the ratio's own
                # series, whose j = 0 term exp(-b*0) is exactly 1
                ratio = _gauss_series(b, m, tol, False, m * m).value
            rows.append(
                KernelScanRow(
                    m=m,
                    b=b,
                    sum_value=res.value,
                    limit_value=limit,
                    ratio=ratio,
                    terms_used=res.terms_used,
                )
            )
    return rows


def action_1d(params: PhysicalParams, cls: PathClass1D) -> float:
    """Action of covering N steps' worth of distance in one time interval.

    M (N dx)^2 / (2 dt); dividing by hbar reproduces b * N^2.
    """
    n = cls.n_steps
    return params.step_action * (n * n)


def propagator_closed(params: PhysicalParams, x: float, t: float) -> float:
    """Normalized diffusion kernel with diffusivity hbar/(2M)."""
    _require_positive("t", t)
    if math.isnan(x) or math.isinf(x):
        raise ValidationError("x", f"must be finite, got {x!r}")
    variance = params.hbar * t / params.M
    return math.exp(-x * x / (2.0 * variance)) / math.sqrt(2.0 * math.pi * variance)


def heat_residual(params: PhysicalParams, x: float, t: float, h: float) -> float:
    """|d/dt K - (hbar/2M) d2/dx2 K| by central differences with spacing h.

    O(h^2) accurate; halving h should shrink it about fourfold.
    """
    _require_positive("h", h)
    if not t > 2 * h:
        raise ValidationError("t", f"need t > 2h for the time stencil, got t={t}, h={h}")
    diffusivity = params.hbar / (2.0 * params.M)

    def k(xx: float, tt: float) -> float:
        return propagator_closed(params, xx, tt)

    dt_deriv = (k(x, t + h) - k(x, t - h)) / (2.0 * h)
    dxx_deriv = (k(x + h, t) - 2.0 * k(x, t) + k(x - h, t)) / (h * h)
    return abs(dt_deriv - diffusivity * dxx_deriv)


def propagator_normalization(
    params: PhysicalParams,
    t: float,
    panels: int = 4096,
    half_width_sigmas: float = 12.0,
) -> float:
    """Integral of the closed-form kernel over x, by composite Simpson.

    The window spans half_width_sigmas standard deviations each side, wide
    enough that the omitted Gaussian tails sit far below 1e-9.
    """
    _require_int("panels", panels)
    if panels < 2 or panels % 2 != 0:
        raise ValidationError("panels", f"must be an even integer >= 2, got {panels}")
    _require_positive("half_width_sigmas", half_width_sigmas)
    sigma = math.sqrt(params.hbar * t / params.M)
    half = half_width_sigmas * sigma
    step = 2.0 * half / panels
    acc = _Neumaier()
    acc.add(propagator_closed(params, -half, t))
    acc.add(propagator_closed(params, half, t))
    for i in range(1, panels):
        x = -half + i * step
        weight = 4.0 if i % 2 == 1 else 2.0
        acc.add(weight * propagator_closed(params, x, t))
    return acc.value() * step / 3.0
