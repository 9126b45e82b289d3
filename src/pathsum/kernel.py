"""Gaussian kernel sums over path classes, with certified truncation.

The weight of a class decays as exp(-b N^2) in its step count N, where
b = M dx^2/(2 dt hbar) collects all physical parameters. Sums over classes
take one of two routes, reported as SumResult.route:

- "direct": the classes are added in ascending order with Neumaier
  compensated summation and stopped by a geometric tail majorant. This
  needs about sqrt(ln(1/tol)/b)/2 terms, so it slows as b -> 0; terms_used
  counts the classes added, and PATHSUM_MAX_TERMS caps them.
- "euler_maclaurin": for b < 1e-3 with b m^2 <= 1, the sum is the
  continuum integral plus boundary corrections in Hermite polynomials
  (DLMF 2.10(i)), with a certified remainder. terms_used counts the
  integral and the p corrections, p + 1 <= 13, and the same cap applies.
  Where no p certifies tol within the cap, the direct route runs instead.

The full sum lies in [value, value + truncation_bound], up to roundoff on
the direct route and with roundoff included on the Euler-Maclaurin route.
m may be any int >= 1: past the float range, b m^2 comes from exact integers.

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
    ResourceCapError,
    SeriesCapError,
    SumResult,
    ValidationError,
    _require_int,
    _require_positive,
    _require_tol,
    max_series_terms,
)


def _times(b: float, k: int) -> float:
    """b*k for an int k >= 0; past the float range, rounded once from exact ints, or inf."""
    try:
        return b * k
    except OverflowError:
        num, den = b.as_integer_ratio()
        try:
            return num * k / den
        except OverflowError:
            return math.inf


def _gauss_term(b: float, n: int) -> float:
    # The scan limit value. It must equal the series' j = 0 term bit for bit
    # (ratio >= 1 is promised exactly), so both multiply b by the exact
    # integer n*n; (b*n)*n rounds differently.
    return math.exp(-_times(b, n * n))


def _check_sum_args(b: float, m: int, m_name: str, tol: float) -> None:
    if isinstance(b, bool) or not isinstance(b, (int, float)):
        raise ValidationError("b", f"must be a real number, got {b!r}")
    if math.isnan(b):
        raise ValidationError("b", "must not be NaN")
    if b <= 0:
        raise DivergenceError(f"series diverges for b = {b}; need b > 0")
    _require_int(m_name, m, 1)
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
    partial = carry = 0.0  # Neumaier's compensated sum: error O(eps) at any length
    n = 0
    term = math.exp(-_times(b, m * m - shift))  # the weight is 1 at n = 0
    while True:
        new = partial + term
        if abs(partial) >= abs(term):
            carry += (partial - new) + term
        else:
            carry += (term - new) + partial
        partial = new
        terms_used = n + 1
        nxt_m = m + 2 * terms_used
        nxt = math.exp(-_times(b, nxt_m * nxt_m - shift))
        if weighted:
            nxt *= n + 2
        value = partial + carry
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


# B_{2k}/(2k)! for k = 1..12: the Euler-Maclaurin coefficients
_EM_COEFFS = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
)
_SQRT_PI = 1.7724538509055159
_ERFC_ULPS = 4  # math.erfc's error on (0, 1], checked against mpmath in the tests
_EPS = sys.float_info.epsilon
_SMALL_B = 1e-3  # the direct series needs more than ~80 terms below this b


def _euler_maclaurin(b: float, m: int, tol: float, weighted: bool) -> SumResult | None:
    """Sum of G(m+2n) over n >= 0 by Euler-Maclaurin with step 2, or None.

    G = w g with g(x) = exp(-b x^2) and w = 1, or w = (x-m+2)/2 = x/2 + a
    when weighted. The sum is half the integral of G over [m, inf), plus
    G(m)/2, minus sum_k B_2k/(2k)! 2^(2k-1) G^(2k-1)(m), plus R_p, where
    g^(q)(m) = (-1)^q b^(q/2) H_q(m sqrt(b)) g(m) and (x g)^(q) = -g^(q+1)/(2b).
    |R_p| <= zeta(2p)/pi^2p * int |G^(2p)|, and Cauchy-Schwarz on Hermite
    functions gives int |g^(q)| <= b^((q-1)/2) sqrt(2^q q! pi). p grows until
    R_p <= eps v and the bound fits tol; None means no p <= 12 within the
    term cap does, and the caller sums directly.
    """
    cap = max_series_terms()
    s = math.sqrt(b)  # never sqrt(pi/b): pi/b overflows for subnormal b
    t = 2.0 * s
    y = m * s
    e = math.exp(-(y * y))
    head = _SQRT_PI / (4.0 * s) * math.erfc(y)  # half the integral of g
    if weighted:
        a = (2 - m) / 2
        x_head = e / (8.0 * b)  # half the integral of (x/2) g
        if x_head == math.inf:
            raise ValidationError(
                "b", f"kernel_sum_2d(b={b}, m1={m}) exceeds the float range"
            )
        parts = [x_head, a * head, 0.5 * e]
    else:
        parts = [head, 0.5 * e]
    # Running Hermite values H_{2k-2}, H_{2k-1} at y, and their majorants
    # with every sign made positive, which bound the recurrence's rounding.
    h0, h1 = 1.0, 2.0 * y
    u0, u1 = 1.0, 2.0 * y
    power = 1.0  # t^(2k-2)
    fact = 1.0  # (2k-2)!
    mag = sum(abs(part) for part in parts)
    for k, coeff in enumerate(_EM_COEFFS, start=1):
        if k + 1 > cap:
            return None
        n = 2 * k - 1
        h2, u2 = 2.0 * y * h1 - 2.0 * n * h0, 2.0 * y * u1 + 2.0 * n * u0
        fact *= n * (n + 1)  # (2k)!
        scale = coeff * e * power
        root = math.sqrt(fact * math.pi)
        if weighted:
            term = scale * (0.5 * h2 + a * t * h1)
            mag += abs(scale) * (0.5 * u2 + abs(a) * t * u1)
            rem = power * root * (math.sqrt((n + 2) / 2) + abs(a) * t)
        else:
            term = scale * t * h1
            mag += abs(scale) * t * u1
            rem = power * t * root
        parts.append(term)
        v = math.fsum(parts)
        # zeta(2k)/pi^2k = |B_2k|/(2k)! 2^(2k-1); with the Hermite bound's
        # 2^q, all powers of 2 but 2^k are already in t
        rem *= abs(coeff) * 2.0**k
        if rem <= _EPS * v:
            # Each piece carries at most erfc's ulps plus ~8 more (erfc's
            # conditioning <= 3 on y <= 1, the few products); the Hermite
            # recurrence and its argument add <= 2.5 ulps per index, and the
            # final v - err and 2 err one more each. (20 + erfc's + 8k) ulps
            # of the magnitude sum covers them all.
            err = rem + (20 + _ERFC_ULPS + 8 * k) * _EPS * mag
            value = v - err
            bound = 2.0 * err
            if bound <= tol * value:
                return SumResult(
                    value=value,
                    terms_used=k + 1,
                    truncation_bound=bound,
                    route="euler_maclaurin",
                )
        h0, h1 = h2, 2.0 * y * h2 - 2.0 * (n + 1) * h1
        u0, u1 = u2, 2.0 * y * u2 + 2.0 * (n + 1) * u1
        power *= t * t
    return None


def _kernel_sum(b: float, m: int, tol: float, weighted: bool) -> SumResult:
    # m <= 1/sqrt(b) is b m^2 <= 1, compared exactly without forming m^2
    if b < _SMALL_B and m <= 1.0 / math.sqrt(b):
        result = _euler_maclaurin(b, m, tol, weighted)
        if result is not None:
            return result
    return _gauss_series(b, m, tol, weighted, 0)


def kernel_sum_1d(b: float, m: int, tol: float = 1e-12) -> SumResult:
    """Sum of exp(-b (m+2j)^2) over j >= 0, truncated with a certified bound.

    Below b = 1e-3 with b m^2 <= 1 the Euler-Maclaurin route certifies
    value <= sum <= value + truncation_bound in at most 13 terms; elsewhere,
    or when that route cannot reach tol, the direct series stops once its
    geometric tail majorant drops to tol times the partial sum, and
    truncation_bound is that majorant. terms_used counts the terms of the
    route taken, and PATHSUM_MAX_TERMS caps it on both.
    """
    _check_sum_args(b, m, "m", tol)
    return _kernel_sum(b, m, tol, False)


def kernel_sum_2d(b: float, m1: int, tol: float = 1e-12) -> SumResult:
    """Sum of exp(-b (m1+2j+2k)^2) over j, k >= 0, via exact reindexing.

    Collecting the (j, k) pairs with j + k = n gives the single series
    sum_n (n+1) exp(-b (m1+2n)^2), summed by the same two routes as
    kernel_sum_1d. The sum is about 1/(8b) at small b, so below b ~ 7e-310
    it exceeds the float range and ValidationError is raised.
    """
    _check_sum_args(b, m1, "m1", tol)
    return _kernel_sum(b, m1, tol, True)


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
        """b*m correctly rounded, or inf past the float range."""
        if self.m <= 1 << 53:  # m converts to a float exactly
            return self.b * self.m
        num, den = self.b.as_integer_ratio()
        try:
            return num * self.m / den  # int / int rounds once
        except OverflowError:
            return math.inf


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
        _require_int("m_values", m, 1)
    _require_positive("b_min", b_min)
    _require_positive("b_max", b_max)
    if not b_min < b_max:
        raise ValidationError("b_max", f"need b_min < b_max, got {b_min} >= {b_max}")
    _require_int("n_points", n_points, 2)
    cap = max_series_terms()
    if len(m_list) * n_points > cap:  # checked before any grid point is formed
        raise ResourceCapError(
            f"threshold_scan: len(m_values) * n_points rows exceed the {cap}-row cap"
        )

    last = n_points - 1
    # the blend can round an endpoint off by an ulp, so both are taken as given
    grid = [b_min]
    for i in range(1, last):
        b = (b_min * (last - i) + b_max * i) / last
        if b == math.inf:  # b_max * i overflowed; this form stays in range
            b = b_min + (b_max - b_min) * (i / last)
        grid.append(b)
    grid.append(b_max)
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


def _variance(params: PhysicalParams, t: float) -> float:
    """hbar t / M, the kernel's variance at time t; a ValidationError on t
    where it falls below the smallest normal float."""
    _require_positive("t", t)
    variance = params.hbar * t / params.M
    if variance < sys.float_info.min:
        raise ValidationError("t", f"the variance hbar*t/M = {variance} underflows at t = {t}")
    return variance


def propagator_closed(params: PhysicalParams, x: float, t: float) -> float:
    """Normalized diffusion kernel with diffusivity hbar/(2M).

    Raises ValidationError("t") where the variance hbar t / M underflows, or
    where the width sqrt(2 pi hbar t / M) overflows.
    """
    variance = _variance(params, t)
    if math.isnan(x) or math.isinf(x):
        raise ValidationError("x", f"must be finite, got {x!r}")
    norm = math.sqrt(2.0 * math.pi * variance)
    if norm < math.inf and x * x < math.inf:
        return math.exp(-x * x / (2.0 * variance)) / norm
    # 2 pi hbar t / M or x^2 overflows: take the square roots first
    sigma = math.sqrt(params.hbar) * math.sqrt(t) / math.sqrt(params.M)
    norm = math.sqrt(2.0 * math.pi) * sigma
    if not norm < math.inf:
        raise ValidationError("t", f"the width sqrt(2 pi hbar t/M) overflows at t = {t}")
    z = x / sigma
    return math.exp(-0.5 * z * z) / norm


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
    if _require_int("panels", panels, 2) % 2 != 0:
        raise ValidationError("panels", "must be even")
    _require_positive("half_width_sigmas", half_width_sigmas)
    variance = _variance(params, t)
    half = half_width_sigmas * math.sqrt(variance)
    step = 2.0 * half / panels
    if not math.isfinite(step):
        raise ValidationError("half_width_sigmas", f"a window of {half} exceeds the float range")
    # propagator_closed at each point, its constants formed once
    two_variance = 2.0 * variance
    norm = math.sqrt(2.0 * math.pi * variance)
    if not norm < math.inf:
        raise ValidationError("t", f"2 pi hbar t/M overflows at t = {t}")
    if not half * half < math.inf:
        raise ValidationError("half_width_sigmas", f"the square of a window end {half} overflows")
    # the two end values are equal: a Neumaier sum of them is their exact double
    partial, carry = 2.0 * (math.exp(-half * half / two_variance) / norm), 0.0
    for i in range(1, panels):
        x = -half + i * step
        term = (4.0 if i % 2 == 1 else 2.0) * (math.exp(-x * x / two_variance) / norm)
        new = partial + term
        if partial >= term:  # every term is >= 0
            carry += (partial - new) + term
        else:
            carry += (term - new) + partial
        partial = new
    return (partial + carry) * step / 3.0
