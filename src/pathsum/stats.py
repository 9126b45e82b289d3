"""Path-probability distributions and distance moments.

Each class is weighted by the reciprocal of its multiplicity and the
weights are normalized into a distribution over j (1D) or (j, k) (2D).
Weights are exact rationals; only the final probabilities are floats.
Both tables come from one walk over diagonals: diagonal n holds the
classes with n backward steps in all, (n,) in 1D and (j, n - j) in 2D.
One exact integer recurrence carries C(m+2n, n), the multiplicity of (n,)
and of (n, 0), from diagonal to diagonal, and a second steps along a 2D
diagonal; there are no factorials, so tables have no step limit and no
dependence on EXACT_STEP_LIMIT. The partial sum Z = acc/lcm is kept as an
integer pair over the running lcm of the multiplicities. Adding 1/c costs
one gcd: with g = gcd(lcm, c) and q = c/g, the new lcm is lcm*q and
acc becomes acc*q + lcm/g. Each probability is the correctly rounded
quotient lcm/(c*acc), which is below 2**(L(lcm) - L(acc) - L(c) + 2) for
bit lengths L. Where that power is at most 2**-1075, half the smallest
subnormal, the quotient rounds to exactly 0.0 and is not formed: this
spares huge-m tables most of their bigint division. The normalization
series converges fast: the term ratio w_{j+1}/w_j is at most 1/3 for every
j >= 0 and m >= 1, which gives the certified tail bound reported with
every table, T / C(m+2N+2, N+1) past diagonal N, with T = 3/2 in 1D and
(6N+15)/4 in 2D.

An alternative weighting that multiplies the class count by per-step
up/down rates is included with a probe for its non-normalizability, plus
the exact moment formulas shared with the ensemble view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    MomentTriple,
    PathClass1D,
    SeriesCapError,
    ValidationError,
    _as_float,
    _require_int,
    _require_tol,
    max_series_terms,
)
from .combinatorics import _stirling_remainder


@dataclass(frozen=True)
class ProbabilityEntry:
    """One class in a table: its index, exact weight, and float probability."""

    index: tuple[int, ...]
    weight: Fraction
    probability: float


@dataclass(frozen=True)
class ProbabilityTable:
    """A truncated, normalized distribution over path classes.

    normalization_exact is the partial weight sum Z actually divided by;
    tail_bound bounds the total probability mass of all omitted classes
    relative to that Z, so every reported probability is correct to within
    tail_bound of the untruncated model.
    """

    m: int
    entries: tuple[ProbabilityEntry, ...]
    normalization: float
    normalization_exact: Fraction
    truncated_at: int
    tail_bound: float

    def probability(self, index) -> float:
        key = (index,) if isinstance(index, int) else tuple(index)
        for entry in self.entries:
            if entry.index == key:
                return entry.probability
        raise KeyError(f"class {key} not in table (truncated at {self.truncated_at})")


def _unit_fraction(c: int) -> Fraction:
    """Fraction(1, c) for an int c >= 1, without the gcd that Fraction() runs."""
    f = object.__new__(Fraction)
    f._numerator = 1
    f._denominator = c
    return f


def _walk(dim: int, m: int, max_diagonal, tol: float, min_diagonal: int) -> ProbabilityTable:
    """The table over diagonals n = 0, 1, ..., diagonal n holding the classes
    with n backward steps in all: (n,) in 1D, (j, n - j) for j = 0..n in 2D."""
    cap = max_series_terms()
    classes: list[tuple[tuple[int, ...], int]] = []
    acc, lcm = 0, 1  # Z = acc/lcm, over the running lcm of the multiplicities
    c1 = 1  # C(m+2n, n): the multiplicity of (n,) in 1D and of (n, 0) in 2D
    n = 0
    while True:
        if dim == 1:
            classes.append(((n,), c1))
            g = math.gcd(lcm, c1)
            q = c1 // g
            acc, lcm = acc * q + lcm // g, lcm * q
        else:
            # from (n, 0) down to (0, n); Z does not depend on the order of
            # the additions, and the entries still go in j-ascending order
            row, c = [], c1
            for j in range(n, -1, -1):
                k = n - j
                row.append(((j, k), c))
                g = math.gcd(lcm, c)
                q = c // g
                acc, lcm = acc * q + lcm // g, lcm * q
                c = c * (m + j) * j // ((k + 1) * (k + 1))  # the multiplicity of (j-1, k+1)
            classes += reversed(row)
        c1 = c1 * (m + 2 * n + 1) * (m + 2 * n + 2) // ((m + n + 1) * (n + 1))
        # w_{j+1}/w_j = (m+j+1)(j+1)/((m+2j+1)(m+2j+2)) <= 1/3 for all j >= 0, m >= 1,
        # so the 1D tail past diagonal N is at most w1(N+1) * sum(3^-i) = 1.5 * w1(N+1).
        # In 2D every class on diagonal n weighs at most w1(n) and there are n+1 of
        # them, so the tail is at most sum_{i>=0} (N+2+i) w1(N+1) 3^-i, that is
        # w1(N+1) * (1.5 (N+2) + 0.75). With w1(N+1) = 1/c1 the tail is
        # tail_num/tail_den, and each int/int division is correctly rounded.
        tail_num, tail_den = (3, 2 * c1) if dim == 1 else (6 * n + 15, 4 * c1)
        if n >= min_diagonal and tail_num / tail_den <= tol * (acc / lcm):
            break
        if max_diagonal is not None and n >= max_diagonal:
            break
        if len(classes) + (n + 2 if dim == 2 else 1) > cap:  # the next diagonal must fit
            raise SeriesCapError(
                f"probability_{dim}d({'m' if dim == 1 else 'm1'}={m}) hit the {cap}-term cap"
            )
        n += 1
    # from c.bit_length() >= cut on, lcm/(c*acc) < 2**-1075 rounds to exactly 0.0
    cut = lcm.bit_length() - acc.bit_length() + 1077
    return ProbabilityTable(
        m=m,
        entries=tuple([
            ProbabilityEntry(
                idx, _unit_fraction(c), 0.0 if c.bit_length() >= cut else lcm / (c * acc)
            )
            for idx, c in classes
        ]),
        normalization=acc / lcm,
        normalization_exact=Fraction(acc, lcm),
        truncated_at=n,
        tail_bound=tail_num * lcm / (tail_den * acc),
    )


def probability_1d(m: int, j_max: int | None = None, tol: float = 1e-12) -> ProbabilityTable:
    """Distribution over j for fixed net displacement m.

    Includes classes j = 0..J, extending J until the certified tail falls
    below tol relative to the partial normalization (or until j_max).
    """
    _require_int("m", m, 1)
    if j_max is not None:
        _require_int("j_max", j_max, 0)
    _require_tol(tol)
    return _walk(1, m, j_max, tol, 0)


def probability_2d(
    m1: int,
    max_diagonal: int | None = None,
    tol: float = 1e-12,
    min_diagonal: int = 0,
) -> ProbabilityTable:
    """Distribution over (j, k) for displacement m1 along the first axis.

    Classes are added by diagonals of constant j + k (j ascending within
    each), stopping when the certified cross-diagonal tail is below tol
    relative to the partial normalization. min_diagonal forces at least
    that many diagonals in (so a particular class is guaranteed a row);
    truncated_at is the last full diagonal included.
    """
    _require_int("m1", m1, 1)
    if max_diagonal is not None:
        _require_int("max_diagonal", max_diagonal, 0)
    _require_int("min_diagonal", min_diagonal, 0)
    _require_tol(tol)
    return _walk(2, m1, max_diagonal, tol, min_diagonal)


def probability_1d_alt(m: int, j: int) -> float:
    """Alternative weighting: W times per-step rates ((m+j)/N)^(m+j) (j/N)^j.

    The j = 0 class has probability exactly 1, which already signals that
    these weights cannot normalize over j. For j >= 1, Stirling's formula
    for the three factorials in W = N!/((m+j)! j!) cancels every power
    exactly, leaving sqrt(N/(2 pi (m+j) j)) exp(d(N) - d(m+j) - d(j)) with
    d the Stirling remainder: nothing cancels in floats, at any size.
    """
    cls = PathClass1D(m, j)
    if j == 0:
        return 1.0
    n, den, d = cls.n_steps, cls.n_up * j, _stirling_remainder
    # an even shift keeps the int/int quotient N/den a normal float (it is below
    # 2^-1000 only for j past 10^300); the square root halves it back exactly
    shift = max(0, den.bit_length() - n.bit_length() - 1000) & ~1
    root = math.ldexp(math.sqrt((n << shift) / den / (2 * math.pi)), -shift // 2)
    return root * math.exp(d(n) - d(cls.n_up) - d(j))


@dataclass(frozen=True)
class AltProbeResult:
    """Outcome of scanning partial sums of the alternative weighting."""

    crossed: bool
    crossing_j: int | None
    partial_sum: float
    terms_used: int


def alt_divergence_probe(m: int, target: float = 1.5, j_cap: int = 10**4) -> AltProbeResult:
    """Accumulate the alternative weights until the sum exceeds target.

    A normalizable weighting could never exceed 1; any crossing above it
    certifies divergence. The terms decay only like 1/sqrt(N), so the sum
    grows without bound.
    """
    _require_int("m", m, 1)
    if not (target > 1):
        raise ValidationError("target", f"must be > 1, got {target!r}")
    _require_int("j_cap", j_cap, 0)

    total = 0.0
    for j in range(j_cap + 1):
        total += probability_1d_alt(m, j)
        if total > target:
            return AltProbeResult(
                crossed=True, crossing_j=j, partial_sum=total, terms_used=j + 1
            )
    return AltProbeResult(
        crossed=False, crossing_j=None, partial_sum=total, terms_used=j_cap + 1
    )


def moments_1d(cls: PathClass1D, dx=1.0) -> MomentTriple:
    """Distance moments of a class: all paths share |net| = m dx and length N dx.

    mean = m dx, mean_square = N^2 dx^2, variance = 4 j (m+j) dx^2. Exact
    inputs (int or Fraction dx) give exact outputs; floats give floats.
    """
    ints = (cls.m, cls.n_steps * cls.n_steps, 4 * cls.j * (cls.m + cls.j))
    if isinstance(dx, float):  # a float product converts each int; name the one too big
        ints = [_as_float("j" if cls.j > cls.m else "m", value) for value in ints]
    mean, square, variance = ints
    return MomentTriple(mean=mean * dx, mean_square=square * dx * dx, variance=variance * dx * dx)
