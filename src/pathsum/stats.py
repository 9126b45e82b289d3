"""Path-probability distributions and distance moments.

Each class is weighted by the reciprocal of its multiplicity and the
weights are normalized into a distribution over j (1D) or (j, k) (2D).
Weights are exact rationals; only the final probabilities are floats.
Each class's multiplicity comes from the previous one by one exact integer
step (a ratio of small factors), never from factorials, so tables have no
step limit and no dependence on EXACT_STEP_LIMIT. The partial sum
Z = acc/lcm is kept as an integer pair over the running lcm of the
multiplicities. The normalization series converges fast: the term ratio
w_{j+1}/w_j is at most 1/3 for every j >= 0 and m >= 1, which gives the
certified tail bounds reported with every table.

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
    _require_int,
    _require_tol,
    max_series_terms,
)
from .combinatorics import multiplicity_1d


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


def _next_1d(m: int, j: int, c: int) -> int:
    """C(m+2j+2, j+1) from c = C(m+2j, j): the 1D multiplicity one class on."""
    return c * (m + 2 * j + 1) * (m + 2 * j + 2) // ((m + j + 1) * (j + 1))


def _add_reciprocal(acc: int, lcm: int, c: int) -> tuple[int, int]:
    """acc/lcm + 1/c, kept over the common denominator lcm(lcm, c)."""
    new = math.lcm(lcm, c)
    return acc * (new // lcm) + new // c, new


def _table(m, classes, acc, lcm, tail_num, tail_den, truncated_at) -> ProbabilityTable:
    # Z = acc/lcm and the tail is tail_num/tail_den, all exact integers, so each
    # int/int division below is the correctly rounded float of its rational.
    return ProbabilityTable(
        m=m,
        entries=tuple(
            ProbabilityEntry(index=idx, weight=Fraction(1, c), probability=lcm / (c * acc))
            for idx, c in classes
        ),
        normalization=acc / lcm,
        normalization_exact=Fraction(acc, lcm),
        truncated_at=truncated_at,
        tail_bound=tail_num * lcm / (tail_den * acc),
    )


def probability_1d(m: int, j_max: int | None = None, tol: float = 1e-12) -> ProbabilityTable:
    """Distribution over j for fixed net displacement m.

    Includes classes j = 0..J, extending J until the certified tail falls
    below tol relative to the partial normalization (or until j_max).
    """
    _require_int("m", m)
    if m < 1:
        raise ValidationError("m", f"must be >= 1, got {m}")
    if j_max is not None:
        _require_int("j_max", j_max)
        if j_max < 0:
            raise ValidationError("j_max", f"must be >= 0, got {j_max}")
    _require_tol(tol)

    cap = max_series_terms()
    classes: list[tuple[tuple[int, ...], int]] = []
    acc, lcm = 0, 1
    c = 1  # C(m+2j, j), the multiplicity of class j
    j = 0
    while True:
        classes.append(((j,), c))
        acc, lcm = _add_reciprocal(acc, lcm, c)
        c = _next_1d(m, j, c)
        # w_{j+1}/w_j = (m+j+1)(j+1)/((m+2j+1)(m+2j+2)) <= 1/3 for all j >= 0, m >= 1,
        # so a truncated weight sum omits at most w_{J+1} * sum(3^-i) = 1.5 * w_{J+1},
        # which is 3 / (2 C(m+2J+2, J+1)).
        if 3 / (2 * c) <= tol * (acc / lcm):
            break
        if j_max is not None and j >= j_max:
            break
        if j + 1 >= cap:
            raise SeriesCapError(f"probability_1d(m={m}) hit the {cap}-term cap")
        j += 1
    return _table(m, classes, acc, lcm, 3, 2 * c, j)


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
    _require_int("m1", m1)
    if m1 < 1:
        raise ValidationError("m1", f"must be >= 1, got {m1}")
    if max_diagonal is not None:
        _require_int("max_diagonal", max_diagonal)
        if max_diagonal < 0:
            raise ValidationError("max_diagonal", f"must be >= 0, got {max_diagonal}")
    _require_int("min_diagonal", min_diagonal)
    if min_diagonal < 0:
        raise ValidationError("min_diagonal", f"must be >= 0, got {min_diagonal}")
    _require_tol(tol)

    cap = max_series_terms()
    classes: list[tuple[tuple[int, ...], int]] = []
    acc, lcm = 0, 1
    head = 1  # C(0, n) = (m1+2n)! / (m1! (n!)^2), the first class of diagonal n
    c1 = 1  # C(m1+2n, n), the 1D multiplicity, for the tail bound
    n = 0
    while True:
        c = head
        for j in range(n + 1):
            k = n - j
            classes.append(((j, k), c))
            acc, lcm = _add_reciprocal(acc, lcm, c)
            c = c * k * k // ((m1 + j + 1) * (j + 1))  # C(j+1, k-1)
        # Every class on diagonal j+k = n weighs at most the 1D weight w1(n),
        # and there are n+1 of them, so the tail over diagonals n > N is at most
        # sum_{i>=0} (N+2+i) w1(N+1) 3^-i = w1(N+1) * (1.5 (N+2) + 0.75),
        # that is (6N+15) / (4 C(m1+2N+2, N+1)).
        c1 = _next_1d(m1, n, c1)
        tail_num, tail_den = 6 * n + 15, 4 * c1
        if n >= min_diagonal and tail_num / tail_den <= tol * (acc / lcm):
            break
        if max_diagonal is not None and n >= max_diagonal:
            break
        if len(classes) + n + 2 > cap:
            raise SeriesCapError(f"probability_2d(m1={m1}) hit the {cap}-term cap")
        head = head * (m1 + 2 * n + 1) * (m1 + 2 * n + 2) // ((n + 1) * (n + 1))
        n += 1
    return _table(m1, classes, acc, lcm, tail_num, tail_den, n)


def probability_1d_alt(m: int, j: int) -> float:
    """Alternative weighting: W times per-step rates ((m+j)/N)^(m+j) (j/N)^j.

    Computed in log space; the j = 0 class has probability exactly 1, which
    already signals that these weights cannot normalize over j.
    """
    cls = PathClass1D(m, j)
    if j == 0:
        return 1.0
    n = cls.n_steps
    log_w = multiplicity_1d(cls).log_value
    log_p = log_w + cls.n_up * math.log(cls.n_up / n) + j * math.log(j / n)
    return math.exp(log_p)


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
    _require_int("m", m)
    if m < 1:
        raise ValidationError("m", f"must be >= 1, got {m}")
    if not (target > 1):
        raise ValidationError("target", f"must be > 1, got {target!r}")
    _require_int("j_cap", j_cap)
    if j_cap < 0:
        raise ValidationError("j_cap", f"must be >= 0, got {j_cap}")

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
    mean = cls.m * dx
    mean_square = cls.n_steps * cls.n_steps * dx * dx
    variance = 4 * cls.j * (cls.m + cls.j) * dx * dx
    return MomentTriple(mean=mean, mean_square=mean_square, variance=variance)
