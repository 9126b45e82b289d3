"""Two-level ensembles equivalent to the path classes.

A 1D class (m, j) maps onto N = m + 2j two-level systems with m + j up
and j down, which fixes an effective inverse temperature through the
population ratio. Transverse round trips map onto a second species with
equal populations, i.e. infinite temperature. This module carries the
partition functions, the temperature assignment, closed-form entropies
with their Stirling pedigree, and the energy moments that mirror the
distance moments of the path picture.

Conventions: j = 0 is the classical, fully ordered case; beta_for_path
returns math.inf there and both entropy forms return exactly 0.0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .core import (
    MomentTriple,
    PathClass1D,
    PathClassND,
    ValidationError,
    _as_float,
    _require_int,
    _require_kb_product,
    _require_positive,
)


def beta_for_path(m: int, j: int, E: float) -> float:
    """Inverse temperature with equilibrium populations m+j up, j down.

    Solves exp(2 beta E) = (m+j)/j; returns math.inf for j = 0 (the
    ordered, zero-entropy case). Raises ValidationError("E") when beta is
    not a normal float, which happens only for extreme level spacings.
    """
    PathClass1D(m, j)  # reuse the domain validation
    _require_positive("E", E)
    if j == 0:
        return math.inf
    # ln((m+j)/j) = log1p(m/j), with m/j correctly rounded; where m/j is past
    # the float range, m >> j and the difference of the two logs cannot cancel
    try:
        log_ratio = math.log1p(m / j)
    except OverflowError:
        log_ratio = math.log(m + j) - math.log(j)
    # halving first keeps 2E from overflowing
    beta = (0.5 * log_ratio) / E
    if not sys.float_info.min <= beta < math.inf:
        raise ValidationError(
            "E", f"beta = ln((m+j)/j)/(2E) = {beta} is not a normal float at E = {E}"
        )
    return beta


def partition_1d(beta: float, E: float) -> float:
    """Single-spin partition function 2 cosh(beta E).

    beta = inf, the ordered case j = 0, gives inf. Any other beta whose
    2 cosh(beta E) is past the float range raises ValidationError("beta").
    """
    _require_positive("E", E)
    if math.isnan(beta):
        raise ValidationError("beta", "must not be NaN")
    if beta == math.inf:
        return math.inf
    try:
        value = 2.0 * math.cosh(beta * E)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise ValidationError("beta", f"2 cosh(beta E) is past the float range at beta = {beta}")
    return value


@dataclass(frozen=True)
class SpinEnsemble1D:
    """N = m + 2j spins of level spacing E at the class's matched temperature."""

    m: int
    j: int
    E: float
    beta: float

    @classmethod
    def from_path_class(cls, path: PathClass1D, E: float) -> "SpinEnsemble1D":
        return cls(m=path.m, j=path.j, E=E, beta=beta_for_path(path.m, path.j, E))

    @property
    def n_spins(self) -> int:
        return self.m + 2 * self.j

    @property
    def n_up(self) -> int:
        return self.m + self.j

    @property
    def n_down(self) -> int:
        return self.j


def magnetization(ens: SpinEnsemble1D) -> float:
    """Mean spin excess per site, tanh(beta E); equals m/N at the matched beta."""
    if math.isinf(ens.beta):
        return 1.0
    return math.tanh(ens.beta * ens.E)


def two_level_entropy(n_spins: int, x: float, kB: float = 1.0) -> float:
    """Canonical entropy of n independent two-level systems at x = beta E.

    kB n (ln(2 cosh x) - x tanh x). This is the standard route against
    which the closed population form is cross-checked.
    """
    _require_positive("kB", kB)
    _require_int("n_spins", n_spins, 1)
    if math.isnan(x):
        raise ValidationError("x", "must not be NaN")
    if math.isinf(x):
        return 0.0
    # ln(2 cosh x) = |x| + log1p(exp(-2|x|)) avoids overflow at large x
    ax = abs(x)
    ln_2cosh = ax + math.log1p(math.exp(-2.0 * ax))
    return _require_kb_product(kB * _as_float("n_spins", n_spins) * (ln_2cosh - x * math.tanh(x)))


def ensemble_entropy_large_n(ens: SpinEnsemble1D, kB: float = 1.0) -> float:
    """Closed-form entropy from the populations, 0 for j = 0:

    kB [N ln N - (m+j) ln(m+j) - j ln j] = kB [(m+j) ln(N/(m+j)) + j ln(N/j)],
    which is kB mixing_log_count(m+j, j) and has no cancelling terms.
    Algebraically identical to two_level_entropy(N, beta E).
    """
    _require_positive("kB", kB)
    if ens.j == 0:
        return 0.0
    _as_float("m", ens.n_spins)  # the value is at most N ln 2, finite while N is
    return _require_kb_product(kB * mixing_log_count(ens.n_up, ens.j))


def entropy_cosh_form(ens: SpinEnsemble1D, kB: float = 1.0) -> float:
    """Variant kB N (ln cosh(beta E) - beta E tanh(beta E)), 0 for j = 0.

    Differs from the canonical entropy by -kB N ln 2 and is negative for
    any beta E > 0; exposed for comparison, not for thermodynamics.
    """
    _require_positive("kB", kB)
    if ens.j == 0:
        return 0.0
    x = ens.beta * ens.E
    return _require_kb_product(
        kB * _as_float("m", ens.n_spins) * (math.log(math.cosh(x)) - x * math.tanh(x))
    )


def energy_moments(ens: SpinEnsemble1D) -> MomentTriple:
    """Energy-scale moments m E, N^2 E^2, 4 j (m+j) E^2.

    Structurally identical to the distance moments with dx replaced by E.
    Raises ValidationError("E") when a moment exceeds the float range.
    """
    m, j, e = ens.m, ens.j, ens.E
    n = ens.n_spins
    try:
        moments = (m * e, n * n * e * e, 4 * j * (m + j) * e * e)
    except OverflowError:  # an int factor past the float range
        moments = (math.inf,)
    if not all(map(math.isfinite, moments)):
        raise ValidationError("E", f"the energy moments overflow at E = {e}")
    return MomentTriple(*moments)


@dataclass(frozen=True)
class SpinEnsemble2D:
    """Two species: N1 = m1 + 2j at matched beta1, N2 = 2k at beta2 = 0."""

    m1: int
    j: int
    k: int
    E1: float
    E2: float
    beta1: float
    beta2: float

    @classmethod
    def from_path_class(cls, path: PathClassND, E1: float, E2: float) -> "SpinEnsemble2D":
        if path.dimension != 2:
            raise ValidationError("l", "2D ensemble requires a 2D class (l is None)")
        _require_positive("E2", E2)
        return cls(
            m1=path.m1,
            j=path.j,
            k=path.k,
            E1=E1,
            E2=E2,
            beta1=beta_for_path(path.m1, path.j, E1),
            beta2=0.0,
        )

    @property
    def n_species1(self) -> int:
        return self.m1 + 2 * self.j

    @property
    def n_species2(self) -> int:
        return 2 * self.k


def _species_name(ens: SpinEnsemble2D) -> str:
    """The argument of the larger species, named when a value leaves the float range."""
    return "k" if ens.n_species2 > ens.n_species1 else "m1"


def _species_counts(ens: SpinEnsemble2D) -> tuple[float, float]:
    """N1 and N2 as floats; ValidationError when one is past the float range."""
    name = _species_name(ens)
    return _as_float(name, ens.n_species1), _as_float(name, ens.n_species2)


def _require_finite_log(ens: SpinEnsemble2D, total: float) -> float:
    """A sum of non-negative terms in natural units; ValidationError if it is inf."""
    if total == math.inf:
        raise ValidationError(_species_name(ens), "the sum is past the float range")
    return total


def restriction_check(ens: SpinEnsemble2D, tol: float = 1e-12) -> bool:
    """True when the transverse species is balanced: net magnetization <= tol.

    Balance (equal up and down populations, beta2 E2 = 0) is what ties the
    second species to transverse round trips; a 2D ensemble without a
    second species (k = 0) has nothing to check.
    """
    if ens.k == 0:
        raise ValidationError("k", "no transverse species to check (k = 0)")
    if not (tol >= 0):
        raise ValidationError("tol", f"must be >= 0, got {tol!r}")
    return abs(math.tanh(ens.beta2 * ens.E2)) <= tol


def mixing_log_count(n1: int, n2: int) -> float:
    """Large-N log count of interleavings of two species:

    n2 ln(1 + n1/n2) + n1 ln(1 + n2/n1), the Stirling form of ln C(n1+n2, n1).
    Zero when either species is absent.
    """
    _require_int("n1", n1, 0)
    _require_int("n2", n2, 0)
    if n1 == 0 or n2 == 0:
        return 0.0
    try:
        value = n2 * math.log1p(n1 / n2) + n1 * math.log1p(n2 / n1)
    except OverflowError:  # a count or a count ratio is past the float range
        value = _mixing_log_count_huge(n1, n2)
    if value == math.inf:
        raise ValidationError(
            "n1" if n1 >= n2 else "n2", "the mixing log count is past the float range"
        )
    return value


def _mixing_log_count_huge(n1: int, n2: int) -> float:
    """mixing_log_count in log space, for counts or ratios past the float range.

    With s <= b the two counts and y = s/b, the value is
    s log1p(b/s) + b log1p(y) = s (log1p(b/s) + log1p(y)/y). log1p(b/s) is
    log(b + s) - log(s) on the ints once b/s overflows, and log1p(y)/y is 1
    once y underflows. The value is at least 2 s ln 2, so it is inf when s
    is past the float range.
    """
    small, big = min(n1, n2), max(n1, n2)
    try:
        scale = float(small)
    except OverflowError:
        return math.inf
    try:
        log_ratio = math.log1p(big / small)
    except OverflowError:
        log_ratio = math.log(big + small) - math.log(small)
    y = small / big  # in (0, 1]
    return scale * (log_ratio + (math.log1p(y) / y if y else 1.0))


def partition_2d(beta1: float, E1: float, beta2: float, E2: float) -> float:
    """Product of single-spin partition functions for the two species."""
    return partition_1d(beta1, E1) * partition_1d(beta2, E2)


def combined_partition_2d(ens: SpinEnsemble2D) -> float:
    """Log of the full two-species partition function including interleavings:

    N1 ln(2 cosh(beta1 E1)) + N2 ln(2 cosh(beta2 E2)) + mixing term.
    Kept in log space; the linear-scale value overflows floats for modest N.
    Raises ValidationError naming the larger species (m1 or k) when the
    log is past the float range.
    """
    if math.isinf(ens.beta1):
        raise ValidationError("beta1", "log partition is infinite for j = 0")
    n1, n2 = _species_counts(ens)
    log_z1 = math.log(partition_1d(ens.beta1, ens.E1))
    total = n1 * log_z1
    if n2 > 0:
        total += n2 * math.log(partition_1d(ens.beta2, ens.E2))
        total += mixing_log_count(ens.n_species1, ens.n_species2)
    return _require_finite_log(ens, total)


def ensemble_entropy_2d(ens: SpinEnsemble2D, kB: float = 1.0) -> float:
    """Entropy of the two-species system: matched species, balanced species,
    and the mixing contribution.

    s1 is the 1D closed form; the balanced species contributes kB N2 ln 2;
    interleaving adds kB times the mixing log count. k = 0 reduces to s1.
    Raises ValidationError naming the larger species (m1 or k) when the
    entropy in natural units is past the float range, and "kB" when only
    its product with kB is.
    """
    _require_positive("kB", kB)
    species1 = SpinEnsemble1D(m=ens.m1, j=ens.j, E=ens.E1, beta=ens.beta1)
    if ens.k == 0:
        return ensemble_entropy_large_n(species1, kB)
    s1 = ensemble_entropy_large_n(species1)  # in natural units
    n2 = _species_counts(ens)[1]
    mixing = mixing_log_count(ens.n_species1, ens.n_species2)
    _require_finite_log(ens, s1 + n2 * math.log(2.0) + mixing)
    return _require_kb_product(kB * s1 + kB * n2 * math.log(2.0) + kB * mixing)
