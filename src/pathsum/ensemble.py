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
    _require_int,
    _require_positive,
)


def beta_for_path(m: int, j: int, E: float) -> float:
    """Inverse temperature with equilibrium populations m+j up, j down.

    Solves exp(2 beta E) = (m+j)/j; returns math.inf for j = 0 (the
    ordered, zero-entropy case). Raises ValidationError("E") when beta is
    not a normal float, which happens only for extreme level spacings.
    """
    cls = PathClass1D(m, j)  # reuse the domain validation
    _require_positive("E", E)
    if j == 0:
        return math.inf
    # halving first keeps 2E from overflowing; it is otherwise the same
    # float as log(ratio) / (2E)
    beta = (0.5 * math.log(cls.n_up / cls.n_down)) / E
    if not sys.float_info.min <= beta < math.inf:
        raise ValidationError(
            "E", f"beta = ln((m+j)/j)/(2E) = {beta} is not a normal float at E = {E}"
        )
    return beta


def partition_1d(beta: float, E: float) -> float:
    """Single-spin partition function 2 cosh(beta E)."""
    _require_positive("E", E)
    if math.isnan(beta):
        raise ValidationError("beta", "must not be NaN")
    return 2.0 * math.cosh(beta * E)


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
    _require_int("n_spins", n_spins)
    if n_spins < 1:
        raise ValidationError("n_spins", f"must be >= 1, got {n_spins}")
    if math.isnan(x):
        raise ValidationError("x", "must not be NaN")
    if math.isinf(x):
        return 0.0
    # ln(2 cosh x) = |x| + log1p(exp(-2|x|)) avoids overflow at large x
    ax = abs(x)
    ln_2cosh = ax + math.log1p(math.exp(-2.0 * ax))
    return kB * n_spins * (ln_2cosh - x * math.tanh(x))


def ensemble_entropy_large_n(ens: SpinEnsemble1D, kB: float = 1.0) -> float:
    """Closed-form entropy from the populations:

    kB N [ln(N / sqrt(j (m+j))) - (m / 2N) ln((m+j)/j)], 0 for j = 0.
    Algebraically identical to two_level_entropy(N, beta E).
    """
    if ens.j == 0:
        return 0.0
    m, j = ens.m, ens.j
    n = ens.n_spins
    return kB * n * (
        math.log(n / math.sqrt(j * (m + j))) - (m / (2.0 * n)) * math.log((m + j) / j)
    )


def entropy_cosh_form(ens: SpinEnsemble1D, kB: float = 1.0) -> float:
    """Variant kB N (ln cosh(beta E) - beta E tanh(beta E)), 0 for j = 0.

    Differs from the canonical entropy by -kB N ln 2 and is negative for
    any beta E > 0; exposed for comparison, not for thermodynamics.
    """
    if ens.j == 0:
        return 0.0
    x = ens.beta * ens.E
    return kB * ens.n_spins * (math.log(math.cosh(x)) - x * math.tanh(x))


def energy_moments(ens: SpinEnsemble1D) -> MomentTriple:
    """Energy-scale moments m E, N^2 E^2, 4 j (m+j) E^2.

    Structurally identical to the distance moments with dx replaced by E.
    """
    m, j, e = ens.m, ens.j, ens.E
    n = ens.n_spins
    return MomentTriple(
        mean=m * e,
        mean_square=n * n * e * e,
        variance=4 * j * (m + j) * e * e,
    )


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
    _require_int("n1", n1)
    _require_int("n2", n2)
    if n1 < 0 or n2 < 0:
        raise ValidationError("n1" if n1 < 0 else "n2", "must be >= 0")
    if n1 == 0 or n2 == 0:
        return 0.0
    return n2 * math.log1p(n1 / n2) + n1 * math.log1p(n2 / n1)


def partition_2d(beta1: float, E1: float, beta2: float, E2: float) -> float:
    """Product of single-spin partition functions for the two species."""
    return partition_1d(beta1, E1) * partition_1d(beta2, E2)


def combined_partition_2d(ens: SpinEnsemble2D) -> float:
    """Log of the full two-species partition function including interleavings:

    N1 ln(2 cosh(beta1 E1)) + N2 ln(2 cosh(beta2 E2)) + mixing term.
    Kept in log space; the linear-scale value overflows floats for modest N.
    """
    n1, n2 = ens.n_species1, ens.n_species2
    if math.isinf(ens.beta1):
        raise ValidationError("beta1", "log partition is infinite for j = 0")
    log_z1 = math.log(partition_1d(ens.beta1, ens.E1))
    total = n1 * log_z1
    if n2 > 0:
        total += n2 * math.log(partition_1d(ens.beta2, ens.E2))
        total += mixing_log_count(n1, n2)
    return total


def ensemble_entropy_2d(ens: SpinEnsemble2D, kB: float = 1.0) -> float:
    """Entropy of the two-species system: matched species, balanced species,
    and the mixing contribution.

    s1 is the 1D closed form; the balanced species contributes kB N2 ln 2;
    interleaving adds kB times the mixing log count. k = 0 reduces to s1.
    """
    species1 = SpinEnsemble1D(m=ens.m1, j=ens.j, E=ens.E1, beta=ens.beta1)
    s1 = ensemble_entropy_large_n(species1, kB)
    if ens.k == 0:
        return s1
    n1, n2 = ens.n_species1, ens.n_species2
    return s1 + kB * n2 * math.log(2.0) + kB * mixing_log_count(n1, n2)
