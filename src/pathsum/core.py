"""Shared domain types for the discrete-step walk model.

Everything downstream (counting, kernel sums, probability tables, ensembles)
builds on the validated value objects defined here. All quantities are kept
in caller-supplied units; nothing in this package hard-codes a physical
constant.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

DEFAULT_MAX_TERMS = 10**6
DEFAULT_ENUMERATION_CAP = 10**6
_MAX_TERMS_ENV = "PATHSUM_MAX_TERMS"


class ValidationError(ValueError):
    """An input failed a domain precondition. Carries the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


class ResourceCapError(RuntimeError):
    """A computation exceeded a configured size or length cap."""


class SeriesCapError(ResourceCapError):
    """A series hit the term cap before reaching its tolerance."""


class EnumerationCapError(ResourceCapError):
    """A path enumeration would materialize more sequences than allowed."""


class DivergenceError(ValueError):
    """The requested series has no finite value."""


def max_series_terms() -> int:
    """Per-call term cap for series evaluation.

    Reads the PATHSUM_MAX_TERMS environment variable (positive integer);
    defaults to 10^6 when unset.
    """
    raw = os.environ.get(_MAX_TERMS_ENV)
    if raw is None:
        return DEFAULT_MAX_TERMS
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(_MAX_TERMS_ENV, f"not an integer: {raw!r}") from None
    if cap < 1:
        raise ValidationError(_MAX_TERMS_ENV, f"must be >= 1, got {cap}")
    return cap


def _require_int(name: str, value, minimum: int | None = None) -> int:
    """value if it is an int (not a bool) and, when a minimum is given, >= minimum."""
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(name, f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        try:
            shown = str(value)
        except ValueError:  # past the int -> str digit limit, so far below any minimum
            shown = f"a {value.bit_length()}-bit negative integer"
        raise ValidationError(name, f"must be >= {minimum}, got {shown}")
    return value


def _require_positive(name: str, value: float) -> float:
    if not 0 < value < math.inf:  # also false for NaN
        raise ValidationError(name, f"must be finite and > 0, got {value!r}")
    return value


def _as_float(name: str, value: int) -> float:
    """An int as a float; ValidationError(name) when it is past the float range."""
    try:
        return float(value)
    except OverflowError:
        bits = value.bit_length()
        raise ValidationError(name, f"a {bits}-bit integer is past the float range") from None


def _require_kb_product(value: float) -> float:
    """kB times a finite entropy in natural units, kB already checked."""
    if not math.isfinite(value):
        raise ValidationError(
            "kB", f"the entropy in these units is past the float range, got {value!r}"
        )
    return value


def _require_tol(tol: float) -> float:
    # a relative tolerance >= 1 would accept a sum with no accurate digit
    if not 0 < tol < 1:  # also false for NaN
        raise ValidationError("tol", f"must be in (0, 1), got {tol!r}")
    return tol


@dataclass(frozen=True)
class PathClass1D:
    """A class of 1D walks with net displacement m and j backward steps.

    Every walk in the class takes m + j steps forward and j steps backward,
    N = m + 2j steps in all.
    """

    m: int
    j: int

    def __post_init__(self):
        _require_int("m", self.m, 1)
        _require_int("j", self.j, 0)

    @property
    def n_steps(self) -> int:
        return self.m + 2 * self.j

    @property
    def n_up(self) -> int:
        return self.m + self.j

    @property
    def n_down(self) -> int:
        return self.j


@dataclass(frozen=True)
class PathClassND:
    """A class of 2D or 3D walks: net displacement m1 along the first axis only.

    j counts backward steps on the displacement axis; k (and l in 3D) count
    round-trip pairs on the transverse axes, which each contribute equal
    numbers of steps in both directions. l = None selects the 2D case.
    """

    m1: int
    j: int
    k: int
    l: int | None = None

    def __post_init__(self):
        _require_int("m1", self.m1, 1)
        _require_int("j", self.j, 0)
        _require_int("k", self.k, 0)
        if self.l is not None:
            _require_int("l", self.l, 0)

    @property
    def dimension(self) -> int:
        return 2 if self.l is None else 3

    @property
    def n_steps(self) -> int:
        extra = 0 if self.l is None else 2 * self.l
        return self.m1 + 2 * self.j + 2 * self.k + extra


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, lattice spacing, time step, and hbar, all caller-supplied."""

    M: float
    dx: float
    dt: float
    hbar: float

    def __post_init__(self):
        _require_positive("M", self.M)
        _require_positive("dx", self.dx)
        _require_positive("dt", self.dt)
        _require_positive("hbar", self.hbar)

    @property
    def step_action(self) -> float:
        """Action scale M*dx^2/(2*dt) of a single lattice step."""
        return self.M * self.dx * self.dx / (2.0 * self.dt)

    @property
    def b(self) -> float:
        """Dimensionless Gaussian decay constant M*dx^2/(2*dt*hbar)."""
        return self.step_action / self.hbar


def dimensionless_b(params: PhysicalParams) -> float:
    """Reduce physical parameters to the single dimensionless constant b."""
    return params.b


@dataclass(frozen=True)
class DeBroglieCheck:
    """Resolution check of the lattice against the wavelength hbar/(M*v)."""

    wavelength: float
    dx_resolved: bool
    distance_resolved: bool


def debroglie_limit(params: PhysicalParams, distance: float) -> DeBroglieCheck:
    """Wavelength hbar/(M*v) at drift speed v = distance/dt per step interval.

    The lattice resolves the wave when dx stays at or below the wavelength;
    the total distance should exceed it for interference structure to fit.
    """
    _require_positive("distance", distance)
    v = distance / params.dt
    lam = params.hbar / (params.M * v)
    return DeBroglieCheck(
        wavelength=lam,
        dx_resolved=params.dx <= lam,
        distance_resolved=distance >= lam,
    )


@dataclass(frozen=True)
class BigCount:
    """A path-class count held both exactly and in log space.

    exact is None when the count was produced beyond the exact-arithmetic
    cutoff; log_value is always usable.
    """

    log_value: float
    exact: int | None = None

    def __post_init__(self):
        if self.exact is not None:
            _require_int("exact", self.exact, 1)

    @classmethod
    def from_exact(cls, n: int) -> "BigCount":
        _require_int("exact", n, 1)
        # math.log accepts arbitrary-size ints directly
        count = cls.from_log(math.log(n))
        object.__setattr__(count, "exact", n)
        return count

    @classmethod
    def from_log(cls, log_value: float) -> "BigCount":
        # cls(log_value) without the frozen __init__ and __post_init__, which
        # have nothing to check here
        count = object.__new__(cls)
        object.__setattr__(count, "log_value", log_value)
        object.__setattr__(count, "exact", None)
        return count


@dataclass(frozen=True)
class SumResult:
    """A truncated series value with its certificate.

    truncation_bound is a rigorous upper bound on the omitted tail, so the
    full sum lies in [value, value + truncation_bound] up to roundoff. route
    names how the value was computed: "direct" (terms_used classes added one
    by one) or "euler_maclaurin" (an integral and terms_used - 1 boundary
    corrections; the interval then includes roundoff).
    """

    value: float
    terms_used: int
    truncation_bound: float
    route: str = "direct"


@dataclass(frozen=True)
class MomentTriple:
    """First moment, second moment, and variance of a distance or energy."""

    mean: float
    mean_square: float
    variance: float
