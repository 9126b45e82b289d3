"""Shared domain types for the discrete-step walk model.

Everything downstream (counting, kernel sums, probability tables, ensembles)
builds on the validated value objects defined here. All quantities are kept
in caller-supplied units; nothing in this package hard-codes a physical
constant.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

DEFAULT_MAX_TERMS = 10**6
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


def _require_int(name: str, value) -> int:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(name, f"must be an integer, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    if not 0 < value < math.inf:  # also false for NaN
        raise ValidationError(name, f"must be finite and > 0, got {value!r}")
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
        _require_int("m", self.m)
        _require_int("j", self.j)
        if self.m < 1:
            raise ValidationError("m", f"net displacement must be >= 1, got {self.m}")
        if self.j < 0:
            raise ValidationError("j", f"backward-step count must be >= 0, got {self.j}")

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
        _require_int("m1", self.m1)
        _require_int("j", self.j)
        _require_int("k", self.k)
        if self.m1 < 1:
            raise ValidationError("m1", f"net displacement must be >= 1, got {self.m1}")
        if self.j < 0:
            raise ValidationError("j", f"must be >= 0, got {self.j}")
        if self.k < 0:
            raise ValidationError("k", f"must be >= 0, got {self.k}")
        if self.l is not None:
            _require_int("l", self.l)
            if self.l < 0:
                raise ValidationError("l", f"must be >= 0, got {self.l}")

    @property
    def dimension(self) -> int:
        return 2 if self.l is None else 3

    @property
    def n_steps(self) -> int:
        extra = 0 if self.l is None else 2 * self.l
        return self.m1 + 2 * self.j + 2 * self.k + extra


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, lattice spacings, time step, and constants, all caller-supplied.

    dy defaults to dx (isotropic lattice). kB defaults to 1 so natural-unit
    work needs no boilerplate; SI callers pass their own values.
    """

    M: float
    dx: float
    dt: float
    hbar: float
    kB: float = 1.0
    dy: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        _require_positive("M", self.M)
        _require_positive("dx", self.dx)
        _require_positive("dt", self.dt)
        _require_positive("hbar", self.hbar)
        _require_positive("kB", self.kB)
        if self.dy is None:
            object.__setattr__(self, "dy", self.dx)
        else:
            _require_positive("dy", self.dy)

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
            _require_int("exact", self.exact)
            if self.exact < 1:
                raise ValidationError("exact", f"count must be >= 1, got {self.exact}")

    @classmethod
    def from_exact(cls, n: int) -> "BigCount":
        _require_int("exact", n)
        if n < 1:
            raise ValidationError("exact", f"count must be >= 1, got {n}")
        # math.log accepts arbitrary-size ints directly
        return cls(log_value=math.log(n), exact=n)

    @classmethod
    def from_log(cls, log_value: float) -> "BigCount":
        return cls(log_value=log_value, exact=None)


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
