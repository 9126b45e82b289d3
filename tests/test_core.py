import argparse
import math
import sys

import pytest
from hypothesis import given, strategies as st

import pathsum
from pathsum import cli
from pathsum import (
    BigCount,
    DeBroglieCheck,
    PathClass1D,
    PathClassND,
    PhysicalParams,
    ValidationError,
    debroglie_limit,
    dimensionless_b,
    max_series_terms,
)
from pathsum.core import DEFAULT_MAX_TERMS

ELECTRON_MASS = 9.1093837015e-31
HBAR = 1.054571817e-34


class TestPathClass1D:
    def test_step_counts(self):
        cls = PathClass1D(m=2, j=3)
        assert cls.n_steps == 8
        assert cls.n_up == 5
        assert cls.n_down == 3

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=50))
    def test_population_identities(self, m, j):
        cls = PathClass1D(m, j)
        assert cls.n_up - cls.n_down == m
        assert cls.n_up + cls.n_down == cls.n_steps
        assert cls.n_steps == m + 2 * j

    @pytest.mark.parametrize("m,j", [(0, 1), (-1, 0), (2, -1)])
    def test_rejects_out_of_domain(self, m, j):
        with pytest.raises(ValidationError):
            PathClass1D(m, j)

    def test_rejects_non_integers(self):
        with pytest.raises(ValidationError, match="m"):
            PathClass1D(1.5, 0)
        with pytest.raises(ValidationError, match="j"):
            PathClass1D(2, True)

    def test_is_frozen(self):
        cls = PathClass1D(1, 1)
        with pytest.raises(AttributeError):
            cls.m = 3


class TestPathClassND:
    def test_2d_when_l_missing(self):
        cls = PathClassND(m1=2, j=1, k=1)
        assert cls.dimension == 2
        assert cls.n_steps == 6

    def test_3d_when_l_given(self):
        cls = PathClassND(m1=1, j=0, k=1, l=1)
        assert cls.dimension == 3
        assert cls.n_steps == 5

    @pytest.mark.parametrize("kwargs", [
        dict(m1=0, j=0, k=0),
        dict(m1=1, j=-1, k=0),
        dict(m1=1, j=0, k=-2),
        dict(m1=1, j=0, k=0, l=-1),
    ])
    def test_rejects_out_of_domain(self, kwargs):
        with pytest.raises(ValidationError):
            PathClassND(**kwargs)


class TestPhysicalParams:
    def test_b_for_electron_lattice(self):
        # reference value computed to 60 digits from b = M dx^2 / (2 dt hbar)
        params = PhysicalParams(M=ELECTRON_MASS, dx=1e-10, dt=1e-16, hbar=HBAR)
        assert dimensionless_b(params) == pytest.approx(0.4318996371159424, rel=1e-14)

    def test_natural_units(self):
        params = PhysicalParams(M=2.0, dx=1.0, dt=1.0, hbar=1.0)
        assert params.b == 1.0
        assert params.step_action == 1.0

    def test_has_no_kb_or_dy(self):
        # entropies take their own kB, and no code reads a second spacing
        for extra in (dict(kB=1.38e-23), dict(dy=0.5)):
            with pytest.raises(TypeError):
                PhysicalParams(M=1.0, dx=1.0, dt=1.0, hbar=1.0, **extra)

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_b_invariant_under_joint_rescaling(self, base, factor):
        # b depends on M and dt only through M/dt
        one = PhysicalParams(M=base, dx=1.0, dt=1.0, hbar=1.0)
        two = PhysicalParams(M=base * factor, dx=1.0, dt=factor, hbar=1.0)
        assert two.b == pytest.approx(one.b, rel=1e-12)

    @pytest.mark.parametrize("field,kwargs", [
        ("M", dict(M=0.0, dx=1.0, dt=1.0, hbar=1.0)),
        ("dx", dict(M=1.0, dx=-1.0, dt=1.0, hbar=1.0)),
        ("dt", dict(M=1.0, dx=1.0, dt=0.0, hbar=1.0)),
        ("hbar", dict(M=1.0, dx=1.0, dt=1.0, hbar=0.0)),
        ("hbar", dict(M=1.0, dx=1.0, dt=1.0, hbar=math.nan)),
        ("dt", dict(M=1.0, dx=1.0, dt=-math.inf, hbar=1.0)),
        ("M", dict(M=math.inf, dx=1.0, dt=1.0, hbar=1.0)),
    ])
    def test_rejects_nonpositive(self, field, kwargs):
        with pytest.raises(ValidationError, match=field):
            PhysicalParams(**kwargs)


class TestDeBroglie:
    def test_electron_wavelength(self):
        # drift 1 nm per 1e-16 s step; reference value computed to 60 digits
        params = PhysicalParams(M=ELECTRON_MASS, dx=1e-12, dt=1e-16, hbar=HBAR)
        check = debroglie_limit(params, distance=1e-9)
        assert check.wavelength == pytest.approx(1.1576763605054296e-11, rel=1e-14)
        assert check.dx_resolved  # 1e-12 < 1.16e-11
        assert check.distance_resolved  # 1e-9 > 1.16e-11

    def test_coarse_lattice_flagged(self):
        params = PhysicalParams(M=ELECTRON_MASS, dx=1e-10, dt=1e-16, hbar=HBAR)
        check = debroglie_limit(params, distance=1e-9)
        assert not check.dx_resolved  # dx = 1e-10 exceeds the wavelength
        assert isinstance(check, DeBroglieCheck)

    def test_rejects_bad_distance(self):
        params = PhysicalParams(M=1.0, dx=1.0, dt=1.0, hbar=1.0)
        with pytest.raises(ValidationError, match="distance"):
            debroglie_limit(params, 0.0)


class TestBigCount:
    def test_from_exact(self):
        count = BigCount.from_exact(120)
        assert count.exact == 120
        assert count.log_value == pytest.approx(math.log(120), rel=1e-15)

    def test_from_log_has_no_exact(self):
        count = BigCount.from_log(1234.5)
        assert count.exact is None
        assert count.log_value == 1234.5

    def test_handles_huge_integers(self):
        n = math.factorial(300)
        count = BigCount.from_exact(n)
        assert count.log_value == pytest.approx(math.lgamma(301), rel=1e-12)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValidationError):
            BigCount.from_exact(0)
        with pytest.raises(ValidationError):
            BigCount(log_value=0.0, exact=-3)


class TestSeriesCap:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("PATHSUM_MAX_TERMS", raising=False)
        assert max_series_terms() == DEFAULT_MAX_TERMS

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("PATHSUM_MAX_TERMS", "1234")
        assert max_series_terms() == 1234

    @pytest.mark.parametrize("raw", ["0", "-5", "ten"])
    def test_rejects_bad_env(self, monkeypatch, raw):
        monkeypatch.setenv("PATHSUM_MAX_TERMS", raw)
        with pytest.raises(ValidationError, match="PATHSUM_MAX_TERMS"):
            max_series_terms()


# Ints past the float range that a function would convert to form its float
# result: it names the argument instead of raising OverflowError. The
# probability_1d_alt slot holds a huge negative m, which is rejected instead
# of failing to print; its old case, now finite, is a value test in test_stats.
@pytest.mark.parametrize("function, args, name", [
    ("entropy_rate", (PathClass1D(10**400, 10),), "m"),
    ("probability_1d_alt", (-10**5000, 10), "m"),
    ("moments_1d", (PathClass1D(10**400, 10), 0.0), "m"),
    ("moments_1d", (PathClass1D(10**200, 0), 1.0), "m"),  # N^2 alone overflows
    ("moments_1d", (PathClass1D(1, 10**400), 0.0), "j"),
    ("two_level_entropy", (10**400, 0.3), "n_spins"),
])
def test_huge_ints_raise_validation_error(function, args, name):
    with pytest.raises(ValidationError, match=f"^{name}: "):
        getattr(pathsum, function)(*args)


def test_exact_moments_of_huge_classes_stay_exact():
    moments = pathsum.moments_1d(PathClass1D(10**400, 10), 1)
    assert (moments.mean, moments.variance) == (10**400, 40 * (10**400 + 10))


def _cli_namespace(**fields):
    defaults = dict(dim=1, m=1, m1=1, m2=None, j=0, k=0, l=None, kb=1.0, reference_pct=None)
    return argparse.Namespace(**{**defaults, **fields})


# One call per integer bound check: (call of the value, argument name, minimum).
_BOUND_CHECKS = {
    "PathClass1D-m": (lambda v: PathClass1D(v, 0), "m", 1),
    "PathClass1D-j": (lambda v: PathClass1D(1, v), "j", 0),
    "PathClassND-m1": (lambda v: PathClassND(v, 0, 0), "m1", 1),
    "PathClassND-j": (lambda v: PathClassND(1, v, 0), "j", 0),
    "PathClassND-k": (lambda v: PathClassND(1, 0, v), "k", 0),
    "PathClassND-l": (lambda v: PathClassND(1, 0, 0, v), "l", 0),
    "BigCount": (lambda v: BigCount(0.0, v), "exact", 1),
    "BigCount.from_exact": (lambda v: BigCount.from_exact(v), "exact", 1),
    "multiplicity-net": (lambda v: pathsum.multiplicity((v,), (0,)), "net", 0),
    "multiplicity-backward": (lambda v: pathsum.multiplicity((1,), (v,)), "backward", 0),
    "multiplicity_2d_full-m1": (lambda v: pathsum.multiplicity_2d_full(v, 0, 0, 0), "m1", 1),
    "multiplicity_2d_full-m2": (lambda v: pathsum.multiplicity_2d_full(1, v, 0, 0), "m2", 0),
    "multiplicity_2d_full-j": (lambda v: pathsum.multiplicity_2d_full(1, 0, v, 0), "j", 0),
    "multiplicity_2d_full-k": (lambda v: pathsum.multiplicity_2d_full(1, 0, 0, v), "k", 0),
    "minimum_distance_count-m1": (lambda v: pathsum.minimum_distance_count(v, 1), "m1", 0),
    "minimum_distance_count-m2": (lambda v: pathsum.minimum_distance_count(1, v), "m2", 0),
    "count_paths_by_flips-net": (lambda v: pathsum.count_paths_by_flips(1, (v,), 3), "net", 0),
    "enumerate_paths-cap": (lambda v: pathsum.enumerate_paths(1, (1,), 3, cap=v), "cap", 1),
    "probability_1d-m": (lambda v: pathsum.probability_1d(v), "m", 1),
    "probability_1d-j_max": (lambda v: pathsum.probability_1d(1, j_max=v), "j_max", 0),
    "probability_2d-m1": (lambda v: pathsum.probability_2d(v), "m1", 1),
    "probability_2d-max_diagonal": (
        lambda v: pathsum.probability_2d(1, max_diagonal=v), "max_diagonal", 0
    ),
    "probability_2d-min_diagonal": (
        lambda v: pathsum.probability_2d(1, min_diagonal=v), "min_diagonal", 0
    ),
    "alt_divergence_probe-m": (lambda v: pathsum.alt_divergence_probe(v), "m", 1),
    "alt_divergence_probe-j_cap": (lambda v: pathsum.alt_divergence_probe(1, j_cap=v), "j_cap", 0),
    "kernel_sum_1d-m": (lambda v: pathsum.kernel_sum_1d(0.5, v), "m", 1),
    "kernel_sum_2d-m1": (lambda v: pathsum.kernel_sum_2d(0.5, v), "m1", 1),
    "threshold_scan-m_values": (lambda v: pathsum.threshold_scan([v], 0.1, 0.2, 2), "m_values", 1),
    "threshold_scan-n_points": (lambda v: pathsum.threshold_scan([1], 0.1, 0.2, v), "n_points", 2),
    "propagator_normalization-panels": (
        lambda v: pathsum.propagator_normalization(PhysicalParams(1.0, 1.0, 1.0, 1.0), 1.0, v),
        "panels",
        2,
    ),
    "two_level_entropy-n_spins": (lambda v: pathsum.two_level_entropy(v, 0.3), "n_spins", 1),
    "mixing_log_count-n1": (lambda v: pathsum.mixing_log_count(v, 1), "n1", 0),
    "mixing_log_count-n2": (lambda v: pathsum.mixing_log_count(1, v), "n2", 0),
    "cli-multiplicity-m": (lambda v: cli.cmd_multiplicity(_cli_namespace(m=v)), "m", 1),
    "cli-multiplicity-m1": (
        lambda v: cli.cmd_multiplicity(_cli_namespace(dim=2, m1=v)), "m1", 1
    ),
    "cli-prob2d-j": (lambda v: cli.cmd_prob2d(_cli_namespace(j=v)), "j", 0),
    "cli-prob2d-k": (lambda v: cli.cmd_prob2d(_cli_namespace(k=v)), "k", 0),
}


@pytest.mark.parametrize("site", _BOUND_CHECKS)
def test_integer_below_minimum_has_one_message(site):
    call, name, minimum = _BOUND_CHECKS[site]
    with pytest.raises(ValidationError) as info:
        call(minimum - 1)
    assert info.value.field_name == name
    assert str(info.value) == f"{name}: must be >= {minimum}, got {minimum - 1}"


@pytest.mark.parametrize("site", _BOUND_CHECKS)
def test_bool_is_not_an_integer(site):
    call, name, _ = _BOUND_CHECKS[site]
    with pytest.raises(ValidationError) as info:
        call(True)
    assert str(info.value) == f"{name}: must be an integer, got True"


# Too many digits for str() under the default int -> str limit (Python 3.11+).
_HUGE = -10**5000
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("site", _BOUND_CHECKS)
def test_huge_negative_int_is_described_by_bit_length(site):
    call, name, minimum = _BOUND_CHECKS[site]
    with pytest.raises(ValidationError) as info:
        call(_HUGE)
    assert info.value.field_name == name
    if 0 < _DIGIT_LIMIT < 5000:
        expected = f"{name}: must be >= {minimum}, got a 16610-bit negative integer"
        assert str(info.value) == expected
