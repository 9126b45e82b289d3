import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from pathsum import (
    DivergenceError,
    PathClass1D,
    PhysicalParams,
    SeriesCapError,
    ValidationError,
    action_1d,
    dimensionless_b,
    heat_residual,
    kernel_sum_1d,
    kernel_sum_2d,
    propagator_closed,
    propagator_normalization,
    threshold_scan,
)
from pathsum.core import SumResult, max_series_terms
from pathsum.kernel import _Neumaier


def oracle_sum_1d(b, m, dps=50):
    """Direct high-precision summation, independent of the library."""
    with mp.workdps(dps):
        b = mp.mpf(b)
        total = mp.mpf(0)
        j = 0
        while True:
            term = mp.e ** (-b * (m + 2 * j) ** 2)
            total += term
            if term < mp.mpf(10) ** (-dps + 5) * total:
                return total
            j += 1


def oracle_sum_2d(b, m1, dps=50):
    with mp.workdps(dps):
        b = mp.mpf(b)
        total = mp.mpf(0)
        n = 0
        while True:
            term = (n + 1) * mp.e ** (-b * (m1 + 2 * n) ** 2)
            total += term
            if n > 4 and term < mp.mpf(10) ** (-dps + 5) * total:
                return total
            n += 1


NATURAL = PhysicalParams(M=1.0, dx=1.0, dt=1.0, hbar=1.0)


# The two loops kernel_sum_1d and kernel_sum_2d ran before they shared one,
# kept as the reference that the shared loop must match bit for bit.
def reference_sum_1d(b, m, tol=1e-12):
    cap = max_series_terms()
    acc = _Neumaier()
    j = 0
    term = math.exp(-b * (m * m))
    while True:
        acc.add(term)
        terms_used = j + 1
        nxt = math.exp(-b * ((m + 2 * (j + 1)) * (m + 2 * (j + 1))))
        ratio = nxt / term if term > 0 else 0.0
        bound = nxt / (1.0 - ratio) if ratio < 1.0 else math.inf
        value = acc.value()
        if bound <= tol * value:
            return SumResult(value=value, terms_used=terms_used, truncation_bound=bound)
        if terms_used >= cap:
            raise SeriesCapError(
                f"kernel_sum_1d(b={b}, m={m}) hit the {cap}-term cap at tol={tol}"
            )
        j += 1
        term = nxt


def reference_sum_2d(b, m1, tol=1e-12):
    cap = max_series_terms()
    acc = _Neumaier()
    n = 0
    term = math.exp(-b * (m1 * m1))
    while True:
        acc.add(term)
        terms_used = n + 1
        nxt = (n + 2) * math.exp(-b * ((m1 + 2 * (n + 1)) * (m1 + 2 * (n + 1))))
        value = acc.value()
        if term > 0.0:
            ratio = nxt / term
            if ratio < 1.0:
                bound = nxt / (1.0 - ratio)
                if bound <= tol * value:
                    return SumResult(
                        value=value, terms_used=terms_used, truncation_bound=bound
                    )
        else:
            return SumResult(value=value, terms_used=terms_used, truncation_bound=0.0)
        if terms_used >= cap:
            raise SeriesCapError(
                f"kernel_sum_2d(b={b}, m1={m1}) hit the {cap}-term cap at tol={tol}"
            )
        n += 1
        term = nxt


def _outcome(fn, b, m):
    try:
        return fn(b, m)
    except SeriesCapError as exc:
        return str(exc)


@pytest.mark.parametrize("cap", ["1000000", "40"])
def test_shared_loop_matches_reference_loops(cap, monkeypatch):
    # a seeded sweep from b = 1e-4 (hundreds of terms) to full underflow;
    # the 40-term cap makes the small-b calls raise
    monkeypatch.setenv("PATHSUM_MAX_TERMS", cap)
    rng = random.Random(1403)
    for _ in range(1500):
        b = math.exp(rng.uniform(math.log(1e-4), math.log(800.0)))
        m = rng.randint(1, 64)
        assert _outcome(kernel_sum_1d, b, m) == _outcome(reference_sum_1d, b, m)
        assert _outcome(kernel_sum_2d, b, m) == _outcome(reference_sum_2d, b, m)


class TestKernelSum1D:
    @pytest.mark.parametrize("b,m,expected", [
        # reference values from 60-digit direct summation
        (0.5, 1, 0.6176433829269452),
        (0.25, 2, 0.38631860241332605),
        (1.0, 3, 0.00012340981797462342),
    ])
    def test_known_values(self, b, m, expected):
        assert kernel_sum_1d(b, m).value == pytest.approx(expected, rel=2e-12)

    def test_agrees_with_oracle_across_grid(self):
        for m in (1, 2, 3):
            for i in range(25):
                b = 0.01 + i * (2.0 - 0.01) / 24
                result = kernel_sum_1d(b, m)
                truth = float(oracle_sum_1d(b, m))
                assert result.value == pytest.approx(truth, rel=5e-12)

    def test_truncation_bound_contains_oracle(self):
        for m in (1, 2):
            for b in (0.05, 0.2, 0.9):
                result = kernel_sum_1d(b, m, tol=1e-6)
                truth = float(oracle_sum_1d(b, m))
                slack = 1e-13 * result.value
                assert result.value - slack <= truth
                assert truth <= result.value + result.truncation_bound + slack

    def test_tighter_tol_uses_more_terms(self):
        loose = kernel_sum_1d(0.05, 1, tol=1e-4)
        tight = kernel_sum_1d(0.05, 1, tol=1e-14)
        assert tight.terms_used > loose.terms_used
        assert tight.truncation_bound < loose.truncation_bound

    def test_extreme_decay_underflows_cleanly(self):
        result = kernel_sum_1d(2000.0, 1, tol=1e-12)
        assert result.value == 0.0
        assert result.truncation_bound == 0.0

    @given(
        st.floats(min_value=0.05, max_value=3.0),
        st.integers(min_value=1, max_value=5),
    )
    def test_result_invariants(self, b, m):
        result = kernel_sum_1d(b, m)
        first_term = math.exp(-b * (m * m))
        assert result.terms_used >= 1
        assert result.truncation_bound >= 0.0
        assert result.value >= first_term

    def test_rejects_bad_arguments(self):
        with pytest.raises(DivergenceError):
            kernel_sum_1d(0.0, 1)
        with pytest.raises(DivergenceError):
            kernel_sum_1d(-0.5, 1)
        with pytest.raises(ValidationError, match="m"):
            kernel_sum_1d(0.5, 0)
        for tol in (0.0, 1.0, 5.0, math.inf):
            with pytest.raises(ValidationError, match="tol"):
                kernel_sum_1d(0.5, 1, tol=tol)
        with pytest.raises(ValidationError, match="b"):
            kernel_sum_1d(math.nan, 1)

    def test_term_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("PATHSUM_MAX_TERMS", "10")
        with pytest.raises(SeriesCapError):
            kernel_sum_1d(1e-6, 1)


class TestKernelSum2D:
    def test_known_value(self):
        # reference value from 60-digit direct summation
        result = kernel_sum_2d(0.5, 2)
        assert result.value == pytest.approx(0.1360062541824076, rel=2e-12)

    def test_agrees_with_oracle(self):
        for m1 in (1, 2, 3):
            for b in (0.05, 0.3, 0.8, 1.5):
                result = kernel_sum_2d(b, m1)
                truth = float(oracle_sum_2d(b, m1))
                assert result.value == pytest.approx(truth, rel=5e-12)

    def test_matches_explicit_double_sum(self):
        # the single weighted series must reproduce the sum over (j, k) pairs
        for m1 in (1, 2, 3):
            for b in (0.3, 0.5, 1.0):
                double = 0.0
                for j in range(80):
                    for k in range(80):
                        double += math.exp(-b * (m1 + 2 * j + 2 * k) ** 2)
                single = kernel_sum_2d(b, m1, tol=1e-14).value
                assert single == pytest.approx(double, rel=1e-12)

    def test_small_b_ramp_up_is_not_mistaken_for_convergence(self):
        # at b = 0.005 the weighted terms grow before they decay
        result = kernel_sum_2d(0.005, 1)
        truth = float(oracle_sum_2d(0.005, 1))
        assert result.terms_used > 10
        assert result.value == pytest.approx(truth, rel=5e-12)

    def test_term_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("PATHSUM_MAX_TERMS", "12")
        with pytest.raises(SeriesCapError):
            kernel_sum_2d(1e-5, 1)


class TestThresholdScan:
    def test_row_layout(self):
        rows = threshold_scan([2, 1], 0.1, 1.0, 10)
        assert len(rows) == 20
        assert [row.m for row in rows[:10]] == [2] * 10
        assert rows[0].b == 0.1
        assert rows[9].b == 1.0
        assert rows[3].bm == rows[3].b * rows[3].m

    def test_ratio_floor_is_exact(self):
        # sum >= its own first term, and that term is the limit value bit for bit
        for row in threshold_scan([1, 2, 3], 0.01, 2.0, 120):
            assert row.ratio >= 1.0
            assert row.sum_value >= row.limit_value

    def test_ratio_monotone_in_b(self):
        rows = threshold_scan([1, 2, 3], 0.01, 2.0, 120)
        for m in (1, 2, 3):
            ratios = [row.ratio for row in rows if row.m == m]
            assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_grid_endpoints_are_exact(self):
        # the plain blend gives 0.10000000000000002 and 0.6999999999999998 here
        rows = threshold_scan([1], 0.1, 0.7, 7)
        assert (rows[0].b, rows[-1].b) == (0.1, 0.7)
        assert [row.b for row in rows[1:-1]] == [
            (0.1 * (6 - i) + 0.7 * i) / 6 for i in range(1, 6)
        ]

    def test_underflowed_limit_keeps_ratio_finite(self):
        # exp(-b m^2) is 0.0 at both points, where sum/limit would be 0/0
        rows = threshold_scan([3000], 1e-4, 2e-4, 2)
        assert rows[0].sum_value == rows[0].limit_value == 0.0
        # 1 + sum_{j>=1} exp(-4bj(m+j)) at 40 digits (mpmath nsum)
        assert rows[0].ratio == pytest.approx(1.4305541428735045631, rel=1e-12)
        assert rows[0].ratio >= rows[1].ratio >= 1.0

    def test_ratio_monotone_across_underflow(self):
        # exp(-b m^2) passes from normal through subnormal to 0.0 on this grid
        rows = threshold_scan([3000], 5e-5, 1e-4, 40)
        assert rows[0].limit_value > 0.0 and rows[-1].limit_value == 0.0
        ratios = [row.ratio for row in rows]
        assert all(a >= b >= 1.0 for a, b in zip(ratios, ratios[1:]))

    @pytest.mark.parametrize("m,b,expected", [
        # reference ratios from 60-digit summation
        (1, 0.5, 1.018321783138839),
        (2, 0.25, 1.0501228369358389),
        (3, 0.2, 1.0410982241836344),
        (1, 0.6, 1.0082303044397),
        (2, 0.3, 1.0273914664140738),
    ])
    def test_checkpoint_ratios(self, m, b, expected):
        result = kernel_sum_1d(b, m)
        ratio = result.value / math.exp(-b * (m * m))
        assert ratio == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValidationError, match="b_m"):
            threshold_scan([1], -0.1, 1.0, 5)
        with pytest.raises(ValidationError, match="b_max"):
            threshold_scan([1], 1.0, 0.5, 5)
        with pytest.raises(ValidationError, match="n_points"):
            threshold_scan([1], 0.1, 1.0, 1)
        with pytest.raises(ValidationError, match="m_values"):
            threshold_scan([], 0.1, 1.0, 5)
        with pytest.raises(ValidationError, match="m_values"):
            threshold_scan([0], 0.1, 1.0, 5)


class TestAction:
    def test_value(self):
        params = PhysicalParams(M=2.0, dx=1.0, dt=1.0, hbar=1.0)
        assert action_1d(params, PathClass1D(2, 1)) == pytest.approx(16.0, rel=1e-15)

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=6),
    )
    def test_action_over_hbar_equals_b_route(self, mass, dx, m, j):
        params = PhysicalParams(M=mass, dx=dx, dt=0.7, hbar=1.3)
        cls = PathClass1D(m, j)
        lhs = action_1d(params, cls) / params.hbar
        rhs = dimensionless_b(params) * cls.n_steps**2
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPropagator:
    def test_peak_value(self):
        # 1/sqrt(2 pi sigma^2) with sigma^2 = hbar t / M = 1
        assert propagator_closed(NATURAL, 0.0, 1.0) == pytest.approx(
            0.3989422804014327, rel=1e-15
        )

    def test_symmetry(self):
        assert propagator_closed(NATURAL, 1.3, 2.0) == propagator_closed(NATURAL, -1.3, 2.0)

    def test_normalization_natural_units(self):
        assert propagator_normalization(NATURAL, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_normalization_si_scale(self):
        params = PhysicalParams(
            M=9.1093837015e-31, dx=1e-10, dt=1e-16, hbar=1.054571817e-34
        )
        assert propagator_normalization(params, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_heat_equation_residual_small(self):
        assert heat_residual(NATURAL, 0.7, 1.0, 1e-3) < 1e-6

    def test_stencil_is_second_order(self):
        coarse = heat_residual(NATURAL, 0.7, 1.0, 1e-3)
        fine = heat_residual(NATURAL, 0.7, 1.0, 5e-4)
        order = math.log2(coarse / fine)
        assert abs(order - 2.0) <= 0.5

    def test_rejects_bad_domain(self):
        with pytest.raises(ValidationError, match="t"):
            propagator_closed(NATURAL, 0.0, 0.0)
        with pytest.raises(ValidationError, match="t"):
            heat_residual(NATURAL, 0.0, 1e-3, 1e-3)
        with pytest.raises(ValidationError, match="h"):
            heat_residual(NATURAL, 0.0, 1.0, 0.0)
        with pytest.raises(ValidationError, match="panels"):
            propagator_normalization(NATURAL, 1.0, panels=7)


@settings(deadline=None, max_examples=25)
@given(
    st.floats(min_value=0.02, max_value=2.0),
    st.integers(min_value=1, max_value=4),
)
def test_refining_tol_stays_within_reported_bound(b, m):
    rough = kernel_sum_1d(b, m, tol=1e-5)
    refined = kernel_sum_1d(b, m, tol=1e-15)
    slack = 1e-13 * rough.value
    assert rough.value - slack <= refined.value
    assert refined.value <= rough.value + rough.truncation_bound + slack
