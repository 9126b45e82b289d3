import math
import random

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from pathsum import (
    PathClass1D,
    PathClassND,
    SpinEnsemble1D,
    SpinEnsemble2D,
    ValidationError,
    beta_for_path,
    combined_partition_2d,
    energy_moments,
    ensemble_entropy_2d,
    ensemble_entropy_large_n,
    entropy_cosh_form,
    magnetization,
    mixing_log_count,
    moments_1d,
    multiplicity_1d,
    multiplicity_2d_rotated,
    partition_1d,
    partition_2d,
    restriction_check,
    two_level_entropy,
)
from pathsum.cli import main

KB = 1.380649e-23


def _size_id(value):
    # a short test id for a huge int
    if isinstance(value, int) and value > 10**6:
        return f"~1e{len(str(value)) - 1}"
    return None


def _mp_entropy(m, j):
    """(m+j) ln(N/(m+j)) + j ln(N/j) with N = m + 2j, to 30 digits past N's."""
    n = m + 2 * j
    with mp.workdps(len(str(n)) + 30):
        return float((m + j) * mp.log(mp.mpf(n) / (m + j)) + j * mp.log(mp.mpf(n) / j))


def _log_uniform_int(rng, hi_exp):
    return max(1, int(10 ** rng.uniform(0, hi_exp)))


class TestTemperatureAssignment:
    def test_known_beta(self):
        # exp(2 beta E) = 3 at (m, j) = (2, 1), so beta = ln(3)/2 for E = 1
        assert beta_for_path(2, 1, 1.0) == pytest.approx(0.5493061443340549, rel=1e-15)

    def test_beta_scales_inversely_with_e(self):
        assert beta_for_path(2, 1, 4.0) == pytest.approx(
            beta_for_path(2, 1, 1.0) / 4.0, rel=1e-15
        )

    def test_ordered_case_is_infinitely_cold(self):
        assert beta_for_path(3, 0, 1.0) == math.inf

    def test_matches_mpmath_for_large_j(self):
        # log1p(m/j) keeps the ratio's bits when it is near 1; before, j = 10**15
        # was 11% off and j = 10**16 raised ValidationError("E") at E = 1
        rng = random.Random(15)
        cases = [(1, 10**15), (1, 10**16), (10**400, 1), (10**320, 3), (7, 10**15 - 1)]
        cases += [(_log_uniform_int(rng, 30), _log_uniform_int(rng, 15)) for _ in range(400)]
        for m, j in cases:
            with mp.workdps(60):
                want = mp.log(mp.mpf(m + j) / j) / 2
            assert abs(beta_for_path(m, j, 1.0) - want) <= 3e-16 * want, (m, j)

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_population_identities(self, m, j, e):
        ens = SpinEnsemble1D.from_path_class(PathClass1D(m, j), e)
        x = ens.beta * ens.E
        n = ens.n_spins
        assert math.tanh(x) == pytest.approx(m / n, abs=1e-12)
        assert math.cosh(x) == pytest.approx(
            n / (2.0 * math.sqrt(j * (m + j))), abs=1e-12
        )
        assert magnetization(ens) == pytest.approx(m / n, abs=1e-12)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValidationError, match="E"):
            beta_for_path(2, 1, 0.0)
        with pytest.raises(ValidationError, match="E"):
            partition_1d(1.0, -2.0)


def _quantities_1d(E):
    ens = SpinEnsemble1D.from_path_class(PathClass1D(3, 1), E)
    return {
        "partition": partition_1d(ens.beta, ens.E),
        "magnetization": magnetization(ens),
        "entropy": ensemble_entropy_large_n(ens),
        "entropy_cosh_form": entropy_cosh_form(ens),
        "canonical": two_level_entropy(ens.n_spins, ens.beta * ens.E),
    }


def _quantities_2d(E):
    ens = SpinEnsemble2D.from_path_class(PathClassND(3, 1, 1), E, 1.0)
    return {
        "partition": partition_2d(ens.beta1, ens.E1, ens.beta2, ens.E2),
        "log_partition": combined_partition_2d(ens),
        "entropy": ensemble_entropy_2d(ens),
    }


@pytest.mark.parametrize("quantities", [_quantities_1d, _quantities_2d])
def test_extreme_level_spacing_is_exact_or_rejected(quantities):
    # beta E = ln((m+j)/j)/2 does not depend on E; at subnormal or huge E,
    # beta itself leaves the normal floats and E is rejected instead
    rng = random.Random(309)
    spacings = [math.exp(rng.uniform(math.log(5e-324), math.log(1e308))) for _ in range(400)]
    spacings += [5e-324, 1e-320, 1e-309, 1e-300, 1e300, 1e308]
    reference = quantities(1.0)
    outcomes = {"finite": 0, "rejected": 0}
    for E in spacings:
        try:
            got = quantities(E)
        except ValidationError as exc:
            assert exc.field_name == "E"
            outcomes["rejected"] += 1
            continue
        outcomes["finite"] += 1
        for key, value in got.items():
            assert math.isfinite(value)
            assert value == pytest.approx(reference[key], rel=1e-14), (E, key)
        if 2.0 * E < math.inf:
            assert beta_for_path(3, 1, E) == math.log(4 / 1) / (2.0 * E)
    assert outcomes["finite"] > 300 and outcomes["rejected"] >= 4


def test_energy_moments_are_finite_or_rejected(capsys):
    # E log-uniform over the positive floats: each moment is the same float
    # product as before, or E is rejected exactly where one would overflow
    rng = random.Random(200)
    spacings = [math.exp(rng.uniform(math.log(5e-324), math.log(1.7e308))) for _ in range(300)]
    spacings += [5e-324, 1e150, 1e154, 1e160, 1e200, 1.7e308]
    outcomes = {"finite": 0, "rejected": 0}
    for m, j in ((3, 1), (1, 0), (7, 40), (10**6, 10**9)):
        n = m + 2 * j
        for E in spacings:
            products = (m * E, n * n * E * E, 4 * j * (m + j) * E * E)
            try:
                got = energy_moments(SpinEnsemble1D(m, j, E, 1.0))
            except ValidationError as exc:
                assert exc.field_name == "E"
                assert not all(map(math.isfinite, products)), (m, j, E)
                outcomes["rejected"] += 1
                continue
            assert (got.mean, got.mean_square, got.variance) == products
            assert all(map(math.isfinite, products))
            outcomes["finite"] += 1
    assert outcomes["finite"] > 900 and outcomes["rejected"] > 100
    # the CLI prints finite numbers or exits 2, for every spacing
    for E in spacings[::5]:
        code = main(["ensemble", "--m", "3", "--j", "1", "--E", repr(E)])
        out, err = capsys.readouterr()
        if code == 2:
            assert out == "" and err.startswith("error: invalid argument (E: ")
        else:
            assert code == 0
            assert "inf" not in out and "nan" not in out


def test_energy_moments_of_huge_classes_are_rejected():
    # n*n leaves the float range before it meets E
    ens = SpinEnsemble1D(10**160, 1, 1.0, 1e-160)
    with pytest.raises(ValidationError, match="E"):
        energy_moments(ens)


def test_huge_classes_report_finite_numbers_or_exit_2(capsys):
    # j = 0 prints the documented beta = inf and partition = inf; any other
    # inf or nan, or a traceback, is a defect
    for e in range(1, 401):
        for j in sorted({0, 1, 10 ** (e // 2)}):
            code = main(["ensemble", "--m", str(10**e), "--j", str(j)])
            out, err = capsys.readouterr()
            if code == 2:
                assert out == "" and err.startswith("error: invalid argument ("), (e, j)
                continue
            assert code == 0, (e, j)
            report = dict(line.split("=", 1) for line in out.splitlines())
            if j == 0:
                assert report.pop("beta") == report.pop("partition") == "inf"
            assert not any(v in ("inf", "-inf", "nan") for v in report.values()), (e, j)
    # a spin count N past the float range is rejected, also where N ln 2 or
    # kB N overflows but beta is a normal float; a product of populations
    # past it is not, since the entropy no longer forms one
    for m, j in ((10**400, 1), (10, 10**308), (10, 15 * 10**307)):
        ens = SpinEnsemble1D.from_path_class(PathClass1D(m, j), 1.0)
        for entropy in (ensemble_entropy_large_n, entropy_cosh_form):
            with pytest.raises(ValidationError, match="^m: "):
                entropy(ens)
        assert main(["ensemble", "--m", str(m), "--j", str(j), "--kb", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: invalid argument (m: "), (m, j)
    ens = SpinEnsemble1D.from_path_class(PathClass1D(10**206, 10**103), 1.0)
    assert ensemble_entropy_large_n(ens) == pytest.approx(_mp_entropy(10**206, 10**103), rel=1e-15)


class TestPartition:
    def test_value(self):
        beta = beta_for_path(2, 1, 1.0)
        assert partition_1d(beta, 1.0) == pytest.approx(2.309401076758503, rel=1e-14)

    def test_infinite_beta_gives_infinite_partition(self):
        assert partition_1d(math.inf, 1.0) == math.inf

    # cosh overflows past beta E = 710.48, 2 cosh already past 709.79
    @pytest.mark.parametrize("beta", [-math.inf, 1e300, -1e300, 710.0, -710.0])
    def test_overflowing_partition_names_beta(self, beta):
        with pytest.raises(ValidationError, match="^beta: "):
            partition_1d(beta, 1.0)

    def test_largest_finite_partition(self):
        assert partition_1d(709.0, 1.0) == 2.0 * math.cosh(709.0)

    def test_two_species_product(self):
        assert partition_2d(0.5, 1.0, 0.0, 2.0) == pytest.approx(
            partition_1d(0.5, 1.0) * 2.0, rel=1e-15
        )

    def test_classical_limit_float_route(self):
        # 2 cosh(x) and exp(x) become identical floats well before x = 40
        for x in (20.0, 25.0, 30.0, 40.0):
            z = partition_1d(x, 1.0)
            assert abs(z - math.exp(x)) / math.exp(x) <= 1e-15

    def test_classical_limit_true_deviation(self):
        # the model-level statement |2cosh(x) - e^x|/e^x <= 1e-17 for x >= 20
        # sits below float64 resolution, so it is checked in 50-digit
        # arithmetic: the deviation is e^{-2x}, about 4.25e-18 at x = 20
        with mp.workdps(50):
            for x in (mp.mpf(20), mp.mpf(25), mp.mpf(30)):
                dev = abs(2 * mp.cosh(x) - mp.e**x) / mp.e**x
                assert dev <= mp.mpf("1e-17")


class TestEntropy1D:
    def test_closed_form_value(self):
        ens = SpinEnsemble1D.from_path_class(PathClass1D(2, 1), 1.0)
        # reference value from 60-digit evaluation of the closed form
        assert ensemble_entropy_large_n(ens) == pytest.approx(
            2.2493405784752336, rel=1e-12
        )

    def test_matches_standard_two_level_route(self):
        for m in range(1, 8):
            for j in range(1, 8):
                ens = SpinEnsemble1D.from_path_class(PathClass1D(m, j), 1.7)
                closed = ensemble_entropy_large_n(ens)
                standard = two_level_entropy(ens.n_spins, ens.beta * ens.E)
                assert closed == pytest.approx(standard, rel=1e-12)

    def test_cosh_variant_differs_by_n_ln2(self):
        ens = SpinEnsemble1D.from_path_class(PathClass1D(3, 2), 0.9)
        gap = ensemble_entropy_large_n(ens) - entropy_cosh_form(ens)
        assert gap == pytest.approx(ens.n_spins * math.log(2.0), rel=1e-12)

    def test_cosh_variant_is_negative(self):
        ens = SpinEnsemble1D.from_path_class(PathClass1D(3, 2), 0.9)
        assert entropy_cosh_form(ens) < 0.0
        assert ensemble_entropy_large_n(ens) > 0.0

    def test_closed_form_matches_mpmath(self):
        # the closed form no longer cancels when m >> j: at (10**17, 1) it
        # printed 0 and at (10**16, 1) 35.53 instead of 37.84
        rng = random.Random(17)
        cases = [(10**e, 1) for e in range(1, 300, 7)] + [(10**16, 1), (10**17, 1)]
        cases += [(_log_uniform_int(rng, 30), _log_uniform_int(rng, 30)) for _ in range(300)]
        for m, j in cases:
            ens = SpinEnsemble1D.from_path_class(PathClass1D(m, j), 1.0)
            want = _mp_entropy(m, j)
            assert abs(ensemble_entropy_large_n(ens) - want) <= 5e-16 * want, (m, j)

    def test_ordered_case_is_zero(self):
        ens = SpinEnsemble1D.from_path_class(PathClass1D(4, 0), 1.0)
        assert ensemble_entropy_large_n(ens) == 0.0
        assert entropy_cosh_form(ens) == 0.0

    def test_kb_scales_linearly(self):
        ens = SpinEnsemble1D.from_path_class(PathClass1D(2, 3), 1.0)
        assert ensemble_entropy_large_n(ens, kB=KB) == pytest.approx(
            KB * ensemble_entropy_large_n(ens), rel=1e-15
        )

    def test_two_level_entropy_extremes(self):
        assert two_level_entropy(10, 0.0) == pytest.approx(10 * math.log(2.0), rel=1e-15)
        assert two_level_entropy(10, math.inf) == 0.0
        assert two_level_entropy(10, 500.0) == pytest.approx(0.0, abs=1e-12)

    def test_stirling_accuracy_improves_with_n(self):
        # closed form against the exact log count; 60-digit references:
        # N=100 -> 3.79e-2, N=10^4 -> 6.97e-4
        rels = []
        for n in (100, 1000, 10**4):
            j = (n - 2) // 2
            ens = SpinEnsemble1D.from_path_class(PathClass1D(2, j), 1.0)
            s = ensemble_entropy_large_n(ens)
            ln_count = multiplicity_1d(PathClass1D(2, j)).log_value
            rels.append(abs(s - ln_count) / ln_count)
        assert rels[0] == pytest.approx(0.03790480226622476, rel=1e-9)
        assert rels[2] == pytest.approx(0.0006974501470924002, rel=1e-9)
        assert rels[0] > rels[1] > rels[2]
        assert rels[2] < 0.01

    def test_wide_ratio_case_stays_coarse(self):
        # populations 300 vs 100 keep a per-spin bias, the approximation is
        # visibly off at this size: 1.39e-2 from 60-digit arithmetic
        ens = SpinEnsemble1D.from_path_class(PathClass1D(200, 100), 1.0)
        s = ensemble_entropy_large_n(ens)
        ln_count = multiplicity_1d(PathClass1D(200, 100)).log_value
        assert abs(s - ln_count) / ln_count == pytest.approx(0.0138765356133135, rel=1e-9)


class TestEnergyMoments:
    def test_values(self):
        ens = SpinEnsemble1D.from_path_class(PathClass1D(2, 1), 1.0)
        triple = energy_moments(ens)
        assert triple.mean == 2.0
        assert triple.mean_square == 16.0
        assert triple.variance == 12.0

    @given(
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=0, max_value=15),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_mirrors_distance_moments(self, m, j, scale):
        ens = SpinEnsemble1D.from_path_class(PathClass1D(m, j), scale)
        path_view = moments_1d(PathClass1D(m, j), scale)
        energy_view = energy_moments(ens)
        assert energy_view.mean == path_view.mean
        assert energy_view.mean_square == path_view.mean_square
        assert energy_view.variance == path_view.variance


class TestTwoSpecies:
    def test_transverse_species_is_balanced(self):
        ens = SpinEnsemble2D.from_path_class(PathClassND(2, 1, 1), 1.0, 1.0)
        assert ens.beta2 == 0.0
        assert ens.n_species1 == 4
        assert ens.n_species2 == 2
        assert restriction_check(ens)

    def test_restriction_needs_second_species(self):
        ens = SpinEnsemble2D.from_path_class(PathClassND(2, 1, 0), 1.0, 1.0)
        with pytest.raises(ValidationError, match="k"):
            restriction_check(ens)

    def test_mixing_term(self):
        assert mixing_log_count(4, 2) == pytest.approx(
            2 * math.log(3.0) + 4 * math.log(1.5), rel=1e-14
        )
        assert mixing_log_count(4, 2) == mixing_log_count(2, 4)
        assert mixing_log_count(5, 0) == 0.0

    @pytest.mark.parametrize(
        "n1, n2",
        [(10**400, 1), (1, 10**400), (10**400, 12345), (10**600, 10**300),
         (10**308 * 3, 10**5), (10**1000, 10**300)],
        ids=_size_id,
    )
    def test_mixing_term_past_float_counts_matches_mpmath(self, n1, n2):
        # the ratio n1/n2 or a count itself is past the float range
        with mp.workdps(60):
            a, b = mp.mpf(n1), mp.mpf(n2)
            expected = float(b * mp.log1p(a / b) + a * mp.log1p(b / a))
        assert mixing_log_count(n1, n2) == pytest.approx(expected, rel=4e-16)

    @pytest.mark.parametrize(
        "n1, n2, name",
        [(10**309, 10**309, "n1"), (10**309, 10**400, "n2"), (15 * 10**307, 15 * 10**307, "n1")],
        ids=_size_id,
    )
    def test_mixing_term_past_the_float_range(self, n1, n2, name):
        with pytest.raises(ValidationError, match=f"^{name}: "):
            mixing_log_count(n1, n2)

    def test_huge_transverse_species(self):
        # k = 10^400: 2k ln 2 alone is past the float range
        ens = SpinEnsemble2D.from_path_class(PathClassND(2, 1, 10**400), 1.0, 1.0)
        for call in (combined_partition_2d, ensemble_entropy_2d):
            with pytest.raises(ValidationError, match="^k: "):
                call(ens)
        # k = 10^150 stays in range: 2k ln 2 dominates
        ens = SpinEnsemble2D.from_path_class(PathClassND(2, 1, 10**150), 1.0, 1.0)
        assert ensemble_entropy_2d(ens) == pytest.approx(2e150 * math.log(2.0), rel=1e-12)
        assert combined_partition_2d(ens) == pytest.approx(2e150 * math.log(2.0), rel=1e-12)

    def test_sum_over_species_past_the_float_range(self):
        # each count is a float, but N1 ln(2 cosh) + N2 ln 2 + mixing is not;
        # the entropy in natural units overflows at kB = 1 already
        ens = SpinEnsemble2D.from_path_class(PathClassND(2, 5 * 10**307, 5 * 10**307), 1e-300, 1.0)
        for call in (combined_partition_2d, ensemble_entropy_2d):
            with pytest.raises(ValidationError, match="^m1: "):
                call(ens)

    def test_combined_partition_value(self):
        # reference value from 60-digit evaluation
        ens = SpinEnsemble2D.from_path_class(PathClassND(2, 1, 1), 1.0, 1.0)
        assert combined_partition_2d(ens) == pytest.approx(8.55333223803211, rel=1e-12)

    def test_combined_partition_reduces_without_transverse(self):
        ens = SpinEnsemble2D.from_path_class(PathClassND(2, 1, 0), 1.0, 1.0)
        expected = 4 * math.log(partition_1d(ens.beta1, 1.0))
        assert combined_partition_2d(ens) == pytest.approx(expected, rel=1e-14)

    def test_combined_partition_rejects_ordered_species(self):
        ens = SpinEnsemble2D.from_path_class(PathClassND(2, 0, 1), 1.0, 1.0)
        with pytest.raises(ValidationError, match="beta1"):
            combined_partition_2d(ens)

    def test_log_route_matches_float_product(self):
        ens = SpinEnsemble2D.from_path_class(PathClassND(2, 1, 1), 1.0, 1.0)
        n1, n2 = ens.n_species1, ens.n_species2
        direct = partition_1d(ens.beta1, 1.0) ** n1 * partition_1d(0.0, 1.0) ** n2
        log_direct = math.log(direct) + mixing_log_count(n1, n2)
        assert combined_partition_2d(ens) == pytest.approx(log_direct, rel=1e-12)


class TestEntropy2D:
    def test_pure_transverse_value(self):
        # j = 0, k = 1: the ordered species adds nothing; balanced species
        # and mixing give exactly 6 ln 2
        ens = SpinEnsemble2D.from_path_class(PathClassND(2, 0, 1), 1.0, 1.0)
        assert ensemble_entropy_2d(ens) == pytest.approx(6 * math.log(2.0), rel=1e-14)

    def test_reduces_to_1d_without_transverse(self):
        ens2 = SpinEnsemble2D.from_path_class(PathClassND(2, 3, 0), 1.0, 1.0)
        ens1 = SpinEnsemble1D.from_path_class(PathClass1D(2, 3), 1.0)
        assert ensemble_entropy_2d(ens2) == ensemble_entropy_large_n(ens1)

    def test_large_case_value(self):
        # reference value from 60-digit evaluation
        ens = SpinEnsemble2D.from_path_class(PathClassND(200, 100, 100), 1.0, 1.0)
        assert ensemble_entropy_2d(ens) == pytest.approx(745.4719949364, rel=1e-12)

    def test_stirling_accuracy_2d(self):
        ens = SpinEnsemble2D.from_path_class(PathClassND(200, 100, 100), 1.0, 1.0)
        s = ensemble_entropy_2d(ens)
        ln_count = multiplicity_2d_rotated(PathClassND(200, 100, 100)).log_value
        rel = abs(s - ln_count) / ln_count
        assert rel == pytest.approx(0.01266130403452018, rel=1e-9)
        assert rel < 0.02

    def test_kb_scales_linearly(self):
        ens = SpinEnsemble2D.from_path_class(PathClassND(2, 1, 2), 1.0, 1.0)
        assert ensemble_entropy_2d(ens, kB=KB) == pytest.approx(
            KB * ensemble_entropy_2d(ens), rel=1e-15
        )


class TestBoltzmannConstant:
    ENS = SpinEnsemble1D.from_path_class(PathClass1D(3, 1), 1.0)
    ENS2 = SpinEnsemble2D.from_path_class(PathClassND(3, 1, 1), 1.0, 1.0)

    def _entropies(self, kB):
        return (
            lambda: two_level_entropy(4, 0.5, kB=kB),
            lambda: ensemble_entropy_large_n(self.ENS, kB=kB),
            lambda: entropy_cosh_form(self.ENS, kB=kB),
            lambda: ensemble_entropy_2d(self.ENS2, kB=kB),
        )

    @pytest.mark.parametrize("kB", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_kb_must_be_finite_and_positive(self, kB):
        for call in self._entropies(kB):
            with pytest.raises(ValidationError, match="^kB: must be finite"):
                call()

    def test_kb_product_past_the_float_range(self):
        big = SpinEnsemble1D.from_path_class(PathClass1D(10**20, 10**19), 1.0)
        for call in (
            lambda: two_level_entropy(10**300, 0.5, kB=1e300),
            lambda: ensemble_entropy_large_n(big, kB=1e300),
            lambda: entropy_cosh_form(big, kB=1e300),
            lambda: ensemble_entropy_2d(self.ENS2, kB=1.7e308),
        ):
            with pytest.raises(ValidationError, match="^kB: .*past the float range"):
                call()

    @pytest.mark.parametrize("argv", [
        ["ensemble", "--m", "3", "--j", "1", "--kb", "inf"],
        ["ensemble", "--m", "3", "--j", "1", "--kb", "-1"],
        ["ensemble", "--m", str(10**20), "--j", str(10**19), "--kb", "1e300"],
        ["multiplicity", "--m", "3", "--j", "1", "--kb", "nan"],
        ["multiplicity", "--m", "1000", "--j", "1000", "--kb", "1e308"],
    ])
    def test_cli_rejects_bad_kb(self, capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: invalid argument (kB: "), argv
