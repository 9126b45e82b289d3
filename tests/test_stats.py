import copy
import math
import pickle
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from pathsum import (
    PathClass1D,
    ProbabilityEntry,
    ProbabilityTable,
    SeriesCapError,
    ValidationError,
    alt_divergence_probe,
    moments_1d,
    multiplicity_1d,
    probability_1d,
    probability_1d_alt,
    probability_2d,
)
from pathsum import combinatorics

# Fully converged reference values (60-digit arithmetic, exact rational
# weights). Library tables are truncated at tol, so comparisons allow the
# reported tail width.
P0_REFERENCE = {
    2: 0.745712351519784,
    5: 0.8485115631138099,
    10: 0.9119790010235509,
    50: 0.9804227090937139,
    100: 0.9901029244592454,
}
Z_REFERENCE = {2: 1.3409996467967444, 100: 1.0099960067749119}


class TestProbability1D:
    def test_weights_are_exact_reciprocals(self):
        table = probability_1d(2)
        for entry in table.entries:
            j = entry.index[0]
            assert entry.weight == Fraction(1, math.comb(2 + 2 * j, j))

    @pytest.mark.parametrize("m,expected", sorted(P0_REFERENCE.items()))
    def test_most_direct_class_dominates(self, m, expected):
        table = probability_1d(m)
        assert table.entries[0].probability == pytest.approx(expected, abs=5e-12)

    def test_normalization_constant(self):
        table = probability_1d(2)
        assert table.normalization == pytest.approx(Z_REFERENCE[2], abs=5e-12)
        assert table.normalization_exact == sum(e.weight for e in table.entries)

    def test_second_class_value(self):
        table = probability_1d(2)
        assert table.probability(1) == pytest.approx(0.186428087879946, abs=5e-12)

    def test_probabilities_sum_to_one(self):
        for m in (2, 5, 10, 50, 100):
            table = probability_1d(m)
            assert math.fsum(e.probability for e in table.entries) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_direct_share_grows_with_m(self):
        values = [probability_1d(m).entries[0].probability for m in (2, 5, 10, 50, 100)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_tail_bound_meets_tolerance(self):
        table = probability_1d(3, tol=1e-10)
        assert 0.0 < table.tail_bound <= 1e-10

    def test_tail_bound_is_honest(self):
        # a coarsely truncated normalization plus its bound must cover the
        # fully converged one
        coarse = probability_1d(2, tol=1e-4)
        z_true = Z_REFERENCE[2]
        assert coarse.normalization <= z_true + 1e-14
        assert z_true <= coarse.normalization * (1.0 + coarse.tail_bound) + 1e-14

    def test_j_max_truncates(self):
        table = probability_1d(2, j_max=3)
        assert table.truncated_at == 3
        assert len(table.entries) == 4
        assert table.tail_bound > 1e-12

    def test_lookup_raises_for_missing_class(self):
        table = probability_1d(2, j_max=2)
        with pytest.raises(KeyError):
            table.probability(99)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError, match="m"):
            probability_1d(0)
        for tol in (-1e-9, 1.0, 5.0, math.inf):
            with pytest.raises(ValidationError, match="tol"):
                probability_1d(2, tol=tol)
        with pytest.raises(ValidationError, match="j_max"):
            probability_1d(2, j_max=-1)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("PATHSUM_MAX_TERMS", "3")
        with pytest.raises(SeriesCapError):
            probability_1d(1, tol=1e-30)


class TestProbability2D:
    def test_normalization_constant(self):
        table = probability_2d(1)
        # fully converged reference, 60-digit arithmetic
        assert table.normalization == pytest.approx(1.7035153815357964, rel=5e-12)

    def test_minimum_class_share(self):
        table = probability_2d(1)
        assert table.probability((0, 0)) == pytest.approx(0.5870214092804108, abs=5e-12)

    def test_single_transverse_pair_share(self):
        table = probability_2d(1)
        assert table.probability((1, 1)) == pytest.approx(
            0.009783690154673513, abs=1e-12
        )

    def test_entries_ordered_by_diagonal(self):
        table = probability_2d(1)
        indices = [e.index for e in table.entries]
        assert indices[:6] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        for prev, cur in zip(indices, indices[1:]):
            assert sum(prev) < sum(cur) or (sum(prev) == sum(cur) and prev < cur)

    def test_probabilities_sum_to_one(self):
        table = probability_2d(2)
        assert math.fsum(e.probability for e in table.entries) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_k0_column_matches_1d_weights(self):
        flat = probability_1d(2, j_max=6, tol=1e-30)
        table = probability_2d(2)
        for j in range(4):
            w2d = next(e.weight for e in table.entries if e.index == (j, 0))
            assert w2d == flat.entries[j].weight

    def test_min_diagonal_forces_inclusion(self):
        table = probability_2d(1, min_diagonal=9)
        assert table.truncated_at >= 9
        assert table.probability((4, 5)) > 0.0

    def test_tail_bound_meets_tolerance(self):
        table = probability_2d(1, tol=1e-9)
        assert 0.0 < table.tail_bound <= 1e-9

    def test_rejects_bad_tol(self):
        for tol in (-1e-9, 1.0, 5.0, math.inf):
            with pytest.raises(ValidationError, match="tol"):
                probability_2d(1, tol=tol)

    def test_tail_bound_is_honest(self):
        coarse = probability_2d(1, tol=1e-3)
        z_true = 1.7035153815357964
        assert coarse.normalization <= z_true + 1e-14
        assert z_true <= coarse.normalization * (1.0 + coarse.tail_bound) + 1e-14


# The construction the tables used before the integer recurrence: one
# multinomial per class, its reciprocal summed as a Fraction. Kept as the
# reference the tables must match exactly.
def _comb_1d(m, j):
    return math.comb(m + 2 * j, j)


def _comb_2d(m1, j, k):
    n = m1 + 2 * j + 2 * k
    return math.comb(n, j) * math.comb(n - j, k) * math.comb(n - j - k, k)


def _reference_table(m, indexed, z, last, tail):
    entries = tuple(ProbabilityEntry(idx, w, float(w / z)) for idx, w in indexed)
    return ProbabilityTable(m, entries, float(z), z, last, float(tail / z))


def reference_probability_1d(m, j_max=None, tol=1e-12):
    indexed, z, j = [], Fraction(0), 0
    while True:
        w = Fraction(1, _comb_1d(m, j))
        indexed.append(((j,), w))
        z += w
        tail = Fraction(3, 2) * Fraction(1, _comb_1d(m, j + 1))
        if float(tail) <= tol * float(z):
            break
        if j_max is not None and j >= j_max:
            break
        j += 1
    return _reference_table(m, indexed, z, j, tail)


def reference_probability_2d(m1, max_diagonal=None, tol=1e-12, min_diagonal=0):
    indexed, z, n = [], Fraction(0), 0
    while True:
        for j in range(n + 1):
            w = Fraction(1, _comb_2d(m1, j, n - j))
            indexed.append(((j, n - j), w))
            z += w
        tail = Fraction(1, _comb_1d(m1, n + 1)) * (Fraction(3, 2) * (n + 2) + Fraction(3, 4))
        if n >= min_diagonal and float(tail) <= tol * float(z):
            break
        if max_diagonal is not None and n >= max_diagonal:
            break
        n += 1
    return _reference_table(m1, indexed, z, n, tail)


def test_recurrence_matches_reference_tables():
    # seeded tables from tol = 0.5 down to 1e-300, m past the former
    # 2000-step exact limit, with and without the j_max / diagonal bounds
    rng = random.Random(5)
    for _ in range(150):
        m = rng.choice([rng.randint(1, 20), rng.randint(1, 3000)])
        tol = 10.0 ** rng.uniform(-300, math.log10(0.5))
        j_max = rng.choice([None, rng.randint(0, 40)])
        assert probability_1d(m, j_max, tol) == reference_probability_1d(m, j_max, tol)
    for _ in range(40):
        m1 = rng.choice([rng.randint(1, 5), rng.randint(1, 2500)])
        tol = 10.0 ** rng.uniform(-40, math.log10(0.5))
        max_diagonal = rng.choice([None, rng.randint(0, 25)])
        min_diagonal = rng.choice([0, rng.randint(0, 15)])
        assert probability_2d(m1, max_diagonal, tol, min_diagonal) == (
            reference_probability_2d(m1, max_diagonal, tol, min_diagonal)
        )


def test_weights_behave_as_fractions():
    # the walk builds each weight without Fraction's gcd, since gcd(1, c) = 1;
    # it must be Fraction(1, c) in type, value, hash, arithmetic and copying
    rng = random.Random(11)
    tables = [probability_1d(rng.randint(1, 3000), tol=10.0 ** rng.uniform(-80, -1))
              for _ in range(4)]
    tables += [probability_2d(rng.randint(1, 40), tol=10.0 ** rng.uniform(-20, -1))
               for _ in range(3)]
    for table in tables:
        for entry in table.entries:
            if len(entry.index) == 1:
                want = Fraction(1, _comb_1d(table.m, *entry.index))
            else:
                want = Fraction(1, _comb_2d(table.m, *entry.index))
            w = entry.weight
            assert type(w) is Fraction and w == want and hash(w) == hash(want)
            assert (w.numerator, w.denominator) == (1, want.denominator)
            assert (w + w, w * 3, w - want, w / want) == (2 * want, 3 * want, 0, 1)
            assert float(w) == float(want) and str(w) == str(want)
            assert pickle.loads(pickle.dumps(w)) == want and copy.deepcopy(w) == want
            assert entry == ProbabilityEntry(entry.index, want, entry.probability)


def test_underflowing_probabilities_equal_the_division():
    # the walk proves most of these entries round to 0.0 from bit lengths
    # alone, without dividing; each must still be the correctly rounded quotient
    for m1 in (10**30, 10**60):
        table = probability_2d(m1, min_diagonal=20)
        acc = table.normalization_exact.numerator
        lcm = table.normalization_exact.denominator
        zeros = 0
        for entry in table.entries:
            c = entry.weight.denominator
            assert entry.probability == lcm / (c * acc), entry.index
            zeros += entry.probability == 0.0
        assert 0 < zeros < len(table.entries)


@pytest.mark.parametrize("cap", range(1, 41))
def test_cap_admits_exactly_the_tables_that_fit(cap, monkeypatch):
    # a table is built when its reference has at most cap entries, and
    # otherwise raises naming the function and m
    rng = random.Random(cap)
    cases = []
    for _ in range(15):
        m = rng.choice([rng.randint(1, 20), rng.randint(1, 3000)])
        tol = 10.0 ** rng.uniform(-40, math.log10(0.5))
        args = (m, rng.choice([None, rng.randint(0, 40)]), tol)
        cases.append((probability_1d, reference_probability_1d, args,
                      f"probability_1d\\(m={m}\\)"))
    for _ in range(15):
        m1 = rng.choice([rng.randint(1, 5), rng.randint(1, 2500)])
        tol = 10.0 ** rng.uniform(-15, math.log10(0.5))
        bounds = (rng.choice([None, rng.randint(0, 10)]), tol, rng.choice([0, rng.randint(0, 6)]))
        cases.append((probability_2d, reference_probability_2d, (m1, *bounds),
                      f"probability_2d\\(m1={m1}\\)"))
    for table, reference, args, name in cases:
        want = reference(*args)
        monkeypatch.setenv("PATHSUM_MAX_TERMS", str(cap))
        if len(want.entries) <= cap:
            assert table(*args) == want, args
        else:
            with pytest.raises(SeriesCapError, match=f"^{name} hit the {cap}-term cap$"):
                table(*args)
        monkeypatch.delenv("PATHSUM_MAX_TERMS")


class TestPastTheExactStepLimit:
    @pytest.mark.parametrize("m", [1998, 1999, 2000, 2500, 10**6])
    def test_1d_weights_are_exact(self, m, monkeypatch):
        # a table that did not converge would hit this cap instead of spinning
        monkeypatch.setenv("PATHSUM_MAX_TERMS", "50")
        table = probability_1d(m)
        for entry in table.entries:
            assert entry.weight == Fraction(1, _comb_1d(m, entry.index[0]))

    def test_probabilities_decrease(self):
        probs = [e.probability for e in probability_1d(1998, j_max=3).entries]
        assert len(probs) == 4
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_2d_weights_are_exact(self):
        table = probability_2d(1999, max_diagonal=2)
        assert len(table.entries) == 6
        for entry in table.entries:
            assert entry.weight == Fraction(1, _comb_2d(1999, *entry.index))

    def test_tables_do_not_depend_on_the_limit(self, monkeypatch):
        calls = [
            lambda: probability_1d(2, tol=1e-100),
            lambda: probability_1d(1500, j_max=5),
            lambda: probability_2d(1, tol=1e-20),
            lambda: probability_2d(7, max_diagonal=4, min_diagonal=2),
        ]
        before = [call() for call in calls]
        monkeypatch.setattr(combinatorics, "EXACT_STEP_LIMIT", 10)
        assert [call() for call in calls] == before


class TestAlternativeWeighting:
    def test_base_class_weight_is_unity(self):
        assert probability_1d_alt(2, 0) == 1.0
        assert probability_1d_alt(7, 0) == 1.0

    def test_small_cases_match_exact_rationals(self):
        # W p^(m+j) q^j with p = (m+j)/N, q = j/N, evaluated exactly
        assert probability_1d_alt(2, 1) == pytest.approx(27 / 64, rel=1e-12)
        assert probability_1d_alt(2, 2) == pytest.approx(0.3292181069958848, rel=1e-12)
        assert probability_1d_alt(1, 1) == pytest.approx(4 / 9, rel=1e-12)

    def test_terms_decay_like_inverse_sqrt(self):
        # P ~ sqrt(2/(pi N)): far too slow for a convergent sum over j
        for j in (100, 1000, 10000):
            n = 2 + 2 * j
            scaled = probability_1d_alt(2, j) * math.sqrt(math.pi * n / 2.0)
            assert scaled == pytest.approx(1.0, rel=0.02)

    def test_partial_sums_match_exact_accumulation(self):
        expected = [1.0, 1.421875, 1.7510931069958848, 2.0327250535596053]
        total = 0.0
        for j, target in enumerate(expected):
            total += probability_1d_alt(2, j)
            assert total == pytest.approx(target, rel=1e-12)

    # The (m, j) where the log-space form cancelled, overflowed or saturated,
    # and the class 10**400 steps out, which once raised ValidationError("m").
    @pytest.mark.parametrize("m, j", [
        (10**12, 10**11), (10**16, 10**15), (10**20, 10**18), (7, 10**300),
        (10**300 + 3, 10**300 + 5), (10**400, 10), (10, 10**400), (3, 7), (1000, 1),
    ])
    def test_huge_classes_match_mpmath(self, m, j):
        n, up = m + 2 * j, m + j
        with mp.workdps(40 + 2 * len(str(max(m, j)))):
            log_p = (
                mp.loggamma(n + 1) - mp.loggamma(up + 1) - mp.loggamma(j + 1)
                + up * mp.log(mp.mpf(up) / n) + j * mp.log(mp.mpf(j) / n)
            )
            want = float(mp.exp(log_p))
        assert probability_1d_alt(m, j) == pytest.approx(want, rel=1e-14)

    def test_probe_crosses_quickly_for_m2(self):
        probe = alt_divergence_probe(2, target=1.5, j_cap=10**4)
        assert probe.crossed
        assert probe.crossing_j == 2
        assert probe.partial_sum == pytest.approx(1.7510931069958848, rel=1e-12)

    def test_probe_crossing_for_m1(self):
        probe = alt_divergence_probe(1, target=2.0, j_cap=10**4)
        assert probe.crossed
        assert probe.crossing_j == 3

    def test_probe_reports_failure_to_cross(self):
        probe = alt_divergence_probe(2, target=50.0, j_cap=10)
        assert not probe.crossed
        assert probe.crossing_j is None
        assert probe.terms_used == 11

    def test_rejects_target_at_or_below_one(self):
        with pytest.raises(ValidationError, match="target"):
            alt_divergence_probe(2, target=1.0)


class TestMoments:
    def test_unit_step_values(self):
        triple = moments_1d(PathClass1D(2, 1), 1)
        assert triple.mean == 2
        assert triple.mean_square == 16
        assert triple.variance == 12

    def test_exact_fraction_step(self):
        dx = Fraction(1, 3)
        triple = moments_1d(PathClass1D(2, 1), dx)
        assert triple.mean == Fraction(2, 3)
        assert triple.mean_square == Fraction(16, 9)
        assert triple.variance == Fraction(4, 3)
        assert triple.mean_square - triple.mean**2 == triple.variance

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=20),
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100)),
    )
    def test_variance_identity_is_exact(self, m, j, dx):
        triple = moments_1d(PathClass1D(m, j), dx)
        assert triple.mean_square - triple.mean**2 == triple.variance
        assert triple.variance == 4 * j * (m + j) * dx * dx

    def test_float_step_gives_floats(self):
        triple = moments_1d(PathClass1D(3, 2), 0.5)
        assert isinstance(triple.mean, float)
        assert triple.mean == 1.5
        assert triple.variance == pytest.approx(40 * 0.25, rel=1e-15)
