import itertools
import math
import random
from collections import Counter

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from pathsum import (
    EnumerationCapError,
    PathClass1D,
    PathClassND,
    ValidationError,
    count_paths_by_flips,
    entropy_1d,
    entropy_2d,
    entropy_rate,
    enumerate_paths,
    minimum_distance_count,
    multiplicity,
    multiplicity_1d,
    multiplicity_2d_full,
    multiplicity_2d_rotated,
    multiplicity_3d,
)
from pathsum.combinatorics import EXACT_STEP_LIMIT, _multinomial


class TestMultiplicity1D:
    @pytest.mark.parametrize("m,j,expected", [
        (1, 0, 1),
        (2, 1, 4),    # four orderings of 3 up, 1 down
        (2, 2, 15),
        (1, 1, 3),
        (1, 2, 10),
        (3, 0, 1),
        (5, 4, 715),
    ])
    def test_known_counts(self, m, j, expected):
        assert multiplicity_1d(PathClass1D(m, j)).exact == expected

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=40))
    def test_matches_binomial(self, m, j):
        # N!/((m+j)! j!) collapses to C(N, j)
        assert multiplicity_1d(PathClass1D(m, j)).exact == math.comb(m + 2 * j, j)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=12))
    def test_log_matches_lgamma(self, m, j):
        count = multiplicity_1d(PathClass1D(m, j))
        via_lgamma = (
            math.lgamma(m + 2 * j + 1) - math.lgamma(m + j + 1) - math.lgamma(j + 1)
        )
        assert count.log_value == pytest.approx(via_lgamma, abs=1e-10)

    def test_monotone_in_j(self):
        previous = 0
        for j in range(12):
            current = multiplicity_1d(PathClass1D(3, j)).exact
            assert current > previous
            previous = current


class TestMultiplicityBeyondExactCutoff:
    def test_switches_to_log_only(self):
        wide = PathClass1D(2, 1500)  # 3002 steps
        count = multiplicity_1d(wide)
        assert count.exact is None
        # reference value computed with 60-digit loggamma
        assert count.log_value == pytest.approx(2076.5977784037104, rel=1e-12)

    def test_log_only_larger_case(self):
        count = multiplicity_1d(PathClass1D(5, 3000))
        assert count.exact is None
        assert count.log_value == pytest.approx(4157.770731158294, rel=1e-12)

    def test_branches_agree_at_cutoff(self):
        # N = 2000 takes the exact branch; the lgamma route must agree closely
        m, j = 2, 999
        assert m + 2 * j == EXACT_STEP_LIMIT
        count = multiplicity_1d(PathClass1D(m, j))
        assert count.exact is not None
        via_lgamma = (
            math.lgamma(m + 2 * j + 1) - math.lgamma(m + j + 1) - math.lgamma(j + 1)
        )
        assert count.log_value == pytest.approx(via_lgamma, rel=1e-12)


def _mp_log_multinomial(parts):
    # at a fixed 30 digits loggamma(N+1) itself is only good to ~1e-30 N, so
    # the precision grows with the digits of N
    total = sum(parts)
    with mp.workdps(len(str(total)) + 30):
        return mp.loggamma(total + 1) - mp.fsum(mp.loggamma(p + 1) for p in parts)


class TestLogCountsPastTheExactLimit:
    def test_match_mpmath_on_seeded_classes(self):
        rng = random.Random(91)
        for _ in range(300):
            total = max(EXACT_STEP_LIMIT + 1, int(mp.mpf(10) ** rng.uniform(3.3, 300)))
            count = rng.randint(2, 6)
            shape = rng.choice(("small", "skewed", "balanced"))
            if shape == "balanced":
                cuts = sorted(rng.randint(0, total) for _ in range(count - 1))
                parts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
            else:
                top = 20 if shape == "small" else total // count
                rest = [rng.randint(0, top) for _ in range(count - 1)]
                parts = [total - sum(rest), *rest]
            rng.shuffle(parts)
            got = _multinomial(total, tuple(parts))
            assert got.exact is None
            want = _mp_log_multinomial(parts)
            assert abs(got.log_value - want) <= 1e-14 * want, parts

    @pytest.mark.parametrize("e", [4, 12, 14, 17, 100, 149, 305, 400])
    def test_one_backward_step_of_a_huge_class(self, e):
        # W = N = m + 2: lgamma differences lost this to cancellation
        count = multiplicity_1d(PathClass1D(10**e, 1))
        assert count.log_value == pytest.approx(math.log(10**e + 2), rel=1e-15)
        assert multiplicity_1d(PathClass1D(10**e, 0)).log_value == 0.0

    def test_typed_error_only_past_the_float_range(self):
        edge = multiplicity_1d(PathClass1D(2**1023, 2**1023))  # ln W ~ 1.716e308
        want = _mp_log_multinomial((2**1024, 2**1023))
        assert edge.log_value == pytest.approx(float(want), rel=1e-14)
        for net, backward in (((10**400,), (10**399,)), ((10**308, 10**308), (10**308, 0))):
            with pytest.raises(ValidationError, match="^steps: "):
                multiplicity(net, backward)


class TestMultiplicity2DAnd3D:
    @pytest.mark.parametrize("m1,m2,j,k,expected", [
        (2, 2, 0, 0, 6),
        (1, 1, 1, 0, 12),
        (3, 2, 0, 0, 10),
        (1, 0, 0, 1, 6),
    ])
    def test_full_counts(self, m1, m2, j, k, expected):
        assert multiplicity_2d_full(m1, m2, j, k).exact == expected

    @pytest.mark.parametrize("m1,j,k,expected", [
        (2, 0, 1, 12),
        (1, 1, 1, 60),
        (2, 1, 1, 120),
        (1, 0, 0, 1),
    ])
    def test_rotated_counts(self, m1, j, k, expected):
        assert multiplicity_2d_rotated(PathClassND(m1, j, k)).exact == expected

    @pytest.mark.parametrize("m1,j,k,l,expected", [
        # both verified by brute-force enumeration of all step sequences
        (1, 0, 1, 1, 120),
        (2, 0, 0, 1, 12),
    ])
    def test_3d_counts(self, m1, j, k, l, expected):
        assert multiplicity_3d(PathClassND(m1, j, k, l)).exact == expected

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    )
    def test_3d_transverse_symmetry(self, m1, j, k, l):
        one = multiplicity_3d(PathClassND(m1, j, k, l)).exact
        two = multiplicity_3d(PathClassND(m1, j, l, k)).exact
        assert one == two

    def test_minimum_distance_is_j0_k0_column(self):
        for m1 in range(1, 5):
            for m2 in range(0, 4):
                assert (
                    minimum_distance_count(m1, m2).exact
                    == multiplicity_2d_full(m1, m2, 0, 0).exact
                )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            multiplicity_2d_rotated(PathClassND(1, 0, 0, l=1))
        with pytest.raises(ValidationError):
            multiplicity_3d(PathClassND(1, 0, 0))
        with pytest.raises(ValidationError):
            multiplicity_2d_full(0, 1, 0, 0)


class TestGeneralMultiplicity:
    def test_matches_flip_counter_on_every_class(self):
        # every net with components 0..2 in 1-3D, up to two spare round trips;
        # this includes zero first-axis and transverse displacements
        classes = 0
        for dim in (1, 2, 3):
            for net in itertools.product(range(3), repeat=dim):
                for spare in range(3 if dim < 3 else 2):
                    total = sum(net) + 2 * spare
                    for key, count in count_paths_by_flips(dim, net, total).items():
                        assert multiplicity(net, key).exact == count, (net, key)
                        classes += 1
        # classes per net: 1D 1+1+1, 2D 1+2+3, 3D 1+3
        assert classes == 3 * 3 + 9 * 6 + 27 * 4

    @pytest.mark.parametrize("m1,m2,j,k,l", [
        (1, 0, 0, 0, 0), (3, 2, 1, 4, 2), (7, 5, 3, 0, 1), (900, 300, 400, 300, 200),
    ])
    def test_matches_per_dimension_forms(self, m1, m2, j, k, l):
        # the last row is past the exact cutoff, so log values must agree too
        assert multiplicity((m1,), (j,)) == multiplicity_1d(PathClass1D(m1, j))
        assert multiplicity((m1, m2), (j, k)) == multiplicity_2d_full(m1, m2, j, k)
        assert multiplicity((m1, 0), (j, k)) == multiplicity_2d_rotated(PathClassND(m1, j, k))
        assert multiplicity((m1, 0, 0), (j, k, l)) == multiplicity_3d(
            PathClassND(m1, j, k, l)
        )
        assert multiplicity((m1, m2), (0, 0)) == minimum_distance_count(m1, m2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError, match="net"):
            multiplicity((), ())
        with pytest.raises(ValidationError, match="net"):
            multiplicity((1, 0), (0,))
        with pytest.raises(ValidationError, match="net"):
            multiplicity((1, -1), (0, 0))
        with pytest.raises(ValidationError, match="backward"):
            multiplicity((1,), (-1,))
        with pytest.raises(ValidationError, match="net"):
            multiplicity((1.5,), (0,))


class TestEntropies:
    def test_entropy_scales_with_kb(self):
        cls = PathClass1D(2, 1)
        assert entropy_1d(cls) == pytest.approx(math.log(4.0), rel=1e-15)
        assert entropy_1d(cls, kB=2.5) == pytest.approx(2.5 * math.log(4.0), rel=1e-15)

    def test_entropy_2d_value(self):
        assert entropy_2d(2, 0, 0, 1) == pytest.approx(math.log(12.0), rel=1e-15)

    @pytest.mark.parametrize("kB", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_kb_must_be_finite_and_positive(self, kB):
        cls = PathClass1D(3, 1)
        for call in (
            lambda: entropy_1d(cls, kB=kB),
            lambda: entropy_2d(3, 0, 1, 1, kB=kB),
            lambda: entropy_rate(cls, kB=kB),
        ):
            with pytest.raises(ValidationError, match="^kB: must be finite"):
                call()

    def test_kb_product_past_the_float_range(self):
        cls = PathClass1D(1000, 1000)
        for call in (
            lambda: entropy_1d(cls, kB=1e308),
            lambda: entropy_2d(1000, 0, 1000, 0, kB=1e308),
            lambda: entropy_rate(cls, kB=1e308),
        ):
            with pytest.raises(ValidationError, match="^kB: .*past the float range"):
                call()
        # a product that stays finite is unchanged
        assert entropy_1d(PathClass1D(3, 0), kB=1e308) == 0.0

    def test_entropy_rate_large_j(self):
        # reference value computed with 60-digit loggamma
        rate = entropy_rate(PathClass1D(2, 10**6))
        assert rate == pytest.approx(0.6931434405027619, abs=1e-11)
        assert abs(rate - math.log(2.0)) < 1e-4

    def test_entropy_rate_converges_to_ln2(self):
        gaps = [
            abs(entropy_rate(PathClass1D(2, j)) - math.log(2.0))
            for j in (10**2, 10**4, 10**6)
        ]
        assert gaps[0] > gaps[1] > gaps[2]


class TestEnumerationOracle:
    def test_counts_match_closed_form_1d(self):
        for m in range(1, 5):
            for j in range(0, 4):
                counts = count_paths_by_flips(1, (m,), m + 2 * j)
                assert counts[(j,)] == multiplicity_1d(PathClass1D(m, j)).exact

    def test_counts_match_closed_form_2d_full(self):
        for m1 in range(1, 4):
            for m2 in range(0, 3):
                for j in range(0, 2):
                    for k in range(0, 2):
                        total = m1 + m2 + 2 * j + 2 * k
                        counts = count_paths_by_flips(2, (m1, m2), total)
                        assert counts[(j, k)] == multiplicity_2d_full(m1, m2, j, k).exact

    def test_counts_match_closed_form_rotated(self):
        for m1 in range(1, 4):
            for j in range(0, 2):
                for k in range(0, 3):
                    total = m1 + 2 * j + 2 * k
                    counts = count_paths_by_flips(2, (m1, 0), total)
                    expected = multiplicity_2d_rotated(PathClassND(m1, j, k)).exact
                    assert counts[(j, k)] == expected

    def test_counts_match_closed_form_3d(self):
        counts = count_paths_by_flips(3, (1, 0, 0), 5)
        for (j, k, l), count in counts.items():
            assert count == multiplicity_3d(PathClassND(1, j, k, l)).exact

    def test_infeasible_walks_rejected(self):
        with pytest.raises(ValidationError, match="total_steps"):
            count_paths_by_flips(1, (2,), 3)  # parity mismatch
        with pytest.raises(ValidationError, match="total_steps"):
            count_paths_by_flips(1, (4,), 2)  # cannot reach
        with pytest.raises(ValidationError, match="net"):
            count_paths_by_flips(2, (1,), 3)  # wrong arity


def unpruned_count_paths_by_flips(dimension, net, total_steps):
    """The oracle before it pruned: every walk of total_steps, then filtered."""
    start = tuple((0, 0) for _ in range(dimension))
    states = {start: 1}
    for _ in range(total_steps):
        nxt = {}
        for state, count in states.items():
            for axis in range(dimension):
                up, down = state[axis]
                for bumped in ((up + 1, down), (up, down + 1)):
                    key = state[:axis] + (bumped,) + state[axis + 1 :]
                    nxt[key] = nxt.get(key, 0) + count
        states = nxt
    result = {}
    for state, count in states.items():
        if all(up - down == want for (up, down), want in zip(state, net)):
            result[tuple(down for _, down in state)] = count
    return result


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_pruned_flip_counter_matches_unpruned(dimension):
    # every net with components 0..3, from the shortest walk up to two
    # (3D: one) spare round trips
    for net in itertools.product(range(4), repeat=dimension):
        for spare in range(3 if dimension < 3 else 2):
            total = sum(net) + 2 * spare
            expected = unpruned_count_paths_by_flips(dimension, net, total)
            assert count_paths_by_flips(dimension, net, total) == expected, (net, total)


def test_chained_binomials_equal_the_factorial_quotient():
    rng = random.Random(20260)
    for _ in range(400):
        parts = tuple(rng.randint(0, rng.choice((5, 60, 700))) for _ in range(rng.randint(1, 6)))
        total = sum(parts)
        if total > EXACT_STEP_LIMIT:
            continue
        den = 1
        for p in parts:
            den *= math.factorial(p)
        assert _multinomial(total, parts).exact == math.factorial(total) // den, parts
    # the largest exact case, and the log-gamma route just above it, untouched
    assert _multinomial(2000, (1000, 1000)).exact == math.comb(2000, 1000)
    above = _multinomial(2001, (1000, 1001))
    assert above.exact is None
    assert above.log_value == pytest.approx(math.log(math.comb(2001, 1000)), rel=1e-13)


class TestEnumeratePaths:
    def test_small_2d_class(self):
        seqs = enumerate_paths(2, (2, 2), 4)
        assert len(seqs) == 6
        assert len({seq.steps for seq in seqs}) == 6
        for seq in seqs:
            assert seq.net(2) == (2, 2)
            assert seq.down_counts(2) == (0, 0)

    def test_matches_flip_counter(self):
        dimension, net, total = 2, (1, 0), 5
        seqs = enumerate_paths(dimension, net, total)
        grouped = Counter(seq.down_counts(dimension) for seq in seqs)
        assert dict(grouped) == count_paths_by_flips(dimension, net, total)

    def test_deterministic_order(self):
        seqs = enumerate_paths(1, (2,), 4)
        texts = [seq.to_text() for seq in seqs]
        assert texts == [
            "+x +x +x -x",
            "+x +x -x +x",
            "+x -x +x +x",
            "-x +x +x +x",
        ]

    def test_cap_is_enforced(self):
        with pytest.raises(EnumerationCapError):
            enumerate_paths(2, (2, 2), 4, cap=5)

    @pytest.mark.parametrize("dimension, net, total", [
        (1, (0,), 0), (1, (2,), 6), (2, (1, 0), 5), (2, (0, 0), 4), (3, (1, 0, 0), 5),
        (3, (0, 1, 1), 4),
    ])
    def test_order_is_that_of_every_move_sequence(self, dimension, net, total):
        moves = [(axis, sign) for axis in range(dimension) for sign in (+1, -1)]
        arriving = [
            steps for steps in itertools.product(moves, repeat=total)
            if all(sum(s for a, s in steps if a == axis) == net[axis] for axis in range(dimension))
        ]
        assert [seq.steps for seq in enumerate_paths(dimension, net, total)] == arriving

    def test_long_walks_need_no_deep_recursion(self):
        # a walk one call deep per step raised RecursionError near 1000 steps
        (seq,) = enumerate_paths(1, (3000,), 3000)
        assert seq.steps == ((0, 1),) * 3000

    @pytest.mark.parametrize("dimension, net, total", [
        (1, (2,), 6), (2, (1, 0), 5), (2, (0, 0), 4), (3, (1, 0, 0), 5), (3, (0, 1, 1), 4),
    ])
    def test_cap_is_exactly_the_walk_count(self, dimension, net, total):
        count = sum(count_paths_by_flips(dimension, net, total).values())
        assert len(enumerate_paths(dimension, net, total, cap=count)) == count
        with pytest.raises(EnumerationCapError, match=f"^more than {count - 1} sequences$"):
            enumerate_paths(dimension, net, total, cap=count - 1)

    # One class alone has far more walks than memory holds: it is never formed.
    @pytest.mark.parametrize("dimension, net", [(1, (1,)), (3, (1, 0, 0))])
    def test_cap_rejects_huge_walk_counts_from_their_log(self, dimension, net):
        with pytest.raises(EnumerationCapError, match="^more than 10 sequences$"):
            enumerate_paths(dimension, net, 10**12 + 1, cap=10)

    def test_step_text_uses_axis_names(self):
        seqs = enumerate_paths(3, (1, 0, 0), 1)
        assert seqs[0].to_text() == "+x"
        seqs = enumerate_paths(2, (0, 1), 1)
        assert seqs[0].to_text() == "+y"

    @settings(deadline=None)
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2),
    )
    def test_1d_lengths_agree(self, m, j):
        seqs = enumerate_paths(1, (m,), m + 2 * j)
        grouped = Counter(seq.down_counts(1) for seq in seqs)
        assert grouped[(j,)] == multiplicity_1d(PathClass1D(m, j)).exact
