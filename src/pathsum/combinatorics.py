"""Counting lattice walks by class, exactly and in log space.

A class fixes the net displacement and the number of steps spent moving
against it (or in transverse round trips); the count is the number of
distinct step orderings, a multinomial. Counts are exact big integers up
to EXACT_STEP_LIMIT total steps. Above it only their logarithms are kept,
from Stirling's formula with its remainder, to a relative error near 1e-15
at any size; a count whose logarithm leaves the float range is rejected.

An enumeration oracle is included: count_paths_by_flips tallies every
step sequence by dynamic programming without using any closed formula,
and enumerate_paths materializes the sequences themselves. They exist so
the multinomial forms can be checked against brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    DEFAULT_ENUMERATION_CAP,
    BigCount,
    EnumerationCapError,
    PathClass1D,
    PathClassND,
    ValidationError,
    _as_float,
    _require_int,
    _require_kb_product,
    _require_positive,
)

EXACT_STEP_LIMIT = 2000

_AXIS_NAMES = "xyz"
LN2 = math.log(2.0)
_LN_SQRT_2PI = 0.5 * math.log(2 * math.pi)


def _stirling_remainder(n: int) -> float:
    """ln n! - ((n + 1/2) ln n - n + ln sqrt(2 pi)) for n >= 1 (Loader 2000)."""
    if n < 16:
        return math.lgamma(n + 1) - (n + 0.5) * math.log(n) + n - _LN_SQRT_2PI
    x = 1 / n  # int / int: no overflow at any n
    xx = x * x
    if n > 1000:  # the terms left out are below 1e-18
        return x * (1 / 12 - xx / 360)
    return x * (1 / 12 - xx * (1 / 360 - xx * (1 / 1260 - xx * (1 / 1680 - xx / 1188))))


def _stirling_gap(up: int, down: int) -> tuple[float, int, float]:
    """ln W - mixing_log_count(up, down), W = N!/(up! down!), N = up + down, down >= 1.

    Stirling's formula cancels every power in it, leaving
    ln sqrt(N/(2 pi up down)) + d(N) - d(up) - d(down), d the Stirling
    remainder, where nothing cancels in floats. It comes in parts
    (q, shift, rest), worth (ln q - shift ln 2)/2 + rest: q is
    N 2^shift/(2 pi up down), kept a normal float by an even shift
    (nonzero only for down past 10^300).
    """
    n, den = up + down, up * down
    shift = max(0, den.bit_length() - n.bit_length() - 1000) & ~1
    q = (n << shift) / den / (2 * math.pi)  # int / int is correctly rounded
    d = _stirling_remainder
    return q, shift, d(n) - d(up) - d(down)


def _log_multinomial(total: int, parts: tuple[int, ...]) -> float:
    """ln(total! / prod(part!)) by Stirling's formula with its remainder.

    With N = total, h = ln(N)/2 + ln sqrt(2 pi) and delta the remainder
    above, the log count is h + delta(N) plus, per part p > 0,
    (p + 1/2) ln(N/p) - h - delta(p). The terms (p + 1/2) ln(N/p) carry the
    value and nothing cancels them, unlike lgamma(N+1) - sum(lgamma(p+1))
    when one part is close to N. For p >= N/2 the term is computed from
    q = N - p and y = q/p as q ln(1+y)/y + ln(1+y)/2. An int past the float
    range makes the count's log larger still (at least ln C(2p, p) for that
    p), so OverflowError gives inf.
    """
    half = 0.5 * math.log(total) + _LN_SQRT_2PI
    log_value = half + _stirling_remainder(total)
    try:
        for p in parts:
            if p:
                q = total - p
                if q <= p:
                    if q == 0:
                        return 0.0  # a single part: the count is 1
                    y = q / p  # 0.0 only when it underflows, where ln(1+y)/y is 1
                    log1p = math.log1p(y)
                    lead = q * (log1p / y if y else 1.0) + 0.5 * log1p
                else:
                    try:
                        lead = (p + 0.5) * math.log(total / p)  # total/p is correctly rounded
                    except OverflowError:  # total/p > 2^1024, where the floor is as good
                        lead = (p + 0.5) * math.log(total // p)
                log_value += lead - half - _stirling_remainder(p)
    except OverflowError:
        return math.inf
    return log_value


def _binomial_product(parts) -> int:
    """sum(parts)! / prod(part!) exactly: each part chooses its places among the rest."""
    exact, placed = 1, 0
    for p in parts:
        placed += p
        exact *= math.comb(placed, p)
    return exact


def _multinomial(total: int, parts: tuple[int, ...]) -> BigCount:
    """total! / prod(part!) as a BigCount. parts must sum to total.

    Exact up to EXACT_STEP_LIMIT steps, and only its logarithm above.
    """
    if total <= EXACT_STEP_LIMIT:
        exact = _binomial_product(parts)
        return BigCount(log_value=math.log(exact), exact=exact)
    log_value = _log_multinomial(total, parts)
    if log_value == math.inf:
        steps = f"about 2^{total.bit_length() - 1} steps"
        raise ValidationError("steps", f"the log count of {steps} is past the float range")
    return BigCount.from_log(log_value)


def multiplicity(net, backward) -> BigCount:
    """Walks in any number of dimensions, by class: N! / prod_a (net_a+b_a)! b_a!.

    Axis a takes net[a] + backward[a] forward and backward[a] backward steps;
    N is the total. Components of both tuples are integers >= 0. Every
    per-dimension count below is one case of this formula.
    """
    net, backward = tuple(net), tuple(backward)
    if not net or len(backward) != len(net):
        raise ValidationError(
            "net", f"need one backward count per axis, got {len(net)} and {len(backward)}"
        )
    parts = []
    for m, b in zip(net, backward):
        parts += (_require_int("net", m, 0) + _require_int("backward", b, 0), b)
    return _multinomial(sum(parts), tuple(parts))


def multiplicity_1d(cls: PathClass1D) -> BigCount:
    """Number of 1D walks with net displacement m out of N = m + 2j steps.

    Equals N! / ((m+j)! j!), the orderings of m+j forward and j backward
    steps.
    """
    return _multinomial(cls.n_steps, (cls.n_up, cls.n_down))


def multiplicity_2d_full(m1: int, m2: int, j: int, k: int) -> BigCount:
    """2D walks with net displacement (m1, m2), j and k backward steps per axis."""
    _require_int("m1", m1, 1)
    _require_int("m2", m2, 0)
    _require_int("j", j, 0)
    _require_int("k", k, 0)
    total = m1 + m2 + 2 * j + 2 * k
    return _multinomial(total, (m1 + j, j, m2 + k, k))


def multiplicity_2d_rotated(cls: PathClassND) -> BigCount:
    """2D walks in axes aligned with the displacement: net (m1, 0).

    The transverse axis contributes k steps each way, so the count is
    N! / ((m1+j)! j! (k!)^2) with N = m1 + 2j + 2k.
    """
    if cls.dimension != 2:
        raise ValidationError("l", "rotated 2D count requires a 2D class (l is None)")
    return _multinomial(cls.n_steps, (cls.m1 + cls.j, cls.j, cls.k, cls.k))


def multiplicity_3d(cls: PathClassND) -> BigCount:
    """3D walks with net displacement along one axis: N!/((m1+j)! j! (k!)^2 (l!)^2)."""
    if cls.dimension != 3:
        raise ValidationError("l", "3D count requires l to be set")
    return _multinomial(
        cls.n_steps, (cls.m1 + cls.j, cls.j, cls.k, cls.k, cls.l, cls.l)
    )


def minimum_distance_count(m1: int, m2: int) -> BigCount:
    """Shortest 2D walks to (m1, m2): (m1+m2)!/(m1! m2!), no wasted steps."""
    if _require_int("m1", m1, 0) + _require_int("m2", m2, 0) < 1:
        raise ValidationError("m1", "need a nonzero displacement")
    return _multinomial(m1 + m2, (m1, m2))


def entropy_1d(cls: PathClass1D, kB: float = 1.0) -> float:
    """Boltzmann entropy kB * ln W of a 1D path class."""
    _require_positive("kB", kB)
    return _require_kb_product(kB * multiplicity_1d(cls).log_value)


def entropy_2d(m1: int, m2: int, j: int, k: int, kB: float = 1.0) -> float:
    _require_positive("kB", kB)
    return _require_kb_product(kB * multiplicity_2d_full(m1, m2, j, k).log_value)


def entropy_rate(cls: PathClass1D, kB: float = 1.0) -> float:
    """Entropy per step, kB * ln W / N. Approaches kB*ln 2 for j >> m."""
    _require_positive("kB", kB)
    return _require_kb_product(kB * multiplicity_1d(cls).log_value / _as_float("m", cls.n_steps))


@dataclass(frozen=True)
class StepSequence:
    """One concrete walk: a tuple of (axis, direction) steps, direction +1 or -1."""

    steps: tuple[tuple[int, int], ...]

    def net(self, dimension: int) -> tuple[int, ...]:
        totals = [0] * dimension
        for axis, sign in self.steps:
            totals[axis] += sign
        return tuple(totals)

    def down_counts(self, dimension: int) -> tuple[int, ...]:
        """Per-axis count of steps in the -1 direction."""
        downs = [0] * dimension
        for axis, sign in self.steps:
            if sign < 0:
                downs[axis] += 1
        return tuple(downs)

    def to_text(self) -> str:
        return " ".join(
            f"{'+' if sign > 0 else '-'}{_AXIS_NAMES[axis]}" for axis, sign in self.steps
        )


def _check_walk_args(dimension: int, net, total_steps: int) -> tuple[int, ...]:
    # messages show only bounded ints; one past the int -> str digit limit would raise
    if _require_int("dimension", dimension) not in (1, 2, 3):
        raise ValidationError("dimension", "must be 1, 2, or 3")
    net = tuple(net)
    if len(net) != dimension:
        raise ValidationError("net", f"needs {dimension} components, got {len(net)}")
    for comp in net:
        _require_int("net", comp, 0)
    _require_int("total_steps", total_steps)
    span = sum(net)
    if total_steps < span:
        raise ValidationError("total_steps", "too few steps to reach the displacement")
    if (total_steps - span) % 2 != 0:
        raise ValidationError("total_steps", "parity mismatch with the displacement")
    return net


def count_paths_by_flips(dimension: int, net, total_steps: int) -> dict[tuple[int, ...], int]:
    """Tally all walks reaching `net` in `total_steps`, keyed by per-axis backward steps.

    Dynamic programming over flat states (gap_x, down_x, gap_y, ...): the
    displacement still to go and the backward steps taken, per axis. States
    farther from `net` than the steps left are dropped, as none of their
    walks arrives. Every arriving sequence is counted exactly once and no
    closed-form factorial is used, so this serves as an independent oracle
    for the multiplicity functions. Keys are tuples (j,), (j, k), or
    (j, k, l) of backward-step counts per axis.
    """
    net = _check_walk_args(dimension, net, total_steps)
    states = {tuple(x for want in net for x in (want, 0)): 1}
    for left in range(total_steps, 0, -1):
        nxt: dict[tuple[int, ...], int] = {}
        for state, count in states.items():
            # a state exactly `left` steps away may only step towards net
            free = sum(map(abs, state[::2])) < left
            for i in range(0, 2 * dimension, 2):
                gap, down = state[i], state[i + 1]
                for move, back in ((-1, 0), (1, 1)):  # forward, backward; towards if gap*move < 0
                    if free or gap * move < 0:
                        key = state[:i] + (gap + move, down + back) + state[i + 2 :]
                        nxt[key] = nxt.get(key, 0) + count
        states = nxt
    # every state left has arrived: all its gaps are 0
    return {state[1::2]: count for state, count in states.items()}


def enumerate_paths(
    dimension: int,
    net,
    total_steps: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[StepSequence]:
    """Materialize every walk reaching `net` in `total_steps`, in a fixed order.

    Steps are generated in the move order +x, -x, +y, -y, +z, -z, so the
    output is deterministic. The closed-form class counts are summed first,
    stopping as soon as the sum passes `cap`; EnumerationCapError is then
    raised rather than truncating, before any walk is generated.
    """
    net = _check_walk_args(dimension, net, total_steps)
    _require_int("cap", cap, 1)
    spare = (total_steps - sum(net)) // 2  # backward steps, split among the axes
    log_cap = math.log(cap) + 1  # far wider than the error of the log count
    count = 0
    for j in range(spare + 1 if dimension == 3 else 1):
        for k in range(spare - j + 1 if dimension >= 2 else 1):
            backward = (j, k, spare - j - k)[3 - dimension :]
            parts = tuple(x for m, b in zip(net, backward) for x in (m + b, b))
            # a class far past cap is not formed exactly: it may not fit in memory
            far = total_steps and _log_multinomial(total_steps, parts) > log_cap
            count += cap + 1 if far else _binomial_product(parts)
            if count > cap:
                raise EnumerationCapError(f"more than {cap} sequences")

    if total_steps == 0:
        return [StepSequence(())]  # net is zero: the empty walk alone
    moves = [(axis, sign) for axis in range(dimension) for sign in (+1, -1)]
    out: list[StepSequence] = []
    prefix: list[tuple[int, int]] = []
    gap = list(net)  # displacement still to go, per axis
    # Depth first with an explicit stack, so a long walk needs no deep
    # recursion. Per open step, it holds the index of the next move to try.
    stack = [0]
    while stack:
        index = stack.pop()
        if index:  # back from moves[index - 1]
            axis, sign = prefix.pop()
            gap[axis] += sign
        left = total_steps - len(prefix) - 1  # steps left after the next move
        while index < len(moves):
            move = moves[index]
            index += 1
            axis, sign = move
            gap[axis] -= sign
            # a move is taken only if the target stays in reach
            if sum(map(abs, gap)) <= left:
                prefix.append(move)
                if left:
                    stack += (index, 0)
                    break
                out.append(StepSequence(tuple(prefix)))
                prefix.pop()
            gap[axis] += sign
    return out
