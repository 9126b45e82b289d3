"""Seeded operation lists for the four benchmark workloads, and their runners.

An operation is one call sequence into pathsum's public API. Each workload
is a list of operations generated from the seed alone, before anything is
timed; the program only ever sees the generated arguments. Parameters that
drive the cost of an operation (b, tol, step counts) are drawn by jittered
stratification rather than independently, so every seed covers the same
cost strata and run-to-run figures stay comparable across seeds.

Runners call pathsum through module attributes (``kernel.kernel_sum_1d``),
never through names bound at import time, so the traced run can swap in
span-recording wrappers without touching this file.

Operations tagged with a ``defect`` are inputs on which a known ROADMAP
defect makes the seed commit fail; the benchmark counts them as failed
operations and reports them by tag.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from pathsum import cli, combinatorics, core, ensemble, kernel, stats

WORKLOADS = ("tables", "series", "counts", "cli")

# The CLI's documented exit codes: 0 ok, 1 check failed, 2 bad input, 3 cap hit.
EXIT_CODES = (0, 1, 2, 3)


@dataclass(frozen=True)
class Op:
    kind: str  # key into RUNNERS and into oracles.CHECKS
    args: tuple  # passed to the runner; the only input the program sees
    layer: str  # pathsum module whose public API the operation drives
    defect: str | None = None  # known-defect tag: expected to fail at the seed
    expect: object = None  # extra facts for the checker (CLI expectations)


@dataclass
class Raised:
    """A runner raised instead of returning."""

    exc: BaseException


@dataclass
class CliRun:
    """One in-process ``pathsum.cli.main(argv)`` call, output captured."""

    code: object  # return value or SystemExit code; None if it raised
    out: str
    err: str
    exc: BaseException | None  # an escaped exception is a traceback in a real process


# ---------------------------------------------------------------- runners


def run_p1d(m, tol, j_max):
    return stats.probability_1d(m, j_max=j_max, tol=tol)


def run_p2d(m1, tol):
    return stats.probability_2d(m1, tol=tol)


def run_moments(m, j, dx):
    return stats.moments_1d(core.PathClass1D(m, j), dx)


def run_k1d(b, m):
    return kernel.kernel_sum_1d(b, m)


def run_k2d(b, m1):
    return kernel.kernel_sum_2d(b, m1)


def run_scan(m_values, b_min, b_max, points):
    return kernel.threshold_scan(m_values, b_min, b_max, points)


def run_norm(M, hbar, t, panels):
    params = core.PhysicalParams(M=M, dx=1.0, dt=1.0, hbar=hbar)
    return kernel.propagator_normalization(params, t, panels)


def run_heat(M, hbar, x, t, h):
    params = core.PhysicalParams(M=M, dx=1.0, dt=1.0, hbar=hbar)
    return kernel.heat_residual(params, x, t, h)


def run_mult1d(m, j):
    return combinatorics.multiplicity_1d(core.PathClass1D(m, j))


def run_mult2d_full(m1, m2, j, k):
    return combinatorics.multiplicity_2d_full(m1, m2, j, k)


def run_mult2d_rot(m1, j, k):
    return combinatorics.multiplicity_2d_rotated(core.PathClassND(m1, j, k))


def run_mult3d(m1, j, k, l):
    return combinatorics.multiplicity_3d(core.PathClassND(m1, j, k, l))


def run_mindist(m1, m2):
    return combinatorics.minimum_distance_count(m1, m2)


def run_flips(dim, net, total):
    return combinatorics.count_paths_by_flips(dim, net, total)


def run_enum(dim, net, total):
    return combinatorics.enumerate_paths(dim, net, total)


def run_ens1d(m, j, E):
    ens = ensemble.SpinEnsemble1D.from_path_class(core.PathClass1D(m, j), E)
    closed = ensemble.ensemble_entropy_large_n(ens)
    canonical = ensemble.two_level_entropy(ens.n_spins, ens.beta * ens.E)
    log_w = combinatorics.multiplicity_1d(core.PathClass1D(m, j)).log_value
    return ens, closed, canonical, ensemble.magnetization(ens), log_w


def run_ens2d(m1, j, k, E1, E2):
    ens = ensemble.SpinEnsemble2D.from_path_class(core.PathClassND(m1, j, k), E1, E2)
    entropy = ensemble.ensemble_entropy_2d(ens)
    log_z = ensemble.combined_partition_2d(ens)
    balanced = ensemble.restriction_check(ens)
    log_w = combinatorics.multiplicity_2d_rotated(core.PathClassND(m1, j, k)).log_value
    return ens, entropy, log_z, balanced, log_w


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as stop:
            code = stop.code
        except Exception as caught:  # noqa: BLE001 - a traceback is an observed outcome
            exc = caught
    return CliRun(code=code, out=out.getvalue(), err=err.getvalue(), exc=exc)


RUNNERS = {
    name[len("run_"):]: fn for name, fn in globals().items() if name.startswith("run_")
}


def execute(op: Op):
    """Run one operation; an exception becomes a Raised result."""
    try:
        return RUNNERS[op.kind](*op.args)
    except Exception as exc:  # noqa: BLE001 - the checker decides what a raise means
        return Raised(exc)


# ---------------------------------------------------------------- sampling


def strata(rng: random.Random, n: int) -> list[float]:
    """n jittered points, one in each of n equal slices of [0, 1), shuffled."""
    points = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(points)
    return points


def grid(rng: random.Random, nx: int, ny: int) -> list[tuple[float, float]]:
    """One jittered point in every cell of an nx-by-ny grid over [0, 1)^2."""
    cells = [((i + rng.random()) / nx, (k + rng.random()) / ny) for i in range(nx) for k in range(ny)]
    rng.shuffle(cells)
    return cells


def log_scale(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def log_int(u: float, lo: int, hi: int) -> int:
    return min(hi, max(lo, round(log_scale(u, lo, hi))))


def predicted_last_class(m: int, tol: float) -> int:
    """Index J at which a tol-driven 1D table stops, from float log weights.

    Mirrors the documented stopping rule 1.5 w_{J+1} <= tol * Z. Used only to
    keep tol-driven tables below the exact-arithmetic step limit.
    """
    def log_w(j):
        return -(math.lgamma(m + 2 * j + 1) - math.lgamma(m + j + 1) - math.lgamma(j + 1))

    z, j = 0.0, 0
    while True:
        z += math.exp(log_w(j))
        if math.log(1.5) + log_w(j + 1) <= math.log(tol) + math.log(z):
            return j
        j += 1


# ---------------------------------------------------------------- tables

EXACT_LIMIT = combinatorics.EXACT_STEP_LIMIT


def gen_tables(rng: random.Random, scale: float) -> list[Op]:
    ops = []
    for um, ut in grid(rng, max(1, round(5 * scale)), max(1, round(10 * scale))):
        m = log_int(um, 1, 1500)
        tol = log_scale(ut, 1e-300, 1e-3)
        # tol-driven tables must stay inside the exact range: past it the
        # seed commit spins for ~15 s before its cap (defect D2), which no
        # timed operation may contain.
        while m + 2 * (predicted_last_class(m, tol) + 2) > EXACT_LIMIT:
            m = max(1, m // 2)
        ops.append(Op("p1d", (m, tol, None), "stats"))
    for um, ut in grid(rng, max(1, round(4 * scale)), max(1, round(8 * scale))):
        ops.append(Op("p2d", (log_int(um, 1, 200), log_scale(ut, 1e-60, 1e-3)), "stats"))
    for j_max in range(6):
        for u in strata(rng, max(1, round(10 * scale))):
            ops.append(Op("p1d", (log_int(u, 1, 1500), 1e-12, j_max), "stats"))
    # D1: bounded tables that reach past the exact step limit. The bound
    # m + 2*min(j_max, 4) > limit makes a class past the limit part of the
    # returned table, whatever j_max is.
    for _ in range(max(1, round(8 * scale))):
        while True:
            m, j_max = rng.randint(1990, 3000), rng.randint(1, 5)
            if m + 2 * min(j_max, 4) > EXACT_LIMIT:
                break
        ops.append(Op("p1d", (m, 1e-12, j_max), "stats", defect="D1"))
    for _ in range(max(1, round(40 * scale))):
        dx = Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
        ops.append(Op("moments", (rng.randint(1, 1500), rng.randint(0, 1000), dx), "stats"))
    return ops


# ---------------------------------------------------------------- series

UNDERFLOW_BM2 = 745.2  # exp(-x) is exactly 0.0 in binary64 beyond this


def gen_series(rng: random.Random, scale: float) -> list[Op]:
    ops = []
    # One set of b strata shared by both sums, alternating between them, so
    # the costliest operations are spread as evenly as the count allows.
    n = max(2, round(128 * scale))
    for i in range(n):
        u = (i + rng.random()) / n
        ops.append(Op(("k1d", "k2d")[i % 2], (log_scale(u, 1e-10, 10.0), rng.randint(1, 64)), "kernel"))
    for i, (u, up) in enumerate(grid(rng, max(1, round(6 * scale)), max(1, round(4 * scale)))):
        m_values = tuple(rng.randint(1, 20) for _ in range(1 + i % 3))
        b_min = log_scale(u, 1e-3, 0.5)
        b_max = min(b_min * rng.uniform(1.5, 10.0), 700.0 / max(m_values) ** 2)
        if b_max <= b_min:
            b_max = b_min * 1.25
            m_values = tuple(min(m, int(math.sqrt(700.0 / b_max))) for m in m_values)
        ops.append(Op("scan", (m_values, b_min, b_max, 2 + round(up * 18)), "kernel"))
    # D3: grids whose last point has exp(-b m^2) == 0.0, so sum/limit is 0/0.
    for _ in range(max(1, round(6 * scale))):
        m = rng.randint(8, 64)
        b_max = rng.uniform(1.1, 8.0) * UNDERFLOW_BM2 / (m * m)
        ops.append(Op("scan", ((m,), b_max / rng.uniform(1.5, 4.0), b_max, rng.randint(2, 8)), "kernel", defect="D3"))
    for u in strata(rng, max(1, round(8 * scale))):
        M, hbar = log_scale(rng.random(), 0.1, 10.0), log_scale(rng.random(), 0.1, 10.0)
        ops.append(Op("norm", (M, hbar, log_scale(u, 0.5, 5.0), rng.choice((1024, 2048, 4096))), "kernel"))
    for u in strata(rng, max(1, round(32 * scale))):
        M, hbar = log_scale(rng.random(), 0.1, 10.0), log_scale(rng.random(), 0.1, 10.0)
        t = log_scale(rng.random(), 0.5, 5.0)
        x = rng.uniform(-2.0, 2.0) * math.sqrt(hbar * t / M)
        ops.append(Op("heat", (M, hbar, x, t, log_scale(u, 1e-4, 1e-2)), "kernel"))
    return ops


# ---------------------------------------------------------------- counts


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def gen_counts(rng: random.Random, scale: float) -> list[Op]:
    ops = []
    n = max(1, round(150 * scale))
    for u in strata(rng, n):  # N = m + 2j
        steps = log_int(u, 1, 10**6)
        m = rng.randint(1, steps)
        m += (steps - m) % 2  # odd steps - m means m < steps, so m + 1 still fits
        ops.append(Op("mult1d", (m, (steps - m) // 2), "combinatorics"))
    for u in strata(rng, n):  # N = m1 + m2 + 2j + 2k
        steps = log_int(u, 1, 10**6)
        m1 = rng.randint(1, steps)
        m2 = rng.randint(0, steps - m1)
        m2 += (steps - m1 - m2) % 2
        j, k = _split(rng, (steps - m1 - m2) // 2, 2)
        ops.append(Op("mult2d_full", (m1, m2, j, k), "combinatorics"))
    for u in strata(rng, n):  # N = m1 + 2j + 2k
        half = log_int(u, 1, 10**6) // 2
        m1 = 2 * rng.randint(0, half) + rng.randint(1, 2)
        j, k = _split(rng, max(0, half - m1 // 2), 2)
        ops.append(Op("mult2d_rot", (m1, j, k), "combinatorics"))
    for u in strata(rng, n):  # N = m1 + 2j + 2k + 2l
        half = log_int(u, 1, 10**6) // 2
        m1 = 2 * rng.randint(0, half) + rng.randint(1, 2)
        j, k, l = _split(rng, max(0, half - m1 // 2), 3)
        ops.append(Op("mult3d", (m1, j, k, l), "combinatorics"))
    for u in strata(rng, n):
        steps = log_int(u, 1, 10**6)
        m1 = rng.randint(0, steps)
        ops.append(Op("mindist", (m1, steps - m1), "combinatorics"))
    # Brute-force oracles at small step counts, at most ~1.5 ms each; the
    # same number per dimension in every seed, sizes stratified.
    for kind, per_dim, extra in (("flips", 8, {1: 14, 2: 2, 3: 1}), ("enum", 6, {1: 4, 2: 1, 3: 1})):
        for dim in (1, 2, 3):
            for u in strata(rng, max(1, round(per_dim * scale))):
                net = (rng.randint(1, 2), *(rng.randint(0, 1) for _ in range(dim - 1)))
                if dim == 3:
                    net = (1, rng.randint(0, 1), 0)
                ops.append(Op(kind, (dim, net, sum(net) + 2 * round(u * extra[dim])), "combinatorics"))
    # Ensembles in the Stirling regime (N >= 10^4), where validate's
    # tolerances apply to the entropy-vs-count cross-check.
    for u in strata(rng, max(1, round(50 * scale))):
        steps = log_int(u, 10**4, 10**6)
        m = max(1, log_int(rng.random(), 1, steps // 2))
        m += (steps - m) % 2
        ops.append(Op("ens1d", (m, (steps - m) // 2, log_scale(rng.random(), 0.01, 100.0)), "ensemble"))
    for u in strata(rng, max(1, round(40 * scale))):
        half = log_int(u, 10**3, 10**6) // 2
        m1 = 2 * log_int(rng.random(), 1, half // 2)
        j, k = _split(rng, half - m1 // 2, 2)
        j, k = max(j, 1), max(k, 1)
        E1, E2 = log_scale(rng.random(), 0.01, 100.0), log_scale(rng.random(), 0.01, 100.0)
        ops.append(Op("ens2d", (m1, j, k, E1, E2), "ensemble"))
    return ops


# ---------------------------------------------------------------- cli

CODATA_KB = 1.380649e-23


def _fmt_flags(rng, formats, out_path):
    fmt = rng.choice(formats)
    flags = ["--format", fmt]
    digits = 15
    if fmt != "json" and rng.random() < 0.5:
        digits = rng.randint(4, 17)
        flags += ["--digits", str(digits)]
    out = None
    if out_path is not None and rng.random() < 0.25:
        out = out_path
        flags += ["--out", out]
    return flags, {"format": fmt, "digits": digits, "out": out}


def _cli_ok(rng: random.Random, sub: str, out_path: str) -> tuple[list[str], dict]:
    """A well-formed invocation of one subcommand, with what it computes."""
    if sub == "multiplicity":
        flags, fmt = _fmt_flags(rng, ("text", "json"), out_path)
        dim = rng.randint(1, 3)
        steps_half = log_int(rng.random(), 1, 1200)
        m1 = 2 * rng.randint(0, steps_half // 2) + rng.randint(1, 2)
        parts = _split(rng, steps_half, dim)
        argv = ["multiplicity", "--dim", str(dim)]
        if dim == 1:
            args = {"m": m1, "j": parts[0]}
            argv += ["--m", str(m1), "--j", str(parts[0])]
        elif dim == 2 and rng.random() < 0.5:
            args = {"m1": m1, "m2": rng.randint(0, 20), "j": parts[0], "k": parts[1]}
            argv += ["--m1", str(m1), "--m2", str(args["m2"]), "--j", str(parts[0]), "--k", str(parts[1])]
        elif dim == 2:
            args = {"m1": m1, "j": parts[0], "k": parts[1]}
            argv += ["--m1", str(m1), "--j", str(parts[0]), "--k", str(parts[1])]
        else:
            args = {"m1": m1, "j": parts[0], "k": parts[1], "l": parts[2]}
            argv += ["--m1", str(m1), "--j", str(parts[0]), "--k", str(parts[1]), "--l", str(parts[2])]
        kb = CODATA_KB
        if rng.random() < 0.5:
            kb = log_scale(rng.random(), 0.1, 10.0)
            argv += ["--kb", repr(kb)]
        return argv + flags, {**fmt, "dim": dim, "args": args, "kb": kb}
    if sub == "scan":
        flags, fmt = _fmt_flags(rng, ("csv", "json"), out_path)
        m_values = [rng.randint(1, 20) for _ in range(rng.randint(1, 3))]
        b_min = log_scale(rng.random(), 0.01, 0.5)
        b_max = min(b_min * rng.uniform(1.5, 4.0), 700.0 / max(m_values) ** 2)
        if b_max <= b_min:
            m_values, b_max = [1], b_min * 2.0
        points = rng.randint(2, 30)
        argv = ["scan", "--m-list", ",".join(map(str, m_values)), "--b-min", repr(b_min),
                "--b-max", repr(b_max), "--points", str(points)]
        return argv + flags, {**fmt, "m_values": m_values, "b_min": b_min, "b_max": b_max, "points": points, "tol": 1e-12}
    if sub == "probs":
        flags, fmt = _fmt_flags(rng, ("csv", "json"), out_path)
        m_values = [log_int(rng.random(), 1, 200) for _ in range(rng.randint(1, 4))]
        tol = log_scale(rng.random(), 1e-30, 1e-6)
        argv = ["probs", "--m-list", ",".join(map(str, m_values)), "--tol", repr(tol)]
        j_max = None
        if rng.random() < 0.3:
            j_max = rng.randint(0, 6)
            argv += ["--j-max", str(j_max)]
        return argv + flags, {**fmt, "m_values": m_values, "tol": tol, "j_max": j_max}
    if sub == "paths":
        flags, fmt = _fmt_flags(rng, ("text", "json"), out_path)
        dim = rng.randint(1, 3)
        net = [rng.randint(1, 2) if a == 0 else rng.randint(0, 1) for a in range(dim)]
        total = sum(net) + 2 * rng.randint(0, {1: 3, 2: 1, 3: 1}[dim])
        argv = ["paths", "--dim", str(dim), "--net", ",".join(map(str, net)), "--total", str(total)]
        flips = None
        if rng.random() < 0.3:
            flips = _split(rng, (total - sum(net)) // 2, dim)
            argv += ["--flips", ",".join(map(str, flips))]
        return argv + flags, {**fmt, "dim": dim, "net": net, "total": total, "flips": flips}
    if sub == "ensemble":
        flags, fmt = _fmt_flags(rng, ("text", "json"), out_path)
        m, j = log_int(rng.random(), 1, 5000), rng.choice((0, log_int(rng.random(), 1, 5000)))
        E = log_scale(rng.random(), 0.01, 100.0)
        argv = ["ensemble", "--m", str(m), "--j", str(j), "--E", repr(E)]
        kb = CODATA_KB
        if rng.random() < 0.5:
            kb = log_scale(rng.random(), 0.1, 10.0)
            argv += ["--kb", repr(kb)]
        return argv + flags, {**fmt, "m": m, "j": j, "E": E, "kb": kb}
    if sub == "prob2d":
        flags, fmt = _fmt_flags(rng, ("text", "json"), out_path)
        m1, j, k = log_int(rng.random(), 1, 50), rng.randint(0, 4), rng.randint(0, 4)
        tol = log_scale(rng.random(), 1e-20, 1e-6)
        argv = ["prob2d", "--m1", str(m1), "--j", str(j), "--k", str(k), "--tol", repr(tol)]
        ref = None
        if rng.random() < 0.3:
            ref = log_scale(rng.random(), 0.01, 50.0)
            argv += ["--reference-pct", repr(ref)]
        return argv + flags, {**fmt, "m1": m1, "j": j, "k": k, "tol": tol, "reference_pct": ref}
    flags, fmt = _fmt_flags(rng, ("text", "json"), out_path)
    return ["validate", "--scope", sub[len("validate-"):]] + flags, {**fmt, "sub": "validate", "scope": sub[len("validate-"):]}


# Invocations whose documented outcome is exit code 2 (bad input): argparse
# rejections and library ValidationError / DivergenceError.
BAD_ARGV = (
    ["frobnicate"],
    [],
    ["multiplicity", "--dim", "4", "--m", "1", "--j", "0"],
    ["multiplicity", "--dim", "1", "--m", "2"],
    ["multiplicity", "--dim", "1", "--m", "0", "--j", "1"],
    ["multiplicity", "--dim", "2", "--m1", "1", "--j", "x", "--k", "0"],
    ["multiplicity", "--dim", "3", "--m1", "1", "--j", "0", "--k", "0"],
    ["scan", "--b-min", "0.5", "--b-max", "0.1"],
    ["scan", "--b-min", "0", "--b-max", "1"],
    ["scan", "--m-list", "1,a"],
    ["scan", "--m-list", "0"],
    ["scan", "--points", "1"],
    ["scan", "--format", "xml"],
    ["probs", "--m-list", "0"],
    ["probs", "--m-list", "2", "--tol", "-1"],
    ["probs", "--m-list", "2", "--tol", "nan"],
    ["probs", "--m-list", "2", "--j-max", "-1"],
    ["paths", "--dim", "1", "--net", "2", "--total", "3"],
    ["paths", "--dim", "2", "--net", "1", "--total", "3"],
    ["paths", "--dim", "1", "--net", "1"],
    ["paths", "--dim", "1", "--net", "1", "--total", "3", "--flips", "1,0"],
    ["ensemble", "--m", "2"],
    ["ensemble", "--m", "2", "--j", "1", "--E", "-1"],
    ["ensemble", "--m", "-2", "--j", "1"],
    ["prob2d", "--m1", "0", "--j", "0", "--k", "0"],
    ["prob2d", "--m1", "1", "--j", "-1", "--k", "0"],
    ["validate", "--scope", "everything"],
)


VALIDATE_SCOPES = ("core", "combinatorics", "kernel", "stats", "ensemble")


def gen_cli(rng: random.Random, scale: float, out_dir: str) -> list[Op]:
    ops = []
    # validate --scope all is the costliest call; 22 of them set the tail.
    mix = {"multiplicity": 30, "scan": 16, "probs": 20, "paths": 14, "ensemble": 20, "prob2d": 14,
           "validate-all": 22, **{f"validate-{scope}": 2 for scope in VALIDATE_SCOPES}}
    for sub, count in mix.items():
        for _ in range(max(1, round(count * scale))):
            out_path = f"{out_dir}/out-{len(ops)}.txt"
            argv, expect = _cli_ok(rng, sub, out_path)
            ops.append(Op("cli", (tuple(argv),), "cli", expect={"code": 0, "sub": sub, **expect}))
    for _ in range(max(1, round(40 * scale))):
        argv = list(rng.choice(BAD_ARGV))
        ops.append(Op("cli", (tuple(argv),), "cli", expect={"code": 2, "sub": None, "out": None}))
    for _ in range(max(1, round(4 * scale))):  # enumeration cap: exit 3
        argv = ["paths", "--dim", "2", "--net", "1,1", "--total", "6", "--cap", str(rng.randint(1, 100))]
        ops.append(Op("cli", (tuple(argv),), "cli", expect={"code": 3, "sub": None, "out": None}))
    # D4: bad --digits and an unwritable --out escape as tracebacks (exit 1).
    for _ in range(max(1, round(2 * scale))):
        argv = ["probs", "--m-list", str(rng.randint(1, 50)), "--digits", "-1"]
        ops.append(Op("cli", (tuple(argv),), "cli", defect="D4", expect={"code": 2, "sub": None, "out": None}))
    for _ in range(max(1, round(2 * scale))):
        missing = f"{out_dir}/missing/out-{len(ops)}.csv"
        argv = ["probs", "--m-list", str(rng.randint(1, 50)), "--out", missing]
        ops.append(Op("cli", (tuple(argv),), "cli", defect="D4", expect={"code": "io", "sub": None, "out": missing}))
    # D5: a non-finite tol is accepted and exits 0.
    for _ in range(max(1, round(2 * scale))):
        argv = ["probs", "--m-list", str(rng.randint(1, 50)), "--tol", "inf"]
        ops.append(Op("cli", (tuple(argv),), "cli", defect="D5", expect={"code": 2, "sub": None, "out": None}))
    rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int, scale: float = 1.0, out_dir: str = ".") -> list[Op]:
    """The operation list for one workload and seed; identical for equal inputs."""
    rng = random.Random(f"pathsum-bench:{workload}:{seed}")
    if workload == "cli":
        return gen_cli(rng, scale, out_dir)
    ops = {"tables": gen_tables, "series": gen_series, "counts": gen_counts}[workload](rng, scale)
    rng.shuffle(ops)
    return ops
