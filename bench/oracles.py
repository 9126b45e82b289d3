"""Independent checks for every benchmark operation, run outside the timed region.

Each checker takes the operation, the runner's result and a per-operation
cache dict (kept across passes, so an expensive reference is computed once)
and returns None when the result is right, or a one-line reason when not.
The references never go through the code path under test:

* tables: exact weights 1/multinomial from ``math.comb``, compared as
  integers; the certified tail bound against the real remainder.
* series: a direct sum in 128-bit fixed point, seeded by mpmath
  exponentials, must lie in [value, value + truncation_bound] up to the
  roundoff of the float evaluation.
* counts: closed forms from ``math.comb`` and mpmath log-gamma; the
  Stirling gap within the tolerance ``pathsum validate`` uses.
* cli: exit code within the documented contract, no traceback, and the
  parsed output equal to the library's own result.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import mpmath

from pathsum import combinatorics, core, ensemble, kernel, stats
from workloads import EXIT_CODES, CliRun, Raised

EPS = 2.0**-52
TINY = 2.0**-1074  # smallest subnormal: the absolute roundoff floor near underflow
STIRLING_TOL_1D = 0.01  # tolerances of validate's stirling_entropy_1d / _2d checks
STIRLING_TOL_2D = 0.02


def check(op, result, cache: dict) -> str | None:
    """Reason the operation failed its oracle, or None when it passed."""
    if isinstance(result, Raised):
        return f"raised {type(result.exc).__name__}: {result.exc}"
    try:
        return CHECKS[op.kind](op, result, cache)
    except Exception as exc:  # noqa: BLE001 - malformed output is a failed operation
        return f"result could not be checked: {type(exc).__name__}: {exc}"


def close(value: float, ref, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(mpmath.mpf(value) - ref) <= rel * abs(ref) + abs_tol


# ---------------------------------------------------------------- tables


def den_1d(m: int, j: int) -> int:
    return math.comb(m + 2 * j, j)


def den_2d(m1: int, j: int, k: int) -> int:
    steps = m1 + 2 * j + 2 * k
    return math.comb(steps, 2 * k) * math.comb(2 * k, k) * math.comb(m1 + 2 * j, j)


def _classes_2d(last_diagonal: int):
    for n in range(last_diagonal + 1):
        for j in range(n + 1):
            yield (j, n - j)


def _remainder(diagonal_sums) -> float:
    """Sum of a fast-decaying series of floats, stopped once terms are negligible."""
    total = 0.0
    for term in diagonal_sums:
        total += term
        if term == 0.0 or term < total * 1e-18:
            return total
    return total


def check_table(op, table, cache) -> str | None:
    two_d = op.kind == "p2d"
    m = op.args[0]
    tol = op.args[1]
    j_max = None if two_d else op.args[2]
    last = table.truncated_at
    if table.m != m:
        return f"table.m={table.m}, expected {m}"
    if two_d:
        indices = list(_classes_2d(last))
        dens = [den_2d(m, j, k) for j, k in indices]
    else:
        indices = [(j,) for j in range(last + 1)]
        dens = [den_1d(m, j) for j in range(last + 1)]
    if [e.index for e in table.entries] != indices:
        return f"classes are not 0..{last} in order"
    for entry, den in zip(table.entries, dens):
        w = entry.weight
        if not isinstance(w, Fraction) or w.numerator != 1 or w.denominator != den:
            return f"weight of class {entry.index} is {w}, expected 1/{den}"
    weights = [1 / den for den in dens]
    z = math.fsum(weights)
    if abs(table.normalization - z) > 1e-15 * z or float(table.normalization_exact) != table.normalization:
        return f"normalization {table.normalization!r}, expected {z!r}"
    for entry, w in zip(table.entries, weights):
        p = entry.probability
        if w > 1e-290 and abs(p - w / z) > 1e-15 * (w / z):
            return f"probability of class {entry.index} is {p!r}, expected {w / z!r}"
        if w <= 1e-290 and not 0.0 <= p <= 1e-280:
            return f"probability of class {entry.index} is {p!r}, expected below 1e-280"
    if abs(math.fsum(e.probability for e in table.entries) - 1.0) > table.tail_bound + 1e-12:
        return "probabilities do not sum to 1 within tail_bound"
    converged = table.tail_bound <= tol * (1 + 1e-9)
    if j_max is not None and last > j_max:
        return f"truncated_at={last} beyond j_max={j_max}"
    if not converged and (j_max is None or last < j_max):
        return f"stopped at {last} with tail_bound={table.tail_bound!r} above tol={tol!r}"
    if two_d:
        rest = _remainder(
            math.fsum(1 / den_2d(m, j, n - j) for j in range(n + 1)) for n in range(last + 1, last + 400)
        )
    else:
        rest = _remainder(1 / den_1d(m, j) for j in range(last + 1, last + 400))
    if rest / z > table.tail_bound * (1 + 1e-9):
        return f"omitted mass {rest / z!r} exceeds tail_bound {table.tail_bound!r}"
    return None


def check_moments(op, triple, cache) -> str | None:
    m, j, dx = op.args
    steps = m + 2 * j
    want = (m * dx, steps * steps * dx * dx, (steps * steps - m * m) * dx * dx)
    got = (triple.mean, triple.mean_square, triple.variance)
    if got != want or not all(isinstance(v, Fraction) for v in got):
        return f"moments {got}, expected {want}"
    return None


# ---------------------------------------------------------------- series

FIXED_BITS = 128  # ~38 decimal digits


def direct_sum(b: float, m: int, weighted: bool):
    """sum_{n>=0} w_n exp(-b (m+2n)^2), w_n = n+1 if weighted else 1, term by term.

    Terms relative to the first are exp(-4 b n (m+n)); their ratio
    exp(-4b(m+2n+1)) shrinks by exp(-8b) per step, so the sum runs on exact
    integer fixed point with three mpmath exponentials as seeds. Summation
    stops once a term falls below 2^-100 of the partial sum, where the
    omitted tail is far below the float roundoff being tested.
    """
    with mpmath.workprec(FIXED_BITS + 64):
        big_b = mpmath.mpf(b)
        head = mpmath.exp(-big_b * m * m)
        ratio = int(mpmath.exp(-4 * big_b * (m + 1)) * 2**FIXED_BITS)
        step = int(mpmath.exp(-8 * big_b) * 2**FIXED_BITS)
    u = 1 << FIXED_BITS
    total = 0
    n = 1
    while True:
        term = n * u if weighted else u
        total += term
        if term < total >> 100:
            break
        u = (u * ratio) >> FIXED_BITS
        ratio = (ratio * step) >> FIXED_BITS
        n += 1
    with mpmath.workprec(FIXED_BITS + 64):
        return head * mpmath.mpf(total) / 2**FIXED_BITS


def roundoff(ref, b: float, m: int, terms: int):
    """Float evaluation error allowed around a series reference.

    Each term exp(-b n^2) is computed from the product b * n^2, whose
    rounding shifts the exponent by up to its size times eps; terms near
    the subnormal range lose absolute precision.
    """
    return 8 * EPS * (1 + b * m * m) * ref + 4 * (terms + 1) * TINY


def check_certified(res, ref, b, m, tol) -> str | None:
    value, bound = res.value, res.truncation_bound
    if not (math.isfinite(value) and math.isfinite(bound) and value >= 0 and bound >= 0):
        return f"value={value!r} bound={bound!r} not finite and non-negative"
    if bound > tol * value * (1 + 1e-9):
        return f"bound {bound!r} exceeds tol * value {tol * value!r}"
    slack = roundoff(ref, b, m, res.terms_used)
    lo = mpmath.mpf(value) - slack
    hi = mpmath.mpf(value) + mpmath.mpf(bound) + slack
    if not lo <= ref <= hi:
        return f"reference {mpmath.nstr(ref, 20)} outside [value, value + bound] = [{value!r}, {value + bound!r}]"
    return None


def check_k(op, res, cache) -> str | None:
    b, m = op.args
    if "ref" not in cache:
        cache["ref"] = direct_sum(b, m, weighted=op.kind == "k2d")
    return check_certified(res, cache["ref"], b, m, 1e-12)


def check_scan(op, rows, cache) -> str | None:
    m_values, b_min, b_max, points = op.args
    tol = 1e-12
    if len(rows) != len(m_values) * points:
        return f"{len(rows)} rows, expected {len(m_values) * points}"
    refs = cache.setdefault("refs", {})
    for idx, row in enumerate(rows):
        m, i = m_values[idx // points], idx % points
        if row.m != m:
            return f"row {idx} has m={row.m}, expected {m}"
        exact_b = (mpmath.mpf(b_min) * (points - 1 - i) + mpmath.mpf(b_max) * i) / (points - 1)
        if not close(row.b, exact_b, 4 * EPS):
            return f"row {idx} has b={row.b!r}, expected {mpmath.nstr(exact_b, 17)}"
        if (row.b, m) not in refs:
            refs[(row.b, m)] = direct_sum(row.b, m, weighted=False)
        ref = refs[(row.b, m)]
        slack = roundoff(ref, row.b, m, row.terms_used)
        if not row.sum_value - slack <= ref <= row.sum_value * (1 + tol) + slack:
            return f"row {idx} sum {row.sum_value!r} does not bracket reference {mpmath.nstr(ref, 20)}"
        with mpmath.workprec(120):
            limit = mpmath.exp(-mpmath.mpf(row.b) * m * m)
        if not close(row.limit_value, limit, roundoff(1, row.b, m, 0), 2 * TINY):
            return f"row {idx} limit {row.limit_value!r}, expected {mpmath.nstr(limit, 17)}"
        if not row.ratio >= 1.0:
            return f"row {idx} ratio {row.ratio!r} below 1"
        if row.limit_value > 1e-300 and abs(row.ratio - row.sum_value / row.limit_value) > 4 * EPS * row.ratio:
            return f"row {idx} ratio {row.ratio!r} is not sum/limit"
        if i > 0 and row.ratio > rows[idx - 1].ratio + 1e-15:
            return f"row {idx} ratio increases with b"
    return None


def check_norm(op, value, cache) -> str | None:
    # The integrand is a normalized Gaussian over +-12 sigma; its exact
    # integral there is erf(12/sqrt(2)). The docstring promises 1e-9.
    ref = mpmath.erf(12 / mpmath.sqrt(2))
    if not close(value, ref, 0.0, 1e-9):
        return f"normalization {value!r}, expected {mpmath.nstr(ref, 17)} within 1e-9"
    return None


def check_heat(op, value, cache) -> str | None:
    M, hbar, x, t, h = op.args
    with mpmath.workdps(50):
        var = lambda tt: mpmath.mpf(hbar) * tt / M  # noqa: E731
        k = lambda xx, tt: mpmath.exp(-xx * xx / (2 * var(tt))) / mpmath.sqrt(2 * mpmath.pi * var(tt))  # noqa: E731
        X, T, H = mpmath.mpf(x), mpmath.mpf(t), mpmath.mpf(h)
        diffusivity = mpmath.mpf(hbar) / (2 * M)
        d_t = (k(X, T + H) - k(X, T - H)) / (2 * H)
        d_xx = (k(X + H, T) - 2 * k(X, T) + k(X - H, T)) / (H * H)
        ref = abs(d_t - diffusivity * d_xx)
        peak = 1 / mpmath.sqrt(2 * mpmath.pi * var(T - H))
        # central differences of values known to eps * peak
        slack = 16 * EPS * peak * (1 / H + 4 * diffusivity / (H * H))
    if not close(value, ref, 0.0, slack):
        return f"residual {value!r}, expected {mpmath.nstr(ref, 17)} within {mpmath.nstr(slack, 3)}"
    return None


# ---------------------------------------------------------------- counts


def multinomial(parts) -> int:
    """sum(parts)! / prod(part!) as a chain of binomials."""
    count, seen = 1, 0
    for p in parts:
        seen += p
        count *= math.comb(seen, p)
    return count


def log_multinomial(parts):
    with mpmath.workdps(30):
        return mpmath.loggamma(sum(parts) + 1) - mpmath.fsum(mpmath.loggamma(p + 1) for p in parts)


def count_parts(op) -> tuple[int, ...]:
    a = op.args
    if op.kind == "mult1d":
        m, j = a
        return (m + j, j)
    if op.kind == "mult2d_full":
        m1, m2, j, k = a
        return (m1 + j, j, m2 + k, k)
    if op.kind == "mult2d_rot":
        m1, j, k = a
        return (m1 + j, j, k, k)
    if op.kind == "mult3d":
        m1, j, k, l = a
        return (m1 + j, j, k, k, l, l)
    return a  # mindist: (m1, m2)


def check_count(op, count, cache) -> str | None:
    parts = count_parts(op)
    steps = sum(parts)
    if steps <= combinatorics.EXACT_STEP_LIMIT:
        if "exact" not in cache:
            cache["exact"] = multinomial(parts)
        want = cache["exact"]
        if count.exact != want:
            return f"exact count {count.exact}, expected {want}"
        if not math.isclose(count.log_value, math.log(want), rel_tol=1e-14, abs_tol=1e-14):
            return f"log count {count.log_value!r}, expected {math.log(want)!r}"
        return None
    if count.exact is not None and count.exact != multinomial(parts):
        return "exact count past the step limit is wrong"
    if "log" not in cache:
        cache["log"] = log_multinomial(parts)
    scale = 16 * EPS * (math.lgamma(steps + 1) + sum(math.lgamma(p + 1) for p in parts)) + 1e-12
    if not close(count.log_value, cache["log"], 0.0, scale):
        return f"log count {count.log_value!r}, expected {mpmath.nstr(cache['log'], 20)}"
    return None


def class_counts(dim: int, net, total: int) -> dict:
    """Closed-form count of every backward-step class reaching net in total steps."""
    spare = (total - sum(net)) // 2
    out = {}

    def split(left, prefix):
        if len(prefix) == dim - 1:
            key = (*prefix, left)
            out[key] = multinomial([p for a in range(dim) for p in (net[a] + key[a], key[a])])
            return
        for first in range(left + 1):
            split(left - first, (*prefix, first))

    split(spare, ())
    return out


def check_flips(op, counts, cache) -> str | None:
    if "want" not in cache:
        cache["want"] = class_counts(*op.args)
    if counts != cache["want"]:
        return "class counts differ from the closed forms"
    return None


MOVES = {(axis, sign): 2 * axis + (sign < 0) for axis in range(3) for sign in (1, -1)}


def check_enum(op, seqs, cache) -> str | None:
    dim, net, total = op.args
    if "want" not in cache:
        cache["want"] = sum(class_counts(dim, net, total).values())
    if len(seqs) != cache["want"]:
        return f"{len(seqs)} walks, expected {cache['want']}"
    previous = None
    for seq in seqs:
        key = tuple(MOVES[step] for step in seq.steps)
        if len(key) != total or seq.net(dim) != tuple(net):
            return f"walk {seq.to_text()} does not reach {net} in {total} steps"
        if previous is not None and key <= previous:
            return "walks are not distinct and in the fixed move order"
        previous = key
    return None


def beta_tol(m: int, j: int) -> float:
    """Relative roundoff of log((m+j)/j): the rounded ratio, amplified by 1/log(ratio)."""
    return 4 * EPS * (1 + 1 / math.log1p(m / j))


def stirling_gap(entropy: float, log_w: float) -> float:
    return abs(entropy - log_w) / log_w


def check_ens1d(op, result, cache) -> str | None:
    m, j, E = op.args
    ens, closed, canonical, magnet, log_w = result
    steps = m + 2 * j
    if "ref" not in cache:
        with mpmath.workdps(30):
            beta = mpmath.log(mpmath.mpf(m + j) / j) / (2 * mpmath.mpf(E))
            p = mpmath.mpf(m + j) / steps
            entropy = -steps * (p * mpmath.log(p) + (1 - p) * mpmath.log(1 - p))
        cache["ref"] = beta, entropy, log_multinomial((m + j, j))
    beta, entropy, ref_log_w = cache["ref"]
    if (ens.m, ens.j, ens.E) != (m, j, E) or not close(ens.beta, beta, beta_tol(m, j)):
        return f"beta {ens.beta!r}, expected {mpmath.nstr(beta, 17)}"
    if not close(closed, entropy, 1e-11) or not close(canonical, entropy, 1e-11):
        return f"entropies {closed!r} / {canonical!r}, expected {mpmath.nstr(entropy, 17)}"
    if abs(magnet - m / steps) > 1e-13:
        return f"magnetization {magnet!r}, expected m/N = {m / steps!r}"
    if not close(log_w, ref_log_w, 0.0, 1e-6):
        return f"log W {log_w!r}, expected {mpmath.nstr(ref_log_w, 17)}"
    if stirling_gap(closed, log_w) > STIRLING_TOL_1D:
        return f"Stirling gap {stirling_gap(closed, log_w)!r} above {STIRLING_TOL_1D}"
    return None


def check_ens2d(op, result, cache) -> str | None:
    m1, j, k, E1, E2 = op.args
    ens, entropy, log_z, balanced, log_w = result
    n1, n2 = m1 + 2 * j, 2 * k
    if "ref" not in cache:
        with mpmath.workdps(30):
            beta1 = mpmath.log(mpmath.mpf(m1 + j) / j) / (2 * mpmath.mpf(E1))
            p = mpmath.mpf(m1 + j) / n1
            s1 = -n1 * (p * mpmath.log(p) + (1 - p) * mpmath.log(1 - p))
            mixing = n2 * mpmath.log1p(mpmath.mpf(n1) / n2) + n1 * mpmath.log1p(mpmath.mpf(n2) / n1)
            s2 = s1 + n2 * mpmath.log(2) + mixing
            z = n1 * mpmath.log(2 * mpmath.cosh(beta1 * E1)) + n2 * mpmath.log(2) + mixing
        cache["ref"] = beta1, s2, z, log_multinomial((m1 + j, j, k, k))
    beta1, s2, z, ref_log_w = cache["ref"]
    if not close(ens.beta1, beta1, beta_tol(m1, j)) or ens.beta2 != 0.0:
        return f"betas {ens.beta1!r}, {ens.beta2!r}, expected {mpmath.nstr(beta1, 17)}, 0"
    if not close(entropy, s2, 1e-11):
        return f"entropy {entropy!r}, expected {mpmath.nstr(s2, 17)}"
    if not close(log_z, z, 1e-11):
        return f"log partition {log_z!r}, expected {mpmath.nstr(z, 17)}"
    if balanced is not True:
        return "transverse species reported unbalanced"
    if not close(log_w, ref_log_w, 0.0, 1e-6):
        return f"log W {log_w!r}, expected {mpmath.nstr(ref_log_w, 17)}"
    if stirling_gap(entropy, log_w) > STIRLING_TOL_2D:
        return f"Stirling gap {stirling_gap(entropy, log_w)!r} above {STIRLING_TOL_2D}"
    return None


# ---------------------------------------------------------------- cli


def same(shown, lib, fmt: str, digits: int) -> bool:
    """Whether a printed value equals the library value at the printed precision."""
    if isinstance(lib, bool) or lib is None or isinstance(lib, str):
        return shown == lib if fmt == "json" else str(shown) == str(lib)
    if isinstance(lib, int):
        return int(shown) == lib
    if not math.isfinite(lib):
        return shown == repr(lib)
    value = float(shown)
    if fmt == "json" or digits >= 17:
        return value == lib
    return abs(value - lib) <= 10.0 ** (1 - digits) * abs(lib)


def _compare(fields: dict, want: dict, fmt: str, digits: int) -> str | None:
    for key, lib in want.items():
        if key not in fields:
            return f"output lacks {key}"
        if not same(fields[key], lib, fmt, digits):
            return f"{key}={fields[key]!r}, library gives {lib!r}"
    return None


def _key_values(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if line)


def _csv_rows(text: str) -> tuple[list[str], list[dict]]:
    lines = text.splitlines()
    comments = [line[2:] for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    header = body[0].split(",")
    return comments, [dict(zip(header, line.split(","))) for line in body[1:]]


def _table_rows(text: str, fmt: str):
    if fmt == "json":
        payload = json.loads(text)
        return payload["meta"], payload["rows"]
    return _csv_rows(text)


def cli_reference(exp: dict):
    """What the library computes for a well-formed invocation."""
    sub = exp["sub"]
    if sub == "multiplicity":
        a = exp["args"]
        if exp["dim"] == 1:
            count = combinatorics.multiplicity_1d(core.PathClass1D(a["m"], a["j"]))
        elif "m2" in a:
            count = combinatorics.multiplicity_2d_full(a["m1"], a["m2"], a["j"], a["k"])
        elif exp["dim"] == 2:
            count = combinatorics.multiplicity_2d_rotated(core.PathClassND(a["m1"], a["j"], a["k"]))
        else:
            count = combinatorics.multiplicity_3d(core.PathClassND(a["m1"], a["j"], a["k"], a["l"]))
        return {"count": count.exact, "log_count": count.log_value, "entropy": exp["kb"] * count.log_value}
    if sub == "scan":
        rows = kernel.threshold_scan(exp["m_values"], exp["b_min"], exp["b_max"], exp["points"], exp["tol"])
        return [{"m": r.m, "b": r.b, "bm": r.bm, "sum": r.sum_value, "limit": r.limit_value, "ratio": r.ratio} for r in rows]
    if sub == "probs":
        return [(m, stats.probability_1d(m, j_max=exp["j_max"], tol=exp["tol"])) for m in exp["m_values"]]
    if sub == "paths":
        counts = combinatorics.count_paths_by_flips(exp["dim"], exp["net"], exp["total"])
        seqs = combinatorics.enumerate_paths(exp["dim"], exp["net"], exp["total"])
        if exp["flips"] is not None:
            seqs = [s for s in seqs if s.down_counts(exp["dim"]) == tuple(exp["flips"])]
        return counts, [s.to_text() for s in seqs]
    if sub == "ensemble":
        cls = core.PathClass1D(exp["m"], exp["j"])
        ens = ensemble.SpinEnsemble1D.from_path_class(cls, exp["E"])
        moments = ensemble.energy_moments(ens)
        return {
            "m": exp["m"], "j": exp["j"], "n_spins": ens.n_spins, "E": exp["E"], "kB": exp["kb"],
            "beta": ens.beta, "partition": ensemble.partition_1d(ens.beta, ens.E),
            "entropy": ensemble.ensemble_entropy_large_n(ens, exp["kb"]),
            "entropy_cosh_form": ensemble.entropy_cosh_form(ens, exp["kb"]),
            "log_multiplicity": combinatorics.multiplicity_1d(cls).log_value,
            "energy_mean": moments.mean, "energy_mean_square": moments.mean_square,
            "energy_variance": moments.variance,
        }
    if sub == "prob2d":
        table = stats.probability_2d(exp["m1"], tol=exp["tol"], min_diagonal=exp["j"] + exp["k"])
        entry = next(e for e in table.entries if e.index == (exp["j"], exp["k"]))
        want = {
            "m1": exp["m1"], "j": exp["j"], "k": exp["k"],
            "weight": f"{entry.weight.numerator}/{entry.weight.denominator}",
            "probability": entry.probability, "percent": 100.0 * entry.probability,
            "normalization": table.normalization, "tail_bound": table.tail_bound,
            "truncated_at_diagonal": table.truncated_at,
        }
        if exp["reference_pct"] is not None:
            want["reference_percent"] = exp["reference_pct"]
            want["ratio_vs_reference"] = 100.0 * entry.probability / exp["reference_pct"]
        return want
    return None  # validate: every built-in check must pass


def check_cli_output(exp: dict, text: str, ref) -> str | None:
    sub, fmt, digits = exp["sub"], exp["format"], exp["digits"]
    if sub in ("multiplicity", "ensemble", "prob2d"):
        fields = json.loads(text) if fmt == "json" else _key_values(text)
        want = dict(ref)
        if sub == "multiplicity" and fmt != "json" and want["count"] is None:
            want["count"] = "NA"
        return _compare(fields, want, fmt, digits)
    if sub == "scan":
        _, rows = _table_rows(text, fmt)
        if len(rows) != len(ref):
            return f"{len(rows)} rows, library gives {len(ref)}"
        for row, want in zip(rows, ref):
            reason = _compare(row, want, fmt, digits)
            if reason:
                return reason
        return None
    if sub == "probs":
        meta, rows = _table_rows(text, fmt)
        want_rows = [
            {"m": m, "j": e.index[0], "probability": e.probability} for m, t in ref for e in t.entries
        ]
        if len(rows) != len(want_rows):
            return f"{len(rows)} rows, library gives {len(want_rows)}"
        for row, want in zip(rows, want_rows):
            reason = _compare(row, want, fmt, digits)
            if reason:
                return reason
        for m, table in ref:
            want = {"normalization": table.normalization, "tail_bound": table.tail_bound, "truncated_at": table.truncated_at}
            if fmt == "json":
                reason = _compare(meta[str(m)], want, fmt, digits)
            else:
                line = next(c for c in meta if c.startswith(f"m={m} "))
                reason = _compare(dict(p.split("=", 1) for p in line.split()), want, fmt, digits)
            if reason:
                return reason
        return None
    if sub == "paths":
        counts, seqs = ref
        labels = "jkl"
        dim, flips = exp["dim"], exp["flips"]
        keys = [tuple(flips)] if flips is not None else sorted(counts)
        classes = {",".join(f"{labels[a]}={key[a]}" for a in range(dim)): counts[key] for key in keys if key in counts}
        if fmt == "json":
            payload = json.loads(text)
            got = (payload["count"], payload["classes"], payload["sequences"], payload["net"], payload["total_steps"])
            want = (len(seqs), classes, seqs, exp["net"], exp["total"])
            return None if got == want else "paths report differs from the library"
        want_lines = [f"count={len(seqs)}", *(f"class {k}: {v}" for k, v in classes.items()), *seqs]
        return None if text.splitlines() == want_lines else "paths report differs from the library"
    # validate
    if fmt == "json":
        payload = json.loads(text)
        ok = payload["all_passed"] is True and payload["checks"] and all(c["passed"] for c in payload["checks"])
        return None if ok and payload["scope"] == exp["scope"] else "validate reports a failed check"
    lines = text.splitlines()
    ok = lines and lines[-1] == "all_passed=True" and all(line.startswith("PASS ") for line in lines[:-1])
    return None if ok else "validate reports a failed check"


def check_cli(op, run: CliRun, cache) -> str | None:
    exp = op.expect
    out_path = exp.get("out")
    written = None
    if out_path is not None:
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as handle:
                written = handle.read()
            os.unlink(out_path)
        folder = os.path.dirname(out_path)
        if os.path.isdir(folder) and any(n.startswith(".pathsum-") for n in os.listdir(folder)):
            return "--out left a temporary file behind"
    # run.measure sums these per pass into cli.bytes_out
    cache["bytes"] = len(run.out.encode()) + len(run.err.encode()) + len((written or "").encode())
    if run.exc is not None:
        return f"traceback: {type(run.exc).__name__}: {run.exc}"
    code = 0 if run.code is None else run.code
    if code not in EXIT_CODES:
        return f"exit code {code!r} outside the documented set {EXIT_CODES}"
    if exp["code"] == "io":  # an unwritable --out: some documented failure code
        if code == 0 or written is not None:
            return f"unwritable --out gave exit {code}"
        return None
    if code != exp["code"]:
        return f"exit {code}, documented {exp['code']}: {run.err.strip()[-200:]}"
    if code != 0:
        return None if run.err and not run.out else "error exit without a message on stderr only"
    if out_path is not None:
        if written is None or run.out:
            return "--out did not receive the output"
        text = written
    else:
        text = run.out
    if "ref" not in cache:
        cache["ref"] = cli_reference(exp)
    return check_cli_output(exp, text, cache["ref"])


CHECKS = {
    "p1d": check_table,
    "p2d": check_table,
    "moments": check_moments,
    "k1d": check_k,
    "k2d": check_k,
    "scan": check_scan,
    "norm": check_norm,
    "heat": check_heat,
    "mult1d": check_count,
    "mult2d_full": check_count,
    "mult2d_rot": check_count,
    "mult3d": check_count,
    "mindist": check_count,
    "flips": check_flips,
    "enum": check_enum,
    "ens1d": check_ens1d,
    "ens2d": check_ens2d,
    "cli": check_cli,
}
