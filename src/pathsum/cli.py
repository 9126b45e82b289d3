"""Command-line front end.

Subcommands map one-to-one onto the library surface: multiplicity,
scan, probs, paths, ensemble, prob2d, and validate. Tabular output is
CSV with '#' metadata comments or JSON with one object per row; files
are written atomically (temp file in the target directory, then rename).

Exit codes: 0 success, 1 validation-suite failure or internal
inconsistency, 2 bad arguments or unwritable output, 3 resource cap
exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

# The library modules, and the heavier stdlib ones, are imported by the
# functions that use them, so each subcommand loads only what it runs.
from .core import (
    DEFAULT_ENUMERATION_CAP,
    DivergenceError,
    PathClass1D,
    ResourceCapError,
    ValidationError,
    _require_int,
    _require_kb_product,
    _require_positive,
)

CODATA_KB = 1.380649e-23
# the keys of checks.SCOPES, in order; written out so that parsing needs no checks import
_SCOPES = ("core", "combinatorics", "kernel", "stats", "ensemble")


def _fmt(value, digits: int) -> str:
    """Float formatting: %.Ng below 17 digits, shortest round-trip repr at 17+."""
    if isinstance(value, float):
        return repr(value) if digits >= 17 else f"{value:.{digits}g}"
    return str(value)


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {key: _jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    import tempfile

    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(target), prefix=".pathsum-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _csv_table(columns, rows, comments, digits: int) -> str:
    lines = [f"# {comment}" for comment in comments]
    lines.append(f"# columns: {','.join(columns)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row[col], digits) for col in columns))
    return "\n".join(lines) + "\n"


def _write_json(path: str | None, payload) -> None:
    import json

    _write_text(path, json.dumps(_jsonable(payload), indent=2) + "\n")


def _emit_table(args, columns, rows, comments, meta) -> None:
    if args.format == "json":
        _write_json(args.out, {"rows": rows, "meta": meta})
    else:
        _write_text(args.out, _csv_table(columns, rows, comments, args.digits))


def _emit_report(args, report: dict) -> None:
    """One flat report: a JSON object, or key=value lines with None as NA."""
    if args.format == "json":
        _write_json(args.out, report)
    else:
        lines = [
            f"{key}={'NA' if value is None else _fmt(value, args.digits)}"
            for key, value in report.items()
        ]
        _write_text(args.out, "\n".join(lines) + "\n")


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValidationError(flag, f"expected comma-separated integers, got {text!r}") from None


# per dimension: the first-axis displacement flag, then the backward-step flags
_CLASS_FLAGS = {1: ("m", "j"), 2: ("m1", "j", "k"), 3: ("m1", "j", "k", "l")}


def cmd_multiplicity(args) -> int:
    flags = _CLASS_FLAGS[args.dim]
    missing = [name for name in flags if getattr(args, name) is None]
    if missing:
        raise ValidationError(f"--{missing[0]}", "required for this dimension")
    m, *backward = (getattr(args, name) for name in flags)
    _require_int(flags[0], m, 1)
    # --m2 is the second-axis displacement of a 2D class; other axes net zero
    net = [m] + [0] * (args.dim - 1)
    if args.dim == 2 and args.m2 is not None:
        net[1] = args.m2
    from . import combinatorics

    count = combinatorics.multiplicity(net, backward)
    report = {
        "count": count.exact,
        "log_count": count.log_value,
        "entropy": _require_kb_product(_require_positive("kB", args.kb) * count.log_value),
    }
    _emit_report(args, report)
    return 0


def cmd_scan(args) -> int:
    from . import kernel

    m_values = _parse_int_list(args.m_list, "--m-list")
    rows_raw = kernel.threshold_scan(m_values, args.b_min, args.b_max, args.points, args.tol)
    columns = ["m", "b", "bm", "sum", "limit", "ratio"]
    rows = [
        {
            "m": row.m,
            "b": row.b,
            "bm": row.bm,
            "sum": row.sum_value,
            "limit": row.limit_value,
            "ratio": row.ratio,
        }
        for row in rows_raw
    ]
    comments = [
        f"m_values={','.join(str(m) for m in m_values)}",
        f"b_min={args.b_min} b_max={args.b_max} points={args.points} tol={args.tol}",
    ]
    meta = {"b_min": args.b_min, "b_max": args.b_max, "points": args.points, "tol": args.tol}
    _emit_table(args, columns, rows, comments, meta)
    return 0


def cmd_probs(args) -> int:
    from . import stats

    m_values = _parse_int_list(args.m_list, "--m-list")
    columns = ["m", "j", "probability"]
    rows = []
    comments = [f"tol={args.tol}"]
    meta = {}
    for m in m_values:
        table = stats.probability_1d(m, j_max=args.j_max, tol=args.tol)
        comments.append(
            f"m={m} normalization={_fmt(table.normalization, args.digits)}"
            f" tail_bound={_fmt(table.tail_bound, args.digits)}"
            f" truncated_at={table.truncated_at}"
        )
        meta[str(m)] = {
            "normalization": table.normalization,
            "tail_bound": table.tail_bound,
            "truncated_at": table.truncated_at,
        }
        for entry in table.entries:
            rows.append({"m": m, "j": entry.index[0], "probability": entry.probability})
    _emit_table(args, columns, rows, comments, meta)
    return 0


def cmd_paths(args) -> int:
    from . import combinatorics

    net = tuple(_parse_int_list(args.net, "--net"))
    # the cap is checked from closed-form counts before any walk or DP is formed
    sequences = combinatorics.enumerate_paths(args.dim, net, args.total, cap=args.cap)

    # cross-check the materialized walks against the independent counts
    counts = combinatorics.count_paths_by_flips(args.dim, net, args.total)
    if len(sequences) != sum(counts.values()):
        print(
            f"error: internal count mismatch: {len(sequences)} materialized,"
            f" {sum(counts.values())} counted",
            file=sys.stderr,
        )
        return 1
    for key, count in counts.items():
        closed = combinatorics.multiplicity(net, key).exact
        if closed != count:
            print(
                f"error: internal count mismatch for class {key}:"
                f" closed form {closed}, counted {count}",
                file=sys.stderr,
            )
            return 1

    flips = None
    if args.flips is not None:
        flips = tuple(_parse_int_list(args.flips, "--flips"))
        if len(flips) != args.dim:
            raise ValidationError("--flips", f"needs {args.dim} components")
        sequences = [
            seq for seq in sequences if seq.down_counts(args.dim) == flips
        ]

    labels = "jkl"

    def class_label(key) -> str:
        return ",".join(f"{labels[axis]}={key[axis]}" for axis in range(args.dim))

    shown_keys = [flips] if flips is not None else sorted(counts)
    if args.format == "json":
        payload = {
            "net": list(net),
            "total_steps": args.total,
            "count": len(sequences),
            "classes": {class_label(key): counts[key] for key in shown_keys if key in counts},
            "sequences": [seq.to_text() for seq in sequences],
        }
        _write_json(args.out, payload)
    else:
        lines = [f"count={len(sequences)}"]
        for key in shown_keys:
            if key in counts:
                lines.append(f"class {class_label(key)}: {counts[key]}")
        lines.extend(seq.to_text() for seq in sequences)
        _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_ensemble(args) -> int:
    from . import combinatorics, ensemble

    ens = ensemble.SpinEnsemble1D.from_path_class(PathClass1D(args.m, args.j), args.E)
    entropy = ensemble.ensemble_entropy_large_n(ens, args.kb)
    cosh_form = ensemble.entropy_cosh_form(ens, args.kb)
    moments = ensemble.energy_moments(ens)
    log_count = combinatorics.multiplicity_1d(PathClass1D(args.m, args.j)).log_value

    report: dict[str, object] = {
        "m": args.m,
        "j": args.j,
        "n_spins": ens.n_spins,
        "E": args.E,
        "kB": args.kb,
        "beta": ens.beta,
        "partition": ensemble.partition_1d(ens.beta, ens.E),
        "entropy": entropy,
        "entropy_cosh_form": cosh_form,
        "log_multiplicity": log_count,
        "energy_mean": moments.mean,
        "energy_mean_square": moments.mean_square,
        "energy_variance": moments.variance,
    }
    if args.j > 0:
        report["stirling_relative_difference"] = abs(entropy / args.kb - log_count) / log_count
        if cosh_form <= 0 < entropy:
            report["note"] = (
                "entropy_cosh_form is non-positive; it differs from entropy by"
                " kB*n_spins*ln(2) and is reported for comparison only"
            )
    _emit_report(args, report)
    return 0


def cmd_prob2d(args) -> int:
    _require_int("j", args.j, 0)
    _require_int("k", args.k, 0)
    if args.reference_pct is not None:
        _require_positive("reference_pct", args.reference_pct)
    from decimal import Decimal

    from . import stats

    table = stats.probability_2d(args.m1, tol=args.tol, min_diagonal=args.j + args.k)
    entry = next(e for e in table.entries if e.index == (args.j, args.k))
    prob = entry.probability

    report: dict[str, object] = {
        "m1": args.m1,
        "j": args.j,
        "k": args.k,
        # Decimal(int) prints every digit, past the int -> str digit limit
        "weight": f"{Decimal(entry.weight.numerator)}/{Decimal(entry.weight.denominator)}",
        "probability": prob,
        "percent": 100.0 * prob,
        "normalization": table.normalization,
        "tail_bound": table.tail_bound,
        "truncated_at_diagonal": table.truncated_at,
    }
    if args.reference_pct is not None:
        report["reference_percent"] = args.reference_pct
        ratio = (100.0 * prob) / args.reference_pct
        if ratio == math.inf:
            raise ValidationError("reference_pct", f"the ratio to {args.reference_pct!r} overflows")
        report["ratio_vs_reference"] = ratio
    _emit_report(args, report)
    return 0


def cmd_validate(args) -> int:
    from . import checks

    scopes = _SCOPES if args.scope == "all" else [args.scope]
    results = [(scope, check) for scope in scopes for check in checks.SCOPES[scope]()]
    all_passed = all(check.passed for _, check in results)
    if args.format == "json":
        rows = [{"scope": scope, **check._asdict()} for scope, check in results]
        _write_json(args.out, {"scope": args.scope, "all_passed": all_passed, "checks": rows})
    else:
        lines = [
            f"{'PASS' if check.passed else 'FAIL'} {scope}.{check.name}"
            f" measured={_fmt(check.measured, args.digits)}"
            f" tolerance={_fmt(check.tolerance, args.digits)}"
            for scope, check in results
        ]
        lines.append(f"all_passed={all_passed}")
        _write_text(args.out, "\n".join(lines) + "\n")
    for scope, check in results:
        if not check.passed:
            print(f"validation failed: {scope}.{check.name}", file=sys.stderr)
    return 0 if all_passed else 1


def _digits(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _add_common(parser, formats) -> None:
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument("--format", choices=formats, default=formats[0], help="output format")
    parser.add_argument(
        "--digits", type=_digits, default=15,
        help="printed float precision; 17 or more round-trips exactly",
    )


_REPORT, _TABLE = ("text", "json"), ("csv", "json")  # --format choices

# Per subcommand: its help, its --format choices (the first is the default),
# and its own arguments as (flag, add_argument keywords) pairs.
_SUBCOMMANDS = {
    "multiplicity": ("count walks in one path class", _REPORT, (
        ("--dim", dict(type=int, choices=(1, 2, 3), default=1)),
        ("--m", dict(type=int, default=None, help="1D net displacement")),
        ("--m1", dict(type=int, default=None, help="first-axis net displacement")),
        ("--m2", dict(type=int, default=None, help="second-axis net displacement (2D full)")),
        ("--j", dict(type=int, default=None, help="backward steps on the net axis")),
        ("--k", dict(type=int, default=None, help="transverse round trips")),
        ("--l", dict(type=int, default=None, help="second transverse round trips (3D)")),
        ("--kb", dict(type=float, default=CODATA_KB, help="Boltzmann constant")),
    )),
    "scan": ("sum/limit ratio over a grid of b values", _TABLE, (
        ("--m-list", dict(default="1,2,3", help="comma-separated net displacements")),
        ("--b-min", dict(type=float, default=0.01)),
        ("--b-max", dict(type=float, default=2.0)),
        ("--points", dict(type=int, default=200)),
        ("--tol", dict(type=float, default=1e-12)),
    )),
    "probs": ("normalized class probabilities per m", _TABLE, (
        ("--m-list", dict(default="2,5,10,50,100")),
        ("--j-max", dict(type=int, default=None)),
        ("--tol", dict(type=float, default=1e-12)),
    )),
    "paths": ("enumerate the walks of a class explicitly", _REPORT, (
        ("--dim", dict(type=int, choices=(1, 2, 3), required=True)),
        ("--net", dict(required=True, help="comma-separated net displacement")),
        ("--total", dict(type=int, required=True, help="total step count")),
        ("--cap", dict(type=int, default=DEFAULT_ENUMERATION_CAP)),
        ("--flips", dict(default=None, help="only this backward-step class, e.g. 1,0")),
    )),
    "ensemble": ("two-level ensemble report for a 1D class", _REPORT, (
        ("--m", dict(type=int, required=True)),
        ("--j", dict(type=int, required=True)),
        ("--E", dict(type=float, default=1.0, help="level spacing")),
        ("--kb", dict(type=float, default=CODATA_KB, help="Boltzmann constant")),
    )),
    "prob2d": ("probability of one 2D class with tail bound", _REPORT, (
        ("--m1", dict(type=int, required=True)),
        ("--j", dict(type=int, required=True)),
        ("--k", dict(type=int, required=True)),
        ("--tol", dict(type=float, default=1e-12)),
        ("--reference-pct", dict(
            type=float, default=None,
            help="externally reported percent value to compare against",
        )),
    )),
    "validate": ("run the built-in consistency checks", _REPORT, (
        ("--scope", dict(choices=["all", *_SCOPES], default="all")),
    )),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The CLI parser for argv. Every subcommand is registered with its help,
    so usage and errors never depend on argv, but only the one argv[0] names
    (all of them when it names none) gets its arguments: argparse reaches no
    other."""
    parser = argparse.ArgumentParser(
        prog="pathsum",
        description="Lattice path-class counts, kernel sums, probabilities, ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    for name, (help_text, formats, arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        # looked up per call, so a rebound cmd_* function is the one run
        p.set_defaults(func=globals()[f"cmd_{name}"])
        if named in (None, name):
            for flag, options in arguments:
                p.add_argument(flag, **options)
            _add_common(p, formats)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, DivergenceError) as exc:
        print(f"error: invalid argument ({exc})", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"error: resource cap exceeded ({exc})", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write output ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
