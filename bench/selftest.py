"""Self-test of the benchmark: its checkers must catch wrong results.

Feeds deliberately corrupted results to the oracles and asserts that each
one counts as a failed operation, while the uncorrupted result passes:
a kernel value shifted by twice its bound, a weight whose denominator is
off by one, a tail bound too small for the omitted mass, an exact count
off by one, and CLI runs with a wrong exit code or a traceback. Then it
runs every workload on a tiny budget (``run.py --smoke``).

Run from the root of a checkout:

    python3 bench/selftest.py

Exit status 0 means every injected error was caught and the smoke run
saw no failure other than the known defects.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction

import run

run.load_pathsum()

import oracles  # noqa: E402 - needs pathsum on the path first
from workloads import CODATA_KB, Op, execute  # noqa: E402


def verdict(label: str, op: Op, result, should_fail: bool) -> bool:
    reason = oracles.check(op, result, {})
    caught = reason is not None
    good = caught == should_fail
    status = "ok  " if good else "FAIL"
    print(f"{status} {label}: {'failed: ' + reason if caught else 'passed'}")
    return good


def with_weight(table, idx: int, weight: Fraction):
    entries = list(table.entries)
    entries[idx] = dataclasses.replace(entries[idx], weight=weight)
    return dataclasses.replace(table, entries=tuple(entries))


def kernel_cases() -> list[bool]:
    results = []
    for kind, args in (("k1d", (1e-6, 3)), ("k2d", (2e-5, 1))):
        op = Op(kind, args, "kernel")
        res = execute(op)
        shift = 2 * res.truncation_bound
        results += [
            verdict(f"{kind} as computed", op, res, False),
            verdict(f"{kind} value + 2*bound", op, dataclasses.replace(res, value=res.value + shift), True),
            verdict(f"{kind} value - 2*bound", op, dataclasses.replace(res, value=res.value - shift), True),
        ]
    return results


def table_cases() -> list[bool]:
    results = []
    for kind, args, idx in (("p1d", (5, 1e-20, None), 2), ("p2d", (3, 1e-10), 4)):
        op = Op(kind, args, "stats")
        table = execute(op)
        w = table.entries[idx].weight
        results += [
            verdict(f"{kind} as computed", op, table, False),
            verdict(f"{kind} denominator + 1", op, with_weight(table, idx, Fraction(1, w.denominator + 1)), True),
            verdict(f"{kind} denominator - 1", op, with_weight(table, idx, Fraction(1, w.denominator - 1)), True),
            verdict(f"{kind} tail_bound / 1e6", op, dataclasses.replace(table, tail_bound=table.tail_bound / 1e6), True),
        ]
    return results


def count_cases() -> list[bool]:
    op = Op("mult3d", (3, 4, 2, 5), "combinatorics")
    count = execute(op)
    return [
        verdict("mult3d as computed", op, count, False),
        verdict("mult3d exact + 1", op, dataclasses.replace(count, exact=count.exact + 1), True),
    ]


def cli_cases() -> list[bool]:
    argv = ("multiplicity", "--dim", "1", "--m", "2", "--j", "1", "--format", "json")
    expect = {"code": 0, "sub": "multiplicity", "format": "json", "digits": 15, "out": None,
              "dim": 1, "args": {"m": 2, "j": 1}, "kb": CODATA_KB}
    op = Op("cli", (argv,), "cli", expect=expect)
    good = execute(op)
    bad_op = Op("cli", (("multiplicity", "--dim", "1", "--m", "2"),), "cli",
                expect={"code": 2, "sub": None, "out": None})
    bad = execute(bad_op)
    return [
        verdict("cli ok as run", op, good, False),
        verdict("cli ok with exit 1", op, dataclasses.replace(good, code=1), True),
        verdict("cli ok with exit 2", op, dataclasses.replace(good, code=2), True),
        verdict("cli ok with a traceback", op, dataclasses.replace(good, exc=ValueError("boom")), True),
        verdict("cli ok with a wrong count", op, dataclasses.replace(good, out=good.out.replace('"count": 4', '"count": 5')), True),
        verdict("cli bad argv as run", bad_op, bad, False),
        verdict("cli bad argv with exit 0", bad_op, dataclasses.replace(bad, code=0), True),
        verdict("cli bad argv with exit 7", bad_op, dataclasses.replace(bad, code=7), True),
    ]


def main() -> int:
    checks = kernel_cases() + table_cases() + count_cases() + cli_cases()
    print(f"checker self-test: {sum(checks)}/{len(checks)} as expected")
    smoke_status = run.smoke()
    return 0 if all(checks) and smoke_status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
