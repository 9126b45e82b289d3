import argparse
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time

import mpmath as mp
import pytest

import pathsum
from pathsum import checks, cli
from pathsum.cli import _SUBCOMMANDS, build_parser, main


def _child_env():
    # a fresh interpreter imports the same pathsum as this one, from a
    # checkout too (where pytest's pythonpath setting reaches only this process)
    src = os.path.dirname(os.path.dirname(pathsum.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMultiplicity:
    def test_text_output(self, capsys):
        code, out, err = run_cli(
            capsys, ["multiplicity", "--dim", "1", "--m", "2", "--j", "1", "--kb", "1"]
        )
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert lines["count"] == "4"
        assert float(lines["entropy"]) == pytest.approx(1.3862943611198906, rel=1e-12)

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["multiplicity", "--dim", "2", "--m1", "2", "--j", "0", "--k", "1",
             "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 12

    def test_full_2d_when_m2_given(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["multiplicity", "--dim", "2", "--m1", "2", "--m2", "2", "--j", "0",
             "--k", "0", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["count"] == 6

    def test_3d(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["multiplicity", "--dim", "3", "--m1", "1", "--j", "0", "--k", "1",
             "--l", "1", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["count"] == 120

    def test_missing_flag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["multiplicity", "--dim", "1", "--m", "2"])
        assert code == 2
        assert "--j" in err


class TestScan:
    def test_csv_shape_and_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["scan", "--m-list", "2", "--b-min", "0.25", "--b-max", "0.5",
             "--points", "2", "--digits", "17"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        comments = [line for line in lines if line.startswith("#")]
        data = [line for line in lines if not line.startswith("#")]
        assert any("columns" in c for c in comments)
        assert data[0] == "m,b,bm,sum,limit,ratio"
        first = data[1].split(",")
        assert first[0] == "2"
        # 17-digit output round-trips to the exact computed float
        assert float(first[5]) == pytest.approx(1.0501228369358389, rel=1e-12)

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["scan", "--m-list", "1,2", "--b-min", "0.1", "--b-max", "1.0",
             "--points", "3", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 6
        assert set(payload["rows"][0]) == {"m", "b", "bm", "sum", "limit", "ratio"}

    def test_grid_past_the_row_cap_exits_3_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["scan", "--points", "10000000"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "row cap" in err

    def test_grid_up_to_the_float_limit_stays_finite(self, capsys):
        code, out, _ = run_cli(
            capsys, ["scan", "--m-list", "3", "--b-min", "1e-3", "--b-max", "1.7e308",
                     "--points", "4", "--format", "json"]
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        # JSON carries a non-finite float as a string
        assert all(isinstance(row["b"], float) and row["ratio"] == 1.0 for row in rows[1:])
        assert [row["bm"] for row in rows] == [0.003, 1.7e308, "inf", "inf"]

    def test_bad_grid_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["scan", "--b-min", "-1", "--b-max", "1"])
        assert code == 2
        assert "b_min" in err

    @pytest.mark.parametrize("m_list,b_min,b_max", [("40", "0.5", "0.6"), ("1", "700", "800")])
    def test_underflowed_limit_exits_0(self, capsys, m_list, b_min, b_max):
        code, out, _ = run_cli(
            capsys, ["scan", "--m-list", m_list, "--b-min", b_min, "--b-max", b_max,
                     "--points", "2", "--format", "json"]
        )
        assert code == 0
        assert [row["ratio"] for row in json.loads(out)["rows"]] == [1.0, 1.0]

    def test_cap_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("PATHSUM_MAX_TERMS", "5")
        code, _, err = run_cli(
            capsys, ["scan", "--m-list", "1", "--b-min", "0.002", "--b-max", "0.004",
                     "--points", "2"]
        )
        assert code == 3
        assert "cap" in err


class TestProbs:
    def test_csv_metadata_and_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, ["probs", "--m-list", "2", "--digits", "17"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = [line for line in lines if line.startswith("# m=2 ")]
        assert len(header) == 1
        z = float(header[0].split("normalization=")[1].split()[0])
        assert z == pytest.approx(1.3409996467967444, abs=5e-12)
        assert "tail_bound=" in header[0]
        rows = [line for line in lines if not line.startswith("#")][1:]
        first = rows[0].split(",")
        assert first[:2] == ["2", "0"]
        assert float(first[2]) == pytest.approx(0.745712351519784, abs=5e-12)

    def test_json_meta(self, capsys):
        code, out, _ = run_cli(
            capsys, ["probs", "--m-list", "2,5", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["meta"]) == {"2", "5"}
        assert payload["meta"]["2"]["tail_bound"] <= 1e-12
        ms = {row["m"] for row in payload["rows"]}
        assert ms == {2, 5}

    def test_non_finite_tol_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["probs", "--m-list", "2", "--tol", "inf"])
        assert code == 2
        assert out == ""
        assert "tol" in err


class TestPaths:
    def test_text_listing(self, capsys):
        code, out, _ = run_cli(
            capsys, ["paths", "--dim", "2", "--net", "2,2", "--total", "4"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "count=6"
        assert lines[1] == "class j=0,k=0: 6"
        walks = lines[2:]
        assert len(walks) == 6
        assert all(walk.count("+x") == 2 and walk.count("+y") == 2 for walk in walks)

    def test_flip_class_filter(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["paths", "--dim", "1", "--net", "2", "--total", "4", "--flips", "1",
             "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 4
        assert payload["classes"] == {"j=1": 4}
        assert len(payload["sequences"]) == 4

    def test_cap_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, ["paths", "--dim", "2", "--net", "2,2", "--total", "4",
                     "--cap", "3"]
        )
        assert code == 3
        assert "cap" in err.lower()

    # The flip DP alone takes from seconds to a minute on these
    @pytest.mark.parametrize("dim,net,total", [
        ("2", "1,0", "201"), ("3", "1,0,0", "51"), ("3", "1,0,0", "81"),
    ])
    def test_cap_is_checked_before_any_enumeration(self, capsys, dim, net, total):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, ["paths", "--dim", dim, "--net", net, "--total", total, "--cap", "10"]
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "more than 10 sequences" in err

    @pytest.mark.parametrize("dim,net,total", [
        ("1", "0", "4"), ("2", "0,1", "3"), ("2", "0,0", "4"),
        ("3", "0,0,1", "3"), ("3", "2,1,1", "6"), ("3", "0,2,0", "4"),
    ])
    def test_cross_checks_classes_without_a_per_dimension_form(self, capsys, dim, net, total):
        code, out, _ = run_cli(capsys, ["paths", "--dim", dim, "--net", net, "--total", total])
        assert code == 0
        assert out.startswith("count=")

    def test_walk_past_the_exact_limit(self, capsys):
        # 3000 steps deep, and the closed form keeps only the log count there
        code, out, err = run_cli(
            capsys, ["paths", "--dim", "1", "--net", "3000", "--total", "3000"]
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == ["count=1", "class j=0: 1", " ".join(["+x"] * 3000)]

    def test_count_mismatch_exits_1(self, capsys, monkeypatch):
        from pathsum import BigCount, combinatorics

        monkeypatch.setattr(combinatorics, "multiplicity", lambda net, key: BigCount.from_exact(7))
        code, out, err = run_cli(capsys, ["paths", "--dim", "2", "--net", "0,1", "--total", "3"])
        assert code == 1
        assert out == ""
        assert "mismatch" in err

    def test_infeasible_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["paths", "--dim", "1", "--net", "2", "--total", "3"]
        )
        assert code == 2


class TestEnsembleReport:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(
            capsys, ["ensemble", "--m", "2", "--j", "1", "--kb", "1", "--digits", "17"]
        )
        assert code == 0
        report = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(report["beta"]) == pytest.approx(0.5493061443340549, rel=1e-12)
        assert float(report["entropy"]) == pytest.approx(2.2493405784752336, rel=1e-12)
        assert float(report["entropy_cosh_form"]) < 0.0
        assert "note" in report
        assert float(report["stirling_relative_difference"]) > 0.0

    def test_ordered_case(self, capsys):
        code, out, _ = run_cli(
            capsys, ["ensemble", "--m", "2", "--j", "0", "--kb", "1",
                     "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["beta"] == "inf"
        assert payload["partition"] == "inf"
        assert payload["entropy"] == 0.0
        assert "stirling_relative_difference" not in payload

    def test_si_units_default_kb(self, capsys):
        code, out, _ = run_cli(capsys, ["ensemble", "--m", "2", "--j", "1",
                                        "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["entropy"] == pytest.approx(1.380649e-23 * 2.2493405784752336,
                                                   rel=1e-12)


def _mp_stirling_difference(m, j):
    """|S/kB - ln W| / ln W at the digits of N plus 30."""
    n = m + 2 * j
    with mp.workdps(len(str(n)) + 30):
        up, down, total = mp.mpf(m + j), mp.mpf(j), mp.mpf(n)
        log_w = mp.loggamma(total + 1) - mp.loggamma(up + 1) - mp.loggamma(down + 1)
        mixing = up * mp.log(total / up) + down * mp.log(total / down)
        return float(abs(mixing - log_w) / log_w)


def _seeded_classes(seed, count):
    rng = random.Random(seed)
    classes = []
    while len(classes) < count:
        n = int(10 ** rng.uniform(3.31, 17.5))
        m, j = rng.randint(1, n), rng.randint(1, n)
        if m + 2 * j > 2000:
            classes.append((m, j))
    return classes


class TestStirlingDifference:
    # the difference of two terms of size N lost every digit at (10^17, 10^17)
    @pytest.mark.parametrize("m,j", [
        (2, 1), (400, 2000), (10**12, 10**12), (10**15, 3 * 10**15), (5, 10**16),
        (10**17, 10**17), *_seeded_classes(18, 30),
    ], ids=lambda n: f"{n:.3g}")
    def test_matches_mpmath(self, capsys, m, j):
        code, out, _ = run_cli(
            capsys, ["ensemble", "--m", str(m), "--j", str(j), "--kb", "1", "--format", "json"]
        )
        assert code == 0
        got = json.loads(out)["stirling_relative_difference"]
        assert got == pytest.approx(_mp_stirling_difference(m, j), rel=1e-14, abs=0)


class TestProb2D:
    def test_value_and_bound(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["prob2d", "--m1", "1", "--j", "1", "--k", "1", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["probability"] == pytest.approx(0.009783690154673513, abs=1e-9)
        assert payload["weight"] == "1/60"
        assert 0.0 < payload["tail_bound"] <= 1e-12
        assert payload["normalization"] == pytest.approx(1.7035153815357964, rel=1e-11)

    def test_reference_comparison_fields(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["prob2d", "--m1", "1", "--j", "1", "--k", "1",
             "--reference-pct", "0.03", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reference_percent"] == 0.03
        # comparison is reported, agreement is not claimed
        assert payload["ratio_vs_reference"] == pytest.approx(32.612300515578375, rel=1e-6)

    @pytest.mark.parametrize("reference", ["0", "nan", "inf", "-5", "1e-320"])
    def test_bad_reference_exits_2(self, capsys, reference):
        code, out, err = run_cli(
            capsys, ["prob2d", "--m1", "1", "--j", "0", "--k", "0", "--reference-pct", reference]
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid argument (reference_pct: ")

    def test_runs_are_reproducible(self, capsys):
        argv = ["prob2d", "--m1", "1", "--j", "1", "--k", "1", "--digits", "17"]
        code_one, out_one, _ = run_cli(capsys, argv)
        code_two, out_two, _ = run_cli(capsys, argv)
        assert code_one == code_two == 0
        assert out_one == out_two

    def test_deep_class_is_reachable(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["prob2d", "--m1", "1", "--j", "6", "--k", "7", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["probability"] > 0.0

    def test_weight_past_the_int_str_digit_limit(self, capsys):
        # the weight's denominator has 676 digits, more than the lowered limit
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(
                capsys,
                ["prob2d", "--m1", "1000000", "--j", "160", "--k", "0", "--tol", "1e-6"],
            )
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, err) == (0, "")
        assert f"weight=1/{math.comb(10**6 + 320, 160)}\n" in out


class TestValidate:
    def test_all_scopes_pass(self, capsys):
        code, out, _ = run_cli(capsys, ["validate"])
        assert code == 0
        assert "all_passed=True" in out
        assert "FAIL" not in out

    def test_json_scope(self, capsys):
        code, out, _ = run_cli(capsys, ["validate", "--scope", "kernel",
                                        "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert all(check["passed"] for check in payload["checks"])
        assert {check["scope"] for check in payload["checks"]} == {"kernel"}

    def test_scope_choices_are_the_registry(self):
        assert cli._SCOPES == tuple(checks.SCOPES)

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        failed = checks.Check("forced", False, 0.5, 0.1)
        monkeypatch.setitem(checks.SCOPES, "stats", lambda: [failed])
        code, out, err = run_cli(capsys, ["validate", "--scope", "stats"])
        assert code == 1
        assert out == "FAIL stats.forced measured=0.5 tolerance=0.1\nall_passed=False\n"
        assert err == "validation failed: stats.forced\n"


class TestOutputHandling:
    def test_atomic_file_write(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            capsys,
            ["scan", "--m-list", "1", "--b-min", "0.1", "--b-max", "1.0",
             "--points", "3", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("#")
        # no temp droppings left behind
        assert [p.name for p in tmp_path.iterdir()] == ["scan.csv"]

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        # a missing directory fails at the temp file, a directory target at the rename
        (tmp_path / "taken").mkdir()
        for target in (tmp_path / "missing" / "x.csv", tmp_path / "taken"):
            code, out, err = run_cli(capsys, ["probs", "--m-list", "2", "--out", str(target)])
            assert code == 2
            assert out == ""
            assert err.startswith("error: cannot write output (")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list((tmp_path / "taken").iterdir()) == []

    def test_negative_digits_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["probs", "--m-list", "2", "--digits", "-1"])
        assert stop.value.code == 2
        assert "--digits" in capsys.readouterr().err

    def test_digits_controls_precision(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["probs", "--m-list", "2", "--j-max", "0", "--digits", "3"],
        )
        assert code == 0
        data = [line for line in out.splitlines() if line.startswith("2,0,")]
        assert data[0] == "2,0,1"  # one entry normalizes to exactly 1

    def test_digits_17_round_trips(self, capsys):
        from pathsum import PathClass1D, SpinEnsemble1D, ensemble_entropy_large_n

        code, out, _ = run_cli(
            capsys,
            ["ensemble", "--m", "2", "--j", "1", "--kb", "1", "--digits", "17"],
        )
        assert code == 0
        report = dict(line.split("=", 1) for line in out.strip().splitlines())
        ens = SpinEnsemble1D.from_path_class(PathClass1D(2, 1), 1.0)
        # printed text parses back to the identical float
        assert float(report["entropy"]) == ensemble_entropy_large_n(ens, 1.0)
        assert float(report["beta"]) == ens.beta


def test_unwritable_out_has_no_traceback_in_a_fresh_process(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "pathsum", "probs", "--m-list", "2",
         "--out", str(tmp_path / "missing" / "x.csv")],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 2
    assert "cannot write output" in result.stderr
    assert "Traceback" not in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "pathsum", "multiplicity", "--dim", "1", "--m", "1",
         "--j", "1", "--format", "json"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["count"] == 3


# Modules that a subcommand should load only when it uses them.
_WATCHED = (
    "pathsum.combinatorics", "pathsum.kernel", "pathsum.stats", "pathsum.ensemble",
    "pathsum.checks", "fractions", "decimal", "json", "tempfile", "typing",
)
# Runs each step in turn and prints, one line per step, the watched modules it loaded.
_IMPORT_PROBE = """
import sys
for step in {steps!r}:
    before = set(sys.modules)
    exec(step)
    print(",".join(sorted(n for n in {watched!r} if n in sys.modules and n not in before)))
"""


def _modules_loaded_by(*steps):
    # -S keeps site's own imports (typing and tempfile on some hosts) out of the child
    result = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE.format(steps=steps, watched=_WATCHED)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    return [set(filter(None, line.split(","))) for line in result.stdout.splitlines()]


def test_import_loads_no_library_module():
    loaded = _modules_loaded_by(
        "import pathsum, pathsum.cli",
        "assert set(pathsum.__all__) <= set(dir(pathsum))",
        "assert pathsum.kernel is sys.modules['pathsum.kernel']",
    )
    # dir() lists the lazy names without importing them
    assert loaded == [set(), set(), {"pathsum.kernel"}]


# the table subcommands: stats counts through combinatorics and sums Fractions
_TABLES = {"pathsum.stats", "pathsum.combinatorics", "fractions", "decimal"}
_SUBCOMMAND_IMPORTS = [
    (["multiplicity", "--m", "3", "--j", "1"], {"pathsum.combinatorics"}),
    (["paths", "--dim", "1", "--net", "2", "--total", "4"], {"pathsum.combinatorics"}),
    (["scan", "--m-list", "1", "--points", "3"], {"pathsum.kernel"}),
    (["probs", "--m-list", "2"], _TABLES),
    (["prob2d", "--m1", "1", "--j", "1", "--k", "0"], _TABLES),
    (["ensemble", "--m", "3", "--j", "1"], {"pathsum.ensemble", "pathsum.combinatorics"}),
    (["validate"], {*_TABLES, "pathsum.kernel", "pathsum.ensemble", "pathsum.checks"}),
]


@pytest.mark.parametrize(
    "argv, expected", _SUBCOMMAND_IMPORTS, ids=[argv[0] for argv, _ in _SUBCOMMAND_IMPORTS]
)
def test_subcommand_loads_only_its_modules(tmp_path, argv, expected):
    out = str(tmp_path / "out.txt")
    loaded = _modules_loaded_by(
        "from pathsum.cli import main",
        f"assert main({[*argv, '--out', out]!r}) == 0",
    )
    # --out writes through tempfile; no report here is JSON, so json stays out
    assert loaded == [set(), {*expected, "tempfile"}]
    assert os.path.getsize(out) > 0


# argv that argparse itself ends: help, usage errors, bad values
PARSE_EXITS = [
    [], ["-h"], ["--help"], ["bogus"], ["sca"], ["--bogus"], ["--bogus", "scan"],
    ["--bogus", "scan", "--m-list", "1"], ["scan", "probs"], ["scan", "--bogus"],
    ["scan", "--points", "x"], ["scan", "--m-list"], ["scan", "--format", "text"],
    ["probs", "--digits", "-1"], ["probs", "--digits", "x"], ["probs", "--tol"],
    ["multiplicity", "--dim", "4"], ["multiplicity", "--m", "1.5"],
    ["paths", "--dim", "1"], ["paths", "--net", "1", "--total", "1"],
    ["ensemble", "--m", "3"], ["ensemble", "--m", "3", "--j", "1", "--E", "x"],
    ["prob2d"], ["prob2d", "--m1", "1", "--j", "0"], ["validate", "--scope", "nope"],
    ["validate", "extra"], ["validate", "--format", "csv"],
    # a named subcommand, then an error reported in the top-level usage
    ["probs", "--m-list", "2", "scan"],
    ["paths", "--dim", "1", "--net", "1", "--total", "1", "extra"],
    ["validate", "--scope", "all", "--bogus"],
    *([command, "--help"] for command in _SUBCOMMANDS),
]


def _captured(call):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except SystemExit as stop:
            result = ("exit", stop.code)
    return result, out.getvalue(), err.getvalue()


def reference_parser():
    """The parser as built before it depended on argv: every subcommand in full."""
    def add_common(parser, default_format="csv", formats=("csv", "json")):
        parser.add_argument("--out", default=None, help="output file (default: stdout)")
        parser.add_argument(
            "--format", choices=formats, default=default_format, help="output format"
        )
        parser.add_argument(
            "--digits", type=cli._digits, default=15,
            help="printed float precision; 17 or more round-trips exactly",
        )

    parser = argparse.ArgumentParser(
        prog="pathsum",
        description="Lattice path-class counts, kernel sums, probabilities, ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("multiplicity", help="count walks in one path class")
    p.add_argument("--dim", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--m", type=int, default=None, help="1D net displacement")
    p.add_argument("--m1", type=int, default=None, help="first-axis net displacement")
    p.add_argument("--m2", type=int, default=None, help="second-axis net displacement (2D full)")
    p.add_argument("--j", type=int, default=None, help="backward steps on the net axis")
    p.add_argument("--k", type=int, default=None, help="transverse round trips")
    p.add_argument("--l", type=int, default=None, help="second transverse round trips (3D)")
    p.add_argument("--kb", type=float, default=cli.CODATA_KB, help="Boltzmann constant")
    add_common(p, default_format="text", formats=("text", "json"))
    p.set_defaults(func=cli.cmd_multiplicity)

    p = sub.add_parser("scan", help="sum/limit ratio over a grid of b values")
    p.add_argument("--m-list", default="1,2,3", help="comma-separated net displacements")
    p.add_argument("--b-min", type=float, default=0.01)
    p.add_argument("--b-max", type=float, default=2.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-12)
    add_common(p)
    p.set_defaults(func=cli.cmd_scan)

    p = sub.add_parser("probs", help="normalized class probabilities per m")
    p.add_argument("--m-list", default="2,5,10,50,100")
    p.add_argument("--j-max", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    add_common(p)
    p.set_defaults(func=cli.cmd_probs)

    p = sub.add_parser("paths", help="enumerate the walks of a class explicitly")
    p.add_argument("--dim", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--net", required=True, help="comma-separated net displacement")
    p.add_argument("--total", type=int, required=True, help="total step count")
    p.add_argument("--cap", type=int, default=pathsum.combinatorics.DEFAULT_ENUMERATION_CAP)
    p.add_argument("--flips", default=None, help="only this backward-step class, e.g. 1,0")
    add_common(p, default_format="text", formats=("text", "json"))
    p.set_defaults(func=cli.cmd_paths)

    p = sub.add_parser("ensemble", help="two-level ensemble report for a 1D class")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--E", type=float, default=1.0, help="level spacing")
    p.add_argument("--kb", type=float, default=cli.CODATA_KB, help="Boltzmann constant")
    add_common(p, default_format="text", formats=("text", "json"))
    p.set_defaults(func=cli.cmd_ensemble)

    p = sub.add_parser("prob2d", help="probability of one 2D class with tail bound")
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument(
        "--reference-pct", type=float, default=None,
        help="externally reported percent value to compare against",
    )
    add_common(p, default_format="text", formats=("text", "json"))
    p.set_defaults(func=cli.cmd_prob2d)

    p = sub.add_parser("validate", help="run the built-in consistency checks")
    p.add_argument("--scope", choices=["all", *cli._SCOPES], default="all")
    add_common(p, default_format="text", formats=("text", "json"))
    p.set_defaults(func=cli.cmd_validate)

    return parser


def _subparsers(parser):
    return [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]


def _parse(parser, argv):
    return _captured(lambda: vars(parser.parse_args(argv)))


class TestParserBuiltForArgv:
    @pytest.mark.parametrize("command", _SUBCOMMANDS)
    def test_only_the_named_subcommand_gets_arguments(self, command):
        (subcommands,) = _subparsers(build_parser([command, "--help"]))
        assert list(subcommands.choices) == [command]
        (full,) = _subparsers(build_parser())
        assert list(full.choices) == list(_SUBCOMMANDS)
        # every subcommand in full: -h plus its own and the three common arguments
        for name, sub in full.choices.items():
            assert len(sub._actions) == 1 + len(_SUBCOMMANDS[name][2]) + 3, name

    @pytest.mark.parametrize("argv", PARSE_EXITS, ids=lambda argv: " ".join(argv) or "-")
    def test_parse_exits_match_the_reference(self, argv):
        want = _parse(reference_parser(), argv)
        assert want[0] == ("exit", 0 if "--help" in argv or "-h" in argv else 2)
        assert _captured(lambda: main(argv)) == want

    def test_every_argv_parses_as_in_the_reference(self):
        with open(os.path.join(os.path.dirname(__file__), "golden", "cli.json")) as handle:
            cases = json.load(handle)
        for argv in [case["argv"] for case in cases] + PARSE_EXITS:
            # compared as repr, so that a parsed --kb nan equals itself
            want = repr(_parse(reference_parser(), argv))
            assert repr(_parse(build_parser(argv), argv)) == want, argv
            assert repr(_parse(build_parser(), argv)) == want, argv
