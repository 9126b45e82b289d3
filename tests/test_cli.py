import json
import math
import os
import subprocess
import sys

import pytest

import pathsum
from pathsum.cli import main


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

    @pytest.mark.parametrize("dim,net,total", [
        ("1", "0", "4"), ("2", "0,1", "3"), ("2", "0,0", "4"),
        ("3", "0,0,1", "3"), ("3", "2,1,1", "6"), ("3", "0,2,0", "4"),
    ])
    def test_cross_checks_classes_without_a_per_dimension_form(self, capsys, dim, net, total):
        code, out, _ = run_cli(capsys, ["paths", "--dim", dim, "--net", net, "--total", total])
        assert code == 0
        assert out.startswith("count=")

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
