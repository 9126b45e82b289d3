"""Byte-for-byte replay of recorded CLI runs.

Each case in golden/cli.json holds an argv, the exit code and the exact
stdout of ``pathsum.cli.main(argv)``. An argv entry "{out}" stands for a
fresh file path; the file's content is recorded as "out_file". To record
a deliberate output change, edit the argv list in the JSON if needed and
rewrite the expected fields with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from pathsum.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli.json")


def _load():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def replay(argv, tmp_dir):
    out_path = os.path.join(tmp_dir, "out.txt")
    argv = [out_path if arg == "{out}" else arg for arg in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    out_file = None
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as handle:
            out_file = handle.read()
        os.unlink(out_path)
    return {"code": code, "stdout": stdout.getvalue(), "out_file": out_file}


@pytest.mark.parametrize("case", _load(), ids=lambda case: " ".join(case["argv"]))
def test_cli_output_matches_golden(case, tmp_path):
    got = replay(case["argv"], str(tmp_path))
    assert got == {key: case[key] for key in ("code", "stdout", "out_file")}


if __name__ == "__main__":
    cases = _load()
    with tempfile.TemporaryDirectory() as tmp_dir:
        for case in cases:
            case.update(replay(case["argv"], tmp_dir))
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(cases, handle, indent=1)
        handle.write("\n")
    print(f"recorded {len(cases)} cases in {GOLDEN}", file=sys.stderr)
