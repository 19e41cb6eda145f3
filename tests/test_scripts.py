"""The example scripts run to completion against the installed API."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["survey_families.py", "--radius", "8"],
        ["lift_stress.py", "--group", "bs:1,2", "--radius", "8", "--paths", "20"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_zero(argv):
    done = run_script(*argv)
    assert done.returncode == 0, done.stderr


def test_survey_rows_at_radius_8(tmp_path):
    rows_path = tmp_path / "rows.json"
    done = run_script("survey_families.py", "--radius", "8", "--json", str(rows_path))
    assert done.returncode == 0, done.stderr
    rows = json.loads(rows_path.read_text())
    got = {
        row["group"]: (
            row["group_ends"],
            row["coset_ends"],
            row["commensuration"],
            {key: row["constants"].get(key) for key in ("confidence", "f", "m", "l")},
        )
        for row in rows
    }
    commensurated = "CommensuratedEvidence"
    assert got == {
        "bs:1,2": ("StableCount(1)", "Growing", commensurated,
                   {"confidence": "Stable", "f": 2, "m": 6, "l": 11}),
        "bs:2,3": ("StableCount(1)", "Growing", commensurated,
                   {"confidence": "Stable", "f": 2, "m": 5, "l": 10}),
        "abelian:2": ("StableCount(1)", "StableCount(2)", commensurated,
                      {"confidence": "Stable", "f": 1, "m": 3, "l": 6}),
        "free:2": ("Growing", "Growing", "NotCommensuratedEvidence",
                   {"confidence": "NotCommensurated", "f": None, "m": None, "l": None}),
    }
    lines = done.stdout.splitlines()
    assert lines[-1] == f"wrote {rows_path}"
    assert lines[3].endswith("NotCommensuratedEvidence  NotCommensurated (x2, x2^-1)")


def test_survey_reads_inconclusive_where_the_radius_runs_out(tmp_path):
    # horizon 5 is too small for an ends schedule, on the ball and the patch
    rows_path = tmp_path / "rows.json"
    done = run_script("survey_families.py", "--radius", "5", "--json", str(rows_path))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()[:-1]
    assert len(lines) == 4
    for line in lines:
        assert "ends=inconclusive " in line and "coset-ends=inconclusive " in line
    for row in json.loads(rows_path.read_text()):
        assert row["group_ends"] == row["coset_ends"] == "inconclusive"
