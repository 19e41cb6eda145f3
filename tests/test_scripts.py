"""The example scripts and README's library and command-line examples run
to completion against the installed API."""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
# README's "Command line" section: its sh examples and the config file one reads
COMMAND_LINE = re.search(r"^## Command line\n(.*?)^## ", README, re.S | re.M)[1]
README_COMMANDS = [
    line
    for block in re.findall(r"```sh\n(.*?)```", COMMAND_LINE, re.S)
    for line in block.splitlines()
    if line.startswith("cosetgeom ")
]
README_CONFIG = re.search(r"```ini\n(.*?)```", COMMAND_LINE, re.S)[1]


def package_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=package_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv", [["survey_families.py", "--radius", "8"]], ids=lambda argv: argv[0]
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


def test_readme_library_example_prints_what_its_comments_say(capsys):
    code = re.search(r"```python\n(.*?)```", README, re.S)[1]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert printed == re.findall(r"^print\(.*#\s*(.*)$", code, re.M)
    assert printed == ["Growing", "(2, 2, 2, 2)"]
    constants = namespace["constants"]
    stated = f"F={constants.f}, M={constants.m}, L={constants.l}"
    assert stated == "F=2, M=5, L=10" and f"# {stated}" in code


def test_readme_lists_its_command_examples():
    assert len(README_COMMANDS) == 8
    assert README_COMMANDS[-1] == "cosetgeom filtered-ends --config scenario.ini"
    assert README_CONFIG.startswith("[scenario]\n")


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_command_prints_a_report(command, tmp_path):
    """Each command example runs from a fresh directory, beside the README's
    scenario.ini, and prints a report."""
    (tmp_path / "scenario.ini").write_text(README_CONFIG)
    env = package_env()
    env.pop("COSETGEOM_CACHE", None)  # build every ball, cache nothing
    done = subprocess.run(
        [sys.executable, "-m", "cosetgeom", *shlex.split(command)[1:]],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["schema"] == "cosetgeom.report.v1"
