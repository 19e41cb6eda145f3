"""Workloads of the cosetgeom benchmark and the answer check for each cell.

A cell is one ``cosetgeom`` CLI invocation.  A workload is a list of cells;
its seed sets their order and, on ``analyze``, the two ``lift`` paths.  The
program sees only the argv built here.

Every cell has an expected answer.  Exit 1, a crash, or a report that
contradicts its expected answer is a failed cell.  A failed cell listed in
KNOWN_FAILURES still fails, but only an unlisted failure makes the run
incorrect, so a later change that fixes a known failure passes the check.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

HNN = "hnn:2,2 1;0 2"

# The five balls every workload draws on, with their vertex counts.  The
# free and abelian counts are closed forms: 1 + 2(3^r - 1) for free:2 and
# (2r+1)(2r^2+2r+3)/3 for abelian:3.
BALLS: Tuple[Tuple[str, int, int], ...] = (
    ("bs:2,3", 11, 105_531),
    ("bs:1,2", 13, 23_647),
    (HNN, 9, 53_617),
    ("free:2", 9, 1 + 2 * (3**9 - 1)),
    ("abelian:3", 12, 25 * (2 * 144 + 24 + 3) // 3),
)
RADIUS = {group: radius for group, radius, _ in BALLS}

# Failures the benchmark keeps in its matrix on purpose.
KNOWN_FAILURES = {
    "constants bs:2,3 r11": "exits 1 (unreachable Q-vertices) where a radius "
    "shortfall should exit 2; the constants are F=2, M=5 at r10 and r13",
}

Check = Callable[[dict], Optional[str]]


@dataclass
class Cell:
    id: str
    argv: List[str]
    check: Check
    exit_codes: Tuple[int, ...] = (0,)
    dot: Optional[str] = None  # DOT file the cell writes, if any


def cell(command: str, group: str, check: Check, *extra: str, label: str = "", **kw) -> Cell:
    radius = RADIUS[group]
    cell_id = f"{command} {group} r{radius}" + (f" {label}" if label else "")
    argv = [command, "--group", group, "--radius", str(radius), *extra]
    return Cell(cell_id, argv, check, **kw)


# ------------------------------------------------------------------ checks


def expect(**wanted) -> Check:
    """Each named field of ``result`` must equal the given value."""

    def check(report: dict) -> Optional[str]:
        result = report["result"]
        for key, value in wanted.items():
            if result.get(key) != value:
                return f"{key} is {result.get(key)!r}, expected {value!r}"
        return None

    return check


def expect_constants(f: int, m: int) -> Check:
    """Stable F and M as given, and the loop bound L = 2F + M + 1."""

    def check(report: dict) -> Optional[str]:
        result = report["result"]
        consts = result.get("constants", result)
        got = (consts.get("confidence"), consts.get("f"), consts.get("m"))
        if got != ("Stable", f, m):
            return f"(confidence, F, M) is {got}, expected ('Stable', {f}, {m})"
        if consts.get("l") != 2 * f + m + 1:
            return f"L is {consts.get('l')}, expected 2F+M+1 = {2 * f + m + 1}"
        return None

    return check


def expect_ladder(f: int, m: int, n_loops: int) -> Check:
    constants = expect_constants(f, m)

    def check(report: dict) -> Optional[str]:
        result = report["result"]
        problem = constants(report)
        if problem:
            return problem
        if result.get("verified") is not True:
            return f"ladder not verified: {result.get('violations')}"
        if result.get("n_loops") != n_loops:
            return f"n_loops is {result.get('n_loops')}, expected {n_loops}"
        if result.get("max_loop_length", 0) > 2 * f + m + 1:
            return f"a loop is longer than L = {2 * f + m + 1}"
        return None

    return check


def expect_lift(report: dict) -> Optional[str]:
    """The lift projects back, and every in-Q block is shorter than F."""
    result = report["result"]
    if result.get("projects_back") is not True:
        return "lift does not project back onto the path"
    f_of = dict(result["f_per_letter"])
    for length, letter in zip(result["block_lengths"], result["lambda_path"]["letters"]):
        if length >= f_of[letter]:
            return f"block of length {length} before {letter} is not shorter than F"
    return None


def expect_tree_export(nodes: int) -> Check:
    """The free group's coset patch is a tree: two edge entries per link."""

    def check(report: dict) -> Optional[str]:
        result = report["result"]
        got = (result.get("graph"), result.get("nodes"), result.get("edges"))
        if got != ("patch", nodes, 2 * (nodes - 1)):
            return f"(graph, nodes, edges) is {got}, expected a {nodes}-node tree"
        return None

    return check


def expect_constants_or_inconclusive(f: int, m: int) -> Check:
    stable = expect_constants(f, m)

    def check(report: dict) -> Optional[str]:
        return None if report["status"] == "inconclusive" else stable(report)

    return check


COMMENSURATED = expect(verdict="CommensuratedEvidence")
GROWING = expect(label="Growing")


# --------------------------------------------------------------- workloads


def random_path(rng: random.Random, length: int = 6) -> str:
    """A freely reduced word in x and t, in the CLI's dot syntax."""
    letters = ["x", "x^-1", "t", "t^-1"]
    word: List[str] = []
    while len(word) < length:
        letter = rng.choice(letters)
        if word and {word[-1], letter} in ({"x", "x^-1"}, {"t", "t^-1"}):
            continue
        word.append(letter)
    return ".".join(word)


def build_cells() -> List[Cell]:
    return [
        cell("ball", group, expect(n_vertices=n_vertices))
        for group, _, n_vertices in BALLS
    ]


def analyze_cells(rng: random.Random, dot_path: str) -> List[Cell]:
    paths = [random_path(rng), random_path(rng)]
    return [
        cell("commensurate", "bs:2,3", COMMENSURATED),
        cell("commensurate", "bs:1,2", COMMENSURATED),
        cell("commensurate", HNN, COMMENSURATED),
        cell("commensurate", "free:2", expect(verdict="NotCommensuratedEvidence")),
        cell(
            "constants", "bs:2,3", expect_constants_or_inconclusive(2, 5), exit_codes=(0, 2)
        ),
        cell("constants", "bs:1,2", expect_constants(2, 6)),
        cell("constants", HNN, expect_constants(2, 9)),
        cell("constants", "abelian:3", expect_constants(1, 3)),
        cell("filtered-ends", "bs:2,3", GROWING),
        cell("filtered-ends", HNN, GROWING),
        cell("filtered-ends", "abelian:3", expect(label="StableCount(1)")),
        cell(
            "filtered-ends", "bs:1,2", GROWING,
            "--subgroup", "words:x,t.x.t^-1", label="words:x,t.x.t^-1",
        ),
        cell("hausdorff", "bs:2,3", COMMENSURATED, "--element", "t", label="t"),
        cell(
            "rays", "bs:2,3", expect(graph="patch", n_vertices=23_550),
            "--graph", "patch", label="patch",
        ),
        cell("ends", "free:2", GROWING),
        cell(
            "export", "free:2", expect_tree_export(3**9),
            "--what", "patch", "--dot", dot_path, label="patch", dot=dot_path,
        ),
        cell(
            "ladder", "bs:1,2", expect_ladder(2, 6, 8),
            "--prefix", "x^8", "--crossing", "t", label="x^8 t",
        ),
        *(
            cell("lift", "bs:1,2", expect_lift, "--path", path, label=f"#{i} {path}")
            for i, path in enumerate(paths)
        ),
    ]


def deep_cells() -> List[Cell]:
    # The README's flagship scenario; its ball has 663,799 vertices.
    return [
        Cell(
            "ladder bs:2,3 r13 x^12 t",
            ["ladder", "--group", "bs:2,3", "--radius", "13",
             "--prefix", "x^12", "--crossing", "t"],
            expect_ladder(2, 5, 12),
        )
    ]


WORKLOADS = ("build", "analyze", "deep")


def workload_cells(workload: str, seed: int, dot_path: str) -> List[Cell]:
    rng = random.Random(seed)
    if workload == "build":
        cells = build_cells()
    elif workload == "analyze":
        cells = analyze_cells(rng, dot_path)
    elif workload == "deep":
        cells = deep_cells()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cells)
    return cells


def cache_fill_argvs() -> List[List[str]]:
    """The ``ball`` runs that fill the cache ``analyze`` reads."""
    return [cell.argv for cell in build_cells()]


# ------------------------------------------------------------------ verdict


def judge(c: Cell, returncode: int, stdout: bytes) -> Optional[str]:
    """None when the cell answered as expected, else why it failed."""
    if returncode not in c.exit_codes:
        return f"exit code {returncode}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "report is not JSON"
    if report.get("schema") != "cosetgeom.report.v1":
        return f"unexpected schema {report.get('schema')!r}"
    if returncode == 2 and report.get("status") != "inconclusive":
        return "exit 2 without status inconclusive"
    try:
        return c.check(report)
    except (KeyError, TypeError, ValueError) as exc:
        return f"report lacks an expected field: {exc!r}"

