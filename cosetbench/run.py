"""cosetgeom benchmark: times whole CLI runs and checks every answer.

Usage, from the repository root::

    python3 cosetbench/run.py --workload build|analyze|deep --seed N \\
        --seconds S --trace 0|1

Each cell is one ``cosetgeom`` process, started after the previous one ends
(a closed loop with one client).  The workload's cells are run as rounds
until ``--seconds`` of cell time is spent, at least one round; a round is
not started when the previous round says it would overrun.

``--trace 0`` reports the end-to-end metrics: median round wall time and CPU
time, median set-up time, the largest peak RSS of any cell, and the share of
cells answered correctly.  ``--trace 1`` runs one untraced and one traced
round and reports per-layer metrics from spans the benchmark's own tracer
(``tracer.py``) records around each module's public functions.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record of the run (metadata, every
cell's time, peak RSS and report SHA-256) goes to ``cosetbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from cells import KNOWN_FAILURES, WORKLOADS, Cell, cache_fill_argvs, judge, workload_cells  # noqa: E402
from layers import layer_metrics  # noqa: E402

CACHE_ENV = "COSETGEOM_CACHE"
# Set-up is repeated and its median reported.  A warm-up process (interpreter
# start, imports, bytecode cache) is cheap; a cache fill builds five balls.
SETUP_REPEATS = {"build": 5, "analyze": 3, "deep": 5}
# Every child is killed once the run has lasted this long, so that a hung
# program still lets the benchmark exit within its 180 s budget.
RUN_LIMIT_S = 170.0


@dataclass
class Proc:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: bytes


@dataclass
class CellRun:
    id: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    failure: Optional[str]
    known_failure: bool
    sha256: str
    dot_sha256: Optional[str]
    traced: bool


class Runner:
    """Starts children one at a time and reads each one's own rusage."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started
        python_path = os.environ.get("PYTHONPATH")
        self.env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
        self.env["PYTHONPATH"] = str(ROOT / "src") + (
            os.pathsep + python_path if python_path else ""
        )
        # A fixed string-hash seed makes set and dict layouts repeat between runs.
        self.env["PYTHONHASHSEED"] = "0"

    def spawn(self, argv: List[str], cache_dir: Optional[Path] = None,
              trace_path: Optional[Path] = None) -> Proc:
        if trace_path is None:
            cmd = [sys.executable, "-m", "cosetgeom", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace_path), *argv]
        env = dict(self.env)
        if cache_dir is not None:
            env[CACHE_ENV] = str(cache_dir)
        out_path = self.workdir / "stdout"
        with open(out_path, "wb") as out, open(self.workdir / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
            budget = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
            killer = threading.Timer(budget, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            returncode=proc.returncode,
            stdout=out_path.read_bytes(),
        )

    def stderr_tail(self) -> str:
        return (self.workdir / "stderr").read_text(errors="replace").strip()[-500:]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cell(runner: Runner, cell: Cell, cache_dir: Optional[Path],
             trace_path: Optional[Path] = None) -> CellRun:
    if cell.dot:
        Path(cell.dot).unlink(missing_ok=True)
    proc = runner.spawn(cell.argv, cache_dir, trace_path)
    failure = judge(cell, proc.returncode, proc.stdout)
    dot = Path(cell.dot) if cell.dot else None
    return CellRun(
        id=cell.id,
        wall_s=proc.wall_s,
        cpu_s=proc.cpu_s,
        rss_mb=proc.rss_mb,
        returncode=proc.returncode,
        failure=failure,
        known_failure=failure is not None
        and cell.id in KNOWN_FAILURES
        and proc.returncode == 1,
        sha256=sha256(proc.stdout),
        dot_sha256=sha256(dot.read_bytes()) if dot and dot.exists() else None,
        traced=trace_path is not None,
    )


# ------------------------------------------------------------------ set-up


class SetupError(Exception):
    pass


def warm_up(runner: Runner) -> float:
    """Start the CLI once: interpreter, imports, bytecode cache."""
    proc = runner.spawn(["--help"])
    if proc.returncode != 0:
        raise SetupError(f"cosetgeom --help exited {proc.returncode}: {runner.stderr_tail()}")
    return proc.wall_s


def fill_cache(runner: Runner, cache_dir: Path, traces: Optional[list] = None) -> float:
    """Build and save every ball ``analyze`` reads; returns the wall time."""
    total = 0.0
    for i, argv in enumerate(cache_fill_argvs()):
        trace_path = None if traces is None else runner.workdir / f"fill-{i}.jsonl"
        proc = runner.spawn(argv, cache_dir, trace_path)
        if proc.returncode != 0:
            raise SetupError(f"cache fill {argv} exited {proc.returncode}: {runner.stderr_tail()}")
        if traces is not None:
            traces.append((proc, trace_path))
        total += proc.wall_s
    return total


def set_up(workload: str, runner: Runner, repeats: int,
           traces: Optional[list] = None) -> Tuple[List[float], Optional[Path]]:
    """Run the workload's set-up ``repeats`` times; returns times and cache."""
    if workload != "analyze":
        return [warm_up(runner) for _ in range(repeats)], None
    times = []
    for i in range(repeats):
        cache_dir = runner.workdir / f"cache-{i}"
        times.append(fill_cache(runner, cache_dir, traces if i == 0 else None))
        if i + 1 < repeats:
            shutil.rmtree(cache_dir)
    return times, cache_dir


# ------------------------------------------------------------- measurement


def run_rounds(runner: Runner, cells: List[Cell], cache_dir: Optional[Path],
               seconds: float) -> List[List[CellRun]]:
    rounds: List[List[CellRun]] = []
    spent = 0.0
    while True:
        rounds.append([run_cell(runner, c, cache_dir) for c in cells])
        took = sum(c.wall_s for c in rounds[-1])
        spent += took
        if spent + took > seconds:
            return rounds


def per_cell_median(rounds: List[List[CellRun]], attr: str) -> float:
    """Sum over cells of each cell's median across rounds.

    On a shared host other tenants slow a CPU-bound process in episodes of
    a few seconds; a median per cell drops the runs they hit, where a median
    of round totals keeps them.
    """
    return sum(
        statistics.median(getattr(r[i], attr) for r in rounds) for i in range(len(rounds[0]))
    )


def end_to_end(rounds: List[List[CellRun]], setup_times: List[float]) -> Dict[str, dict]:
    runs = [c for r in rounds for c in r]
    ok = sum(1 for c in runs if c.failure is None)
    return {
        "wall_s": {"value": per_cell_median(rounds, "wall_s"), "unit": "s"},
        "cpu_s": {"value": per_cell_median(rounds, "cpu_s"), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": max(c.rss_mb for c in runs), "unit": "MB"},
        "ok_ratio": {"value": ok / len(runs), "unit": "ratio"},
    }


def traced_run(runner: Runner, workload: str, cells: List[Cell]):
    """One untraced and one traced round; per-layer metrics from the latter."""
    traces: list = []
    setup_times, cache_dir = set_up(workload, runner, 1, traces)
    plain = [run_cell(runner, c, cache_dir) for c in cells]
    traced = []
    for i, c in enumerate(cells):
        trace_path = runner.workdir / f"cell-{i}.jsonl"
        run = run_cell(runner, c, cache_dir, trace_path)
        if run.sha256 != plain[i].sha256 or run.dot_sha256 != plain[i].dot_sha256:
            run.failure = run.failure or "traced report differs from the untraced one"
            run.known_failure = False
        traced.append(run)
        traces.append((run, trace_path))
    metrics, layers = layer_metrics(traces)
    overhead = sum(c.wall_s for c in traced) / sum(c.wall_s for c in plain)
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return [plain, traced], setup_times, metrics, layers


# ---------------------------------------------------------------- metadata


def metadata(started_load: tuple) -> dict:
    git_sha = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = git.stdout.split()
        # A checkout that is not a repository may sit inside another one.
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            git_sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": started_load,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started, load = time.monotonic(), os.getloadavg()

    if not (ROOT / "src" / "cosetgeom" / "cli.py").is_file():
        print(f"error: no cosetgeom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "_work"))
    try:
        runner = Runner(workdir, started)
        cells = workload_cells(args.workload, args.seed, str(workdir / "patch.dot"))
        layers = None
        if args.trace:
            rounds, setup_times, metrics, layers = traced_run(runner, args.workload, cells)
        else:
            setup_times, cache_dir = set_up(args.workload, runner, SETUP_REPEATS[args.workload])
            rounds = run_rounds(runner, cells, cache_dir, args.seconds)
            metrics = end_to_end(rounds, setup_times)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [c for r in rounds for c in r]
    failed = [c for c in runs if c.failure is not None]
    correct = all(c.known_failure for c in failed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **metadata(load),
        "setup_s": setup_times,
        "rounds": [[asdict(c) for c in r] for r in rounds],
        "metrics": metrics,
        "layers": layers,
        "correct": correct,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s) of {len(cells)} cells")
    for c in failed:
        tag = "known failure" if c.known_failure else "FAILED"
        print(f"  {tag}: {c.id}: {c.failure}")
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:14.6f} {m['unit']}")
    if not args.trace:
        print(f"  {'fail_ratio':40s} {len(failed) / len(runs):14.6f} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
