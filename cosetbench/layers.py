"""Per-layer metrics from the span files ``tracer.py`` writes.

Each metric sums over every traced process of a run, set-up included:
on ``analyze`` the traced cache fill is where balls are built and saved.
Which end-to-end metric each one should move, and on which workload, is
listed in ``cosetbench/README.md``.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

# Timed spans reported as ``<name>_s``.
TIMED = (
    "cayley.build_ball",
    "cayley.load_ball",
    "cayley.save_ball",
    "cosetgraph.build_coset_patch",
    "metrics.hausdorff_profile",
    "lifting.compute_f",
    "lifting.compute_m",
    "lifting.approximate_lift",
    "ends.ends_report",
    "homotopy.build_ladder",
    "homotopy.verify_ladder",
    "homotopy.build_ray_system",
    "dot.export_dot",
)
MODULES = (
    "cli", "groups", "intmat", "subgroups", "cayley", "cosetgraph",
    "metrics", "ends", "lifting", "homotopy", "dot",
)

# name -> (unit, better); the order is the order of the printed report.
PER_LAYER = {
    "cayley.build_ball_s": ("s", "lower"),
    "cayley.vertices": ("count", "lower"),
    "cayley.build_us_per_vertex": ("us", "lower"),
    "groups.apply_letter_calls": ("count", "lower"),
    "cayley.load_ball_s": ("s", "lower"),
    "cayley.cache_hits": ("count", "higher"),
    "cayley.cache_misses": ("count", "lower"),
    "cayley.save_ball_s": ("s", "lower"),
    "cayley.bytes_per_vertex": ("B", "lower"),
    "subgroups.coset_key_calls": ("count", "lower"),
    "subgroups.coset_key_calls_per_vertex": ("ratio", "lower"),
    "cosetgraph.build_coset_patch_s": ("s", "lower"),
    "cosetgraph.cosets": ("count", "lower"),
    "metrics.hausdorff_profile_s": ("s", "lower"),
    "metrics.profiles": ("count", "lower"),
    "lifting.compute_f_s": ("s", "lower"),
    "lifting.compute_f_calls": ("count", "lower"),
    "lifting.compute_m_s": ("s", "lower"),
    "lifting.approximate_lift_s": ("s", "lower"),
    "groups.multiply_calls": ("count", "lower"),
    "ends.ends_report_s": ("s", "lower"),
    "homotopy.build_ladder_s": ("s", "lower"),
    "homotopy.verify_ladder_s": ("s", "lower"),
    "homotopy.build_ray_system_s": ("s", "lower"),
    "dot.export_dot_s": ("s", "lower"),
    "cli.startup_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    **{f"{m}.errors": ("count", "lower") for m in MODULES},
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def read_trace(path) -> Tuple[List[dict], dict, dict, dict]:
    spans, counts, errors, meta = [], {}, {}, {}
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            if "span" in row:
                spans.append(row)
            elif "counts" in row:
                counts, errors = row["counts"], row["errors"]
            else:
                meta = row["meta"]
    return spans, counts, errors, meta


def _outermost(spans: List[dict], i: int) -> bool:
    """False when an enclosing span has the same name (recursion)."""
    name, parent = spans[i]["span"], spans[i]["parent"]
    while parent is not None:
        if spans[parent]["span"] == name:
            return False
        parent = spans[parent]["parent"]
    return True


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def layer_metrics(traces) -> Tuple[Dict[str, dict], dict]:
    """Metrics and raw per-span totals from ``(process, trace path)`` pairs.

    A process needs ``wall_s`` and ``rss_mb``.  ``trace.overhead`` needs an
    untraced round and is left to the caller.
    """
    seconds: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    errors: Counter = Counter()
    vertices_built = cache_hits = cache_misses = cosets = ball_vertices = 0
    startup = self_time = main_time = 0.0
    # (vertices, bytes per vertex) of the largest ball, largest RSS first
    rss_per_vertex = (0, 0.0)

    for proc, path in traces:
        spans, process_counts, process_errors, meta = read_trace(path)
        counts.update(process_counts)
        errors.update(process_errors)
        children = defaultdict(list)
        for i, span in enumerate(spans):
            children[span["parent"]].append(i)
        for i, span in enumerate(spans):
            name = span["span"]
            calls[name] += 1
            if _outermost(spans, i):
                seconds[name] += span["end"] - span["start"]
            if name == "cayley.build_ball" and span["value"]:
                vertices_built += span["value"]
            elif name == "cosetgraph.build_coset_patch" and span["value"]:
                cosets += span["value"]
            elif name == "cayley.cached_ball" and not span["failed"]:
                built = any(spans[c]["span"] == "cayley.build_ball" for c in children[i])
                cache_misses += built
                cache_hits += not built
                ball_vertices += span["value"]
                rss_per_vertex = max(
                    rss_per_vertex, (span["value"], proc.rss_mb * 2**20 / span["value"])
                )
        for i in children[None]:
            main = spans[i]
            if main["span"] != "cli.main":
                continue
            duration = main["end"] - main["start"]
            covered = _covered(
                [
                    (max(spans[c]["start"], main["start"]), min(spans[c]["end"], main["end"]))
                    for c in children[i]
                ]
            )
            main_time += duration
            self_time += duration - covered
            startup += proc.wall_s - duration - meta["patch_s"] - meta["dump_s"]

    build_s = seconds["cayley.build_ball"]
    values = {f"{name}_s": seconds[name] for name in TIMED}
    values.update({
        "cayley.vertices": vertices_built,
        "cayley.build_us_per_vertex": build_s / vertices_built * 1e6 if vertices_built else 0.0,
        "groups.apply_letter_calls": counts["groups.Group.apply_letter"],
        "cayley.cache_hits": cache_hits,
        "cayley.cache_misses": cache_misses,
        "cayley.bytes_per_vertex": rss_per_vertex[1],
        "subgroups.coset_key_calls": counts["subgroups.coset_key"],
        "subgroups.coset_key_calls_per_vertex": (
            counts["subgroups.coset_key"] / ball_vertices if ball_vertices else 0.0
        ),
        "cosetgraph.cosets": cosets,
        "metrics.profiles": calls["metrics.hausdorff_profile"],
        "lifting.compute_f_calls": calls["lifting.compute_f"],
        "groups.multiply_calls": counts["groups.Group.multiply"],
        "cli.startup_s": startup,
        "cli.self_s": self_time,
        "trace.coverage": (main_time - self_time) / main_time if main_time else 0.0,
        **{f"{m}.errors": errors[m] for m in MODULES},
    })
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _) in PER_LAYER.items()
        if name in values
    }
    raw = {
        "span_seconds": dict(sorted(seconds.items())),
        "span_calls": dict(sorted(calls.items())),
        "counts": dict(sorted(counts.items())),
    }
    return metrics, raw
