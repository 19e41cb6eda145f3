"""Deterministic DOT export for balls and coset-graph patches.

Vertices are labeled by the normal form of their element (balls) or their
witness element (patches); edge labels are generator names.  Output order
is fixed by sorting on canonical vertex keys, so two exports of the same
graph are byte-identical and diffs stay readable.
"""

from __future__ import annotations

from typing import List, Union

from .cayley import Ball
from .cosetgraph import CosetPatch
from .errors import ConfigError
from .groups import group_for, render_word


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: Union[Ball, CosetPatch], name: str = None) -> str:
    if isinstance(graph, Ball):
        return _ball_dot(graph, name or "cayley_ball")
    if isinstance(graph, CosetPatch):
        return _patch_dot(graph, name or "coset_patch")
    raise ConfigError(f"cannot export {type(graph).__name__} as DOT")


def _ball_dot(ball: Ball, name: str) -> str:
    spec = ball.spec
    group = group_for(spec)
    keys = [group.canonical_key(a) for a in ball.elements]
    order = sorted(range(ball.n_vertices), key=lambda v: keys[v])
    lines: List[str] = [f"digraph {name} {{"]
    for v in order:
        label = group.render(ball.elements[v])
        lines.append(f"  v{v} [label={_quote(label)}, dist={ball.dist[v]}];")
    edges = []
    for v in range(ball.n_vertices):
        for letter, w in ball.edges(v):
            edges.append((keys[v], letter, keys[w], v, w))
    for _, letter, _, v, w in sorted(edges):
        label = render_word(spec, (letter,))
        lines.append(f"  v{v} -> v{w} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _patch_dot(patch: CosetPatch, name: str) -> str:
    spec = patch.spec
    group = group_for(spec)
    ball = patch.ball
    lines: List[str] = [f"digraph {name} {{"]
    order = sorted(range(patch.n_cosets), key=lambda c: patch.keys[c])
    for cid in order:
        witness = group.render(ball.elements[patch.witness[cid]])
        trust = "true" if patch.trusted[cid] else "false"
        lines.append(
            f"  c{cid} [label={_quote(witness)}, dist={patch.dist[cid]}, "
            f"trusted={trust}];"
        )
    edges = []
    for cid in range(patch.n_cosets):
        for letter, targets in patch.adj[cid].items():
            for target in targets:
                edges.append((patch.keys[cid], letter, patch.keys[target], cid, target))
    for _, letter, _, cid, target in sorted(edges):
        label = render_word(spec, (letter,))
        lines.append(f"  c{cid} -> c{target} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_dot(graph: Union[Ball, CosetPatch], path: str, name: str = None) -> None:
    with open(path, "w") as fh:
        fh.write(export_dot(graph, name))
