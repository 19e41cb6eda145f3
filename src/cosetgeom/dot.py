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


def export_dot(graph: Union[Ball, CosetPatch]) -> str:
    """One node line per vertex, then one edge line per directed edge.

    A ball and a patch differ only in their node names, sort keys and node
    attributes; both list their edges through ``graph.edges``.
    """
    if not isinstance(graph, (Ball, CosetPatch)):
        raise ConfigError(f"cannot export {type(graph).__name__} as DOT")
    group = group_for(graph.spec)
    if isinstance(graph, Ball):
        name, prefix, n = "cayley_ball", "v", graph.n_vertices
        keys = [group.canonical_key(a) for a in graph.elements]

        def attrs(v: int) -> str:
            label = group.render(graph.elements[v])
            return f"label={_quote(label)}, dist={graph.dist[v]}"

    else:
        name, prefix, n = "coset_patch", "c", graph.n_cosets
        keys = graph.keys

        def attrs(c: int) -> str:
            witness = group.render(graph.ball.elements[graph.witness[c]])
            trust = "true" if graph.trusted[c] else "false"
            return f"label={_quote(witness)}, dist={graph.dist[c]}, trusted={trust}"

    lines: List[str] = [f"digraph {name} {{"]
    for v in sorted(range(n), key=keys.__getitem__):
        lines.append(f"  {prefix}{v} [{attrs(v)}];")
    edges = sorted(
        (keys[v], letter, keys[w], v, w)
        for v in range(n)
        for letter, w in graph.edges(v)
    )
    label = {l: _quote(render_word(graph.spec, (l,))) for l in graph.spec.letters}
    for _, letter, _, v, w in edges:
        lines.append(f"  {prefix}{v} -> {prefix}{w} [label={label[letter]}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
