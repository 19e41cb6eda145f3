"""Deterministic DOT export for balls and coset-graph patches.

Vertices are labeled by the normal form of their element (balls) or their
witness element (patches); edge labels are generator names.  Output order
is fixed by sorting on canonical vertex keys, so two exports of the same
graph are byte-identical and diffs stay readable.  dot_lines yields the
text line by line, so export_dot can write it to a file without holding it.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterator, Optional, TextIO, Union

from .cayley import Ball
from .errors import ConfigError
from .groups import group_for, render_word

if TYPE_CHECKING:
    from .cosetgraph import CosetPatch


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_lines(graph: Union[Ball, CosetPatch]) -> Iterator[str]:
    """One node line per vertex, then one edge line per directed edge, each
    ending in a newline.

    A ball and a patch differ only in their node names, sort keys and node
    attributes; both list their edges through ``graph.edges``.  Nodes come
    in key order, and edges by source key, letter and target key: keys are
    distinct, so each node's edges are sorted on their own, by letter and
    the target's place in the node order.
    """
    if not isinstance(graph, Ball):
        from .cosetgraph import CosetPatch  # a ball export never loads it

        if not isinstance(graph, CosetPatch):
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

    order = sorted(range(n), key=keys.__getitem__)
    del keys  # a ball's keys are needed for the order only
    place = array("i", [0]) * n
    for i, v in enumerate(order):
        place[v] = i

    yield f"digraph {name} {{\n"
    for v in order:
        yield f"  {prefix}{v} [{attrs(v)}];\n"
    label = {l: _quote(render_word(graph.spec, (l,))) for l in graph.spec.letters}
    for v in order:
        for letter, w in sorted(graph.edges(v), key=lambda e: (e[0], place[e[1]])):
            yield f"  {prefix}{v} -> {prefix}{w} [label={label[letter]}];\n"
    yield "}\n"


def export_dot(
    graph: Union[Ball, CosetPatch], out: Optional[TextIO] = None
) -> Optional[str]:
    """The whole DOT text of dot_lines, or, given a file out, None once the
    lines are written to it one by one."""
    if out is None:
        return "".join(dot_lines(graph))
    out.writelines(dot_lines(graph))
    return None
