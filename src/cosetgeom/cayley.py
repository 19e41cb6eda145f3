"""Finite-radius balls in the word metric, with deterministic numbering.

A Ball is the induced subgraph on all elements of word length at most R.
Vertex ids follow breadth-first discovery order: frontier vertices are
expanded in increasing id and letters are applied in the group spec's
canonical order, so two builds of the same scenario are identical byte for
byte.
Vertices at distance exactly R have incomplete adjacency; everything
strictly inside is complete.

Adjacency is one flat int array with a slot per (vertex, letter): slot
``vid * n_letters + i`` holds the neighbour across the i-th letter of
``spec.letters``, or NO_EDGE where that neighbour lies outside the ball.
Distances are one byte each while the radius stays below 256.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import threading
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import BallOverflowError, ConfigError, InsufficientRadiusError
from .groups import Element, GroupSpec, Word, group_for, parse_group_spec

#: Sentinel distance for vertices a BFS never reached.
UNREACHED = -1

#: Adjacency slot of a rim vertex whose neighbour lies outside the ball.
NO_EDGE = -1

DEFAULT_VERTEX_BUDGET = 5_000_000

BALL_FORMAT = "cosetgeom.ball.v1"


def _dist_array(radius: int) -> array:
    return array("B" if radius < 256 else "i")


@dataclass
class Ball:
    spec: GroupSpec
    radius: int
    elements: List[Element]
    index: Dict[Element, int]
    dist: array
    adj: array
    letters: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _slot: Dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.letters = self.spec.letters
        self._slot = {letter: i for i, letter in enumerate(self.letters)}

    @property
    def n_vertices(self) -> int:
        return len(self.elements)

    def sphere_sizes(self) -> List[int]:
        sizes = [0] * (self.radius + 1)
        for d in self.dist:
            sizes[d] += 1
        return sizes

    def complete(self, vid: int) -> bool:
        """True when every group neighbor of the vertex is inside the ball."""
        return self.dist[vid] < self.radius

    def vertex(self, a: Element) -> Optional[int]:
        return self.index.get(a)

    def neighbor(self, vid: int, letter: int) -> Optional[int]:
        other = self.adj[vid * len(self.letters) + self._slot[letter]]
        return None if other == NO_EDGE else other

    def neighbors(self, vid: int) -> List[int]:
        """The vertex's in-ball neighbours, in letter order."""
        k = len(self.letters)
        return [other for other in self.adj[vid * k : vid * k + k] if other != NO_EDGE]

    def edges(self, vid: int) -> Iterator[Tuple[int, int]]:
        """(letter, neighbour) for each in-ball edge, in letter order."""
        k = len(self.letters)
        start = vid * k
        for letter, other in zip(self.letters, self.adj[start : start + k]):
            if other != NO_EDGE:
                yield letter, other


@contextmanager
def _collector_paused():
    """Pause the cyclic collector, then put it back as it was.

    Building, writing and reading a ball allocate one container or more per
    vertex and free none of them, so a collection meanwhile could only
    rescan what was just made.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def build_ball(
    spec: GroupSpec, radius: int, max_vertices: int = DEFAULT_VERTEX_BUDGET
) -> Ball:
    """The ball of the given radius; raises BallOverflowError past the budget."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if max_vertices < 1:
        raise ValueError("vertex budget must be at least 1")
    with _collector_paused():
        return _bfs_ball(spec, radius, max_vertices)


def _bfs_ball(spec: GroupSpec, radius: int, max_vertices: int) -> Ball:
    g = group_for(spec)
    apply_letter = g.apply_letter
    letters = spec.letters
    k = len(letters)
    slot_of = {letter: i for i, letter in enumerate(letters)}
    back = [slot_of[-letter] for letter in letters]
    elements: List[Element] = [g.identity()]
    index: Dict[Element, int] = {g.identity(): 0}
    dist = _dist_array(radius)
    dist.append(0)
    blank = array("i", [NO_EDGE]) * k
    adj = array("i", blank)
    count = 1
    layer_start = 0
    # Layer d-1 is expanded at step d, the rim (d = radius + 1) without
    # adding vertices.  An edge v -l-> w found from v is written at both
    # ends, since w.l^-1 = v, so a slot already set needs no group step;
    # skipping only known vertices keeps the discovery order.  An expanded
    # vertex has all its neighbours in layers d-2..d, so its slots are
    # complete once its letters are applied.
    for d in range(1, radius + 2):
        layer_end = count
        for vid in range(layer_start, layer_end):
            a = elements[vid]
            base = vid * k
            for i, letter in enumerate(letters):
                if adj[base + i] != NO_EDGE:
                    continue
                b = apply_letter(a, letter)
                other = index.get(b)
                if other is None:
                    if d > radius:
                        continue  # the rim keeps only its edges inside the ball
                    other = index[b] = count
                    elements.append(b)
                    dist.append(d)
                    adj.extend(blank)
                    count += 1
                    if count > max_vertices:
                        raise BallOverflowError(d, count, max_vertices)
                adj[base + i] = other
                adj[other * k + back[i]] = vid
        layer_start = layer_end
        if layer_start == count:
            break  # no vertex left to expand: the rim, or the whole group, is done
    return Ball(spec=spec, radius=radius, elements=elements, index=index, dist=dist, adj=adj)


def bfs_layers(
    neighbors: Callable[[int], Iterable[int]], n: int, sources: Iterable[int]
) -> Iterator[List[int]]:
    """Vertices reached from the sources, one list per edge distance.

    Layer 0 holds the sources in the order given, and each later layer its
    vertices in discovery order.  Each layer is yielded before the next is
    searched, so a caller that stops asking stops the search.  Vertex ids
    lie in 0..n-1; neighbors may yield NO_EDGE, which is skipped, so a
    ball's adjacency slots can be passed as stored.  Callers restrict the
    search inside neighbors.
    """
    seen = bytearray(n)
    layer = []
    for v in sources:
        if not seen[v]:
            seen[v] = 1
            layer.append(v)
    while layer:
        yield layer
        nxt = []
        for v in layer:
            for w in neighbors(v):
                # NO_EDGE reads the last byte of the mask, so it is tested
                # only when that byte says unseen: most edges stop at seen[w]
                if not seen[w] and w != NO_EDGE:
                    seen[w] = 1
                    nxt.append(w)
        layer = nxt


def walk_back(
    layers: Sequence[List[int]],
    w: int,
    edges: Callable[[int], Iterable[Tuple[int, int]]],
) -> Tuple[int, ...]:
    """Letters of the search walk from layer 0 to w, a vertex of the last layer.

    edges(u) yields u's search edges as (letter, vertex) in search order.
    Each step back goes to the first vertex of the layer before with a
    search edge to the current vertex, which is the vertex that discovered
    it, across that vertex's first such edge.
    """
    letters = []
    for layer in reversed(layers[:-1]):
        letter, w = next((l, u) for u in layer for l, x in edges(u) if x == w)
        letters.append(letter)
    return tuple(reversed(letters))


def bfs_distances(
    neighbors: Callable[[int], Iterable[int]], n: int, sources: Iterable[int]
) -> List[int]:
    """Edge distance from the sources of each vertex, UNREACHED if never reached.

    neighbors, n and sources are as for bfs_layers.
    """
    out = [UNREACHED] * n
    for d, layer in enumerate(bfs_layers(neighbors, n, sources)):
        for v in layer:
            out[v] = d
    return out


@dataclass(frozen=True)
class StarResult:
    vertices: frozenset
    clipped: bool


def star(ball: Ball, seeds: Iterable[int], n: int) -> StarResult:
    """Vertices within edge distance n of the seed set, clipped to the ball.

    clipped says a vertex closer than n to the seeds lies on the rim, so
    the star may miss vertices outside the ball.
    """
    if n < 0:
        raise ValueError("star radius must be nonnegative")
    seeds = list(seeds)
    for v in seeds:
        if not (0 <= v < ball.n_vertices):
            raise InsufficientRadiusError(f"seed vertex {v} not in ball")
    layers = list(islice(bfs_layers(ball.neighbors, ball.n_vertices, seeds), n + 1))
    return StarResult(
        vertices=frozenset(v for layer in layers for v in layer),
        clipped=any(not ball.complete(v) for layer in layers[:n] for v in layer),
    )


@dataclass(frozen=True)
class PathInBall:
    """An edge path given by a start vertex and a letter word."""

    base: int
    word: Word


def walk_path(ball: Ball, path: PathInBall) -> List[int]:
    """Vertex ids visited by the path; raises if it leaves the ball."""
    if not (0 <= path.base < ball.n_vertices):
        raise InsufficientRadiusError(f"base vertex {path.base} not in ball")
    g = group_for(ball.spec)
    vids = [path.base]
    a = ball.elements[path.base]
    for letter in path.word:
        a = g.apply_letter(a, letter)
        vid = ball.index.get(a)
        if vid is None:
            raise InsufficientRadiusError(
                f"path leaves the radius-{ball.radius} ball"
            )
        vids.append(vid)
    return vids


# ---------------------------------------------------------------------------
# Serialization and caching
# ---------------------------------------------------------------------------


def ball_to_payload(ball: Ball) -> dict:
    g = group_for(ball.spec)
    return {
        "format": BALL_FORMAT,
        "group": ball.spec.describe(),
        "radius": ball.radius,
        "vertices": [g.canonical_key(a).decode() for a in ball.elements],
        "dist": ball.dist.tolist(),
        "adj": [[[l, v] for l, v in ball.edges(vid)] for vid in range(ball.n_vertices)],
    }


def ball_from_payload(payload) -> Ball:
    """Rebuild a ball; raises ValueError for a payload of the wrong shape."""
    if not isinstance(payload, dict) or payload.get("format") != BALL_FORMAT:
        raise ValueError("not a ball payload of format " + BALL_FORMAT)
    try:
        radius = payload["radius"]
        if not isinstance(radius, int):
            raise ValueError("ball payload radius is not an integer")
        spec = parse_group_spec(payload["group"])
        g = group_for(spec)
        elements = [g.decode_key(key.encode()) for key in payload["vertices"]]
        index = {a: i for i, a in enumerate(elements)}
        dist = _dist_array(radius)
        dist.extend(payload["dist"])
        slot = {letter: i for i, letter in enumerate(spec.letters)}
        k = len(slot)
        rows = payload["adj"]
        adj = array("i", [NO_EDGE]) * (len(rows) * k)
        for start, row in zip(range(0, len(adj), k), rows):
            for l, v in row:
                adj[start + slot[l]] = v
    except (
        AttributeError, ConfigError, IndexError, KeyError, OverflowError, TypeError
    ) as exc:
        raise ValueError(f"malformed ball payload: {exc!r}") from None
    n = len(elements)
    if not n == len(index) == len(dist) == len(rows):
        raise ValueError("ball payload fields disagree or repeat a vertex")
    if min(dist) < 0 or max(dist) > radius or min(adj) < NO_EDGE or max(adj) >= n:
        raise ValueError("ball payload distance or vertex id out of range")
    return Ball(
        spec=spec,
        radius=radius,
        elements=elements,
        index=index,
        dist=dist,
        adj=adj,
    )


def save_ball(ball: Ball, path: str) -> None:
    """Write the ball to a temp file beside path, then rename it into place.

    A reader sees either the old file or the whole new one, never a
    half-written ball, even when runs race or one is interrupted.
    """
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w") as fh, _collector_paused():
            fh.write(
                json.dumps(ball_to_payload(ball), sort_keys=True, separators=(",", ":"))
            )
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_ball(path: str) -> Ball:
    with open(path) as fh, _collector_paused():
        return ball_from_payload(json.load(fh))


def ball_cache_name(spec: GroupSpec, radius: int) -> str:
    digest = hashlib.sha256(
        f"{BALL_FORMAT}|{spec.describe()}|{radius}".encode()
    ).hexdigest()[:16]
    return f"ball-{digest}-r{radius}.json"


def cached_ball(
    spec: GroupSpec,
    radius: int,
    cache_dir: Optional[str],
    max_vertices: int = DEFAULT_VERTEX_BUDGET,
) -> Ball:
    """Build a ball, reusing a cache file when its header matches.

    A cached ball larger than the budget raises the BallOverflowError a
    cold build would: ids are in discovery order, so that build fails on
    adding vertex max_vertices, in that vertex's layer.
    """
    if max_vertices < 1:
        raise ValueError("vertex budget must be at least 1")
    if not cache_dir:
        return build_ball(spec, radius, max_vertices)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, ball_cache_name(spec, radius))
    if os.path.exists(path):
        try:
            ball = load_ball(path)
            if ball.spec == spec and ball.radius == radius:
                if max_vertices < ball.n_vertices:
                    raise BallOverflowError(
                        ball.dist[max_vertices], max_vertices + 1, max_vertices
                    )
                return ball
        except ValueError:  # JSONDecodeError is one too
            pass  # fall through and rebuild a corrupt or stale file
    ball = build_ball(spec, radius, max_vertices)
    save_ball(ball, path)
    return ball
