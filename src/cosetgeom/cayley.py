"""Finite-radius balls in the word metric, with deterministic numbering.

A Ball is the induced subgraph on all elements of word length at most R.
Vertex ids follow breadth-first discovery order: frontier vertices are
expanded in increasing id and letters are applied in the group spec's
canonical order, so two builds of the same scenario are identical byte for
byte.
Vertices at distance exactly R have incomplete adjacency; everything
strictly inside is complete.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import BallOverflowError, ConfigError, InsufficientRadiusError
from .groups import Element, GroupSpec, Word, group_for, parse_group_spec

#: Sentinel distance for vertices a BFS never reached.
UNREACHED = -1

DEFAULT_VERTEX_BUDGET = 5_000_000

BALL_FORMAT = "cosetgeom.ball.v1"


@dataclass
class Ball:
    spec: GroupSpec
    radius: int
    elements: List[Element]
    index: Dict[Element, int]
    dist: List[int]
    adj: List[Tuple[Tuple[int, int], ...]]

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
        for l, other in self.adj[vid]:
            if l == letter:
                return other
        return None

    def neighbors(self, vid: int) -> Tuple[int, ...]:
        return tuple(other for _, other in self.adj[vid])


def build_ball(
    spec: GroupSpec, radius: int, max_vertices: int = DEFAULT_VERTEX_BUDGET
) -> Ball:
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    g = group_for(spec)
    apply_letter = g.apply_letter
    letters = spec.letters
    elements: List[Element] = [g.identity()]
    index: Dict[Element, int] = {g.identity(): 0}
    dist: List[int] = [0]
    adj: List[Tuple[Tuple[int, int], ...]] = []
    count = 1
    layer_start = 0
    # An expanded vertex at distance d-1 has all its neighbours in layers
    # d-2..d, so its adjacency row is complete once its letters are applied.
    for d in range(1, radius + 1):
        layer_end = count
        for vid in range(layer_start, layer_end):
            a = elements[vid]
            row = []
            for letter in letters:
                b = apply_letter(a, letter)
                other = index.get(b)
                if other is None:
                    other = index[b] = count
                    elements.append(b)
                    dist.append(d)
                    count += 1
                    if count > max_vertices:
                        raise BallOverflowError(d, count, max_vertices)
                row.append((letter, other))
            adj.append(tuple(row))
        layer_start = layer_end
        if layer_start == count:
            break  # the whole group fit inside the previous radius
    # The rim was never expanded; keep its edges that stay inside the ball.
    for vid in range(layer_start, count):
        a = elements[vid]
        row = []
        for letter in letters:
            other = index.get(apply_letter(a, letter))
            if other is not None:
                row.append((letter, other))
        adj.append(tuple(row))
    return Ball(spec=spec, radius=radius, elements=elements, index=index, dist=dist, adj=adj)


def multi_source_distance(ball: Ball, sources: Iterable[int]) -> List[int]:
    """Edge distance from a vertex set, inside the ball; UNREACHED if cut off."""
    out = [UNREACHED] * ball.n_vertices
    queue = deque()
    for vid in sorted(set(sources)):
        out[vid] = 0
        queue.append(vid)
    while queue:
        v = queue.popleft()
        dv = out[v]
        for _, other in ball.adj[v]:
            if out[other] == UNREACHED:
                out[other] = dv + 1
                queue.append(other)
    return out


@dataclass(frozen=True)
class StarResult:
    vertices: frozenset
    clipped: bool


def star(ball: Ball, seeds: Iterable[int], n: int) -> StarResult:
    """Vertices within edge distance n of the seed set, clipped to the ball."""
    current = set(seeds)
    frontier = set(current)
    clipped = False
    for _ in range(n):
        next_frontier = set()
        for v in frontier:
            if not ball.complete(v):
                clipped = True
            for _, other in ball.adj[v]:
                if other not in current:
                    next_frontier.add(other)
        current |= next_frontier
        frontier = next_frontier
        if not frontier:
            break
    return StarResult(vertices=frozenset(current), clipped=clipped)


@dataclass(frozen=True)
class PathInBall:
    """An edge path given by a start vertex and a letter word."""

    base: int
    word: Word


def walk_path(ball: Ball, path: PathInBall) -> List[int]:
    """Vertex ids visited by the path; raises if it leaves the ball."""
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
        "dist": list(ball.dist),
        "adj": [[[l, v] for l, v in row] for row in ball.adj],
    }


def ball_from_payload(payload) -> Ball:
    """Rebuild a ball; raises ValueError for a payload of the wrong shape."""
    if not isinstance(payload, dict) or payload.get("format") != BALL_FORMAT:
        raise ValueError("not a ball payload of format " + BALL_FORMAT)
    try:
        spec = parse_group_spec(payload["group"])
        g = group_for(spec)
        elements = [g.decode_key(key.encode()) for key in payload["vertices"]]
        index = {a: i for i, a in enumerate(elements)}
        adj = [tuple((l, v) for l, v in row) for row in payload["adj"]]
        dist = list(payload["dist"])
        radius = payload["radius"]
    except (AttributeError, ConfigError, IndexError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed ball payload: {exc!r}") from None
    if not isinstance(radius, int) or not len(elements) == len(dist) == len(adj):
        raise ValueError("ball payload fields disagree")
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
        with open(tmp, "w") as fh:
            json.dump(ball_to_payload(ball), fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_ball(path: str) -> Ball:
    with open(path) as fh:
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
    adding vertex max(max_vertices, 1), in that vertex's layer.
    """
    if not cache_dir:
        return build_ball(spec, radius, max_vertices)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, ball_cache_name(spec, radius))
    if os.path.exists(path):
        try:
            ball = load_ball(path)
            if ball.spec == spec and ball.radius == radius:
                over = max(max_vertices, 1)
                if over < ball.n_vertices:
                    raise BallOverflowError(ball.dist[over], over + 1, max_vertices)
                return ball
        except ValueError:  # JSONDecodeError is one too
            pass  # fall through and rebuild a corrupt or stale file
    ball = build_ball(spec, radius, max_vertices)
    save_ball(ball, path)
    return ball
