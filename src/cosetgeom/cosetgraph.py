"""Visible patch of the coset graph induced by a ball.

The coset graph has one vertex per left coset g*Q and, for every edge
(g, g*s) of the group's Cayley graph, an edge between the cosets of g and
g*s.  Right multiplication does not act on left cosets, so a single letter
may connect a coset to several neighbors; the patch records every neighbor
witnessed by an edge of the ball.  Letters that stay inside a coset project
to points and are not stored as edges.

A patch is an under-approximation: edges missing from the ball are missing
here.  Each coset carries a trust flag saying its earliest witness sits at
least the build's ``trust_margin`` below the ball radius; the patch keeps
the flags, not the margin.  Untrusted cosets sit so close to the boundary
that their recorded degree is likely clipped.

build_coset_patch(ball) builds the patch of Q, the group's distinguished
subgroup.  Given generator words instead, it merges ball vertices joined by
them (a words patch); such a patch has no exact coset labels, so coset
lookups and lifts refuse it.

An ends count and a ray system read only the coset graph: a CosetGraph
holds the ball radius, each coset's distance from Q and the neighbour
lists, and a patch gives its own as patch.graph.  cached_coset_graph keeps
Q's in a graph file beside the ball file, written once per (group, radius)
through the ball file's header, digest and marshal helpers, so a warm
filtered-ends or patch rays run reads it without loading the ball or
labelling a vertex.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict, namedtuple
from functools import cached_property
from itertools import accumulate, count, repeat
from operator import le
from typing import Callable, Dict, Hashable, Iterator, List, NamedTuple, Optional, Tuple, Union

from .cayley import (
    BALL_FORMAT,
    DEFAULT_VERTEX_BUDGET,
    NO_EDGE,
    Ball,
    PackedForms,
    PathInBall,
    _digest,
    _read_cache_file,
    _write_cache_file,
    bfs_distances,
    cached_ball,
)
from .errors import BallOverflowError, ConfigError, InsufficientRadiusError
from .groups import FAMILY_BS, Element, GroupSpec, Word, group_for, inverse_word
from .subgroups import coset_key, coset_labeller, q_letters

DEFAULT_TRUST_MARGIN = 1

GRAPH_FORMAT = "cosetgeom.graph.v1"


class LambdaPath(namedtuple("LambdaPath", "cosets letters")):
    """A walk in the coset graph: visited cosets plus the letter per step.

    Letters are the Cayley-graph letters whose projection produced each
    coset change; steps that stayed inside a coset are contracted away, so
    ``len(letters) == len(cosets) - 1`` and consecutive cosets differ.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.cosets) != len(self.letters) + 1:
            raise ValueError("coset/letter length mismatch")
        return self

    @property
    def start(self) -> int:
        return self.cosets[0]

    @property
    def end(self) -> int:
        return self.cosets[-1]

    def __len__(self) -> int:
        return len(self.letters)

    def concat(self, other: "LambdaPath") -> "LambdaPath":
        if other.start != self.end:
            raise ValueError("paths do not compose")
        return LambdaPath(self.cosets + other.cosets[1:], self.letters + other.letters)


class CosetGraph(NamedTuple):
    """Q's coset graph as one ball shows it, without the ball: what an ends
    count or a ray system reads.

    radius is the ball's and dist holds each coset's distance from Q.
    Coset c's neighbours, sorted and once each, are
    targets[offsets[c]:offsets[c + 1]].  A patch gives its own as
    CosetPatch.graph, and a graph file holds one (cached_coset_graph).
    """

    radius: int
    dist: array
    targets: array
    offsets: array

    def neighbors(self, cid: int) -> array:
        """The coset's neighbours, sorted, once each."""
        return self.targets[self.offsets[cid] : self.offsets[cid + 1]]


class CosetPatch:
    """The part of the coset graph witnessed by one ball.

    The labelling is built with the patch: each ball vertex's coset and each
    coset's witness and trust flag.  Every other part is built on first use
    and kept: the keys (for DOT and dumps), the neighbour lists (behind
    neighbors, degree and dist), the lettered edges and each coset's member
    list.  coset_of_element labels witnesses only as far as its lookups
    reach.  So a lift builds none of the parts, a Hausdorff profile two
    member lists, and an ends count only the neighbour lists.

    words is empty for Q's patch; otherwise it holds the generator words of
    the word-generated subgroup whose classes the patch merged.
    """

    def __init__(
        self,
        words: Tuple[Word, ...],
        ball: Ball,
        witness: array,  # each coset's earliest ball vertex
        coset_of: array,  # each ball vertex's coset id
        trusted: Tuple[bool, ...],
    ):
        self.words = words
        self.ball = ball
        self.witness = witness
        self.coset_of = coset_of
        self.trusted = trusted
        self._members: Dict[int, array] = {}
        self._label_ids: Dict[Hashable, int] = {}  # labels of cosets 0, 1, ...

    @property
    def spec(self) -> GroupSpec:
        return self.ball.spec

    @property
    def radius(self) -> int:
        return self.ball.radius

    @property
    def n_cosets(self) -> int:
        return len(self.witness)

    @property
    def base(self) -> int:
        return self.coset_of[0]

    @cached_property
    def keys(self) -> Tuple[bytes, ...]:
        """Each coset's canonical byte key: its coset_key on Q's patch, its
        witness's group key on a words patch."""
        elements, spec = self.ball.elements, self.spec
        if not self.words:
            return tuple(coset_key(spec, elements[w]) for w in self.witness)
        group = group_for(spec)
        return tuple(group.canonical_key(elements[w]) for w in self.witness)

    @cached_property
    def labeller(self) -> Callable[[Element], Tuple]:
        """The exact coset labeller of the patch's group (coset_labeller).

        A words patch has none: ConfigError.
        """
        if self.words:
            raise ConfigError("exact coset labels need the vertex subgroup")
        return coset_labeller(self.spec)

    def coset_of_element(self, a: Element) -> Optional[int]:
        """The id of the coset a*Q, or None when it has no ball vertex.

        Each call labels witnesses in id order from where the last one
        stopped, up to the first match, and keeps their labels.  Ids open in
        order of first ball vertex, so gQ is found among the cosets that
        meet B(|g|); a miss labels the rest once.
        """
        label, ids = self.labeller, self._label_ids
        key = label(a)
        cid = ids.get(key)
        if cid is not None:
            return cid
        elements, witness = self.ball.elements, self.witness
        for cid in range(len(ids), len(witness)):
            seen = label(elements[witness[cid]])
            ids[seen] = cid
            if seen == key:
                return cid
        return None

    def _codes(self, rank_of: Dict[int, int]) -> List[int]:
        """Sorted distinct codes (source * n_ranks + rank) * n + target, one
        per coset edge, for the letters ranked in rank_of.

        They are read off the ball's slots.  An edge that stays inside its
        coset gives no code: on a words patch that is every edge of a
        one-letter generator word, whose two ends the labelling merges.
        """
        slots, coset_of, n = self.ball.adj, self.coset_of, self.n_cosets
        k = len(self.ball.letters)
        scale = (max(rank_of.values(), default=0) + 1) * n
        codes = set()
        for i, letter in enumerate(self.ball.letters):
            if letter in rank_of:
                shift = rank_of[letter] * n
                codes.update(
                    cv * scale + shift + cu
                    for cv, u in zip(coset_of, slots[i::k])
                    if u != NO_EDGE
                    for cu in (coset_of[u],)
                    if cu != cv
                )
        return sorted(codes)

    def _outside_letters(self) -> List[int]:
        """The letters to rank: on Q's patch those outside Q, whose Q-letter
        edges never leave a coset; on a words patch every letter."""
        inside = () if self.words else set(q_letters(self.spec))
        return sorted(l for l in self.ball.letters if l not in inside)

    @cached_property
    def _links(self) -> Tuple[array, array]:
        """(targets, offsets): coset c's neighbours, sorted and once each,
        are targets[offsets[c]:offsets[c + 1]]."""
        n = self.n_cosets
        links = self._codes(dict.fromkeys(self._outside_letters(), 0))
        return array("i", [e % n for e in links]), _row_offsets(links, n, n)

    @cached_property
    def _edges(self) -> Tuple[array, array, array]:
        """(targets, letters, offsets): coset c's edges are letters[i] to
        targets[i] for offsets[c] <= i < offsets[c + 1], by letter then
        target."""
        n, letter_of = self.n_cosets, self._outside_letters()
        edges = self._codes({l: rank for rank, l in enumerate(letter_of)})
        n_ranks = len(letter_of) or 1  # free:1 leaves no letter to rank
        targets = array("i", [e % n for e in edges])
        letters = array("i", [letter_of[e // n % n_ranks] for e in edges])
        return targets, letters, _row_offsets(edges, n_ranks * n, n)

    @cached_property
    def dist(self) -> array:
        """Coset-graph distance of each coset from the base coset Q."""
        return array("i", bfs_distances(self.neighbors, self.n_cosets, [self.base]))

    @cached_property
    def graph(self) -> CosetGraph:
        """The patch's coset graph: its radius, dist and neighbour lists."""
        return CosetGraph(self.radius, self.dist, *self._links)

    def neighbors(self, cid: int) -> array:
        """The coset's neighbours, sorted, once each."""
        targets, offsets = self._links
        return targets[offsets[cid] : offsets[cid + 1]]

    def degree(self, cid: int) -> int:
        offsets = self._links[1]
        return offsets[cid + 1] - offsets[cid]

    def edges(self, cid: int) -> Iterator[Tuple[int, int]]:
        """(letter, coset) for each edge leaving the coset, by letter then coset."""
        targets, letters, offsets = self._edges
        start, stop = offsets[cid], offsets[cid + 1]
        return zip(letters[start:stop], targets[start:stop])

    def vertices_in_coset(self, cid: int) -> array:
        """The coset's ball vertices, ascending.

        Each list is found on first use by a scan of the labelling from the
        coset's witness, and kept.
        """
        members = self._members.get(cid)
        if members is None:
            find, v = self.coset_of.index, self.witness[cid]
            members = self._members[cid] = array("i", [v])
            while True:
                try:
                    v = find(cid, v + 1)
                except ValueError:  # no later vertex of the coset
                    return members
                members.append(v)
        return members


def _row_offsets(codes: List[int], width: int, n: int) -> array:
    """Where each row 0..n starts in sorted codes row * width + column."""
    starts = range(0, (n + 1) * width, width)
    return array("i", map(bisect_left, repeat(codes, n + 1), starts))


def graph_view(graph: Union[Ball, CosetPatch, CosetGraph]):
    """(kind, dist, neighbors, horizon) of a ball or a coset graph, a patch
    read through its own.

    neighbors(v) may repeat a vertex and follows no particular order.
    """
    if isinstance(graph, Ball):
        return "ball", graph.dist, graph.neighbors, graph.radius
    if isinstance(graph, CosetPatch):
        graph = graph.graph
    if isinstance(graph, CosetGraph):
        return "patch", graph.dist, graph.neighbors, max(graph.dist)
    raise ConfigError(
        f"expected a ball, a coset patch or a coset graph, got {type(graph).__name__}"
    )


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _coset_labels_words(ball: Ball, words: Tuple[Word, ...]) -> Iterator[int]:
    """Merge ball vertices connected by the generator words.

    Two vertices land in one class when some chain of generator-word
    translations joins them without leaving the ball.  This under-merges
    near the boundary, which is exactly what the trust flags account for.
    """
    uf = _UnionFind(ball.n_vertices)
    gen_words = [w for word in words for w in (word, inverse_word(word))]
    for start in range(ball.n_vertices):
        for word in gen_words:
            v: Optional[int] = start
            for letter in word:
                v = ball.neighbor(v, letter)
                if v is None:
                    break
            else:
                uf.union(start, v)
    return map(uf.find, range(ball.n_vertices))


def _vertex_labels(ball: Ball) -> Iterator[Hashable]:
    """Each ball vertex's coset label (coset_labeller), in vertex order.

    On a loaded bs ball the label is the form less its last int, so the
    pass reads it as those ints' bytes, sliced from the arena undecoded:
    forms of one ball pack alike, so the bytes agree exactly when the labels
    do.
    """
    if ball.spec.family == FAMILY_BS and isinstance(ball.elements, PackedForms):
        return ball.elements.heads()
    return map(coset_labeller(ball.spec), ball.elements)


def build_coset_patch(
    ball: Ball,
    trust_margin: int = DEFAULT_TRUST_MARGIN,
    words: Tuple[Word, ...] = (),
) -> CosetPatch:
    """Project the ball onto its coset graph patch: Q's cosets, or with
    generator words, the classes of the subgroup they generate.

    Cosets are numbered in order of their earliest ball vertex, so ids are
    stable for a fixed (group, words, radius).  A coset is trusted when
    that earliest witness lies at distance <= radius - trust_margin.
    """
    if trust_margin < 1:
        raise ConfigError("trust_margin must be >= 1")

    words = tuple(map(tuple, words))
    # one pass: each label takes the next id the first time it is seen
    labels = _coset_labels_words(ball, words) if words else _vertex_labels(ball)
    # an array keeps 4 bytes per vertex
    ids = defaultdict(count().__next__)
    coset_of = array("i", map(ids.__getitem__, labels))
    n_cosets = len(ids)
    del ids, labels

    # ids open in order of first vertex, so each coset's witness is the
    # first occurrence of its id after the previous coset's witness
    find = coset_of.index
    witness = array("i", [0]) * n_cosets
    v = 0
    for cid in range(1, n_cosets):
        witness[cid] = v = find(cid, v + 1)

    dist, limit = ball.dist, ball.radius - trust_margin
    trusted = tuple(dist[w] <= limit for w in witness)

    return CosetPatch(
        words=words,
        ball=ball,
        witness=witness,
        coset_of=coset_of,
        trusted=trusted,
    )


def coset_graph_cache_name(spec: GroupSpec, radius: int) -> str:
    """The graph file's name: the graph and ball formats name it too, so a
    ball built another way never serves an old graph."""
    key = f"{GRAPH_FORMAT}|{BALL_FORMAT}|{spec.describe()}|{radius}"
    return f"graph-{_digest(key.encode())[:16]}-r{radius}.graph"


def save_coset_graph(patch: CosetPatch, path: str) -> None:
    """Write the patch's coset graph as a cache file (cayley._write_cache_file).

    The header names the format, group and radius, the coset count n and
    the ball's sphere sizes, which a budget check reads; the body is
    ``marshal.dumps((dist, targets, offsets), 2)``, the bytes of the three
    int arrays of patch.graph.
    """
    graph = patch.graph
    header = {
        "format": GRAPH_FORMAT,
        "group": patch.spec.describe(),
        "n": patch.n_cosets,
        "radius": graph.radius,
        "sphere_sizes": patch.ball.sphere_sizes(),
    }
    _write_cache_file(path, header, (graph.dist, graph.targets, graph.offsets))


def load_coset_graph(path: str) -> Tuple[GroupSpec, List[int], CosetGraph]:
    """(group, the ball's sphere sizes, coset graph) of a graph file.

    Raises ValueError for a file of the wrong shape: the header and digest
    checks of cayley._read_cache_file, then the sizes, offsets that start
    at 0 and never decrease, and targets and distances in range.
    """
    with open(path, "rb") as fh:
        header, spec, fields = _read_cache_file(fh, GRAPH_FORMAT)
    radius, n, sizes = header["radius"], header["n"], header.get("sphere_sizes")
    if not (
        isinstance(sizes, list)
        and len(sizes) == radius + 1
        and all(type(size) is int and size >= 0 for size in sizes)
    ):
        raise ValueError("graph file sphere sizes do not suit its radius")
    if len(fields) != 3 or {type(f) for f in fields} != {bytes}:
        raise ValueError("graph file fields are not three byte strings")
    dist, targets, offsets = (array("i", field) for field in fields)
    if not (len(dist) == n >= 1 and len(offsets) == n + 1):
        raise ValueError("graph file fields disagree")
    if offsets[0] != 0 or offsets[-1] != len(targets):
        raise ValueError("graph file offsets do not span the targets")
    if not all(map(le, offsets, offsets[1:])):
        raise ValueError("graph file offsets decrease")
    if min(dist) < 0 or max(dist) > radius:
        raise ValueError("graph file distance out of range")
    if targets and (min(targets) < 0 or max(targets) >= n):
        raise ValueError("graph file coset id out of range")
    return spec, sizes, CosetGraph(radius, dist, targets, offsets)


def cached_coset_graph(
    spec: GroupSpec, radius: int, cache_dir: str, max_vertices: int = DEFAULT_VERTEX_BUDGET
) -> CosetGraph:
    """Q's coset graph of B(radius), read from the graph file in cache_dir
    when its header matches, without the ball.

    Otherwise, or when the file fails a check, the graph is the patch's of
    cached_ball(spec, radius, cache_dir, max_vertices), and the file is
    written for the next run; a cache directory that takes no file leaves
    it unwritten.  A graph file whose ball is larger than the budget raises
    the BallOverflowError the cold build would: vertex max_vertices lies in
    the first sphere where the sizes add up past it.
    """
    if max_vertices < 1:
        raise ValueError("vertex budget must be at least 1")
    path = os.path.join(cache_dir, coset_graph_cache_name(spec, radius))
    if os.path.exists(path):
        try:
            found, sizes, graph = load_coset_graph(path)
            if found == spec and graph.radius == radius:
                if max_vertices < sum(sizes):
                    layer = bisect_right(list(accumulate(sizes)), max_vertices)
                    raise BallOverflowError(layer, max_vertices + 1, max_vertices)
                return graph
        except ValueError:
            pass  # fall through and rebuild a corrupt or stale file
    patch = build_coset_patch(cached_ball(spec, radius, cache_dir, max_vertices))
    try:
        save_coset_graph(patch, path)
    except OSError:
        pass  # served unsaved, as from a read-only cache directory
    return patch.graph


def project_path(patch: CosetPatch, path: PathInBall) -> LambdaPath:
    """Project a ball path to the coset graph, contracting in-coset steps.

    The path steps on normal forms, so it may leave the ball; every coset
    it visits must meet the ball (vertex subgroup only).
    """
    ball = patch.ball
    v = path.base
    if v < 0 or v >= ball.n_vertices:
        raise InsufficientRadiusError(f"base vertex {v} not in ball")
    apply_letter = group_for(patch.spec).apply_letter
    a = ball.elements[v]
    cosets = [patch.coset_of[v]]
    letters: List[int] = []
    for step, letter in enumerate(path.word):
        a = apply_letter(a, letter)
        cid = patch.coset_of_element(a)
        if cid is None:
            raise InsufficientRadiusError(
                f"path leaves the patch at step {step} (letter {letter})",
                required_radius=ball.dist[v] + step + 1,
            )
        if cid != cosets[-1]:
            cosets.append(cid)
            letters.append(letter)
    return LambdaPath(tuple(cosets), tuple(letters))


class DegreeProfile(NamedTuple):
    """Degree statistics over trusted cosets only."""

    max_degree: int
    histogram: Tuple[Tuple[int, int], ...]
    per_label: Tuple[Tuple[int, int], ...]
    n_trusted: int


def degree_profile(patch: CosetPatch) -> DegreeProfile:
    trusted = [cid for cid in range(patch.n_cosets) if patch.trusted[cid]]
    hist = Counter(map(patch.degree, trusted))
    # one count per (coset, letter): that letter's targets from the coset
    targets = Counter((cid, letter) for cid in trusted for letter, _ in patch.edges(cid))
    per_label: Dict[int, int] = {}
    for (_, letter), count in targets.items():
        per_label[letter] = max(per_label.get(letter, 0), count)
    return DegreeProfile(
        max_degree=max(hist, default=0),
        histogram=tuple(sorted(hist.items())),
        per_label=tuple(sorted(per_label.items())),
        n_trusted=len(trusted),
    )
