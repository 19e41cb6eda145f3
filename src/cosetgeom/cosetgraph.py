"""Visible patch of the coset graph induced by a ball.

The coset graph has one vertex per left coset g*Q and, for every edge
(g, g*s) of the group's Cayley graph, an edge between the cosets of g and
g*s.  Right multiplication does not act on left cosets, so a single letter
may connect a coset to several neighbors; the patch records every neighbor
witnessed by an edge of the ball.  Letters that stay inside a coset project
to points and are not stored as edges.

A patch is an under-approximation: edges missing from the ball are missing
here.  Each coset carries a trust flag saying its earliest witness sits at
least ``trust_margin`` below the ball radius; untrusted cosets sit so close
to the boundary that their recorded degree is likely clipped.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from functools import cached_property
from itertools import accumulate, repeat
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from .cayley import NO_EDGE, Ball, PathInBall, bfs_distances
from .errors import ConfigError, InsufficientRadiusError
from .groups import GroupSpec, group_for
from .subgroups import VERTEX, WORDS, SubgroupSpec, coset_key, coset_label, q_letters

DEFAULT_TRUST_MARGIN = 1


class LambdaPath:
    """A walk in the coset graph: visited cosets plus the letter per step.

    Letters are the Cayley-graph letters whose projection produced each
    coset change; steps that stayed inside a coset are contracted away, so
    ``len(letters) == len(cosets) - 1`` and consecutive cosets differ.
    Paths compare and hash by (cosets, letters).
    """

    __slots__ = ("cosets", "letters")

    def __init__(self, cosets: Tuple[int, ...], letters: Tuple[int, ...]):
        if len(cosets) != len(letters) + 1:
            raise ValueError("coset/letter length mismatch")
        self.cosets = cosets
        self.letters = letters

    def __eq__(self, other):
        if other.__class__ is not LambdaPath:
            return NotImplemented
        return self.cosets == other.cosets and self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.cosets, self.letters))

    def __repr__(self) -> str:
        return f"LambdaPath(cosets={self.cosets!r}, letters={self.letters!r})"

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


class CosetPatch:
    """The part of the coset graph witnessed by one ball.

    The labelling is built with the patch: each ball vertex's coset and each
    coset's key, witness and trust flag.  The members of every coset (one
    CSR list) and the coset graph (flat ``array('i')`` edge and neighbour
    lists, and ``dist``) are built on first use, since lifts read neither
    and Hausdorff profiles read only the members.
    """

    def __init__(
        self,
        subgroup: SubgroupSpec,
        trust_margin: int,
        ball: Ball,
        keys: Tuple[bytes, ...],
        witness: array,  # each coset's earliest ball vertex
        coset_of: List[int],
        trusted: Tuple[bool, ...],
    ):
        self.subgroup = subgroup
        self.trust_margin = trust_margin
        self.ball = ball
        self.keys = keys
        self.witness = witness
        self.coset_of = coset_of
        self.trusted = trusted
        self._id_of_key = {key: cid for cid, key in enumerate(keys)}

    @property
    def spec(self) -> GroupSpec:
        return self.ball.spec

    @property
    def radius(self) -> int:
        return self.ball.radius

    @property
    def n_cosets(self) -> int:
        return len(self.keys)

    @property
    def base(self) -> int:
        return self.coset_of[0]

    @cached_property
    def _members(self) -> Tuple[array, array]:
        """(members, offsets): coset c holds members[offsets[c]:offsets[c + 1]]."""
        coset_of = self.coset_of
        # a stable sort keeps each coset's vertices ascending
        members = array("i", sorted(range(len(coset_of)), key=coset_of.__getitem__))
        sizes = map(Counter(coset_of).__getitem__, range(self.n_cosets))
        return members, array("i", accumulate(sizes, initial=0))

    @cached_property
    def _graph(self) -> Tuple[array, array, array, array, array]:
        """(targets, letters, offsets, link_targets, link_offsets) of the coset graph.

        Coset c's edges are letters[i] to targets[i] for offsets[c] <= i <
        offsets[c + 1], by letter then target; its neighbours, sorted and
        once each, are the same slice of link_targets under link_offsets.
        Both are read off the ball's slots.  Q-letter slots are skipped:
        those edges never leave a coset, in vertex mode because the letter
        lies in Q and in words mode because a one-letter generator word
        merges its two ends.
        """
        ball, coset_of, n = self.ball, self.coset_of, self.n_cosets
        slots, k = ball.adj, len(ball.letters)
        inside = set(q_letters(self.spec, self.subgroup))
        ranked = sorted((l, i) for i, l in enumerate(ball.letters) if l not in inside)
        n_ranks = len(ranked) or 1  # free:1 leaves no letter to rank
        width = n_ranks * n
        # one code (source * n_ranks + letter rank) * n + target per edge;
        # sorted, they come by source coset, then letter, then target coset
        codes = set()
        for rank, (_, i) in enumerate(ranked):
            codes.update(
                (cv * n_ranks + rank) * n + cu
                for cv, u in zip(coset_of, slots[i::k])
                if u != NO_EDGE
                for cu in (coset_of[u],)
                if cu != cv
            )
        edges = sorted(codes)
        del codes
        letter_of = [l for l, _ in ranked]
        targets = array("i", [e % n for e in edges])
        letters = array("i", [letter_of[e // n % n_ranks] for e in edges])
        offsets = _row_offsets(edges, width, n)
        links = sorted({e // width * n + e % n for e in edges})
        del edges
        link_targets = array("i", [e % n for e in links])
        return targets, letters, offsets, link_targets, _row_offsets(links, n, n)

    @cached_property
    def dist(self) -> array:
        """Coset-graph distance of each coset from the base coset Q."""
        return array("i", bfs_distances(self.neighbors, self.n_cosets, [self.base]))

    def coset_id(self, key: bytes) -> Optional[int]:
        return self._id_of_key.get(key)

    def neighbors(self, cid: int) -> array:
        """The coset's neighbours, sorted, once each."""
        graph = self._graph
        offsets = graph[4]
        return graph[3][offsets[cid] : offsets[cid + 1]]

    def degree(self, cid: int) -> int:
        offsets = self._graph[4]
        return offsets[cid + 1] - offsets[cid]

    def edges(self, cid: int) -> Iterator[Tuple[int, int]]:
        """(letter, coset) for each edge leaving the coset, by letter then coset."""
        targets, letters, offsets = self._graph[:3]
        start, stop = offsets[cid], offsets[cid + 1]
        return zip(letters[start:stop], targets[start:stop])

    def vertices_in_coset(self, cid: int) -> array:
        """The coset's ball vertices, ascending."""
        members, offsets = self._members
        return members[offsets[cid] : offsets[cid + 1]]


def _row_offsets(codes: List[int], width: int, n: int) -> array:
    """Where each row 0..n starts in sorted codes row * width + column."""
    starts = range(0, (n + 1) * width, width)
    return array("i", map(bisect_left, repeat(codes, n + 1), starts))


def graph_view(graph: Union[Ball, CosetPatch]):
    """(kind, dist, neighbors, horizon) of a ball or a coset patch.

    neighbors(v) may repeat a vertex and follows no particular order.
    """
    if isinstance(graph, Ball):
        return "ball", graph.dist, graph.neighbors, graph.radius
    if isinstance(graph, CosetPatch):
        return "patch", graph.dist, graph.neighbors, max(graph.dist)
    raise ConfigError(f"expected a ball or a coset patch, got {type(graph).__name__}")


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


def _coset_labels_words(ball: Ball, subgroup: SubgroupSpec) -> Iterator[int]:
    """Merge ball vertices connected by generator words of the subgroup.

    Two vertices land in one class when some chain of generator-word
    translations joins them without leaving the ball.  This under-merges
    near the boundary, which is exactly what the trust flags account for.
    """
    from .groups import inverse_word

    uf = _UnionFind(ball.n_vertices)
    gen_words = []
    for w in subgroup.words:
        word = tuple(w)
        gen_words.append(word)
        gen_words.append(inverse_word(word))
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


def build_coset_patch(
    q: SubgroupSpec,
    ball: Ball,
    trust_margin: int = DEFAULT_TRUST_MARGIN,
) -> CosetPatch:
    """Project the ball onto its coset graph patch.

    Cosets are numbered in order of their earliest ball vertex, so ids are
    stable for a fixed (group, subgroup, radius).  A coset is trusted when
    that earliest witness lies at distance <= radius - trust_margin.
    """
    if trust_margin < 1:
        raise ConfigError("trust_margin must be >= 1")

    spec = ball.spec
    ids: Dict = {}
    setdefault = ids.setdefault
    # one pass: a label is kept only if it opens a coset
    if q.mode == VERTEX:
        coset_of = [setdefault(coset_label(spec, q, a), len(ids)) for a in ball.elements]
    elif q.mode == WORDS:
        coset_of = [setdefault(root, len(ids)) for root in _coset_labels_words(ball, q)]
    else:
        raise ConfigError(f"unknown subgroup mode {q.mode!r}")
    # the first label of every coset goes before the keys are built, and
    # each transient below before the next, which keeps the build's peak low
    del ids, setdefault

    # ids are numbered in order of first vertex, so the first vertices,
    # ascending, are the witnesses of cosets 0, 1, ...
    n = len(coset_of)
    first = dict(zip(reversed(coset_of), range(n - 1, -1, -1)))
    witness = array("i", sorted(first.values()))
    del first

    if q.mode == VERTEX:
        keys = tuple(coset_key(spec, q, ball.elements[w]) for w in witness)
    else:
        group = group_for(spec)
        keys = tuple(group.canonical_key(ball.elements[w]) for w in witness)

    dist, limit = ball.dist, ball.radius - trust_margin
    trusted = tuple(dist[w] <= limit for w in witness)

    return CosetPatch(
        subgroup=q,
        trust_margin=trust_margin,
        ball=ball,
        keys=keys,
        witness=witness,
        coset_of=coset_of,
        trusted=trusted,
    )


def project_path(patch: CosetPatch, path: PathInBall) -> LambdaPath:
    """Project a ball path to the coset graph, contracting in-coset steps.

    The path steps on normal forms, so it may leave the ball; every coset
    it visits must meet the ball (vertex mode only).
    """
    ball, spec, q = patch.ball, patch.spec, patch.subgroup
    v = path.base
    if v < 0 or v >= ball.n_vertices:
        raise InsufficientRadiusError(f"base vertex {v} not in ball")
    apply_letter = group_for(spec).apply_letter
    a = ball.elements[v]
    cosets = [patch.coset_of[v]]
    letters: List[int] = []
    for step, letter in enumerate(path.word):
        a = apply_letter(a, letter)
        cid = patch.coset_id(coset_key(spec, q, a))
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
    n_cosets: int

    def histogram_dict(self) -> Dict[int, int]:
        return dict(self.histogram)


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
        n_cosets=patch.n_cosets,
    )
