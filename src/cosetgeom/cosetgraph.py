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
from collections import Counter, defaultdict
from functools import cached_property
from itertools import count, repeat
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from .cayley import NO_EDGE, Ball, PathInBall, bfs_distances
from .errors import ConfigError, InsufficientRadiusError, SubgroupModeError
from .groups import Element, GroupSpec, group_for
from .subgroups import VERTEX, WORDS, SubgroupSpec, coset_key, coset_labeller, q_letters

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
    coset's witness and trust flag.  Every other part is built on first use
    and kept: the keys (for DOT and dumps), the label index behind
    coset_of_element, the neighbour lists (behind neighbors, degree and
    dist), the lettered edges and each coset's member list.  So a lift
    builds none of them, a Hausdorff profile only the index and two member
    lists, and an ends count only the neighbour lists.
    """

    def __init__(
        self,
        subgroup: SubgroupSpec,
        trust_margin: int,
        ball: Ball,
        witness: array,  # each coset's earliest ball vertex
        coset_of: List[int],
        trusted: Tuple[bool, ...],
    ):
        self.subgroup = subgroup
        self.trust_margin = trust_margin
        self.ball = ball
        self.witness = witness
        self.coset_of = coset_of
        self.trusted = trusted
        self._members: Dict[int, array] = {}

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
        """Each coset's canonical byte key: its coset_key in vertex mode, its
        witness's group key in words mode."""
        elements, spec, q = self.ball.elements, self.spec, self.subgroup
        if q.mode == VERTEX:
            return tuple(coset_key(spec, q, elements[w]) for w in self.witness)
        group = group_for(spec)
        return tuple(group.canonical_key(elements[w]) for w in self.witness)

    @cached_property
    def _id_of_label(self) -> Dict[Tuple, int]:
        if self.subgroup.mode != VERTEX:
            raise SubgroupModeError("coset labels need a vertex subgroup")
        label, elements = coset_labeller(self.spec), self.ball.elements
        return {label(elements[w]): cid for cid, w in enumerate(self.witness)}

    def coset_of_element(self, a: Element) -> Optional[int]:
        """The id of the coset a*Q, or None when it has no ball vertex
        (vertex mode only)."""
        return self._id_of_label.get(coset_labeller(self.spec)(a))

    def _codes(self, rank_of: Dict[int, int]) -> List[int]:
        """Sorted distinct codes (source * n_ranks + rank) * n + target, one
        per coset edge, for the letters ranked in rank_of.

        They are read off the ball's slots.  Q-letters get no rank: their
        edges never leave a coset, in vertex mode because the letter lies in
        Q and in words mode because a one-letter generator word merges its
        two ends.
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
        inside = set(q_letters(self.spec, self.subgroup))
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

    # one pass: each label takes the next id the first time it is seen
    if q.mode == VERTEX:
        labels = map(coset_labeller(ball.spec), ball.elements)
    elif q.mode == WORDS:
        labels = _coset_labels_words(ball, q)
    else:
        raise ConfigError(f"unknown subgroup mode {q.mode!r}")
    ids = defaultdict(count().__next__)
    coset_of = list(map(ids.__getitem__, labels))
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
        subgroup=q,
        trust_margin=trust_margin,
        ball=ball,
        witness=witness,
        coset_of=coset_of,
        trusted=trusted,
    )


def project_path(patch: CosetPatch, path: PathInBall) -> LambdaPath:
    """Project a ball path to the coset graph, contracting in-coset steps.

    The path steps on normal forms, so it may leave the ball; every coset
    it visits must meet the ball (vertex mode only).
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
