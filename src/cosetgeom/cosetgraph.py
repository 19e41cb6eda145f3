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
from collections import Counter
from functools import cached_property
from itertools import accumulate
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

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

    The labelling is built with the patch: each ball vertex's coset, and the
    members of every coset as one CSR list.  The coset graph itself (``adj``,
    ``links`` and ``dist``) is built on first use, since Hausdorff profiles
    and lifts read only the labelling.
    """

    def __init__(
        self,
        spec: GroupSpec,
        subgroup: SubgroupSpec,
        radius: int,
        trust_margin: int,
        ball: Ball,
        keys: Tuple[bytes, ...],
        witness: Tuple[int, ...],
        coset_of: Tuple[int, ...],
        trusted: Tuple[bool, ...],
        members: array,  # ball vertices grouped by coset, ascending within a coset
        offsets: array,  # coset c holds members[offsets[c]:offsets[c + 1]]
    ):
        self.spec = spec
        self.subgroup = subgroup
        self.radius = radius
        self.trust_margin = trust_margin
        self.ball = ball
        self.keys = keys
        self.witness = witness
        self.coset_of = coset_of
        self.trusted = trusted
        self.members = members
        self.offsets = offsets
        self._id_of_key = {key: cid for cid, key in enumerate(keys)}

    @property
    def n_cosets(self) -> int:
        return len(self.keys)

    @property
    def base(self) -> int:
        return self.coset_of[0]

    @cached_property
    def _graph(self):
        """(adj, links, dist) of the coset graph, read off the ball's slots.

        Q-letter slots are skipped: those edges never leave a coset, in
        vertex mode because the letter lies in Q and in words mode because
        a one-letter generator word merges its two ends.
        """
        ball, coset_of, n = self.ball, self.coset_of, self.n_cosets
        slots, k = ball.adj, len(ball.letters)
        inside = set(q_letters(self.spec, self.subgroup))
        buckets: List[Dict[int, List[int]]] = [{} for _ in range(n)]
        for letter, i in sorted((l, i) for i, l in enumerate(ball.letters)):
            if letter in inside:
                continue
            # one code cv * n + cu per coset pair; sorted, they come by
            # source coset, then target coset
            codes = {
                cv * n + coset_of[u]
                for cv, u in zip(coset_of, slots[i::k])
                if u != NO_EDGE
            }
            for code in sorted(codes):
                cv, cu = divmod(code, n)
                if cv != cu:
                    buckets[cv].setdefault(letter, []).append(cu)
        adj = tuple({l: tuple(t) for l, t in b.items()} for b in buckets)
        links = tuple(tuple(sorted({c for t in b.values() for c in t})) for b in adj)
        dist = bfs_distances(links.__getitem__, n, [self.base])
        return adj, links, tuple(dist)

    @property
    def adj(self) -> Tuple[Dict[int, Tuple[int, ...]], ...]:
        """Per coset, each leaving letter's target cosets, by letter then coset."""
        return self._graph[0]

    @property
    def links(self) -> Tuple[Tuple[int, ...], ...]:
        """Each coset's neighbours, sorted, once each."""
        return self._graph[1]

    @property
    def dist(self) -> Tuple[int, ...]:
        """Coset-graph distance of each coset from the base coset Q."""
        return self._graph[2]

    def coset_id(self, key: bytes) -> Optional[int]:
        return self._id_of_key.get(key)

    def neighbors(self, cid: int) -> Tuple[int, ...]:
        return self.links[cid]

    def degree(self, cid: int) -> int:
        return len(self.links[cid])

    def edges(self, cid: int) -> Iterator[Tuple[int, int]]:
        """(letter, coset) for each edge leaving the coset, by letter then coset."""
        for letter, targets in self.adj[cid].items():
            for target in targets:
                yield letter, target

    def vertices_in_coset(self, cid: int) -> array:
        """The coset's ball vertices, ascending."""
        return self.members[self.offsets[cid] : self.offsets[cid + 1]]


def graph_view(graph: Union[Ball, CosetPatch]):
    """(kind, dist, neighbors, horizon) of a ball or a coset patch.

    neighbors(v) may repeat a vertex and follows no particular order.
    """
    if isinstance(graph, Ball):
        return "ball", graph.dist, graph.neighbors, graph.radius
    if isinstance(graph, CosetPatch):
        return "patch", graph.dist, graph.links.__getitem__, max(graph.dist)
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


def _coset_labels_words(ball: Ball, subgroup: SubgroupSpec) -> List[int]:
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
    return [uf.find(v) for v in range(ball.n_vertices)]


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
    n = ball.n_vertices
    if q.mode == VERTEX:
        labels: Sequence = [coset_label(spec, q, a) for a in ball.elements]
    elif q.mode == WORDS:
        labels = _coset_labels_words(ball, q)
    else:
        raise ConfigError(f"unknown subgroup mode {q.mode!r}")

    ids: Dict = {}
    coset_of = [ids.setdefault(label, len(ids)) for label in labels]
    n_cosets = len(ids)
    # a stable sort keeps each coset's vertices ascending, so a coset's
    # first member is its earliest vertex, the witness
    members = array("i", sorted(range(n), key=coset_of.__getitem__))
    sizes = Counter(coset_of)
    offsets = array("i", accumulate((sizes[c] for c in range(n_cosets)), initial=0))
    witness = tuple(members[start] for start in offsets[:-1])

    if q.mode == VERTEX:
        keys = tuple(coset_key(spec, q, ball.elements[w]) for w in witness)
    else:
        group = group_for(spec)
        keys = tuple(group.canonical_key(ball.elements[w]) for w in witness)

    trusted = tuple(
        ball.dist[w] + trust_margin <= ball.radius for w in witness
    )

    return CosetPatch(
        spec=spec,
        subgroup=q,
        radius=ball.radius,
        trust_margin=trust_margin,
        ball=ball,
        keys=keys,
        witness=witness,
        coset_of=tuple(coset_of),
        trusted=trusted,
        members=members,
        offsets=offsets,
    )


def project_path(patch: CosetPatch, path: PathInBall) -> LambdaPath:
    """Project a ball path to the coset graph, contracting in-coset steps."""
    ball = patch.ball
    v = path.base
    if v < 0 or v >= ball.n_vertices:
        raise InsufficientRadiusError(f"base vertex {v} not in ball")
    cosets = [patch.coset_of[v]]
    letters: List[int] = []
    for step, letter in enumerate(path.word):
        nxt = ball.neighbor(v, letter)
        if nxt is None:
            raise InsufficientRadiusError(
                f"path leaves the ball at step {step} (letter {letter})"
            )
        v = nxt
        cid = patch.coset_of[v]
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
    hist: Dict[int, int] = {}
    per_label: Dict[int, int] = {}
    max_degree = 0
    n_trusted = 0
    for cid in range(patch.n_cosets):
        if not patch.trusted[cid]:
            continue
        n_trusted += 1
        deg = patch.degree(cid)
        hist[deg] = hist.get(deg, 0) + 1
        max_degree = max(max_degree, deg)
        for letter, targets in patch.adj[cid].items():
            per_label[letter] = max(per_label.get(letter, 0), len(targets))
    return DegreeProfile(
        max_degree=max_degree,
        histogram=tuple(sorted(hist.items())),
        per_label=tuple(sorted(per_label.items())),
        n_trusted=n_trusted,
        n_cosets=patch.n_cosets,
    )
