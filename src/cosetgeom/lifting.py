"""Transfer constants and approximate lifting of coset-graph paths.

For a letter s, the constant F_s bounds how far an element of Q must walk
inside Q (in Q's own word metric) before the s-edge at its position lands
in a prescribed neighboring coset: every such walk has length < F_s.  The
companion constant M bounds the Q-word distance between any two Q-elements
whose ambient distance is at most 2F+1.  Both are suprema over the whole
group; a ball computation reports the maximum over the ball at each of the
two largest radii and certifies the value only when the radii agree.

Lifting turns a path in the coset graph into an actual path in the group:
alternating blocks (alpha_0, e_1, alpha_1, e_2, ...) where each alpha_i is
a Q-letter walk of length < F and each e_i realizes one coset-graph edge.
Projecting the lift back to the coset graph returns the input exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cayley import Ball, bfs_layers, walk_back
from .cosetgraph import CosetPatch, LambdaPath
from .errors import (
    ConfigError,
    InsufficientRadiusError,
    NotStabilizedError,
    NoTransferVertexError,
)
from .groups import group_for, render_word
from .subgroups import SubgroupSpec, VERTEX, is_member, q_letters

STABLE = "Stable"
BALL_LIMITED = "BallLimited"


@dataclass(frozen=True)
class ConstantScan:
    """One constant evaluated at several radii of the same ball."""

    name: str
    radii: Tuple[int, ...]
    values: Tuple[int, ...]

    @property
    def stable(self) -> bool:
        return len(self.values) >= 2 and self.values[-1] == self.values[-2]

    @property
    def final(self) -> int:
        return self.values[-1]


@dataclass(frozen=True)
class LiftConstants:
    f_per_letter: Tuple[Tuple[int, int], ...]
    m: int
    confidence: str

    def __post_init__(self):
        if self.f < 1 or self.m < 1:
            raise ConfigError("transfer constants must be positive")

    @property
    def f(self) -> int:
        """The largest per-letter transfer constant, 0 when there is none."""
        return max((value for _, value in self.f_per_letter), default=0)

    @property
    def l(self) -> int:
        """The loop bound L = 2F + M + 1."""
        return 2 * self.f + self.m + 1

    def f_for(self, letter: int) -> int:
        for l, value in self.f_per_letter:
            if l == letter:
                return value
        raise ConfigError(f"no transfer constant for letter {letter}")


@dataclass(frozen=True)
class LiftResult:
    input_path: LambdaPath
    base: int
    blocks: Tuple[Tuple[int, ...], ...]
    letters: Tuple[int, ...]
    end: int

    def __post_init__(self):
        if len(self.blocks) != len(self.letters):
            raise ValueError("one Q-block per crossing letter")

    @property
    def word(self) -> Tuple[int, ...]:
        out: List[int] = []
        for block, letter in zip(self.blocks, self.letters):
            out.extend(block)
            out.append(letter)
        return tuple(out)

    def block_lengths(self) -> Tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


def _require_vertex_mode(q: SubgroupSpec) -> None:
    if q.mode != VERTEX:
        raise ConfigError("transfer constants need exact membership (vertex mode)")


def _default_radii(ball: Ball, radii: Optional[Sequence[int]]) -> Tuple[int, ...]:
    if radii is None:
        radii = (ball.radius - 1, ball.radius)
    radii = tuple(int(r) for r in radii)
    if len(radii) < 2:
        raise ConfigError("stabilization needs at least two radii")
    if list(radii) != sorted(radii):
        raise ConfigError("radii must be nondecreasing")
    if radii[0] < 1 or radii[-1] > ball.radius:
        raise ConfigError("radii must lie inside the ball")
    return radii


def _q_vertex_ids(q: SubgroupSpec, ball: Ball) -> List[int]:
    return [vid for vid, a in enumerate(ball.elements) if is_member(ball.spec, q, a)]


def _q_steps(ball: Ball, qlets: Sequence[int], radius: int) -> Callable[[int], List[int]]:
    """Neighbours of a vertex across Q-letters, restricted to dist <= radius.

    A Q-letter step from a Q-vertex lands in Q again, so a search from
    Q-vertices never leaves Q and needs no membership test.
    """

    def steps(v: int) -> List[int]:
        across = (ball.neighbor(v, letter) for letter in qlets)
        return [w for w in across if w is not None and ball.dist[w] <= radius]

    return steps


def compute_f(
    q: SubgroupSpec,
    ball: Ball,
    radii: Optional[Sequence[int]] = None,
) -> Dict[int, ConstantScan]:
    """Per-letter transfer constants, evaluated at each radius."""
    _require_vertex_mode(q)
    radii = _default_radii(ball, radii)
    spec = ball.spec
    group = group_for(spec)
    q_ids = _q_vertex_ids(q, ball)
    qlets = q_letters(spec, q)
    q_within = {r: sum(1 for vid in q_ids if ball.dist[vid] <= r) for r in radii}

    out: Dict[int, ConstantScan] = {}
    for s in spec.letters:
        s_el = group.evaluate_word((s,))
        s_inv = group.evaluate_word((-s,))
        transfer = [
            vid
            for vid in q_ids
            if is_member(
                spec, q, group.multiply(group.multiply(s_inv, ball.elements[vid]), s_el)
            )
        ]
        values = []
        for r in radii:
            sources = [vid for vid in transfer if ball.dist[vid] <= r]
            search = bfs_layers(_q_steps(ball, qlets, r), ball.n_vertices, sources)
            sizes = [len(layer) for layer in search]
            # the search stays among the Q-vertices within r, so it reached
            # them all when the counts agree, the last ones len(sizes) - 1 away
            if sum(sizes) != q_within[r]:
                raise NoTransferVertexError(
                    f"letter {render_word(spec, (s,))} has unreachable Q-vertices "
                    f"at radius {r}"
                )
            values.append(len(sizes))
        out[s] = ConstantScan(
            name=f"F[{render_word(spec, (s,))}]",
            radii=radii,
            values=tuple(values),
        )
    return out


def compute_m(
    q: SubgroupSpec,
    ball: Ball,
    f: int,
    radii: Optional[Sequence[int]] = None,
) -> ConstantScan:
    """Q-word diameter of ambient-metric balls of radius 2F+1 inside Q."""
    _require_vertex_mode(q)
    radii = _default_radii(ball, radii)
    bound = 2 * f + 1
    if bound > radii[0]:
        raise ConfigError(
            f"pair distance bound {bound} exceeds the smallest radius {radii[0]}"
        )
    spec = ball.spec
    qlets = q_letters(spec, q)
    identity_vid = 0
    # vertex ids follow BFS order, so the vertices within the bound come first
    deltas = [
        vid
        for vid in range(1, bisect_right(ball.dist, bound))
        if is_member(spec, q, ball.elements[vid])
    ]

    values = []
    for r in radii:
        layers = bfs_layers(_q_steps(ball, qlets, r), ball.n_vertices, [identity_vid])
        dist = {vid: d for d, layer in enumerate(layers) for vid in layer}
        worst = 0
        for vid in deltas:
            if vid not in dist:
                raise NoTransferVertexError(
                    f"Q-vertex at ambient distance {ball.dist[vid]} unreachable "
                    f"inside radius {r}"
                )
            worst = max(worst, dist[vid])
        values.append(worst)
    return ConstantScan(name="M", radii=radii, values=tuple(values))


def lift_constants(
    q: SubgroupSpec,
    ball: Ball,
    radii: Optional[Sequence[int]] = None,
    strict: bool = True,
) -> LiftConstants:
    """Compute and certify F (per letter), M, and the loop bound L."""
    scans = compute_f(q, ball, radii)
    return certify_constants(q, ball, scans, strict)[0]


def certify_constants(
    q: SubgroupSpec,
    ball: Ball,
    scans: Dict[int, ConstantScan],
    strict: bool = True,
) -> Tuple[LiftConstants, ConstantScan]:
    """Certify compute_f's scans, then scan M at their radii; returns the M scan too."""
    letters = ball.spec.letters
    stable = True
    for s in sorted(scans, key=lambda l: (abs(l), -l)):
        scan = scans[s]
        if not scan.stable:
            if strict:
                raise NotStabilizedError(scan.name, scan.values)
            stable = False
    f = max(scan.final for scan in scans.values())
    # compute_f scans every letter at the same radii
    m_scan = compute_m(q, ball, f, scans[letters[0]].radii)
    if not m_scan.stable:
        if strict:
            raise NotStabilizedError(m_scan.name, m_scan.values)
        stable = False
    constants = LiftConstants(
        f_per_letter=tuple((s, scans[s].final) for s in letters),
        m=m_scan.final,
        confidence=STABLE if stable else BALL_LIMITED,
    )
    return constants, m_scan


def _q_walk(
    ball: Ball,
    qlets: Sequence[int],
    start: int,
    hit: Callable[[int], Optional[int]],
    max_len: int,
) -> Tuple[Optional[Tuple[Tuple[int, ...], int]], bool]:
    """Shortest Q-walk from start (lexicographic tie-break) to a hit.

    The walk steps along Q-letters and has length at most max_len.  Right
    multiplication by an element of Q fixes the left coset, so the walk
    never leaves start's coset and needs no coset test.  hit(w) names the
    walk's result vertex at w (w itself for a goal, the landing vertex
    across a crossing edge) or None.  Returns ((walk, result vertex),
    saw_rim); saw_rim reports whether the search touched the ball boundary,
    which tells truncation from genuine absence.
    """
    ordered = sorted(qlets)

    def steps(u: int) -> List[Tuple[int, int]]:
        # rim vertices are tested for hits but never expanded
        if not ball.complete(u):
            return []
        return [(letter, ball.neighbor(u, letter)) for letter in ordered]

    layers: List[List[int]] = []
    saw_rim = False
    search = bfs_layers(lambda u: [w for _, w in steps(u)], ball.n_vertices, [start])
    for layer in islice(search, max_len + 1):
        layers.append(layer)
        for w in layer:
            if not ball.complete(w):
                saw_rim = True
            end = hit(w)
            if end is not None:
                return (walk_back(layers, w, steps), end), saw_rim
    return None, saw_rim


def _crossing(
    ball: Ball, letter: int, lands: Callable[[int], bool]
) -> Callable[[int], Optional[int]]:
    """A hit test: the letter's edge at w exists and lands where wanted."""

    def hit(w: int) -> Optional[int]:
        nb = ball.neighbor(w, letter)
        return nb if nb is not None and lands(nb) else None

    return hit


def approximate_lift(
    patch: CosetPatch,
    lpath: LambdaPath,
    base: int,
    constants: Optional[LiftConstants] = None,
) -> LiftResult:
    """Lift a coset-graph path to a group path through the given base vertex."""
    spec, q, ball = patch.spec, patch.subgroup, patch.ball
    _require_vertex_mode(q)
    if not (0 <= base < ball.n_vertices):
        raise ConfigError(f"base vertex {base} not in ball")
    if patch.coset_of[base] != lpath.start:
        raise ConfigError("base vertex does not project to the path start")
    for cid in lpath.cosets:
        if not (0 <= cid < patch.n_cosets):
            raise ConfigError(f"coset id {cid} not in patch")
    if constants is None:
        constants = lift_constants(q, ball)

    qlets = q_letters(spec, q)
    coset_of = patch.coset_of
    u = base
    blocks: List[Tuple[int, ...]] = []
    letters: List[int] = []
    for i, s in enumerate(lpath.letters):
        bound = constants.f_for(s)
        target = lpath.cosets[i + 1]
        found, saw_rim = _q_walk(
            ball,
            qlets,
            u,
            hit=_crossing(ball, s, lambda v: coset_of[v] == target),
            max_len=bound - 1,
        )
        if found is None:
            if saw_rim:
                raise InsufficientRadiusError(
                    f"lift step {i} reached the ball boundary "
                    f"(radius {ball.radius})"
                )
            raise NoTransferVertexError(
                f"no transfer vertex within {bound - 1} Q-steps at lift step {i}"
            )
        alpha, landing = found
        blocks.append(alpha)
        letters.append(s)
        u = landing
    return LiftResult(
        input_path=lpath,
        base=base,
        blocks=tuple(blocks),
        letters=tuple(letters),
        end=u,
    )
