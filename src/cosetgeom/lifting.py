"""Transfer constants and approximate lifting of coset-graph paths.

For a letter s, the constant F_s bounds how far an element of Q must walk
inside Q (in Q's own word metric) before the s-edge at its position lands
in a prescribed neighboring coset: every such walk has length < F_s.  The
walk ends in the transfer subgroup T_s = Q ∩ sQs^-1, so F_s is 1 + the
covering radius of T_s in Q = Z^k, exact from the lattice T_s alone.  A
T_s of lower rank than Q has no finite covering radius: Q is then not
commensurated.  The companion constant M bounds the Q-word distance between
any two Q-elements whose ambient distance is at most 2F+1; it is the largest
Q-length among the Q-elements of the ball of radius 2F+1, which any Cayley
ball at least that large holds in full.

Lifting turns a path in the coset graph into an actual path in the group:
alternating blocks (alpha_0, e_1, alpha_1, e_2, ...) where each alpha_i is
a Q-letter walk of length < F and each e_i realizes one coset-graph edge.
Projecting the lift back to the coset graph returns the input exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from .cayley import Ball, walk_back
from .cosetgraph import CosetPatch, LambdaPath
from .errors import (
    ConfigError,
    InsufficientRadiusError,
    NotCommensuratedError,
    NoTransferVertexError,
)
from .groups import GroupSpec, render_word
from .intmat import column_hnf, l1_covering_radius
from .subgroups import (
    SubgroupSpec,
    VERTEX,
    is_member,
    q_letters,
    q_norm,
    transfer_basis,
)


@dataclass(frozen=True)
class LiftConstants:
    f_per_letter: Tuple[Tuple[int, int], ...]
    m: int

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


def compute_f(q: SubgroupSpec, spec: GroupSpec) -> Dict[int, int]:
    """Per-letter transfer constants F_s = 1 + the l1 covering radius of T_s.

    Raises NotCommensuratedError, naming the letters, when some T_s has
    lower rank than Q.
    """
    _require_vertex_mode(q)
    k = len(q_letters(spec, q)) // 2
    out: Dict[int, int] = {}
    for s in spec.letters:
        basis = transfer_basis(spec, q, s)
        if len(basis) == k:
            out[s] = 1 + l1_covering_radius(column_hnf(tuple(zip(*basis))))
    short = [render_word(spec, (s,)) for s in spec.letters if s not in out]
    if short:
        raise NotCommensuratedError(short)
    return out


def compute_m(q: SubgroupSpec, ball: Ball, f: int) -> int:
    """Largest Q-length of a Q-element at ambient distance at most 2F+1."""
    _require_vertex_mode(q)
    bound = 2 * f + 1
    if ball.radius < bound:
        raise InsufficientRadiusError(
            f"M needs every Q-element within distance {bound}, beyond radius "
            f"{ball.radius}",
            required_radius=bound,
        )
    spec = ball.spec
    # vertex ids follow BFS order, so the vertices within the bound come first
    return max(
        q_norm(spec, a)
        for a in islice(ball.elements, bisect_right(ball.dist, bound))
        if is_member(spec, q, a)
    )


def lift_constants(q: SubgroupSpec, ball: Ball) -> LiftConstants:
    """F (per letter), M, and with them the loop bound L, all exact."""
    f_per_letter = compute_f(q, ball.spec)
    return LiftConstants(
        f_per_letter=tuple(f_per_letter.items()),
        m=compute_m(q, ball, max(f_per_letter.values())),
    )


def _q_walk(
    start: Hashable,
    steps: Callable[[Hashable], Sequence[Tuple[int, Hashable]]],
    hit: Callable[[Hashable], Optional[Hashable]],
    max_len: int,
) -> Tuple[Optional[Tuple[Tuple[int, ...], Hashable]], List[list]]:
    """Shortest Q-walk from start (lexicographic tie-break) to a hit.

    Vertices are ball ids or group elements, and steps(u) gives u's
    Q-letter steps as (letter, vertex) in sorted letter order.  The walk has
    length at most max_len.  Right multiplication by an element of Q fixes
    the left coset, so the walk never leaves start's coset and needs no
    coset test.  hit(w) names the walk's result vertex at w (w itself for a
    goal, the landing vertex across a crossing edge) or None.  Returns
    ((walk, result vertex) or None, the layers searched).
    """
    seen = {start}
    layers = [[start]]
    while True:
        for w in layers[-1]:
            end = hit(w)
            if end is not None:
                return (walk_back(layers, w, steps), end), layers
        if len(layers) > max_len:
            return None, layers
        nxt = []
        for u in layers[-1]:
            for _, w in steps(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            return None, layers
        layers.append(nxt)


def _ball_steps(ball: Ball, qlets: Sequence[int]) -> Callable[[int], list]:
    """Q-walk steps between ball ids; a rim vertex is tested but never expanded."""
    ordered = sorted(qlets)

    def steps(u: int) -> List[Tuple[int, int]]:
        if not ball.complete(u):
            return []
        return [(letter, ball.neighbor(u, letter)) for letter in ordered]

    return steps


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

    steps = _ball_steps(ball, q_letters(spec, q))
    coset_of = patch.coset_of
    u = base
    blocks: List[Tuple[int, ...]] = []
    letters: List[int] = []
    for i, s in enumerate(lpath.letters):
        bound = constants.f_for(s)
        target = lpath.cosets[i + 1]

        def hit(w: int) -> Optional[int]:
            nb = ball.neighbor(w, s)
            return nb if nb is not None and coset_of[nb] == target else None

        found, layers = _q_walk(u, steps, hit, bound - 1)
        if found is None:
            # a rim vertex in the search may have had the missing transfer
            if any(not ball.complete(w) for layer in layers for w in layer):
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
