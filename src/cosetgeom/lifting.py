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
Projecting the lift back to the coset graph returns the input exactly.  A
lift steps on normal forms and reads only F, so no ball radius limits it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from itertools import islice
from typing import TYPE_CHECKING, Dict, List, Tuple

from .cayley import Ball
from .errors import (
    ConfigError,
    ConstantViolationError,
    InsufficientRadiusError,
    NotCommensuratedError,
)
from .groups import GroupSpec, render_word
from .intmat import column_hnf, l1_covering_radius
from .subgroups import is_member, q_letters, q_norm, transfer_basis, transfer_walk

if TYPE_CHECKING:
    from .cosetgraph import CosetPatch, LambdaPath


class LiftConstants(namedtuple("LiftConstants", "f_per_letter m")):
    """F per letter as ((letter, F_s), ...) and M; F and L are read off them."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.f < 1 or self.m < 1:
            raise ConfigError("transfer constants must be positive")
        return self

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


class LiftResult(namedtuple("LiftResult", "blocks letters end")):
    """A lift of a coset-graph path: a Q-block before each crossing letter,
    ending at the element end."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.blocks) != len(self.letters):
            raise ValueError("one Q-block per crossing letter")
        return self

    @property
    def word(self) -> Tuple[int, ...]:
        out: List[int] = []
        for block, letter in zip(self.blocks, self.letters):
            out.extend(block)
            out.append(letter)
        return tuple(out)

    def block_lengths(self) -> Tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


def compute_f(spec: GroupSpec) -> Dict[int, int]:
    """Per-letter transfer constants F_s = 1 + the l1 covering radius of T_s.

    Raises NotCommensuratedError, naming the letters, when some T_s has
    lower rank than Q.
    """
    k = len(q_letters(spec)) // 2
    out: Dict[int, int] = {}
    for s in spec.letters:
        basis = transfer_basis(spec, s)
        if len(basis) == k:
            out[s] = 1 + l1_covering_radius(column_hnf(tuple(zip(*basis))))
    short = [render_word(spec, (s,)) for s in spec.letters if s not in out]
    if short:
        raise NotCommensuratedError(short)
    return out


def compute_m(ball: Ball, f: int) -> int:
    """Largest Q-length of a Q-element at ambient distance at most 2F+1."""
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
        if is_member(spec, a)
    )


def lift_constants(ball: Ball) -> LiftConstants:
    """F (per letter), M, and with them the loop bound L, all exact."""
    f_per_letter = compute_f(ball.spec)
    return LiftConstants(
        f_per_letter=tuple(f_per_letter.items()),
        m=compute_m(ball, max(f_per_letter.values())),
    )


def approximate_lift(patch: CosetPatch, lpath: LambdaPath, base: int) -> LiftResult:
    """Lift a coset-graph path to a group path through the given base vertex.

    Each block is the first transfer walk (subgroups.transfer_walk) from
    the last landing, on normal forms, so no ball bounds it; only F is read.
    The landings are labelled exactly, so a words patch is refused.
    """
    spec, ball, label = patch.spec, patch.ball, patch.labeller
    f = compute_f(spec)
    if not (0 <= base < ball.n_vertices):
        raise ConfigError(f"base vertex {base} not in ball")
    if patch.coset_of[base] != lpath.start:
        raise ConfigError("base vertex does not project to the path start")
    for cid in lpath.cosets:
        if not (0 <= cid < patch.n_cosets):
            raise ConfigError(f"coset id {cid} not in patch")

    elements, witness = ball.elements, patch.witness
    u = elements[base]
    blocks: List[Tuple[int, ...]] = []
    for i, s in enumerate(lpath.letters):
        target = label(elements[witness[lpath.cosets[i + 1]]])
        found = transfer_walk(spec, u, s, target, f[s] - 1)
        if found is None:
            raise ConstantViolationError(
                f"no transfer within {f[s] - 1} Q-steps at lift step {i}; "
                "F appears underestimated"
            )
        alpha, u = found
        blocks.append(alpha)
    return LiftResult(blocks=tuple(blocks), letters=lpath.letters, end=u)
