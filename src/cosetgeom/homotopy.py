"""Escape-ray systems and finite homotopy-ladder certificates.

A ray system equips every vertex of a ball or coset patch with a finite
outward path whose distance from the base strictly increases.  Rays built
this way leave any fixed finite set behind: only vertices at most as deep
as the set can have rays meeting it, which is the checkable finite form of
properness.

A ladder certifies that a Q-letter path crossed by a letter k can be pushed
to the far side of k through loops of bounded length.  Rung i connects the
landing points of consecutive transfer-and-cross moves by a Q-walk of
length at most M; the elementary loop around rung i has length at most
L = 2F + M + 1 and evaluates to the identity.  The certificate stores every
waypoint element so an independent verifier can recheck each loop with
group arithmetic alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple, Union

from .cayley import Ball, bfs_distances, first_hit
from .errors import ConfigError, ConstantViolationError
from .groups import Element, GroupSpec, group_for, inverse_word
from .subgroups import (
    SubgroupSpec,
    VERTEX,
    coset_key,
    coset_label,
    k_letters,
    q_letters,
    q_steps,
    transfer_walk,
)

if TYPE_CHECKING:
    from .cosetgraph import CosetPatch
    from .lifting import LiftConstants


class RaySystem(NamedTuple):
    graph_kind: str
    base: int
    horizon: int
    shell: Tuple[int, ...]
    rays: Tuple[Tuple[int, ...], ...]

    @property
    def n_vertices(self) -> int:
        return len(self.rays)

    def ray(self, v: int) -> Tuple[int, ...]:
        return self.rays[v]


def build_ray_system(graph: Union[Ball, CosetPatch], base: int = 0) -> RaySystem:
    """Outward rays: from each vertex, greedily step to deeper shells.

    A ray below the horizon steps to the least neighbour one shell deeper
    and goes on as that neighbour's ray, so rays are built from the deepest
    shell inward, each from the one it continues.
    """
    from .cosetgraph import graph_view

    kind, dist, neighbors, _ = graph_view(graph)
    n = len(dist)
    if not (0 <= base < n):
        raise ConfigError(f"base vertex {base} not in graph")
    # the graph's own distances are from vertex 0
    shell = list(dist) if base == 0 else bfs_distances(neighbors, n, [base])
    horizon = max(shell)

    rays: List[Tuple[int, ...]] = [()] * n
    for v in sorted(range(n), key=shell.__getitem__, reverse=True):
        d = shell[v]
        outward = [w for w in neighbors(v) if shell[w] == d + 1] if d < horizon else ()
        rays[v] = (v, *rays[min(outward)]) if outward else (v,)
    return RaySystem(
        graph_kind=kind,
        base=base,
        horizon=horizon,
        shell=tuple(shell),
        rays=tuple(rays),
    )


class LadderViolation(NamedTuple):
    loop: int
    kind: str
    detail: str


class LadderReport(NamedTuple):
    n_loops: int
    violations: Tuple[LadderViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def failed_loops(self) -> Tuple[int, ...]:
        return tuple(sorted({v.loop for v in self.violations}))


class Ladder(NamedTuple):
    constants: LiftConstants
    prefix: Tuple[int, ...]
    crossing: int
    target_key: bytes
    prefix_elements: Tuple[Element, ...]
    transfer_ends: Tuple[Element, ...]
    rung_ends: Tuple[Element, ...]
    alphas: Tuple[Tuple[int, ...], ...]
    rungs: Tuple[Tuple[int, ...], ...]

    @property
    def n_loops(self) -> int:
        return len(self.prefix)

    def loop_word(self, i: int) -> Tuple[int, ...]:
        return (
            self.alphas[i]
            + (self.crossing,)
            + self.rungs[i]
            + (-self.crossing,)
            + inverse_word(self.alphas[i + 1])
            + (-self.prefix[i],)
        )

    def loop_words(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(self.loop_word(i) for i in range(self.n_loops))

    def output_word(self) -> Tuple[int, ...]:
        out: List[int] = [self.crossing]
        for rung in self.rungs:
            out.extend(rung)
        return tuple(out)


def build_ladder(
    q: SubgroupSpec,
    spec: GroupSpec,
    prefix: Sequence[int],
    crossing: int,
    constants: LiftConstants,
) -> Ladder:
    """Build and check a homotopy ladder along a Q-letter prefix from the
    identity, stepping on normal forms: no ball bounds its walks."""
    if q.mode != VERTEX:
        raise ConfigError("ladders need exact coset keys (vertex mode)")
    qlets = q_letters(spec, q)
    if crossing not in k_letters(spec, q):
        raise ConfigError(f"crossing letter {crossing} must lie outside Q")
    prefix = tuple(int(e) for e in prefix)
    for e in prefix:
        if e not in qlets:
            raise ConfigError(f"prefix letter {e} must lie in Q")

    group = group_for(spec)
    prefix_elements = [group.identity()]
    for e in prefix:
        prefix_elements.append(group.apply_letter(prefix_elements[-1], e))

    f_bound = constants.f_for(crossing)
    alphas: List[Tuple[int, ...]] = []
    transfer_ends: List[Element] = []
    rung_ends: List[Element] = []
    # the first crossing fixes the target coset; later ones must match it
    target: Optional[Tuple] = None
    for i, v in enumerate(prefix_elements):
        found = transfer_walk(spec, q, v, crossing, target, f_bound - 1)
        if found is None:
            raise ConstantViolationError(
                f"no transfer within {f_bound - 1} Q-steps at rung {i}; "
                "F appears underestimated"
            )
        alpha, landing = found
        if target is None:
            target = coset_label(spec, q, landing)
        alphas.append(alpha)
        rung_ends.append(landing)
        transfer_ends.append(group.evaluate_word(alpha, v))

    steps = q_steps(spec, q)
    rungs: List[Tuple[int, ...]] = []
    for i in range(len(prefix)):
        goal = rung_ends[i + 1]
        found, _ = first_hit(
            rung_ends[i], steps, lambda w: w if w == goal else None, constants.m
        )
        if found is None:
            raise ConstantViolationError(
                f"no Q-walk of length <= {constants.m} between rung ends "
                f"{i} and {i + 1}; M appears underestimated"
            )
        rung, _ = found
        rungs.append(rung)

    ladder = Ladder(
        constants=constants,
        prefix=prefix,
        crossing=crossing,
        target_key=coset_key(spec, q, rung_ends[0]),
        prefix_elements=tuple(prefix_elements),
        transfer_ends=tuple(transfer_ends),
        rung_ends=tuple(rung_ends),
        alphas=tuple(alphas),
        rungs=tuple(rungs),
    )
    report = verify_ladder(spec, ladder)
    if not report.ok:
        first = report.violations[0]
        raise ConstantViolationError(
            f"freshly built ladder fails its own check: loop {first.loop}, "
            f"{first.kind}: {first.detail}"
        )
    return ladder


def verify_ladder(spec: GroupSpec, ladder: Ladder) -> LadderReport:
    """Recheck every loop of a ladder using group arithmetic only."""
    group = group_for(spec)
    ident = group.identity()
    violations: List[LadderViolation] = []
    n = ladder.n_loops
    consts = ladder.constants
    f_bound = consts.f_for(ladder.crossing)

    def leg(word: Sequence[int], start: Element) -> Element:
        return group.evaluate_word(word, start)

    shapes_ok = (
        len(ladder.alphas) == n + 1
        and len(ladder.rungs) == n
        and len(ladder.prefix_elements) == n + 1
        and len(ladder.transfer_ends) == n + 1
        and len(ladder.rung_ends) == n + 1
    )
    if not shapes_ok:
        return LadderReport(
            n_loops=n,
            violations=(
                LadderViolation(-1, "structure", "component counts disagree"),
            ),
        )

    for i in range(n):
        word = ladder.loop_word(i)
        if group.evaluate_word(word) != ident:
            violations.append(
                LadderViolation(i, "word", "raw loop word is not a relation")
            )
        if len(word) > consts.l:
            violations.append(
                LadderViolation(
                    i, "length", f"loop length {len(word)} exceeds L={consts.l}"
                )
            )
        if len(ladder.rungs[i]) > consts.m:
            violations.append(
                LadderViolation(
                    i,
                    "length",
                    f"rung length {len(ladder.rungs[i])} exceeds M={consts.m}",
                )
            )
        for j in (i, i + 1):
            if len(ladder.alphas[j]) >= f_bound:
                violations.append(
                    LadderViolation(
                        i,
                        "length",
                        f"transfer walk length {len(ladder.alphas[j])} "
                        f"reaches F={f_bound}",
                    )
                )
                break

        closes = (
            leg(ladder.alphas[i], ladder.prefix_elements[i])
            == ladder.transfer_ends[i]
            and leg((ladder.crossing,), ladder.transfer_ends[i])
            == ladder.rung_ends[i]
            and leg(ladder.rungs[i], ladder.rung_ends[i]) == ladder.rung_ends[i + 1]
            and leg((-ladder.crossing,), ladder.rung_ends[i + 1])
            == ladder.transfer_ends[i + 1]
            and leg(inverse_word(ladder.alphas[i + 1]), ladder.transfer_ends[i + 1])
            == ladder.prefix_elements[i + 1]
            and leg((-ladder.prefix[i],), ladder.prefix_elements[i + 1])
            == ladder.prefix_elements[i]
        )
        if not closes:
            violations.append(
                LadderViolation(
                    i, "identity", "loop does not close through its waypoints"
                )
            )
    return LadderReport(n_loops=n, violations=tuple(violations))
