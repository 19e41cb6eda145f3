"""End counting on balls and coset patches, plus verified escape paths.

The number of ends of a graph is approximated at finite scale by counting
connected components of the annulus r <= dist <= R that touch the outer
sphere dist == R.  Touching the sphere is the finite surrogate for being
unbounded; agreement of the count across the two largest inner radii is
the finite surrogate for stability.  A strictly growing count is evidence
of infinitely many ends, never proof, and reports say so.

The escape construction answers: from a start vertex, avoiding a finite
excluded set C, can we reach a prescribed coset?  It mirrors the shape of
the underlying argument: first travel inside the start vertex's own coset
until clear of the K-neighborhood of C (K the stabilized Hausdorff bound),
then route to the target coset.  Every returned path can be re-checked by
an independent verifier that uses only group arithmetic.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .cayley import Ball, PathInBall, bfs_layers, first_hit, star
from .cosetgraph import CosetPatch, _UnionFind, graph_view
from .errors import (
    ConfigError,
    EmptyCosetInBallError,
    EscapeBlockedError,
    InsufficientRadiusError,
    NoRouteWithinBallError,
    NotStabilizedError,
    ScheduleExceedsBallError,
)
from .groups import Element, group_for
from .metrics import (
    COMMENSURATED,
    INCONCLUSIVE,
    default_radii,
    default_test_elements,
    hausdorff_profile,
)
from .subgroups import coset_key

ZERO_ENDS = "ZeroEnds"
STABLE_COUNT = "StableCount"
GROWING = "Growing"

Schedule = Sequence[Tuple[int, int]]


class EndsReport(NamedTuple):
    graph_kind: str
    horizon: int
    schedule: Tuple[Tuple[int, int], ...]
    counts: Tuple[int, ...]
    classification: str
    count: Optional[int]

    def label(self) -> str:
        if self.classification == STABLE_COUNT:
            return f"StableCount({self.count})"
        return self.classification


def default_schedule(horizon: int) -> List[Tuple[int, int]]:
    """Annuli with shared outer radius horizon - 2 and inner radii 2 and up."""
    outer = horizon - 2
    inner_top = outer - 4
    inners = list(range(2, inner_top + 1))
    if len(inners) < 2:
        inners = list(range(1, inner_top + 1))
    if len(inners) < 2:
        # horizon 8 gives inner radii 1 and 2, so a ball needs radius 8;
        # ends_report turns this into the radius a patch needs
        raise InsufficientRadiusError(
            f"horizon {horizon} too small for an ends schedule", required_radius=8
        )
    return [(r, outer) for r in inners]


def _annulus_counts(
    dist: Sequence[int], neighbors: Callable[[int], Iterable[int]], schedule: Schedule
) -> Tuple[int, ...]:
    """Per annulus (r, R) of the schedule, its components that touch dist == R.

    One union-find per outer radius R takes the shells R, R - 1, ... in
    turn; once shell r is in, it holds exactly the annulus r <= dist <= R,
    so every inner radius paired with R is read off the one sweep.
    """
    n = len(dist)
    shells: List[List[int]] = [[] for _ in range(max(R for _, R in schedule) + 1)]
    for v, d in enumerate(dist):
        if 0 <= d < len(shells):
            shells[d].append(v)
    found: Dict[Tuple[int, int], int] = {}
    for R in {R for _, R in schedule}:
        inner = {r for r, outer in schedule if outer == R}
        uf, member = _UnionFind(n), bytearray(n)
        union = uf.union
        for d in range(R, min(inner) - 1, -1):
            for v in shells[d]:
                member[v] = 1
                for w in neighbors(v):
                    if member[w]:
                        union(v, w)
            if d in inner:
                found[d, R] = len(set(map(uf.find, shells[R])))
    return tuple(found[annulus] for annulus in schedule)


def _classify(counts: Sequence[int]) -> Tuple[str, Optional[int]]:
    if len(counts) < 2:
        return INCONCLUSIVE, None
    if counts[-1] == counts[-2]:
        if counts[-1] == 0:
            return ZERO_ENDS, 0
        return STABLE_COUNT, counts[-1]
    if all(a < b for a, b in zip(counts, counts[1:])):
        return GROWING, None
    return INCONCLUSIVE, None


def ends_report(
    graph: Union[Ball, CosetPatch], schedule: Optional[Schedule] = None
) -> EndsReport:
    """Count sphere-touching annulus components over a schedule of (r, R)."""
    kind, dist, neighbors, horizon = graph_view(graph)
    # A patch's horizon grows by at most 1 per unit of ball radius: the new
    # cosets of B(R + 1) sit one edge from B(R), and old distances only
    # shrink.  So horizon h needs radius >= h + lag; a ball's horizon is its
    # radius, and its lag 0.
    lag = graph.radius - horizon
    if schedule is None:
        try:
            schedule = default_schedule(horizon)
        except InsufficientRadiusError as exc:
            exc.required_radius += lag  # it names the horizon needed
            raise
    schedule = [(int(r), int(R)) for r, R in schedule]
    if not schedule:
        raise ConfigError("empty ends schedule")
    for r, R in schedule:
        if not (1 <= r < R):
            raise ConfigError(f"bad annulus ({r}, {R})")
        if R > horizon - 1:
            raise ScheduleExceedsBallError(
                f"annulus ({r}, {R}) reaches past usable horizon {horizon - 1}",
                required_radius=lag + R + 1,
            )
    rs = [r for r, _ in schedule]
    if sorted(rs) != rs:
        raise ConfigError("schedule must have nondecreasing inner radii")

    counts = _annulus_counts(dist, neighbors, schedule)
    classification, count = _classify(counts)
    return EndsReport(
        graph_kind=kind,
        horizon=horizon,
        schedule=tuple(schedule),
        counts=counts,
        classification=classification,
        count=count,
    )


def stable_hausdorff_bound(patch: CosetPatch) -> int:
    """The constant K: max stabilized Hausdorff distance over generator cosets.

    Raises NotStabilizedError when any generator profile fails to stabilize,
    since escape construction is only meaningful with commensuration evidence.
    """
    radii = default_radii(patch.radius)
    k = 0
    for name, g in default_test_elements(patch.spec):
        profile = hausdorff_profile(patch, g, radii)
        if profile.verdict != COMMENSURATED:
            raise NotStabilizedError("K", profile.k_values())
        k = max(k, profile.final_k())
    return k


def _blocked_region(patch: CosetPatch, excluded: FrozenSet[int]) -> Set[int]:
    """The excluded set plus bounded in-coset pockets it cuts off.

    A vertex of a coset that meets the excluded set is blocked when no path
    inside its coset that avoids the set joins it to the outer sphere: its
    pocket is a dead end for in-coset travel.
    """
    ball, coset_of = patch.ball, patch.coset_of
    hit = {coset_of[v] for v in excluded}
    members = {v for c in hit for v in patch.vertices_in_coset(c)} - excluded
    rim = [v for v in members if ball.dist[v] == ball.radius]

    def in_coset(v: int) -> List[int]:
        cid = coset_of[v]
        return [w for w in ball.neighbors(v) if w in members and coset_of[w] == cid]

    joined = {v for layer in bfs_layers(in_coset, rim) for v in layer}
    return (members - joined).union(excluded)


def escape_route(
    patch: CosetPatch,
    c_vertices: Iterable[int],
    v: int,
    g: Element,
    k: Optional[int] = None,
) -> PathInBall:
    """A path from v into the coset of g that avoids the excluded vertices.

    The path travels inside v's own coset until it clears the K-neighborhood
    of the excluded set, then routes freely (still avoiding the set) into the
    target coset.  K may be passed in to reuse a previously computed bound.
    """
    ball = patch.ball
    coset_of = patch.coset_of
    excluded = frozenset(c_vertices)
    n = ball.n_vertices
    for u in excluded:
        if not (0 <= u < n):
            raise ConfigError(f"excluded vertex {u} not in ball")
    if not (0 <= v < n):
        raise ConfigError(f"start vertex {v} not in ball")
    if v in excluded:
        raise EscapeBlockedError("start vertex lies in the excluded set")

    g_coset = patch.coset_of_element(g)
    g_vertices = () if g_coset is None else patch.vertices_in_coset(g_coset)
    targets = set(g_vertices) - excluded
    if not targets:
        raise EmptyCosetInBallError(
            "target coset has no usable vertex inside the ball"
        )

    if k is None:
        k = stable_hausdorff_bound(patch)

    blocked = _blocked_region(patch, excluded)
    if v in blocked:
        raise EscapeBlockedError(
            "start vertex is trapped in a bounded pocket of its coset"
        )

    near = star(ball, excluded, k).vertices if k >= 0 else frozenset()  # within K

    home = coset_of[v]
    found, _ = first_hit(
        v,
        lambda u: [
            (l, w) for l, w in ball.edges(u) if coset_of[w] == home and w not in blocked
        ],
        lambda u: None if u in near else u,
        n,
    )
    if found is None:
        max_c = max((ball.dist[u] for u in excluded), default=0)
        raise NoRouteWithinBallError(
            "no in-coset vertex clears the excluded neighborhood",
            required_radius=max(ball.radius + 1, max_c + k + 1),
        )
    alpha, mid = found

    found, _ = first_hit(
        mid,
        lambda u: [(l, w) for l, w in ball.edges(u) if w not in excluded],
        lambda u: u if u in targets else None,
        n,
    )
    if found is None:
        raise NoRouteWithinBallError(
            "target coset unreachable without entering the excluded set",
            required_radius=ball.radius + k + 1,
        )
    beta, _ = found
    return PathInBall(v, alpha + beta)


def verify_escape_route(
    ball: Ball,
    c_vertices: Iterable[int],
    v: int,
    g: Element,
    path: PathInBall,
) -> Tuple[bool, str]:
    """Independent check of an escape path using group arithmetic only."""
    excluded = frozenset(c_vertices)
    if path.base != v:
        return False, "path does not start at the requested vertex"
    if not (0 <= v < ball.n_vertices):
        return False, "start vertex not in ball"
    spec = ball.spec
    group = group_for(spec)
    a = ball.elements[v]
    vid: Optional[int] = v
    if vid in excluded:
        return False, "start vertex lies in the excluded set"
    for i, letter in enumerate(path.word):
        a = group.apply_letter(a, letter)
        vid = ball.vertex(a)
        if vid is None:
            return False, f"step {i} leaves the ball"
        if vid in excluded:
            return False, f"step {i} enters the excluded set"
    if coset_key(spec, a) != coset_key(spec, g):
        return False, "terminal vertex is not in the target coset"
    return True, ""
