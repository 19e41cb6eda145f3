"""Hausdorff distances between cosets and commensuration evidence.

For a subgroup Q and an element g, the Hausdorff distance between Q and gQ
is the smallest K with each coset inside the K-neighborhood of the other.
Q is commensurated exactly when this distance is finite for every g, and
it suffices to test g over the generators and their inverses.  A ball only
ever shows the restriction of the distance to a finite window, so the
functions here report per-radius values with an exactness flag and issue
evidence verdicts, never decisions.

Within-ball BFS can only overestimate a true distance (a geodesic may exit
the ball), and a value K measured at radius r is provably exact as soon as
r + K + margin fits inside the ball radius: any shorter outside path would
have to leave the ball, which its own length forbids.  A row is exact by
monotonicity too: the true one-sided distances never decrease in r, so a
row whose two in-ball values equal those of an earlier exact row is exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .cayley import UNREACHED, Ball, bfs_layers
from .errors import ConfigError, EmptyCosetInBallError, InsufficientRadiusError
from .groups import Element, GroupSpec, group_for, render_word

if TYPE_CHECKING:
    from .cosetgraph import CosetPatch

COMMENSURATED = "CommensuratedEvidence"
NOT_COMMENSURATED = "NotCommensuratedEvidence"
INCONCLUSIVE = "Inconclusive"

STABILIZATION_WINDOW = 3
SAFETY_MARGIN = 1


class RadiusValue(NamedTuple):
    """Hausdorff data measured at one profile radius."""

    radius: int
    k_forward: int
    k_backward: int
    k: int
    exact: bool


class HausdorffProfile(NamedTuple):
    """Per-radius Hausdorff distance between Q and gQ, with a verdict."""

    g_text: str
    values: Tuple[RadiusValue, ...]
    verdict: str

    def k_values(self) -> Tuple[int, ...]:
        return tuple(v.k for v in self.values)

    def final_k(self) -> int:
        return self.values[-1].k


def _profile_verdict(values: Sequence[RadiusValue]) -> str:
    if len(values) < STABILIZATION_WINDOW:
        return INCONCLUSIVE
    tail = values[-STABILIZATION_WINDOW:]
    ks = [v.k for v in tail]
    if len(set(ks)) == 1 and all(v.exact for v in tail):
        return COMMENSURATED
    if all(a < b for a, b in zip(ks, ks[1:])):
        return NOT_COMMENSURATED
    return INCONCLUSIVE


def _distances_to(
    ball: Ball, sources: Iterable[int], targets: Iterable[int]
) -> Dict[int, int]:
    """Ball distance from the sources to each target it reaches.

    The search stops at the layer that reaches the last target; a target
    the whole ball search never reaches is left out.
    """
    left = set(targets)
    found: Dict[int, int] = {}
    if not left:
        return found
    # read the adjacency slots directly: a (letter, vertex) generator per
    # vertex would cost several times more
    adj, k = ball.adj, len(ball.letters)
    layers = bfs_layers(lambda v: adj[v * k : v * k + k], sources)
    for d, layer in enumerate(layers):
        hits = left.intersection(layer)
        if hits:
            found.update(dict.fromkeys(hits, d))
            left -= hits
            if not left:
                break
    return found


def hausdorff_profile(
    patch: CosetPatch,
    g: Element,
    radii: Sequence[int],
) -> HausdorffProfile:
    """Measure the two one-sided coset distances at each requested radius.

    Forward: how far elements of Q within radius r can sit from gQ.
    Backward: how far elements of gQ within radius r can sit from Q.
    Both cosets are read off the patch's labelling.  The distances come
    from two ball searches, one from each coset, and each stops once it has
    reached every vertex of the other coset within the largest radius, so
    a call costs about K layers per coset, whatever the radii.

    A row is exact when r + K + margin <= R, or when its k_forward and
    k_backward equal those of the last exact row before it: each true
    one-sided distance is at least that row's exact value, since it never
    decreases in r, and at most this row's in-ball value.
    """
    ball = patch.ball
    radii = list(radii)
    if not radii or sorted(radii) != radii:
        raise ConfigError("radii must be a nondecreasing nonempty sequence")
    if radii[0] < 0:
        raise ConfigError(f"profile radius {radii[0]} is negative")
    if radii[-1] > ball.radius - SAFETY_MARGIN:
        raise InsufficientRadiusError(
            f"largest radius {radii[-1]} too close to ball radius {ball.radius}",
            required_radius=radii[-1] + SAFETY_MARGIN,
        )

    q_vertices = patch.vertices_in_coset(patch.base)
    g_coset = patch.coset_of_element(g)
    g_vertices = () if g_coset is None else patch.vertices_in_coset(g_coset)
    if not g_vertices or min(ball.dist[v] for v in g_vertices) > ball.radius - 1:
        raise EmptyCosetInBallError(
            "gQ does not meet the trusted part of the ball"
        )

    near_q = [v for v in q_vertices if ball.dist[v] <= radii[-1]]
    near_g = [v for v in g_vertices if ball.dist[v] <= radii[-1]]
    dist_to_gq = _distances_to(ball, g_vertices, near_q)
    dist_to_q = _distances_to(ball, q_vertices, near_g)

    values: List[RadiusValue] = []
    last_exact = None
    for r in radii:
        fwd_pool = [dist_to_gq.get(v, UNREACHED) for v in near_q if ball.dist[v] <= r]
        bwd_pool = [dist_to_q.get(v, UNREACHED) for v in near_g if ball.dist[v] <= r]
        if not bwd_pool:
            raise EmptyCosetInBallError(f"gQ does not meet the ball of radius {r}")
        if UNREACHED in fwd_pool or UNREACHED in bwd_pool:
            raise EmptyCosetInBallError("coset disconnected inside the ball")
        k_forward = max(fwd_pool)
        k_backward = max(bwd_pool)
        k = max(k_forward, k_backward)
        exact = (
            r + k + SAFETY_MARGIN <= ball.radius
            or last_exact == (k_forward, k_backward)
        )
        if exact:
            last_exact = (k_forward, k_backward)
        values.append(RadiusValue(r, k_forward, k_backward, k, exact))

    return HausdorffProfile(
        g_text=group_for(patch.spec).render(g),
        values=tuple(values),
        verdict=_profile_verdict(values),
    )


class CommensurationReport(NamedTuple):
    """Aggregated verdict over a set of test elements."""

    verdict: str
    profiles: Tuple[HausdorffProfile, ...]

    def by_element(self) -> Dict[str, HausdorffProfile]:
        return {p.g_text: p for p in self.profiles}


def commensuration_verdict(
    profiles: Iterable[HausdorffProfile],
) -> CommensurationReport:
    """Combine per-element profiles: all stable is positive evidence, any
    strictly growing profile is negative evidence, anything else is open."""
    profiles = tuple(profiles)
    if not profiles:
        raise ConfigError("need at least one profile")
    if any(p.verdict == NOT_COMMENSURATED for p in profiles):
        verdict = NOT_COMMENSURATED
    elif all(p.verdict == COMMENSURATED for p in profiles):
        verdict = COMMENSURATED
    else:
        verdict = INCONCLUSIVE
    return CommensurationReport(verdict=verdict, profiles=profiles)


def default_test_elements(spec: GroupSpec) -> List[Tuple[str, Element]]:
    """Generators and their inverses, the sufficient commensuration test set."""
    group = group_for(spec)
    out = []
    for letter in spec.letters:
        word = (letter,)
        out.append((render_word(spec, word), group.evaluate_word(word)))
    return out


def default_radii(ball_radius: int, start: int = 2) -> List[int]:
    """Every radius from start (at least 2) up to R - 3, which must fill a
    stabilization window."""
    start = max(start, 2)
    radii = list(range(start, ball_radius - STABILIZATION_WINDOW + 1))
    if len(radii) < STABILIZATION_WINDOW:
        raise InsufficientRadiusError(
            f"ball radius {ball_radius} too small for a profile",
            required_radius=start - 1 + 2 * STABILIZATION_WINDOW,
        )
    return radii


def coset_distance(patch: CosetPatch, g: Element) -> int:
    """Ball distance of the nearest vertex of gQ, the first radius at which a
    profile sees gQ; R + 1 when gQ misses the ball B(R)."""
    cid = patch.coset_of_element(g)
    if cid is None:
        return patch.radius + 1
    return min(map(patch.ball.dist.__getitem__, patch.vertices_in_coset(cid)))
