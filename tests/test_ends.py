"""End counts, their classifications, and escape-path construction."""

from __future__ import annotations

import random

import pytest

from cosetgeom.cayley import PathInBall, build_ball
from cosetgeom.cosetgraph import build_coset_patch
from cosetgeom.ends import (
    GROWING,
    INCONCLUSIVE,
    STABLE_COUNT,
    ZERO_ENDS,
    _blocked_region,
    _classify,
    default_schedule,
    ends_report,
    escape_route,
    stable_hausdorff_bound,
    verify_escape_route,
)
from cosetgeom.errors import (
    ConfigError,
    EmptyCosetInBallError,
    EscapeBlockedError,
    InsufficientRadiusError,
    NoRouteWithinBallError,
    NotStabilizedError,
    ScheduleExceedsBallError,
)
from cosetgeom.cosetgraph import graph_view
from cosetgeom.groups import (
    baumslag_solitar,
    evaluate_word,
    free_abelian_group,
    free_group,
    parse_group_spec,
    parse_word,
)
from cosetgeom.subgroups import coset_key

from .oracles import REFERENCE_GROUPS, reference_annulus_counts, reference_route


def element(spec, text):
    return evaluate_word(spec, parse_word(spec, text))


def ball_vertices_within(ball, radius):
    return [vid for vid in range(ball.n_vertices) if ball.dist[vid] <= radius]


class TestGroupEndCounts:
    def test_line_has_two_stable_ends(self):
        ball = build_ball(free_abelian_group(1), 12)
        report = ends_report(ball)
        assert report.counts == (2, 2, 2, 2, 2)
        assert report.classification == STABLE_COUNT
        assert report.count == 2
        assert report.label() == "StableCount(2)"

    def test_plane_has_one_stable_end(self, ball_ab2_r12):
        report = ends_report(ball_ab2_r12)
        assert set(report.counts) == {1}
        assert report.label() == "StableCount(1)"

    def test_free_group_counts_grow_geometrically(self, ball_free2_r8):
        report = ends_report(ball_free2_r8, [(1, 6), (2, 6), (3, 6)])
        assert report.counts == (4, 12, 36)
        assert report.classification == GROWING
        assert report.count is None

    def test_free_group_default_schedule_grows(self, ball_free2_r8):
        report = ends_report(ball_free2_r8)
        assert report.schedule == ((1, 6), (2, 6))
        assert report.counts == (4, 12)
        assert report.classification == GROWING

    def test_ascending_hnn_groups_are_one_ended(self, ball_bs12_r10, ball_bs23_r10):
        for ball in (ball_bs12_r10, ball_bs23_r10):
            report = ends_report(ball)
            assert set(report.counts) == {1}
            assert report.label() == "StableCount(1)"


class TestCosetGraphEndCounts:
    def test_plane_mod_axis_is_a_two_ended_line(self, ball_ab2_r12):
        report = ends_report(build_coset_patch(ball_ab2_r12))
        assert report.graph_kind == "patch"
        assert set(report.counts) == {2}
        assert report.label() == "StableCount(2)"

    def test_bs12_patch_counts_double(self, ball_bs12_r10):
        report = ends_report(build_coset_patch(ball_bs12_r10), [(1, 5), (2, 5), (3, 5)])
        assert report.counts == (3, 6, 12)
        assert report.classification == GROWING

    def test_bs12_patch_default_schedule_grows(self, ball_bs12_r10):
        report = ends_report(build_coset_patch(ball_bs12_r10))
        assert report.counts == (6, 12, 24)
        assert report.classification == GROWING

    def test_bs23_patch_counts_grow_fourfold(self, ball_bs23_r10):
        report = ends_report(build_coset_patch(ball_bs23_r10), [(1, 5), (2, 5), (3, 5)])
        assert report.counts == (5, 20, 80)
        assert report.classification == GROWING


class TestAnnulusCountOracle:
    """One union-find sweep per outer radius counts what one search per
    annulus counts, on every schedule the graph's horizon allows."""

    @staticmethod
    def schedules(horizon):
        try:
            yield default_schedule(horizon)
        except InsufficientRadiusError:
            pass  # too shallow for the default
        usable = range(2, horizon)  # outer radii up to horizon - 1
        # every annulus at once: all outer radii mixed, inner radii ascending
        every = sorted(((r, R) for R in usable for r in range(1, R)))
        if every:
            yield every
        if horizon >= 8:
            yield [(2, 6), (3, 6), (3, 7), (4, 7)]

    @pytest.mark.parametrize("text", REFERENCE_GROUPS)
    def test_counts_match_one_search_per_annulus(self, text):
        spec = parse_group_spec(text)
        checked = 0
        for radius in range(4, 9):
            ball = build_ball(spec, radius)
            for graph in (ball, build_coset_patch(ball)):
                _, dist, neighbors, horizon = graph_view(graph)
                for schedule in self.schedules(horizon):
                    expected = reference_annulus_counts(dist, neighbors, schedule)
                    assert ends_report(graph, schedule).counts == expected, (
                        radius, graph_view(graph)[0], schedule
                    )
                    checked += 1
        assert checked >= 5  # at least the every-annulus schedule of each ball


class TestSchedulesAndClassification:
    def test_default_schedule_shape(self):
        assert default_schedule(10) == [(2, 8), (3, 8), (4, 8)]
        assert default_schedule(12) == [(2, 10), (3, 10), (4, 10), (5, 10), (6, 10)]
        assert default_schedule(8) == [(1, 6), (2, 6)]

    def test_default_schedule_needs_room(self):
        with pytest.raises(InsufficientRadiusError) as exc:
            default_schedule(6)
        assert exc.value.required_radius == 8

    def test_schedule_beyond_horizon_rejected(self, ball_bs12_r10):
        with pytest.raises(ScheduleExceedsBallError) as exc:
            ends_report(ball_bs12_r10, [(2, 10)])
        assert isinstance(exc.value, InsufficientRadiusError)
        assert exc.value.required_radius == 11

    def test_degenerate_annuli_rejected(self, ball_bs12_r10):
        with pytest.raises(ConfigError):
            ends_report(ball_bs12_r10, [(3, 3)])
        with pytest.raises(ConfigError):
            ends_report(ball_bs12_r10, [(0, 5)])
        with pytest.raises(ConfigError):
            ends_report(ball_bs12_r10, [])
        with pytest.raises(ConfigError):
            ends_report(ball_bs12_r10, [(3, 8), (2, 8)])

    def test_single_annulus_is_inconclusive(self, ball_bs12_r10):
        report = ends_report(ball_bs12_r10, [(2, 8)])
        assert report.classification == INCONCLUSIVE

    def test_classifier_edge_cases(self):
        assert _classify((4,)) == (INCONCLUSIVE, None)
        assert _classify((0, 0)) == (ZERO_ENDS, 0)
        assert _classify((1, 1, 1)) == (STABLE_COUNT, 1)
        assert _classify((4, 12, 36)) == (GROWING, None)
        assert _classify((4, 2, 3)) == (INCONCLUSIVE, None)
        assert _classify((4, 4, 5)) == (INCONCLUSIVE, None)

    def test_rejects_non_graph_input(self):
        with pytest.raises(ConfigError):
            ends_report("not a graph")


class TestStableHausdorffBound:
    def test_bounds_for_commensurated_instances(
        self, patch_bs12_r10, patch_bs23_r10, patch_ab2_r12
    ):
        assert stable_hausdorff_bound(patch_bs12_r10) == 2
        assert stable_hausdorff_bound(patch_bs23_r10) == 2
        assert stable_hausdorff_bound(patch_ab2_r12) == 1

    def test_free_group_bound_does_not_stabilize(self, patch_free2_r8):
        with pytest.raises(NotStabilizedError):
            stable_hausdorff_bound(patch_free2_r8)


class TestEscapeRoutes:
    def test_hnn_route_around_small_ball(self, ball_bs23_r10, patch_bs23_r10):
        spec = baumslag_solitar(2, 3)
        excluded = ball_vertices_within(ball_bs23_r10, 2)
        v = ball_bs23_r10.vertex(element(spec, "x^5"))
        g = element(spec, "t^3")
        path = escape_route(patch_bs23_r10, excluded, v, g, k=2)
        ok, reason = verify_escape_route(ball_bs23_r10, excluded, v, g, path)
        assert ok, reason

    def test_plane_route_goes_straight_up(self, ball_ab2_r12, patch_ab2_r12):
        spec = free_abelian_group(2)
        excluded = ball_vertices_within(ball_ab2_r12, 1)
        v = ball_ab2_r12.vertex(element(spec, "x2^3"))
        g = element(spec, "x2^5")
        path = escape_route(patch_ab2_r12, excluded, v, g, k=1)
        assert path.word == (2, 2)
        ok, reason = verify_escape_route(ball_ab2_r12, excluded, v, g, path)
        assert ok, reason

    def test_empty_exclusion_accepts_geodesic(self, ball_ab2_r12, patch_ab2_r12):
        spec = free_abelian_group(2)
        v = ball_ab2_r12.vertex(element(spec, "x2^3"))
        g = element(spec, "x2^5")
        path = escape_route(patch_ab2_r12, [], v, g, k=1)
        assert len(path.word) == 2
        ok, reason = verify_escape_route(ball_ab2_r12, [], v, g, path)
        assert ok, reason

    def test_start_inside_excluded_set_is_blocked(self, ball_ab2_r12, patch_ab2_r12):
        spec = free_abelian_group(2)
        v = ball_ab2_r12.vertex(element(spec, "x1"))
        with pytest.raises(EscapeBlockedError):
            escape_route(patch_ab2_r12, [v], v, element(spec, "x2^3"), k=1)

    def test_bounded_pocket_is_blocked(self, ball_ab2_r12, patch_ab2_r12):
        spec = free_abelian_group(2)
        excluded = [
            ball_ab2_r12.vertex(element(spec, "x1^2")),
            ball_ab2_r12.vertex(element(spec, "x1^4")),
        ]
        v = ball_ab2_r12.vertex(element(spec, "x1^3"))
        with pytest.raises(EscapeBlockedError):
            escape_route(patch_ab2_r12, excluded, v, element(spec, "x2^3"), k=1)

    def test_missing_target_coset_reported(self, ball_ab2_r12, patch_ab2_r12):
        spec = free_abelian_group(2)
        v = ball_ab2_r12.vertex(element(spec, "x2^3"))
        with pytest.raises(EmptyCosetInBallError):
            escape_route(patch_ab2_r12, [], v, element(spec, "x2^13"), k=1)

    def test_unreachable_target_reports_needed_radius(self, ball_ab2_r12, patch_ab2_r12):
        spec = free_abelian_group(2)
        tip_guard = ball_ab2_r12.vertex(element(spec, "x2^11"))
        v = ball_ab2_r12.vertex(element(spec, "x1^3"))
        g = element(spec, "x2^12")
        with pytest.raises(NoRouteWithinBallError) as info:
            escape_route(patch_ab2_r12, [tip_guard], v, g, k=1)
        assert info.value.required_radius > ball_ab2_r12.radius

    def test_pinched_coset_reports_needed_radius(self, ball_ab2_r12, patch_ab2_r12):
        spec = free_abelian_group(2)
        excluded = [
            vid
            for vid, a in enumerate(ball_ab2_r12.elements)
            if a[1] in (2, 4)
        ]
        v = ball_ab2_r12.vertex(element(spec, "x2^3"))
        g = element(spec, "x2^8")
        with pytest.raises(NoRouteWithinBallError) as info:
            escape_route(patch_ab2_r12, excluded, v, g, k=1)
        assert info.value.required_radius > ball_ab2_r12.radius

    def test_no_route_is_a_radius_shortfall(self):
        assert issubclass(NoRouteWithinBallError, InsufficientRadiusError)

    def test_word_mode_subgroup_rejected(self, ball_ab2_r12):
        spec = free_abelian_group(2)
        v = ball_ab2_r12.vertex(element(spec, "x2^3"))
        with pytest.raises(ConfigError):
            escape_route(
                build_coset_patch(ball_ab2_r12, words=((1,),)),
                [], v, element(spec, "x2^5"), k=1,
            )

    def test_route_is_deterministic(self, ball_bs23_r10, patch_bs23_r10):
        spec = baumslag_solitar(2, 3)
        excluded = ball_vertices_within(ball_bs23_r10, 2)
        v = ball_bs23_r10.vertex(element(spec, "x^5"))
        g = element(spec, "t^3")
        first = escape_route(patch_bs23_r10, excluded, v, g, k=2)
        second = escape_route(patch_bs23_r10, excluded, v, g, k=2)
        assert first == second


class TestEscapeVerifierIndependence:
    def test_verifier_rejects_wrong_base(self, ball_ab2_r12):
        spec = free_abelian_group(2)
        v = ball_ab2_r12.vertex(element(spec, "x2^3"))
        other = ball_ab2_r12.vertex(element(spec, "x2^2"))
        bad = PathInBall(other, (2, 2))
        ok, reason = verify_escape_route(
            ball_ab2_r12, [], v, element(spec, "x2^5"), bad
        )
        assert not ok and "start" in reason

    def test_verifier_rejects_excursion_into_excluded_set(self, ball_ab2_r12):
        spec = free_abelian_group(2)
        excluded = ball_vertices_within(ball_ab2_r12, 1)
        v = ball_ab2_r12.vertex(element(spec, "x2^3"))
        g = element(spec, "x2^5")
        bad = PathInBall(v, (-2, -2, -2, 2, 2, 2, 2, 2))
        ok, reason = verify_escape_route(ball_ab2_r12, excluded, v, g, bad)
        assert not ok and "excluded" in reason

    def test_verifier_rejects_wrong_terminal_coset(self, ball_ab2_r12):
        spec = free_abelian_group(2)
        v = ball_ab2_r12.vertex(element(spec, "x2^3"))
        short = PathInBall(v, (2,))
        ok, reason = verify_escape_route(
            ball_ab2_r12, [], v, element(spec, "x2^5"), short
        )
        assert not ok and "terminal" in reason

    def test_verifier_rejects_path_leaving_ball(self, ball_ab2_r12):
        spec = free_abelian_group(2)
        rim = ball_ab2_r12.vertex(element(spec, "x2^12"))
        bad = PathInBall(rim, (2,))
        ok, reason = verify_escape_route(
            ball_ab2_r12, [], rim, element(spec, "x2^13"), bad
        )
        assert not ok and "ball" in reason

    @pytest.mark.parametrize("where", ["before", "past"])
    def test_verifier_rejects_base_outside_ball(self, where):
        # base -1 would read vertex n - 1, which is excluded here
        spec = free_abelian_group(2)
        ball = build_ball(spec, 4)
        last = ball.n_vertices - 1
        base = -1 if where == "before" else ball.n_vertices
        ok, reason = verify_escape_route(
            ball, [last], base, ball.elements[last], PathInBall(base, ())
        )
        assert (ok, reason) == (False, "start vertex not in ball")


def within(ball, sources, k):
    """Vertices at edge distance at most k from the sources."""
    out = set(sources)
    frontier = out
    for _ in range(k):
        frontier = {w for u in frontier for _, w in ball.edges(u)} - out
        out |= frontier
    return out


def reference_blocked(patch, excluded):
    """The excluded set plus each component of the rest of the cosets it
    meets, joined by in-coset edges, that has no vertex on the outer sphere."""
    ball, coset_of = patch.ball, patch.coset_of
    hit = {coset_of[u] for u in excluded}
    unseen = {u for u in range(ball.n_vertices) if coset_of[u] in hit} - set(excluded)
    blocked = set(excluded)
    while unseen:
        component = [unseen.pop()]
        for u in component:  # the list grows while it is walked
            for _, w in ball.edges(u):
                if w in unseen and coset_of[w] == coset_of[u]:
                    unseen.discard(w)
                    component.append(w)
        if all(ball.dist[u] < ball.radius for u in component):
            blocked.update(component)
    return blocked


def pocket_walls(ball, v):
    """The vertices two x-steps either side of v, when both lie in the ball:
    excluding them cuts v's stretch of its coset's x-line off."""
    walls = set()
    for letter in (1, -1):
        w = ball.neighbor(v, letter)
        w = None if w is None else ball.neighbor(w, letter)
        if w is None:
            return set()
        walls.add(w)
    return walls


def reference_escape(patch, excluded, v, g, k):
    """escape_route's word, or the name of the error it should raise."""
    ball, coset_of = patch.ball, patch.coset_of
    if v in excluded:
        return "EscapeBlockedError"
    keys, key = list(patch.keys), coset_key(patch.spec, g)
    target = keys.index(key) if key in keys else None
    if all(coset_of[u] != target or u in excluded for u in range(ball.n_vertices)):
        return "EmptyCosetInBallError"
    blocked = reference_blocked(patch, excluded)
    if v in blocked:
        return "EscapeBlockedError"
    near = within(ball, excluded, k)
    home = coset_of[v]
    alpha = reference_route(
        ball,
        v,
        allowed=lambda u: coset_of[u] == home and u not in blocked,
        is_target=lambda u: u not in near,
    )
    if alpha is None:
        return "NoRouteWithinBallError"
    mid = v
    for letter in alpha:
        mid = ball.neighbor(mid, letter)
    beta = reference_route(
        ball,
        mid,
        allowed=lambda u: u not in excluded,
        is_target=lambda u: coset_of[u] == target and u not in excluded,
    )
    if beta is None:
        return "NoRouteWithinBallError"
    return alpha + beta


class TestEscapeRouteOracle:
    """Routes read off BFS layers match the parent-map search of the oracles."""

    def check(self, patch, seed, n_scenarios=25):
        ball = patch.ball
        n = ball.n_vertices
        rng = random.Random(seed)
        routes = []
        for i in range(n_scenarios):
            center = rng.randrange(n)
            v = rng.randrange(n)
            if i % 3 == 0:
                excluded = within(ball, [center], rng.randint(0, 2))
            elif i % 3 == 1:
                excluded = set(rng.sample(range(n), rng.randint(1, 30)))
            else:
                excluded = pocket_walls(ball, v) | {center}
            g = ball.elements[rng.randrange(n)]
            k = rng.randint(1, 2)
            want = reference_escape(patch, excluded, v, g, k)
            try:
                got = escape_route(patch, excluded, v, g, k=k).word
            except (EscapeBlockedError, EmptyCosetInBallError, NoRouteWithinBallError) as exc:
                got = type(exc).__name__
            assert got == want, (i, sorted(excluded), v, g, k)
            if isinstance(got, tuple):
                routes.append(got)
        # most scenarios end in a route, and many of those have choices to make
        assert len(routes) >= n_scenarios // 2
        assert sum(len(r) >= 3 for r in routes) >= 5

    def test_bs23_routes(self, patch_bs23_r10):
        self.check(patch_bs23_r10, seed=31)

    def test_plane_routes(self, patch_ab2_r12):
        self.check(patch_ab2_r12, seed=32)

    @pytest.mark.parametrize("name", ["patch_bs23_r10", "patch_ab2_r12"])
    def test_blocked_region_matches_its_components(self, name, request):
        patch = request.getfixturevalue(name)
        ball = patch.ball
        rng = random.Random(33)
        pockets = 0
        for _ in range(10):
            excluded = set(rng.sample(range(ball.n_vertices), 10))
            for v in rng.sample(range(ball.n_vertices), 5):
                excluded |= pocket_walls(ball, v)
            want = reference_blocked(patch, excluded)
            assert _blocked_region(patch, frozenset(excluded)) == want
            pockets += len(want - excluded)
        assert pockets >= 10


class TestRandomEscapeScenarios:
    def run_scenarios(self, patch, k, seed, n_scenarios=20):
        spec, ball = patch.spec, patch.ball
        rng = random.Random(seed)
        solved = 0
        for _ in range(n_scenarios):
            c_radius = rng.randint(0, 2)
            excluded = ball_vertices_within(ball, c_radius)
            candidates = [
                vid
                for vid in range(ball.n_vertices)
                if c_radius + k < ball.dist[vid] <= c_radius + k + 3
            ]
            v = rng.choice(candidates)
            g_vid = rng.choice(
                [vid for vid in range(ball.n_vertices) if ball.dist[vid] > c_radius]
            )
            g = ball.elements[g_vid]
            try:
                path = escape_route(patch, excluded, v, g, k=k)
            except (NoRouteWithinBallError, EscapeBlockedError):
                continue
            ok, reason = verify_escape_route(ball, excluded, v, g, path)
            assert ok, reason
            solved += 1
        return solved

    def test_plane_scenarios_verify(self, patch_ab2_r12):
        solved = self.run_scenarios(patch_ab2_r12, 1, seed=5)
        assert solved >= 15

    def test_hnn_scenarios_verify(self, patch_bs12_r10):
        solved = self.run_scenarios(patch_bs12_r10, 2, seed=7)
        assert solved >= 10
