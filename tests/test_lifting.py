"""Transfer constants and approximate path lifting."""

from __future__ import annotations

import random

import pytest

from cosetgeom.cayley import PathInBall, build_ball
from cosetgeom.cosetgraph import LambdaPath, build_coset_patch, project_path
from cosetgeom.errors import (
    ConfigError,
    InsufficientRadiusError,
    NotCommensuratedError,
    NoTransferVertexError,
)
from cosetgeom.groups import (
    baumslag_solitar,
    evaluate_word,
    group_for,
    parse_group_spec,
    parse_word,
)
from cosetgeom.lifting import (
    LiftConstants,
    _ball_steps,
    _q_walk,
    approximate_lift,
    compute_f,
    compute_m,
    lift_constants,
)
from cosetgeom.subgroups import (
    coset_key,
    is_member,
    k_letters,
    q_letters,
    vertex_subgroup,
    word_subgroup,
)

from cosetgeom.metrics import default_radii, hausdorff_profile

from .oracles import REFERENCE_GROUPS, reference_q_walk

Q = vertex_subgroup()
REFERENCE_SPECS = [parse_group_spec(text) for text in REFERENCE_GROUPS]


def element(spec, text):
    return evaluate_word(spec, parse_word(spec, text))


def random_lambda_walk(patch, rng, length):
    cid = 0
    cosets = [cid]
    letters = []
    for _ in range(length):
        options = []
        for letter in sorted(patch.adj[cid]):
            for target in patch.adj[cid][letter]:
                options.append((letter, target))
        if not options:
            break
        letter, target = rng.choice(options)
        letters.append(letter)
        cosets.append(target)
        cid = target
    return LambdaPath(tuple(cosets), tuple(letters))


@pytest.fixture(scope="module")
def constants_bs12(ball_bs12_r10):
    return lift_constants(Q, ball_bs12_r10)


@pytest.fixture(scope="module")
def constants_bs23(ball_bs23_r10):
    return lift_constants(Q, ball_bs23_r10)


class TestTransferConstants:
    def test_bs12_values(self, constants_bs12):
        c = constants_bs12
        assert c.f_per_letter == ((1, 1), (-1, 1), (2, 1), (-2, 2))
        assert (c.f, c.m, c.l) == (2, 6, 11)

    def test_bs23_values(self, constants_bs23):
        c = constants_bs23
        assert c.f_per_letter == ((1, 1), (-1, 1), (2, 2), (-2, 2))
        assert (c.f, c.m, c.l) == (2, 5, 10)

    def test_abelian_values(self, ball_ab2_r12):
        c = lift_constants(Q, ball_ab2_r12)
        assert all(value == 1 for _, value in c.f_per_letter)
        assert (c.f, c.m, c.l) == (1, 3, 6)

    @pytest.mark.parametrize(
        "text, f_per_letter, fml",
        [
            ("hnn:1,3", ((1, 1), (-1, 1), (2, 1), (-2, 2)), (2, 9, 14)),
            (
                "hnn:2,0 1;2 1",
                ((1, 1), (-1, 1), (2, 1), (-2, 1), (3, 1), (-3, 2)),
                (2, 6, 11),
            ),
        ],
    )
    def test_hnn_values(self, text, f_per_letter, fml):
        spec = parse_group_spec(text)
        c = lift_constants(Q, build_ball(spec, 8))
        assert c.f_per_letter == f_per_letter
        assert (c.f, c.m, c.l) == fml

    def test_free_group_does_not_stabilize(self, ball_free2_r8):
        # T_s is trivial for s = x2, so no finite F exists
        with pytest.raises(NotCommensuratedError) as info:
            lift_constants(Q, ball_free2_r8)
        assert info.value.letters == ("x2", "x2^-1")

    def test_smaller_pair_bound_shrinks_m(self, ball_bs12_r10):
        assert compute_m(Q, ball_bs12_r10, 1) == 3

    def test_m_shortfall_names_the_radius_it_needs(self):
        spec = baumslag_solitar(1, 3)
        with pytest.raises(InsufficientRadiusError, match="radius >= 5") as info:
            compute_m(Q, build_ball(spec, 4), 2)
        assert info.value.required_radius == 5

    def test_words_mode_rejected(self, ball_ab2_r12):
        with pytest.raises(ConfigError):
            lift_constants(word_subgroup(((1,),)), ball_ab2_r12)

    def test_constants_shape_validation(self):
        with pytest.raises(ConfigError):
            LiftConstants(f_per_letter=((1, 1),), m=0)
        # with no letter F is 0, so the positivity rule rejects it too
        with pytest.raises(ConfigError):
            LiftConstants(f_per_letter=(), m=1)


def q_walk_distances(ball, start, radius):
    """Length of the shortest walk along Q-letters from start to each vertex
    it reaches without leaving the given radius."""
    qlets = q_letters(ball.spec, Q)
    depth = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for letter in qlets:
                w = ball.neighbor(u, letter)
                if w is not None and ball.dist[w] <= radius and w not in depth:
                    depth[w] = depth[u] + 1
                    nxt.append(w)
        frontier = nxt
    return depth


def brute_f(spec, ball, q_vertices, s, r):
    """1 + the longest Q-walk any Q-vertex within r needs to a vertex whose
    s-edge lands in the coset sQ, or None when some Q-vertex reaches none."""
    group = group_for(spec)
    s_el = group.evaluate_word((s,))
    goal = coset_key(spec, Q, s_el)
    worst = 0
    for a in q_vertices:
        if ball.dist[a] > r:
            continue
        gaps = [
            d
            for b, d in q_walk_distances(ball, a, r).items()
            if coset_key(spec, Q, group.multiply(ball.elements[b], s_el)) == goal
        ]
        if not gaps:
            return None
        worst = max(worst, min(gaps))
    return worst + 1


def brute_m(ball, q_vertices, f, r):
    """The longest Q-walk within r from the identity to a Q-vertex at ambient
    distance at most 2f + 1, or None when one is out of reach."""
    reach = q_walk_distances(ball, 0, r)
    near = [v for v in q_vertices if ball.dist[v] <= 2 * f + 1]
    if any(v not in reach for v in near):
        return None
    return max(reach[v] for v in near)


# Every reference group with a finite F (free:2 has none)
FINITE_F_GROUPS = [text for text in REFERENCE_GROUPS if text != "free:2"]


class TestBruteForceConstants:
    """compute_f and compute_m against definition scans in a ball of radius 8.

    The scans only see walks inside the ball, so at smaller radii they can
    settle on a wrong value: on hnn:2,2 1;0 2 they read F = 3 for t^-1 at
    every radius pair from (2, 3) to (6, 7), where the exact F is 2.  bs:1,3
    joins for its M-witness x^9, whose x-walk passes radius 6.  bs:2,5 is
    scanned at radius 9: at 8 some of its Q-vertices reach no transfer
    vertex inside the ball.  On free:2 the scans grow with the radius.
    """

    @pytest.mark.parametrize(
        "text", FINITE_F_GROUPS + ["bs:1,3", "abelian:2", "bs:2,5", "free:2"]
    )
    def test_scans_match_the_definitions(self, text):
        spec = parse_group_spec(text)
        r = 9 if text == "bs:2,5" else 8
        ball = build_ball(spec, r)
        q_vertices = [v for v, a in enumerate(ball.elements) if is_member(spec, Q, a)]
        if text == "free:2":
            # no finite F: the scan for x2 reads radius + 1 at every radius
            growth = [brute_f(spec, ball, q_vertices, 2, i) for i in range(1, r + 1)]
            assert growth == list(range(2, r + 2))
            with pytest.raises(NotCommensuratedError):
                compute_f(Q, spec)
            return
        f = compute_f(Q, spec)
        assert f == {s: brute_f(spec, ball, q_vertices, s, r) for s in spec.letters}
        top = max(f.values())
        assert compute_m(Q, ball, top) == brute_m(ball, q_vertices, top, r)


class TestHausdorffBound:
    """d(Q, sQ) <= max(F_s, F_{s^-1}): write q = (s y s^-1) r with s y s^-1 in
    T_s and |r|_Q < F_s, so q is within F_s of s y in sQ, and symmetrically
    s y is within F_{s^-1} of Q.  Every exact profile value must obey it,
    and on these groups every letter outside Q attains it."""

    @pytest.mark.parametrize("radius", [7, 9])
    @pytest.mark.parametrize("text", FINITE_F_GROUPS)
    def test_exact_profile_values_obey_the_bound(self, text, radius):
        spec = parse_group_spec(text)
        patch = build_coset_patch(Q, build_ball(spec, radius))
        f = compute_f(Q, spec)
        group = group_for(spec)
        outside = k_letters(spec, Q)
        for s in spec.letters:
            profile = hausdorff_profile(
                patch, group.evaluate_word((s,)), default_radii(radius)
            )
            exact = [v.k for v in profile.values if v.exact]
            bound = max(f[s], f[-s])
            assert exact and max(exact) <= bound, s
            if s in outside:
                assert set(exact) == {bound}, s


def rim_tested(ball, layers, hit):
    """Whether the search tested a rim vertex before it stopped."""
    tested = [w for layer in layers[:-1] for w in layer]
    for w in layers[-1]:
        tested.append(w)
        if hit(w) is not None:
            break
    return any(not ball.complete(w) for w in tested)


class TestQWalkOracle:
    """_q_walk on the lift's ball steps against the walk-carrying loop it
    replaced, hit for hit and rim flag for rim flag."""

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=REFERENCE_GROUPS)
    def test_matches_walk_carrying_search(self, spec):
        rng = random.Random(spec.describe())
        qlets = q_letters(spec, Q)
        crossings = k_letters(spec, Q) or spec.letters
        for radius in range(1, 7):
            ball = build_ball(spec, radius)
            steps = _ball_steps(ball, qlets)
            n = ball.n_vertices
            for _ in range(8):
                start = rng.randrange(n)
                # a goal some Q-steps away, which may lie past the rim
                goal = start
                for _ in range(rng.randint(0, 4)):
                    step = ball.neighbor(goal, rng.choice(qlets))
                    goal = goal if step is None else step
                lands = set(rng.sample(range(n), max(1, n // 4)))
                crossing = rng.choice(crossings)

                def crosses(w):
                    nb = ball.neighbor(w, crossing)
                    return nb if nb in lands else None

                hits = [lambda w: w if w == goal else None, crosses, lambda w: None]
                for hit in hits:
                    for max_len in range(5):
                        found, layers = _q_walk(start, steps, hit, max_len)
                        got = found, rim_tested(ball, layers, hit)
                        want = reference_q_walk(ball, qlets, start, hit, max_len)
                        assert got == want, (radius, start, max_len)


class TestApproximateLift:
    def test_empty_path_lifts_to_base(self, patch_bs12_r10, constants_bs12):
        spec = baumslag_solitar(1, 2)
        lift = approximate_lift(patch_bs12_r10, LambdaPath((0,), ()), 0, constants_bs12)
        assert lift.word == ()
        assert lift.end == 0

    def test_bs12_ascent_needs_no_padding(self, patch_bs12_r10, constants_bs12):
        spec = baumslag_solitar(1, 2)
        c0 = 0
        cosets = [c0]
        for _ in range(3):
            cosets.append(patch_bs12_r10.adj[cosets[-1]][2][0])
        lp = LambdaPath(tuple(cosets), (2, 2, 2))
        lift = approximate_lift(patch_bs12_r10, lp, 0, constants_bs12)
        assert lift.word == (2, 2, 2)
        assert lift.blocks == ((), (), ())

    def test_bs23_odd_base_pads_one_step(
        self, ball_bs23_r10, patch_bs23_r10, constants_bs23
    ):
        spec = baumslag_solitar(2, 3)
        base = ball_bs23_r10.vertex(element(spec, "x^3"))
        even_child = patch_bs23_r10.adj[0][2][0]
        lp = LambdaPath((0, even_child), (2,))
        lift = approximate_lift(patch_bs23_r10, lp, base, constants_bs23)
        assert lift.blocks == ((-1,),)
        assert lift.letters == (2,)

    def test_lift_is_deterministic(self, patch_bs23_r10, constants_bs23):
        spec = baumslag_solitar(2, 3)
        rng = random.Random(3)
        lp = random_lambda_walk(patch_bs23_r10, rng, 4)
        first = approximate_lift(patch_bs23_r10, lp, 0, constants_bs23)
        second = approximate_lift(patch_bs23_r10, lp, 0, constants_bs23)
        assert first == second

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_short_walks_round_trip(self, seed, patch_bs12_r10, constants_bs12):
        spec = baumslag_solitar(1, 2)
        rng = random.Random(seed)
        for _ in range(50):
            lp = random_lambda_walk(patch_bs12_r10, rng, rng.randint(0, 5))
            lift = approximate_lift(patch_bs12_r10, lp, 0, constants_bs12)
            assert project_path(patch_bs12_r10, PathInBall(0, lift.word)) == lp
            for block, letter in zip(lift.blocks, lift.letters):
                assert len(block) < constants_bs12.f_for(letter)

    def test_base_must_project_to_start(
        self, ball_bs12_r10, patch_bs12_r10, constants_bs12
    ):
        spec = baumslag_solitar(1, 2)
        t_vid = ball_bs12_r10.vertex(element(spec, "t"))
        lp = LambdaPath((0, patch_bs12_r10.coset_of[t_vid]), (2,))
        with pytest.raises(ConfigError):
            approximate_lift(patch_bs12_r10, lp, t_vid, constants_bs12)

    def test_rim_base_reports_insufficient_radius(
        self, ball_bs12_r10, patch_bs12_r10, constants_bs12
    ):
        spec = baumslag_solitar(1, 2)
        rim = ball_bs12_r10.vertex(element(spec, "t^10"))
        cid = patch_bs12_r10.coset_of[rim]
        lp = LambdaPath((cid, 0), (2,))
        with pytest.raises(InsufficientRadiusError):
            approximate_lift(patch_bs12_r10, lp, rim, constants_bs12)

    def test_underestimated_f_reports_no_transfer(self, patch_bs23_r10):
        spec = baumslag_solitar(2, 3)
        starved = LiftConstants(
            f_per_letter=((1, 1), (-1, 1), (2, 1), (-2, 1)),
            m=3,
        )
        t_children = patch_bs23_r10.adj[0][2]
        assert len(t_children) == 2
        lp = LambdaPath((0, t_children[1]), (2,))
        with pytest.raises(NoTransferVertexError):
            approximate_lift(patch_bs23_r10, lp, 0, starved)

    def test_words_mode_rejected(self, ball_ab2_r12):
        wq = word_subgroup(((1,),))
        patch = build_coset_patch(wq, ball_ab2_r12)
        with pytest.raises(ConfigError):
            approximate_lift(patch, LambdaPath((0,), ()), 0, None)
