"""Transfer constants and approximate path lifting."""

from __future__ import annotations

import random

import pytest

from cosetgeom.cayley import PathInBall, build_ball
from cosetgeom.cosetgraph import LambdaPath, build_coset_patch, project_path
from cosetgeom.errors import (
    ConfigError,
    InsufficientRadiusError,
    NotStabilizedError,
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
    STABLE,
    LiftConstants,
    _crossing,
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
        assert c.confidence == STABLE

    def test_bs23_values(self, constants_bs23):
        c = constants_bs23
        assert c.f_per_letter == ((1, 1), (-1, 1), (2, 2), (-2, 2))
        assert (c.f, c.m, c.l) == (2, 5, 10)
        assert c.confidence == STABLE

    def test_abelian_values(self, ball_ab2_r12):
        c = lift_constants(Q, ball_ab2_r12)
        assert all(value == 1 for _, value in c.f_per_letter)
        assert (c.f, c.m, c.l) == (1, 3, 6)
        assert c.confidence == STABLE

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
        assert c.confidence == STABLE

    def test_free_group_does_not_stabilize(self, ball_free2_r8):
        with pytest.raises(NotStabilizedError):
            lift_constants(Q, ball_free2_r8)

    def test_lenient_free_group_fails_on_pair_bound(self, ball_free2_r8):
        with pytest.raises(ConfigError, match="pair distance bound"):
            lift_constants(Q, ball_free2_r8, strict=False)

    def test_scans_track_radii(self, ball_bs12_r10):
        scans = compute_f(Q, ball_bs12_r10)
        assert scans[-2].radii == (9, 10)
        assert scans[-2].values == (2, 2)
        assert scans[-2].stable
        assert scans[2].values == (1, 1)

    def test_smaller_pair_bound_shrinks_m(self, ball_bs12_r10):
        scan = compute_m(Q, ball_bs12_r10, 1)
        assert scan.final == 3

    def test_m_scan_walks_only_inside_each_radius(self):
        # x^9 = t^2.x.t^-2 sits at distance 5, but the x-walk to it passes
        # x^8 at distance 6, so the scan at radius 5 cannot reach it
        spec = baumslag_solitar(1, 3)
        with pytest.raises(NoTransferVertexError, match="inside radius 5"):
            compute_m(Q, build_ball(spec, 6), 2, radii=(5, 6))

    def test_radii_validation(self, ball_bs12_r10):
        with pytest.raises(ConfigError):
            compute_f(Q, ball_bs12_r10, radii=(10,))
        with pytest.raises(ConfigError):
            compute_f(Q, ball_bs12_r10, radii=(10, 9))
        with pytest.raises(ConfigError):
            compute_f(Q, ball_bs12_r10, radii=(9, 11))
        with pytest.raises(ConfigError):
            compute_m(Q, ball_bs12_r10, 5, radii=(9, 10))

    def test_words_mode_rejected(self, ball_ab2_r12):
        with pytest.raises(ConfigError):
            lift_constants(word_subgroup(((1,),)), ball_ab2_r12)

    def test_constants_shape_validation(self):
        with pytest.raises(ConfigError):
            LiftConstants(f_per_letter=((1, 1),), m=0, confidence=STABLE)
        # with no letter F is 0, so the positivity rule rejects it too
        with pytest.raises(ConfigError):
            LiftConstants(f_per_letter=(), m=1, confidence=STABLE)


def x_walk_distances(ball, start, radius):
    """Length of the shortest walk along x and x^-1 from start to each vertex
    it reaches without leaving the given radius."""
    depth = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for letter in (1, -1):
                w = ball.neighbor(u, letter)
                if w is not None and ball.dist[w] <= radius and w not in depth:
                    depth[w] = depth[u] + 1
                    nxt.append(w)
        frontier = nxt
    return depth


def brute_f(spec, ball, q_vertices, s, r):
    """1 + the longest x-walk any Q-vertex within r needs to a vertex whose
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
            for b, d in x_walk_distances(ball, a, r).items()
            if coset_key(spec, Q, group.multiply(ball.elements[b], s_el)) == goal
        ]
        if not gaps:
            return None
        worst = max(worst, min(gaps))
    return worst + 1


def brute_m(ball, q_vertices, f, r):
    """The longest x-walk within r from the identity to a Q-vertex at ambient
    distance at most 2f + 1, or None when one is out of reach."""
    reach = x_walk_distances(ball, 0, r)
    near = [v for v in q_vertices if ball.dist[v] <= 2 * f + 1]
    if any(v not in reach for v in near):
        return None
    return max(reach[v] for v in near)


class TestBruteForceConstants:
    """compute_f and compute_m against their definitions, at every radius pair."""

    # bs:2,5 cuts Q-vertices off from every transfer vertex at radii 7 and 8,
    # and bs:1,3 cuts x^9 off from the identity at radius 5
    @pytest.mark.parametrize("text", ["free:2", "abelian:2", "bs:1,2", "bs:1,3", "bs:2,5"])
    def test_scans_match_the_definitions(self, text):
        spec = parse_group_spec(text)
        ball = build_ball(spec, 8)
        q_vertices = [v for v, a in enumerate(ball.elements) if is_member(spec, Q, a)]
        f_at = {
            (s, r): brute_f(spec, ball, q_vertices, s, r)
            for s in spec.letters
            for r in range(1, 9)
        }
        m_at = {
            (f, r): brute_m(ball, q_vertices, f, r) for f in (1, 2, 3) for r in range(1, 9)
        }
        for r1 in range(1, 9):
            for r2 in range(r1, 9):
                want = {s: (f_at[s, r1], f_at[s, r2]) for s in spec.letters}
                if any(None in values for values in want.values()):
                    with pytest.raises(NoTransferVertexError):
                        compute_f(Q, ball, (r1, r2))
                else:
                    scans = compute_f(Q, ball, (r1, r2))
                    assert {s: scan.values for s, scan in scans.items()} == want
                for f in range(1, (r1 - 1) // 2 + 1):
                    values = (m_at[f, r1], m_at[f, r2])
                    if None in values:
                        with pytest.raises(NoTransferVertexError):
                            compute_m(Q, ball, f, (r1, r2))
                    else:
                        assert compute_m(Q, ball, f, (r1, r2)).values == values


class TestQWalkOracle:
    """_q_walk against the walk-carrying loop it replaced, hit for hit."""

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=REFERENCE_GROUPS)
    def test_matches_walk_carrying_search(self, spec):
        rng = random.Random(spec.describe())
        qlets = q_letters(spec, Q)
        crossings = k_letters(spec, Q) or spec.letters
        for radius in range(1, 7):
            ball = build_ball(spec, radius)
            n = ball.n_vertices
            for _ in range(8):
                start = rng.randrange(n)
                # a goal some Q-steps away, which may lie past the rim
                goal = start
                for _ in range(rng.randint(0, 4)):
                    step = ball.neighbor(goal, rng.choice(qlets))
                    goal = goal if step is None else step
                lands = set(rng.sample(range(n), max(1, n // 4)))
                hits = [
                    lambda w: w if w == goal else None,
                    _crossing(ball, rng.choice(crossings), lands.__contains__),
                    lambda w: None,
                ]
                for hit in hits:
                    for max_len in range(5):
                        got = _q_walk(ball, qlets, start, hit, max_len)
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
            confidence=STABLE,
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
