"""Transfer constants and approximate path lifting."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from cosetgeom import lifting
from cosetgeom.cayley import PathInBall, build_ball, first_hit
from cosetgeom.cosetgraph import LambdaPath, build_coset_patch, project_path
from cosetgeom.errors import (
    ConfigError,
    ConstantViolationError,
    InsufficientRadiusError,
    NotCommensuratedError,
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
    q_steps,
)

from cosetgeom.metrics import default_radii, hausdorff_profile

from .oracles import REFERENCE_GROUPS, reference_lift, reference_q_walk

REFERENCE_SPECS = [parse_group_spec(text) for text in REFERENCE_GROUPS]


def element(spec, text):
    return evaluate_word(spec, parse_word(spec, text))


def targets(patch, cid, letter):
    """The cosets that one letter leads to from a coset, ascending."""
    return [target for l, target in patch.edges(cid) if l == letter]


def random_lambda_walk(patch, rng, length, cid=0):
    cosets = [cid]
    letters = []
    for _ in range(length):
        options = list(patch.edges(cid))
        if not options:
            break
        letter, target = rng.choice(options)
        letters.append(letter)
        cosets.append(target)
        cid = target
    return LambdaPath(tuple(cosets), tuple(letters))


@pytest.fixture(scope="module")
def constants_bs12(ball_bs12_r10):
    return lift_constants(ball_bs12_r10)


@pytest.fixture(scope="module")
def constants_bs23(ball_bs23_r10):
    return lift_constants(ball_bs23_r10)


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
        c = lift_constants(ball_ab2_r12)
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
        c = lift_constants(build_ball(spec, 8))
        assert c.f_per_letter == f_per_letter
        assert (c.f, c.m, c.l) == fml

    def test_free_group_does_not_stabilize(self, ball_free2_r8):
        # T_s is trivial for s = x2, so no finite F exists
        with pytest.raises(NotCommensuratedError) as info:
            lift_constants(ball_free2_r8)
        assert info.value.letters == ("x2", "x2^-1")

    def test_smaller_pair_bound_shrinks_m(self, ball_bs12_r10):
        assert compute_m(ball_bs12_r10, 1) == 3

    def test_m_shortfall_names_the_radius_it_needs(self):
        spec = baumslag_solitar(1, 3)
        with pytest.raises(InsufficientRadiusError, match="radius >= 5") as info:
            compute_m(build_ball(spec, 4), 2)
        assert info.value.required_radius == 5

    def test_constants_shape_validation(self):
        with pytest.raises(ConfigError):
            LiftConstants(f_per_letter=((1, 1),), m=0)
        # with no letter F is 0, so the positivity rule rejects it too
        with pytest.raises(ConfigError):
            LiftConstants(f_per_letter=(), m=1)


def q_walk_distances(ball, start, radius):
    """Length of the shortest walk along Q-letters from start to each vertex
    it reaches without leaving the given radius."""
    qlets = q_letters(ball.spec)
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
    goal = coset_key(spec, s_el)
    worst = 0
    for a in q_vertices:
        if ball.dist[a] > r:
            continue
        gaps = [
            d
            for b, d in q_walk_distances(ball, a, r).items()
            if coset_key(spec, group.multiply(ball.elements[b], s_el)) == goal
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
        q_vertices = [v for v, a in enumerate(ball.elements) if is_member(spec, a)]
        if text == "free:2":
            # no finite F: the scan for x2 reads radius + 1 at every radius
            growth = [brute_f(spec, ball, q_vertices, 2, i) for i in range(1, r + 1)]
            assert growth == list(range(2, r + 2))
            with pytest.raises(NotCommensuratedError):
                compute_f(spec)
            return
        f = compute_f(spec)
        assert f == {s: brute_f(spec, ball, q_vertices, s, r) for s in spec.letters}
        top = max(f.values())
        assert compute_m(ball, top) == brute_m(ball, q_vertices, top, r)


class TestHausdorffBound:
    """d(Q, sQ) <= max(F_s, F_{s^-1}): write q = (s y s^-1) r with s y s^-1 in
    T_s and |r|_Q < F_s, so q is within F_s of s y in sQ, and symmetrically
    s y is within F_{s^-1} of Q.  Every exact profile value must obey it,
    and on these groups every letter outside Q attains it."""

    @pytest.mark.parametrize("radius", [7, 9])
    @pytest.mark.parametrize("text", FINITE_F_GROUPS)
    def test_exact_profile_values_obey_the_bound(self, text, radius):
        spec = parse_group_spec(text)
        patch = build_coset_patch(build_ball(spec, radius))
        f = compute_f(spec)
        group = group_for(spec)
        outside = k_letters(spec)
        for s in spec.letters:
            profile = hausdorff_profile(
                patch, group.evaluate_word((s,)), default_radii(radius)
            )
            exact = [v.k for v in profile.values if v.exact]
            bound = max(f[s], f[-s])
            assert exact and max(exact) <= bound, s
            if s in outside:
                assert set(exact) == {bound}, s


class TestQWalkOracle:
    """first_hit on Q-steps over normal forms against the oracle's
    walk-carrying search on ball slots: hit for hit wherever the oracle
    tested no rim vertex.  On the rim the oracle stops and the forms walk on."""

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=REFERENCE_GROUPS)
    def test_matches_walk_carrying_search(self, spec):
        rng = random.Random(spec.describe())
        qlets = q_letters(spec)
        crossings = k_letters(spec) or spec.letters
        apply_letter = group_for(spec).apply_letter
        steps = q_steps(spec)
        compared = 0
        for radius in range(1, 7):
            ball = build_ball(spec, radius)
            elements = ball.elements
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

                def form_crosses(a):
                    b = apply_letter(a, crossing)
                    return b if ball.vertex(b) in lands else None

                hits = [
                    (lambda w: w if w == goal else None,
                     lambda a: a if a == elements[goal] else None),
                    (crosses, form_crosses),
                    (lambda w: None, lambda a: None),
                ]
                for hit, form_hit in hits:
                    for max_len in range(5):
                        want, saw_rim = reference_q_walk(ball, qlets, start, hit, max_len)
                        if saw_rim:
                            continue
                        got, _ = first_hit(elements[start], steps, form_hit, max_len)
                        if want is not None:
                            want = want[0], elements[want[1]]
                        assert got == want, (radius, start, max_len)
                        compared += 1
        assert compared > 0


class TestApproximateLift:
    def test_empty_path_lifts_to_base(self, patch_bs12_r10):
        lift = approximate_lift(patch_bs12_r10, LambdaPath((0,), ()), 0)
        assert lift.word == ()
        assert lift.end == group_for(patch_bs12_r10.spec).identity()

    def test_bs12_ascent_needs_no_padding(self, patch_bs12_r10):
        c0 = 0
        cosets = [c0]
        for _ in range(3):
            cosets.append(targets(patch_bs12_r10, cosets[-1], 2)[0])
        lp = LambdaPath(tuple(cosets), (2, 2, 2))
        lift = approximate_lift(patch_bs12_r10, lp, 0)
        assert lift.word == (2, 2, 2)
        assert lift.blocks == ((), (), ())
        assert lift.end == element(patch_bs12_r10.spec, "t^3")

    def test_bs23_odd_base_pads_one_step(self, ball_bs23_r10, patch_bs23_r10):
        spec = baumslag_solitar(2, 3)
        base = ball_bs23_r10.vertex(element(spec, "x^3"))
        even_child = targets(patch_bs23_r10, 0, 2)[0]
        lp = LambdaPath((0, even_child), (2,))
        lift = approximate_lift(patch_bs23_r10, lp, base)
        assert lift.blocks == ((-1,),)
        assert lift.letters == (2,)

    def test_lift_is_deterministic(self, patch_bs23_r10):
        rng = random.Random(3)
        lp = random_lambda_walk(patch_bs23_r10, rng, 4)
        first = approximate_lift(patch_bs23_r10, lp, 0)
        second = approximate_lift(patch_bs23_r10, lp, 0)
        assert first == second

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_short_walks_round_trip(self, seed, patch_bs12_r10):
        f = compute_f(patch_bs12_r10.spec)
        rng = random.Random(seed)
        for _ in range(50):
            lp = random_lambda_walk(patch_bs12_r10, rng, rng.randint(0, 5))
            lift = approximate_lift(patch_bs12_r10, lp, 0)
            assert project_path(patch_bs12_r10, PathInBall(0, lift.word)) == lp
            for block, letter in zip(lift.blocks, lift.letters):
                assert len(block) < f[letter]

    def test_base_must_project_to_start(self, ball_bs12_r10, patch_bs12_r10):
        spec = baumslag_solitar(1, 2)
        t_vid = ball_bs12_r10.vertex(element(spec, "t"))
        lp = LambdaPath((0, patch_bs12_r10.coset_of[t_vid]), (2,))
        with pytest.raises(ConfigError):
            approximate_lift(patch_bs12_r10, lp, t_vid)

    def test_rim_base_lifts_along_a_patch_edge(self, ball_bs12_r10, patch_bs12_r10):
        # t^9.x lies on the rim, which the ball lift never expanded, so it
        # refused this edge; on forms the walk x^-1 reaches the t^-1 edge
        spec = baumslag_solitar(1, 2)
        ball, patch = ball_bs12_r10, patch_bs12_r10
        rim = ball.vertex(element(spec, "t^9.x"))
        assert ball.dist[rim] == ball.radius
        cid = patch.coset_of[rim]
        target = patch.coset_of[ball.vertex(element(spec, "t^8"))]
        assert (-2, target) in list(patch.edges(cid))
        lp = LambdaPath((cid, target), (-2,))
        lift = approximate_lift(patch, lp, rim)
        assert lift.blocks == ((-1,),)
        assert lift.end == element(spec, "t^8")
        assert project_path(patch, PathInBall(rim, lift.word)) == lp

    def test_underestimated_f_violates_the_constant(self, patch_bs23_r10, monkeypatch):
        starved = {1: 1, -1: 1, 2: 1, -2: 1}
        monkeypatch.setattr(lifting, "compute_f", lambda spec: starved)
        t_children = targets(patch_bs23_r10, 0, 2)
        assert len(t_children) == 2
        lp = LambdaPath((0, t_children[1]), (2,))
        with pytest.raises(ConstantViolationError, match="F appears underestimated"):
            approximate_lift(patch_bs23_r10, lp, 0)

    def test_words_mode_rejected(self, ball_ab2_r12):
        patch = build_coset_patch(ball_ab2_r12, words=((1,),))
        with pytest.raises(ConfigError):
            approximate_lift(patch, LambdaPath((0,), ()), 0)


class TestFormLiftOracle:
    """Lifts on normal forms against the ball-slot lift of the oracle.

    Every commensurated reference group at radii 1..7, with random
    coset-graph walks from random bases.  The form lift always projects
    back, with every block shorter than F, and never reads M; it equals the
    oracle's lift wherever the oracle's searches stay clear of the rim, and
    on the rim the oracle may refuse or differ.
    """

    def test_sweep(self, monkeypatch):
        def no_m(*args):
            raise AssertionError("a lift read M")

        monkeypatch.setattr(lifting, "compute_m", no_m)
        tally = Counter()
        for text in REFERENCE_GROUPS:
            spec = parse_group_spec(text)
            try:
                f = compute_f(spec)
            except NotCommensuratedError:
                assert spec.family == "free"
                continue
            rng = random.Random(text)
            qlets = q_letters(spec)
            for radius in range(1, 8):
                ball = build_ball(spec, radius)
                patch = build_coset_patch(ball)
                for _ in range(60):
                    base = rng.randrange(ball.n_vertices)
                    lp = random_lambda_walk(
                        patch, rng, rng.randint(1, 6), patch.coset_of[base]
                    )
                    lift = approximate_lift(patch, lp, base)
                    assert project_path(patch, PathInBall(base, lift.word)) == lp
                    for block, letter in zip(lift.blocks, lift.letters):
                        assert len(block) < f[letter]
                    want, touched = reference_lift(
                        ball, patch.coset_of, qlets, lp, base, f
                    )
                    # the oracle fails only where the rim cut it short
                    assert want is not None or touched
                    got = {"blocks": lift.blocks, "letters": lift.letters, "end": lift.end}
                    tally["clear"] += not touched
                    if want is None:
                        tally["refused"] += 1
                    elif got == want:
                        tally["equal"] += 1
                    else:
                        assert touched, (text, radius, base, lp)
                        tally["differ"] += 1
        # "clear" counts the lifts whose oracle searches tested no rim
        # vertex; each of those is among the equal ones
        assert tally == {"equal": 2365, "refused": 1784, "differ": 51, "clear": 1221}
