"""Ray systems and homotopy-ladder certificates."""

from __future__ import annotations

import random

import pytest

from cosetgeom.cosetgraph import build_coset_patch
from cosetgeom.cayley import build_ball
from cosetgeom.errors import (
    ConfigError,
    ConstantViolationError,
    NotCommensuratedError,
)
from cosetgeom.groups import (
    baumslag_solitar,
    evaluate_word,
    free_abelian_group,
    group_for,
    parse_group_spec,
    parse_word,
    render_word,
)
from cosetgeom.homotopy import (
    build_ladder,
    build_ray_system,
    verify_ladder,
)
from cosetgeom.lifting import LiftConstants, compute_f, lift_constants
from cosetgeom.subgroups import coset_key, k_letters, q_letters, vertex_subgroup

from .oracles import REFERENCE_GROUPS, reference_ladder, reference_rays

Q = vertex_subgroup()
LADDER_FIELDS = (
    "target_key", "prefix_elements", "transfer_ends", "rung_ends", "alphas", "rungs"
)


def element(spec, text):
    return evaluate_word(spec, parse_word(spec, text))


def ball_neighbor_sets(ball):
    return [sorted({w for _, w in ball.edges(v)}) for v in range(ball.n_vertices)]


@pytest.fixture(scope="module")
def constants_bs12(ball_bs12_r10):
    return lift_constants(Q, ball_bs12_r10)


@pytest.fixture(scope="module")
def constants_bs23(ball_bs23_r10):
    return lift_constants(Q, ball_bs23_r10)


@pytest.fixture(scope="module")
def constants_ab2(ball_ab2_r12):
    return lift_constants(Q, ball_ab2_r12)


@pytest.fixture(scope="module")
def ladder_bs23(constants_bs23):
    return build_ladder(Q, baumslag_solitar(2, 3), (1,) * 6, 2, constants_bs23)


class TestRaySystems:
    def check_invariants(self, system, neighbor_sets):
        for v, ray in enumerate(system.rays):
            assert ray[0] == v
            for a, b in zip(ray, ray[1:]):
                assert b in neighbor_sets[a]
                assert system.shell[b] == system.shell[a] + 1
            tip = ray[-1]
            if system.shell[tip] < system.horizon:
                outward = [
                    w
                    for w in neighbor_sets[tip]
                    if system.shell[w] == system.shell[tip] + 1
                ]
                assert outward == []

    def test_ball_rays_reach_the_horizon(self, ball_ab2_r12, ball_free2_r8):
        for ball in (ball_ab2_r12, ball_free2_r8):
            system = build_ray_system(ball)
            assert system.graph_kind == "ball"
            assert system.horizon == ball.radius
            self.check_invariants(system, ball_neighbor_sets(ball))
            for ray in system.rays:
                assert system.shell[ray[-1]] == system.horizon

    def test_bs_ball_rays_are_monotone(self, ball_bs12_r10):
        system = build_ray_system(ball_bs12_r10)
        self.check_invariants(system, ball_neighbor_sets(ball_bs12_r10))

    def test_patch_rays(self, ball_bs23_r10):
        patch = build_coset_patch(Q, ball_bs23_r10)
        system = build_ray_system(patch)
        assert system.graph_kind == "patch"
        neighbor_sets = [patch.neighbors(c) for c in range(patch.n_cosets)]
        self.check_invariants(system, neighbor_sets)
        star = [c for c in range(patch.n_cosets) if patch.dist[c] <= 1]
        assert len(star) == 6

    def test_rebased_shells(self, ball_ab2_r12):
        ball = ball_ab2_r12
        base = ball.vertex(element(free_abelian_group(2), "x2"))
        system = build_ray_system(ball, base=base)
        assert system.base == base
        assert system.shell[base] == 0
        assert system.shell[0] == 1
        self.check_invariants(system, ball_neighbor_sets(ball))

    def test_rebased_shells_on_a_patch(self, patch_bs23_r10):
        patch = patch_bs23_r10
        rng = random.Random(21)
        for base in [1, patch.n_cosets - 1, *rng.sample(range(2, patch.n_cosets - 1), 3)]:
            system = build_ray_system(patch, base=base)
            assert system.shell[base] == 0
            shell = [-1] * patch.n_cosets
            shell[base] = 0
            frontier = [base]
            while frontier:
                nxt = []
                for c in frontier:
                    for d in patch.neighbors(c):
                        if shell[d] == -1:
                            shell[d] = shell[c] + 1
                            nxt.append(d)
                frontier = nxt
            assert system.shell == tuple(shell)
            assert system.horizon == max(shell)
            self.check_invariants(
                system, [patch.neighbors(c) for c in range(patch.n_cosets)]
            )

    @pytest.mark.parametrize("text", REFERENCE_GROUPS)
    def test_rays_match_a_greedy_walk_from_every_vertex(self, text):
        """Rays built shell by shell against each vertex's own greedy walk,
        on balls and patches at radii 0-6, from base 0 and from other bases."""
        spec = parse_group_spec(text)
        rng = random.Random(text)
        for radius in range(7):
            ball = build_ball(spec, radius)
            patch = build_coset_patch(Q, ball)
            for graph, n in ((ball, ball.n_vertices), (patch, patch.n_cosets)):
                for base in {0, n - 1, rng.randrange(n)}:
                    system = build_ray_system(graph, base=base)
                    shell, rays = reference_rays(graph.neighbors, n, base)
                    assert system.shell == tuple(shell), (radius, base)
                    assert list(system.rays) == rays, (radius, base)

    def test_bad_inputs(self, ball_free2_r8):
        with pytest.raises(ConfigError):
            build_ray_system(ball_free2_r8, base=-1)
        with pytest.raises(ConfigError):
            build_ray_system(ball_free2_r8, base=ball_free2_r8.n_vertices)
        with pytest.raises(ConfigError):
            build_ray_system(object())


class TestLadderConstruction:
    def test_ab2_ladders_are_commutator_squares(self, constants_ab2):
        spec = free_abelian_group(2)
        ladder = build_ladder(Q, spec, (1, 1, 1), 2, constants_ab2)
        assert ladder.n_loops == 3
        assert ladder.alphas == ((), (), (), ())
        assert ladder.rungs == ((1,), (1,), (1,))
        assert ladder.loop_words() == ((2, 1, -2, -1),) * 3
        assert verify_ladder(spec, ladder).ok

    def test_bs12_rungs_double_the_prefix(self, constants_bs12):
        spec = baumslag_solitar(1, 2)
        ladder = build_ladder(Q, spec, (1,) * 4, 2, constants_bs12)
        assert ladder.alphas == ((),) * 5
        assert ladder.rungs == ((1, 1),) * 4
        assert ladder.output_word() == (2,) + (1,) * 8
        group = group_for(spec)
        assert group.evaluate_word(ladder.output_word()) == ladder.rung_ends[-1]
        assert verify_ladder(spec, ladder).ok

    def test_bs23_ladder_values(self, ladder_bs23, constants_bs23):
        spec = baumslag_solitar(2, 3)
        ladder = ladder_bs23
        assert ladder.n_loops == 6
        assert ladder.alphas == ((), (-1,), (), (-1,), (), (-1,), ())
        assert ladder.rungs == ((), (1, 1, 1), (), (1, 1, 1), (), (1, 1, 1))
        lengths = tuple(len(w) for w in ladder.loop_words())
        assert lengths == (4, 7, 4, 7, 4, 7)
        assert max(lengths) <= constants_bs23.l
        group = group_for(spec)
        ident = group.identity()
        for word in ladder.loop_words():
            assert group.evaluate_word(word) == ident
        assert group.evaluate_word(ladder.output_word()) == ladder.rung_ends[-1]

    def test_rung_ends_share_the_target_coset(self, ladder_bs23):
        spec = baumslag_solitar(2, 3)
        for el in ladder_bs23.rung_ends:
            assert coset_key(spec, Q, el) == ladder_bs23.target_key

    def test_report_shape(self, ladder_bs23):
        report = verify_ladder(baumslag_solitar(2, 3), ladder_bs23)
        assert report.ok
        assert report.n_loops == 6
        assert report.failed_loops() == ()

    def test_crossing_letter_must_leave_q(self, constants_bs12):
        with pytest.raises(ConfigError):
            build_ladder(Q, baumslag_solitar(1, 2), (1,), 1, constants_bs12)

    def test_prefix_letters_must_stay_in_q(self, constants_bs12):
        with pytest.raises(ConfigError):
            build_ladder(Q, baumslag_solitar(1, 2), (2,), 2, constants_bs12)

    def test_prefix_leaving_the_ball(self, ball_ab2_r12, constants_ab2):
        # the ladder walks on normal forms: the ball its constants came
        # from does not bound the prefix
        spec = free_abelian_group(2)
        ladder = build_ladder(Q, spec, (1,) * 13, 2, constants_ab2)
        assert ball_ab2_r12.vertex(ladder.prefix_elements[-1]) is None
        assert ladder.n_loops == 13
        assert verify_ladder(spec, ladder).ok

    def test_starved_f_is_flagged(self):
        starved = LiftConstants(
            f_per_letter=((1, 1), (-1, 1), (2, 1), (-2, 2)),
            m=5,
        )
        with pytest.raises(ConstantViolationError, match="F appears underestimated"):
            build_ladder(Q, baumslag_solitar(2, 3), (1,), 2, starved)

    def test_starved_m_is_flagged(self):
        starved = LiftConstants(
            f_per_letter=((1, 1), (-1, 1), (2, 1), (-2, 2)),
            m=1,
        )
        with pytest.raises(ConstantViolationError, match="M appears underestimated"):
            build_ladder(Q, baumslag_solitar(1, 2), (1, 1), 2, starved)


class TestFormLadderOracle:
    """Ladders on normal forms against the ball-slot ladder of the oracle.

    Every reference group at radii 3..7, every K-letter crossing, and every
    power of a Q-letter up to the radius as prefix.  The form ladder always
    verifies, and it equals the oracle's wherever the oracle's searches
    stay clear of the rim; on the rim the oracle may refuse or differ.
    """

    def test_sweep(self):
        tally = {"equal": 0, "refused": 0, "differ": 0}
        differ = []  # (group, radius, prefix, crossing)
        for text in REFERENCE_GROUPS:
            spec = parse_group_spec(text)
            try:
                f = max(compute_f(Q, spec).values())
            except NotCommensuratedError:
                assert spec.family == "free"
                continue
            constants = lift_constants(Q, build_ball(spec, 2 * f + 1))
            key = lambda a: coset_key(spec, Q, a)
            for radius in range(3, 8):
                ball = build_ball(spec, radius)
                for crossing in k_letters(spec, Q):
                    for x in q_letters(spec, Q):
                        for power in range(1, radius + 1):
                            prefix = (x,) * power
                            ladder = build_ladder(Q, spec, prefix, crossing, constants)
                            assert verify_ladder(spec, ladder).ok
                            want, touched = reference_ladder(
                                ball, q_letters(spec, Q), prefix, crossing,
                                constants.f_for(crossing), constants.m, key,
                            )
                            # the oracle fails only where the rim cut it short
                            assert want is not None or touched
                            got = {name: getattr(ladder, name) for name in LADDER_FIELDS}
                            case = (text, radius, render_word(spec, prefix), crossing)
                            if want is None:
                                tally["refused"] += 1
                            elif got == want:
                                tally["equal"] += 1
                            else:
                                assert touched, case
                                tally["differ"] += 1
                                differ.append(case)
        # the eight that differ are x^-3 at radius 4 and x^-5 at radius 6 on
        # bs:2,3, bs:-2,3 and bs:3,-2, and x1^3 and x1^5 there on hnn:2,0 1;2 1
        assert tally == {"equal": 797, "refused": 295, "differ": 8}, differ


class TestLadderVerifier:
    def test_corrupt_rung_endpoint_breaks_two_adjacent_loops(self, ladder_bs23):
        spec = baumslag_solitar(2, 3)
        group = group_for(spec)
        ends = list(ladder_bs23.rung_ends)
        ends[3] = group.evaluate_word((1,), ends[3])
        report = verify_ladder(spec, ladder_bs23._replace(rung_ends=tuple(ends)))
        assert not report.ok
        assert report.failed_loops() == (2, 3)
        assert all(v.kind == "identity" for v in report.violations)

    def test_corrupt_first_endpoint_breaks_one_loop(self, ladder_bs23):
        spec = baumslag_solitar(2, 3)
        group = group_for(spec)
        ends = list(ladder_bs23.rung_ends)
        ends[0] = group.evaluate_word((1,), ends[0])
        report = verify_ladder(spec, ladder_bs23._replace(rung_ends=tuple(ends)))
        assert report.failed_loops() == (0,)

    def test_oversize_rung_is_flagged(self, constants_bs12):
        spec = baumslag_solitar(1, 2)
        ladder = build_ladder(Q, spec, (1,) * 4, 2, constants_bs12)
        rungs = list(ladder.rungs)
        rungs[2] = rungs[2] + (1, -1) * 3
        report = verify_ladder(spec, ladder._replace(rungs=tuple(rungs)))
        assert not report.ok
        assert report.failed_loops() == (2,)
        assert {v.kind for v in report.violations} == {"length"}

    def test_corrupt_rung_word_fails_word_and_identity(self, ladder_bs23):
        spec = baumslag_solitar(2, 3)
        rungs = list(ladder_bs23.rungs)
        rungs[1] = rungs[1] + (1,)
        report = verify_ladder(spec, ladder_bs23._replace(rungs=tuple(rungs)))
        assert report.failed_loops() == (1,)
        assert {v.kind for v in report.violations} == {"word", "identity"}

    def test_oversize_alpha_is_flagged(self, ladder_bs23):
        spec = baumslag_solitar(2, 3)
        alphas = list(ladder_bs23.alphas)
        alphas[1] = (-1, 1, -1)
        report = verify_ladder(spec, ladder_bs23._replace(alphas=tuple(alphas)))
        assert not report.ok
        assert set(report.failed_loops()) == {0, 1}
        kinds = {v.kind for v in report.violations}
        assert "length" in kinds

    def test_dropped_rung_is_a_structure_error(self, ladder_bs23):
        spec = baumslag_solitar(2, 3)
        report = verify_ladder(spec, ladder_bs23._replace(rungs=ladder_bs23.rungs[:-1]))
        assert not report.ok
        assert report.violations[0].kind == "structure"
        assert report.violations[0].loop == -1
