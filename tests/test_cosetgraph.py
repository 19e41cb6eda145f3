"""Coset-graph patches: interning, trust, degrees, projection."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from cosetgeom.cayley import PathInBall, build_ball, walk_path
from cosetgeom.cosetgraph import (
    LambdaPath,
    build_coset_patch,
    degree_profile,
    project_path,
)
from cosetgeom.errors import ConfigError
from cosetgeom.metrics import hausdorff_profile
from cosetgeom.groups import (
    baumslag_solitar,
    free_abelian_group,
    free_group,
    group_for,
    parse_group_spec,
)
from cosetgeom.subgroups import coset_key, is_member, vertex_subgroup, word_subgroup

from .oracles import REFERENCE_GROUPS, coset_sweep, formatted_coset_key

Q = vertex_subgroup()


class TestBaumslagSolitarPatches:
    def test_bs12_every_trusted_coset_has_three_neighbors_at_margin_two(self):
        ball = build_ball(baumslag_solitar(1, 2), 6)
        patch = build_coset_patch(Q, ball, trust_margin=2)
        for cid in range(patch.n_cosets):
            if patch.trusted[cid]:
                assert patch.degree(cid) == 3
                assert len(patch.adj[cid].get(2, ())) == 1
                assert len(patch.adj[cid].get(-2, ())) == 2
        prof = degree_profile(patch)
        assert prof.max_degree == 3
        assert prof.histogram == ((3, prof.n_trusted),)

    def test_bs12_default_margin_never_exceeds_three(self):
        ball = build_ball(baumslag_solitar(1, 2), 6)
        patch = build_coset_patch(Q, ball)
        prof = degree_profile(patch)
        assert prof.max_degree == 3
        assert prof.per_label == ((-2, 2), (2, 1))

    def test_bs23_max_trusted_degree_is_five(self):
        ball = build_ball(baumslag_solitar(2, 3), 5)
        patch = build_coset_patch(Q, ball)
        prof = degree_profile(patch)
        assert prof.max_degree == 5
        assert prof.per_label == ((-2, 3), (2, 2))
        assert prof.histogram_dict()[5] >= 1

    def test_x_letters_never_leave_a_coset(self):
        ball = build_ball(baumslag_solitar(2, 3), 5)
        patch = build_coset_patch(Q, ball)
        for cid in range(patch.n_cosets):
            assert 1 not in patch.adj[cid]
            assert -1 not in patch.adj[cid]


class TestAbelianAndFreePatches:
    def test_z2_patch_is_a_path_graph(self):
        ball = build_ball(free_abelian_group(2), 5)
        patch = build_coset_patch(Q, ball)
        assert patch.n_cosets == 11
        for cid in range(patch.n_cosets):
            assert patch.degree(cid) <= 2
            for targets in patch.adj[cid].values():
                for other in targets:
                    assert abs(patch.dist[other] - patch.dist[cid]) == 1
        assert patch.degree(patch.base) == 2

    def test_free2_base_coset_degree_grows_with_radius(self):
        maxima = []
        for radius in (3, 4, 5):
            ball = build_ball(free_group(2), radius)
            patch = build_coset_patch(Q, ball)
            assert patch.degree(patch.base) == 2 * (2 * radius - 1)
            maxima.append(degree_profile(patch).max_degree)
        assert maxima[0] < maxima[1] < maxima[2]


@pytest.mark.parametrize("text", REFERENCE_GROUPS)
def test_patch_labelling_matches_a_coset_key_sweep(text):
    spec = parse_group_spec(text)
    for radius in range(7):
        ball = build_ball(spec, radius)
        patch = build_coset_patch(Q, ball)
        keys, coset_of = coset_sweep([coset_key(spec, Q, a) for a in ball.elements])
        assert list(patch.keys) == keys, radius
        assert list(patch.coset_of) == coset_of, radius
        assert [patch.coset_id(key) for key in keys] == list(range(len(keys)))
        for c in range(patch.n_cosets):
            flat = [(l, t) for l, targets in patch.adj[c].items() for t in targets]
            assert list(patch.edges(c)) == flat, (radius, c)


@pytest.mark.parametrize("text", REFERENCE_GROUPS)
def test_patch_cosets_are_the_membership_classes(text):
    """a and b share a coset exactly when a^-1 b is in Q, keys byte for byte.

    Every vertex differs from its coset's witness by an element of Q and no
    two witnesses do, which together say exactly that.
    """
    spec = parse_group_spec(text)
    group = group_for(spec)
    reduce = getattr(group, "reduce_mod_image", None)
    for radius in range(7):
        ball = build_ball(spec, radius)
        patch = build_coset_patch(Q, ball)
        witnesses = [ball.elements[w] for w in patch.witness]
        inverses = [group.invert(w) for w in witnesses]
        for v, a in enumerate(ball.elements):
            assert is_member(spec, Q, group.multiply(inverses[patch.coset_of[v]], a))
            assert coset_key(spec, Q, a) == formatted_coset_key(spec.family, a, reduce)
        for c, inverse in enumerate(inverses):
            for w in witnesses[c + 1 :]:
                assert not is_member(spec, Q, group.multiply(inverse, w)), (radius, c)
        assert list(patch.keys) == [
            formatted_coset_key(spec.family, w, reduce) for w in witnesses
        ]
        for c in range(patch.n_cosets):
            swept = [v for v, cv in enumerate(patch.coset_of) if cv == c]
            assert list(patch.vertices_in_coset(c)) == swept, (radius, c)


class TestPartitionSoundness:
    def test_same_coset_iff_difference_is_member(self):
        spec = baumslag_solitar(2, 3)
        group = group_for(spec)
        ball = build_ball(spec, 4)
        patch = build_coset_patch(Q, ball)
        for u in range(ball.n_vertices):
            au_inv = group.invert(ball.elements[u])
            for v in range(u, ball.n_vertices):
                diff = group.multiply(au_inv, ball.elements[v])
                same = patch.coset_of[u] == patch.coset_of[v]
                assert same == is_member(spec, Q, diff)

    def test_words_mode_agrees_with_vertex_mode_on_z2(self):
        spec = free_abelian_group(2)
        ball = build_ball(spec, 5)
        by_vertex = build_coset_patch(Q, ball)
        by_words = build_coset_patch(word_subgroup(((1,),)), ball)
        assert by_words.coset_of == by_vertex.coset_of
        assert by_words.adj == by_vertex.adj
        assert by_words.trusted == by_vertex.trusted


class TestProjection:
    def test_q_letter_paths_project_to_a_point(self, ball_bs12_r10):
        patch = build_coset_patch(Q, ball_bs12_r10)
        lam = project_path(patch, PathInBall(0, (1, 1, -1, 1)))
        assert len(lam) == 0
        assert lam.cosets == (patch.base,)

    def test_projection_end_matches_coset_of_endpoint(self, ball_bs12_r10):
        ball = ball_bs12_r10
        patch = build_coset_patch(Q, ball)
        word = (2, 1, -2, -2, 1, 2)
        lam = project_path(patch, PathInBall(0, word))
        end_vertex = walk_path(ball, PathInBall(0, word))[-1]
        assert lam.end == patch.coset_of[end_vertex]

    def test_projected_steps_are_patch_edges(self, ball_bs23_r10):
        ball = ball_bs23_r10
        patch = build_coset_patch(Q, ball)
        word = (1, 2, 1, -2, 1, -2, 1, 1)
        lam = project_path(patch, PathInBall(0, word))
        for i, letter in enumerate(lam.letters):
            assert lam.cosets[i + 1] in patch.adj[lam.cosets[i]][letter]

    @given(
        w1=st.lists(st.sampled_from([1, -1, 2, -2]), max_size=3),
        w2=st.lists(st.sampled_from([1, -1, 2, -2]), max_size=3),
    )
    def test_projection_is_functorial(self, ball_bs12_r10, w1, w2):
        ball = ball_bs12_r10
        patch = build_coset_patch(Q, ball)
        mid = walk_path(ball, PathInBall(0, tuple(w1)))[-1]
        lam1 = project_path(patch, PathInBall(0, tuple(w1)))
        lam2 = project_path(patch, PathInBall(mid, tuple(w2)))
        lam12 = project_path(patch, PathInBall(0, tuple(w1 + w2)))
        assert lam1.concat(lam2) == lam12


class TestPatchStructure:
    def test_patch_keys_are_distinct(self, ball_bs23_r10):
        patch = build_coset_patch(Q, ball_bs23_r10)
        assert len(set(patch.keys)) == patch.n_cosets
        for cid, key in enumerate(patch.keys):
            assert patch.coset_id(key) == cid

    def test_patch_monotone_under_radius_growth(self):
        spec = baumslag_solitar(2, 3)
        small = build_coset_patch(Q, build_ball(spec, 4))
        large = build_coset_patch(Q, build_ball(spec, 5))
        for cid, key in enumerate(small.keys):
            big_id = large.coset_id(key)
            assert big_id is not None
            if small.trusted[cid]:
                assert large.trusted[big_id]
        for cid in range(small.n_cosets):
            for letter, targets in small.adj[cid].items():
                mapped = large.coset_id(small.keys[cid])
                for other in targets:
                    assert large.coset_id(small.keys[other]) in large.adj[mapped][letter]

    def test_base_coset_contains_exactly_the_members(self, ball_bs23_r10):
        ball = ball_bs23_r10
        patch = build_coset_patch(Q, ball)
        spec = ball.spec
        for v in range(ball.n_vertices):
            in_base = patch.coset_of[v] == patch.base
            assert in_base == is_member(spec, Q, ball.elements[v])

    def test_coset_graph_waits_for_first_use(self, ball_bs23_r10):
        patch = build_coset_patch(Q, ball_bs23_r10)
        t = group_for(patch.spec).evaluate_word((2,))
        hausdorff_profile(patch, t, [2, 3, 4])
        assert "_graph" not in vars(patch)
        assert patch.dist[patch.base] == 0
        assert "_graph" in vars(patch)

    def test_lambda_path_validation(self):
        with pytest.raises(ValueError):
            LambdaPath((0, 1), ())
        p1 = LambdaPath((0, 1), (2,))
        p2 = LambdaPath((3, 0), (-2,))
        with pytest.raises(ValueError):
            p1.concat(p2)

    def test_build_rejects_bad_inputs(self, ball_bs23_r10):
        with pytest.raises(ConfigError):
            build_coset_patch(Q, ball_bs23_r10, trust_margin=0)
