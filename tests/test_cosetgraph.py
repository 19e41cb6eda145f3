"""Coset-graph patches: interning, trust, degrees, projection."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from cosetgeom.cayley import (
    UNREACHED,
    PathInBall,
    build_ball,
    load_ball,
    save_ball,
)
from cosetgeom.cosetgraph import (
    LambdaPath,
    build_coset_patch,
    degree_profile,
    project_path,
)
from cosetgeom.errors import ConfigError, InsufficientRadiusError
from cosetgeom.metrics import hausdorff_profile
from cosetgeom.groups import (
    baumslag_solitar,
    evaluate_word,
    free_abelian_group,
    free_group,
    group_for,
    parse_group_spec,
)
from cosetgeom.subgroups import (
    coset_key,
    is_member,
    q_letters,
)

from .oracles import (
    REFERENCE_GROUPS,
    coset_sweep,
    formatted_coset_key,
    queue_distances,
    reference_coset_graph,
    reference_word_classes,
)


class TestBaumslagSolitarPatches:
    def test_bs12_every_trusted_coset_has_three_neighbors_at_margin_two(self):
        ball = build_ball(baumslag_solitar(1, 2), 6)
        patch = build_coset_patch(ball, trust_margin=2)
        for cid in range(patch.n_cosets):
            if patch.trusted[cid]:
                assert patch.degree(cid) == 3
                letters = [letter for letter, _ in patch.edges(cid)]
                assert letters.count(2) == 1
                assert letters.count(-2) == 2
        prof = degree_profile(patch)
        assert prof.max_degree == 3
        assert prof.histogram == ((3, prof.n_trusted),)

    def test_bs12_default_margin_never_exceeds_three(self):
        ball = build_ball(baumslag_solitar(1, 2), 6)
        patch = build_coset_patch(ball)
        prof = degree_profile(patch)
        assert prof.max_degree == 3
        assert prof.per_label == ((-2, 2), (2, 1))

    def test_bs23_max_trusted_degree_is_five(self):
        ball = build_ball(baumslag_solitar(2, 3), 5)
        patch = build_coset_patch(ball)
        prof = degree_profile(patch)
        assert prof.max_degree == 5
        assert prof.per_label == ((-2, 3), (2, 2))
        assert dict(prof.histogram)[5] >= 1

    def test_x_letters_never_leave_a_coset(self):
        ball = build_ball(baumslag_solitar(2, 3), 5)
        patch = build_coset_patch(ball)
        for cid in range(patch.n_cosets):
            assert {letter for letter, _ in patch.edges(cid)}.isdisjoint({1, -1})


class TestAbelianAndFreePatches:
    def test_z2_patch_is_a_path_graph(self):
        ball = build_ball(free_abelian_group(2), 5)
        patch = build_coset_patch(ball)
        assert patch.n_cosets == 11
        for cid in range(patch.n_cosets):
            assert patch.degree(cid) <= 2
            for _, other in patch.edges(cid):
                assert abs(patch.dist[other] - patch.dist[cid]) == 1
        assert patch.degree(patch.base) == 2

    def test_free2_base_coset_degree_grows_with_radius(self):
        maxima = []
        for radius in (3, 4, 5):
            ball = build_ball(free_group(2), radius)
            patch = build_coset_patch(ball)
            assert patch.degree(patch.base) == 2 * (2 * radius - 1)
            maxima.append(degree_profile(patch).max_degree)
        assert maxima[0] < maxima[1] < maxima[2]


@pytest.mark.parametrize("text", REFERENCE_GROUPS)
def test_patch_labelling_matches_a_coset_key_sweep(text):
    spec = parse_group_spec(text)
    for radius in range(7):
        ball = build_ball(spec, radius)
        patch = build_coset_patch(ball)
        keys, coset_of = coset_sweep([coset_key(spec, a) for a in ball.elements])
        assert list(patch.keys) == keys, radius
        assert list(patch.coset_of) == coset_of, radius
        witnesses = [ball.elements[w] for w in patch.witness]
        assert list(map(patch.coset_of_element, witnesses)) == list(range(len(keys)))
        reference = reference_coset_graph(ball, coset_of, q_letters(spec))
        for c in range(patch.n_cosets):
            assert list(patch.edges(c)) == reference.edges(c), (radius, c)


def word_subgroups(spec):
    """Generator words of words patches: <x> and <x^2, x^3>, and on two or
    more generators <x, y.x.y^-1>, which in bs:1,2 is the conjugate tQt^-1."""
    out = [((1,),), ((1, 1), (1, 1, 1))]
    if len(spec.letters) > 2:
        out.append(((1,), (2, 1, -2)))
    return out


@pytest.mark.parametrize("mode", ["vertex", "words"])
@pytest.mark.parametrize("text", REFERENCE_GROUPS)
def test_lazy_parts_match_an_eager_build(text, mode):
    """Every lazily built part of a patch against the labelling swept in one
    go (a coset-key sweep, or in words mode the translation classes), read
    in an order that builds the parts one at a time: per-coset members,
    coset_of_element (on ball elements and one step past the rim, in vertex
    order and then shuffled on a fresh patch), edges, neighbours and keys."""
    spec = parse_group_spec(text)
    group = group_for(spec)
    subgroups = [()] if mode == "vertex" else word_subgroups(spec)
    for radius in range(7):
        ball = build_ball(spec, radius)
        for words in subgroups:
            if mode == "vertex":
                labels = [coset_key(spec, a) for a in ball.elements]
            else:
                labels = reference_word_classes(ball, group, words)
            _, coset_of = coset_sweep(labels)
            n = max(coset_of) + 1
            witness = [coset_of.index(c) for c in range(n)]
            members = [[v for v, c in enumerate(coset_of) if c == cid] for cid in range(n)]
            patch = build_coset_patch(ball, words=words)
            where = (radius, words)
            assert patch.n_cosets == n, where
            assert list(patch.coset_of) == coset_of, where
            assert list(patch.witness) == witness, where
            for cid in reversed(range(n)):
                assert list(patch.vertices_in_coset(cid)) == members[cid], (where, cid)
            if mode == "vertex":
                keys = [coset_key(spec, ball.elements[w]) for w in witness]
                id_of_key = {key: cid for cid, key in enumerate(keys)}
                for v, a in enumerate(ball.elements):
                    assert patch.coset_of_element(a) == coset_of[v], (where, v)
                    for letter in spec.letters:
                        b = group.apply_letter(a, letter)
                        assert patch.coset_of_element(b) == id_of_key.get(
                            coset_key(spec, b)
                        ), (where, v, letter)
                # out of order on a fresh patch, so the lookups stop and
                # resume their scan: ball elements, one step past them, a
                # few powers far outside the ball, a third of them repeated
                rng = random.Random(radius)
                queries = [
                    b
                    for a in ball.elements
                    for b in (a, *(group.apply_letter(a, l) for l in spec.letters))
                ]
                queries += [
                    group.evaluate_word((letter,) * (radius + e))
                    for letter in spec.letters
                    for e in (2, 5)
                ]
                queries += rng.sample(queries, len(queries) // 3)
                rng.shuffle(queries)
                fresh = build_coset_patch(ball)
                expected = [id_of_key.get(coset_key(spec, b)) for b in queries]
                assert (None in expected) == (len(spec.letters) > 2), where
                assert list(map(fresh.coset_of_element, queries)) == expected, where
            else:
                keys = [group.canonical_key(ball.elements[w]) for w in witness]
                with pytest.raises(ConfigError):
                    patch.coset_of_element(ball.elements[0])
            inside = q_letters(spec) if mode == "vertex" else ()
            reference = reference_coset_graph(ball, coset_of, inside)
            for cid in range(n):
                assert list(patch.edges(cid)) == reference.edges(cid), (where, cid)
                assert list(patch.neighbors(cid)) == reference.neighbors(cid), (where, cid)
            assert list(patch.keys) == keys, where


def assert_graph_matches_reference(patch):
    ball = patch.ball
    inside = () if patch.words else q_letters(ball.spec)
    reference = reference_coset_graph(ball, patch.coset_of, inside)
    n = patch.n_cosets
    for c in range(n):
        assert list(patch.edges(c)) == reference.edges(c), c
        assert list(patch.neighbors(c)) == reference.neighbors(c), c
        assert patch.degree(c) == len(reference.neighbors(c)), c
    depth = queue_distances(reference, [patch.base])
    assert list(patch.dist) == [depth.get(c, UNREACHED) for c in range(n)]


@pytest.mark.parametrize("text", REFERENCE_GROUPS)
def test_flat_coset_graph_matches_a_walk_over_ball_edges(text):
    """edges, neighbors, degree and dist against every ball edge projected:
    in vertex mode, for words:x, and for words:x^2,x^3, where the letter x
    is not a generator word, so x-edges inside a class must be dropped."""
    spec = parse_group_spec(text)
    subgroups = [(), ((1,),), ((1, 1), (1, 1, 1))]
    for radius in range(7):
        ball = build_ball(spec, radius)
        for words in subgroups:
            assert_graph_matches_reference(build_coset_patch(ball, words=words))


@pytest.mark.parametrize("text, radius, bound", [("bs:2,3", 8, 280), ("free:2", 7, 400)])
def test_patch_build_peak_bytes_per_vertex(text, radius, bound):
    """Building a patch and its coset graph keeps no Python object per vertex
    or per (coset, letter): a list of label tuples and a dict of target
    tuples per coset peaked at 403 and 566 bytes per vertex on these balls,
    against about 150 and 215 with a one-pass labelling and flat arrays."""
    ball = build_ball(parse_group_spec(text), radius)
    tracemalloc.start()
    try:
        build_coset_patch(ball).dist
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / ball.n_vertices < bound


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
        patch = build_coset_patch(ball)
        witnesses = [ball.elements[w] for w in patch.witness]
        inverses = [group.invert(w) for w in witnesses]
        for v, a in enumerate(ball.elements):
            assert is_member(spec, group.multiply(inverses[patch.coset_of[v]], a))
            assert coset_key(spec, a) == formatted_coset_key(spec.family, a, reduce)
        for c, inverse in enumerate(inverses):
            for w in witnesses[c + 1 :]:
                assert not is_member(spec, group.multiply(inverse, w)), (radius, c)
        assert list(patch.keys) == [
            formatted_coset_key(spec.family, w, reduce) for w in witnesses
        ]
        for c in range(patch.n_cosets):
            swept = [v for v, cv in enumerate(patch.coset_of) if cv == c]
            assert list(patch.vertices_in_coset(c)) == swept, (radius, c)


@pytest.mark.parametrize(
    "text, radius", [("bs:1,2", 7), ("bs:2,3", 6), ("bs:-2,3", 6), ("bs:1,300", 3)]
)
def test_loaded_bs_patch_labels_by_arena_bytes(tmp_path, text, radius):
    """A loaded bs ball labels its vertices by the arena bytes of each form
    less its last int, in two-byte ints or the four of bs:1,300: the patch
    and coset_of_element agree with the tuple labels of the built ball,
    also one letter past the rim and for a label too wide for the arena."""
    spec = parse_group_spec(text)
    built = build_ball(spec, radius)
    save_ball(built, str(tmp_path / "ball"))
    by_tuple = build_coset_patch(built)
    by_bytes = build_coset_patch(load_ball(str(tmp_path / "ball")))
    assert by_bytes.coset_of.typecode == "i"
    assert list(by_bytes.coset_of) == list(by_tuple.coset_of)
    assert (by_bytes.witness, by_bytes.trusted) == (by_tuple.witness, by_tuple.trusted)
    group = group_for(spec)
    beyond = [group.apply_letter(a, l) for a in built.elements for l in spec.letters]
    for a in built.elements + beyond:
        assert by_bytes.coset_of_element(a) == by_tuple.coset_of_element(a)
    longest = max(built.elements, key=len)
    wide = (*longest[:-2], 1 << 40, longest[-1])
    assert by_bytes.coset_of_element(wide) is by_tuple.coset_of_element(wide) is None


class TestPartitionSoundness:
    def test_same_coset_iff_difference_is_member(self):
        spec = baumslag_solitar(2, 3)
        group = group_for(spec)
        ball = build_ball(spec, 4)
        patch = build_coset_patch(ball)
        for u in range(ball.n_vertices):
            au_inv = group.invert(ball.elements[u])
            for v in range(u, ball.n_vertices):
                diff = group.multiply(au_inv, ball.elements[v])
                same = patch.coset_of[u] == patch.coset_of[v]
                assert same == is_member(spec, diff)

    def test_words_mode_agrees_with_vertex_mode_on_z2(self):
        spec = free_abelian_group(2)
        ball = build_ball(spec, 5)
        by_vertex = build_coset_patch(ball)
        by_words = build_coset_patch(ball, words=((1,),))
        assert by_words.coset_of == by_vertex.coset_of
        assert [list(by_words.edges(c)) for c in range(by_words.n_cosets)] == [
            list(by_vertex.edges(c)) for c in range(by_vertex.n_cosets)
        ]
        assert by_words.trusted == by_vertex.trusted


class TestProjection:
    def test_q_letter_paths_project_to_a_point(self, ball_bs12_r10):
        patch = build_coset_patch(ball_bs12_r10)
        lam = project_path(patch, PathInBall(0, (1, 1, -1, 1)))
        assert len(lam) == 0
        assert lam.cosets == (patch.base,)

    def test_projection_end_matches_coset_of_endpoint(self, ball_bs12_r10):
        ball = ball_bs12_r10
        patch = build_coset_patch(ball)
        word = (2, 1, -2, -2, 1, 2)
        lam = project_path(patch, PathInBall(0, word))
        end_vertex = ball.vertex(evaluate_word(ball.spec, word))
        assert lam.end == patch.coset_of[end_vertex]

    def test_projected_steps_are_patch_edges(self, ball_bs23_r10):
        ball = ball_bs23_r10
        patch = build_coset_patch(ball)
        word = (1, 2, 1, -2, 1, -2, 1, 1)
        lam = project_path(patch, PathInBall(0, word))
        for i, letter in enumerate(lam.letters):
            assert (letter, lam.cosets[i + 1]) in list(patch.edges(lam.cosets[i]))

    def test_paths_step_past_the_rim_inside_patch_cosets(self, ball_bs12_r10):
        # x leaves the ball from the rim vertex t^10 but not its coset
        ball = ball_bs12_r10
        patch = build_coset_patch(ball)
        group = group_for(ball.spec)
        rim = ball.vertex(group.evaluate_word((2,) * 10))
        assert ball.vertex(group.evaluate_word((2,) * 10 + (1,))) is None
        lam = project_path(patch, PathInBall(rim, (1, 1, -2)))
        assert lam.cosets[0] == patch.coset_of[rim]
        assert lam.letters == (-2,)

    def test_a_coset_past_the_patch_names_the_radius(self, ball_bs12_r10):
        # t^9.t^2 lies in t^11.Q, whose elements all have t-exponent sum 11
        ball = ball_bs12_r10
        patch = build_coset_patch(ball)
        v = ball.vertex(group_for(ball.spec).evaluate_word((2,) * 9))
        with pytest.raises(InsufficientRadiusError, match="at step 1") as info:
            project_path(patch, PathInBall(v, (2, 2)))
        assert info.value.required_radius == 11

    @given(
        w1=st.lists(st.sampled_from([1, -1, 2, -2]), max_size=3),
        w2=st.lists(st.sampled_from([1, -1, 2, -2]), max_size=3),
    )
    def test_projection_is_functorial(self, ball_bs12_r10, w1, w2):
        ball = ball_bs12_r10
        patch = build_coset_patch(ball)
        mid = ball.vertex(evaluate_word(ball.spec, w1))
        lam1 = project_path(patch, PathInBall(0, tuple(w1)))
        lam2 = project_path(patch, PathInBall(mid, tuple(w2)))
        lam12 = project_path(patch, PathInBall(0, tuple(w1 + w2)))
        assert lam1.concat(lam2) == lam12


class TestPatchStructure:
    def test_patch_keys_are_distinct(self, ball_bs23_r10):
        patch = build_coset_patch(ball_bs23_r10)
        assert len(set(patch.keys)) == patch.n_cosets
        for cid, w in enumerate(patch.witness):
            assert patch.coset_of_element(ball_bs23_r10.elements[w]) == cid

    def test_patch_monotone_under_radius_growth(self):
        spec = baumslag_solitar(2, 3)
        small = build_coset_patch(build_ball(spec, 4))
        large = build_coset_patch(build_ball(spec, 5))
        big_id = [large.coset_of_element(small.ball.elements[w]) for w in small.witness]
        for cid in range(small.n_cosets):
            assert big_id[cid] is not None
            assert large.keys[big_id[cid]] == small.keys[cid]
            if small.trusted[cid]:
                assert large.trusted[big_id[cid]]
        for cid in range(small.n_cosets):
            large_edges = list(large.edges(big_id[cid]))
            for letter, other in small.edges(cid):
                assert (letter, big_id[other]) in large_edges

    def test_base_coset_contains_exactly_the_members(self, ball_bs23_r10):
        ball = ball_bs23_r10
        patch = build_coset_patch(ball)
        spec = ball.spec
        for v in range(ball.n_vertices):
            in_base = patch.coset_of[v] == patch.base
            assert in_base == is_member(spec, ball.elements[v])

    def test_coset_graph_waits_for_first_use(self, ball_bs23_r10):
        """Each lazy part is built by its first reader and by no other, and a
        coset lookup labels witnesses only up to its match."""
        patch = build_coset_patch(ball_bs23_r10)
        lazy = ("keys", "_links", "_edges", "dist")
        built = lambda: {name for name in lazy if name in vars(patch)}
        assert built() == set() and patch._members == {} and patch._label_ids == {}
        group = group_for(patch.spec)
        t, t_inv = group.evaluate_word((2,)), group.evaluate_word((-2,))
        near = [c for c, w in enumerate(patch.witness) if ball_bs23_r10.dist[w] <= 1]
        assert len(near) == 3  # Q, tQ and t^-1 Q, in vertex order
        hausdorff_profile(patch, t, [2, 3, 4])
        assert built() == set()
        # the scan stopped at tQ, the second of the cosets that meet B(1)
        assert sorted(patch._label_ids.values()) == near[:2]
        assert patch.coset_of_element(t_inv) == near[2]
        assert sorted(patch._label_ids.values()) == near
        assert set(patch._members) == {patch.base, patch.coset_of_element(t)}
        assert patch.dist[patch.base] == 0
        assert built() == {"_links", "dist"}
        assert patch.degree(patch.base) == len(patch.neighbors(patch.base))
        assert built() == {"_links", "dist"}
        list(patch.edges(patch.base))
        assert built() == {"_links", "_edges", "dist"}
        assert patch.keys[patch.base] == b""
        assert built() == set(lazy)
        assert len(patch._members) == 2
        assert sorted(patch._label_ids.values()) == near

    def test_lambda_path_validation(self):
        with pytest.raises(ValueError):
            LambdaPath((0, 1), ())
        p1 = LambdaPath((0, 1), (2,))
        p2 = LambdaPath((3, 0), (-2,))
        with pytest.raises(ValueError):
            p1.concat(p2)

    def test_build_rejects_bad_inputs(self, ball_bs23_r10):
        with pytest.raises(ConfigError):
            build_coset_patch(ball_bs23_r10, trust_margin=0)
