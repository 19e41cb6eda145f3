"""Membership, coset-key and transfer-subgroup tests."""

from __future__ import annotations

from itertools import product

import pytest

from cosetgeom.cayley import build_ball
from cosetgeom.errors import NotCommensuratedError, SubgroupModeError
from cosetgeom.groups import (
    ascending_hnn,
    baumslag_solitar,
    free_abelian_group,
    free_group,
    group_for,
    parse_group_spec,
    parse_word,
)
from cosetgeom.lifting import compute_f
from cosetgeom.subgroups import (
    base_coset_key,
    coset_key,
    is_member,
    k_letters,
    q_element,
    q_letters,
    q_norm,
    transfer_basis,
    vertex_subgroup,
    word_subgroup,
)

from .oracles import REFERENCE_GROUPS

BS23 = baumslag_solitar(2, 3)
BS12 = baumslag_solitar(1, 2)
FREE2 = free_group(2)
AB2 = free_abelian_group(2)
HNN2 = ascending_hnn([[2, 1], [0, 3]])
Q = vertex_subgroup()


def ev(spec, text):
    return group_for(spec).evaluate_word(parse_word(spec, text))


class TestVertexMembership:
    def test_bs_power_of_x(self):
        assert is_member(BS23, Q, ev(BS23, "x^7")) is True
        assert is_member(BS23, Q, ev(BS23, "t^-1.x^2.t")) is True
        assert is_member(BS23, Q, ev(BS23, "x.t")) is False

    def test_hnn_base_lattice(self):
        assert is_member(HNN2, Q, ev(HNN2, "x1^3.x2^-2")) is True
        assert is_member(HNN2, Q, ev(HNN2, "t.x1.t^-1")) is False
        assert is_member(HNN2, Q, ev(HNN2, "t^-1.x1.t")) is True

    def test_free_and_abelian(self):
        assert is_member(FREE2, Q, ev(FREE2, "x1^-4")) is True
        assert is_member(FREE2, Q, ev(FREE2, "x1.x2")) is False
        assert is_member(AB2, Q, (5, 0)) is True
        assert is_member(AB2, Q, (5, 1)) is False


class TestWordMembership:
    # A word-generated subgroup has no exact membership test or coset key.
    def test_is_member_refused(self):
        sub = word_subgroup([parse_word(FREE2, "x1.x2")])
        with pytest.raises(SubgroupModeError):
            is_member(FREE2, sub, ev(FREE2, "x1.x2"))

    def test_coset_key_refused(self):
        sub = word_subgroup([parse_word(FREE2, "x1.x2")])
        with pytest.raises(SubgroupModeError):
            coset_key(FREE2, sub, ev(FREE2, "x1"))


class TestCosetKeys:
    def test_bs12_all_xat_share_key(self):
        keys = {
            coset_key(BS12, Q, ev(BS12, f"x^{a}.t")) for a in range(-6, 7)
        }
        assert len(keys) == 1

    def test_identity_coset_key(self):
        for spec in (BS23, BS12, FREE2, AB2, HNN2):
            g = group_for(spec)
            assert coset_key(spec, Q, g.identity()) == base_coset_key(spec, Q)
        assert coset_key(BS23, Q, ev(BS23, "x^7")) == base_coset_key(BS23, Q)

    def test_key_invariant_under_q_steps_exhaustive(self):
        # every vertex of a radius-6 ball, every sub-generator letter
        for spec in (BS23, BS12, FREE2, AB2, HNN2):
            g = group_for(spec)
            ball = build_ball(spec, 6)
            letters = q_letters(spec, Q)
            for a in ball.elements:
                key = coset_key(spec, Q, a)
                for letter in letters:
                    assert coset_key(spec, Q, g.apply_letter(a, letter)) == key

    def test_key_equality_is_coset_equality(self):
        # same key within a class, distinct keys across class witnesses
        for spec in (BS23, HNN2, FREE2, AB2):
            g = group_for(spec)
            ball = build_ball(spec, 5)
            classes = {}
            for a in ball.elements:
                classes.setdefault(coset_key(spec, Q, a), []).append(a)
            for members in classes.values():
                w = members[0]
                for a in members[1:]:
                    assert is_member(spec, Q, g.multiply(g.invert(w), a))
            witnesses = [members[0] for members in classes.values()]
            for i, w1 in enumerate(witnesses):
                for w2 in witnesses[i + 1 :]:
                    assert not is_member(spec, Q, g.multiply(g.invert(w1), w2))

    def test_member_iff_base_key(self):
        for spec in (BS23, HNN2, FREE2, AB2):
            ball = build_ball(spec, 5)
            base = base_coset_key(spec, Q)
            for a in ball.elements:
                inside = is_member(spec, Q, a)
                assert inside == (coset_key(spec, Q, a) == base)


@pytest.mark.parametrize("text", REFERENCE_GROUPS)
def test_q_letter_edges_stay_in_their_coset(text):
    # Q-walks skip coset tests on the strength of this:
    # a Q-letter edge never changes the coset, a K-letter edge always does
    spec = parse_group_spec(text)
    qlets, klets = set(q_letters(spec, Q)), set(k_letters(spec, Q))
    for radius in range(7):
        ball = build_ball(spec, radius)
        keys = [coset_key(spec, Q, a) for a in ball.elements]
        for v in range(ball.n_vertices):
            for letter, w in ball.edges(v):
                assert letter in qlets or letter in klets
                assert (keys[v] == keys[w]) == (letter in qlets), (radius, v, letter)


class TestLetterSplit:
    def test_q_and_k_letters(self):
        assert q_letters(BS23, Q) == (1, -1)
        assert k_letters(BS23, Q) == (2, -2)
        assert q_letters(HNN2, Q) == (1, -1, 2, -2)
        assert k_letters(HNN2, Q) == (3, -3)
        assert k_letters(FREE2, Q) == (2, -2)


def conjugate_in_q(spec, s, v):
    """Whether s^-1 x^v s lies in Q, by group arithmetic alone."""
    group = group_for(spec)
    s_el = group.evaluate_word((s,))
    conjugate = group.multiply(group.invert(s_el), q_element(spec, v))
    return is_member(spec, Q, group.multiply(conjugate, s_el))


class TestTransferWitnesses:
    """transfer_basis against membership tests on the normal forms."""

    @pytest.mark.parametrize("text", REFERENCE_GROUPS)
    def test_every_witness_conjugates_into_q(self, text):
        spec = parse_group_spec(text)
        for s in spec.letters:
            for v in transfer_basis(spec, Q, s):
                w = q_element(spec, v)
                assert is_member(spec, Q, w)
                assert q_norm(spec, w) == sum(map(abs, v))
                assert conjugate_in_q(spec, s, v), (s, v)

    @pytest.mark.parametrize(
        "text", ["bs:1,2", "bs:2,3", "bs:-2,3", "bs:3,-2", "bs:2,5"]
    )
    def test_bs_search_finds_the_smallest_exponents(self, text):
        spec = parse_group_spec(text)
        for s, step in ((2, abs(spec.m)), (-2, abs(spec.n))):
            found = [a for a in range(1, 65) if conjugate_in_q(spec, s, (a,))]
            assert found == list(range(step, 65, step))
            assert transfer_basis(spec, Q, s) == ((step,),)

    def test_free_letters_outside_q_have_no_witness(self):
        assert not any(
            conjugate_in_q(FREE2, s, (a,)) for s in (2, -2) for a in range(1, 65)
        )
        assert transfer_basis(FREE2, Q, 2) == transfer_basis(FREE2, Q, -2) == ()
        with pytest.raises(NotCommensuratedError, match="x2, x2\\^-1"):
            compute_f(Q, FREE2)

    @pytest.mark.parametrize(
        "text", ["hnn:1,3", "hnn:2,0 1;2 1", "hnn:2,2 1;0 2", "hnn:2,2 1;0 3"]
    )
    def test_hnn_index_and_covering_radius_by_counting(self, text):
        # classes of Z^k / T_s found in l1 order inside a box that holds the
        # l1 ball of radius 4; each class's first vector is its shortest
        spec = parse_group_spec(text)
        t = spec.stable_letter
        f = compute_f(Q, spec)
        box = sorted(
            product(range(-4, 5), repeat=spec.rank), key=lambda v: sum(map(abs, v))
        )
        for s, index in ((t, 1), (-t, abs(group_for(spec).det))):
            reps = []
            for v in box:
                diffs = (tuple(a - b for a, b in zip(v, r)) for r in reps)
                if not any(conjugate_in_q(spec, s, d) for d in diffs):
                    reps.append(v)
            assert len(reps) == index
            assert max(sum(map(abs, r)) for r in reps) == f[s] - 1
