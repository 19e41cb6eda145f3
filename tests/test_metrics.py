"""Hausdorff profiles and commensuration verdicts."""

from __future__ import annotations

import pytest

from cosetgeom.cayley import build_ball
from cosetgeom.cosetgraph import build_coset_patch
from cosetgeom.errors import ConfigError, EmptyCosetInBallError, InsufficientRadiusError
from cosetgeom.groups import (
    baumslag_solitar,
    evaluate_word,
    free_abelian_group,
    free_group,
    group_for,
    parse_group_spec,
    parse_word,
)
from cosetgeom.metrics import (
    COMMENSURATED,
    INCONCLUSIVE,
    NOT_COMMENSURATED,
    commensuration_verdict,
    coset_distance,
    default_radii,
    default_test_elements,
    hausdorff_profile,
)
from cosetgeom.subgroups import is_member, vertex_subgroup, word_subgroup

from .oracles import F2, REFERENCE_GROUPS, Z2, brute_hausdorff, reference_profile

Q = vertex_subgroup()


def element(spec, text):
    return group_for(spec).evaluate_word(parse_word(spec, text))


class TestHausdorffProfiles:
    def test_bs12_t_stabilizes_at_two(self, patch_bs12_r10):
        spec = patch_bs12_r10.spec
        p = hausdorff_profile(patch_bs12_r10, element(spec, "t"), [4, 5, 6, 7])
        assert p.k_values() == (2, 2, 2, 2)
        assert all(v.k_forward == 1 and v.k_backward == 2 for v in p.values)
        assert all(v.exact for v in p.values)
        assert p.verdict == COMMENSURATED

    def test_bs23_t_stabilizes_at_two(self, patch_bs23_r10):
        spec = patch_bs23_r10.spec
        p = hausdorff_profile(patch_bs23_r10, element(spec, "t"), [4, 5, 6, 7])
        assert p.k_values() == (2, 2, 2, 2)
        assert p.verdict == COMMENSURATED

    def test_z2_vertical_translate_gives_exactly_its_height(self, patch_ab2_r12):
        spec = patch_ab2_r12.spec
        for b in (1, 2, 3, 4):
            g = element(spec, f"x2^{b}")
            p = hausdorff_profile(patch_ab2_r12, g, [5, 6, 7])
            assert p.k_values() == (b, b, b)
            assert p.verdict == COMMENSURATED

    def test_margin_flags_values_too_close_to_the_boundary(self, patch_ab2_r12):
        spec = patch_ab2_r12.spec
        g = element(spec, "x2^3")
        p = hausdorff_profile(patch_ab2_r12, g, [7, 8, 9])
        assert [v.exact for v in p.values] == [True, True, False]
        assert p.verdict == INCONCLUSIVE

    def test_free2_profile_grows_linearly(self, patch_free2_r8):
        spec = patch_free2_r8.spec
        p = hausdorff_profile(patch_free2_r8, element(spec, "x2"), [2, 3, 4, 5, 6])
        assert p.k_values() == (3, 4, 5, 6, 7)
        assert p.verdict == NOT_COMMENSURATED

    def test_k_is_monotone_in_the_radius(self, patch_bs23_r10):
        spec = patch_bs23_r10.spec
        for text in ("t", "t^-1", "x.t", "t.x"):
            p = hausdorff_profile(patch_bs23_r10, element(spec, text), list(range(3, 8)))
            ks = p.k_values()
            assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_member_element_gives_zero_profile(self, patch_bs23_r10):
        spec = patch_bs23_r10.spec
        p = hausdorff_profile(patch_bs23_r10, element(spec, "x^3"), [4, 5, 6])
        assert p.k_values() == (0, 0, 0)
        assert p.verdict == COMMENSURATED

    def test_verdict_symmetric_under_inversion(self, patch_bs23_r10, patch_free2_r8):
        spec = patch_bs23_r10.spec
        for a, b in (("t", "t^-1"), ("x", "x^-1")):
            pa = hausdorff_profile(patch_bs23_r10, element(spec, a), [4, 5, 6])
            pb = hausdorff_profile(patch_bs23_r10, element(spec, b), [4, 5, 6])
            assert pa.verdict == pb.verdict
        spec = patch_free2_r8.spec
        pa = hausdorff_profile(patch_free2_r8, element(spec, "x2"), [2, 3, 4])
        pb = hausdorff_profile(patch_free2_r8, element(spec, "x2^-1"), [2, 3, 4])
        assert pa.verdict == pb.verdict

    def test_rejects_bad_inputs(self, ball_ab2_r12, patch_ab2_r12):
        spec = patch_ab2_r12.spec
        g = element(spec, "x2^3")
        with pytest.raises(ConfigError):
            hausdorff_profile(patch_ab2_r12, g, [5, 4])
        with pytest.raises(InsufficientRadiusError) as exc:
            hausdorff_profile(patch_ab2_r12, g, [12])
        assert exc.value.required_radius == 13
        with pytest.raises(ConfigError):
            words = build_coset_patch(word_subgroup(((1,),)), ball_ab2_r12)
            hausdorff_profile(words, g, [4, 5])
        with pytest.raises(EmptyCosetInBallError):
            hausdorff_profile(patch_ab2_r12, element(spec, "x2^12"), [4, 5])


@pytest.mark.parametrize(
    "group, radius, word",
    [("abelian:2", 8, w) for w in ("x2", "x2^-2", "x2^2.x1^3", "x1^-2.x2")]
    + [("free:2", 7, w) for w in ("x2", "x2^-1", "x1.x2", "x2^2.x1^3")],
)
def test_profile_matches_brute_force_distances(group, radius, word):
    """Exact values equal the true distances; the others never undercut them.

    The radii run up to R - 1, where a nearest point of the other coset can
    lie outside the ball and the in-ball value overshoots.
    """
    spec = parse_group_spec(group)
    model = {"abelian:2": Z2, "free:2": F2}[group]
    letters = parse_word(spec, word)
    patch = build_coset_patch(Q, build_ball(spec, radius))
    radii = list(range(2, radius))
    profile = hausdorff_profile(patch, evaluate_word(spec, letters), radii)
    assert any(v.exact for v in profile.values)
    for v in profile.values:
        truth = brute_hausdorff(model, model.evaluate(letters), v.radius, 3 * radius)
        if v.exact:
            assert (v.k_forward, v.k_backward) == truth, v
        else:
            assert v.k_forward >= truth[0] and v.k_backward >= truth[1], v


def test_profiles_match_whole_ball_searches():
    """Every family: the stopped searches give the whole-ball values and errors.

    The elements are the letters, x^2, t^2 and t.x.t^-1, with x the first
    generator and t the last, and t^R, whose coset lies on the rim.
    """
    reasons = set()
    for text in REFERENCE_GROUPS:
        spec = parse_group_spec(text)
        group = group_for(spec)
        x, t = 1, len(spec.generators)
        # default_radii needs radius 7; radius 5 takes the one radius it gave
        for radius, radii in ((5, [2]), (7, default_radii(7))):
            ball = build_ball(spec, radius)
            patch = build_coset_patch(Q, ball)
            elements = ball.elements
            q_members = [v for v, a in enumerate(elements) if is_member(spec, Q, a)]
            words = [(letter,) for letter in spec.letters]
            words += [(x, x), (t, t), (t, x, -t), (t,) * radius]
            for word in words:
                g = group.evaluate_word(word)
                g_inv = group.invert(g)
                g_members = [
                    v
                    for v, a in enumerate(elements)
                    if is_member(spec, Q, group.multiply(g_inv, a))
                ]
                expected = reference_profile(ball, q_members, g_members, radii)
                if isinstance(expected, str):
                    reasons.add(expected.split()[0])
                    with pytest.raises(EmptyCosetInBallError, match=expected):
                        hausdorff_profile(patch, g, radii)
                    continue
                profile = hausdorff_profile(patch, g, radii)
                got = [(v.radius, v.k_forward, v.k_backward) for v in profile.values]
                assert got == expected, (text, radius, word)
    assert reasons == {"trusted", "radius"}


class TestCommensurationVerdicts:
    def run(self, patch):
        radii = default_radii(patch.radius)
        profiles = [
            hausdorff_profile(patch, g, radii)
            for _, g in default_test_elements(patch.spec)
        ]
        return commensuration_verdict(profiles)

    def test_bs12_and_bs23_commensurated(self, patch_bs12_r10, patch_bs23_r10):
        assert self.run(patch_bs12_r10).verdict == COMMENSURATED
        assert self.run(patch_bs23_r10).verdict == COMMENSURATED

    def test_z2_commensurated(self, patch_ab2_r12):
        assert self.run(patch_ab2_r12).verdict == COMMENSURATED

    def test_free2_not_commensurated(self, patch_free2_r8):
        report = self.run(patch_free2_r8)
        assert report.verdict == NOT_COMMENSURATED
        assert report.by_element()["x2"].verdict == NOT_COMMENSURATED
        assert report.by_element()["x1"].verdict == COMMENSURATED

    def test_empty_profile_list_rejected(self):
        with pytest.raises(ConfigError):
            commensuration_verdict([])


class TestDefaults:
    def test_default_test_elements_cover_letters_with_inverses(self):
        spec = baumslag_solitar(2, 3)
        names = [name for name, _ in default_test_elements(spec)]
        assert names == ["x", "x^-1", "t", "t^-1"]

    def test_default_radii_leave_the_stabilization_window(self):
        assert default_radii(10) == [2, 3, 4, 5, 6, 7]
        assert default_radii(7) == [2, 3, 4]
        for radius in (4, 6):
            with pytest.raises(InsufficientRadiusError) as exc:
                default_radii(radius)
            assert exc.value.required_radius == 7

    def test_default_radii_start_where_gq_meets_the_ball(self, patch_bs12_r10):
        assert default_radii(13, 3) == [3, 4, 5, 6, 7, 8, 9, 10]
        assert default_radii(10, 0) == default_radii(10, 1) == default_radii(10)
        with pytest.raises(InsufficientRadiusError) as exc:
            default_radii(7, 3)
        assert exc.value.required_radius == 8
        assert default_radii(8, 3) == [3, 4, 5]
        patch, spec = patch_bs12_r10, patch_bs12_r10.spec
        for text, depth in (("1", 0), ("x^5", 0), ("t", 1), ("t.x.t^-1", 3), ("t^-1", 1)):
            assert coset_distance(patch, element(spec, text)) == depth, text
        # t^6.x.t^-6 lies at distance 13: its coset misses B(10)
        assert coset_distance(patch, element(spec, "t^6.x.t^-6")) == 11
        # the profile from that start sees gQ at every radius
        g = element(spec, "t.x.t^-1")
        profile = hausdorff_profile(patch, g, default_radii(10, coset_distance(patch, g)))
        assert profile.k_values() == (3, 3, 3, 3, 3)
