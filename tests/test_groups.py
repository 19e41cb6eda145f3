"""Group arithmetic tests, anchored to independent oracles where derived."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosetgeom.cayley import build_ball
from cosetgeom.groups import (
    IDENTITY_KEY,
    ascending_hnn,
    baumslag_solitar,
    free_abelian_group,
    free_group,
    group_for,
    inverse_word,
    parse_group_spec,
    parse_word,
    render_word,
)
from cosetgeom.intmat import adjugate, determinant, mat_vec, solve_exact

from .oracles import (
    INVERSE_DIGIT,
    HNNAffine,
    RelatorClosure,
    affine_evaluate,
    all_words,
    digits_to_letters,
    reference_mat_vec,
    reference_solve,
)

BS23 = baumslag_solitar(2, 3)
BS12 = baumslag_solitar(1, 2)
FREE2 = free_group(2)
AB2 = free_abelian_group(2)
HNN_DOUBLE = ascending_hnn([[2]])
HNN_MIXED = ascending_hnn([[2, 1], [0, 3]])

ALL_SPECS = (BS23, BS12, FREE2, AB2, HNN_DOUBLE, HNN_MIXED)


def ev(spec, text):
    return group_for(spec).evaluate_word(parse_word(spec, text))


class TestIdentityAndKeys:
    def test_identity_forms(self):
        assert group_for(FREE2).identity() == ()
        assert group_for(AB2).identity() == (0, 0)
        assert group_for(BS23).identity() == (0,)
        assert group_for(HNN_DOUBLE).identity() == (0, 0, 0)

    def test_identity_key_is_empty_constant(self):
        for spec in ALL_SPECS:
            g = group_for(spec)
            assert g.canonical_key(g.identity()) == IDENTITY_KEY

    def test_key_round_trip(self):
        rng = random.Random(11)
        for spec in ALL_SPECS:
            g = group_for(spec)
            element_of_key = {}
            for _ in range(200):
                word = [rng.choice(spec.letters) for _ in range(rng.randrange(12))]
                a = g.evaluate_word(word)
                # equal keys imply equal elements
                assert element_of_key.setdefault(g.canonical_key(a), a) == a


class TestWorkedExamples:
    def test_bs23_relator_collapse(self):
        assert ev(BS23, "t^-1.x^2.t") == ev(BS23, "x^3")

    def test_bs23_inverse_of_xt(self):
        g = group_for(BS23)
        assert g.invert(ev(BS23, "x.t")) == ev(BS23, "t^-1.x^-1")

    def test_bs12_identity_word_matches_matrix_oracle(self):
        # The matrix oracle decides which orientation of the relation holds:
        # t^-1 x t x^-2 is trivial, t x t^-1 x^-2 is not.
        good = parse_word(BS12, "t^-1.x.t.x^-2")
        bad = parse_word(BS12, "t.x.t^-1.x^-2")
        assert affine_evaluate(good, 2) == (1, 0)
        assert affine_evaluate(bad, 2) != (1, 0)
        g = group_for(BS12)
        assert g.evaluate_word(good) == g.identity()
        assert g.evaluate_word(bad) != g.identity()

    def test_free_cancellation(self):
        g = group_for(FREE2)
        a = ev(FREE2, "x1.x2")
        assert g.multiply(a, ev(FREE2, "x2^-1")) == ev(FREE2, "x1")

    def test_abelian_vector_ops(self):
        g = group_for(AB2)
        assert ev(AB2, "x1^3.x2^-1") == (3, -1)
        assert g.invert((3, -1)) == (-3, 1)

    def test_hnn_conjugation_matches_matrix(self):
        assert ev(HNN_DOUBLE, "t^-1.x1.t") == (0, 2, 0)
        assert ev(HNN_DOUBLE, "t.x1^2.t^-1") == (0, 1, 0)
        assert ev(HNN_DOUBLE, "t.x1.t^-1") == (1, 1, 1)

    def test_hnn_relator_soundness(self):
        g = group_for(HNN_MIXED)
        for i, column in enumerate(((2, 0), (1, 3))):
            word = list(parse_word(HNN_MIXED, f"t^-1.x{i + 1}.t"))
            image = []
            for j, c in enumerate(column):
                image.extend([(j + 1) if c > 0 else -(j + 1)] * abs(c))
            word.extend(inverse_word(image))
            assert g.evaluate_word(word) == g.identity()


class TestCanonicalFormInvariants:
    def test_randomized_axioms_bulk(self):
        # At least 10^4 sampled triples across the families.
        rng = random.Random(20260814)
        per_family = 2000
        for spec in ALL_SPECS:
            g = group_for(spec)
            e = g.identity()
            for _ in range(per_family):
                u = [rng.choice(spec.letters) for _ in range(rng.randrange(13))]
                v = [rng.choice(spec.letters) for _ in range(rng.randrange(13))]
                w = [rng.choice(spec.letters) for _ in range(rng.randrange(13))]
                a, b, c = g.evaluate_word(u), g.evaluate_word(v), g.evaluate_word(w)
                assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))
                assert g.multiply(a, g.invert(a)) == e
                assert g.multiply(e, a) == a and g.multiply(a, e) == a
                assert g.evaluate_word(u + v) == g.multiply(a, b)
                assert g.is_canonical(g.multiply(a, b))

    def test_key_equality_is_group_equality(self):
        rng = random.Random(5)
        for spec in ALL_SPECS:
            g = group_for(spec)
            for _ in range(300):
                u = [rng.choice(spec.letters) for _ in range(rng.randrange(10))]
                v = [rng.choice(spec.letters) for _ in range(rng.randrange(10))]
                a, b = g.evaluate_word(u), g.evaluate_word(v)
                same_key = g.canonical_key(a) == g.canonical_key(b)
                trivial = g.multiply(g.invert(a), b) == g.identity()
                assert same_key == trivial


@st.composite
def words(draw, spec, max_size=12):
    return tuple(
        draw(st.lists(st.sampled_from(spec.letters), max_size=max_size))
    )


class TestPropertyBased:
    @given(u=words(BS23), v=words(BS23))
    def test_bs_homomorphism(self, u, v):
        g = group_for(BS23)
        assert g.evaluate_word(u + v) == g.multiply(g.evaluate_word(u), g.evaluate_word(v))

    @given(u=words(HNN_MIXED))
    def test_hnn_double_inverse(self, u):
        g = group_for(HNN_MIXED)
        a = g.evaluate_word(u)
        assert g.invert(g.invert(a)) == a
        assert g.is_canonical(g.invert(a))

    @given(u=words(BS12))
    def test_bs12_agrees_with_affine_oracle(self, u):
        g = group_for(BS12)
        trivial = g.evaluate_word(u) == g.identity()
        assert trivial == (affine_evaluate(u, 2) == (1, 0))

    @given(u=words(FREE2))
    def test_free_inverse_word(self, u):
        g = group_for(FREE2)
        assert g.evaluate_word(u + inverse_word(u)) == ()


def reduce_word(word):
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def x_power(letter, power):
    return [letter if power > 0 else -letter] * abs(power)


STEP_SPECS = (
    BS23,
    BS12,
    baumslag_solitar(-2, 3),
    baumslag_solitar(3, -2),
    FREE2,
    AB2,
    HNN_DOUBLE,
    HNN_MIXED,
)


@st.composite
def letter_walks(draw, spec):
    """A reduced word whose last steps often hit a rewrite rule.

    bs: the word ends t^-1 x^(m c) t or t x^(n c) t^-1, a pinch.
    hnn: the word ends t^-j x^u (steps taken at q = j > 0), or
    t x^(M c e_i) t^-1, which cancels the t.
    """
    word = draw(st.lists(st.sampled_from(spec.letters), max_size=10))
    t = spec.stable_letter
    tail = draw(st.sampled_from(("none", "up", "down"))) if t else "none"
    c = draw(st.integers(-2, 2))
    if spec.family == "bs":
        if tail == "up":
            word += [-t] + x_power(1, spec.m * c) + [t]
        elif tail == "down":
            word += [t] + x_power(1, spec.n * c) + [-t]
    elif tail == "up":
        word += [-t] * draw(st.integers(1, 3))
        word += draw(st.lists(st.sampled_from(spec.letters[:-2]), max_size=4))
    elif tail == "down":
        i = draw(st.integers(0, spec.rank - 1))
        word += [t]
        for j, row in enumerate(spec.matrix):
            word += x_power(j + 1, row[i] * c)
        word += [-t]
    word.append(draw(st.sampled_from(spec.letters)))
    return reduce_word(word)


def check_letter_steps(spec, word):
    """Every step of the walk agrees with multiply by a one-letter element."""
    g = group_for(spec)
    step = {letter: g.evaluate_word((letter,)) for letter in spec.letters}
    a = g.identity()
    for letter in word:
        b = g.apply_letter(a, letter)
        a = g.multiply(a, step[letter])
        assert b == a, (word, letter)
        assert g.is_canonical(b), (word, letter)


class TestLetterStep:
    @pytest.mark.parametrize("spec", STEP_SPECS, ids=lambda s: s.describe().replace(" ", "_"))
    @given(data=st.data())
    def test_apply_letter_matches_multiply(self, spec, data):
        check_letter_steps(spec, data.draw(letter_walks(spec)))

    @pytest.mark.parametrize(
        "spec, text",
        [
            (BS23, "t^-1.x^2.t"),
            (BS23, "x.t^-1.x^-4.t"),
            (BS23, "t.x^3.t^-1"),
            (BS23, "t.x.t^-1.x^-1.t.x^6.t^-1"),
            (BS12, "t^-1.x^3.t.t.x^2.t^-1"),
            (baumslag_solitar(-2, 3), "t^-1.x^2.t.t^-1.x^-4.t"),
            (baumslag_solitar(3, -2), "t.x^-2.t^-1.t.x^4.t^-1"),
            (HNN_DOUBLE, "t^-1.t^-1.x1.t.t"),
            (HNN_DOUBLE, "t.x1^2.t^-1"),
            (HNN_MIXED, "t^-1.t^-1.x1.x2^-1.t.x2.t"),
            (HNN_MIXED, "t.x1.x2^3.t^-1.t^-1.x2"),
        ],
    )
    def test_pinches_and_deep_steps(self, spec, text):
        check_letter_steps(spec, reduce_word(parse_word(spec, text)))


AFFINE_SPECS = tuple(
    baumslag_solitar(m, n) for m, n in ((2, 3), (-2, 3), (3, -2), (1, 2), (-1, 2), (2, -2))
)


def bs_words(rng, spec, tokens=6):
    """Random words of t-letters and x-powers, so pinches come up often."""
    k = 2 * abs(spec.m * spec.n)
    word = []
    for _ in range(rng.randrange(tokens + 1)):
        if rng.random() < 0.5:
            word.append(rng.choice((2, -2)))
        else:
            word += x_power(1, rng.randint(-k, k))
    return word


class TestAffineImage:
    """BS products and inverses against the affine map x -> y+1, t -> (m/n)y.

    The map is a homomorphism of every bs:m,n and shares no rewrite rule with
    the normal forms, so a rendered product or inverse must have the image
    of the concatenated or inverted word.
    """

    @pytest.mark.parametrize("spec", AFFINE_SPECS, ids=lambda s: s.describe())
    def test_products_and_inverses(self, spec):
        g = group_for(spec)
        rng = random.Random(29)

        def image(word):
            return affine_evaluate(word, spec.n, spec.m)

        for _ in range(400):
            u, v = bs_words(rng, spec), bs_words(rng, spec)
            a, b = g.evaluate_word(u), g.evaluate_word(v)
            ab, a_inv = g.multiply(a, b), g.invert(a)
            assert g.is_canonical(ab) and g.is_canonical(a_inv), (u, v)
            assert image(parse_word(spec, g.render(ab))) == image(u + v), (u, v)
            assert image(parse_word(spec, g.render(a_inv))) == image(inverse_word(u)), u


#: (spec text, M as rows) written out twice, so the oracle never reads the
#: matrix through the package's own parser.
HNN_AFFINE_CASES = (
    ("hnn:2,2 1;0 2", ((2, 1), (0, 2))),
    ("hnn:1,3", ((3,),)),
    ("hnn:2,0 1;2 1", ((0, 1), (2, 1))),
)


def hnn_words(rng, spec, tokens=8):
    """Random words of t-letters and x-powers; runs of t^-1 then t force reductions."""
    t = spec.rank + 1
    word = []
    for _ in range(rng.randrange(tokens + 1)):
        if rng.random() < 0.5:
            word.append(rng.choice((t, -t)))
        else:
            word += x_power(rng.randint(1, spec.rank), rng.randint(-4, 4))
    return word


class TestHNNAffineImage:
    """HNN letter steps, products and inverses against the affine action.

    x_i translates Q^k and t acts by M^-1, exactly, with no rule shared with
    the reduced triples; the action is faithful, so a rendered result must
    have the image of the word it stands for.
    """

    @pytest.mark.parametrize("text, matrix", HNN_AFFINE_CASES, ids=[c[0] for c in HNN_AFFINE_CASES])
    def test_letter_steps_products_and_inverses(self, text, matrix):
        spec = parse_group_spec(text)
        g = group_for(spec)
        image = HNNAffine(matrix).evaluate
        rng = random.Random(31)

        def rendered(a):
            assert g.is_canonical(a), a
            return image(parse_word(spec, g.render(a)))

        for _ in range(200):
            u, v = hnn_words(rng, spec), hnn_words(rng, spec)
            a, b = g.evaluate_word(u), g.evaluate_word(v)
            assert rendered(a) == image(u), u
            for letter in spec.letters:
                assert rendered(g.apply_letter(a, letter)) == image(u + [letter]), (u, letter)
            assert rendered(g.multiply(a, b)) == image(u + v), (u, v)
            assert rendered(g.invert(a)) == image(inverse_word(u)), u

    def test_oracle_separates_what_the_relation_does_not_identify(self):
        # t^-1 x t = x^M holds in the image; t x t^-1 is not an x-power
        image = HNNAffine(((2, 1), (0, 2))).evaluate
        assert image([-3, 1, 3]) == image([1, 1])
        assert image([3, 1, -3]) != image([1])
        assert image([3, 1, -3, 3, 1, -3]) == image([3, 1, 1, -3])


def test_integer_kernel_matches_plain_loops():
    """mat_vec and solve_exact on random nonsingular matrices of rank 1-3
    with entries -9..9, against a plain loop and a solution over Q: a random
    right-hand side is mostly not solvable over the integers, A v always is."""
    rng = random.Random(27)
    outcomes = set()
    for _ in range(300):
        k = rng.randint(1, 3)
        det = 0
        while not det:
            A = tuple(tuple(rng.randint(-9, 9) for _ in range(k)) for _ in range(k))
            det = determinant(A)
        adj = adjugate(A)
        v = tuple(rng.randint(-99, 99) for _ in range(k))
        assert mat_vec(A, v) == reference_mat_vec(A, v), (A, v)
        assert mat_vec(adj, v) == reference_mat_vec(adj, v), (adj, v)
        for rhs in (v, reference_mat_vec(A, v)):
            w = solve_exact(A, rhs, det, adj)
            assert w == reference_solve(A, rhs), (A, rhs)
            outcomes.add(w is None)
        assert solve_exact(A, reference_mat_vec(A, v), det, adj) == v
    assert outcomes == {True, False}


class TestSmallClosureOracle:
    def test_bs23_keys_match_relator_closure_small(self):
        # Development-scale version of the acceptance check: words of
        # length <= 4 against the closure computed through length 8.
        closure = RelatorClosure(2, 3, 8)
        g = group_for(BS23)
        key_of_root = {}
        root_of_key = {}
        for digits in all_words(4):
            root = closure.find(closure.index(digits))
            key = g.canonical_key(g.evaluate_word(digits_to_letters(digits)))
            if root in key_of_root:
                assert key_of_root[root] == key, digits
            key_of_root[root] = key
            if key in root_of_key:
                assert root_of_key[key] == root, digits
            root_of_key[key] = root


#: SHA-256, per group, of every ball vertex's canonical key and render in id
#: order over radii 0..8, taken from the nested (head, ((s1, e1), ...)) forms
#: that the flat forms replaced: it pins the numbering and both byte formats.
BS_BALL_DIGESTS = {
    "bs:1,2": "ee90146cdd4311c35ef72ceb1d40cecd8fa73660e531266119a763b45ef287c6",
    "bs:2,3": "d58600eee2551373dd4077bf584c39b6a0f891a6db7a3ce2a9eb6bfa7ecb3c27",
    "bs:-2,3": "4590297938e829235998aa7c79225ce2b3ec9fd5e6455a72ab274a879341ada6",
    "bs:3,-2": "be36fef8f3f1a6a11b33203fbea6b95d0f53636f0d1ade9153dbd2b24fbb25eb",
}


class TestFlatBSKernel:
    """The flat (head, s1, e1, ..., sj, ej) forms against fixed bytes and oracles."""

    @pytest.mark.parametrize("text", sorted(BS_BALL_DIGESTS))
    def test_ball_vertices_keep_their_keys_renders_and_ids(self, text):
        spec = parse_group_spec(text)
        g = group_for(spec)
        digest = hashlib.sha256()
        element_of_key = {}
        for radius in range(9):
            for a in build_ball(spec, radius).elements:
                assert g.is_canonical(a), a
                key = g.canonical_key(a)
                assert element_of_key.setdefault(key, a) == a, a
                digest.update(key + b" " + g.render(a).encode() + b"\n")
            digest.update(b"\n")
        assert digest.hexdigest() == BS_BALL_DIGESTS[text]

    @pytest.mark.parametrize("text", sorted(BS_BALL_DIGESTS))
    def test_random_products_and_inverses_keep_the_affine_image(self, text):
        # faithful on bs:1,2; on the others a homomorphism, so a necessary check
        spec = parse_group_spec(text)
        g = group_for(spec)
        rng = random.Random(41)

        def image(word):
            return affine_evaluate(word, spec.n, spec.m)

        element_of_key = {}
        for _ in range(300):
            u, v = bs_words(rng, spec, tokens=10), bs_words(rng, spec, tokens=10)
            a, b = g.evaluate_word(u), g.evaluate_word(v)
            ab, a_inv = g.multiply(a, b), g.invert(a)
            for c in (ab, a_inv):
                assert g.is_canonical(c)
                assert element_of_key.setdefault(g.canonical_key(c), c) == c
            assert image(parse_word(spec, g.render(ab))) == image(u + v), (u, v)
            assert image(parse_word(spec, g.render(a_inv))) == image(inverse_word(u)), u
            assert g.multiply(ab, g.invert(b)) == a
            assert g.multiply(a, a_inv) == g.identity()

    @pytest.mark.parametrize("text", ["bs:2,3", "bs:-2,3", "bs:3,-2"])
    def test_short_products_and_inverses_match_the_relator_closure(self, text):
        # Every product u*v with |u| + |v| <= 4 and every inverse of a word of
        # length <= 4 gets the key of its closure class, one key per class.
        spec = parse_group_spec(text)
        g = group_for(spec)
        closure = RelatorClosure(spec.m, spec.n, 8)
        short = list(all_words(4))
        value = {w: g.evaluate_word(digits_to_letters(w)) for w in short}
        cases = [
            (u + v, g.multiply(value[u], value[v]))
            for u in short
            for v in short
            if len(u) + len(v) <= 4
        ]
        for w in short:
            inverse = tuple(INVERSE_DIGIT[d] for d in reversed(w))
            cases.append((inverse, g.invert(value[w])))
        key_of_root, root_of_key = {}, {}
        for word, c in cases:
            root, key = closure.find(closure.index(word)), g.canonical_key(c)
            assert key_of_root.setdefault(root, key) == key, word
            assert root_of_key.setdefault(key, root) == root, word


class TestWordSyntax:
    def test_parse_render_round_trip(self):
        rng = random.Random(3)
        for spec in (BS23, FREE2, HNN_MIXED):
            for _ in range(100):
                word = tuple(rng.choice(spec.letters) for _ in range(rng.randrange(9)))
                assert parse_word(spec, render_word(spec, word)) == word

    def test_parse_group_round_trip(self):
        for spec in ALL_SPECS:
            assert parse_group_spec(spec.describe()) == spec

    def test_bad_inputs_raise(self):
        from cosetgeom.errors import ConfigError

        with pytest.raises(ConfigError):
            parse_word(BS23, "y^2")
        with pytest.raises(ConfigError):
            parse_group_spec("bs:0,3")
        with pytest.raises(ConfigError):
            parse_group_spec("hnn:2,1 0;0 0")
        with pytest.raises(ConfigError):
            parse_group_spec("dihedral:5")
