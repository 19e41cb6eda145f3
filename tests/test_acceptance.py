"""Nine end-to-end acceptance checks for the package.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Each test pins exact values (or explicit floors) that were
measured once and frozen here; tolerances and runtime budgets appear as
plain asserts.

Honesty convention for the search-based criteria: a lift or escape query
may be refused with an insufficient-radius report when the witness would
leave the ball.  Refusals are counted and bounded; a wrong answer (a path
that fails its independent verifier) is never tolerated.
"""

import random
import time
from collections import deque
from dataclasses import replace
from itertools import accumulate

import pytest

from cosetgeom.cayley import PathInBall, build_ball
from cosetgeom.cli import main
from cosetgeom.cosetgraph import LambdaPath, build_coset_patch, degree_profile, project_path
from cosetgeom.ends import (
    GROWING,
    STABLE_COUNT,
    ends_report,
    escape_route,
    stable_hausdorff_bound,
    verify_escape_route,
)
from cosetgeom.errors import (
    EmptyCosetInBallError,
    EscapeBlockedError,
    InsufficientRadiusError,
    NoRouteWithinBallError,
)
from cosetgeom.groups import (
    baumslag_solitar,
    evaluate_word,
    free_abelian_group,
    free_group,
    group_for,
    parse_word,
)
from cosetgeom.homotopy import build_ladder, verify_ladder
from cosetgeom.lifting import approximate_lift, compute_f, lift_constants
from cosetgeom.metrics import (
    COMMENSURATED,
    NOT_COMMENSURATED,
    commensuration_verdict,
    default_radii,
    default_test_elements,
    hausdorff_profile,
)
from cosetgeom.subgroups import vertex_subgroup

from .oracles import RelatorClosure, affine_evaluate, all_words, digits_to_letters

Q = vertex_subgroup()
BS12 = baumslag_solitar(1, 2)
BS23 = baumslag_solitar(2, 3)
AB2 = free_abelian_group(2)
FREE2 = free_group(2)


def element(spec, text):
    return evaluate_word(spec, parse_word(spec, text))


def random_lambda_path(patch, rng, max_len):
    length = rng.randint(0, max_len)
    cosets, letters = [0], []
    for _ in range(length):
        options = [
            (letter, target)
            for letter, targets in sorted(patch.adj[cosets[-1]].items())
            for target in targets
        ]
        letter, target = rng.choice(options)
        letters.append(letter)
        cosets.append(target)
    return LambdaPath(tuple(cosets), tuple(letters))


def vertices_within(ball, center, depth):
    seen = {center}
    frontier = deque([(center, 0)])
    while frontier:
        u, d = frontier.popleft()
        if d == depth:
            continue
        for _, w in ball.edges(u):
            if w not in seen:
                seen.add(w)
                frontier.append((w, d + 1))
    return seen


@pytest.fixture(scope="module")
def ball_bs12_r15():
    return build_ball(BS12, 15)


@pytest.fixture(scope="module")
def ball_bs23_r13():
    return build_ball(BS23, 13)


def test_criterion_1_word_problem_matches_independent_oracles():
    t0 = time.monotonic()

    closure = RelatorClosure(2, 3, 10)
    g23 = group_for(BS23)
    key_of_root, root_of_key = {}, {}
    mismatches = words = 0
    for digits in all_words(6):
        words += 1
        root = closure.find(closure.index(digits))
        key = g23.canonical_key(g23.evaluate_word(digits_to_letters(digits)))
        if key_of_root.setdefault(root, key) != key:
            mismatches += 1
        if root_of_key.setdefault(key, root) != root:
            mismatches += 1
    assert mismatches == 0
    assert words == sum(4**n for n in range(7))

    g12 = group_for(BS12)
    key_of_val, val_of_key = {}, {}
    for digits in all_words(8):
        word = digits_to_letters(digits)
        key = g12.canonical_key(g12.evaluate_word(word))
        val = affine_evaluate(word, 2)
        if key_of_val.setdefault(val, key) != key:
            mismatches += 1
        if val_of_key.setdefault(key, val) != val:
            mismatches += 1
    assert mismatches == 0

    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(
        f"criterion 1 (word problem): PASS; 0 mismatches over {words} "
        f"closure words and {sum(4**n for n in range(9))} affine words, "
        f"{elapsed:.1f}s"
    )


def test_criterion_2_ball_census_matches_closed_forms(ball_free2_r8, ball_ab2_r12):
    free_sizes = list(accumulate(ball_free2_r8.sphere_sizes()))[:6]
    assert free_sizes == [1, 5, 17, 53, 161, 485]
    plane_sizes = list(accumulate(ball_ab2_r12.sphere_sizes()))[:11]
    assert plane_sizes == [2 * r * r + 2 * r + 1 for r in range(11)]
    print("criterion 2 (ball census): PASS; free and planar counts exact")


def test_criterion_3_commensuration_verdicts(
    patch_bs12_r10, patch_bs23_r10, patch_ab2_r12
):
    t0 = time.monotonic()

    for patch in (patch_bs12_r10, patch_bs23_r10):
        radii = default_radii(patch.radius)
        profiles = [
            hausdorff_profile(patch, g, radii)
            for _, g in default_test_elements(patch.spec)
        ]
        report = commensuration_verdict(profiles)
        assert report.verdict == COMMENSURATED
        for profile in profiles:
            assert len(set(profile.k_values()[-3:])) == 1

    for b in range(1, 5):
        g = element(AB2, f"x2^{b}")
        radii = list(range(b, 12 - b))
        profile = hausdorff_profile(patch_ab2_r12, g, radii)
        assert profile.verdict == COMMENSURATED
        assert set(profile.k_values()) == {b}

    patch_free2_r9 = build_coset_patch(Q, build_ball(FREE2, 9))
    profile = hausdorff_profile(patch_free2_r9, element(FREE2, "x2"), [4, 5, 6, 7, 8])
    assert profile.verdict == NOT_COMMENSURATED
    for radius, k in zip([4, 5, 6, 7, 8], profile.k_values()):
        assert k >= radius - 2

    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print(
        f"criterion 3 (commensuration): PASS; two hnn verdicts, exact "
        f"planar K, growing free K, {elapsed:.1f}s"
    )


def test_criterion_4_local_finiteness_audit():
    degrees = {spec.describe(): [] for spec in (BS12, BS23, FREE2)}
    for radius in range(4, 9):
        for spec in (BS12, BS23, FREE2):
            patch = build_coset_patch(Q, build_ball(spec, radius))
            degrees[spec.describe()].append(degree_profile(patch).max_degree)
    assert degrees["bs:1,2"] == [3] * 5
    assert degrees["bs:2,3"] == [5] * 5
    free_degrees = degrees["free:2"]
    assert all(a < b for a, b in zip(free_degrees, free_degrees[1:]))
    print(
        f"criterion 4 (local finiteness): PASS; m+n degrees constant, "
        f"free degrees {free_degrees} strictly increasing"
    )


def test_criterion_5_end_classifications(
    ball_bs12_r10, ball_bs23_r10, ball_free2_r8, ball_ab2_r12
):
    line = ends_report(build_ball(free_abelian_group(1), 9))
    assert line.label() == "StableCount(2)"
    assert ends_report(ball_ab2_r12).label() == "StableCount(1)"

    free_report = ends_report(ball_free2_r8, [(1, 6), (2, 6), (3, 6)])
    assert free_report.classification == GROWING
    assert free_report.counts == (4, 12, 36)

    assert ends_report(ball_bs12_r10).label() == "StableCount(1)"
    assert ends_report(ball_bs23_r10).label() == "StableCount(1)"

    plane_patch = build_coset_patch(Q, ball_ab2_r12)
    assert ends_report(plane_patch).label() == "StableCount(2)"

    bs12_patch = build_coset_patch(Q, ball_bs12_r10)
    bs12_report = ends_report(bs12_patch, [(1, 8), (2, 8), (3, 8)])
    assert bs12_report.classification == GROWING
    assert bs12_report.counts == (3, 6, 12)
    print(
        "criterion 5 (ends): PASS; graph counts 2/1/4*3^(r-1)/1/1, "
        "coset counts 2 and 3,6,12"
    )


def test_criterion_6_approximate_lifting(ball_bs12_r15, ball_bs23_r13):
    outcomes = {}
    for spec, ball, f_t in ((BS12, ball_bs12_r15, 1), (BS23, ball_bs23_r13, 2)):
        assert compute_f(Q, ball.spec)[2] == f_t

        patch = build_coset_patch(Q, ball)
        constants = lift_constants(Q, ball)
        assert constants.f_for(2) == f_t

        rng = random.Random(42)
        lifted = refused = violations = 0
        for _ in range(1000):
            lpath = random_lambda_path(patch, rng, 10)
            try:
                lift = approximate_lift(patch, lpath, 0, constants)
            except InsufficientRadiusError:
                refused += 1
                continue
            if project_path(patch, PathInBall(0, lift.word)) != lpath:
                violations += 1
            if any(
                len(block) >= constants.f_for(letter)
                for block, letter in zip(lift.blocks, lpath.letters)
            ):
                violations += 1
            lifted += 1
        assert violations == 0
        outcomes[spec.describe()] = (lifted, refused)

    assert outcomes["bs:1,2"] == (1000, 0)
    lifted23, refused23 = outcomes["bs:2,3"]
    assert lifted23 >= 950 and lifted23 + refused23 == 1000
    print(
        f"criterion 6 (lifting): PASS; 0 violations, bs:1,2 1000/1000, "
        f"bs:2,3 {lifted23}/1000 with {refused23} radius refusals"
    )


def test_criterion_7_homotopy_ladders(ball_bs23_r13):
    t0 = time.monotonic()
    constants = lift_constants(Q, ball_bs23_r13)
    ladder = build_ladder(Q, BS23, (1,) * 12, 2, constants)
    assert ladder.n_loops == 12

    g = group_for(BS23)
    bound = 2 * constants.f + constants.m + 1
    for i in range(ladder.n_loops):
        loop = ladder.loop_word(i)
        assert g.evaluate_word(loop) == g.identity()
        assert len(loop) <= bound
    assert verify_ladder(BS23, ladder).ok

    corrupted = replace(
        ladder, rungs=ladder.rungs[:5] + ((1,) + ladder.rungs[5],) + ladder.rungs[6:]
    )
    report = verify_ladder(BS23, corrupted)
    assert not report.ok and report.failed_loops()

    oversize = replace(
        ladder,
        rungs=ladder.rungs[:3] + (ladder.rungs[3] + (1, -1) * 3,) + ladder.rungs[4:],
    )
    report = verify_ladder(BS23, oversize)
    assert not report.ok
    assert any(v.kind == "length" for v in report.violations)

    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(
        f"criterion 7 (ladders): PASS; 12 identity loops of length <= "
        f"{bound}, both mutations flagged, {elapsed:.1f}s"
    )


def test_criterion_8_escape_paths(patch_bs12_r10, patch_bs23_r10, patch_ab2_r12):
    instances = ((patch_bs12_r10, 2, 81), (patch_bs23_r10, 2, 82), (patch_ab2_r12, 1, 83))
    summary = []
    for patch, k, seed in instances:
        spec, ball = patch.spec, patch.ball
        assert stable_hausdorff_bound(patch) == k
        rng = random.Random(seed)
        shallow = [vid for vid in range(ball.n_vertices) if ball.dist[vid] <= 3]
        starts = [
            vid for vid in range(ball.n_vertices) if ball.dist[vid] <= ball.radius - 2
        ]
        verified = refused = invalid = 0
        while verified + refused < 50:
            excluded = vertices_within(ball, rng.choice(shallow), rng.randint(0, 2))
            v = rng.choice(starts)
            if v in excluded:
                continue
            word = tuple(rng.choice(spec.letters) for _ in range(rng.randint(1, 4)))
            g = evaluate_word(spec, word)
            try:
                path = escape_route(patch, excluded, v, g, k=k)
            except (EscapeBlockedError, EmptyCosetInBallError):
                continue
            except NoRouteWithinBallError as exc:
                assert exc.required_radius > ball.radius
                refused += 1
                continue
            ok, _ = verify_escape_route(Q, ball, excluded, v, g, path)
            if not ok:
                invalid += 1
            verified += 1
        assert invalid == 0
        summary.append(f"{spec.describe()} {verified}+{refused}")
    print(
        "criterion 8 (escape paths): PASS; 50 scenarios each, 0 invalid "
        f"({'; '.join(summary)})"
    )


def test_criterion_9_reports_identical_cold_and_warm(tmp_path):
    matrix = [
        ["ball", "--group", "free:2", "--radius", "5"],
        ["coset-graph", "--group", "bs:1,2", "--radius", "6"],
        ["hausdorff", "--group", "abelian:2", "--radius", "10",
         "--element", "x2^2", "--radii", "3,4,5,6"],
        ["commensurate", "--group", "abelian:2", "--radius", "10"],
        ["ends", "--group", "bs:1,2", "--radius", "8"],
        ["filtered-ends", "--group", "bs:1,2", "--radius", "8"],
        ["constants", "--group", "bs:1,2", "--radius", "8"],
        ["lift", "--group", "bs:1,2", "--radius", "8", "--path", "t.t.x.t^-1"],
        ["rays", "--group", "abelian:2", "--radius", "6"],
        ["ladder", "--group", "abelian:2", "--radius", "8",
         "--prefix", "x1^3", "--crossing", "x2"],
        ["export", "--group", "bs:1,2", "--radius", "5", "--what", "patch",
         "--dot", str(tmp_path / "patch.dot")],
    ]
    for i, argv in enumerate(matrix):
        reports = {}
        # each command gets an empty cache: the first run builds the ball and
        # writes it, the second loads it
        cache = tmp_path / f"cache-{i}"
        for run in ("cold", "warm"):
            out = tmp_path / f"{argv[0]}-{run}.json"
            code = main(argv + ["--cache-dir", str(cache), "--out", str(out)])
            assert code == 0, argv
            reports[run] = out.read_bytes()
            if argv[0] == "export":
                reports[run] += (tmp_path / "patch.dot").read_bytes()
        assert len(list(cache.glob("ball-*.ball"))) == 1, argv
        assert reports["cold"] == reports["warm"], argv
    print(
        f"criterion 9 (determinism): PASS; {len(matrix)} subcommand "
        "reports byte-identical from a cold and a warm cache"
    )
