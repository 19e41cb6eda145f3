"""Ball construction, distances, stars, and serialization."""

from __future__ import annotations

import gc
import hashlib
import json
import marshal
import os
import random
import sys
import tracemalloc
from array import array
from collections import deque
from itertools import chain

import pytest

from cosetgeom import cayley
from cosetgeom.cayley import (
    BALL_FORMAT,
    NO_EDGE,
    UNREACHED,
    Ball,
    PackedForms,
    PathInBall,
    ball_cache_name,
    bfs_distances,
    bfs_layers,
    build_ball,
    cached_ball,
    first_hit,
    load_ball,
    save_ball,
    star,
    walk_path,
)
from cosetgeom.errors import BallOverflowError, InsufficientRadiusError
from cosetgeom.groups import (
    Group,
    baumslag_solitar,
    free_abelian_group,
    free_group,
    group_for,
    parse_group_spec,
    parse_word,
)

from .oracles import REFERENCE_GROUPS, ReferenceOverflow, reference_ball, reference_star

FREE2 = free_group(2)
AB2 = free_abelian_group(2)
BS12 = baumslag_solitar(1, 2)

REFERENCE_SPECS = [parse_group_spec(text) for text in REFERENCE_GROUPS]


def same_ball(a, b):
    """Equal group, radius, elements, distances and slots, typecodes included.

    A loaded ball's elements are a PackedForms, so both sides are listed.
    """
    return (
        (a.spec, a.radius, list(a.elements), a.dist, a.dist.typecode, a.adj, a.adj.typecode)
        == (b.spec, b.radius, list(b.elements), b.dist, b.dist.typecode, b.adj, b.adj.typecode)
    )


def round_trip(ball, path):
    save_ball(ball, str(path))
    return load_ball(str(path))


def ball_file(header, body):
    """Ball file bytes for a header and a body tuple, stamped with the body's digest."""
    data = marshal.dumps(body, 2)
    if isinstance(header, dict):
        header = {**header, "blake2b": hashlib.blake2b(data, digest_size=32).hexdigest()}
    return json.dumps(header).encode() + b"\n" + data


def body_forms(body):
    """The flat forms of a ball file body, read with its own typecode."""
    typecode, lengths, arena = body[:3]
    ints, at, out = array(typecode, arena), 0, []
    for n in lengths:
        out.append(tuple(ints[at : at + n]))
        at += n
    return out


def with_forms(body, forms):
    """The body with its lengths and arena packed from the given flat forms."""
    typecode = body[0]
    arena = array(typecode, chain.from_iterable(forms)).tobytes()
    return (typecode, bytes(map(len, forms)), arena, *body[3:])


def flat_adjacency(letters, rows):
    """Rows of (letter, vertex) pairs laid out as one slot per vertex and letter."""
    slot = {letter: i for i, letter in enumerate(letters)}
    adj = array("i", [NO_EDGE]) * (len(rows) * len(letters))
    for vid, row in enumerate(rows):
        for letter, other in row:
            adj[vid * len(letters) + slot[letter]] = other
    return adj


class TestCensus:
    def test_free2_counts(self):
        # 2 * 3^R - 1 vertices at radius R
        for radius, expected in [(0, 1), (1, 5), (2, 17), (3, 53)]:
            assert build_ball(FREE2, radius).n_vertices == expected

    def test_abelian2_counts(self):
        for radius in range(7):
            expected = 2 * radius * radius + 2 * radius + 1
            assert build_ball(AB2, radius).n_vertices == expected

    def test_bs12_radius1(self):
        ball = build_ball(BS12, 1)
        assert ball.n_vertices == 5  # identity, x, x^-1, t, t^-1

    def test_radius_past_one_byte(self, tmp_path):
        # distances outgrow array("B") at radius 256 and still round-trip
        ball = build_ball(free_abelian_group(1), 300)
        assert ball.sphere_sizes() == [1] + [2] * 300
        assert [ball.dist[ball.index[(n,)]] for n in (-300, 0, 299)] == [300, 0, 299]
        clone = round_trip(ball, tmp_path / "ball")
        assert clone.dist.typecode == "i" and same_ball(clone, ball)

    def test_monotone_in_radius(self):
        small, large = build_ball(BS12, 4), build_ball(BS12, 5)
        assert set(small.elements) <= set(large.elements)
        # distances agree on the shared vertices
        for a in small.elements:
            assert small.dist[small.index[a]] == large.dist[large.index[a]]


class TestStructure:
    def test_edge_symmetry(self):
        ball = build_ball(BS12, 5)
        for vid in range(ball.n_vertices):
            for letter, other in ball.edges(vid):
                assert ball.neighbor(other, -letter) == vid

    def test_complete_flag(self):
        ball = build_ball(FREE2, 3)
        for vid in range(ball.n_vertices):
            expected = len(list(ball.edges(vid))) == 4
            # interior vertices have all four neighbors present
            if ball.complete(vid):
                assert expected
        assert not ball.complete(ball.index[(1, 1, 1)])

    def test_deterministic_rebuild(self):
        b1, b2 = build_ball(BS12, 6), build_ball(BS12, 6)
        assert b1.elements == b2.elements
        assert b1.adj == b2.adj

    def test_overflow_budget(self):
        with pytest.raises(BallOverflowError):
            build_ball(FREE2, 10, max_vertices=100)


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.describe().replace(" ", "_"))
class TestReferenceBuilder:
    def test_matches_two_pass_multiply_builder(self, spec):
        g = group_for(spec)
        letters = spec.letters
        for radius in range(7):
            ball = build_ball(spec, radius)
            elements, dist, adj = reference_ball(g, letters, radius)
            assert ball.elements == elements
            assert ball.dist.tolist() == dist
            reference = Ball(
                spec=spec,
                radius=radius,
                elements=elements,
                index={a: i for i, a in enumerate(elements)},
                dist=array("B", dist),
                adj=flat_adjacency(letters, adj),
            )
            assert same_ball(ball, reference)

    def test_flat_layout_matches_reference_rows(self, spec, tmp_path):
        # slot vid * n_letters + i is the neighbour across letters[i], or
        # NO_EDGE; neighbor, neighbors and edges read it back as the
        # reference rows
        g = group_for(spec)
        letters = spec.letters
        for radius in range(7):
            ball = build_ball(spec, radius)
            _, _, adj = reference_ball(g, letters, radius)
            assert (ball.adj.typecode, ball.dist.typecode) == ("i", "B")
            assert len(ball.adj) == ball.n_vertices * len(letters)
            for vid, row in enumerate(adj):
                targets = dict(row)
                assert list(ball.edges(vid)) == list(row)
                assert ball.neighbors(vid) == [w for _, w in row]
                for i, letter in enumerate(letters):
                    assert ball.neighbor(vid, letter) == targets.get(letter)
                    assert ball.adj[vid * len(letters) + i] == targets.get(letter, NO_EDGE)
            clone = round_trip(ball, tmp_path / "ball")
            assert (clone.adj.typecode, clone.dist.typecode) == ("i", "B")
            assert clone.adj == ball.adj
            assert clone.dist == ball.dist

    def test_overflow_fires_where_the_two_pass_builder_does(self, spec):
        g = group_for(spec)
        for radius in (1, 3, 5):
            n = build_ball(spec, radius).n_vertices
            assert build_ball(spec, radius, max_vertices=n).n_vertices == n
            for budget in sorted({n - 1, n // 2, 1}):
                with pytest.raises(BallOverflowError) as got:
                    build_ball(spec, radius, max_vertices=budget)
                with pytest.raises(ReferenceOverflow) as want:
                    reference_ball(g, spec.letters, radius, max_vertices=budget)
                assert got.value.radius_reached == want.value.layer
                assert got.value.count == want.value.count == budget + 1
                assert got.value.budget == budget


def slot_distances(ball, sources):
    """bfs_distances over the ball's adjacency slots, read as stored."""
    adj, k = ball.adj, len(ball.letters)
    return bfs_distances(lambda v: adj[v * k : v * k + k], ball.n_vertices, sources)


class TestDistances:
    def test_single_source_reproduces_dist(self):
        ball = build_ball(BS12, 6)
        assert slot_distances(ball, [0]) == list(ball.dist)

    def test_axis_distance_in_grid(self):
        # distance to the x1-axis is |second coordinate|
        ball = build_ball(AB2, 8)
        axis = [vid for vid, a in enumerate(ball.elements) if a[1] == 0]
        got = slot_distances(ball, axis)
        for vid, a in enumerate(ball.elements):
            assert got[vid] == abs(a[1])

    def test_tree_distance(self):
        ball = build_ball(FREE2, 4)
        b = ball.index[(2,)]
        got = slot_distances(ball, [b])
        assert got[ball.index[(1, 1)]] == 3  # x2 -> 1 -> x1 -> x1^2

    def test_unreached_sentinel(self):
        # distances restricted to the ball: a source on the boundary
        ball = build_ball(FREE2, 2)
        far = ball.index[(1, 1)]
        got = slot_distances(ball, [far])
        assert got[ball.index[(2, 2)]] == 4 or got[ball.index[(2, 2)]] == UNREACHED


def queue_layers(rows, sources):
    """Textbook BFS with a queue, its vertices grouped by depth in dequeue order."""
    depth = {}
    queue = deque()
    for s in sources:
        if s not in depth:
            depth[s] = 0
            queue.append(s)
    layers = []
    while queue:
        v = queue.popleft()
        if depth[v] == len(layers):
            layers.append([])
        layers[depth[v]].append(v)
        for _, w in rows[v]:
            if w not in depth:
                depth[w] = depth[v] + 1
                queue.append(w)
    return layers


class TestBfsLayers:
    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=REFERENCE_GROUPS)
    def test_matches_queue_bfs_on_reference_balls(self, spec):
        rng = random.Random(spec.describe())
        _, dist, rows = reference_ball(group_for(spec), spec.letters, 6)
        k = len(spec.letters)
        for radius in range(7):
            # ids follow BFS order, so the smaller ball is a prefix
            n = sum(1 for d in dist if d <= radius)
            sub = [[(l, w) for l, w in rows[v] if w < n] for v in range(n)]
            axis = [0]
            for letter in (1, -1):
                v = 0
                while (v := dict(sub[v]).get(letter)) is not None:
                    axis.append(v)
            adj = build_ball(spec, radius).adj
            for sources in ([0], axis, rng.sample(range(n), min(n, 5))):
                want = queue_layers(sub, sources)
                got = list(bfs_layers(lambda v: [w for _, w in sub[v]], sources))
                assert got == want, (radius, sources)
                # stored slots, NO_EDGE included, give the same layers
                slots = bfs_layers(lambda v: adj[v * k : v * k + k], sources)
                assert list(slots) == want

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=REFERENCE_GROUPS)
    def test_group_elements_as_vertices(self, spec):
        # the same searches with each vertex id replaced by its element
        rng = random.Random(spec.describe())
        elements, dist, rows = reference_ball(group_for(spec), spec.letters, 5)
        index = {a: v for v, a in enumerate(elements)}
        for radius in range(6):
            n = sum(1 for d in dist if d <= radius)
            sub = [[(l, w) for l, w in rows[v] if w < n] for v in range(n)]

            def neighbors(a):
                return [elements[w] for _, w in sub[index[a]]]

            for sources in ([0], rng.sample(range(n), min(n, 5))):
                want = [[elements[v] for v in layer] for layer in queue_layers(sub, sources)]
                got = bfs_layers(neighbors, [elements[v] for v in sources])
                assert list(got) == want, (radius, sources)

    def test_no_sources_and_repeated_sources(self):
        ball = build_ball(AB2, 2)
        assert list(bfs_layers(ball.neighbors, [])) == []
        layers = list(bfs_layers(ball.neighbors, [3, 0, 3]))
        assert layers[0] == [3, 0]
        assert sorted(v for layer in layers for v in layer) == list(range(ball.n_vertices))

    def test_yields_a_layer_before_searching_the_next(self):
        def refuse(v):
            raise AssertionError(f"searched from vertex {v}")

        assert next(bfs_layers(refuse, [2, 0])) == [2, 0]


class TestFirstHit:
    def test_hit_at_the_start_and_a_zero_length_search(self):
        ball = build_ball(AB2, 3)
        steps = lambda v: list(ball.edges(v))
        x1 = ball.index[(1, 0)]
        assert first_hit(x1, steps, lambda w: w, 0) == (((), x1), [[x1]])
        # max_len=0 tests the start only, though a neighbour would hit
        goal = lambda w: w if w == 0 else None
        assert first_hit(x1, steps, goal, 0) == (None, [[x1]])
        found, layers = first_hit(x1, steps, goal, 1)
        assert found == ((-1,), 0) and len(layers) == 2


class TestStar:
    def test_zero_star_is_seed_set(self):
        ball = build_ball(AB2, 4)
        seeds = {0, 1}
        assert star(ball, seeds, 0).vertices == frozenset(seeds)

    def test_grid_star_of_origin(self):
        ball = build_ball(AB2, 4)
        got = star(ball, [0], 1)
        assert len(got.vertices) == 5
        assert not got.clipped

    def test_star_matches_ball(self):
        ball = build_ball(FREE2, 4)
        got = star(ball, [0], 2)
        expected = {vid for vid in range(ball.n_vertices) if ball.dist[vid] <= 2}
        assert got.vertices == frozenset(expected)

    def test_clipped_at_boundary(self):
        ball = build_ball(FREE2, 2)
        boundary = next(vid for vid in range(ball.n_vertices) if ball.dist[vid] == 2)
        assert star(ball, [boundary], 1).clipped

    @pytest.mark.parametrize("seed", [-1, 25], ids=["before", "past"])
    def test_seed_outside_ball_raises(self, seed):
        ball = build_ball(AB2, 3)
        assert ball.n_vertices == 25
        with pytest.raises(InsufficientRadiusError, match=f"vertex {seed} not in ball"):
            star(ball, [0, seed], 1)

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            star(build_ball(AB2, 3), [0], -1)

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=REFERENCE_GROUPS)
    def test_matches_set_based_star(self, spec):
        rng = random.Random(spec.describe())
        for radius in range(1, 7):
            ball = build_ball(spec, radius)
            for _ in range(6):
                size = min(ball.n_vertices, rng.randint(1, 3))
                seeds = rng.sample(range(ball.n_vertices), size)
                for n in range(5):
                    got = star(ball, seeds, n)
                    want = reference_star(ball, seeds, n)
                    assert (got.vertices, got.clipped) == want, (radius, seeds, n)


class TestPaths:
    def test_walk_inside(self):
        ball = build_ball(BS12, 4)
        path = PathInBall(base=0, word=parse_word(BS12, "x.t.t"))
        vids = walk_path(ball, path)
        assert len(vids) == 4
        assert ball.elements[vids[-1]] == group_for(BS12).evaluate_word(
            parse_word(BS12, "x.t.t")
        )

    def test_walk_leaving_ball_raises(self):
        ball = build_ball(FREE2, 2)
        with pytest.raises(InsufficientRadiusError):
            walk_path(ball, PathInBall(base=0, word=(1, 1, 1)))

    @pytest.mark.parametrize("where", ["before", "past"])
    def test_base_outside_ball_raises(self, where):
        ball = build_ball(AB2, 4)
        base = -1 if where == "before" else ball.n_vertices
        with pytest.raises(InsufficientRadiusError, match=f"base vertex {base} not in ball"):
            walk_path(ball, PathInBall(base=base, word=()))


class TestSerialization:
    def test_payload_round_trip(self, tmp_path):
        ball = build_ball(BS12, 5)
        clone = round_trip(ball, tmp_path / "ball")
        assert same_ball(clone, ball)
        assert clone.index == ball.index

    def test_cache_reuse(self, tmp_path):
        d = str(tmp_path)
        b1 = cached_ball(BS12, 4, d)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        b2 = cached_ball(BS12, 4, d)
        assert b1.elements == list(b2.elements)
        assert list(tmp_path.iterdir()) == files

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.describe())
    def test_cache_hit_decodes_no_key_and_applies_no_letter(self, tmp_path, monkeypatch, spec):
        # a load rebuilds elements, distances and slots from the file alone
        cold = build_ball(spec, 5)
        cached_ball(spec, 5, str(tmp_path))

        def refuse(*args):
            raise AssertionError("a cache hit reached the group arithmetic")

        for cls in (Group, *Group.__subclasses__()):
            monkeypatch.setattr(cls, "apply_letter", refuse)
        warm = cached_ball(spec, 5, str(tmp_path))
        assert same_ball(warm, cold)
        assert warm.index == cold.index

    def test_truncated_cache_file_is_rebuilt(self, tmp_path, monkeypatch):
        d = str(tmp_path)
        cached_ball(BS12, 4, d)
        path = tmp_path / ball_cache_name(BS12, 4)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])

        def refuse(data):
            raise AssertionError("a body that fails its digest was unmarshalled")

        # the digest refuses the half body before marshal reads it
        monkeypatch.setattr(marshal, "loads", refuse)
        ball = cached_ball(BS12, 4, d)
        assert same_ball(ball, build_ball(BS12, 4))
        assert path.read_bytes() == whole
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "reshape, message",
        [
            # header or transport damage
            (lambda h, b: ball_file([], b), "not a ball file of format"),
            (lambda h, b: ball_file("x", b), "not a ball file of format"),
            (lambda h, b: ball_file(h, b)[:-100], "does not match its digest"),
            # forms reversed under the old digest: only the digest tells
            (
                lambda h, b: (
                    json.dumps(h).encode() + b"\n"
                    + marshal.dumps(with_forms(b, body_forms(b)[::-1]), 2)
                ),
                "does not match its digest",
            ),
            (
                lambda h, b: ball_file({**h, "format": "cosetgeom.ball.v3"}, b),
                "not a ball file of format",
            ),
            (
                lambda h, b: ball_file(
                    {**h, "byteorder": "big" if sys.byteorder == "little" else "little"}, b
                ),
                "another byte order",
            ),
            (lambda h, b: ball_file({**h, "group": "bs:x"}, b), "malformed ball file: Config"),
            (lambda h, b: ball_file({**h, "radius": "4"}, b), "radius or size is not an integer"),
            # a body with a valid digest but bad content: no arena
            (
                lambda h, b: ball_file(h, (b[0], b[1], None, b[3], b[4])),
                "not a typecode and four byte strings",
            ),
            # the identity as (0, 0): a bs form has odd length
            (
                lambda h, b: ball_file(h, with_forms(b, [(0, 0)] + body_forms(b)[1:])),
                "form length does not suit its group",
            ),
            (lambda h, b: ball_file(h, (*b[:3], b[3][:-1], b[4])), "fields disagree"),
            (lambda h, b: ball_file(h, (*b[:3], b[3], b[4] + b[4][:16])), "fields disagree"),
            (
                lambda h, b: ball_file(h, (*b[:3], b[3], 7)),
                "not a typecode and four byte strings",
            ),
            # rows of four letters read as the six of free:3
            (lambda h, b: ball_file({**h, "group": "free:3"}, b), "fields disagree"),
            (
                lambda h, b: ball_file(
                    h, (*b[:3], b[3], array("i", [len(b[1])]).tobytes() + b[4][4:])
                ),
                "distance or vertex id out of range",
            ),
            # four-byte distances under a radius that stores one byte each
            (
                lambda h, b: ball_file(
                    h, (*b[:3], array("i", [300, *b[3][1:]]).tobytes(), b[4])
                ),
                "fields disagree",
            ),
            (
                lambda h, b: ball_file(
                    {**h, "radius": 300},
                    (*b[:3], array("i", [-1, *b[3][1:]]).tobytes(), b[4]),
                ),
                "distance or vertex id out of range",
            ),
            (
                lambda h, b: ball_file(h, (*b[:3], bytes([h["radius"] + 1]) + b[3][1:], b[4])),
                "distance or vertex id out of range",
            ),
            # form 1 set to form 2: one vertex twice, one index entry short
            (
                lambda h, b: ball_file(
                    h, with_forms(b, body_forms(b)[:1] + body_forms(b)[2:3] + body_forms(b)[2:])
                ),
                "repeats a vertex",
            ),
            # lengths marshalled as a list, not a byte string
            (
                lambda h, b: ball_file(h, (b[0], list(b[1]), *b[2:])),
                "not a typecode and four byte strings",
            ),
            # packed ints of another typecode, or lengths that overrun them
            (lambda h, b: ball_file(h, ("b", *b[1:])), "not a typecode and four byte strings"),
            (lambda h, b: ball_file(h, ("i", *b[1:])), "do not add up to the arena"),
            (
                lambda h, b: ball_file(h, (b[0], b[1][:-1] + bytes([b[1][-1] + 2]), *b[2:])),
                "do not add up to the arena",
            ),
            # four fields, as a body without its typecode
            (lambda h, b: ball_file(h, b[1:]), "not enough values to unpack"),
        ],
        ids=[
            "list", "string", "truncated-body", "digest-mismatch", "wrong-format",
            "other-byteorder", "bad-group", "radius-text", "vertices-null",
            "vertex-int", "short-dist", "long-adj", "adj-row-int", "unknown-letter",
            "vertex-id-past-end", "dist-300", "dist-negative", "dist-past-radius",
            "repeated-vertex", "vertex-unhashable", "unknown-typecode", "wider-typecode",
            "lengths-past-arena", "four-fields",
        ],
    )
    def test_wrong_shape_cache_file_is_rebuilt(self, tmp_path, reshape, message):
        # each file fails its own check: all but the digest cases carry the
        # digest of their body, as ball_file stamps it
        d = str(tmp_path)
        cached_ball(BS12, 4, d)
        path = tmp_path / ball_cache_name(BS12, 4)
        whole = path.read_bytes()
        header, body = whole.split(b"\n", 1)
        path.write_bytes(reshape(json.loads(header), marshal.loads(body)))
        with pytest.raises(ValueError, match=message):
            load_ball(str(path))
        ball = cached_ball(BS12, 4, d)
        assert same_ball(ball, build_ball(BS12, 4))
        assert path.read_bytes() == whole

    @pytest.mark.parametrize(
        "radius, fields",
        [(1, {"radius": True}), (0, {"n": True, "radius": False})],
        ids=["radius-true", "n-true-radius-false"],
    )
    def test_boolean_header_integers_are_rebuilt(self, tmp_path, radius, fields):
        # JSON true and false are ints to isinstance, and equal 1 and 0
        d = str(tmp_path)
        cached_ball(FREE2, radius, d)
        path = tmp_path / ball_cache_name(FREE2, radius)
        whole = path.read_bytes()
        header, body = whole.split(b"\n", 1)
        path.write_bytes(json.dumps({**json.loads(header), **fields}).encode() + b"\n" + body)
        with pytest.raises(ValueError):
            load_ball(str(path))
        ball = cached_ball(FREE2, radius, d)
        assert type(ball.radius) is int
        assert same_ball(ball, build_ball(FREE2, radius))
        assert path.read_bytes() == whole

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.describe())
    def test_cache_hit_builds_the_index_on_first_lookup(self, tmp_path, spec):
        cold = build_ball(spec, 5)
        cached_ball(spec, 5, str(tmp_path))
        warm = cached_ball(spec, 5, str(tmp_path))
        assert "index" not in vars(warm)
        g = group_for(spec)
        # a rim vertex and a letter that lead out of the ball
        rim, letter = next(
            (vid, letter)
            for vid in range(cold.n_vertices - 1, -1, -1)
            for letter in spec.letters
            if cold.vertex(g.apply_letter(cold.elements[vid], letter)) is None
        )
        outside = g.apply_letter(cold.elements[rim], letter)
        assert [warm.vertex(a) for a in cold.elements] == list(range(cold.n_vertices))
        assert warm.vertex(outside) is None
        assert warm.index == cold.index
        inside = PathInBall(base=0, word=spec.letters[:1] * 2 + spec.letters[-1:] * 3)
        assert walk_path(warm, inside) == walk_path(cold, inside)
        with pytest.raises(InsufficientRadiusError):
            walk_path(warm, PathInBall(base=rim, word=(letter,)))

    @pytest.mark.parametrize("text, radius, bound", [("bs:2,3", 8, 55), ("free:2", 7, 45)])
    def test_load_retained_bytes_per_vertex(self, tmp_path, text, radius, bound):
        """A load keeps the packed forms, distances and slots, and no tuple
        or index entry per vertex: about 40 and 33 bytes per vertex on these
        balls, against 153 and 119 when each form was a tuple, and 227 and
        182 with the vertex index built as well."""
        path = str(tmp_path / "ball")
        save_ball(build_ball(parse_group_spec(text), radius), path)
        gc.collect()  # empties the tuple free lists, whose reuse tracemalloc misses
        tracemalloc.start()
        try:
            ball = load_ball(path)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained / ball.n_vertices < bound

    def test_save_replaces_without_leaving_temp_files(self, tmp_path):
        path = tmp_path / "ball.json"
        save_ball(build_ball(AB2, 3), str(path))
        save_ball(build_ball(AB2, 4), str(path))
        assert load_ball(str(path)).radius == 4
        assert list(tmp_path.iterdir()) == [path]

    def test_interrupted_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ball.json"
        save_ball(build_ball(AB2, 3), str(path))
        before = path.read_bytes()
        bigger = build_ball(AB2, 4)

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        # interrupted while encoding, and with the temp file whole but not
        # yet renamed into place
        for module, name in ((marshal, "dumps"), (os, "replace")):
            with monkeypatch.context() as patched:
                patched.setattr(module, name, interrupt)
                with pytest.raises(KeyboardInterrupt):
                    save_ball(bigger, str(path))
            assert path.read_bytes() == before
            assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "group,radius,digest",
        [
            ("free:2", 3,
             "6de218a98f21730019a30007a9ad3a17a8e7133cc466c43bed12109ac310465f"),
            ("bs:1,2", 5,
             "6c61b9a6caa6f839025c29ff16755756e5d16d31e9ca532c1e7234324b374017"),
            ("hnn:2,2 1;0 2", 3,
             "5442b40327934dfe0e0932e0346a3f89fc5401a05f5d02ec0d9564e9c5154f4b"),
        ],
    )
    def test_cache_file_bytes_are_pinned(self, tmp_path, group, radius, digest):
        spec = parse_group_spec(group)
        cached_ball(spec, radius, str(tmp_path))
        data = (tmp_path / ball_cache_name(spec, radius)).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.describe())
    def test_header_holds_the_blake2b_digest_of_the_body(self, tmp_path, spec):
        cached_ball(spec, 4, str(tmp_path))
        name = ball_cache_name(spec, 4)
        header, body = (tmp_path / name).read_bytes().split(b"\n", 1)
        assert json.loads(header)["blake2b"] == hashlib.blake2b(body, digest_size=32).hexdigest()
        key = f"cosetgeom.ball.v4|{spec.describe()}|4".encode()
        assert name == f"ball-{hashlib.blake2b(key, digest_size=32).hexdigest()[:16]}-r4.ball"

    def test_digest_falls_back_to_hashlib(self, monkeypatch):
        # an interpreter built without _blake2 digests through hashlib
        body = marshal.dumps(tuple(range(100)), 2)
        expected = hashlib.blake2b(body, digest_size=32).hexdigest()
        assert cayley._digest(body) == expected
        monkeypatch.setitem(sys.modules, "_blake2", None)
        assert cayley._digest(body) == expected

    def test_save_load_bytes_stable(self, tmp_path):
        ball = build_ball(AB2, 5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_ball(ball, str(p1))
        save_ball(load_ball(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.describe())
class TestPackedForms:
    def test_loaded_forms_decode_as_built(self, tmp_path, spec):
        # the free group's identity is the empty form
        for radius in range(7):
            ball = build_ball(spec, radius)
            forms = round_trip(ball, tmp_path / "ball").elements
            assert isinstance(forms, PackedForms)
            assert len(forms) == ball.n_vertices
            assert list(forms) == ball.elements
            # random reads, last vertex first
            assert [forms[v] for v in range(len(forms) - 1, -1, -1)] == ball.elements[::-1]
            assert dict(zip(forms, range(len(forms)))) == ball.index
            for v in (-1, len(forms)):
                with pytest.raises(IndexError):
                    forms[v]

    def test_file_body_holds_the_packed_forms(self, tmp_path, spec):
        # read with marshal and array alone: typecode, form lengths, the
        # forms one after the other, then the distance and slot bytes
        ball = build_ball(spec, 6)
        path = tmp_path / "ball"
        save_ball(ball, str(path))
        header, body = path.read_bytes().split(b"\n", 1)
        assert json.loads(header)["format"] == BALL_FORMAT == "cosetgeom.ball.v4"
        typecode, lengths, arena, dist, adj = marshal.loads(body)
        forms = ball.elements
        assert typecode == "h"
        assert list(lengths) == [len(a) for a in forms]
        assert array(typecode, arena).tolist() == [x for a in forms for x in a]
        assert (dist, adj) == (ball.dist.tobytes(), ball.adj.tobytes())

    def test_save_of_a_loaded_ball_is_byte_stable(self, tmp_path, spec):
        p1, p2 = tmp_path / "a.ball", tmp_path / "b.ball"
        for radius in (0, 3, 6):
            save_ball(build_ball(spec, radius), str(p1))
            save_ball(load_ball(str(p1)), str(p2))
            assert p1.read_bytes() == p2.read_bytes()

    def test_forms_that_share_a_hash_are_told_apart(self, tmp_path, spec, monkeypatch):
        # with one hash for every form, the repeat check compares each form
        # with all earlier ones, and the bytes after a shorter form may
        # spell a longer one
        ball = build_ball(spec, 3)
        save_ball(ball, str(tmp_path / "ball"))
        monkeypatch.setattr(cayley, "hash", lambda row: 0, raising=False)
        assert same_ball(load_ball(str(tmp_path / "ball")), ball)


class TestFormWidths:
    @pytest.mark.parametrize(
        "text, radius, typecode, low, high",
        [
            ("bs:1,2", 6, "h", 0, 2**15),
            ("bs:1,300", 3, "i", 2**15, 2**31),
            (f"bs:1,{2**31}", 2, "q", 2**31, 2**63),
        ],
    )
    def test_arena_widens_only_when_a_value_needs_it(
        self, tmp_path, text, radius, typecode, low, high
    ):
        # the largest value passes the narrower typecode's range only
        ball = build_ball(parse_group_spec(text), radius)
        widest = max(abs(x) for a in ball.elements for x in a)
        assert low <= widest < high
        clone = round_trip(ball, tmp_path / "ball")
        assert clone.elements.typecode == typecode
        assert same_ball(clone, ball)

    def test_forms_past_64_bits_are_served_uncached(self, tmp_path):
        spec = baumslag_solitar(1, 2**63)
        cold = build_ball(spec, 2)
        assert max(max(a) for a in cold.elements) == 2**63
        ball = cached_ball(spec, 2, str(tmp_path))
        assert same_ball(ball, cold)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(OverflowError):
            save_ball(cold, str(tmp_path / "ball"))
        assert list(tmp_path.iterdir()) == []


class TestCollectorPause:
    """Ball builds, saves and loads pause the cyclic collector and leave it
    as they found it."""

    @pytest.fixture
    def collections_in_bfs(self, monkeypatch):
        """How many collections had started when each BFS returned or raised."""
        started, seen = [], []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        bfs = cayley._bfs_ball

        def watched(*args):
            try:
                return bfs(*args)
            finally:
                seen.append(len(started))

        monkeypatch.setattr(cayley, "_bfs_ball", watched)
        gc.callbacks.append(record)
        yield seen
        gc.callbacks.remove(record)

    def test_no_collection_during_build_and_collector_back_on(self, collections_in_bfs):
        assert gc.isenabled()
        ball = build_ball(BS12, 12)
        assert collections_in_bfs == [0]
        assert gc.isenabled()
        # the build made many times the youngest generation's threshold
        assert ball.n_vertices > 10 * gc.get_threshold()[0]

    def test_collector_back_on_after_overflow(self, collections_in_bfs):
        assert gc.isenabled()
        with pytest.raises(BallOverflowError):
            build_ball(BS12, 12, max_vertices=10_000)
        assert collections_in_bfs == [0]
        assert gc.isenabled()

    def test_save_and_load_put_the_collector_back(self, tmp_path):
        path = str(tmp_path / "ball.json")
        save_ball(build_ball(BS12, 4), path)
        assert gc.isenabled()
        load_ball(path)
        assert gc.isenabled()
        (tmp_path / "bad.json").write_text("{")
        with pytest.raises(ValueError):
            load_ball(str(tmp_path / "bad.json"))
        assert gc.isenabled()

    def test_collector_left_off_when_it_was_off(self, tmp_path):
        path = str(tmp_path / "ball.json")
        gc.disable()
        try:
            build_ball(BS12, 4)
            with pytest.raises(BallOverflowError):
                build_ball(BS12, 4, max_vertices=10)
            save_ball(build_ball(BS12, 4), path)
            load_ball(path)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_library_never_freezes_the_collector(self, tmp_path, monkeypatch):
        frozen = []
        monkeypatch.setattr(cayley.gc, "freeze", lambda: frozen.append(1))
        build_ball(BS12, 4)
        cached_ball(BS12, 4, str(tmp_path))
        cached_ball(BS12, 4, str(tmp_path))
        assert frozen == []
