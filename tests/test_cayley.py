"""Ball construction, distances, stars, and serialization."""

from __future__ import annotations

import gc
import hashlib
import json
import marshal
import os
import random
import sys
from array import array
from collections import deque

import pytest

from cosetgeom import cayley
from cosetgeom.cayley import (
    NO_EDGE,
    UNREACHED,
    Ball,
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
    """Equal group, radius, elements, distances and slots, typecodes included."""
    return (
        (a.spec, a.radius, a.elements, a.dist, a.dist.typecode, a.adj, a.adj.typecode)
        == (b.spec, b.radius, b.elements, b.dist, b.dist.typecode, b.adj, b.adj.typecode)
    )


def round_trip(ball, path):
    save_ball(ball, str(path))
    return load_ball(str(path))


def ball_file(header, body):
    """Ball file bytes for a header and a body tuple, stamped with the body's digest."""
    data = marshal.dumps(body, 2)
    if isinstance(header, dict):
        header = {**header, "sha256": hashlib.sha256(data).hexdigest()}
    return json.dumps(header).encode() + b"\n" + data


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
        assert b1.elements == b2.elements
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
        "reshape",
        [
            # header or transport damage
            lambda h, b: ball_file([], b),
            lambda h, b: ball_file("x", b),
            lambda h, b: ball_file(h, b)[:-100],
            # elements reversed under the old digest: only the digest tells
            lambda h, b: (
                json.dumps(h).encode() + b"\n" + marshal.dumps((b[0][::-1], b[1], b[2]), 2)
            ),
            lambda h, b: ball_file({**h, "format": "cosetgeom.ball.v1"}, b),
            lambda h, b: ball_file(
                {**h, "byteorder": "big" if sys.byteorder == "little" else "little"}, b
            ),
            lambda h, b: ball_file({**h, "group": "bs:x"}, b),
            lambda h, b: ball_file({**h, "radius": "4"}, b),
            # a body with a valid digest but bad content
            lambda h, b: ball_file(h, (None, b[1], b[2])),
            lambda h, b: ball_file(h, ([1] + b[0][1:], b[1], b[2])),
            lambda h, b: ball_file(h, (b[0], b[1][:-1], b[2])),
            lambda h, b: ball_file(h, (b[0], b[1], b[2] + b[2][:16])),
            lambda h, b: ball_file(h, (b[0], b[1], 7)),
            # rows of four letters read as the six of free:3
            lambda h, b: ball_file({**h, "group": "free:3"}, b),
            lambda h, b: ball_file(
                h, (b[0], b[1], array("i", [len(b[0])]).tobytes() + b[2][4:])
            ),
            # four-byte distances under a radius that stores one byte each
            lambda h, b: ball_file(h, (b[0], array("i", [300, *b[1][1:]]).tobytes(), b[2])),
            lambda h, b: ball_file(
                {**h, "radius": 300}, (b[0], array("i", [-1, *b[1][1:]]).tobytes(), b[2])
            ),
            lambda h, b: ball_file(h, (b[0], bytes([h["radius"] + 1]) + b[1][1:], b[2])),
            # vertices[1] set to vertices[2]: one vertex twice, one index entry short
            lambda h, b: ball_file(h, (b[0][:1] + b[0][2:3] + b[0][2:], b[1], b[2])),
        ],
        ids=[
            "list", "string", "truncated-body", "digest-mismatch", "wrong-format",
            "other-byteorder", "bad-group", "radius-text", "vertices-null",
            "vertex-int", "short-dist", "long-adj", "adj-row-int", "unknown-letter",
            "vertex-id-past-end", "dist-300", "dist-negative", "dist-past-radius",
            "repeated-vertex",
        ],
    )
    def test_wrong_shape_cache_file_is_rebuilt(self, tmp_path, reshape):
        d = str(tmp_path)
        cached_ball(BS12, 4, d)
        path = tmp_path / ball_cache_name(BS12, 4)
        whole = path.read_bytes()
        header, body = whole.split(b"\n", 1)
        path.write_bytes(reshape(json.loads(header), marshal.loads(body)))
        with pytest.raises(ValueError):
            load_ball(str(path))
        ball = cached_ball(BS12, 4, d)
        assert same_ball(ball, build_ball(BS12, 4))
        assert path.read_bytes() == whole

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
             "751ba3775e2a702be8cddf32e1377237cf6c77e4f24b45d94c055f8dd59f983c"),
            ("bs:1,2", 5,
             "11ba94b4e6aa29623416a3ecafa305b968005507de69c81795ed1e4692fcdb11"),
        ],
    )
    def test_cache_file_bytes_are_pinned(self, tmp_path, group, radius, digest):
        spec = parse_group_spec(group)
        cached_ball(spec, radius, str(tmp_path))
        data = (tmp_path / ball_cache_name(spec, radius)).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_save_load_bytes_stable(self, tmp_path):
        ball = build_ball(AB2, 5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_ball(ball, str(p1))
        save_ball(load_ball(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


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
