"""The coset-graph cache: filtered-ends and patch rays read Q's coset graph
from a file beside the ball file, without the ball.

A warm run must print what the cold run printed, exit as it exited and
fail as it failed; a damaged file is rebuilt, and a words subgroup never
touches one.
"""

import builtins
import hashlib
import json
import marshal
import os
import stat
import sys
from array import array

import pytest

from cosetgeom import cosetgraph
from cosetgeom.cayley import ball_cache_name, build_ball
from cosetgeom.cli import Scenario, Settings, build_parser, main, run
from cosetgeom.cosetgraph import (
    build_coset_patch,
    cached_coset_graph,
    coset_graph_cache_name,
    load_coset_graph,
)
from cosetgeom.groups import parse_group_spec

from .oracles import REFERENCE_GROUPS

# The exit-code sweep's rule (test_cli.SWEEP_RADII) on every reference
# group: its largest radius whose ball has about 5,000 vertices or fewer,
# at most 12.
RADII = {
    "free:1": 12,
    "free:2": 7,
    "abelian:1": 12,
    "abelian:3": 12,
    "bs:1,2": 10,
    "bs:2,3": 7,
    "bs:-2,3": 7,
    "bs:3,-2": 7,
    "hnn:1,3": 8,
    "hnn:2,0 1;2 1": 7,
    "hnn:2,2 1;0 2": 6,
}

GRAPH_RUNS = (
    ["filtered-ends"],
    ["filtered-ends", "--schedule", "1:3"],
    ["rays", "--graph", "patch"],
)


def cli(argv, capsys, cache=None):
    """(exit code, stdout, stderr) of one in-process run."""
    extra = [] if cache is None else ["--cache-dir", str(cache)]
    code = main([*argv, *extra])
    out, err = capsys.readouterr()
    return code, out, err


def graph_path(cache, group, radius):
    return cache / coset_graph_cache_name(parse_group_spec(group), radius)


def stamped(header, fields):
    """Graph file bytes for a header and body fields, stamped with the
    body's digest."""
    body = marshal.dumps(fields, 2)
    header = {**header, "blake2b": hashlib.blake2b(body, digest_size=32).hexdigest()}
    return json.dumps(header).encode() + b"\n" + body


def test_every_reference_group_covers_the_table():
    assert set(RADII) == set(REFERENCE_GROUPS)


@pytest.mark.parametrize("group", REFERENCE_GROUPS)
def test_warm_runs_print_the_cold_bytes(group, tmp_path, capsys):
    """Oracle: at every radius, a run that reads the graph file prints the
    bytes and exit code of the run that wrote it, exit-2 runs included, and
    the file holds the graph a fresh patch of a fresh ball gives."""
    spec = parse_group_spec(group)
    codes = set()
    for radius in range(RADII[group] + 1):
        cache = tmp_path / f"r{radius}"
        path = graph_path(cache, group, radius)
        for argv in GRAPH_RUNS:
            argv = [*argv, "--group", group, "--radius", str(radius)]
            if path.exists():
                path.unlink()
            cold = cli(argv, capsys, cache)
            assert path.exists(), argv
            warm = cli(argv, capsys, cache)
            assert warm == cold, argv
            assert cold[0] in (0, 2) and cold[2] == "", argv
            codes.add(cold[0])
        found, sizes, graph = load_coset_graph(str(path))
        ball = build_ball(spec, radius)
        assert (found, sizes) == (spec, ball.sphere_sizes())
        assert graph == build_coset_patch(ball).graph
        assert graph.dist.typecode == graph.targets.typecode == graph.offsets.typecode == "i"
    assert 2 in codes  # radius 0 has no horizon for an ends schedule


def test_free1_suggests_radius_20_from_a_warm_file(tmp_path, capsys):
    argv = ["filtered-ends", "--group", "free:1", "--radius", "12"]
    cold = cli(argv, capsys, tmp_path)
    assert cli(argv, capsys, tmp_path) == cold
    assert cold[0] == 2
    assert json.loads(cold[1])["result"]["suggest_radius"] == 20


@pytest.mark.parametrize("argv", GRAPH_RUNS[::2], ids=["filtered-ends", "rays"])
def test_a_warm_run_keeps_the_vertex_budget(argv, tmp_path, capsys):
    """A budget below the ball's size fails as the cold build fails, read
    off the sphere sizes the graph file keeps, with or without the ball file."""
    argv = [*argv, "--group", "bs:2,3", "--radius", "7"]
    tight = [*argv, "--max-vertices", "1000"]
    cold = cli(tight, capsys, tmp_path / "cold")
    error = "error: ball exceeded budget of 1000 vertices at radius 6 (count 1001)\n"
    assert cold == (1, "", error)
    assert list((tmp_path / "cold").iterdir()) == []
    warm = tmp_path / "warm"
    loose = cli(argv, capsys, warm)
    assert loose[0] in (0, 2)
    assert cli(tight, capsys, warm) == cold
    (warm / ball_cache_name(parse_group_spec("bs:2,3"), 7)).unlink()
    assert cli(tight, capsys, warm) == cold
    # a budget of exactly the ball's 2,587 vertices is enough
    exact = cli([*argv, "--max-vertices", "2587"], capsys, warm)
    assert exact[0] == loose[0]
    assert json.loads(exact[1])["result"] == json.loads(loose[1])["result"]


def test_cached_coset_graph_refuses_a_budget_below_one(tmp_path):
    with pytest.raises(ValueError, match="at least 1"):
        cached_coset_graph(parse_group_spec("bs:1,2"), 3, str(tmp_path), 0)


def _truncated(path, other):
    path.write_bytes(path.read_bytes()[:-100])


def _bit_flipped(path, other):
    data = bytearray(path.read_bytes())
    data[-7] ^= 0x10
    path.write_bytes(bytes(data))


def _other_format(path, other):
    head, body = path.read_bytes().split(b"\n", 1)
    header = {**json.loads(head), "format": "cosetgeom.graph.v0"}
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


def _other_radius(path, other):
    path.write_bytes(other.read_bytes())


@pytest.mark.parametrize(
    "damage",
    [_truncated, _bit_flipped, _other_format, _other_radius],
    ids=["truncated", "bit-flipped", "other-format", "other-radius"],
)
@pytest.mark.parametrize("argv", GRAPH_RUNS, ids=["filtered-ends", "schedule", "rays"])
def test_a_damaged_graph_file_is_rebuilt(argv, damage, tmp_path, capsys):
    argv = [*argv, "--group", "bs:1,2", "--radius", "8"]
    path = graph_path(tmp_path, "bs:1,2", 8)
    cold = cli(argv, capsys, tmp_path)
    whole = path.read_bytes()
    other = tmp_path / "other.graph"
    cached_coset_graph(parse_group_spec("bs:1,2"), 7, str(tmp_path))
    graph_path(tmp_path, "bs:1,2", 7).rename(other)
    damage(path, other)
    if damage is not _other_radius:
        with pytest.raises(ValueError):
            load_coset_graph(str(path))
    assert cli(argv, capsys, tmp_path) == cold
    assert path.read_bytes() == whole


@pytest.mark.parametrize(
    "reshape, message",
    [
        (lambda h, f: stamped({**h, "sphere_sizes": h["sphere_sizes"][:-1]}, f), "sphere sizes"),
        (lambda h, f: stamped({**h, "sphere_sizes": None}, f), "sphere sizes"),
        (lambda h, f: stamped({**h, "n": True}, f), "radius or size is not an integer"),
        (lambda h, f: stamped(h, f[:2]), "not three byte strings"),
        (lambda h, f: stamped(h, (f[0], list(f[1]), f[2])), "not three byte strings"),
        (lambda h, f: stamped(h, 7), "not a tuple"),
        (lambda h, f: stamped(h, (f[0][:-4], *f[1:])), "fields disagree"),
        (lambda h, f: stamped(h, (f[0][:-1], *f[1:])), "multiple of item size"),
        (lambda h, f: stamped(h, (*f[:2], f[2][:-4])), "fields disagree"),
        (lambda h, f: stamped(h, (f[0], f[1][:-4], f[2])), "do not span the targets"),
        (lambda h, f: stamped(h, (*f[:2], _past_next(f[2], 1))), "offsets decrease"),
        (lambda h, f: stamped(h, (_set(f[0], 0, h["radius"] + 1), *f[1:])), "distance out"),
        (lambda h, f: stamped(h, (_set(f[0], 0, -1), *f[1:])), "distance out"),
        (lambda h, f: stamped(h, (f[0], _set(f[1], 0, h["n"]), f[2])), "coset id out"),
        (lambda h, f: stamped(h, (f[0], _set(f[1], 0, -1), f[2])), "coset id out"),
        (lambda h, f: stamped({**h, "group": "bs:x"}, f), "malformed graph file: Config"),
    ],
    ids=[
        "sizes-short", "sizes-null", "n-true", "two-fields", "targets-list", "body-int",
        "dist-short", "dist-ragged", "offsets-short", "targets-short", "offsets-decrease",
        "dist-past-radius", "dist-negative", "target-past-end", "target-negative", "bad-group",
    ],
)
def test_each_loader_check_rebuilds(reshape, message, tmp_path):
    # every file carries the digest of its body, so its own check fails
    spec = parse_group_spec("bs:1,2")
    graph = cached_coset_graph(spec, 6, str(tmp_path))
    path = graph_path(tmp_path, "bs:1,2", 6)
    whole = path.read_bytes()
    head, body = whole.split(b"\n", 1)
    path.write_bytes(reshape(json.loads(head), marshal.loads(body)))
    with pytest.raises(ValueError, match=message):
        load_coset_graph(str(path))
    assert cached_coset_graph(spec, 6, str(tmp_path)) == graph
    assert path.read_bytes() == whole


def _set(field, i, value):
    ints = array("i", field)
    ints[i] = value
    return ints.tobytes()


def _past_next(field, i):
    ints = array("i", field)
    ints[i] = ints[i + 1] + 1
    return ints.tobytes()


@pytest.mark.parametrize("argv", GRAPH_RUNS[::2], ids=["filtered-ends", "rays"])
def test_a_words_subgroup_neither_reads_nor_writes_a_graph_file(
    argv, tmp_path, capsys, monkeypatch
):
    argv = [*argv, "--group", "bs:1,2", "--radius", "8"]
    words = [*argv, "--subgroup", "words:x,t.x.t^-1"]
    uncached = cli(words, capsys)
    assert cli(words, capsys, tmp_path) == uncached
    assert [p.name for p in tmp_path.iterdir()] == [
        ball_cache_name(parse_group_spec("bs:1,2"), 8)
    ]
    # Q's graph file for the same ball is there, and is not read
    assert cli(argv, capsys, tmp_path)[0] == 0
    assert graph_path(tmp_path, "bs:1,2", 8).exists()

    def refuse(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(cosetgraph, "load_coset_graph", refuse)
    assert cli(words, capsys, tmp_path) == uncached


def test_a_read_only_cache_holding_the_ball_still_serves(tmp_path, capsys, monkeypatch):
    argv = ["filtered-ends", "--group", "bs:2,3", "--radius", "7"]
    uncached = cli(argv, capsys)
    cache = tmp_path / "cache"
    assert cli(["ball", "--group", "bs:2,3", "--radius", "7"], capsys, cache)[0] == 0
    names = sorted(p.name for p in cache.iterdir())
    # the mode bits bind every user but root, so writes into the directory
    # are refused here as well
    real_open = builtins.open

    def read_only_open(file, mode="r", *args, **kwargs):
        if os.path.dirname(os.path.abspath(file)) == str(cache) and "r" not in mode:
            raise PermissionError(13, "Permission denied", file)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", read_only_open)
    cache.chmod(stat.S_IRUSR | stat.S_IXUSR)
    try:
        assert cli(argv, capsys, cache) == uncached
        assert cli(argv, capsys, cache) == uncached
    finally:
        cache.chmod(stat.S_IRWXU)
    assert sorted(p.name for p in cache.iterdir()) == names


def test_a_scenario_that_built_its_patch_reads_the_patch(tmp_path):
    # as the survey script's rows run coset-graph before filtered-ends
    argv = ["filtered-ends", "--group", "bs:1,2", "--radius", "8", "--cache-dir", str(tmp_path)]
    scenario = lambda: Scenario(Settings(build_parser().parse_args(argv), {}))
    shared = scenario()
    run(shared, "coset-graph")
    got = run(shared, "filtered-ends")
    names = [p.name for p in tmp_path.iterdir()]
    assert names == [ball_cache_name(parse_group_spec("bs:1,2"), 8)]
    assert got == run(scenario(), "filtered-ends")


def test_the_graph_file_names_its_formats_group_and_radius(tmp_path):
    spec = parse_group_spec("hnn:2,2 1;0 2")
    key = f"cosetgeom.graph.v1|cosetgeom.ball.v4|{spec.describe()}|3".encode()
    digest = hashlib.blake2b(key, digest_size=32).hexdigest()[:16]
    assert coset_graph_cache_name(spec, 3) == f"graph-{digest}-r3.graph"
    cached_coset_graph(spec, 3, str(tmp_path))
    head, body = graph_path(tmp_path, "hnn:2,2 1;0 2", 3).read_bytes().split(b"\n", 1)
    header = json.loads(head)
    assert header == {
        "blake2b": hashlib.blake2b(body, digest_size=32).hexdigest(),
        "byteorder": sys.byteorder,
        "format": "cosetgeom.graph.v1",
        "group": spec.describe(),
        "n": header["n"],
        "radius": 3,
        "sphere_sizes": build_ball(spec, 3).sphere_sizes(),
    }
