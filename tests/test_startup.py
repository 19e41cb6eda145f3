"""Start-up cost: a CLI run imports only what its subcommand runs.

Each run starts in a fresh interpreter, as ``python -m cosetgeom`` does, and
lists ``sys.modules`` when it ends.  A module that an empty interpreter
already holds (``site`` may import anything) is never counted against a run.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cosetgeom

SRC = Path(cosetgeom.__file__).resolve().parent.parent

# Runs the package as ``python -m cosetgeom`` would, or nothing when argv is
# empty, and writes the names in sys.modules to the file named first.
PROBE = """
import runpy, sys
out, argv = sys.argv[1], sys.argv[2:]
try:
    if argv:
        sys.argv = ["cosetgeom", *argv]
        runpy.run_module("cosetgeom", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
else:
    code = 0
with open(out, "w") as fh:
    fh.write(f"{code}\\n" + "\\n".join(sorted(sys.modules)))
"""

ANALYSES = ("cosetgeom.cosetgraph", "cosetgeom.metrics", "cosetgeom.ends", "cosetgeom.dot")
STDLIB_HEAVY = ("dataclasses", "hashlib", "configparser")

RUNS = {
    "help": ["--help"],
    "ball": ["ball", "--group", "bs:1,2", "--radius", "4"],
    "constants": ["constants", "--group", "bs:1,2", "--radius", "6"],
    "ladder": [
        "ladder", "--group", "bs:1,2", "--radius", "6", "--prefix", "x^4", "--crossing", "t",
    ],
    "rays": ["rays", "--group", "bs:1,2", "--radius", "6", "--graph", "patch"],
    "commensurate": ["commensurate", "--group", "bs:1,2", "--radius", "7"],
    "filtered-ends": ["filtered-ends", "--group", "bs:1,2", "--radius", "8"],
    "hausdorff": ["hausdorff", "--group", "bs:1,2", "--radius", "7", "--element", "t"],
    "lift": ["lift", "--group", "bs:1,2", "--radius", "7", "--path", "t.x.t^-1"],
}


def loaded(listing: Path, argv):
    """(exit code, names in sys.modules) of one run, listed in the given file."""
    env = {k: v for k, v in os.environ.items() if k != "COSETGEOM_CACHE"}
    env["PYTHONPATH"] = str(SRC)
    subprocess.run(
        [sys.executable, "-c", PROBE, str(listing), *argv],
        env=env,
        cwd=listing.parent,
        stdout=subprocess.DEVNULL,
        check=True,
    )
    code, *names = listing.read_text().split("\n")
    return int(code), set(names)


@pytest.fixture(scope="module")
def imports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("startup")
    _, baseline = loaded(tmp / "empty.txt", [])
    runs = {name: loaded(tmp / f"{name}.txt", argv) for name, argv in RUNS.items()}
    return {name: (code, names - baseline) for name, (code, names) in runs.items()}


@pytest.mark.parametrize("run", list(RUNS))
def test_no_run_loads_dataclasses_hashlib_or_configparser(imports, run):
    code, names = imports[run]
    assert code == 0
    assert names.isdisjoint(STDLIB_HEAVY), sorted(names.intersection(STDLIB_HEAVY))


@pytest.mark.parametrize("run", ["help", "ball", "constants", "ladder"])
def test_runs_without_a_patch_load_no_coset_layer(imports, run):
    _, names = imports[run]
    assert names.isdisjoint(ANALYSES), sorted(names.intersection(ANALYSES))


def test_help_loads_only_the_parser(imports):
    # --help runs no group, subgroup or ball code, so it compiles none
    _, names = imports["help"]
    assert {n for n in names if n.startswith("cosetgeom")} == {
        "cosetgeom", "cosetgeom.cli", "cosetgeom.errors",
    }


def test_ball_loads_no_lifting_or_homotopy(imports):
    _, names = imports["ball"]
    assert "cosetgeom.cayley" in names
    assert names.isdisjoint({"cosetgeom.lifting", "cosetgeom.homotopy"})


def test_rays_load_homotopy_but_no_lifting(imports):
    # homotopy names LiftConstants in annotations only
    _, names = imports["rays"]
    assert "cosetgeom.homotopy" in names
    assert "cosetgeom.lifting" not in names


def test_analyses_load_their_modules(imports):
    # the probe sees imports: a subcommand that runs a module does load it
    assert "cosetgeom.homotopy" in imports["ladder"][1]
    assert {"cosetgeom.cosetgraph", "cosetgeom.metrics"} <= imports["commensurate"][1]
    assert "cosetgeom.ends" in imports["filtered-ends"][1]


@pytest.mark.parametrize(
    "run, uses, skips",
    [
        ("hausdorff", {"metrics"}, {"ends", "dot", "homotopy", "lifting"}),
        ("lift", {"lifting"}, {"metrics", "ends", "dot", "homotopy"}),
    ],
)
def test_coset_lookups_load_only_their_analysis(imports, run, uses, skips):
    # both look cosets up in a patch; neither counts ends nor builds a ladder
    _, names = imports[run]
    assert {f"cosetgeom.{m}" for m in {"cosetgraph", *uses}} <= names
    assert names.isdisjoint(f"cosetgeom.{m}" for m in skips), sorted(names)


def test_cache_and_config_load_what_they_use(tmp_path):
    # a config loads configparser; the cache digest comes from _blake2, so
    # neither the cold run that writes the file nor the warm run that reads
    # it loads hashlib and the OpenSSL library behind _hashlib
    cfg = tmp_path / "scenario.ini"
    cfg.write_text("[scenario]\ngroup = bs:1,2\nradius = 3\n")
    argv = ["ball", "--config", str(cfg), "--cache-dir", "cache"]
    cold_code, cold = loaded(tmp_path / "cold.txt", argv)
    warm_code, warm = loaded(tmp_path / "warm.txt", argv)
    assert cold_code == warm_code == 0
    assert len(list((tmp_path / "cache").iterdir())) == 1
    for names in (cold, warm):
        assert {"configparser", "_blake2"} <= names
        assert names.isdisjoint({"hashlib", "_hashlib"}), sorted(names)


def test_only_a_cache_load_imports_struct_and_mmap(tmp_path):
    # a cold run writes the cache file without them, a warm run reads it
    argv = ["ball", "--group", "bs:1,2", "--radius", "3", "--cache-dir", "cache"]
    _, baseline = loaded(tmp_path / "empty.txt", [])
    cold_code, cold = loaded(tmp_path / "cold.txt", argv)
    warm_code, warm = loaded(tmp_path / "warm.txt", argv)
    assert cold_code == warm_code == 0
    assert "mmap" not in baseline
    assert "mmap" not in cold and "mmap" in warm
    # struct may be loaded before any cosetgeom code runs, so check that no
    # module binds it, or mmap, when imported
    from cosetgeom import cayley, cli, dot

    for module in (cayley, cli, dot):
        assert not {"struct", "mmap"} & set(vars(module)), module.__name__


@pytest.mark.parametrize(
    "argv",
    [["filtered-ends"], ["rays", "--graph", "patch"]],
    ids=["filtered-ends", "rays"],
)
def test_a_warm_coset_graph_run_maps_no_ball(tmp_path, argv):
    # the cold run loads the ball that a ball run cached, and writes the
    # graph file; the warm run reads only that file, so it maps nothing
    scenario = ["--group", "bs:1,2", "--radius", "8", "--cache-dir", "cache"]
    assert loaded(tmp_path / "ball.txt", ["ball", *scenario])[0] == 0
    cold_code, cold = loaded(tmp_path / "cold.txt", [*argv, *scenario])
    warm_code, warm = loaded(tmp_path / "warm.txt", [*argv, *scenario])
    assert cold_code == warm_code == 0
    assert "mmap" in cold and "mmap" not in warm
    assert len(list((tmp_path / "cache").iterdir())) == 2


def test_importing_the_package_loads_no_module():
    code = "import sys, cosetgeom; print(sorted(m for m in sys.modules if 'cosetgeom' in m))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "['cosetgeom']"


# The public names by defining module, as the package exported them eagerly.
PUBLIC = {
    "cayley": [
        "DEFAULT_VERTEX_BUDGET", "Ball", "PathInBall", "StarResult", "build_ball",
        "cached_ball", "load_ball", "save_ball", "star",
    ],
    "cosetgraph": [
        "DEFAULT_TRUST_MARGIN", "CosetPatch", "DegreeProfile", "LambdaPath",
        "build_coset_patch", "degree_profile", "project_path",
    ],
    "dot": ["export_dot"],
    "ends": [
        "EndsReport", "default_schedule", "ends_report", "escape_route",
        "stable_hausdorff_bound", "verify_escape_route",
    ],
    "errors": [
        "BallOverflowError", "ConfigError", "ConstantViolationError", "CosetGeomError",
        "EmptyCosetInBallError", "EscapeBlockedError", "InsufficientRadiusError",
        "NoRouteWithinBallError", "NotCommensuratedError",
        "NotStabilizedError", "ScheduleExceedsBallError",
    ],
    "groups": [
        "GroupSpec", "ascending_hnn", "baumslag_solitar", "evaluate_word",
        "free_abelian_group", "free_group", "group_for", "inverse_word",
        "parse_group_spec", "parse_word", "render_word",
    ],
    "homotopy": [
        "Ladder", "LadderReport", "LadderViolation", "RaySystem", "build_ladder",
        "build_ray_system", "verify_ladder",
    ],
    "lifting": [
        "LiftConstants", "LiftResult", "approximate_lift", "compute_f", "compute_m",
        "lift_constants",
    ],
    "metrics": [
        "CommensurationReport", "HausdorffProfile", "RadiusValue",
        "commensuration_verdict", "default_radii", "default_test_elements",
        "hausdorff_profile",
    ],
    "subgroups": [
        "coset_key", "is_member", "k_letters", "q_letters", "transfer_basis",
    ],
}


def test_public_names_resolve_to_their_modules():
    names = [name for group in PUBLIC.values() for name in group]
    assert cosetgeom.__all__ == sorted(names + ["__version__"])
    for module_name, group in PUBLIC.items():
        module = importlib.import_module(f"cosetgeom.{module_name}")
        for name in group:
            assert getattr(cosetgeom, name) is getattr(module, name), name
    assert set(cosetgeom.__all__) <= set(dir(cosetgeom))
    with pytest.raises(AttributeError):
        cosetgeom.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cosetgeom import *", namespace)
    assert set(cosetgeom.__all__) <= set(namespace)
