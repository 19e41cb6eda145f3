"""Command-line front end: scenario resolution, JSON reports, caching.

Every subcommand writes one schema-versioned JSON report whose embedded
scenario block pins all inputs that influence the numbers (group, subgroup,
radius, schedules, margins).  The cache location never changes a report
byte: the cache stores exactly what a cold build produces.

Exit codes: 0 for a conclusive run, 2 when the result is Inconclusive, Q is
not commensurated (so no finite F exists) or the ball ran out of radius, 1
for malformed input and broken invariants.  run() is the one pipeline from
a resolved scenario to a report's pieces; main and the survey script call it.

Each handler imports the modules it runs, the group, subgroup and ball
modules included, and configparser is imported only for --config, so a run
compiles no module it does not use: ``--help`` loads only ``cli`` and
``errors``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .errors import (
    ConfigError,
    CosetGeomError,
    InsufficientRadiusError,
    NotCommensuratedError,
)

if TYPE_CHECKING:
    from .cayley import Ball
    from .cosetgraph import CosetPatch
    from .groups import GroupSpec
    from .lifting import LiftConstants
    from .subgroups import SubgroupSpec

SCHEMA = "cosetgeom.report.v1"
CACHE_ENV = "COSETGEOM_CACHE"

STATUS_OK = "ok"
STATUS_INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------- scenario


def parse_subgroup_spec(spec: GroupSpec, text: str) -> SubgroupSpec:
    """Parse ``vertex`` or ``words:w1,w2,...`` (comma-separated words)."""
    from .groups import parse_word
    from .subgroups import vertex_subgroup, word_subgroup

    text = text.strip()
    if text == "vertex":
        return vertex_subgroup()
    if text.startswith("words:"):
        body = text[len("words:") :]
        words = [parse_word(spec, tok) for tok in body.split(",") if tok.strip()]
        if not words:
            raise ConfigError(f"no generator words in {text!r}")
        return word_subgroup(words)
    raise ConfigError(f"unknown subgroup syntax {text!r} (use vertex or words:...)")


def render_subgroup_spec(spec: GroupSpec, q: SubgroupSpec) -> str:
    from .groups import render_word
    from .subgroups import VERTEX

    if q.mode == VERTEX:
        return "vertex"
    return "words:" + ",".join(render_word(spec, w) for w in q.words)


def parse_schedule(text: str) -> List[Tuple[int, int]]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        inner, sep, outer = token.partition(":")
        if not sep:
            raise ConfigError(f"bad annulus token {token!r} (expected r:R)")
        try:
            out.append((int(inner), int(outer)))
        except ValueError:
            raise ConfigError(f"bad annulus token {token!r}") from None
    if not out:
        raise ConfigError(f"empty schedule {text!r}")
    return out


def parse_int_list(text: str) -> List[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad integer list {text!r}") from None


def load_config(path: str) -> Dict[str, Dict[str, str]]:
    import configparser

    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
        # values are interpolated as they are read, so a stray % fails here
        return {section: dict(parser[section]) for section in parser.sections()}
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None


class Settings:
    """Resolved options: flags override the config file, which overrides
    built-in defaults; the [<command>] section overrides [scenario].  The
    config file sets only options that the subcommand declares."""

    def __init__(self, args: argparse.Namespace, config: Dict[str, Dict[str, str]]):
        self.command = args.command
        self._args = vars(args)
        self._config = config

    def get(self, key: str, default=None):
        if key not in self._args:
            return default
        value = self._args[key]
        if value is not None:
            return value
        for section in (self.command, "scenario"):
            table = self._config.get(section)
            if table is not None and key in table:
                return table[key]
        return default

    def get_int(self, key: str, default: Optional[int] = None) -> Optional[int]:
        value = self.get(key)
        if value is None:
            return default
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ConfigError(f"option {key} must be an integer, got {value!r}") from None

    def get_bool(self, key: str, default: bool = False) -> bool:
        value = self.get(key)
        if value is None:
            return default
        if isinstance(value, bool):
            return value
        text = str(value).strip().lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"option {key} must be a boolean, got {value!r}")

    def require(self, key: str) -> str:
        value = self.get(key)
        if value is None:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        return value


class Scenario:
    """Everything a handler needs, resolved once."""

    def __init__(self, settings: Settings):
        from .cayley import DEFAULT_VERTEX_BUDGET
        from .groups import parse_group_spec

        self.settings = settings
        self.spec = parse_group_spec(settings.require("group"))
        self.q = parse_subgroup_spec(self.spec, settings.get("subgroup", "vertex"))
        self.radius = settings.get_int("radius")
        if self.radius is None:
            raise ConfigError("missing required option --radius")
        if self.radius < 0:
            raise ConfigError("radius must be nonnegative")
        self.cache_dir = settings.get("cache_dir", os.environ.get(CACHE_ENV))
        self.max_vertices = settings.get_int("max_vertices", DEFAULT_VERTEX_BUDGET)
        if self.max_vertices < 1:
            raise ConfigError("max-vertices must be at least 1")
        self._ball: Optional[Ball] = None
        self._patch: Optional[CosetPatch] = None
        self.last_block: Optional[dict] = None

    def ball_of(self, radius: int) -> Ball:
        """The ball of the given radius, built or read from the cache."""
        from .cayley import _collector_paused, cached_ball

        # The ball lives until this one-shot process exits, so it is frozen
        # before the collector comes back on: no collection scans it, not
        # even the first one after the build or load.
        with _collector_paused():
            ball = cached_ball(self.spec, radius, self.cache_dir, self.max_vertices)
            gc.freeze()
        return ball

    @property
    def ball(self) -> Ball:
        if self._ball is None:
            self._ball = self.ball_of(self.radius)
        return self._ball

    def constants(self) -> LiftConstants:
        """lift_constants read off B(2F + 1), the smallest ball that holds M,
        whatever the radius: the scenario's own ball when it is built and
        holds B(2F + 1), else that ball.  F takes well under a millisecond,
        so lift_constants simply computes it again."""
        from .lifting import compute_f, lift_constants

        bound = 2 * max(compute_f(self.q, self.spec).values()) + 1
        ball = self._ball
        if ball is None or ball.radius < bound:
            ball = self.ball_of(bound)
        return lift_constants(self.q, ball)

    @property
    def trust_margin(self) -> int:
        from .cosetgraph import DEFAULT_TRUST_MARGIN

        return self.settings.get_int("trust_margin", DEFAULT_TRUST_MARGIN)

    @property
    def patch(self) -> CosetPatch:
        if self._patch is None:
            from .cosetgraph import build_coset_patch

            margin = self.trust_margin  # read first: a bad value fails before the build
            self._patch = build_coset_patch(self.q, self.ball, margin)
        return self._patch

    def block(self, **extras) -> dict:
        """The report's scenario block, kept as last_block for the report of
        a run that raised after it."""
        self.last_block = {
            "group": self.spec.describe(),
            "subgroup": render_subgroup_spec(self.spec, self.q),
            "radius": self.radius,
            "max_vertices": self.max_vertices,
            **extras,
        }
        return self.last_block

    def word(self, key: str) -> Tuple[int, ...]:
        from .groups import parse_word

        return parse_word(self.spec, self.settings.require(key))

    def letter_name(self, letter: int) -> str:
        from .groups import render_word

        return render_word(self.spec, (letter,))


# ---------------------------------------------------------------- handlers

Handler = Callable[[Scenario], Tuple[dict, dict, str, "Optional[Ball | CosetPatch]"]]


def cmd_ball(sc: Scenario):
    ball = sc.ball
    result = {
        "n_vertices": ball.n_vertices,
        "sphere_sizes": ball.sphere_sizes(),
    }
    dot = ball if sc.settings.get("dot") else None
    return sc.block(), result, STATUS_OK, dot


def cmd_coset_graph(sc: Scenario):
    from .cosetgraph import degree_profile
    from .groups import group_for

    patch = sc.patch
    profile = degree_profile(patch)
    result = {
        "n_cosets": patch.n_cosets,
        "n_trusted": profile.n_trusted,
        "max_trusted_degree": profile.max_degree,
        "degree_histogram": [list(row) for row in profile.histogram],
        "per_label_max_targets": [
            [sc.letter_name(letter), count] for letter, count in profile.per_label
        ],
    }
    if sc.settings.get_bool("dump"):
        group = group_for(sc.spec)
        result["cosets"] = [
            {
                "id": cid,
                "key": patch.keys[cid].hex(),
                "witness": group.render(patch.ball.elements[patch.witness[cid]]),
                "dist": patch.dist[cid],
                "trusted": patch.trusted[cid],
            }
            for cid in range(patch.n_cosets)
        ]
        result["edges"] = [
            [cid, sc.letter_name(letter), target]
            for cid in range(patch.n_cosets)
            for letter, target in patch.edges(cid)
        ]
    dot = patch if sc.settings.get("dot") else None
    return sc.block(trust_margin=sc.trust_margin), result, STATUS_OK, dot


def _status(verdict: str) -> str:
    from .metrics import INCONCLUSIVE

    return STATUS_INCONCLUSIVE if verdict == INCONCLUSIVE else STATUS_OK


def _profile_payload(profile) -> dict:
    return {
        "element": profile.g_text,
        "values": [v._asdict() for v in profile.values],
        "k_values": list(profile.k_values()),
        "verdict": profile.verdict,
    }


def cmd_hausdorff(sc: Scenario):
    from .groups import evaluate_word
    from .metrics import coset_distance, default_radii, hausdorff_profile

    g = evaluate_word(sc.spec, sc.word("element"))
    radii_text = sc.settings.get("radii")
    start = coset_distance(sc.patch, g)
    radii = parse_int_list(radii_text) if radii_text else default_radii(sc.ball.radius, start)
    profile = hausdorff_profile(sc.patch, g, radii)
    scenario = sc.block(
        element=sc.settings.require("element"),
        profile_radii=list(radii),
        window=profile.window,
        margin=profile.margin,
    )
    return scenario, _profile_payload(profile), _status(profile.verdict), None


def cmd_commensurate(sc: Scenario):
    from .groups import evaluate_word, parse_word
    from .metrics import (
        commensuration_verdict,
        coset_distance,
        default_radii,
        default_test_elements,
        hausdorff_profile,
    )

    tests = default_test_elements(sc.spec)
    extra = sc.settings.get("elements")
    if extra:
        for token in extra.split(","):
            token = token.strip()
            if token:
                word = parse_word(sc.spec, token)
                tests.append((token, evaluate_word(sc.spec, word)))
    # the generators meet B(1), so only extra elements can start the radii later
    extras = tests[len(sc.spec.letters) :]
    start = max((coset_distance(sc.patch, g) for _, g in extras), default=2)
    radii = default_radii(sc.ball.radius, start)
    profiles = [hausdorff_profile(sc.patch, g, radii) for _, g in tests]
    overall = commensuration_verdict(profiles)
    result = {
        "verdict": overall.verdict,
        "profiles": [_profile_payload(p) for p in overall.profiles],
    }
    scenario = sc.block(profile_radii=list(radii), window=profiles[0].window)
    return scenario, result, _status(overall.verdict), None


def cmd_ends(sc: Scenario, graph):
    """ends on the ball, filtered-ends on the coset patch."""
    from .ends import ends_report

    schedule_text = sc.settings.get("schedule")
    schedule = parse_schedule(schedule_text) if schedule_text else None
    report = ends_report(graph, schedule)
    schedule = [list(row) for row in report.schedule]
    result = {
        "graph": report.graph_kind,
        "horizon": report.horizon,
        "schedule": schedule,
        "counts": list(report.counts),
        "classification": report.classification,
        "count": report.count,
        "label": report.label(),
    }
    return sc.block(schedule=schedule), result, _status(report.classification), None


def _witness_payload(sc: Scenario) -> list:
    """Per letter s, each generator w of T_s = Q ∩ sQs^-1 beside s^-1 w s."""
    from .groups import group_for
    from .subgroups import q_element, transfer_basis

    group = group_for(sc.spec)
    rows = []
    for s in sc.spec.letters:
        s_inv = group.evaluate_word((-s,))
        pairs = []
        for v in transfer_basis(sc.spec, sc.q, s):
            w = q_element(sc.spec, v)
            image = group.evaluate_word((s,), group.multiply(s_inv, w))
            pairs.append([group.render(w), group.render(image)])
        rows.append([sc.letter_name(s), pairs])
    return rows


def _f_rows(sc: Scenario, f_per_letter) -> list:
    return [[sc.letter_name(letter), value] for letter, value in f_per_letter]


def cmd_constants(sc: Scenario):
    scenario = sc.block()
    constants = sc.constants()
    result = {
        "confidence": "Stable",
        "f_per_letter": _f_rows(sc, constants.f_per_letter),
        "f": constants.f,
        "m": constants.m,
        "l": constants.l,
        "witnesses": _witness_payload(sc),
    }
    return scenario, result, STATUS_OK, None


def cmd_lift(sc: Scenario):
    from .cayley import PathInBall
    from .cosetgraph import project_path
    from .groups import evaluate_word, group_for, parse_word, render_word
    from .lifting import approximate_lift, compute_f

    word = sc.word("path")
    base_text = sc.settings.get("base", "1")
    scenario = sc.block(path=render_word(sc.spec, word), base=base_text)
    base_word = parse_word(sc.spec, base_text)
    # the ball's slots are exact, so a walk along the word that stays in
    # the ball ends at the base without building the ball's vertex index
    ball, base = sc.ball, 0
    for letter in base_word:
        base = ball.neighbor(base, letter)
        if base is None:
            base = ball.vertex(evaluate_word(sc.spec, base_word))
            break
    if base is None:
        raise InsufficientRadiusError(
            f"base element {base_text!r} lies outside the ball",
            required_radius=len(base_word),
        )
    f_per_letter = compute_f(sc.q, sc.spec).items()
    lpath = project_path(sc.patch, PathInBall(base, word))
    lift = approximate_lift(sc.patch, lpath, base)
    replay = project_path(sc.patch, PathInBall(base, lift.word))
    result = {
        "lambda_path": {
            "cosets": list(lpath.cosets),
            "letters": [sc.letter_name(letter) for letter in lpath.letters],
        },
        "lift_word": render_word(sc.spec, lift.word),
        "blocks": [render_word(sc.spec, block) for block in lift.blocks],
        "block_lengths": list(lift.block_lengths()),
        "f_per_letter": _f_rows(sc, f_per_letter),
        "end_element": group_for(sc.spec).render(lift.end),
        "projects_back": replay == lpath,
    }
    return scenario, result, STATUS_OK, None


def cmd_rays(sc: Scenario):
    from .homotopy import build_ray_system

    kind = sc.settings.get("graph", "ball")
    if kind == "ball":
        graph = sc.ball
    elif kind == "patch":
        graph = sc.patch
    else:
        raise ConfigError(f"unknown ray graph {kind!r} (use ball or patch)")
    system = build_ray_system(graph)
    reaching = sum(
        1 for ray in system.rays if system.shell[ray[-1]] == system.horizon
    )
    longest = max((len(ray) - 1 for ray in system.rays), default=0)
    result = {
        "graph": system.graph_kind,
        "horizon": system.horizon,
        "n_vertices": system.n_vertices,
        "n_reaching_horizon": reaching,
        "n_stuck": system.n_vertices - reaching,
        "longest_ray_edges": longest,
    }
    return sc.block(graph=kind), result, STATUS_OK, None


def cmd_ladder(sc: Scenario):
    from .groups import render_word
    from .homotopy import build_ladder, verify_ladder

    prefix = sc.word("prefix")
    crossing_word = sc.word("crossing")
    if len(crossing_word) != 1:
        raise ConfigError("crossing must be a single letter")
    crossing = crossing_word[0]
    scenario = sc.block(
        prefix=render_word(sc.spec, prefix),
        crossing=sc.letter_name(crossing),
    )
    constants = sc.constants()
    ladder = build_ladder(sc.q, sc.spec, prefix, crossing, constants)
    report = verify_ladder(sc.spec, ladder)
    loops = [
        {
            "index": i,
            "word": render_word(sc.spec, ladder.loop_word(i)),
            "length": len(ladder.loop_word(i)),
        }
        for i in range(ladder.n_loops)
    ]
    result = {
        "constants": {
            "f": constants.f,
            "m": constants.m,
            "l": constants.l,
            "confidence": "Stable",
        },
        "n_loops": ladder.n_loops,
        "loops": loops,
        "max_loop_length": max((loop["length"] for loop in loops), default=0),
        "rung_lengths": [len(rung) for rung in ladder.rungs],
        "output_word": render_word(sc.spec, ladder.output_word()),
        "target_coset_key": ladder.target_key.hex(),
        "verified": report.ok,
        "violations": [v._asdict() for v in report.violations],
    }
    return scenario, result, STATUS_OK, None


def cmd_export(sc: Scenario):
    what = sc.settings.get("what", "patch")
    if what not in ("ball", "patch"):
        raise ConfigError(f"unknown export target {what!r} (use ball or patch)")
    sc.settings.require("dot")
    graph = sc.ball if what == "ball" else sc.patch
    nodes = graph.n_vertices if what == "ball" else graph.n_cosets
    edges = sum(1 for v in range(nodes) for _ in graph.edges(v))
    result = {"graph": what, "nodes": nodes, "edges": edges}
    return sc.block(what=what), result, STATUS_OK, graph


HANDLERS: Dict[str, Handler] = {
    "ball": cmd_ball,
    "coset-graph": cmd_coset_graph,
    "hausdorff": cmd_hausdorff,
    "commensurate": cmd_commensurate,
    "ends": lambda sc: cmd_ends(sc, sc.ball),
    "filtered-ends": lambda sc: cmd_ends(sc, sc.patch),
    "constants": cmd_constants,
    "lift": cmd_lift,
    "rays": cmd_rays,
    "ladder": cmd_ladder,
    "export": cmd_export,
}


# ---------------------------------------------------------------- plumbing


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like any malformed input; 2 means inconclusive."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cosetgeom",
        description="Finite-radius geometry of coset graphs: balls, ends, "
        "commensuration evidence, lifts, and ladder certificates.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="INI config file; flags override it")
        p.add_argument("--group", help="free:k | abelian:k | bs:m,n | hnn:k,rows")
        p.add_argument("--subgroup", help="vertex | words:w1,w2,...")
        p.add_argument("--radius", type=int, help="ball radius")
        p.add_argument("--cache-dir", dest="cache_dir", help="ball cache directory")
        p.add_argument(
            "--max-vertices", dest="max_vertices", type=int, help="ball vertex budget"
        )
        p.add_argument("--out", help="report path (default stdout)")
        return p

    p = add("ball", "build a Cayley ball and report its size profile")
    p.add_argument("--dot", help="write the ball as DOT")

    p = add("coset-graph", "project the ball onto its coset-graph patch")
    p.add_argument("--trust-margin", dest="trust_margin", type=int)
    p.add_argument("--dump", action="store_const", const="true", default=None)
    p.add_argument("--dot", help="write the patch as DOT")

    p = add("hausdorff", "profile the Hausdorff distance between Q and gQ")
    p.add_argument("--element", help="translating element g, e.g. t or x^2")
    p.add_argument("--radii", help="comma-separated profile radii")

    p = add("commensurate", "aggregate commensuration evidence over generators")
    p.add_argument("--elements", help="extra test words, comma-separated")

    p = add("ends", "count sphere-touching annulus components of the ball")
    p.add_argument("--schedule", help="annuli as r:R,r:R,...")

    p = add("filtered-ends", "count annulus components of the coset graph")
    p.add_argument("--schedule", help="annuli as r:R,r:R,...")

    add("constants", "compute the exact transfer constants F, M, L and witnesses")

    p = add("lift", "project a word to the coset graph and lift it back")
    p.add_argument("--path", help="word to project and re-lift, e.g. x^2.t")
    p.add_argument("--base", help="base element word (default identity)")

    p = add("rays", "build outward escape rays and report coverage")
    p.add_argument("--graph", help="ball or patch (default ball)")

    p = add("ladder", "build and verify a homotopy ladder certificate")
    p.add_argument("--prefix", help="Q-letter prefix word, e.g. x^12")
    p.add_argument("--crossing", help="crossing letter, e.g. t")

    p = add("export", "write a graph as deterministic DOT")
    p.add_argument("--what", help="ball or patch (default patch)")
    p.add_argument("--dot", help="output DOT path (required)")

    return parser


def emit(payload: dict, out_path: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path:
        from .cayley import _replacing

        with _replacing(out_path, "w") as fh:  # the old report or the whole new one
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(
    sc: Scenario, command: str
) -> Tuple[dict, dict, str, Optional[Ball | CosetPatch]]:
    """Run one subcommand on a resolved scenario: (block, result, status,
    the ball or patch to write as DOT, or None).

    A run that cannot conclude comes back as an inconclusive result, not an
    exception: Q is not commensurated, or the ball ran out of radius.  The
    latter's result gives the reason and the radius to retry with, None
    where the code cannot name one.
    """
    sc.last_block = None
    try:
        return HANDLERS[command](sc)
    except NotCommensuratedError as exc:
        result = {"confidence": "NotCommensurated", "letters": list(exc.letters)}
    except InsufficientRadiusError as exc:
        result = {"reason": str(exc), "suggest_radius": exc.required_radius}
    return sc.last_block or sc.block(), result, STATUS_INCONCLUSIVE, None


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = Settings(args, load_config(args.config) if args.config else {})
        block, result, status, dot_graph = run(Scenario(settings), args.command)
        payload = {
            "schema": SCHEMA,
            "command": args.command,
            "scenario": block,
            "result": result,
            "status": status,
        }
        dot_path = settings.get("dot")
        if dot_graph is not None and dot_path:
            from .cayley import _replacing
            from .dot import export_dot

            # streamed into a temp file, so a failed export leaves no part file
            with _replacing(dot_path, "w") as fh:
                export_dot(dot_graph, fh)
        emit(payload, settings.get("out"))
    except (CosetGeomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if status == STATUS_OK else 2


if __name__ == "__main__":
    sys.exit(main())
