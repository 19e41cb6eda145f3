"""End-to-end tests for the command-line front end.

Each test drives cli.main with argv lists, reads the JSON report it wrote,
and checks the exit code contract: 0 conclusive, 2 inconclusive, 1 error.
A module-scoped cache directory keeps repeated ball builds cheap.
"""

import builtins
import gc
import hashlib
import json
import os
import stat
import threading

import pytest

from cosetgeom import build_ball, build_coset_patch, export_dot, parse_group_spec
from cosetgeom import cli as cli_module
from cosetgeom import dot as dot_module
from cosetgeom.cayley import Ball, ball_cache_name
from cosetgeom.cli import main, parse_subgroup_spec
from cosetgeom.cosetgraph import CosetPatch


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ballcache")


def run_cli(args, cache_dir, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main([*args, "--cache-dir", str(cache_dir), "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


NOT_COMMENSURATED_FREE2 = {"confidence": "NotCommensurated", "letters": ["x2", "x2^-1"]}


class TestReportsAndExitCodes:
    def test_ball_census_free_group(self, cache_dir, tmp_path):
        code, report = run_cli(
            ["ball", "--group", "free:2", "--radius", "2"],
            cache_dir,
            tmp_path,
        )
        assert code == 0
        assert report["schema"] == "cosetgeom.report.v1"
        assert report["status"] == "ok"
        assert report["result"]["n_vertices"] == 17
        assert report["result"]["sphere_sizes"] == [1, 4, 12]
        assert report["scenario"]["group"] == "free:2"
        assert report["scenario"]["radius"] == 2
        assert "workers" not in report["scenario"]

    def test_commensurate_conclusive_exits_zero(self, cache_dir, tmp_path):
        code, report = run_cli(
            ["commensurate", "--group", "bs:2,3", "--subgroup", "vertex",
             "--radius", "10"],
            cache_dir,
            tmp_path,
        )
        assert code == 0
        assert report["result"]["verdict"] == "CommensuratedEvidence"
        by_element = {
            p["element"]: p["k_values"] for p in report["result"]["profiles"]
        }
        assert set(by_element) == {"x", "x^-1", "t", "t^-1"}
        assert set(by_element["t"]) == {2}
        assert set(by_element["x"]) == {0}

    def test_filtered_ends_growing_exits_zero(self, cache_dir, tmp_path):
        code, report = run_cli(
            ["filtered-ends", "--group", "bs:1,2", "--radius", "9"],
            cache_dir,
            tmp_path,
        )
        assert code == 0
        assert report["result"]["classification"] == "Growing"
        assert report["result"]["graph"] == "patch"

    def test_ends_stable_count_on_abelian(self, cache_dir, tmp_path):
        code, report = run_cli(
            ["ends", "--group", "abelian:1", "--radius", "9"],
            cache_dir,
            tmp_path,
        )
        assert code == 0
        assert report["result"]["label"] == "StableCount(2)"

    def test_constants_stable_family(self, cache_dir, tmp_path):
        code, report = run_cli(
            ["constants", "--group", "bs:1,2", "--radius", "10"],
            cache_dir,
            tmp_path,
        )
        assert code == 0
        result = report["result"]
        assert result["confidence"] == "Stable"
        assert (result["f"], result["m"], result["l"]) == (2, 6, 11)
        assert result["f_per_letter"] == [
            ["x", 1], ["x^-1", 1], ["t", 1], ["t^-1", 2]
        ]
        # each generator w of Q ∩ sQs^-1 beside s^-1 w s, which lies in Q
        assert result["witnesses"] == [
            ["x", [["x", "x"]]],
            ["x^-1", [["x", "x"]]],
            ["t", [["x", "x^2"]]],
            ["t^-1", [["x^2", "x"]]],
        ]
        assert "scan_radii" not in report["scenario"]

    def test_constants_unstable_family_exits_two(self, cache_dir, tmp_path):
        # free:2 has no finite F: T_s is trivial for s = x2 and x2^-1
        code, report = run_cli(
            ["constants", "--group", "free:2", "--radius", "8"],
            cache_dir,
            tmp_path,
        )
        assert code == 2
        assert report["status"] == "inconclusive"
        assert report["result"] == NOT_COMMENSURATED_FREE2

    def test_lift_on_unstable_family_exits_two(self, cache_dir, tmp_path):
        code, report = run_cli(
            ["lift", "--group", "free:2", "--radius", "8", "--path", "x2"],
            cache_dir,
            tmp_path,
        )
        assert code == 2
        assert report["result"] == NOT_COMMENSURATED_FREE2

    @pytest.mark.parametrize(
        "group, radius, f_per_letter, m",
        [
            ("bs:2,3", 11, [["x", 1], ["x^-1", 1], ["t", 2], ["t^-1", 2]], 5),
            ("bs:1,3", 6, [["x", 1], ["x^-1", 1], ["t", 1], ["t^-1", 2]], 9),
            ("bs:2,5", 8, [["x", 1], ["x^-1", 1], ["t", 2], ["t^-1", 3]], 15),
            ("bs:2,5", 9, [["x", 1], ["x^-1", 1], ["t", 2], ["t^-1", 3]], 15),
            (
                "hnn:2,2 1;0 2",
                7,
                [["x1", 1], ["x1^-1", 1], ["x2", 1], ["x2^-1", 1],
                 ["t", 1], ["t^-1", 2]],
                9,
            ),
        ],
    )
    def test_constants_need_no_q_walk_inside_the_ball(
        self, group, radius, f_per_letter, m, cache_dir, tmp_path
    ):
        # each of these exited 1 while F and M were scanned by Q-walks in
        # the ball, which BS distortion pushes outside it
        code, report = run_cli(
            ["constants", "--group", group, "--radius", str(radius)], cache_dir, tmp_path
        )
        assert code == 0
        result = report["result"]
        assert result["confidence"] == "Stable"
        assert result["f_per_letter"] == f_per_letter
        f = max(value for _, value in f_per_letter)
        assert (result["f"], result["m"], result["l"]) == (f, m, 2 * f + m + 1)

    @pytest.mark.parametrize(
        "argv, code, result",
        [
            pytest.param(
                ["filtered-ends", "--group", "bs:1,2", "--radius", "6"],
                2,
                {"reason": "horizon 6 too small for an ends schedule "
                 "(suggest radius >= 8)", "suggest_radius": 8},
                id="filtered-ends bs:1,2 r6",
            ),
            pytest.param(
                ["ends", "--group", "free:2", "--radius", "3"],
                2,
                {"reason": "horizon 3 too small for an ends schedule "
                 "(suggest radius >= 8)", "suggest_radius": 8},
                id="ends free:2 r3",
            ),
            pytest.param(
                ["commensurate", "--group", "bs:2,3", "--radius", "2"],
                2,
                {"reason": "ball radius 2 too small for a profile "
                 "(suggest radius >= 7)", "suggest_radius": 7},
                id="commensurate bs:2,3 r2",
            ),
            pytest.param(
                ["hausdorff", "--group", "free:2", "--radius", "1", "--element", "x2"],
                2,
                {"reason": "ball radius 1 too small for a profile "
                 "(suggest radius >= 7)", "suggest_radius": 7},
                id="hausdorff free:2 r1 x2",
            ),
            pytest.param(
                # profiles start at gQ's nearest vertex, at distance 3; K = 3
                # passes r + K + 1 <= 13 up to radius 9, and radius 10
                # repeats radius 9's values, so it is exact by monotonicity
                ["hausdorff", "--group", "bs:1,2", "--radius", "13",
                 "--element", "t.x.t^-1"],
                0,
                {"k_values": [3] * 8, "verdict": "CommensuratedEvidence"},
                id="hausdorff bs:1,2 r13 t.x.t^-1",
            ),
            pytest.param(
                # M is read off B(2F + 1) whatever the radius
                ["constants", "--group", "bs:2,3", "--radius", "4"],
                0,
                {"f": 2, "m": 5, "l": 10},
                id="constants bs:2,3 r4",
            ),
            pytest.param(
                ["lift", "--group", "bs:1,2", "--radius", "3", "--path", "t.t.x.t^-1"],
                2,
                # the path's last coset t^2.x.t^-1.Q has no vertex in B(3)
                {"reason": "path leaves the patch at step 3 (letter -2) "
                 "(suggest radius >= 4)", "suggest_radius": 4},
                id="lift bs:1,2 r3",
            ),
            pytest.param(
                ["hausdorff", "--group", "bs:2,3", "--radius", "8", "--element", "t",
                 "--radii", "7,8"],
                2,
                {"reason": "largest radius 8 too close to ball radius 8 "
                 "(suggest radius >= 9)", "suggest_radius": 9},
                id="hausdorff bs:2,3 r8 radii 7,8",
            ),
        ],
    )
    def test_radius_shortfall_exit_codes(self, argv, code, result, cache_dir, tmp_path):
        # running out of radius exits 2 with a reason, never 1
        got, report = run_cli(argv, cache_dir, tmp_path)
        assert got == code
        assert report["status"] == ("ok" if code == 0 else "inconclusive")
        assert {key: report["result"][key] for key in result} == result
        # the scenario block survives a handler that raised before writing it
        assert report["scenario"]["radius"] == int(argv[4])

    @pytest.mark.parametrize("group", ["free:1", "abelian:1"])
    @pytest.mark.parametrize("radius", [8, 12])
    @pytest.mark.parametrize("schedule", [[], ["--schedule", "1:3"]], ids=["default", "1:3"])
    def test_ends_on_a_one_coset_patch_suggest_a_larger_radius(
        self, group, radius, schedule, cache_dir, tmp_path
    ):
        # Q = G, so the patch is one coset and its horizon stays 0; the
        # radius to suggest is the ball's own plus the horizon still needed
        argv = ["filtered-ends", "--group", group, "--radius", str(radius), *schedule]
        code, report = run_cli(argv, cache_dir, tmp_path)
        assert code == 2
        assert report["result"]["suggest_radius"] == radius + (4 if schedule else 8)

    def test_commensurate_elements_start_where_their_cosets_do(self, cache_dir, tmp_path):
        # t.x.t^-1.Q lies at distance 3, so the profiles start at radius 3
        argv = ["commensurate", "--group", "bs:1,2", "--radius", "13"]
        code, report = run_cli([*argv, "--elements", "t.x.t^-1"], cache_dir, tmp_path)
        assert code == 0
        assert report["scenario"]["profile_radii"] == list(range(3, 11))
        profiles = report["result"]["profiles"]
        assert [p["element"] for p in profiles] == ["x", "x^-1", "t", "t^-1", "t.x.t^-1"]
        assert profiles[-1]["k_values"] == [3] * 8
        assert report["result"]["verdict"] == "CommensuratedEvidence"
        # the generators meet B(1): without --elements the radii start at 2
        code, report = run_cli(argv, cache_dir, tmp_path)
        assert code == 0
        assert report["scenario"]["profile_radii"] == list(range(2, 11))

    def test_unknown_group_exits_one(self, cache_dir, tmp_path, capsys):
        code, report = run_cli(
            ["ball", "--group", "bogus:3", "--radius", "2"], cache_dir, tmp_path
        )
        assert code == 1
        assert report is None
        assert "error:" in capsys.readouterr().err

    def test_missing_radius_exits_one(self, cache_dir, tmp_path, capsys):
        code, _ = run_cli(["ball", "--group", "free:2"], cache_dir, tmp_path)
        assert code == 1
        assert "radius" in capsys.readouterr().err

    def test_bad_subgroup_syntax_exits_one(self, cache_dir, tmp_path, capsys):
        code, _ = run_cli(
            ["ball", "--group", "free:2", "--radius", "2",
             "--subgroup", "everything"],
            cache_dir,
            tmp_path,
        )
        assert code == 1
        assert "subgroup" in capsys.readouterr().err

    def test_radius_suffix_on_words_exits_one(self, cache_dir, tmp_path, capsys):
        # words subgroups take no @radius: the suffix is part of the last word
        code, report = run_cli(
            ["filtered-ends", "--group", "bs:1,2", "--radius", "8",
             "--subgroup", "words:x@6"],
            cache_dir,
            tmp_path,
        )
        assert code == 1
        assert report is None
        assert "unknown generator 'x@6'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ball", "--group", "free:2", "--radius", "2", "--no-such-flag"],
            ["ball", "--group", "free:2", "--radius", "x"],
            ["ball", "--group", "free:2", "--radius", "2", "--workers", "4"],
            ["constants", "--group", "bs:1,2", "--radius", "8", "--radii", "7,8"],
            ["filtered-ends", "--group", "bs:1,2", "--radius", "8",
             "--trust-margin", "2"],
        ],
        ids=[
            "unknown-flag",
            "non-integer-radius",
            "removed-workers-flag",
            "removed-radii-flag",
            "removed-trust-margin-flag",
        ],
    )
    def test_malformed_command_line_exits_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: cosetgeom")
        assert "error:" in err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["ball", "--help"]])
    def test_help_and_version_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


class TestScenarioResolution:
    def test_config_file_supplies_scenario(self, cache_dir, tmp_path):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(
            "[scenario]\n"
            "group = bs:1,2\n"
            "subgroup = vertex\n"
            "radius = 9\n"
            "\n"
            "[filtered-ends]\n"
            "schedule = 2:6,3:6\n"
        )
        code, report = run_cli(
            ["filtered-ends", "--config", str(cfg)], cache_dir, tmp_path
        )
        assert code == 0
        assert report["scenario"]["group"] == "bs:1,2"
        assert report["scenario"]["schedule"] == [[2, 6], [3, 6]]

    def test_flags_override_config(self, cache_dir, tmp_path):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text("[scenario]\ngroup = bs:1,2\nradius = 9\n")
        code, report = run_cli(
            ["ball", "--config", str(cfg), "--radius", "3"], cache_dir, tmp_path
        )
        assert code == 0
        assert report["scenario"]["radius"] == 3

    def test_config_sets_only_options_the_subcommand_declares(self, cache_dir, tmp_path):
        # export has no --trust-margin, so a config value must not shape its DOT
        cfg = tmp_path / "margin.ini"
        cfg.write_text("[scenario]\ntrust_margin = 3\n")
        scenario = ["--group", "bs:1,2", "--radius", "5"]
        dots = []
        for extra in ([], ["--config", str(cfg)]):
            dot_path = tmp_path / f"patch{len(dots)}.dot"
            code, _ = run_cli(
                ["export", *scenario, "--dot", str(dot_path), *extra], cache_dir, tmp_path
            )
            assert code == 0
            dots.append(dot_path.read_text())
        assert dots[0] == dots[1]
        code, report = run_cli(
            ["coset-graph", *scenario, "--config", str(cfg)], cache_dir, tmp_path
        )
        assert code == 0
        assert report["scenario"]["trust_margin"] == 3

    def test_malformed_config_exits_one(self, cache_dir, tmp_path, capsys):
        cfg = tmp_path / "broken.ini"
        cfg.write_text("group = free:2\n")
        code, _ = run_cli(
            ["ball", "--config", str(cfg), "--radius", "2"], cache_dir, tmp_path
        )
        assert code == 1
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", ["5%", "%(nope)s"], ids=["bad-percent", "missing-reference"]
    )
    def test_percent_in_a_config_value_exits_one(self, value, cache_dir, tmp_path, capsys):
        # configparser interpolates a value when it is read, not when it is parsed
        cfg = tmp_path / "percent.ini"
        cfg.write_text(f"[scenario]\ngroup = free:2\nradius = {value}\n")
        code, report = run_cli(["ball", "--config", str(cfg)], cache_dir, tmp_path)
        captured = capsys.readouterr()
        assert code == 1 and report is None and captured.out == ""
        assert captured.err.startswith("error: config parse error: ")
        assert captured.err.count("\n") == 1

    def test_word_subgroup_round_trip(self, cache_dir, tmp_path):
        code, report = run_cli(
            ["coset-graph", "--group", "free:2", "--radius", "5",
             "--subgroup", "words:x1^2,x2"],
            cache_dir,
            tmp_path,
        )
        assert code == 0
        assert report["scenario"]["subgroup"] == "words:x1^2,x2"


    @pytest.mark.parametrize(
        "command, refused",
        [
            ("hausdorff --element t", True),
            ("commensurate", True),
            ("constants", True),
            ("ladder --prefix x^8 --crossing t", True),
            ("lift --path t.x", True),
            # an empty path looks up no coset before the lift itself
            ("lift --path 1", True),
            ("ball", False),
            ("ends", False),
            ("coset-graph --dump", False),
            ("filtered-ends", False),
            ("rays --graph patch", False),
            ("export --what patch", False),
        ],
    )
    def test_word_subgroup_is_refused_only_where_q_must_be_exact(
        self, command, refused, cache_dir, tmp_path, capsys
    ):
        argv = command.split()
        if argv[0] == "export":
            argv = [*argv, "--dot", str(tmp_path / "patch.dot")]
        code, report = run_cli(
            [*argv, "--group", "bs:1,2", "--radius", "8", "--subgroup", "words:x,t.x.t^-1"],
            cache_dir,
            tmp_path,
        )
        err = capsys.readouterr().err
        if refused:
            assert code == 1 and report is None
            assert "vertex subgroup" in err
        else:
            assert code in (0, 2)
            assert err == ""
            assert report["scenario"]["subgroup"] == "words:x,t.x.t^-1"


class TestDeterminismAndCache:
    def test_cache_hit_reproduces_report(self, cache_dir, tmp_path):
        args = ["ends", "--group", "bs:1,2", "--radius", "8"]
        code1, _ = run_cli(args, cache_dir, tmp_path, "cold.json")
        cached = list(cache_dir.glob("ball-*-r8.ball"))
        assert code1 == 0 and cached
        code2, _ = run_cli(args, cache_dir, tmp_path, "warm.json")
        assert code2 == 0
        assert (tmp_path / "cold.json").read_bytes() == (
            tmp_path / "warm.json"
        ).read_bytes()

    @pytest.mark.parametrize(
        "group, radius", [("bs:1,2", 0), ("bs:1,2", 1), ("bs:1,2", 6), ("abelian:2", 4)]
    )
    def test_warm_cache_honours_vertex_budget(self, tmp_path, capsys, group, radius):
        # a cache hit must fail where a cold build fails, with the same message
        cache = str(tmp_path / "cache")
        args = ["ball", "--group", group, "--radius", str(radius)]
        assert main([*args, "--cache-dir", cache]) == 0
        n = json.loads(capsys.readouterr().out)["result"]["n_vertices"]
        for budget in sorted({n, n - 1, 1}):
            budgeted = [*args, "--max-vertices", str(budget)]
            cold_code = main(budgeted)
            cold = capsys.readouterr()
            warm_code = main([*budgeted, "--cache-dir", cache])
            warm = capsys.readouterr()
            assert (warm_code, warm.out, warm.err) == (cold_code, cold.out, cold.err)
            # a budget of 0 (n - 1 at radius 0) is malformed, not just too small
            assert cold_code == (0 if budget >= n else 1), budget

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("budget", ["-5", "0"])
    def test_budget_below_one_is_malformed(self, tmp_path, capsys, budget, warm):
        # even a radius-0 ball, which never reaches its budget, is refused
        cache = str(tmp_path / "cache")
        args = ["ball", "--group", "free:2", "--radius", "0", "--cache-dir", cache]
        if warm:
            assert main(args) == 0
            capsys.readouterr()
        out = tmp_path / "report.json"
        code = main([*args, "--max-vertices", budget, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert not out.exists() and captured.out == ""
        assert captured.err == "error: max-vertices must be at least 1\n"

    def test_only_the_cli_freezes_its_ball(self, tmp_path, monkeypatch):
        frozen = []
        monkeypatch.setattr(cli_module.gc, "freeze", lambda: frozen.append(1))
        out = tmp_path / "report.json"
        args = ["ball", "--group", "free:2", "--radius", "2", "--out", str(out)]
        assert main(args) == 0
        assert frozen == [1]

    @pytest.mark.parametrize("warm", [False, True], ids=["build", "load"])
    def test_ball_is_frozen_before_the_collector_comes_back(self, tmp_path, monkeypatch, warm):
        # A ball of many times the youngest generation's threshold: were the
        # collector on before gc.freeze, its next allocation would start a
        # collection that scans every vertex.
        cache = str(tmp_path / "cache")
        args = ["ball", "--group", "bs:1,2", "--radius", "12", "--cache-dir", cache]
        if warm:
            assert main([*args, "--out", str(tmp_path / "cold.json")]) == 0
        events, built = [], []
        freeze, fget = gc.freeze, cli_module.Scenario.ball.fget

        def record(phase, info):
            if phase == "start":
                events.append("collect")

        def frozen():
            events.append("freeze")
            freeze()

        def ball(scenario):
            if scenario._ball is not None:
                return fget(scenario)
            events.append("enter")
            result = fget(scenario)
            events.append("exit")
            built.append((result.n_vertices, gc.isenabled()))
            return result

        monkeypatch.setattr(cli_module.gc, "freeze", frozen)
        monkeypatch.setattr(cli_module.Scenario, "ball", property(ball))
        gc.callbacks.append(record)
        try:
            code = main([*args, "--out", str(tmp_path / "report.json")])
        finally:
            gc.callbacks.remove(record)
        assert code == 0 and gc.isenabled()
        # one build or load, with no collection in it, then one freeze
        start = events.index("enter")
        assert events[start : start + 3] == ["enter", "freeze", "exit"], events
        assert events.count("freeze") == 1
        [(n_vertices, enabled)] = built
        assert enabled and n_vertices > 10 * gc.get_threshold()[0]


class TestGeometrySubcommands:
    def test_coset_graph_degree_profile(self, cache_dir, tmp_path):
        code, report = run_cli(
            ["coset-graph", "--group", "bs:1,2", "--radius", "6"],
            cache_dir,
            tmp_path,
        )
        assert code == 0
        assert report["result"]["max_trusted_degree"] == 3
        labels = dict(
            tuple(row) for row in report["result"]["per_label_max_targets"]
        )
        assert labels["t"] == 1
        assert labels["t^-1"] == 2

    def test_hausdorff_exact_window_conclusive(self, cache_dir, tmp_path):
        code, report = run_cli(
            ["hausdorff", "--group", "abelian:2", "--radius", "10",
             "--element", "x2^2", "--radii", "3,4,5,6"],
            cache_dir,
            tmp_path,
        )
        assert code == 0
        assert report["result"]["verdict"] == "CommensuratedEvidence"
        assert report["result"]["k_values"] == [2, 2, 2, 2]

    def test_hausdorff_negative_radius_exits_one(self, cache_dir, tmp_path, capsys):
        code, report = run_cli(
            ["hausdorff", "--group", "bs:1,2", "--radius", "8",
             "--element", "x", "--radii=-1,2,3"],
            cache_dir,
            tmp_path,
        )
        assert code == 1 and report is None
        assert capsys.readouterr().err == "error: profile radius -1 is negative\n"

    def test_lift_projects_back(self, cache_dir, tmp_path):
        code, report = run_cli(
            ["lift", "--group", "bs:1,2", "--radius", "8",
             "--path", "t.t.x.t^-1"],
            cache_dir,
            tmp_path,
        )
        assert code == 0
        result = report["result"]
        assert result["projects_back"] is True
        assert result["lambda_path"]["letters"] == ["t", "t", "t^-1"]
        f_bound = dict(tuple(row) for row in result["f_per_letter"])
        letters = result["lambda_path"]["letters"]
        for name, length in zip(letters, result["block_lengths"]):
            assert length < f_bound[name]

    # in the ball along the word; the walk leaves and comes back; outside
    LIFT_BASES = ["1", "x^4", "t.x.t^-1", "t^-1.x^5", "t^7.t^-7", "t^7"]

    @pytest.mark.parametrize("base", LIFT_BASES)
    def test_lift_base_walk_matches_the_index(self, cache_dir, tmp_path, monkeypatch, base):
        argv = ["lift", "--group", "bs:1,2", "--radius", "6", "--path", "t.x.t^-1.x^-1",
                "--base", base]
        run_cli(argv, cache_dir, tmp_path)  # fills the cache, so both runs load
        walked = run_cli(argv, cache_dir, tmp_path)
        # no slot leads anywhere, so every base is looked up in the index
        monkeypatch.setattr(Ball, "neighbor", lambda self, vid, letter: None)
        assert run_cli(argv, cache_dir, tmp_path) == walked
        assert walked[0] == (2 if base == "t^7" else 0)

    @pytest.mark.parametrize("base", LIFT_BASES[:4])
    def test_lift_base_inside_the_ball_needs_no_index(
        self, cache_dir, tmp_path, monkeypatch, base
    ):
        def refuse(self, a):
            raise AssertionError("the lift base was looked up in the vertex index")

        argv = ["lift", "--group", "bs:1,2", "--radius", "6", "--path", "t.x.t^-1.x^-1",
                "--base", base]
        run_cli(argv, cache_dir, tmp_path)
        monkeypatch.setattr(Ball, "vertex", refuse)
        assert run_cli(argv, cache_dir, tmp_path)[0] == 0

    def test_rays_cover_abelian_ball(self, cache_dir, tmp_path):
        code, report = run_cli(
            ["rays", "--group", "abelian:2", "--radius", "6"],
            cache_dir,
            tmp_path,
        )
        assert code == 0
        result = report["result"]
        assert result["graph"] == "ball"
        assert result["n_stuck"] == 0
        assert result["n_reaching_horizon"] == result["n_vertices"] == 85
        assert result["longest_ray_edges"] == 6

    def test_ladder_on_unstable_family_exits_two(self, cache_dir, tmp_path):
        code, report = run_cli(
            ["ladder", "--group", "free:2", "--radius", "8",
             "--prefix", "x1^2", "--crossing", "x2"],
            cache_dir,
            tmp_path,
        )
        assert code == 2
        assert report["result"] == NOT_COMMENSURATED_FREE2

    def test_ladder_certificate_on_abelian(self, cache_dir, tmp_path):
        code, report = run_cli(
            ["ladder", "--group", "abelian:2", "--radius", "8",
             "--prefix", "x1^3", "--crossing", "x2"],
            cache_dir,
            tmp_path,
        )
        assert code == 0
        result = report["result"]
        assert result["verified"] is True
        assert result["violations"] == []
        assert result["n_loops"] == 3
        assert {loop["word"] for loop in result["loops"]} == {
            "x2.x1.x2^-1.x1^-1"
        }
        assert result["max_loop_length"] <= result["constants"]["l"]


    @pytest.mark.parametrize("radius", [6, 9])
    def test_ladder_prefix_past_the_radius(self, radius, cache_dir, tmp_path):
        # the ladder walks on normal forms, so x^12 need not fit in the ball
        code, report = run_cli(
            ["ladder", "--group", "bs:2,3", "--radius", str(radius),
             "--prefix", "x^12", "--crossing", "t"],
            cache_dir,
            tmp_path,
        )
        assert code == 0
        assert report["result"]["verified"] is True
        assert report["result"]["n_loops"] == 12

    def test_ladder_does_not_depend_on_the_radius(self, cache_dir, tmp_path):
        results = []
        for radius in (6, 7, 8):
            code, report = run_cli(
                ["ladder", "--group", "bs:2,3", "--radius", str(radius),
                 "--prefix", "x^-5", "--crossing", "t"],
                cache_dir,
                tmp_path,
            )
            assert code == 0
            results.append(report["result"])
        assert results[0] == results[1] == results[2]
        assert results[0]["output_word"] == "t.x^-9"
        assert results[0]["verified"] is True

    @pytest.mark.parametrize("command", ["constants", "ladder"])
    def test_constants_read_only_the_ball_of_radius_2f_plus_1(
        self, command, tmp_path
    ):
        args = ["--group", "bs:2,3", "--radius", "13"]
        if command == "ladder":
            args += ["--prefix", "x^12", "--crossing", "t"]
        cache = tmp_path / "cache"
        code, report = run_cli([command, *args], cache, tmp_path)
        assert code == 0
        assert [p.name for p in cache.iterdir()] == [
            ball_cache_name(parse_group_spec("bs:2,3"), 5)
        ]
        # the radius-13 ball has 663,799 vertices; radius 5 has 389
        code, small = run_cli(
            [command, *args, "--max-vertices", "1000"], tmp_path / "cold", tmp_path
        )
        assert code == 0
        assert small["result"] == report["result"]


class TestDotExport:
    def test_export_patch_dot(self, cache_dir, tmp_path):
        dot_path = tmp_path / "patch.dot"
        code, report = run_cli(
            ["export", "--group", "bs:1,2", "--radius", "5",
             "--what", "patch", "--dot", str(dot_path)],
            cache_dir,
            tmp_path,
        )
        assert code == 0
        text = dot_path.read_text()
        assert text.startswith("digraph coset_patch {")
        assert text.rstrip().endswith("}")
        assert text.count(", dist=") == report["result"]["nodes"]
        assert text.count(" -> ") == report["result"]["edges"]
        assert 'c0 [label="1", dist=0, trusted=true];' in text

    def test_export_ball_dot(self, cache_dir, tmp_path):
        dot_path = tmp_path / "ball.dot"
        code, report = run_cli(
            ["export", "--group", "free:2", "--radius", "2",
             "--what", "ball", "--dot", str(dot_path)],
            cache_dir,
            tmp_path,
        )
        assert code == 0
        text = dot_path.read_text()
        assert text.startswith("digraph cayley_ball {")
        assert report["result"]["nodes"] == 17
        assert text.count(", dist=") == 17
        assert text.count(" -> ") == report["result"]["edges"]

    def test_export_without_dot_path_exits_one(self, tmp_path, capsys):
        # the missing option is caught before any ball is built or cached
        fresh_cache = tmp_path / "fresh_cache"
        fresh_cache.mkdir()
        code, report = run_cli(
            ["export", "--group", "free:2", "--radius", "2"], fresh_cache, tmp_path
        )
        assert code == 1
        assert report is None
        assert "dot" in capsys.readouterr().err
        assert list(fresh_cache.iterdir()) == []

    def test_failed_dot_write_emits_no_report(self, cache_dir, tmp_path, capsys):
        dot_path = tmp_path / "missing" / "x.dot"
        code = main(
            ["ball", "--group", "free:2", "--radius", "1",
             "--dot", str(dot_path), "--cache-dir", str(cache_dir)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error:" in captured.err
        # the message names the DOT file, not the temp file beside it
        assert f"No such file or directory: '{dot_path}'" in captured.err
        assert not dot_path.exists()

    @pytest.mark.parametrize(
        "group,radius,subgroup,digest",
        [
            ("free:2", 3, None,
             "dbd0a5714498a2a2cfdb559e275e6e97077b180f983dd1fdf2aca19e54b960ce"),
            ("free:2", 3, "vertex",
             "3ff8bfdb61c4c8b455e90047ae1ddb257ee13cee5827940443bf2c7296da63e4"),
            ("bs:1,2", 5, None,
             "b81656f7f32a7c04706a7333a9785c607357c50593405cdfbc38507401450302"),
            ("bs:1,2", 5, "vertex",
             "1b214b24a6faa57f9c6f9ed98df2db955842b272fd3c72ada72aa91aa3d0aee3"),
            ("bs:1,2", 5, "words:x,t.x.t^-1",
             "1d03f617da911707e747b6f39b47efbf796dff974b8370768a12c7b30d9fa432"),
            ("hnn:2,2 1;0 2", 3, None,
             "e8bbf2ab22d532526853bbd1212b09ac09d78467d259c46f94dfcb08b327ea14"),
            ("hnn:2,2 1;0 2", 3, "vertex",
             "7e39e1d2a363c45ef8800999573d8be2ca997b730085a6f1b39f67e837396c24"),
        ],
    )
    def test_dot_bytes_are_pinned(self, group, radius, subgroup, digest):
        # Golden digests of export_dot output: a ball when subgroup is None,
        # else the coset patch of that subgroup.
        spec = parse_group_spec(group)
        graph = build_ball(spec, radius)
        if subgroup is not None:
            graph = build_coset_patch(graph, words=parse_subgroup_spec(spec, subgroup))
        assert hashlib.sha256(export_dot(graph).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, graph",
        [
            (["export", "--what", "ball"], "ball"),
            (["export", "--what", "patch"], "patch"),
            (["ball"], "ball"),
            (["coset-graph"], "patch"),
        ],
        ids=["export-ball", "export-patch", "ball", "coset-graph"],
    )
    def test_streamed_file_equals_export_dot(self, cache_dir, tmp_path, argv, graph):
        dot_path = tmp_path / "out.dot"
        code, _ = run_cli(
            [*argv, "--group", "bs:1,2", "--radius", "5", "--dot", str(dot_path)],
            cache_dir,
            tmp_path,
        )
        assert code == 0
        ball = build_ball(parse_group_spec("bs:1,2"), 5)
        if graph == "patch":
            ball = build_coset_patch(ball)
        assert dot_path.read_text() == export_dot(ball)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.dot", "report.json"]

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_export_leaves_the_earlier_file_or_none(
        self, cache_dir, tmp_path, monkeypatch, error
    ):
        dot_path = tmp_path / "patch.dot"
        argv = ["export", "--group", "bs:1,2", "--radius", "5", "--what", "patch",
                "--dot", str(dot_path)]
        lines = dot_module.dot_lines

        def fail_mid_stream(graph):
            for i, line in enumerate(lines(graph)):
                if i == 40:
                    raise error("the export failed")
                yield line

        monkeypatch.setattr(dot_module, "dot_lines", fail_mid_stream)
        for earlier in (None, "digraph earlier {\n}\n"):
            if earlier is not None:
                dot_path.write_text(earlier)
            if error is OSError:
                code, report = run_cli(argv, cache_dir, tmp_path)
                assert (code, report) == (1, None)
            else:
                with pytest.raises(KeyboardInterrupt):
                    run_cli(argv, cache_dir, tmp_path)
            # no temp file is left beside it, and the earlier file is whole
            names = [p.name for p in tmp_path.iterdir()]
            assert names == ([] if earlier is None else ["patch.dot"])
            if earlier is not None:
                assert dot_path.read_text() == earlier

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_report_write_leaves_the_earlier_report_or_none(
        self, cache_dir, tmp_path, monkeypatch, error
    ):
        report_path = tmp_path / "report.json"
        argv = ["ball", "--group", "bs:1,2", "--radius", "5"]
        run_cli(argv, cache_dir, tmp_path)  # warm, so the report is the one file written
        report_path.unlink()
        real_open = builtins.open

        class HalfWritten:
            """A file opened for text writing whose write puts down half the
            text, then fails."""

            def __init__(self, *args):
                self.fh = real_open(*args)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise error("the write failed")

        def failing_open(file, mode="r", *args, **kwargs):
            if mode == "w":
                return HalfWritten(file, mode)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", failing_open)
        for earlier in (None, '{"earlier": true}\n'):
            if earlier is not None:
                report_path.write_text(earlier)
            if error is OSError:
                code, report = run_cli(argv, cache_dir, tmp_path)
                assert code == 1
                assert report == (None if earlier is None else {"earlier": True})
            else:
                with pytest.raises(KeyboardInterrupt):
                    run_cli(argv, cache_dir, tmp_path)
            # no temp file is left beside it, and the earlier report is whole
            names = [p.name for p in tmp_path.iterdir()]
            assert names == ([] if earlier is None else ["report.json"])
            if earlier is not None:
                assert report_path.read_text() == earlier

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("flag", ["--out", "--dot"])
    def test_a_pipe_is_written_through_not_replaced(self, cache_dir, tmp_path, flag):
        # as --out /dev/stdout would be: a rename would put a file in its place
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
        reader.start()
        dot_path = pipe if flag == "--dot" else tmp_path / "ball.dot"
        argv = ["export", "--group", "free:2", "--radius", "2", "--what", "ball",
                "--cache-dir", str(cache_dir), "--dot", str(dot_path)]
        if flag == "--out":
            argv += ["--out", str(pipe)]
        assert main(argv) == 0
        reader.join(timeout=30)
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        if flag == "--out":
            assert json.loads(got[0])["result"]["nodes"] == 17
        else:
            assert got[0] == export_dot(build_ball(parse_group_spec("free:2"), 2))

    @pytest.mark.parametrize("flag", ["--out", "--dot"])
    def test_a_symlink_keeps_pointing_at_the_new_file(self, cache_dir, tmp_path, flag):
        (tmp_path / "target").write_text("earlier\n")
        (tmp_path / "link").symlink_to("target")
        argv = ["export", "--group", "free:2", "--radius", "2", "--what", "ball",
                "--cache-dir", str(cache_dir), flag, str(tmp_path / "link")]
        if flag == "--out":
            argv += ["--dot", str(tmp_path / "ball.dot")]
        assert main(argv) == 0
        assert os.readlink(tmp_path / "link") == "target"
        text = (tmp_path / "target").read_text()
        if flag == "--out":
            assert json.loads(text)["result"]["nodes"] == 17
        else:
            assert text == export_dot(build_ball(parse_group_spec("free:2"), 2))

    def test_ball_subcommand_writes_dot_too(self, cache_dir, tmp_path):
        dot_path = tmp_path / "ball2.dot"
        code, _ = run_cli(
            ["ball", "--group", "abelian:1", "--radius", "3",
             "--dot", str(dot_path)],
            cache_dir,
            tmp_path,
        )
        assert code == 0
        assert dot_path.read_text().startswith("digraph cayley_ball {")


WARM_ANALYSES = [
    ["hausdorff", "--group", "bs:2,3", "--radius", "7", "--element", "t"],
    ["commensurate", "--group", "bs:2,3", "--radius", "7"],
    ["rays", "--group", "bs:2,3", "--radius", "7", "--graph", "patch"],
    ["filtered-ends", "--group", "bs:1,2", "--radius", "8"],
]


@pytest.mark.parametrize("argv", WARM_ANALYSES, ids=lambda argv: argv[0])
def test_warm_analysis_never_builds_the_vertex_index(argv, tmp_path, monkeypatch):
    """A loaded ball builds its vertex index on first lookup, and these
    analyses look no element up, so a warm run never builds it."""
    cache = tmp_path / "cache"
    cold = run_cli(argv, cache, tmp_path, "cold.json")

    def refuse(ball):
        raise AssertionError("a warm run built the vertex index")

    monkeypatch.setattr(Ball, "index", property(refuse))
    assert run_cli(argv, cache, tmp_path, "warm.json") == cold
    assert cold[0] == 0


@pytest.mark.parametrize("argv", WARM_ANALYSES, ids=lambda argv: argv[0])
def test_warm_analysis_builds_no_coset_keys_or_lettered_edges(argv, tmp_path, monkeypatch):
    """Profiles, ends counts and rays read neighbour lists, member lists and
    the label index, never the keys or the lettered edges of a patch."""
    cache = tmp_path / "cache"
    cold = run_cli(argv, cache, tmp_path, "cold.json")

    def refuse(patch):
        raise AssertionError("a patch analysis built its keys or lettered edges")

    monkeypatch.setattr(CosetPatch, "keys", property(refuse))
    monkeypatch.setattr(CosetPatch, "_edges", property(refuse))
    assert run_cli(argv, cache, tmp_path, "warm.json") == cold
    assert cold[0] == 0


# (command, group, radius, further options, exit code, report SHA-256)
PINNED_REPORTS = [
    ("commensurate", "bs:2,3", 8, "", 0,
     "b3fc3714581da562f7ee1e4b268c4c620fdc1f4f12a6a2c5b4a73b13946ca97b"),
    ("hausdorff", "bs:2,3", 8, "--element t", 0,
     "c7f87188b74154cc356fce6a5a2754a2696a6b5dae12c557e74491b5fcf33c91"),
    ("filtered-ends", "bs:2,3", 8, "", 0,
     "480d46c70f36f25faa206a94c4310445da9cbce82b9afd267c8a76ecee79aa6e"),
    ("rays", "bs:2,3", 7, "--graph patch", 0,
     "67f13259128e13e78ce35409820ed7b54960861854e6b819a1687d29c6821efc"),
    ("coset-graph", "bs:2,3", 5, "--dump", 0,
     "c7561e8d6490a7ac90a8fe3e9fcf3de3b2896081bdb7bc79535de8cc2066b6e9"),
    ("lift", "bs:2,3", 6, "--path t.x.t^-1.x^-1 --base x", 0,
     "0c44dbd8b5f6d0729b0400f8b8818acaffda8963a818acc5489b4a72e089df26"),
    ("commensurate", "bs:1,2", 9, "", 0,
     "5eb61e2aad1f6184a2dcad382707292be6ffb9f74d9884a308086b58d6056c61"),
    ("hausdorff", "bs:1,2", 9, "--element t", 0,
     "2f0f3b62b1e250e103343dd15068aa918fe56b9402ea170f85c473c40da63716"),
    ("filtered-ends", "bs:1,2", 9, "", 0,
     "6a75a9a22f1cc9be710557a5c5c071448b4fbfc4187b7d0ccfa12fd632052d22"),
    ("rays", "bs:1,2", 8, "--graph patch", 0,
     "955214af642f37d95dfe3dcd5122bdfaed1517409e35056ffa8858053ffb71da"),
    ("coset-graph", "bs:1,2", 6, "--dump", 0,
     "a174142c522fda50d0fc055bdc8671a443160e2841ea51239548665122334ab3"),
    ("lift", "bs:1,2", 7, "--path t.x.t^-1.x^-1 --base x", 0,
     "a5f9597a5b3b590dc58433d54dc8cb08d9d03e2d387c9671e4af8d2af1bee31d"),
    ("commensurate", "hnn:2,2 1;0 2", 7, "", 0,
     "3c4705a3950a9dc879549a015698879e3c8a438638f331095e354f66e36c1818"),
    ("hausdorff", "hnn:2,2 1;0 2", 7, "--element t", 0,
     "3e4225c3b04a9ad9aeac8461d33e8fc533fb4a5c41d37608ec55bc48019ee221"),
    ("filtered-ends", "hnn:2,2 1;0 2", 8, "", 0,
     "322e7bbc233562b99e734298374474b66319694832b578d701e85bbf5d999f77"),
    ("rays", "hnn:2,2 1;0 2", 6, "--graph patch", 0,
     "6cdf300754913f34073b033370578a26e73b6580242784cecc6f5e17e50737a4"),
    ("coset-graph", "hnn:2,2 1;0 2", 4, "--dump", 0,
     "96b0edd8a9ead9681f43e703d1a05a5c75dedd5cc20dfe516e44c20074c0391a"),
    ("lift", "hnn:2,2 1;0 2", 5, "--path t.x1.t^-1.x1^-1 --base x1", 0,
     "79e5976ae679f946187886b9cc4baa17966277126f13e276aad496a0be22019d"),
    ("commensurate", "free:2", 7, "", 0,
     "f6d0bf0a4479ac7adb29cf977e690eaafd45935a776004cbc5795437a4ba2bab"),
    ("hausdorff", "free:2", 7, "--element x2", 0,
     "01dbff66a72fddc8e307621d814312eb24096b0dce7fe13bcf964524fb2f3089"),
    ("filtered-ends", "free:2", 8, "", 0,
     "bb9edab902ecbf94f32848171a4b2767ab8ae828a3dc80b49c680f58014950b4"),
    ("rays", "free:2", 6, "--graph patch", 0,
     "0e494bc8f53f8cf979de265ee3bcd947c90fa745eb3a42147e87dffd1fe0b8db"),
    ("coset-graph", "free:2", 4, "--dump", 0,
     "420d9ac03032207e20e18aaffdf94b84e2acaa6b2abfddbc4bcd25bdf44eb647"),
    ("lift", "free:2", 5, "--path x2.x1.x2^-1.x1^-1 --base x1", 2,
     "5e75e6e70a83fe85fc491d80e833bf977604da2bb90935e48dfeab30bddf087b"),
    ("coset-graph", "bs:1,2", 5, "--dump --subgroup words:x,t.x.t^-1", 0,
     "fa6bd6dc3f48fcb5e42250e171b4a68b0421ea6ddab163857e32c9eb447b9131"),
    ("filtered-ends", "bs:1,2", 8, "--subgroup words:x,t.x.t^-1", 0,
     "de4a5185cce91c091929b6799ba5d2696f9e0073a9254f16a617190de357cda5"),
]


@pytest.mark.parametrize(
    "command,group,radius,extra,code,digest",
    PINNED_REPORTS,
    ids=[f"{row[0]} {row[1]} r{row[2]} {row[3]}".rstrip() for row in PINNED_REPORTS],
)
def test_report_bytes_are_pinned(command, group, radius, extra, code, digest, cache_dir, tmp_path):
    """Golden SHA-256 digests of whole reports on small balls: the patch
    analyses, the coset-graph dump and lifts, in vertex and words mode."""
    argv = [command, "--group", group, "--radius", str(radius), *extra.split()]
    out = tmp_path / "report.json"
    assert main([*argv, "--cache-dir", str(cache_dir), "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Each group's largest radius whose ball has about 5,000 vertices or fewer.
SWEEP_RADII = {"free:2": 7, "abelian:2": 10, "bs:1,2": 10, "bs:2,3": 7, "hnn:2,2 1;0 2": 6}


@pytest.mark.parametrize("group", list(SWEEP_RADII))
def test_every_well_formed_run_exits_zero_or_two(group, cache_dir, tmp_path, capsys):
    """The exit-code contract on every subcommand at every radius from 0 up:
    a well-formed scenario is conclusive or inconclusive, never an error."""
    if group.startswith("bs:"):
        q, k = "x", "t"
    else:
        q, k = ("x1", "t") if group.startswith("hnn:") else ("x1", "x2")
    extras = {
        "ball": [],
        "coset-graph": ["--dump"],
        "hausdorff": ["--element", k],
        "commensurate": [],
        "ends": [],
        "filtered-ends": [],
        "constants": [],
        "lift": ["--path", f"{k}.{q}.{k}^-1", "--base", f"{q}^2"],
        "rays": ["--graph", "patch"],
        "ladder": ["--prefix", f"{q}^3", "--crossing", k],
        "export": ["--what", "patch", "--dot", str(tmp_path / "patch.dot")],
    }
    assert set(extras) == set(cli_module.HANDLERS)
    codes = {}
    for radius in range(SWEEP_RADII[group] + 1):
        for command, extra in extras.items():
            argv = [command, "--group", group, "--radius", str(radius), *extra]
            code, report = run_cli(argv, cache_dir, tmp_path)
            codes[command, radius] = code
            if code == 2:
                assert report["status"] == "inconclusive"
                suggest = report["result"].get("suggest_radius")
                assert suggest is None or suggest > radius, (command, radius)
    assert {key: code for key, code in codes.items() if code not in (0, 2)} == {}
    assert capsys.readouterr().err == ""
