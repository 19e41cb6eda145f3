#!/usr/bin/env python3
"""Survey the built-in family instances at a fixed ball radius.

For each group with its distinguished cyclic subgroup, the survey runs the
CLI's ball, coset-graph, ends, filtered-ends, commensurate and constants
subcommands on one scenario, so one Cayley ball and one coset patch serve
them all.  It reports end counts of the group and of the coset graph, the
commensuration verdict with its stable K values, the trusted maximum coset
degree, and the exact transfer constants when Q is commensurated.  A cell
whose run ran out of radius reads ``inconclusive``.  Balls come from
--cache-dir, else from COSETGEOM_CACHE, as in the CLI.

Example:
    python3 scripts/survey_families.py --radius 9 --json survey.json
"""

import argparse
import json
import sys

from cosetgeom.cli import STATUS_INCONCLUSIVE, Scenario, Settings, build_parser, run

GROUPS = ("bs:1,2", "bs:2,3", "abelian:2", "free:2")
COMMANDS = ("ball", "coset-graph", "ends", "filtered-ends", "commensurate", "constants")


def survey_instance(group, radius, cache_dir):
    argv = ["ball", "--group", group, "--radius", str(radius)]
    if cache_dir:
        argv += ["--cache-dir", cache_dir]
    sc = Scenario(Settings(build_parser().parse_args(argv), {}))
    ball, patch, ends, filtered, commensurate, constants = (
        run(sc, command)[1] for command in COMMANDS
    )
    return {
        "group": sc.spec.describe(),
        "subgroup": "vertex",
        "radius": radius,
        "n_vertices": ball["n_vertices"],
        "n_cosets": patch["n_cosets"],
        "group_ends": ends.get("label", STATUS_INCONCLUSIVE),
        "coset_ends": filtered.get("label", STATUS_INCONCLUSIVE),
        "commensuration": commensurate.get("verdict", STATUS_INCONCLUSIVE),
        "k_profiles": {
            p["element"]: p["k_values"] for p in commensurate.get("profiles", ())
        },
        "max_trusted_degree": patch["max_trusted_degree"],
        "constants": constants,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--radius", type=int, default=9)
    parser.add_argument("--cache-dir", help="reuse cached balls")
    parser.add_argument("--json", help="also dump raw rows to this path")
    args = parser.parse_args(argv)

    rows = []
    for group in GROUPS:
        row = survey_instance(group, args.radius, args.cache_dir)
        rows.append(row)
        constants = row["constants"]
        if "letters" in constants:
            constant_text = f"NotCommensurated ({', '.join(constants['letters'])})"
        elif "f" in constants:
            constant_text = (
                f"F={constants['f']} M={constants['m']} L={constants['l']}"
            )
        else:
            constant_text = STATUS_INCONCLUSIVE
        print(
            f"{row['group']:<10} |B|={row['n_vertices']:<7} "
            f"cosets={row['n_cosets']:<6} ends={row['group_ends']:<15} "
            f"coset-ends={row['coset_ends']:<15} "
            f"{row['commensuration']:<25} {constant_text}"
        )

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
