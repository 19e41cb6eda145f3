#!/usr/bin/env python3
"""Survey the built-in family instances at a fixed ball radius.

For each group with its distinguished cyclic subgroup, the survey builds
one Cayley ball and reports: end counts of the group and of the coset
graph, the commensuration verdict with its stable K values, the trusted
maximum coset degree, and the exact transfer constants when Q is
commensurated.

Example:
    python3 scripts/survey_families.py --radius 9 --json survey.json
"""

import argparse
import gc
import json
import sys

from cosetgeom import (
    NotCommensuratedError,
    baumslag_solitar,
    build_coset_patch,
    cached_ball,
    commensuration_verdict,
    default_radii,
    default_test_elements,
    degree_profile,
    ends_report,
    free_abelian_group,
    free_group,
    hausdorff_profile,
    lift_constants,
    render_word,
    vertex_subgroup,
)

INSTANCES = (
    baumslag_solitar(1, 2),
    baumslag_solitar(2, 3),
    free_abelian_group(2),
    free_group(2),
)


def survey_instance(spec, radius, cache_dir):
    q = vertex_subgroup()
    # Reference counting frees the ball once its row is done, so no
    # collection need scan it: it is frozen before the collector comes back.
    gc.disable()
    ball = cached_ball(spec, radius, cache_dir)
    gc.freeze()
    gc.enable()
    patch = build_coset_patch(q, ball)

    radii = default_radii(ball.radius)
    profiles = [
        hausdorff_profile(patch, g, radii)
        for _, g in default_test_elements(spec)
    ]
    verdict = commensuration_verdict(profiles)

    try:
        constants = lift_constants(q, ball)
        constants_row = {
            "confidence": "Stable",
            "f_per_letter": [
                [render_word(spec, (letter,)), value]
                for letter, value in constants.f_per_letter
            ],
            "f": constants.f,
            "m": constants.m,
            "l": constants.l,
        }
    except NotCommensuratedError as exc:
        constants_row = {"confidence": "NotCommensurated", "letters": list(exc.letters)}

    return {
        "group": spec.describe(),
        "subgroup": "vertex",
        "radius": radius,
        "n_vertices": ball.n_vertices,
        "n_cosets": patch.n_cosets,
        "group_ends": ends_report(ball).label(),
        "coset_ends": ends_report(patch).label(),
        "commensuration": verdict.verdict,
        "k_profiles": {
            p.g_text: list(p.k_values()) for p in verdict.profiles
        },
        "max_trusted_degree": degree_profile(patch).max_degree,
        "constants": constants_row,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--radius", type=int, default=9)
    parser.add_argument("--cache-dir", help="reuse cached balls")
    parser.add_argument("--json", help="also dump raw rows to this path")
    args = parser.parse_args(argv)

    rows = []
    for spec in INSTANCES:
        row = survey_instance(spec, args.radius, args.cache_dir)
        rows.append(row)
        constants = row["constants"]
        if constants["confidence"] == "NotCommensurated":
            constant_text = f"NotCommensurated ({', '.join(constants['letters'])})"
        else:
            constant_text = (
                f"F={constants['f']} M={constants['m']} L={constants['l']}"
            )
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
