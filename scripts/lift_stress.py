#!/usr/bin/env python3
"""Stress the approximate path lifter with random coset-graph walks.

Draws random walks in the coset graph from the base coset, lifts each one,
and tallies three outcomes: lifts that project back exactly with all
in-subgroup blocks below the F bound, honest insufficient-radius refusals,
and violations (there should never be any).  Use it to pick the smallest
ball radius at which a family instance lifts reliably.  The ball, patch and
constants come from the CLI's scenario, so balls come from --cache-dir,
else from COSETGEOM_CACHE.

Example:
    python3 scripts/lift_stress.py --group bs:2,3 --radius 13 --paths 1000
"""

import argparse
import random
import sys

from cosetgeom import (
    InsufficientRadiusError,
    LambdaPath,
    PathInBall,
    approximate_lift,
    project_path,
)
from cosetgeom.cli import Scenario, Settings, build_parser


def random_walk(patch, rng, max_len):
    length = rng.randint(0, max_len)
    cosets, letters = [0], []
    for _ in range(length):
        letter, target = rng.choice(list(patch.edges(cosets[-1])))
        letters.append(letter)
        cosets.append(target)
    return LambdaPath(tuple(cosets), tuple(letters))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--group", default="bs:2,3")
    parser.add_argument("--radius", type=int, default=13)
    parser.add_argument("--paths", type=int, default=1000)
    parser.add_argument("--max-len", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--cache-dir", help="reuse cached balls")
    args = parser.parse_args(argv)

    argv = ["lift", "--group", args.group, "--radius", str(args.radius)]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    sc = Scenario(Settings(build_parser().parse_args(argv), {}))
    ball, patch, constants = sc.ball, sc.patch, sc.constants()
    print(
        f"{sc.spec.describe()} radius {args.radius}: |B|={ball.n_vertices}, "
        f"{patch.n_cosets} cosets, F={constants.f} M={constants.m} "
        f"L={constants.l}"
    )

    rng = random.Random(args.seed)
    lifted = refused = violations = 0
    block_lengths = {}
    for _ in range(args.paths):
        lpath = random_walk(patch, rng, args.max_len)
        try:
            lift = approximate_lift(patch, lpath, 0, constants)
        except InsufficientRadiusError:
            refused += 1
            continue
        if project_path(patch, PathInBall(0, lift.word)) != lpath:
            violations += 1
        for block, letter in zip(lift.blocks, lpath.letters):
            if len(block) >= constants.f_for(letter):
                violations += 1
            block_lengths[len(block)] = block_lengths.get(len(block), 0) + 1
        lifted += 1

    print(
        f"paths={args.paths} lifted={lifted} refused={refused} "
        f"violations={violations}"
    )
    print(f"block length histogram: {dict(sorted(block_lengths.items()))}")
    return 0 if violations == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
