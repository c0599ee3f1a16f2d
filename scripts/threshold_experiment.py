#!/usr/bin/env python3
"""Empirical sharpness of the cup/cap threshold on random sets.

At size binomial(m+n-4, n-2) + 1 every general-position set must contain an
m-cup or an n-cap; one point below that, the generated witness sets contain
neither.  This script measures how often *random* sets of the sub-threshold
size still contain a structure, i.e. how special the extremal sets are.

Usage: python scripts/threshold_experiment.py [--m 5] [--n 5] [--trials 200]
"""

import argparse
import math
import random

from cupcap import PointSet, build_free_set, find_structure, max_collinear


def random_general_position(rng: random.Random, n: int,
                            span: int = 1 << 20) -> PointSet:
    """Seeded random set with distinct x-coordinates and no three members
    collinear: the set is drawn again until ``max_collinear`` finds none."""
    while True:
        xs = rng.sample(range(span), n)
        ps = PointSet.of([(x, rng.randrange(span)) for x in xs])
        if len(max_collinear(ps)) < 3:
            return ps


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--m", type=int, default=5)
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    threshold = math.comb(args.m + args.n - 4, args.n - 2) + 1
    rng = random.Random(args.seed)

    hits_at = 0
    for _ in range(args.trials):
        ps = random_general_position(rng, threshold)
        if find_structure(ps, 3, args.m, args.n) is not None:
            hits_at += 1
    print(f"at the threshold ({threshold} points): "
          f"{hits_at}/{args.trials} sets contain an {args.m}-cup or "
          f"{args.n}-cap (must be all)")

    hits_below = 0
    for _ in range(args.trials):
        ps = random_general_position(rng, threshold - 1)
        if find_structure(ps, 3, args.m, args.n) is not None:
            hits_below += 1
    print(f"one below ({threshold - 1} points): "
          f"{hits_below}/{args.trials} random sets still contain one")

    extremal = build_free_set(3, args.m, args.n)
    found = find_structure(extremal, 3, args.m, args.n)
    print(f"generated extremal set of {len(extremal)} points: "
          f"{'no structure' if found is None else 'structure found (bug!)'}")


if __name__ == "__main__":
    main()
