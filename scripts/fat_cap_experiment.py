#!/usr/bin/env python3
"""Fat-cap occupancy statistics over random clouds.

For each seed, draw a uniform integer cloud, search for the 4-cup/4-cap
whose chain regions are best populated, and check the transversal property
by sampling.

Usage: python scripts/fat_cap_experiment.py [--points 2000] [--seeds 10]
                                            [--k 4] [--budget 60]
"""

import argparse
import math
import random

from cupcap import (PointSet, check_selection_tuples, find_fat_cap,
                    populate_support)


def random_cloud(seed: int, n: int, span: int = 1 << 20) -> PointSet:
    rng = random.Random(seed)
    pts, xs = [], set()
    while len(pts) < n:
        x, y = rng.randrange(span), rng.randrange(span)
        if x in xs:
            continue
        xs.add(x)
        pts.append((x, y))
    return PointSet.of(pts)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--points", type=int, default=2000)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--budget", type=int, default=60)
    ap.add_argument("--sample-budget", type=int, default=10_000)
    args = ap.parse_args()

    print(f"{'seed':>5} {'min_occ':>8} {'occupancies':>24} "
          f"{'tuples':>10} {'mode':>10} {'violations':>10}")
    worst = None
    for seed in range(args.seeds):
        ps = random_cloud(seed, args.points)
        cap, occ = find_fat_cap(ps, args.k, seed=seed, budget=args.budget)
        chain_regions = populate_support(ps, cap).members[:args.k - 1]
        counts = [len(m) for m in chain_regions]
        rep = check_selection_tuples(chain_regions,
                                     sample_budget=args.sample_budget,
                                     seed=seed)
        total = math.prod(counts)
        print(f"{seed:>5} {occ:>8} {str(list(counts)):>24} {total:>10} "
              f"{rep.mode:>10} {rep.violations:>10}")
        worst = occ if worst is None else min(worst, occ)
    print(f"worst min-occupancy over {args.seeds} seeds: {worst}")


if __name__ == "__main__":
    main()
