"""Measure location-estimate error as the observation fraction grows.

Trains greedy relation models on one synthetic city, generates consistent
scenarios around hidden points, and prints the mean fused-estimate error
for each subsampling fraction.
"""

import argparse

import numpy as np

from geotri.cli import _seed
from geotri.fuse import FUSION_MODES, fuse
from geotri.synth import consistent_scenario, train_city


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-per-label", type=int, default=500)
    parser.add_argument("--observations", type=int, default=40)
    parser.add_argument("--scenarios", type=int, default=20)
    parser.add_argument("--fractions", default="0.1,0.5,1.0")
    parser.add_argument("--fusion", choices=FUSION_MODES, default=FUSION_MODES[0])
    parser.add_argument("--seed", type=int, default=None, help="default: GEOTRI_SEED, else 0")
    args = parser.parse_args()
    try:
        args.seed = _seed(args.seed)
    except ValueError as exc:
        parser.exit(1, f"{exc}\n")
    return args


def main() -> None:
    args = parse_args()
    fractions = [float(f) for f in args.fractions.split(",")]
    _, greedy = train_city(args.n_per_label, args.seed)
    errors = {fraction: [] for fraction in fractions}
    for k in range(args.scenarios):
        scenario = consistent_scenario(args.observations, seed=2000 + args.seed + k)
        for fraction in fractions:
            estimate = fuse(
                scenario, greedy, fraction=fraction, seed=k, fusion=args.fusion
            )
            errors[fraction].append(estimate.error_km)
    print(
        f"scenarios={args.scenarios} observations={args.observations} "
        f"fusion={args.fusion}"
    )
    print("fraction  mean_km   min_km    max_km")
    for fraction in fractions:
        values = np.asarray(errors[fraction])
        print(
            f"{fraction:<10.2f}{values.mean():<10.3f}"
            f"{values.min():<10.3f}{values.max():.3f}"
        )


if __name__ == "__main__":
    main()
