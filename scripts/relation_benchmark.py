"""Compare baseline and greedy relation models on a synthetic city.

Trains both model families per seed, scores random points over the city
grid, and prints mean top-K and qualitative accuracy for each family.
"""

import argparse

import numpy as np

from geotri.cli import _seed
from geotri.mixture import TrainingConfig
from geotri.predict import prediction_trial, qualitative_accuracy
from geotri.synth import CITY_BBOX, train_city


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-per-label", type=int, default=500)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--points", type=int, default=200)
    parser.add_argument("--grid-dim", type=int, default=15)
    parser.add_argument("--max-components", type=int, default=TrainingConfig.max_components)
    parser.add_argument("--topk", default="1,5,10,20")
    parser.add_argument("--seed", type=int, default=None, help="default: GEOTRI_SEED, else 0")
    args = parser.parse_args()
    try:
        args.seed = _seed(args.seed)
    except ValueError as exc:
        parser.exit(1, f"{exc}\n")
    return args


def main() -> None:
    args = parse_args()
    ks = [int(k) for k in args.topk.split(",")]
    accuracy = {name: {k: [] for k in ks} for name in ("baseline", "greedy")}
    qualitative = {"baseline": [], "greedy": []}
    for offset in range(args.seeds):
        seed = args.seed + offset
        baseline, greedy = train_city(args.n_per_label, seed, args.max_components)
        for name, models in [("baseline", baseline), ("greedy", greedy)]:
            trial = prediction_trial(models, CITY_BBOX, args.grid_dim, args.points, seed=1000 + seed)
            for k in ks:
                accuracy[name][k].append(trial.accuracy(k))
            qualitative[name].append(qualitative_accuracy(trial))
    print(f"seeds={args.seeds} points={args.points} grid_dim={args.grid_dim}")
    header = "model     " + "".join(f"top-{k:<6}" for k in ks) + "qualitative"
    print(header)
    for name in ("baseline", "greedy"):
        cells = "".join(f"{np.mean(accuracy[name][k]):<10.4f}" for k in ks)
        print(f"{name:<10}{cells}{np.mean(qualitative[name]):.4f}")


if __name__ == "__main__":
    main()
