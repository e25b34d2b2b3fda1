"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE n: PASS`` / ``FAIL`` line directly to the
terminal (bypassing capture) before asserting, so a run leaves a one-line
verdict per criterion.
"""

import functools
import math

import numpy as np
import pytest

from geotri.cli import run
from geotri.extract import extract_triplets
from geotri.fuse import fuse
from geotri.mixture import (
    GaussianComponent,
    GmmModel,
    TrainingConfig,
    em_fit,
    greedy_train,
)
from geotri.predict import (
    make_grid,
    prediction_trial,
    qualitative_accuracy,
    score_point,
)
from geotri.synth import CITY_BBOX, consistent_scenario, train_city

from conftest import UniformDensityModel, em_steps

K_VALUES = (1, 5, 10, 20)


def report(capfd, number: int, ok: bool) -> None:
    with capfd.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}")


@functools.lru_cache(maxsize=None)
def city(seed: int):
    """Baseline and greedy model maps for one 2000-triplet synthetic city."""
    return train_city(500, seed)


def pair_data(n_per_mode: int, sigma: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lo = rng.normal([5.0, 90.0], sigma, size=(n_per_mode, 2))
    hi = rng.normal([105.0, 90.0], sigma, size=(n_per_mode, 2))
    return np.vstack([lo, hi])


def single_data(n: int, sigma: float, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).normal([10.0, 45.0], sigma, size=(n, 2))


def test_criterion_1_grid_arithmetic(capfd):
    grid = make_grid((40.0, 116.0, 40.18, 116.235), 15)
    ok = grid.vertex_count == 225 and grid.region_count == 196
    report(capfd, 1, ok)
    assert ok


def test_criterion_2_extraction_fidelity(corpus, gazetteer, patterns, gold_triplets, capfd):
    extracted = extract_triplets(corpus, gazetteer, patterns)
    found = {(t.subject.name, t.relation, t.object.name) for t in extracted}
    true_positives = len(found & gold_triplets)
    precision = true_positives / len(found)
    recall = true_positives / len(gold_triplets)
    lead = extract_triplets(["New York is near Boston."], gazetteer, patterns)
    lead_ok = [(t.subject.name, t.relation, t.object.name) for t in lead] == [
        ("New York", "near", "Boston")
    ]
    ok = precision >= 0.9 and recall >= 0.8 and lead_ok
    report(capfd, 2, ok)
    assert precision >= 0.9, f"precision {precision}"
    assert recall >= 0.8, f"recall {recall}"
    assert lead_ok


def test_criterion_3_em_correctness(capfd):
    x = np.random.default_rng(99).multivariate_normal(
        [12.0, 200.0], [[4.0, 1.5], [1.5, 25.0]], size=500
    )
    start = GmmModel("r", (GaussianComponent(1.0, [0.0, 0.0], np.eye(2) * 1e4),))
    fitted = em_fit(x, start)
    mean_err = float(np.max(np.abs(fitted.components[0].mean - x.mean(axis=0))))
    sample_cov = np.cov(x.T, ddof=0)
    cov_err = float(
        np.max(np.abs(fitted.components[0].covariance - sample_cov) / np.abs(sample_cov))
    )
    monotone = True
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(40, 200))
        data = rng.normal(rng.uniform(-50, 50, 2), rng.uniform(0.5, 20.0), size=(n, 2))
        k = int(rng.integers(1, 4))
        starts = tuple(
            GaussianComponent(1.0 / k, rng.uniform(-50, 50, 2), np.eye(2) * rng.uniform(1, 100))
            for _ in range(k)
        )
        steps = em_steps(data, GmmModel("r", starts))
        for prev, curr in zip(steps, steps[1:]):
            if curr < prev - 1e-8 * max(1.0, abs(prev)):
                monotone = False
    ok = mean_err < 1e-9 and cov_err < 1e-6 and monotone
    report(capfd, 3, ok)
    assert mean_err < 1e-9, f"mean error {mean_err}"
    assert cov_err < 1e-6, f"covariance relative error {cov_err}"
    assert monotone


def test_criterion_4_greedy_recovery(capfd):
    ok = True
    detail = []
    for seed in range(10):
        cfg = TrainingConfig(max_components=5, seed=0)
        two = greedy_train(pair_data(250, 1.0, seed), "r", cfg)
        means = sorted(tuple(c.mean) for c in two.components)
        pair_ok = two.component_count == 2 and all(
            math.hypot(m[0] - t[0], m[1] - t[1]) < 5.0
            for m, t in zip(means, [(5.0, 90.0), (105.0, 90.0)])
        )
        one = greedy_train(single_data(500, 1.0, seed), "r", cfg)
        single_ok = one.component_count == 1
        if not (pair_ok and single_ok):
            ok = False
            detail.append((seed, two.component_count, one.component_count))
    report(capfd, 4, ok)
    assert ok, f"failing seeds: {detail}"


def test_criterion_5_normalization(capfd):
    baseline, greedy = city(0)
    worst = 0.0
    for model in list(baseline.values()) + list(greedy.values()):
        lo = np.full(2, np.inf)
        hi = np.full(2, -np.inf)
        for component in model.components:
            sigma = np.sqrt(np.diag(component.covariance))
            lo = np.minimum(lo, component.mean - 6.0 * sigma)
            hi = np.maximum(hi, component.mean + 6.0 * sigma)
        edges = [np.linspace(lo[i], hi[i], 401) for i in range(2)]
        mids = [(e[:-1] + e[1:]) / 2.0 for e in edges]
        cell = (edges[0][1] - edges[0][0]) * (edges[1][1] - edges[1][0])
        grid_d, grid_o = np.meshgrid(mids[0], mids[1], indexing="ij")
        points = np.column_stack([grid_d.ravel(), grid_o.ravel()])
        integral = float(np.exp(model.logpdf(*points.T)).sum() * cell)
        worst = max(worst, abs(integral - 1.0))
    grid = make_grid(CITY_BBOX, 15)
    rng = np.random.default_rng(5)
    worst_sum = 0.0
    for _ in range(10):
        lat = rng.uniform(CITY_BBOX[0], CITY_BBOX[2])
        lon = rng.uniform(CITY_BBOX[1], CITY_BBOX[3])
        surface = score_point((lat, lon), grid, greedy)
        worst_sum = max(worst_sum, abs(float(surface.fused_vertex.sum()) - 1.0))
    ok = worst <= 0.02 and worst_sum <= 1e-9
    report(capfd, 5, ok)
    assert worst <= 0.02, f"worst integral deviation {worst}"
    assert worst_sum <= 1e-9, f"worst vertex-sum deviation {worst_sum}"


def test_criterion_6_optimized_beats_baseline(capfd):
    accuracy = {"baseline": {k: [] for k in K_VALUES}, "greedy": {k: [] for k in K_VALUES}}
    qualitative = {"baseline": [], "greedy": []}
    for seed in range(5):
        baseline, greedy = city(seed)
        for name, models in [("baseline", baseline), ("greedy", greedy)]:
            trial = prediction_trial(models, CITY_BBOX, 15, 200, seed=1000 + seed)
            for k in K_VALUES:
                accuracy[name][k].append(trial.accuracy(k))
            qualitative[name].append(qualitative_accuracy(trial))
    mean_acc = {
        name: {k: float(np.mean(values)) for k, values in per_k.items()}
        for name, per_k in accuracy.items()
    }
    mean_qual = {name: float(np.mean(values)) for name, values in qualitative.items()}
    topk_ok = all(mean_acc["greedy"][k] >= mean_acc["baseline"][k] for k in K_VALUES)
    qual_ok = mean_qual["greedy"] >= mean_qual["baseline"]
    ok = topk_ok and qual_ok
    report(capfd, 6, ok)
    assert topk_ok, f"top-k means {mean_acc}"
    assert qual_ok, f"qualitative means {mean_qual}"


def test_criterion_7_uniform_stub_calibration(capfd):
    trial = prediction_trial({"anywhere": UniformDensityModel()}, CITY_BBOX, 15, 2000, seed=42)
    deviations = {k: abs(trial.accuracy(k) - k / 196.0) for k in K_VALUES}
    ok = all(dev <= 0.03 for dev in deviations.values())
    report(capfd, 7, ok)
    assert ok, f"deviations from chance {deviations}"


def test_criterion_8_fusion_trend(capfd):
    _, greedy = city(0)
    fractions = (0.1, 0.5, 1.0)
    errors = {fraction: [] for fraction in fractions}
    for k in range(20):
        scenario = consistent_scenario(40, seed=2000 + k)
        for fraction in fractions:
            errors[fraction].append(fuse(scenario, greedy, fraction=fraction, seed=k).error_km)
    means = [float(np.mean(errors[fraction])) for fraction in fractions]
    trend_ok = means[0] >= means[1] >= means[2]
    halved_ok = means[2] < means[0] / 2.0
    ok = trend_ok and halved_ok
    report(capfd, 8, ok)
    assert trend_ok, f"mean errors {means}"
    assert halved_ok, f"mean errors {means}"


def test_criterion_9_pipeline_determinism(fixtures_dir, tmp_path, capfd):
    def pipeline(root):
        root.mkdir()
        triplets = root / "triplets.tsv"
        assert run(
            [
                "extract",
                "--corpus",
                str(fixtures_dir / "corpus.txt"),
                "--gazetteer",
                str(fixtures_dir / "gazetteer.tsv"),
                "--patterns",
                str(fixtures_dir / "patterns.tsv"),
                "--out",
                str(triplets),
            ]
        ) == 0
        features = root / "features"
        assert run(
            ["features", "--triplets", str(fixtures_dir / "triplets_100.tsv"), "--out-dir", str(features)]
        ) == 0
        models = root / "models"
        models.mkdir()
        for label, stem in [("near", "near"), ("at", "at"), ("north of", "north_of"), ("west of", "west_of")]:
            assert run(
                [
                    "train",
                    "--features",
                    str(features / f"{stem}.tsv"),
                    "--relation",
                    label,
                    "--max-components",
                    "3",
                    "--seed",
                    "11",
                    "--out",
                    str(models / f"{stem}.model"),
                ]
            ) == 0
        assert run(
            [
                "predict",
                "--models",
                str(models),
                "--bbox",
                "40.0,116.0,40.18,116.235",
                "--grid-dim",
                "15",
                "--point",
                "40.09,116.12",
                "--surface-out",
                str(root / "surface"),
            ]
        ) == 0
        assert run(
            [
                "fuse",
                "--scenario",
                str(fixtures_dir / "scenario_demo.tsv"),
                "--models",
                str(models),
                "--fraction",
                "0.5",
                "--seed",
                "6",
                "--out",
                str(root / "estimate"),
            ]
        ) == 0
        capfd.readouterr()
        names = ["triplets.tsv", "surface.csv", "surface.geojson", "estimate.tsv", "estimate.geojson"]
        blobs = {name: (root / name).read_bytes() for name in names}
        for path in sorted(models.glob("*.model")):
            blobs["models/" + path.name] = path.read_bytes()
        return blobs

    first = pipeline(tmp_path / "a")
    second = pipeline(tmp_path / "b")
    ok = set(first) == set(second) and all(first[name] == second[name] for name in first)
    report(capfd, 9, ok)
    assert set(first) == set(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
