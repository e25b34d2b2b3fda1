"""Synthetic benchmark city: ground-truth mixtures, samples, scenarios.

The benchmark places four relation labels over a roughly 30 x 30 km box.
Each ground-truth mixture is deliberately multimodal in distance and/or
orientation, so a single Gaussian is mis-specified for it, and its mass is
placed consistently with the default RelationOracle predicates (proximity
labels concentrate inside their distance thresholds, directional labels
inside their sectors, orientations kept away from the 0/360 wrap).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .features import ProjectionOrigin, feature_components
from .fuse import Scenario
from .gazetteer import Poi
from .mixture import (
    GaussianComponent,
    GmmModel,
    TrainingConfig,
    derive_seed,
    greedy_train,
)
from .predict import RelationOracle

__all__ = [
    "CITY_BBOX",
    "UniformDensityModel",
    "baseline_fit",
    "consistent_scenario",
    "sample_mixture",
    "sample_training_data",
    "synthetic_city_models",
    "train_city",
]

CITY_BBOX = (40.0, 116.0, 40.18, 116.235)

# Scenario landmarks farther than this from the hidden point are rejected.
_LANDMARK_MAX_KM = 16.0
# Tried in this order; a landmark takes the first label whose predicate holds.
_SCENARIO_LABELS = ("at", "near", "north of", "west of")


class UniformDensityModel:
    """Stub model with the same density everywhere (log density 0)."""

    def __init__(self, relation: str = "anywhere"):
        self.relation = relation

    def logpdf(self, points) -> np.ndarray:
        return np.zeros(np.asarray(points, dtype=float).reshape(-1, 2).shape[0])


def _diag(var_d: float, var_o: float) -> np.ndarray:
    return np.array([[var_d, 0.0], [0.0, var_o]])


def synthetic_city_models() -> dict[str, GmmModel]:
    """Ground-truth mixtures over (distance km, orientation deg).

    Scales are chosen against the default 15 x 15 grid over the roughly
    20 x 20 km city box (about 1.4 km vertex spacing): proximity lobes sit
    at 0.7-1.9 km ("at") and 3.4-5.2 km ("near"), directional lobes reach
    past the box diagonal, so within each sector the matching model
    dominates at every reachable distance instead of losing its own sector
    to another label's fatter tail. Proximity labels are multimodal in
    distance with one broad orientation profile (their predicates ignore
    orientation); directional labels concentrate in their sectors.
    """
    return {
        "at": GmmModel(
            "at",
            (
                GaussianComponent(0.55, [0.6, 180.0], _diag(0.0784, 8100.0)),
                GaussianComponent(0.45, [1.8, 180.0], _diag(0.09, 8100.0)),
            ),
        ),
        "near": GmmModel(
            "near",
            (
                GaussianComponent(0.5, [3.2, 180.0], _diag(0.25, 8100.0)),
                GaussianComponent(0.5, [5.2, 180.0], _diag(0.36, 8100.0)),
            ),
        ),
        "north of": GmmModel(
            "north of",
            (
                GaussianComponent(0.55, [6.0, 90.0], _diag(2.25, 225.0)),
                GaussianComponent(0.45, [12.0, 90.0], _diag(6.76, 324.0)),
            ),
        ),
        "west of": GmmModel(
            "west of",
            (
                GaussianComponent(0.4, [5.0, 180.0], _diag(1.44, 169.0)),
                GaussianComponent(0.35, [9.0, 180.0], _diag(4.0, 196.0)),
                GaussianComponent(0.25, [14.0, 180.0], _diag(6.25, 225.0)),
            ),
        ),
    }


def sample_mixture(model: GmmModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points from a mixture (component choice, then its Gaussian)."""
    weights = model.weights()
    picks = rng.choice(model.component_count, size=n, p=weights / weights.sum())
    out = np.empty((n, 2))
    for k, component in enumerate(model.components):
        mask = picks == k
        count = int(mask.sum())
        if count:
            out[mask] = rng.multivariate_normal(component.mean, component.covariance, size=count)
    return out


def sample_training_data(n_per_label: int, seed: int) -> dict[str, np.ndarray]:
    """Per-label samples from the ground-truth city, seeded per relation."""
    data = {}
    for label, model in synthetic_city_models().items():
        rng = np.random.default_rng(derive_seed(seed, label))
        data[label] = sample_mixture(model, n_per_label, rng)
    return data


def baseline_fit(data, relation: str, cfg: TrainingConfig) -> GmmModel:
    """Single-component EM fit: the greedy trainer's start model, never grown."""
    return greedy_train(data, relation, replace(cfg, max_components=1))


def train_city(
    n_per_label: int, seed: int, max_components: int = 5
) -> tuple[dict[str, GmmModel], dict[str, GmmModel]]:
    """Train (baseline, greedy) model maps on one sampled city."""
    baseline: dict[str, GmmModel] = {}
    greedy: dict[str, GmmModel] = {}
    for label, data in sample_training_data(n_per_label, seed).items():
        cfg = TrainingConfig(max_components=max_components, seed=derive_seed(seed, label))
        baseline[label] = baseline_fit(data, label, cfg)
        greedy[label] = greedy_train(data, label, cfg)
    return baseline, greedy


def consistent_scenario(
    n_observations: int,
    seed: int,
    bbox: tuple[float, float, float, float] = CITY_BBOX,
    dim: int = 15,
    unknown_at: tuple[float, float] = (0.65, 0.3),
) -> Scenario:
    """Generate truthful observations about a hidden point.

    Landmarks are drawn uniformly in the bbox and labeled by the first of
    at, near, north of and west of whose default ``RelationOracle``
    predicate holds for the hidden point relative to them; landmarks
    farther than 16 km or fitting no label are rejected. This mirrors
    narrative observations, which assert relations that hold.
    """
    oracle = RelationOracle()
    min_lat, min_lon, max_lat, max_lon = bbox
    unknown = Poi(
        "hidden",
        min_lat + (max_lat - min_lat) * unknown_at[0],
        min_lon + (max_lon - min_lon) * unknown_at[1],
    )
    origin = ProjectionOrigin((min_lat + max_lat) / 2.0, (min_lon + max_lon) / 2.0)
    rng = np.random.default_rng(seed)
    observations: list[tuple[str, Poi]] = []
    attempts = 0
    while len(observations) < n_observations:
        attempts += 1
        if attempts > 200 * n_observations:
            raise RuntimeError("rejection sampling failed to place landmarks")
        lat = rng.uniform(min_lat, max_lat)
        lon = rng.uniform(min_lon, max_lon)
        distance, orientation = feature_components(unknown.lat, unknown.lon, lat, lon, origin)
        distance, orientation = float(distance), float(orientation)
        if distance > _LANDMARK_MAX_KM:
            continue
        label = next((name for name in _SCENARIO_LABELS if oracle.is_correct(name, distance, orientation)), None)
        if label is None:
            continue
        observations.append((label, Poi(f"landmark-{len(observations)}", lat, lon)))
    return Scenario(unknown=unknown, observations=tuple(observations), bbox=bbox, dim=dim)
