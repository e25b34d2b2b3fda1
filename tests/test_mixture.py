"""Gaussian mixture densities, EM fitting, and greedy component growth."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geotri.mixture import (
    VARIANCE_FLOOR,
    GaussianComponent,
    GmmModel,
    InsufficientDataError,
    InvalidParameterError,
    TrainingConfig,
    _component_logpdf,
    _logsumexp,
    derive_seed,
    em_fit,
    gaussian_pdf,
    generate_candidates,
    gmm_log_likelihood,
    greedy_train,
)


def naive_log_likelihood(x: np.ndarray, model: GmmModel) -> float:
    # Deliberately plain double loop, no log-sum-exp: the comparison oracle.
    total = 0.0
    for point in x:
        density = 0.0
        for c in model.components:
            diff = point - c.mean
            inv = np.linalg.inv(c.covariance)
            det = np.linalg.det(c.covariance)
            quad = float(diff @ inv @ diff)
            density += c.weight * math.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))
        total += math.log(density)
    return total


def pair_data(n_per_mode: int, sigma: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    cov = np.eye(2) * sigma**2
    a = rng.multivariate_normal([5.0, 90.0], cov, size=n_per_mode)
    b = rng.multivariate_normal([105.0, 90.0], cov, size=n_per_mode)
    return np.vstack([a, b])


def single_data(n: int, sigma: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.multivariate_normal([10.0, 45.0], np.eye(2) * sigma**2, size=n)


def test_component_validation():
    with pytest.raises(InvalidParameterError):
        GaussianComponent(0.0, [0.0, 0.0], np.eye(2))
    with pytest.raises(InvalidParameterError):
        GaussianComponent(1.5, [0.0, 0.0], np.eye(2))
    with pytest.raises(InvalidParameterError):
        GaussianComponent(0.5, [0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])
    for weight in (math.nan, math.inf):
        with pytest.raises(InvalidParameterError):
            GaussianComponent(weight, [1.0, 90.0], np.eye(2))
    for mean, cov in (
        ([math.nan, 90.0], np.eye(2)),
        ([1.0, math.inf], np.eye(2)),
        ([1.0, 90.0], [[math.inf, 0.0], [0.0, 1.0]]),
        ([1.0, 90.0], [[1.0, math.nan], [math.nan, 1.0]]),
    ):
        with pytest.raises(InvalidParameterError, match="finite"):
            GaussianComponent(0.5, mean, cov)


def test_logsumexp_keeps_all_neg_inf_column():
    stacked = np.array([[-np.inf, 0.0, -np.inf], [-np.inf, -1.0, 2.0]])
    out = _logsumexp(stacked)
    assert np.isneginf(out[0])
    assert out[1] == pytest.approx(math.log(1.0 + math.exp(-1.0)), rel=1e-15)
    assert out[2] == 2.0


def test_logsumexp_matches_naive_reference():
    rng = np.random.default_rng(3)
    for rows in (1, 2, 5):
        stacked = rng.uniform(-30.0, 30.0, size=(rows, 200))
        naive = np.log(np.exp(stacked).sum(axis=0))
        np.testing.assert_allclose(_logsumexp(stacked), naive, rtol=0.0, atol=1e-12)


def test_component_logpdf_matches_inverse_determinant_formula():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.normal(size=(2, 2))
        cov = a @ a.T + 0.1 * np.eye(2)
        mean = rng.normal(size=2)
        x = mean + rng.normal(size=(20, 2))
        diff = x - mean
        quad = np.einsum("ij,jk,ik->i", diff, np.linalg.inv(cov), diff)
        naive = -math.log(2.0 * math.pi) - 0.5 * math.log(np.linalg.det(cov)) - 0.5 * quad
        np.testing.assert_allclose(_component_logpdf(x, mean, cov), naive, rtol=0.0, atol=1e-12)


def test_package_trains_and_scores_without_scipy():
    # A None entry in sys.modules makes any "import scipy" raise ImportError.
    script = """
import sys
sys.modules["scipy"] = None
import numpy as np
from geotri import greedy_train, make_grid, score_point, TrainingConfig
from geotri.synth import CITY_BBOX, sample_training_data
data = sample_training_data(60, seed=1)
models = {label: greedy_train(x, label, TrainingConfig(max_components=2, seed=1)) for label, x in data.items()}
surface = score_point((40.09, 116.12), make_grid(CITY_BBOX, 6), models)
assert np.isfinite(surface.region_likelihoods).all()
print("ok")
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_model_needs_components():
    with pytest.raises(InvalidParameterError):
        GmmModel("near", ())


def test_model_validate_checks_weight_sum_and_floor():
    good = GmmModel("near", (GaussianComponent(1.0, [1.0, 2.0], np.eye(2)),))
    good.validate()
    bad_sum = GmmModel(
        "near",
        (
            GaussianComponent(0.5, [0.0, 0.0], np.eye(2)),
            GaussianComponent(0.4, [1.0, 1.0], np.eye(2)),
        ),
    )
    with pytest.raises(InvalidParameterError):
        bad_sum.validate()
    thin = GmmModel("near", (GaussianComponent(1.0, [0.0, 0.0], np.eye(2) * 1e-6),))
    with pytest.raises(InvalidParameterError):
        thin.validate()


def test_gaussian_pdf_closed_form_at_mean():
    cov = np.array([[2.0, 0.3], [0.3, 1.5]])
    component = GaussianComponent(1.0, [3.0, 4.0], cov)
    expected = 1.0 / (2.0 * math.pi * math.sqrt(np.linalg.det(cov)))
    assert gaussian_pdf([3.0, 4.0], component) == pytest.approx(expected, rel=1e-12)


def test_gaussian_pdf_isotropic_offset():
    component = GaussianComponent(1.0, [0.0, 0.0], np.eye(2))
    expected = math.exp(-0.5) / (2.0 * math.pi)
    assert gaussian_pdf([1.0, 0.0], component) == pytest.approx(expected, rel=1e-12)


def test_log_likelihood_matches_naive_oracle_single_gaussian():
    rng = np.random.default_rng(7)
    x = rng.multivariate_normal([10.0, 180.0], [[4.0, 1.0], [1.0, 9.0]], size=100)
    model = GmmModel("near", (GaussianComponent(1.0, [10.0, 180.0], [[4.0, 1.0], [1.0, 9.0]]),))
    ours = gmm_log_likelihood(x, model)
    oracle = naive_log_likelihood(x, model)
    assert abs(ours - oracle) <= 1e-9 * abs(oracle)


def test_log_likelihood_matches_naive_oracle_mixture():
    rng = np.random.default_rng(11)
    x = rng.multivariate_normal([20.0, 90.0], np.eye(2) * 25.0, size=1000)
    model = GmmModel(
        "near",
        (
            GaussianComponent(0.3, [5.0, 80.0], np.eye(2) * 4.0),
            GaussianComponent(0.7, [25.0, 100.0], [[9.0, 2.0], [2.0, 16.0]]),
        ),
    )
    ours = gmm_log_likelihood(x, model)
    oracle = naive_log_likelihood(x, model)
    assert abs(ours - oracle) <= 1e-9 * abs(oracle)


def test_log_likelihood_rejects_empty_data():
    model = GmmModel("near", (GaussianComponent(1.0, [0.0, 0.0], np.eye(2)),))
    with pytest.raises(ValueError):
        gmm_log_likelihood(np.empty((0, 2)), model)


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(max_components=0)
    with pytest.raises(ValueError):
        TrainingConfig(candidates_per_component=0)
    with pytest.raises(ValueError):
        TrainingConfig(em_tol=0.0)
    with pytest.raises(ValueError):
        TrainingConfig(em_max_iter=0)
    with pytest.raises(ValueError):
        TrainingConfig(accept_tol=-0.1)


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(42, "near") == derive_seed(42, "near")
    assert derive_seed(42, "near") != derive_seed(42, "in")
    assert derive_seed(1, "near") != derive_seed(2, "near")


def test_em_single_component_equals_moment_estimates():
    x = single_data(500, 1.0, seed=0)
    start = GmmModel("near", (GaussianComponent(1.0, [0.0, 0.0], np.eye(2) * 100.0),))
    fitted = em_fit(x, start, TrainingConfig())
    sample_mean = x.mean(axis=0)
    sample_cov = np.cov(x.T, ddof=0)
    assert np.abs(fitted.components[0].mean - sample_mean).max() <= 1e-9
    rel = np.abs(fitted.components[0].covariance - sample_cov) / np.abs(sample_cov).max()
    assert rel.max() <= 1e-6


def test_em_history_non_decreasing():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=(60, 2)) * rng.uniform(0.5, 5.0) + rng.uniform(-50, 50, size=2)
        start = GmmModel(
            "r",
            (
                GaussianComponent(0.5, x[0], np.eye(2) * 4.0),
                GaussianComponent(0.5, x[1], np.eye(2) * 4.0),
            ),
        )
        history: list[float] = []
        em_fit(x, start, TrainingConfig(), history=history)
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier - 1e-8 * max(1.0, abs(earlier))


def test_em_requires_enough_points():
    model = GmmModel(
        "r",
        (
            GaussianComponent(0.5, [0.0, 0.0], np.eye(2)),
            GaussianComponent(0.5, [1.0, 1.0], np.eye(2)),
        ),
    )
    with pytest.raises(InsufficientDataError):
        em_fit(np.array([[0.0, 0.0]]), model, TrainingConfig())


def test_em_floors_covariance_on_degenerate_data():
    x = np.zeros((50, 2))
    start = GmmModel("r", (GaussianComponent(1.0, [1.0, 1.0], np.eye(2)),))
    fitted = em_fit(x, start, TrainingConfig())
    eigvals = np.linalg.eigvalsh(fitted.components[0].covariance)
    assert eigvals.min() >= VARIANCE_FLOOR * (1.0 - 1e-9)
    fitted.validate()


def test_generate_candidates_contract():
    x = pair_data(100, 1.0, seed=5)
    model = GmmModel("r", (GaussianComponent(1.0, x.mean(axis=0), np.cov(x.T, ddof=0)),))
    cfg = TrainingConfig(candidates_per_component=10, seed=9)
    candidates = generate_candidates(x, model, cfg)
    assert len(candidates) == model.component_count * cfg.candidates_per_component
    for candidate in candidates:
        assert candidate.weight == 0.5
        assert np.linalg.eigvalsh(candidate.covariance).min() >= VARIANCE_FLOOR * (1.0 - 1e-9)
        # Midpoint of two sample points stays inside the sample's bbox.
        assert x[:, 0].min() <= candidate.mean[0] <= x[:, 0].max()
        assert x[:, 1].min() <= candidate.mean[1] <= x[:, 1].max()


def test_generate_candidates_deterministic_per_seed():
    x = pair_data(50, 1.0, seed=2)
    model = GmmModel("r", (GaussianComponent(1.0, x.mean(axis=0), np.cov(x.T, ddof=0)),))
    cfg = TrainingConfig(seed=4)
    first = generate_candidates(x, model, cfg)
    second = generate_candidates(x, model, cfg)
    assert all(
        np.array_equal(a.mean, b.mean) and np.array_equal(a.covariance, b.covariance)
        for a, b in zip(first, second)
    )


def test_greedy_recovers_two_modes():
    x = pair_data(250, 1.0, seed=0)
    model = greedy_train(x, "near", TrainingConfig(max_components=5, seed=0))
    assert model.component_count == 2
    means = sorted(c.mean[0] for c in model.components)
    assert abs(means[0] - 5.0) <= 5.0
    assert abs(means[1] - 105.0) <= 5.0


def test_greedy_keeps_single_mode():
    x = single_data(500, 1.0, seed=0)
    model = greedy_train(x, "near", TrainingConfig(max_components=5, seed=0))
    assert model.component_count == 1


def test_greedy_never_degrades_log_likelihood():
    x = pair_data(150, 1.0, seed=1)
    cfg = TrainingConfig(max_components=5, seed=1)
    grown = greedy_train(x, "near", cfg)
    start = GmmModel(
        "near", (GaussianComponent(1.0, x.mean(axis=0), np.cov(x.T, ddof=0)),)
    )
    baseline = em_fit(x, start, cfg)
    assert gmm_log_likelihood(x, grown) >= gmm_log_likelihood(x, baseline) - 1e-9


def test_greedy_respects_max_components():
    rng = np.random.default_rng(8)
    modes = [rng.multivariate_normal([40.0 * k, 60.0 * k % 300], np.eye(2), size=80) for k in range(5)]
    x = np.vstack(modes)
    model = greedy_train(x, "near", TrainingConfig(max_components=3, seed=0))
    assert model.component_count <= 3


def test_greedy_is_deterministic():
    x = pair_data(100, 1.0, seed=6)
    cfg = TrainingConfig(max_components=4, seed=12)
    first = greedy_train(x, "near", cfg)
    second = greedy_train(x, "near", cfg)
    assert first.component_count == second.component_count
    for a, b in zip(first.components, second.components):
        assert a.weight == b.weight
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.covariance, b.covariance)


def test_greedy_rejects_tiny_datasets():
    with pytest.raises(InsufficientDataError):
        greedy_train(np.array([[1.0, 2.0]]), "near", TrainingConfig())


def test_trained_model_weights_normalized():
    x = pair_data(200, 1.0, seed=3)
    model = greedy_train(x, "near", TrainingConfig(max_components=5, seed=3))
    model.validate()
    assert math.fsum(c.weight for c in model.components) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_em_monotone_for_random_seeds(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(40, 2)) * 3.0
    start = GmmModel(
        "r",
        (
            GaussianComponent(0.6, x[0], np.eye(2) * 2.0),
            GaussianComponent(0.4, x[1], np.eye(2) * 2.0),
        ),
    )
    history: list[float] = []
    em_fit(x, start, TrainingConfig(), history=history)
    assert all(b >= a - 1e-8 * max(1.0, abs(a)) for a, b in zip(history, history[1:]))
