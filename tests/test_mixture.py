"""Gaussian mixture densities, EM fitting, and greedy component growth."""

import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geotri import mixture
from geotri.mixture import (
    ACCEPT_TOL,
    CANDIDATES_PER_COMPONENT,
    EM_MAX_ITER,
    EM_TOL,
    VARIANCE_FLOOR,
    GaussianComponent,
    GmmModel,
    InsufficientDataError,
    InvalidParameterError,
    RACE_SURVIVORS,
    RACE_WARMUP,
    TrainingConfig,
    _floor_covariance,
    _density_terms,
    _insert_component,
    _log_joint,
    _logsumexp,
    _refine_candidates,
    derive_seed,
    em_fit,
    generate_candidates,
    gmm_log_likelihood,
    greedy_train,
)
from geotri.synth import sample_mixture, sample_training_data, synthetic_city_models

from conftest import em_steps


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


def expression_log_joint(dx, dy, terms):
    """``_log_joint`` as plain expressions, each step a new array: the bitwise reference."""
    log_weights, _, _, c_s, b_det, a_s, log_norm = terms
    out = c_s * dx
    out += b_det * dy
    out *= dx
    out += a_s * (dy * dy)
    out += log_norm
    return log_weights + out


def expression_logsumexp(stacked):
    """``_logsumexp`` as plain expressions: the bitwise reference."""
    peak = stacked.max(axis=0)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(stacked - shift).sum(axis=0)) + shift


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_density_kernels_are_bitwise_the_expressions_and_keep_their_inputs(k):
    rng = np.random.default_rng(k)
    n = 400
    a = rng.normal(size=(k, 2, 2))
    covs = a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(2)
    terms = _density_terms(np.log(rng.dirichlet(np.ones(k))), rng.normal(size=(k, 2)), covs)
    # Offsets and log densities from about 1e-200 to 1e200, so some terms overflow to inf and
    # some differences are nan; two columns are all -inf.
    magnitude = 10.0 ** rng.choice([-200, -100, 0, 2, 100, 200], size=(3, k, n))
    dx, dy, stacked = rng.normal(size=(3, k, n)) * magnitude
    stacked[:, :2] = -np.inf
    stacked[0, 2] = np.inf
    inputs = [array.copy() for array in (dx, dy, stacked, *terms)]
    with np.errstate(over="ignore", invalid="ignore"):
        joint = _log_joint(dx, dy, terms)
        assert joint.tobytes() == expression_log_joint(dx, dy, terms).tobytes()
        for values in (joint, stacked):
            assert _logsumexp(values).tobytes() == expression_logsumexp(values).tobytes()
    for before, after in zip(inputs, (dx, dy, stacked, *terms)):
        assert before.tobytes() == after.tobytes()


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
        model = GmmModel("r", (GaussianComponent(1.0, mean, cov),))
        np.testing.assert_allclose(model.logpdf(*x.T), naive, rtol=0.0, atol=1e-12)


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
    density = math.exp(GmmModel("r", (component,)).logpdf([3.0], [4.0])[0])
    assert density == pytest.approx(expected, rel=1e-12)


def test_gaussian_pdf_isotropic_offset():
    component = GaussianComponent(1.0, [0.0, 0.0], np.eye(2))
    expected = math.exp(-0.5) / (2.0 * math.pi)
    density = math.exp(GmmModel("r", (component,)).logpdf([1.0], [0.0])[0])
    assert density == pytest.approx(expected, rel=1e-12)


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


@pytest.mark.parametrize("shape", [(2,), (3,), (4, 3), (2, 2, 2)])
def test_log_likelihood_rejects_data_not_n_by_2(shape):
    # A lone (2,) point is not read as one row either.
    model = GmmModel("near", (GaussianComponent(1.0, [0.0, 0.0], np.eye(2)),))
    with pytest.raises(ValueError, match=f"^{re.escape(f'expected (n, 2) data, got shape {shape}')}$"):
        gmm_log_likelihood(np.ones(shape), model)


def test_model_needs_relation_label():
    with pytest.raises(InvalidParameterError, match="relation label must be non-empty"):
        GmmModel("", (GaussianComponent(1.0, [0.0, 0.0], np.eye(2)),))


def test_models_and_components_compare_and_hash_by_identity():
    # Equal parameters, distinct objects: equal arrays would make a field-wise == ambiguous.
    one, other = synthetic_city_models()["at"], synthetic_city_models()["at"]
    for a, b in [(one, other), (one.components[0], other.components[0])]:
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a) and hash(a) != hash(b)
        assert len({a, b, a}) == 2


def test_em_rejects_covariance_that_overflows():
    # Finite data whose squared spread overflows: the M-step covariance is NaN.
    x = np.random.default_rng(0).normal(size=(50, 2))
    x[0] = [1e200, 0.0]
    start = GmmModel("r", (GaussianComponent(1.0, [0.0, 0.0], np.eye(2)),))
    with pytest.warns(RuntimeWarning), pytest.raises(InvalidParameterError, match=r"not positive definite: \[\[\[nan"):
        em_fit(x, start)


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(max_components=0)


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(42, "near") == derive_seed(42, "near")
    assert derive_seed(42, "near") != derive_seed(42, "in")
    assert derive_seed(1, "near") != derive_seed(2, "near")


def test_em_single_component_equals_moment_estimates():
    x = single_data(500, 1.0, seed=0)
    start = GmmModel("near", (GaussianComponent(1.0, [0.0, 0.0], np.eye(2) * 100.0),))
    fitted = em_fit(x, start)
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
        steps = em_steps(x, start)
        for earlier, later in zip(steps, steps[1:]):
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
        em_fit(np.array([[0.0, 0.0]]), model)


def test_em_floors_covariance_on_degenerate_data():
    x = np.zeros((50, 2))
    start = GmmModel("r", (GaussianComponent(1.0, [1.0, 1.0], np.eye(2)),))
    fitted = em_fit(x, start)
    eigvals = np.linalg.eigvalsh(fitted.components[0].covariance)
    assert eigvals.min() >= VARIANCE_FLOOR * (1.0 - 1e-9)
    fitted.validate()


def test_generate_candidates_contract():
    x = pair_data(100, 1.0, seed=5)
    model = GmmModel("r", (GaussianComponent(1.0, x.mean(axis=0), np.cov(x.T, ddof=0)),))
    candidates = generate_candidates(x, model, np.random.default_rng(9))
    assert len(candidates) == model.component_count * CANDIDATES_PER_COMPONENT
    for candidate in candidates:
        assert candidate.weight == 0.5
        assert np.linalg.eigvalsh(candidate.covariance).min() >= VARIANCE_FLOOR * (1.0 - 1e-9)
        # Midpoint of two sample points stays inside the sample's bbox.
        assert x[:, 0].min() <= candidate.mean[0] <= x[:, 0].max()
        assert x[:, 1].min() <= candidate.mean[1] <= x[:, 1].max()


def test_generate_candidates_deterministic_per_seed():
    x = pair_data(50, 1.0, seed=2)
    model = GmmModel("r", (GaussianComponent(1.0, x.mean(axis=0), np.cov(x.T, ddof=0)),))
    first = generate_candidates(x, model, np.random.default_rng(4))
    second = generate_candidates(x, model, np.random.default_rng(4))
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
    baseline = em_fit(x, start)
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
    steps = em_steps(x, start)
    assert all(b >= a - 1e-8 * max(1.0, abs(a)) for a, b in zip(steps, steps[1:]))


# Greedy fits pinned at max_components=5: the four synthetic city labels at
# n=500 (seed 0) and a five-lobe truth at n=1000. Values were captured from
# the per-candidate refinement with Cholesky densities and eigh floors, and
# "north of" again once candidates raced (same two components, at most
# 5.3e-4 relative from before); rows are (weight, mean distance, mean
# orientation, var distance, covariance, var orientation).
FIVE_LOBES = GmmModel(
    "five lobes",
    tuple(
        GaussianComponent(0.2, mean, np.diag(var))
        for mean, var in (
            ((1.5, 60.0), (0.09, 64.0)),
            ((4.0, 150.0), (0.25, 100.0)),
            ((7.0, 240.0), (0.36, 81.0)),
            ((10.0, 120.0), (0.49, 100.0)),
            ((13.0, 300.0), (0.64, 121.0)),
        )
    ),
)
GOLDEN = {
    'at': (
        (0.44783421104691645, 1.8236402897347819, 181.61540066489454, 0.0716223720539012, -1.391713434125908, 8900.301498365023),
        (0.5521657889530835, 0.624331614097083, 185.94614131048957, 0.0796940551265219, -1.5997660550633706, 7210.518920773693),
    ),
    'near': (
        (0.5375275941066611, 5.133736259644482, 180.05829535046382, 0.36467631628903713, -3.3006737522990535, 8469.356627875146),
        (0.462472405893339, 3.2075307509913245, 179.1508783473707, 0.23257359493146051, 3.985920752975362, 8216.572686584259),
    ),
    'north of': (
        (0.48587068253787147, 11.72479810891692, 88.95636045777205, 7.163888164023404, 6.675062768164257, 362.0918625503966),
        (0.5141293174621285, 6.044383055123391, 90.57414126210058, 2.327920094501424, -0.3160616419324012, 263.4507271252837),
    ),
    'west of': (
        (0.7336639928988005, 9.813540194307059, 180.70930949148823, 14.483080273891817, -0.3979840240331385, 207.30274635531413),
        (0.26633600710119953, 4.853452665903789, 181.23992878961906, 0.842633390281238, -1.2900865035187186, 217.3686394771794),
    ),
    'five lobes': (
        (0.1850000000629754, 9.997779288720151, 118.87250625695272, 0.5176652035856746, 0.5236824082805961, 115.44909758151965),
        (0.20499999993702583, 4.037217869181939, 151.50256318033217, 0.28709283705114796, -0.18187696059238487, 100.37847109525927),
        (0.19599999999999967, 1.52834906968541, 59.85704216951541, 0.0808052457280555, -0.24631712290453536, 68.26382185794458),
        (0.2150000000000014, 13.027062497446828, 300.0807446487697, 0.6592413302063447, -0.6564122182101461, 124.22617941403453),
        (0.19899999999999768, 6.970819066568994, 240.79309045418563, 0.37206928568684733, -0.06023073264695743, 67.94220433331367),
    ),
}


def golden_fit(label: str) -> tuple[np.ndarray, TrainingConfig]:
    if label == "five lobes":
        x = sample_mixture(FIVE_LOBES, 1000, np.random.default_rng(6))
        return x, TrainingConfig(max_components=5, seed=6)
    x = sample_training_data(500, seed=0)[label]
    return x, TrainingConfig(max_components=5, seed=derive_seed(0, label))


def component_rows(model: GmmModel) -> np.ndarray:
    return np.array(
        [
            (c.weight, *c.mean, c.covariance[0, 0], c.covariance[0, 1], c.covariance[1, 1])
            for c in model.components
        ]
    )


def reference_logpdf(model: GmmModel, distance: np.ndarray, orientation: np.ndarray) -> np.ndarray:
    """Log density with every term rebuilt per call, in the order the stored form must keep."""
    weights = np.array([c.weight for c in model.components])
    means = np.stack([c.mean for c in model.components])
    cov = np.stack([c.covariance for c in model.components])
    dx, dy = distance - means[:, :1], orientation - means[:, 1:]
    a, b, c = cov[..., 0, 0], cov[..., 1, 0], cov[..., 1, 1]
    det = a * c - b * b
    scale = -0.5 / det
    out = (c * scale)[..., None] * dx
    out += (b / det)[..., None] * dy
    out *= dx
    out += (a * scale)[..., None] * (dy * dy)
    out += (-math.log(2.0 * math.pi) - 0.5 * np.log(det))[..., None]
    stacked = np.log(weights)[:, None] + out
    peak = stacked.max(axis=0)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(stacked - shift).sum(axis=0)) + shift


def bitwise_cases() -> dict[str, GmmModel]:
    rows = {"one lobe": ((1.0, 2.0, 45.0, 0.5, 0.1, 30.0),), **GOLDEN}
    models = {
        label: GmmModel(
            label, tuple(GaussianComponent(w, (d, o), [[s00, s01], [s01, s11]]) for w, d, o, s00, s01, s11 in r)
        )
        for label, r in rows.items()
    }
    return {**models, **{f"city {label}": model for label, model in synthetic_city_models().items()}}


@pytest.mark.parametrize("label", sorted(bitwise_cases()))
def test_logpdf_is_bitwise_the_per_call_formula(label):
    model = bitwise_cases()[label]
    rng = np.random.default_rng(13)
    distance = np.concatenate([rng.uniform(0.0, 25.0, 500), [40.0, 1e3, 1e5, 1e200, -1e200]])
    orientation = np.concatenate([rng.uniform(0.0, 360.0, 500), [0.0, 359.9, 180.0, 90.0, 270.0]])
    # The last two points overflow every component's quadratic form.
    with np.errstate(over="ignore", invalid="ignore"):
        ours = model.logpdf(distance, orientation)
        reference = reference_logpdf(model, distance, orientation)
    assert np.isneginf(ours[-2:]).all()
    assert np.isfinite(ours[:-2]).all()
    assert np.exp(ours[-4]) == 0.0
    np.testing.assert_allclose(ours, reference, rtol=0, atol=0)


def test_logpdf_takes_two_equal_one_dimensional_arrays():
    model = GmmModel("r", (GaussianComponent(1.0, [1.0, 2.0], np.eye(2)),))
    for distance, orientation in ((np.zeros((2, 3)), np.zeros((2, 3))), (np.zeros(3), np.zeros(4))):
        with pytest.raises(ValueError, match=r"two \(n,\) arrays"):
            model.logpdf(distance, orientation)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_greedy_matches_golden_models(label):
    x, cfg = golden_fit(label)
    model = greedy_train(x, label, cfg)
    assert model.component_count == len(GOLDEN[label])
    np.testing.assert_allclose(component_rows(model), np.array(GOLDEN[label]), rtol=1e-9, atol=0.0)


def cholesky_logpdf(x, mean, cov):
    chol = np.linalg.cholesky(cov)
    diff = x - mean
    z0 = diff[:, 0] / chol[0, 0]
    z1 = (diff[:, 1] - chol[1, 0] * z0) / chol[1, 1]
    return -math.log(2.0 * math.pi) - math.log(chol[0, 0] * chol[1, 1]) - 0.5 * (z0 * z0 + z1 * z1)


def eigh_floor(cov):
    # The per-matrix eigendecomposition floor that the closed form replaced.
    cov = (cov + cov.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals.min() >= VARIANCE_FLOOR:
        return cov
    floored = (eigvecs * np.maximum(eigvals, VARIANCE_FLOOR)) @ eigvecs.T
    return (floored + floored.T) / 2.0


def refine_one(x, base_logpdf, candidate, iterations=EM_MAX_ITER):
    # The per-candidate partial-EM loop that lockstep refinement replaced, cut after ``iterations``.
    n = x.shape[0]
    alpha, mean, cov = candidate.weight, candidate.mean, candidate.covariance
    cand = cholesky_logpdf(x, mean, cov)
    log_mix = np.logaddexp(math.log1p(-alpha) + base_logpdf, math.log(alpha) + cand)
    loglik = float(log_mix.sum())
    for _ in range(iterations):
        resp = np.exp(math.log(alpha) + cand - log_mix)
        total = resp.sum()
        if total < 1e-10:
            break
        alpha = min(max(total / n, 1e-10), 1.0 - 1e-10)
        mean = (resp @ x) / total
        diff = x - mean
        cov = eigh_floor((resp * diff.T) @ diff / total)
        cand = cholesky_logpdf(x, mean, cov)
        log_mix = np.logaddexp(math.log1p(-alpha) + base_logpdf, math.log(alpha) + cand)
        updated = float(log_mix.sum())
        if updated - loglik <= EM_TOL * max(1.0, abs(updated)):
            loglik = updated
            break
        loglik = updated
    return GaussianComponent(float(alpha), mean, cov), loglik


def refine_per_candidate(x, base_logpdf, candidates):
    # The race run one candidate at a time: each alone for RACE_WARMUP iterations, then the
    # RACE_SURVIVORS best (stable sort, so ties go to the earlier; NaN dropped) alone to their
    # own stop. The loop is deterministic, so a survivor rerun from the start continues its warm-up.
    warm = [refine_one(x, base_logpdf, candidate, RACE_WARMUP)[1] for candidate in candidates]
    ranked = sorted((i for i, score in enumerate(warm) if not math.isnan(score)), key=lambda i: -warm[i])
    best, best_refined, best_mixed = None, None, -np.inf
    for index in sorted(ranked[:RACE_SURVIVORS]):
        refined, mixed = refine_one(x, base_logpdf, candidates[index])
        if mixed > best_mixed:
            best, best_refined, best_mixed = index, refined, mixed
    return best, best_refined, best_mixed


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_every_round_selects_the_per_candidate_winner(label):
    x, cfg = golden_fit(label)
    rng = np.random.default_rng(cfg.seed)
    current = greedy_train(x, label, replace(cfg, max_components=1))
    current_ll = gmm_log_likelihood(x, current)
    rounds = 0
    while current.component_count < cfg.max_components:
        candidates = generate_candidates(x, current, rng)
        base = current.logpdf(*x.T)
        index, refined, mixed = _refine_candidates(x, base, candidates)
        ref_index, ref_refined, ref_mixed = refine_per_candidate(x, base, candidates)
        assert index == ref_index
        assert mixed == pytest.approx(ref_mixed, rel=1e-12)
        np.testing.assert_allclose(
            component_rows(GmmModel(label, (refined,))),
            component_rows(GmmModel(label, (ref_refined,))),
            rtol=1e-9,
        )
        rounds += 1
        grown = em_fit(x, _insert_component(current, refined))
        grown_ll = gmm_log_likelihood(x, grown)
        if grown_ll <= current_ll + ACCEPT_TOL * max(1.0, abs(current_ll)):
            break
        current, current_ll = grown, grown_ll
    assert rounds >= 2
    # The replay above is greedy_train's own loop: same model, bit for bit.
    assert np.array_equal(component_rows(current), component_rows(greedy_train(x, label, cfg)))


def first_round(x, candidate_seed):
    """The one-component fit's log density at ``x`` and the candidates it proposes."""
    model = em_fit(x, GmmModel("r", (GaussianComponent(1.0, x.mean(axis=0), np.cov(x.T, ddof=0)),)))
    return model.logpdf(*x.T), generate_candidates(x, model, np.random.default_rng(candidate_seed))


@pytest.mark.parametrize("truth, seed", [("five lobes", 1), ("five lobes", 8), ("unimodal", 1)])
def test_race_cuts_where_the_per_candidate_race_cuts(truth, seed):
    # In these rounds a cut one iteration earlier or later picks another winner.
    if truth == "unimodal":
        x = single_data(200, 1.0, seed)
    else:
        x = sample_mixture(FIVE_LOBES, 300, np.random.default_rng(seed))
    base, candidates = first_round(x, seed + 100)
    index, _, mixed = _refine_candidates(x, base, candidates)
    ref_index, _, ref_mixed = refine_per_candidate(x, base, candidates)
    assert index == ref_index
    assert mixed == pytest.approx(ref_mixed, rel=1e-12)


def test_refinement_tie_goes_to_the_first_candidate():
    x = pair_data(100, 1.0, seed=5)
    model = GmmModel("r", (GaussianComponent(1.0, x.mean(axis=0), np.cov(x.T, ddof=0)),))
    base = model.logpdf(*x.T)
    a, b = generate_candidates(x, model, np.random.default_rng(2))[:2]
    alone = {id(c): _refine_candidates(x, base, [c])[1:] for c in (a, b)}
    assert alone[id(a)][1] != alone[id(b)][1]
    for order in ([a, b, b, a], [b, a, a, b], [a, a], [b, a, b, a, b]):
        index, refined, mixed = _refine_candidates(x, base, order)
        # Duplicates refine to the same bits whatever else shares the round.
        scores = [alone[id(c)][1] for c in order]
        assert mixed == max(scores)
        assert index == scores.index(max(scores))
        assert refined.weight == alone[id(order[index])][0].weight
        assert np.array_equal(refined.mean, alone[id(order[index])][0].mean)
        assert np.array_equal(refined.covariance, alone[id(order[index])][0].covariance)


# Far from every point of ``unimodal_round``, its total responsibility is about
# 1e-302 from the start, and its tiny weight costs it only 2e-10 nats.
FAR = GaussianComponent(1e-12, (1e3, 45.0), np.eye(2))


def unimodal_round():
    """A unimodal sample, its one-component fit's log density and ten candidates.

    Alone, candidates 0, 2 and 3 refine past the warm-up to about 7.56 nats
    above the base, 1 to 9.69, and 6 and 8 past the warm-up to 2-3e-3 nats
    below it.
    """
    x = single_data(200, 1.0, seed=0)
    return x, *first_round(x, 1)


@pytest.mark.parametrize("kind", ["gain", "responsibility"])
def test_candidate_stopped_before_the_warm_up_keeps_its_rank(kind):
    # The stopper leaves the race before the warm-up ends, with the round's best score.
    x, base, candidates = unimodal_round()
    if kind == "gain":
        # Candidate 1 refined alone: its first update gains nothing.
        stopper, stop_after, runners = _refine_candidates(x, base, [candidates[1]])[1], 1, [candidates[i] for i in (0, 2, 3)]
    else:
        stopper, stop_after, runners = FAR, 0, [candidates[6], candidates[8]]
    assert refine_one(x, base, stopper, stop_after)[1] == refine_one(x, base, stopper)[1]
    for runner in runners:
        assert refine_one(x, base, runner, RACE_WARMUP)[1] != refine_one(x, base, runner)[1]
    alone = _refine_candidates(x, base, [stopper])
    assert len(runners) + 1 > RACE_SURVIVORS
    for order in (runners + [stopper], [stopper] + runners):
        index, refined, mixed = _refine_candidates(x, base, order)
        assert order[index] is stopper
        assert mixed == alone[2]
        assert np.array_equal(component_rows(GmmModel("r", (refined,))), component_rows(GmmModel("r", (alone[1],))))


def test_race_ranking_tie_goes_to_the_earlier_candidate():
    x, base, candidates = unimodal_round()
    best, worse = candidates[1], candidates[5]
    # The tied copies of the best fill more places than survive: the earliest ones survive.
    for order in ([worse] + [best] * (RACE_SURVIVORS + 1), [best] * (RACE_SURVIVORS + 2), [worse, best, worse, best, best]):
        first = next(i for i, candidate in enumerate(order) if candidate is best)
        assert _refine_candidates(x, base, order)[0] == first
        assert refine_per_candidate(x, base, order)[0] == first


def test_nan_candidate_never_displaces_a_survivor():
    x, base, candidates = unimodal_round()
    # A covariance whose determinant is subnormal: -1/(2 det) overflows, and at the
    # data point it is centred on the density is -inf * 0, a NaN.
    spike = GaussianComponent(0.5, x[0], np.eye(2) * 1e-160)
    alone = _refine_candidates(x, base, [candidates[1]])
    with np.errstate(all="ignore"):
        for order in ([spike] * RACE_SURVIVORS + [candidates[1]], [spike, candidates[1]] + [spike] * RACE_SURVIVORS):
            index, refined, mixed = _refine_candidates(x, base, order)
            assert order[index] is candidates[1]
            assert mixed == alone[2]
        with pytest.raises(ValueError, match="All-NaN"):
            _refine_candidates(x, base, [spike] * (RACE_SURVIVORS + 1))


@pytest.mark.parametrize("case", ["one", "as many as survive", "as many as survive, best last", "all stop early"])
def test_round_the_race_cannot_cut_is_bitwise_the_pre_race_result(monkeypatch, case):
    x, base, candidates = unimodal_round()
    # Refined alone already, these stop after one iteration; FAR stops before any.
    converged = [_refine_candidates(x, base, [candidates[i]])[1] for i in (5, 0, 1, 6)]
    order = {
        "one": candidates[3:4],
        "as many as survive": candidates[:RACE_SURVIVORS],
        "as many as survive, best last": [candidates[5], candidates[1]][-RACE_SURVIVORS:],
        "all stop early": converged + [FAR],
    }[case]
    raced = _refine_candidates(x, base, order)
    # Before the race, every candidate refined to its own stop: a warm-up that never ends.
    monkeypatch.setattr(mixture, "RACE_WARMUP", EM_MAX_ITER)
    pre_race = _refine_candidates(x, base, order)
    assert raced[0] == pre_race[0] and raced[2] == pre_race[2]
    assert np.array_equal(component_rows(GmmModel("r", (raced[1],))), component_rows(GmmModel("r", (pre_race[1],))))


# Seeds on which a harsher cut of the candidate search loses a component:
# a 10-iteration warm-up (city seed 158, "north of"), a 3-iteration one (72,
# "near"), 5 survivors after 5 iterations (72), 5 or 3 candidates per
# component (3, "at") and 2 (five-lobe seeds 3 and 5).
@pytest.mark.parametrize("seed", [3, 5])
def test_race_keeps_all_five_lobes(seed):
    x = sample_mixture(FIVE_LOBES, 1000, np.random.default_rng(seed))
    assert greedy_train(x, "five lobes", TrainingConfig(max_components=5, seed=seed)).component_count == 5


@pytest.mark.parametrize("seed", [3, 72, 158])
def test_race_keeps_both_components_of_every_city_label(seed):
    for label, x in sample_training_data(2000, seed=seed).items():
        model = greedy_train(x, label, TrainingConfig(max_components=5, seed=derive_seed(seed, label)))
        assert model.component_count == 2, label


def floor_cases() -> list[np.ndarray]:
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(300):  # random SPD, some scaled below the floor
        a = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-4.0, 1.0)
        cases.append(a @ a.T)
    for _ in range(100):  # rank deficient
        v = rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, -1.0)
        cases.append(np.outer(v, v))
    for _ in range(100):  # both eigenvalues below the floor
        a = rng.normal(size=(2, 2))
        cases.append(a @ a.T * (0.5 * VARIANCE_FLOOR / np.linalg.eigvalsh(a @ a.T).max()))
    cases += [np.diag(d) for d in ((1.0, 2.0), (5e-5, 3.0), (2.0, 1e-6), (1e-5, 1e-6), (0.0, 0.0))]
    cases += [np.eye(2) * s for s in (1.0, VARIANCE_FLOOR, 3e-5, 0.0)]
    cases += [np.array([[1.0, 0.3], [0.30000000001, 2.0]])]  # slightly asymmetric
    return cases


def test_floor_covariance_matches_eigh_oracle():
    cases = floor_cases()
    stacked = _floor_covariance(np.stack(cases))
    for cov, batched in zip(cases, stacked):
        out = _floor_covariance(cov)
        assert np.array_equal(out, batched)
        assert out[0, 1] == out[1, 0]
        assert np.linalg.eigvalsh(out).min() >= VARIANCE_FLOOR * (1.0 - 1e-12)
        symmetric = (cov + cov.T) / 2.0
        if np.linalg.eigvalsh(symmetric).min() >= VARIANCE_FLOOR * (1.0 + 1e-12):
            assert np.array_equal(out, symmetric)
        np.testing.assert_allclose(out, eigh_floor(cov), rtol=0.0, atol=1e-15 * max(1.0, np.abs(cov).max()))


@pytest.mark.parametrize(
    "cov",
    [
        [[1.0, 2.0], [2.0, 1.0]],  # indefinite
        [[1.0, 1.0], [1.0, 1.0]],  # singular
        [[0.0, 0.0], [0.0, 1.0]],
        [[0.0, 0.0], [0.0, 0.0]],
        [[-1.0, 0.0], [0.0, -2.0]],  # positive determinant, negative definite
    ],
)
def test_density_rejects_covariance_that_is_not_positive_definite(cov):
    with pytest.raises(InvalidParameterError, match="positive definite"):
        GmmModel("near", (GaussianComponent(0.5, [1.0, 90.0], cov),))
    with pytest.raises(InvalidParameterError, match="positive definite"):
        GmmModel("near", (GaussianComponent(0.5, [0.0, 0.0], np.eye(2)), GaussianComponent(0.5, [1.0, 90.0], cov)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_training_rejects_non_finite_rows_by_index(bad):
    x = pair_data(20, 1.0, seed=4)
    x[3, 1] = bad
    x[7, 0] = bad
    model = GmmModel("r", (GaussianComponent(1.0, [50.0, 90.0], np.eye(2)),))
    cfg = TrainingConfig(max_components=2)
    calls = (
        lambda: greedy_train(x, "r", cfg),
        lambda: em_fit(x, model),
        lambda: generate_candidates(x, model, np.random.default_rng(0)),
        # gmm_log_likelihood used to return nan here.
        lambda: gmm_log_likelihood(x, model),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match=r"row 3 is not finite") as info:
                call()
            assert not isinstance(info.value, InvalidParameterError)
