"""Two-dimensional Gaussian mixture models over (distance, orientation).

Density of one component:

    g(x; mu, S) = (2 pi)^-1 |S|^-1/2 exp(-(x - mu)^T S^-1 (x - mu) / 2)

and a mixture scores log L(X) = sum_j log sum_i w_i g(x_j; mu_i, S_i),
evaluated in log space with log-sum-exp throughout. Training is classic EM
plus a greedy growth loop: starting from the single-component fit, partition
the data by maximum responsibility, propose candidate components from random
pair midpoints inside each partition, tune each candidate with partial EM
(existing components frozen), insert the one that maximizes the mixed
log-likelihood, refit with full EM, and keep going while the refit
log-likelihood clears an acceptance margin and the component budget allows.
The margin is what makes growth stop on unimodal data: an extra component
buys only a sampling-noise improvement there, far below ``accept_tol``
relative, while real structure buys orders of magnitude more.

Covariances are kept positive definite by clamping eigenvalues to
``VARIANCE_FLOOR``. Orientation is treated as a plain linear coordinate; a
cluster straddling the 0/360 wrap simply ends up split across components.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianComponent",
    "GmmModel",
    "InsufficientDataError",
    "InvalidParameterError",
    "TrainingConfig",
    "VARIANCE_FLOOR",
    "derive_seed",
    "em_fit",
    "gaussian_pdf",
    "generate_candidates",
    "gmm_log_likelihood",
    "greedy_train",
]

VARIANCE_FLOOR = 1e-4

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_HALF = math.log(0.5)


class InsufficientDataError(ValueError):
    """Raised when a fit is attempted with fewer points than components."""


class InvalidParameterError(ValueError):
    """Raised for malformed mixture parameters (weights, covariances)."""


@dataclass(frozen=True)
class GaussianComponent:
    """One weighted bivariate Gaussian."""

    weight: float
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float).reshape(2)
        cov = np.array(self.covariance, dtype=float).reshape(2, 2)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        values = mean.tolist() + cov.ravel().tolist()
        if not all(map(math.isfinite, values)):
            raise InvalidParameterError(f"mean and covariance must be finite: {values}")
        if not (0.0 < self.weight <= 1.0):
            raise InvalidParameterError(f"weight must lie in (0, 1]: {self.weight}")
        # np.allclose(cov, cov.T, atol=1e-9) on the off-diagonal pair, without its overhead.
        c01, c10 = values[3], values[4]
        if abs(c01 - c10) > 1e-9 + 1e-5 * min(abs(c01), abs(c10)):
            raise InvalidParameterError("covariance must be symmetric")


@dataclass(frozen=True)
class GmmModel:
    """A Gaussian mixture tied to one relation label."""

    relation: str
    components: tuple[GaussianComponent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise InvalidParameterError("a model needs at least one component")

    @property
    def component_count(self) -> int:
        return len(self.components)

    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])

    def validate(self) -> None:
        """Check weight normalization and covariance floors."""
        total = math.fsum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-9:
            raise InvalidParameterError(f"weights sum to {total}, expected 1")
        for c in self.components:
            eigvals = np.linalg.eigvalsh(c.covariance)
            if eigvals.min() < VARIANCE_FLOOR * (1.0 - 1e-6):
                raise InvalidParameterError(
                    f"covariance eigenvalue {eigvals.min()} below floor {VARIANCE_FLOOR}"
                )

    def logpdf(self, points) -> np.ndarray:
        """Log mixture density at each row of ``points`` (n, 2)."""
        return _logsumexp(_log_responsibilities(_as_points(points), *_model_arrays(self)))

    def pdf(self, points) -> np.ndarray:
        return np.exp(self.logpdf(points))


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs for EM and the greedy growth loop."""

    max_components: int = 5
    candidates_per_component: int = 10
    em_tol: float = 1e-6
    em_max_iter: int = 200
    accept_tol: float = 1e-2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_components < 1:
            raise ValueError("max_components must be >= 1")
        if self.candidates_per_component < 1:
            raise ValueError("candidates_per_component must be >= 1")
        if self.em_tol <= 0.0 or self.em_max_iter < 1:
            raise ValueError("em_tol must be > 0 and em_max_iter >= 1")
        if self.accept_tol < 0.0:
            raise ValueError("accept_tol must be >= 0")


def derive_seed(base_seed: int, relation: str) -> int:
    """Stable per-relation seed for trainers running side by side."""
    return base_seed ^ zlib.crc32(relation.encode("utf-8"))


def _as_points(data) -> np.ndarray:
    x = np.asarray(data, dtype=float)
    if x.ndim == 1 and x.size == 2:
        x = x.reshape(1, 2)
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError(f"expected (n, 2) data, got shape {x.shape}")
    return x


def _component_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise InvalidParameterError(f"covariance not positive definite: {cov.tolist()}") from exc
    # Forward substitution L z = x - mean on the 2x2 Cholesky factor L.
    diff = x - mean
    z0 = diff[:, 0] / chol[0, 0]
    z1 = (diff[:, 1] - chol[1, 0] * z0) / chol[1, 1]
    return -_LOG_2PI - math.log(chol[0, 0] * chol[1, 1]) - 0.5 * (z0 * z0 + z1 * z1)


def _logsumexp(stacked: np.ndarray) -> np.ndarray:
    """log(sum(exp(stacked), axis=0)); a column that is all -inf stays -inf."""
    peak = stacked.max(axis=0)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(stacked - shift).sum(axis=0)) + shift


def gaussian_pdf(x, component: GaussianComponent) -> float:
    """Density of one component at ``x``, ignoring its mixture weight."""
    point = _as_points(x)
    if point.shape[0] != 1:
        raise ValueError("gaussian_pdf evaluates a single 2-vector")
    return float(np.exp(_component_logpdf(point, component.mean, component.covariance))[0])


def gmm_log_likelihood(data, model: GmmModel) -> float:
    """Total log-likelihood of ``data`` under ``model``.

    Points with zero density under every component contribute -inf, which
    propagates to the returned value rather than raising.
    """
    x = _as_points(data)
    if x.shape[0] == 0:
        raise ValueError("data must be non-empty")
    return float(np.sum(model.logpdf(x)))


def _floor_covariance(cov: np.ndarray) -> np.ndarray:
    cov = (cov + cov.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals.min() >= VARIANCE_FLOOR:
        return cov
    eigvals = np.maximum(eigvals, VARIANCE_FLOOR)
    floored = (eigvecs * eigvals) @ eigvecs.T
    return (floored + floored.T) / 2.0


def _model_arrays(model: GmmModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    weights = np.array([c.weight for c in model.components])
    means = np.stack([c.mean for c in model.components])
    covs = np.stack([c.covariance for c in model.components])
    return weights, means, covs


def _model_from_arrays(
    relation: str, weights: np.ndarray, means: np.ndarray, covs: np.ndarray
) -> GmmModel:
    weights = weights / weights.sum()
    components = tuple(
        GaussianComponent(float(w), m, c) for w, m, c in zip(weights, means, covs)
    )
    return GmmModel(relation, components)


def _log_responsibilities(
    x: np.ndarray, weights: np.ndarray, means: np.ndarray, covs: np.ndarray
) -> np.ndarray:
    return np.stack(
        [
            math.log(w) + _component_logpdf(x, m, c)
            for w, m, c in zip(weights, means, covs)
        ]
    )


def em_fit(data, model: GmmModel, cfg: TrainingConfig, history: list[float] | None = None) -> GmmModel:
    """Run EM from ``model`` until the log-likelihood improvement stalls.

    Stops when the per-iteration gain drops to ``cfg.em_tol`` relative or
    after ``cfg.em_max_iter`` iterations. When ``history`` is supplied, the
    log-likelihood observed at the start of every iteration is appended to
    it (a non-decreasing sequence up to floating-point noise, since each
    M-step maximizes the EM lower bound).
    """
    x = _as_points(data)
    n = x.shape[0]
    if n < model.component_count:
        raise InsufficientDataError(
            f"{n} points cannot support {model.component_count} components"
        )
    weights, means, covs = _model_arrays(model)
    previous = None
    for _ in range(cfg.em_max_iter):
        log_joint = _log_responsibilities(x, weights, means, covs)
        log_norm = _logsumexp(log_joint)
        loglik = float(log_norm.sum())
        if history is not None:
            history.append(loglik)
        if previous is not None and loglik - previous <= cfg.em_tol * max(1.0, abs(loglik)):
            break
        previous = loglik

        resp = np.exp(log_joint - log_norm)
        counts = np.maximum(resp.sum(axis=1), 1e-10)
        means = (resp @ x) / counts[:, None]
        for k in range(len(weights)):
            diff = x - means[k]
            covs[k] = _floor_covariance((resp[k] * diff.T) @ diff / counts[k])
        weights = counts / counts.sum()
    return _model_from_arrays(model.relation, weights, means, covs)


def generate_candidates(
    data, model: GmmModel, cfg: TrainingConfig, rng: np.random.Generator | None = None
) -> list[GaussianComponent]:
    """Propose insertion candidates from max-responsibility partitions.

    Each partition with at least two points yields
    ``cfg.candidates_per_component`` candidates whose mean is the midpoint
    of a random point pair and whose covariance is the partition sample
    covariance scaled by 1/2 (floored). Candidates carry the insertion
    weight 1/2.
    """
    x = _as_points(data)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    weights, means, covs = _model_arrays(model)
    assignment = np.argmax(_log_responsibilities(x, weights, means, covs), axis=0)
    candidates: list[GaussianComponent] = []
    for k in range(model.component_count):
        partition = x[assignment == k]
        if partition.shape[0] < 2:
            continue
        scaled = _floor_covariance(0.5 * np.cov(partition.T, ddof=0))
        for _ in range(cfg.candidates_per_component):
            i, j = rng.choice(partition.shape[0], size=2, replace=False)
            midpoint = (partition[i] + partition[j]) / 2.0
            candidates.append(GaussianComponent(0.5, midpoint, scaled))
    return candidates


def _refine_candidate(
    x: np.ndarray, base_logpdf: np.ndarray, candidate: GaussianComponent, cfg: TrainingConfig
) -> tuple[GaussianComponent, float]:
    """Partial EM on one candidate with the current mixture frozen.

    Optimizes the candidate's mixing weight, mean, and covariance against
    the mixed density (1 - a) p_current + a g_candidate, leaving the
    current components untouched. Returns the tuned candidate and the
    mixed log-likelihood it attains.
    """
    n = x.shape[0]
    alpha = candidate.weight
    mean = candidate.mean
    cov = candidate.covariance
    cand_logpdf = _component_logpdf(x, mean, cov)
    log_mix = np.logaddexp(math.log1p(-alpha) + base_logpdf, math.log(alpha) + cand_logpdf)
    loglik = float(log_mix.sum())
    for _ in range(cfg.em_max_iter):
        resp = np.exp(math.log(alpha) + cand_logpdf - log_mix)
        total = resp.sum()
        if total < 1e-10:
            break
        alpha = min(max(total / n, 1e-10), 1.0 - 1e-10)
        mean = (resp @ x) / total
        diff = x - mean
        cov = _floor_covariance((resp * diff.T) @ diff / total)
        cand_logpdf = _component_logpdf(x, mean, cov)
        log_mix = np.logaddexp(math.log1p(-alpha) + base_logpdf, math.log(alpha) + cand_logpdf)
        updated = float(log_mix.sum())
        if updated - loglik <= cfg.em_tol * max(1.0, abs(updated)):
            loglik = updated
            break
        loglik = updated
    return GaussianComponent(float(alpha), mean, cov), loglik


def _insert_component(model: GmmModel, candidate: GaussianComponent) -> GmmModel:
    keep = 1.0 - candidate.weight
    rescaled = tuple(
        GaussianComponent(c.weight * keep, c.mean, c.covariance) for c in model.components
    )
    return GmmModel(model.relation, rescaled + (candidate,))


def greedy_train(data, relation: str, cfg: TrainingConfig) -> GmmModel:
    """Grow a mixture one component at a time while the fit improves.

    Starts from the EM-converged single-component model. Each round tunes
    every candidate with partial EM (current components frozen, candidate
    weight starting at 1/2), inserts the one with the best mixed
    log-likelihood, refits with full EM, and accepts the grown model only
    when it clears ``cfg.accept_tol`` relative improvement; otherwise the
    previous model is returned. Identical data, config, and seed reproduce
    the model bit for bit.
    """
    x = _as_points(data)
    if x.shape[0] < 2:
        raise InsufficientDataError("greedy training needs at least 2 points")
    rng = np.random.default_rng(cfg.seed)

    start = GmmModel(
        relation,
        (GaussianComponent(1.0, x.mean(axis=0), _floor_covariance(np.cov(x.T, ddof=0))),),
    )
    current = em_fit(x, start, cfg)
    current_ll = gmm_log_likelihood(x, current)

    while current.component_count < cfg.max_components and x.shape[0] > current.component_count:
        candidates = generate_candidates(x, current, cfg, rng=rng)
        if not candidates:
            break
        base = current.logpdf(x)
        best: GaussianComponent | None = None
        best_mixed = -np.inf
        for candidate in candidates:
            refined, mixed = _refine_candidate(x, base, candidate, cfg)
            if mixed > best_mixed:
                best_mixed = mixed
                best = refined
        grown = em_fit(x, _insert_component(current, best), cfg)
        grown_ll = gmm_log_likelihood(x, grown)
        if grown_ll <= current_ll + cfg.accept_tol * max(1.0, abs(current_ll)):
            break
        current, current_ll = grown, grown_ll
    return current
