"""Two-dimensional Gaussian mixture models over (distance, orientation).

Density of one component:

    g(x; mu, S) = (2 pi)^-1 |S|^-1/2 exp(-(x - mu)^T S^-1 (x - mu) / 2)

and a mixture scores log L(X) = sum_j log sum_i w_i g(x_j; mu_i, S_i),
evaluated in log space with log-sum-exp throughout. Training is classic EM
plus a greedy growth loop (Verbeek, Vlassis & Krose, Neural Computation
2003): starting from the single-component fit, partition the data by maximum
responsibility, propose candidate components from random pair midpoints
inside each partition, tune the candidates with partial EM (existing
components frozen), insert the one that maximizes the mixed log-likelihood,
refit with full EM, and keep going while the refit log-likelihood clears an
acceptance margin and the component budget allows. The margin is what makes
growth stop on unimodal data: an extra component buys only a sampling-noise
improvement there, far below ``ACCEPT_TOL`` relative, while real structure
buys orders of magnitude more. EM and partial EM stop when an iteration
gains at most ``EM_TOL`` relative, or after ``EM_MAX_ITER`` iterations.

A round's candidates are tuned in lockstep as (candidates, points) arrays;
each stops on its own gain, as it would alone, and then leaves the arrays.
The 2x2 covariance maths is closed form, vectorized over components or
candidates: determinant and quadratic form for densities, eigenvalues
(a + c)/2 +- hypot((a - c)/2, b) for the floor, which clamps them to
``VARIANCE_FLOOR``. Orientation is treated as a plain linear coordinate; a
cluster straddling the 0/360 wrap simply ends up split across components.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ACCEPT_TOL",
    "EM_MAX_ITER",
    "EM_TOL",
    "GaussianComponent",
    "GmmModel",
    "InsufficientDataError",
    "InvalidParameterError",
    "TrainingConfig",
    "VARIANCE_FLOOR",
    "derive_seed",
    "em_fit",
    "generate_candidates",
    "gmm_log_likelihood",
    "greedy_train",
]

VARIANCE_FLOOR = 1e-4
EM_TOL = 1e-6
EM_MAX_ITER = 200
ACCEPT_TOL = 1e-2

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
        mid, _, _, radius = _eigen_form(_arrays(self.components)[2])
        lowest = float((mid - radius).min())
        if lowest < VARIANCE_FLOOR * (1.0 - 1e-6):
            raise InvalidParameterError(f"covariance eigenvalue {lowest} below floor {VARIANCE_FLOOR}")

    def logpdf(self, points) -> np.ndarray:
        """Log mixture density at each row of ``points`` (n, 2)."""
        return _logsumexp(_log_responsibilities(_as_points(points), *_arrays(self.components)))

    def pdf(self, points) -> np.ndarray:
        return np.exp(self.logpdf(points))


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs for the greedy growth loop."""

    max_components: int = 5
    candidates_per_component: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_components < 1:
            raise ValueError("max_components must be >= 1")
        if self.candidates_per_component < 1:
            raise ValueError("candidates_per_component must be >= 1")


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


def _training_points(data) -> np.ndarray:
    """``_as_points`` for training data, rejecting a row with a NaN or infinity by index."""
    x = _as_points(data)
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"training data row {row} is not finite: {x[row].tolist()}")
    return x


def _offset_logpdf(dx: np.ndarray, dy: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Log density of N(0, cov) at the offsets (dx, dy), each (..., n).

    With cov = [[a, b], [b, c]] and det = ac - b^2 the quadratic form is
    (c dx^2 - 2b dx dy + a dy^2) / det. The formula would not fail on a
    covariance that is not positive definite, so a > 0 and det > 0 are checked.
    """
    a, b, c = cov[..., 0, 0], cov[..., 1, 0], cov[..., 1, 1]
    det = a * c - b * b
    if not (np.all(a > 0.0) and np.all(det > 0.0)):
        raise InvalidParameterError(f"covariance not positive definite: {cov.tolist()}")
    scale = -0.5 / det
    out = (c * scale)[..., None] * dx
    out += (b / det)[..., None] * dy
    out *= dx
    out += (a * scale)[..., None] * (dy * dy)
    out += (-_LOG_2PI - 0.5 * np.log(det))[..., None]
    return out


def _logsumexp(stacked: np.ndarray) -> np.ndarray:
    """log(sum(exp(stacked), axis=0)); a column that is all -inf stays -inf."""
    peak = stacked.max(axis=0)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(stacked - shift).sum(axis=0)) + shift


def gmm_log_likelihood(data, model: GmmModel) -> float:
    """Total log-likelihood of ``data`` under ``model``.

    Points with zero density under every component contribute -inf, which
    propagates to the returned value rather than raising.
    """
    x = _as_points(data)
    if x.shape[0] == 0:
        raise ValueError("data must be non-empty")
    return float(np.sum(model.logpdf(x)))


def _eigen_form(cov: np.ndarray) -> tuple[np.ndarray, ...]:
    """(mid, h, b, r): cov = mid I + [[h, b], [b, -h]] has eigenvalues mid -+ r, r = hypot(h, b)."""
    a, b, c = cov[..., 0, 0], cov[..., 1, 0], cov[..., 1, 1]
    half_gap = (a - c) / 2.0
    return (a + c) / 2.0, half_gap, b, np.hypot(half_gap, b)


def _floor_covariance(cov: np.ndarray) -> np.ndarray:
    """Symmetrize 2x2 covariances (..., 2, 2) and clamp their eigenvalues to VARIANCE_FLOOR.

    A matrix already above the floor comes back as its symmetrized input.
    Otherwise it is rebuilt as lo' P_lo + hi' P_hi from the clamped
    eigenvalues and the eigenvector projectors, where P_hi - P_lo is
    [[h, b], [b, -h]] / r (any rotation will do when r = 0).
    """
    cov = (cov + np.swapaxes(cov, -1, -2)) / 2.0
    mid, half_gap, b, radius = _eigen_form(cov)
    above = mid - radius >= VARIANCE_FLOOR
    if np.all(above):
        return cov
    low = np.maximum(mid - radius, VARIANCE_FLOOR)
    high = np.maximum(mid + radius, VARIANCE_FLOOR)
    centre = (high + low) / 2.0
    spread = (high - low) / 2.0 / np.where(radius > 0.0, radius, 1.0)
    floored = np.stack(
        [centre + spread * half_gap, spread * b, spread * b, centre - spread * half_gap], axis=-1
    ).reshape(cov.shape)
    return np.where(above[..., None, None], cov, floored)


def _arrays(components) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    weights = np.array([c.weight for c in components])
    means = np.stack([c.mean for c in components])
    covs = np.stack([c.covariance for c in components])
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
    """log w_k + log g_k at each point: (K, n) for ``x`` (n, 2)."""
    return np.log(weights)[:, None] + _offset_logpdf(x[:, 0] - means[:, :1], x[:, 1] - means[:, 1:], covs)


def _m_step(resp: np.ndarray, x: np.ndarray, totals: np.ndarray) -> tuple[np.ndarray, ...]:
    """Means (K, 2), floored covariances (K, 2, 2) and offsets dx, dy (K, n) from the means.

    Row k of ``resp`` (K, n) weights the points and sums to ``totals[k]``.
    Each sum is a dot product along one row, so no row's result depends on
    the rows beside it.
    """
    x0, x1 = np.ascontiguousarray(x.T)
    means = np.stack([np.vecdot(resp, x0), np.vecdot(resp, x1)], axis=-1) / totals[:, None]
    dx = x0 - means[:, :1]
    dy = x1 - means[:, 1:]
    weighted = resp * dx
    s00, s01 = np.vecdot(weighted, dx), np.vecdot(weighted, dy)
    np.multiply(resp, dy, out=weighted)
    s11 = np.vecdot(weighted, dy)
    covs = np.stack([s00, s01, s01, s11], axis=-1).reshape(-1, 2, 2) / totals[:, None, None]
    return means, _floor_covariance(covs), dx, dy


def em_fit(data, model: GmmModel, history: list[float] | None = None) -> GmmModel:
    """Run EM from ``model`` until the log-likelihood improvement stalls.

    Stops when the per-iteration gain drops to ``EM_TOL`` relative or
    after ``EM_MAX_ITER`` iterations. When ``history`` is supplied, the
    log-likelihood observed at the start of every iteration is appended to
    it (a non-decreasing sequence up to floating-point noise, since each
    M-step maximizes the EM lower bound).
    """
    x = _training_points(data)
    n = x.shape[0]
    if n < model.component_count:
        raise InsufficientDataError(
            f"{n} points cannot support {model.component_count} components"
        )
    weights, means, covs = _arrays(model.components)
    previous = None
    for _ in range(EM_MAX_ITER):
        log_joint = _log_responsibilities(x, weights, means, covs)
        log_norm = _logsumexp(log_joint)
        loglik = float(log_norm.sum())
        if history is not None:
            history.append(loglik)
        if previous is not None and loglik - previous <= EM_TOL * max(1.0, abs(loglik)):
            break
        previous = loglik

        resp = np.exp(log_joint - log_norm)
        counts = np.maximum(resp.sum(axis=1), 1e-10)
        means, covs, _, _ = _m_step(resp, x, counts)
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
    x = _training_points(data)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    weights, means, covs = _arrays(model.components)
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


def _refine_candidates(
    x: np.ndarray, base_logpdf: np.ndarray, candidates: list[GaussianComponent]
) -> tuple[int, GaussianComponent, float]:
    """Partial EM on all of a round's candidates at once, the current mixture frozen.

    Candidate k tunes its weight a, mean and covariance against the mixed
    density (1 - a) p + a g_k, where log p = ``base_logpdf``. With
    d = log a + log g_k - log(1 - a) - log p per point, its responsibilities
    are sigmoid(d) and its mixed log-likelihood is
    sum(log p) + n log(1 - a) + sum(softplus(d)). Each candidate stops as it
    would alone: when its gain falls to ``EM_TOL`` relative (keeping that
    update) or its total responsibility drops below 1e-10 (keeping the one
    before); it then leaves the live arrays. Returns the index, component and
    mixed log-likelihood of the first maximum: a tie goes to the earlier
    candidate and a NaN never wins.
    """
    n = x.shape[0]
    base_total = float(base_logpdf.sum())
    weights, means, covs = _arrays(candidates)

    def mix(weights, covs, dx, dy):
        d = _offset_logpdf(dx, dy, covs)
        d += (np.log(weights) - np.log1p(-weights))[:, None]
        d -= base_logpdf
        # Clamping d at -700 changes softplus(d) and sigmoid(d) by under
        # 1e-300. Then e = exp(-d) is finite, softplus(d) = d + log(1 + e) and
        # sigmoid(d) = 1 / (1 + e): one exp and one log per point.
        np.maximum(d, -700.0, out=d)
        loglik = base_total + n * np.log1p(-weights) + d.sum(axis=1)
        np.exp(np.negative(d, out=d), out=d)
        d += 1.0
        loglik += np.log(d).sum(axis=1)
        return np.reciprocal(d, out=d), loglik

    resp, loglik = mix(weights, covs, x[:, 0] - means[:, :1], x[:, 1] - means[:, 1:])
    mixed = loglik.copy()
    live = np.arange(len(candidates))
    for _ in range(EM_MAX_ITER):
        totals = resp.sum(axis=1)
        keep = totals >= 1e-10
        live, resp, totals, loglik = live[keep], resp[keep], totals[keep], loglik[keep]
        step_weights = np.clip(totals / n, 1e-10, 1.0 - 1e-10)
        step_means, step_covs, dx, dy = _m_step(resp, x, totals)
        resp, updated = mix(step_weights, step_covs, dx, dy)
        weights[live], means[live], covs[live], mixed[live] = step_weights, step_means, step_covs, updated
        keep = updated - loglik > EM_TOL * np.maximum(1.0, np.abs(updated))
        live, resp, loglik = live[keep], resp[keep], updated[keep]
        if live.size == 0:
            break
    best = int(np.nanargmax(mixed))
    return best, GaussianComponent(float(weights[best]), means[best], covs[best]), float(mixed[best])


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
    log-likelihood (the first on a tie), refits with full EM, and accepts
    the grown model only when it clears ``ACCEPT_TOL`` relative
    improvement; otherwise the previous model is returned. Identical data, config, and seed reproduce
    the model bit for bit.
    """
    x = _training_points(data)
    if x.shape[0] < 2:
        raise InsufficientDataError("greedy training needs at least 2 points")
    rng = np.random.default_rng(cfg.seed)

    start = GmmModel(
        relation,
        (GaussianComponent(1.0, x.mean(axis=0), _floor_covariance(np.cov(x.T, ddof=0))),),
    )
    current = em_fit(x, start)
    current_ll = gmm_log_likelihood(x, current)

    while current.component_count < cfg.max_components and x.shape[0] > current.component_count:
        candidates = generate_candidates(x, current, cfg, rng=rng)
        if not candidates:
            break
        _, best, _ = _refine_candidates(x, current.logpdf(x), candidates)
        grown = em_fit(x, _insert_component(current, best))
        grown_ll = gmm_log_likelihood(x, grown)
        if grown_ll <= current_ll + ACCEPT_TOL * max(1.0, abs(current_ll)):
            break
        current, current_ll = grown, grown_ll
    return current
