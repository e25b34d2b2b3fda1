"""Two-dimensional Gaussian mixture models over (distance, orientation).

Density of one component:

    g(x; mu, S) = (2 pi)^-1 |S|^-1/2 exp(-(x - mu)^T S^-1 (x - mu) / 2)

and a mixture scores log L(X) = sum_j log sum_i w_i g(x_j; mu_i, S_i),
evaluated in log space with log-sum-exp throughout. Training is classic EM
plus a greedy growth loop (Verbeek, Vlassis & Krose, Neural Computation
2003): starting from the single-component fit, partition the data by maximum
responsibility, propose ``CANDIDATES_PER_COMPONENT`` candidates per partition
from random pair midpoints inside it, tune them with partial EM (existing
components frozen), insert the one that maximizes the mixed log-likelihood,
refit with full EM, and keep going while the refit log-likelihood clears an
acceptance margin and the component budget allows. The margin is what makes
growth stop on unimodal data: an extra component buys only a sampling-noise
improvement there, far below ``ACCEPT_TOL`` relative, while real structure
buys orders of magnitude more. EM and partial EM stop when an iteration
gains at most ``EM_TOL`` relative, or after ``EM_MAX_ITER`` iterations.

A round's candidates race (successive halving, Jamieson & Talwalkar, AISTATS
2016): all are tuned in lockstep as (candidates, points) arrays for
``RACE_WARMUP`` iterations, then only the ``RACE_SURVIVORS`` best by mixed
log-likelihood go on; each stops on its own gain, as it would alone, and then
leaves the arrays.
Every density is one form: ``_density_terms`` builds it (a model once, on
first use; EM and refinement per iteration) and ``_log_joint`` evaluates it,
with ``GmmModel.logpdf(distance, orientation)`` its log-sum-exp.
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
from functools import cached_property

import numpy as np

__all__ = [
    "ACCEPT_TOL",
    "CANDIDATES_PER_COMPONENT",
    "EM_MAX_ITER",
    "EM_TOL",
    "GaussianComponent",
    "GmmModel",
    "InsufficientDataError",
    "InvalidParameterError",
    "RACE_SURVIVORS",
    "RACE_WARMUP",
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
CANDIDATES_PER_COMPONENT = 10
RACE_WARMUP = 20
RACE_SURVIVORS = 2

_LOG_2PI = math.log(2.0 * math.pi)


class InsufficientDataError(ValueError):
    """Raised when a fit is attempted with fewer points than components."""


class InvalidParameterError(ValueError):
    """Raised for malformed mixture parameters (weights, covariances)."""


@dataclass(frozen=True)
class GaussianComponent:
    """One weighted bivariate Gaussian; its covariance must be positive definite."""

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
        a, c01, c10, c = values[2:]
        if abs(c01 - c10) > 1e-9 + 1e-5 * min(abs(c01), abs(c10)):
            raise InvalidParameterError("covariance must be symmetric")
        if not (a > 0.0 and a * c - c10 * c10 > 0.0):
            raise InvalidParameterError(f"covariance not positive definite: {cov.tolist()}")


@dataclass(frozen=True)
class GmmModel:
    """A Gaussian mixture tied to one relation label."""

    relation: str
    components: tuple[GaussianComponent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if not self.relation:
            raise InvalidParameterError("relation label must be non-empty")
        if not self.components:
            raise InvalidParameterError("a model needs at least one component")

    @cached_property
    def _density(self) -> tuple[np.ndarray, ...]:
        """``_density_terms`` of the components, built on first use and kept."""
        weights, means, covs = _arrays(self.components)
        return _density_terms(np.log(weights), means, covs)

    @property
    def component_count(self) -> int:
        return len(self.components)

    def validate(self) -> None:
        """Check weight normalization and covariance floors."""
        total = math.fsum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-9:
            raise InvalidParameterError(f"weights sum to {total}, expected 1")
        mid, _, _, radius = _eigen_form(_arrays(self.components)[2])
        lowest = float((mid - radius).min())
        if lowest < VARIANCE_FLOOR * (1.0 - 1e-6):
            raise InvalidParameterError(f"covariance eigenvalue {lowest} below floor {VARIANCE_FLOOR}")

    def logpdf(self, distance, orientation) -> np.ndarray:
        """Log mixture density (n,) at the points of the (n,) coordinate arrays."""
        if np.ndim(distance) != 1 or np.shape(distance) != np.shape(orientation):
            raise ValueError(f"expected two (n,) arrays, got {np.shape(distance)} and {np.shape(orientation)}")
        terms = self._density
        return _logsumexp(_log_joint(distance - terms[1], orientation - terms[2], terms))


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs for the greedy growth loop."""

    max_components: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_components < 1:
            raise ValueError("max_components must be >= 1")


def derive_seed(base_seed: int, relation: str) -> int:
    """Stable per-relation seed for trainers running side by side."""
    return base_seed ^ zlib.crc32(relation.encode("utf-8"))


def _points(data) -> np.ndarray:
    """``data`` as an (n, 2) float array, rejecting a row with a NaN or infinity by index."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError(f"expected (n, 2) data, got shape {x.shape}")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"data row {row} is not finite: {x[row].tolist()}")
    return x


def _density_terms(log_weights: np.ndarray, means: np.ndarray, covs: np.ndarray) -> tuple[np.ndarray, ...]:
    """(log w, mean distance, mean orientation, c s, b / det, a s, -log 2 pi - log(det) / 2), each (K, 1).

    With cov = [[a, b], [b, c]], det = ac - b^2 and s = -1/(2 det), the log density at offset (dx, dy)
    is (c s dx + (b / det) dy) dx + a s dy^2 - log 2 pi - log(det) / 2; a > 0 and det > 0 are checked.
    """
    a, b, c = covs[:, 0, :1], covs[:, 1, :1], covs[:, 1, 1:]
    det = a * c - b * b
    if not np.minimum(a, det).min() > 0.0:  # a > 0 and det > 0; a NaN fails too
        raise InvalidParameterError(f"covariance not positive definite: {covs.tolist()}")
    scale = -0.5 / det
    log_norm = -_LOG_2PI - 0.5 * np.log(det)
    return log_weights[:, None], means[:, :1], means[:, 1:], c * scale, b / det, a * scale, log_norm


def _log_joint(dx: np.ndarray, dy: np.ndarray, terms: tuple[np.ndarray, ...]) -> np.ndarray:
    """log w_k + log g_k (K, n) at the offsets dx, dy (K, n) of each point from mean k."""
    log_weights, _, _, c_s, b_det, a_s, log_norm = terms
    out = c_s * dx
    out += b_det * dy
    out *= dx
    out += a_s * (dy * dy)
    out += log_norm
    return log_weights + out


def _logsumexp(stacked: np.ndarray) -> np.ndarray:
    """log(sum(exp(stacked), axis=0)); a column that is all -inf stays -inf."""
    peak = stacked.max(axis=0)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(stacked - shift).sum(axis=0)) + shift


def gmm_log_likelihood(data, model: GmmModel) -> float:
    """Total log-likelihood of ``data`` under ``model``.

    Points with zero density under every component contribute -inf, which
    propagates to the returned value rather than raising; a row with a NaN
    or infinity raises ``ValueError`` naming it.
    """
    x = _points(data)
    if x.shape[0] == 0:
        raise ValueError("data must be non-empty")
    return float(np.sum(model.logpdf(*x.T)))


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
    means = np.array([c.mean for c in components])
    covs = np.array([c.covariance for c in components])
    return weights, means, covs


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


def em_fit(data, model: GmmModel) -> GmmModel:
    """Run EM from ``model`` until the log-likelihood improvement stalls.

    Stops when the per-iteration gain drops to ``EM_TOL`` relative or
    after ``EM_MAX_ITER`` iterations. Each M-step maximizes the EM lower
    bound, so the log-likelihood never falls, up to floating-point noise.
    """
    x = _points(data)
    n = x.shape[0]
    if n < model.component_count:
        raise InsufficientDataError(
            f"{n} points cannot support {model.component_count} components"
        )
    terms = model._density
    dx, dy = x[:, 0] - terms[1], x[:, 1] - terms[2]
    previous = None
    for _ in range(EM_MAX_ITER):
        log_joint = _log_joint(dx, dy, terms)
        log_norm = _logsumexp(log_joint)
        loglik = float(log_norm.sum())
        if previous is not None and loglik - previous <= EM_TOL * max(1.0, abs(loglik)):
            break
        previous = loglik

        resp = np.exp(log_joint - log_norm)
        counts = np.maximum(resp.sum(axis=1), 1e-10)
        means, covs, dx, dy = _m_step(resp, x, counts)
        weights = counts / counts.sum()
        terms = _density_terms(np.log(weights), means, covs)
    weights = weights / weights.sum()
    components = tuple(GaussianComponent(float(w), m, c) for w, m, c in zip(weights, means, covs))
    return GmmModel(model.relation, components)


def generate_candidates(data, model: GmmModel, rng: np.random.Generator) -> list[GaussianComponent]:
    """Propose insertion candidates from max-responsibility partitions.

    Each partition with at least two points yields
    ``CANDIDATES_PER_COMPONENT`` candidates whose mean is the midpoint
    of a random point pair and whose covariance is the partition sample
    covariance scaled by 1/2 (floored). Candidates carry the insertion
    weight 1/2.
    """
    x = _points(data)
    terms = model._density
    assignment = np.argmax(_log_joint(x[:, 0] - terms[1], x[:, 1] - terms[2], terms), axis=0)
    candidates: list[GaussianComponent] = []
    for k in range(model.component_count):
        partition = x[assignment == k]
        if partition.shape[0] < 2:
            continue
        scaled = _floor_covariance(0.5 * np.cov(partition.T, ddof=0))
        for _ in range(CANDIDATES_PER_COMPONENT):
            i, j = rng.choice(partition.shape[0], size=2, replace=False)
            midpoint = (partition[i] + partition[j]) / 2.0
            candidates.append(GaussianComponent(0.5, midpoint, scaled))
    return candidates


def _refine_candidates(
    x: np.ndarray, base_logpdf: np.ndarray, candidates: list[GaussianComponent]
) -> tuple[int, GaussianComponent, float]:
    """Partial EM on a round's candidates in lockstep, the current mixture frozen, as a race.

    Candidate k tunes its weight a, mean and covariance against the mixed
    density (1 - a) p + a g_k, where log p = ``base_logpdf``. With
    d = log a + log g_k - log(1 - a) - log p per point, its responsibilities
    are sigmoid(d) and its mixed log-likelihood is
    sum(log p) + n log(1 - a) + sum(softplus(d)). Each candidate stops as it
    would alone: when its gain falls to ``EM_TOL`` relative (keeping that
    update) or its total responsibility drops below 1e-10 (keeping the one
    before); it then leaves the live arrays. After ``RACE_WARMUP`` iterations
    only the ``RACE_SURVIVORS`` best by latest mixed log-likelihood, stopped
    ones included, go on (a tie goes to the earlier candidate, a NaN ranks
    last). Returns the index, component and mixed log-likelihood of the
    first maximum among the survivors; a NaN never wins.
    """
    n = x.shape[0]
    base_total = float(base_logpdf.sum())
    weights, means, covs = _arrays(candidates)

    def mix(weights, means, covs, dx, dy):
        # The log odds log a - log(1 - a) stands in for the log weight.
        d = _log_joint(dx, dy, _density_terms(np.log(weights) - np.log1p(-weights), means, covs))
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

    resp, loglik = mix(weights, means, covs, x[:, 0] - means[:, :1], x[:, 1] - means[:, 1:])
    mixed = loglik.copy()
    live = survivors = np.arange(len(candidates))
    for step in range(EM_MAX_ITER):
        if step == RACE_WARMUP:
            # A stable sort of -mixed ranks ties by index and puts NaN last. A NaN
            # that still ranks this high has stopped, and nanargmax skips it.
            survivors = np.sort(np.argsort(-mixed, kind="stable")[:RACE_SURVIVORS])
            keep = np.isin(live, survivors)
            live, resp, loglik = live[keep], resp[keep], loglik[keep]
        totals = resp.sum(axis=1)
        keep = totals >= 1e-10
        live, resp, totals, loglik = live[keep], resp[keep], totals[keep], loglik[keep]
        if live.size == 0:
            break
        step_weights = np.clip(totals / n, 1e-10, 1.0 - 1e-10)
        step_means, step_covs, dx, dy = _m_step(resp, x, totals)
        resp, updated = mix(step_weights, step_means, step_covs, dx, dy)
        weights[live], means[live], covs[live], mixed[live] = step_weights, step_means, step_covs, updated
        keep = updated - loglik > EM_TOL * np.maximum(1.0, np.abs(updated))
        live, resp, loglik = live[keep], resp[keep], updated[keep]
    best = int(survivors[np.nanargmax(mixed[survivors])])
    return best, GaussianComponent(float(weights[best]), means[best], covs[best]), float(mixed[best])


def _insert_component(model: GmmModel, candidate: GaussianComponent) -> GmmModel:
    keep = 1.0 - candidate.weight
    rescaled = tuple(
        GaussianComponent(c.weight * keep, c.mean, c.covariance) for c in model.components
    )
    return GmmModel(model.relation, rescaled + (candidate,))


def greedy_train(data, relation: str, cfg: TrainingConfig) -> GmmModel:
    """Grow a mixture one component at a time while the fit improves.

    Starts from the EM-converged single-component model. Each round races
    the candidates through partial EM (current components frozen, candidate
    weight starting at 1/2), inserts the surviving one with the best mixed
    log-likelihood (the first on a tie), refits with full EM, and accepts
    the grown model only when it clears ``ACCEPT_TOL`` relative
    improvement; otherwise the previous model is returned. Each model's log-density at the points is
    computed once: its sum is the acceptance total and the array the next round's frozen base.
    Identical data, config, and seed reproduce the model bit for bit.
    """
    x = _points(data)
    if x.shape[0] < 2:
        raise InsufficientDataError("greedy training needs at least 2 points")
    rng = np.random.default_rng(cfg.seed)

    start = GmmModel(
        relation,
        (GaussianComponent(1.0, x.mean(axis=0), _floor_covariance(np.cov(x.T, ddof=0))),),
    )
    current = em_fit(x, start)
    current_logpdf = current.logpdf(*x.T)

    while current.component_count < cfg.max_components and x.shape[0] > current.component_count:
        # n > K points in K partitions: one partition holds two, so candidates exist.
        candidates = generate_candidates(x, current, rng)
        _, best, _ = _refine_candidates(x, current_logpdf, candidates)
        grown = em_fit(x, _insert_component(current, best))
        grown_logpdf = grown.logpdf(*x.T)
        current_ll, grown_ll = float(np.sum(current_logpdf)), float(np.sum(grown_logpdf))
        if grown_ll <= current_ll + ACCEPT_TOL * max(1.0, abs(current_ll)):
            break
        current, current_logpdf = grown, grown_logpdf
    return current
