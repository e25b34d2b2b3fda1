"""Location estimation by fusing qualitative observations about one place.

An observation is a (relation label, landmark) pair describing an unknown
point of interest. Each observation induces a density over the grid
vertices (its label's mixture evaluated with the landmark as reference);
fusion combines the per-vertex evidence across observations, by default as
a product (sum of log densities, treating observations as independent) with
a plain density sum available as the alternative. The fused vertex mass is
averaged onto regions, renormalized, and summarized by the
likelihood-weighted centroid of region centers (the mode region's center is
carried alongside). Estimation error is the haversine distance to the true
location, which is never consulted while building the surface.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .atomic import read_tsv, write_tsv
from .features import EARTH_RADIUS_KM, feature_components
from .gazetteer import Poi
from .predict import _PAIR_BUDGET, Grid, check_grid, make_grid

__all__ = [
    "Estimate",
    "FUSION_MODES",
    "MissingModelError",
    "Scenario",
    "fuse",
    "haversine_km",
    "load_scenario",
    "save_scenario",
    "subsample",
]

FUSION_MODES = ("product", "sum")


class MissingModelError(ValueError):
    """Raised when an observation's label has no trained model."""


@dataclass(frozen=True)
class Scenario:
    """An unknown place, observations about it, and the search area."""

    unknown: Poi
    observations: tuple[tuple[str, Poi], ...]
    bbox: tuple[float, float, float, float]
    dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "observations", tuple(self.observations))
        if not self.observations:
            raise ValueError("a scenario needs at least one observation")
        check_grid(self.bbox, self.dim)
        min_lat, min_lon, max_lat, max_lon = self.bbox
        for label, landmark in self.observations:
            if not label:
                raise ValueError("observation labels must be non-empty")
            if not (min_lat <= landmark.lat <= max_lat and min_lon <= landmark.lon <= max_lon):
                raise ValueError(f"landmark {landmark.name} outside bbox {self.bbox}")


@dataclass
class Estimate:
    """Fusion output: fused surface, point estimates, and their errors."""

    center: tuple[float, float]
    error_km: float
    region_likelihoods: np.ndarray
    grid: Grid
    mode_center: tuple[float, float]
    mode_error_km: float
    observations_used: tuple[tuple[str, Poi], ...]


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in kilometres."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def subsample(observations, fraction: float, seed: int) -> list:
    """Uniform sample without replacement of ceil(fraction * n) observations.

    Deterministic for a given seed; selected observations keep their
    original order, and fraction 1.0 returns the full list untouched.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError("fraction must lie in (0, 1]")
    observations = list(observations)
    size = math.ceil(fraction * len(observations))
    if size >= len(observations):
        return observations
    rng = np.random.default_rng(seed)
    chosen = sorted(rng.choice(len(observations), size=size, replace=False).tolist())
    return [observations[i] for i in chosen]


def fuse(scenario: Scenario, models, fraction: float = 1.0, seed: int = 0, fusion: str = "product") -> Estimate:
    """Estimate the unknown location from a subsample of the observations.

    Per-vertex evidence is summed over the observations in (label, lat, lon)
    order, so their input order cannot matter; ``fusion='product'`` sums log
    densities, ``fusion='sum'`` raw densities. It is computed per block of
    vertex columns within ``_PAIR_BUDGET`` observation x vertex pairs, so peak
    memory no longer grows with observations x vertices.
    """
    if fusion not in FUSION_MODES:
        raise ValueError(f"fusion must be one of {FUSION_MODES}")
    used = subsample(scenario.observations, fraction, seed)
    missing = sorted({label for label, _ in used if label not in models})
    if missing:
        raise MissingModelError(f"no model for relation label(s): {', '.join(missing)}")

    grid = make_grid(scenario.bbox, scenario.dim)
    # Rows in (label, lat, lon) order: observations with equal keys have equal rows.
    labels, *coords = zip(*sorted((label, landmark.lat, landmark.lon) for label, landmark in used))
    lats, lons = np.array(coords)[:, :, None]
    groups = [
        (slice(bisect_left(labels, label), bisect_right(labels, label)), models[label])
        for label in sorted(set(labels))
    ]
    # No block starts at the last column: numpy sums a one-column block pairwise, not row by row,
    # so a one-column tail joins the block before it.
    starts = range(0, grid.vertex_count - 1, max(2, _PAIR_BUDGET // len(used)))
    evidence = np.empty(grid.vertex_count)
    for start, stop in zip(starts, [*starts[1:], grid.vertex_count]):
        dist, orient = feature_components(*grid.vertices[start:stop].T, lats, lons, grid.origin)
        per_observation = np.empty(dist.shape)
        for rows, model in groups:
            per_observation[rows] = model.logpdf(dist[rows].ravel(), orient[rows].ravel()).reshape(-1, stop - start)
        if fusion == "sum":
            np.exp(per_observation, out=per_observation)
        evidence[start:stop] = per_observation.sum(axis=0)

    if fusion == "product":
        peak = evidence.max()
        if math.isinf(peak):
            raise ValueError("all observations underflowed on every grid vertex")
        vertex_mass = np.exp(evidence - peak)
    else:
        vertex_mass = evidence
        if vertex_mass.max() <= 0.0:
            raise ValueError("all observations underflowed on every grid vertex")

    region = grid.region_average(vertex_mass / math.fsum(vertex_mass))
    region = region / math.fsum(region)

    centers = grid.region_centers()
    center = (
        float(math.fsum(region * centers[:, 0])),
        float(math.fsum(region * centers[:, 1])),
    )
    mode_index = int(np.argmax(region))
    mode_center = (float(centers[mode_index, 0]), float(centers[mode_index, 1]))
    return Estimate(
        center=center,
        error_km=haversine_km(center[0], center[1], scenario.unknown.lat, scenario.unknown.lon),
        region_likelihoods=region,
        grid=grid,
        mode_center=mode_center,
        mode_error_km=haversine_km(
            mode_center[0], mode_center[1], scenario.unknown.lat, scenario.unknown.lon
        ),
        observations_used=tuple(used),
    )


def save_scenario(scenario: Scenario, path: str) -> None:
    """Write the scenario file format (see ``load_scenario``)."""
    if any(label == "unknown" for label, _ in scenario.observations):
        raise ValueError(f"{path}: an observation labelled 'unknown' would read back as the unknown place")
    unknown = scenario.unknown
    rows = [("bbox", *scenario.bbox), ("dim", scenario.dim), ("unknown", unknown.name, unknown.lat, unknown.lon)]
    rows += [(label, poi.name, poi.lat, poi.lon) for label, poi in scenario.observations]
    write_tsv(path, rows)


def load_scenario(path: str) -> Scenario:
    """Read a scenario: bbox/dim/unknown header lines, then observations.

    Lines are tab-separated: ``bbox<TAB>min_lat<TAB>min_lon<TAB>max_lat<TAB>
    max_lon``, ``dim<TAB>n``, ``unknown<TAB>name<TAB>lat<TAB>lon``, then one
    ``label<TAB>landmark_name<TAB>lat<TAB>lon`` line per observation. Each
    header line appears exactly once.
    """
    header: dict[str, object] = {}

    def parse(fields: list[str]) -> tuple[str, Poi] | None:
        head, rest = fields[0], fields[1:]
        if head == "bbox" and len(rest) == 4:
            value = tuple(float(f) for f in rest)
        elif head == "dim" and len(rest) == 1:
            value = int(rest[0])
        elif len(rest) == 3:
            value = Poi(rest[0], float(rest[1]), float(rest[2]))
            if not head:
                raise ValueError("observation labels must be non-empty")
            if head != "unknown":
                return head, value
        else:
            raise ValueError("unrecognized line")
        if head in header:
            raise ValueError(f"repeated {head} line")
        header[head] = value
        return None

    observations = [row for row in read_tsv(path, parse) if row is not None]
    if len(header) < 3:
        raise ValueError(f"{path}: scenario needs bbox, dim, and unknown header lines")
    try:
        return Scenario(observations=tuple(observations), **header)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
