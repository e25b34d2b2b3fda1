"""Grid-based location scoring from relation mixture models.

A square grid of vertices is laid over a bounding box, indexed row-major
from the bottom-left vertex, proceeding rightward then row by row upward;
the cells between vertices form regions indexed the same way. To score a
point: every vertex in turn acts as the reference landmark, the model whose
density best explains the point's feature vector relative to that vertex is
selected, and that model then scores every vertex as a hypothetical subject
location with the reference held fixed. Scores are accumulated per scored
vertex (a column sum across reference vertices in fixed order), normalized
into a vertex distribution, and averaged over each region's four corners.
The projection is linear in latitude and longitude, so a vertex pair's
features depend only on its (row, col) offset: each label's density is
evaluated once per grid over the offsets (see ``_offset_kernels``).

Densities are evaluated in log space and exponentiated only after
subtracting the surface-wide maximum, so the stored surface is a uniformly
scaled copy of the raw densities; every derived quantity is scale-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import ProjectionOrigin, feature_components

__all__ = [
    "Grid",
    "PredictionSurface",
    "PredictionTrial",
    "RelationOracle",
    "check_grid",
    "make_grid",
    "prediction_accuracy",
    "prediction_trial",
    "qualitative_accuracy",
    "region_ranking",
    "score_point",
    "surface_to_csv",
    "surface_to_geojson",
    "topk_hit",
]


@dataclass(frozen=True)
class Grid:
    """Vertex lattice over a bounding box.

    ``vertices`` holds (lat, lon) rows; vertex ``row * dim + col`` sits at
    the row-th latitude from the bottom and col-th longitude from the left.
    ``regions`` holds the four vertex indices of each cell in the order
    (bottom-left, bottom-right, top-left, top-right).
    """

    bbox: tuple[float, float, float, float]
    dim: int
    vertices: np.ndarray
    regions: np.ndarray
    origin: ProjectionOrigin

    @property
    def vertex_count(self) -> int:
        return self.dim * self.dim

    @property
    def region_count(self) -> int:
        return (self.dim - 1) * (self.dim - 1)

    def region_containing(self, lat: float, lon: float) -> int:
        """Index of the region holding the point; outside the box is an error."""
        min_lat, min_lon, max_lat, max_lon = self.bbox
        if not (min_lat <= lat <= max_lat and min_lon <= lon <= max_lon):
            raise ValueError(f"point ({lat}, {lon}) outside bbox {self.bbox}")
        cells = self.dim - 1
        row = min(int((lat - min_lat) / (max_lat - min_lat) * cells), cells - 1)
        col = min(int((lon - min_lon) / (max_lon - min_lon) * cells), cells - 1)
        return row * cells + col

    def region_centers(self) -> np.ndarray:
        """(region_count, 2) array of cell-center (lat, lon) pairs."""
        return self.vertices[self.regions].mean(axis=1)

    def region_average(self, vertex_values: np.ndarray) -> np.ndarray:
        """Per region, the mean of its four corner values (summed in corner order)."""
        c, v = self.regions, vertex_values
        return (v[c[:, 0]] + v[c[:, 1]] + v[c[:, 2]] + v[c[:, 3]]) / 4.0


def check_grid(bbox: tuple[float, float, float, float], dim: int) -> None:
    """Reject ``dim`` < 2 and a (min_lat, min_lon, max_lat, max_lon) ``bbox`` with an empty extent."""
    min_lat, min_lon, max_lat, max_lon = bbox
    if dim < 2:
        raise ValueError("grid dim must be >= 2")
    if not (min_lat < max_lat and min_lon < max_lon):
        raise ValueError(f"degenerate bbox: {bbox}")


def make_grid(bbox: tuple[float, float, float, float], dim: int) -> Grid:
    """Build a ``dim x dim`` vertex grid spanning ``bbox`` (see ``check_grid``)."""
    check_grid(bbox, dim)
    min_lat, min_lon, max_lat, max_lon = bbox
    lats = np.linspace(min_lat, max_lat, dim)
    lons = np.linspace(min_lon, max_lon, dim)
    grid_lon, grid_lat = np.meshgrid(lons, lats)
    vertices = np.column_stack([grid_lat.ravel(), grid_lon.ravel()])
    cells = np.arange(dim - 1)
    base = (cells[:, None] * dim + cells[None, :]).ravel()
    regions = np.column_stack([base, base + 1, base + dim, base + dim + 1])
    origin = ProjectionOrigin((min_lat + max_lat) / 2.0, (min_lon + max_lon) / 2.0)
    return Grid(tuple(bbox), dim, vertices, regions, origin)


@dataclass
class PredictionSurface:
    """Per-point scoring output.

    ``vertex_likelihoods[i, j]`` is the (uniformly scaled) density of vertex
    j as subject with vertex i as reference under the model selected at i;
    ``fused_vertex`` is its normalized column sum (over reference vertices) and
    ``region_likelihoods`` its four-corner average per region.
    ``underflow_vertices`` lists reference vertices where every model
    underflowed to zero density and the first label was used as fallback.
    """

    vertex_likelihoods: np.ndarray
    fused_vertex: np.ndarray
    region_likelihoods: np.ndarray
    chosen_labels: tuple[str, ...]
    underflow_vertices: tuple[int, ...] = ()


def _latlon(point) -> tuple[float, float]:
    if hasattr(point, "lat"):
        return float(point.lat), float(point.lon)
    lat, lon = point
    return float(lat), float(lon)


# Point x vertex pairs per model-selection block of a trial, so its feature and
# log-density arrays stay a few MB at any grid dim.
_SELECT_PAIRS = 1 << 15


def _point_features(points: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(P, V) distance and orientation of each (lat, lon) row of ``points`` from each vertex."""
    return feature_components(
        points[:, :1], points[:, 1:], grid.vertices[:, 0], grid.vertices[:, 1], grid.origin
    )


def _select_models(points: np.ndarray, grid: Grid, models) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Per point and reference vertex, pick the label whose density best explains the point.

    ``points`` is a (P, 2) array of (lat, lon) rows. Returns the
    lexicographically sorted labels, the (P, V) chosen label index (ties
    resolve to the first, i.e. smallest, label), and the (P, V) maximum
    log-density used for underflow detection.
    """
    labels = sorted(models)
    dist, orient = _point_features(points, grid)
    features = np.column_stack([dist.ravel(), orient.ravel()])
    log_densities = np.stack([models[label].logpdf(features).reshape(dist.shape) for label in labels])
    return labels, np.argmax(log_densities, axis=0), np.max(log_densities, axis=0)


def _offset_kernels(grid: Grid, models) -> np.ndarray:
    """(L, 2*dim - 1, 2*dim - 1) log-densities of the sorted labels per offset.

    Entry ``[l, dim - 1 + dr, dim - 1 + dc]`` scores a subject ``dr`` rows and
    ``dc`` columns from its reference, measured from the first row and column
    so that a zero offset has dy or dx exactly 0, as on the vertices themselves.
    """
    if not models:
        raise ValueError("at least one model is required")
    dim = grid.dim
    steps = np.arange(1 - dim, dim)
    subject, reference = np.maximum(steps, 0), np.maximum(-steps, 0)
    lats, lons = grid.vertices[::dim, 0], grid.vertices[:dim, 1]
    dist, orient = feature_components(
        lats[subject, None], lons[subject], lats[reference, None], lons[reference], grid.origin
    )
    offsets = np.column_stack([dist.ravel(), orient.ravel()])
    return np.stack([models[label].logpdf(offsets).reshape(dist.shape) for label in sorted(models)])


def _score(grid: Grid, kernels: np.ndarray, choice: np.ndarray, best_log: np.ndarray):
    """Scaled V x V surface, fused vertex distribution and underflow vertices of one point.

    ``choice`` and ``best_log`` are its rows of ``_select_models``.
    """
    dim, v = grid.dim, grid.vertex_count
    underflow = tuple(int(i) for i in np.flatnonzero(np.isneginf(best_log)))

    rows, cols = np.divmod(np.arange(v), dim)
    windows = np.lib.stride_tricks.sliding_window_view(kernels, (dim, dim), axis=(1, 2))
    log_surface = windows[choice, dim - 1 - rows, dim - 1 - cols].reshape(v, v)

    peak = log_surface.max()
    if math.isinf(peak):
        scaled = np.ones((v, v))
        underflow = tuple(range(v))
    else:
        log_surface -= peak  # in place: the gather above made a fresh V x V array
        scaled = np.exp(log_surface, out=log_surface)

    column_sums = scaled.sum(axis=0)
    return scaled, column_sums / math.fsum(column_sums), underflow


def score_point(point, grid: Grid, models) -> PredictionSurface:
    """Score every grid vertex and region as the location of ``point``."""
    kernels = _offset_kernels(grid, models)
    labels, choices, best_log = _select_models(np.array([_latlon(point)]), grid, models)
    scaled, fused, underflow = _score(grid, kernels, choices[0], best_log[0])
    return PredictionSurface(
        vertex_likelihoods=scaled,
        fused_vertex=fused,
        region_likelihoods=grid.region_average(fused),
        chosen_labels=tuple(labels[i] for i in choices[0]),
        underflow_vertices=underflow,
    )


def region_ranking(region_likelihoods: np.ndarray) -> list[int]:
    """Region indices from most to least likely; ties favor the lower index."""
    return np.argsort(-np.asarray(region_likelihoods), kind="stable").tolist()


def _check_k(k: int, region_count: int) -> None:
    if not (1 <= k <= region_count):
        raise ValueError(f"k must lie in [1, {region_count}]")


def topk_hit(surface: PredictionSurface, point, grid: Grid, k: int) -> bool:
    """True when the region containing the point ranks in the top k."""
    _check_k(k, grid.region_count)
    lat, lon = _latlon(point)
    target = grid.region_containing(lat, lon)
    return target in region_ranking(surface.region_likelihoods)[:k]


@dataclass
class PredictionTrial:
    """Batch scoring outcome for uniformly sampled points.

    ``ranks[p]`` is the rank (0-based) of point p's true region in its
    surface's ordering, so the top-k accuracy is ``mean(rank < k)``.
    ``choices[p, i]`` indexes ``labels`` (sorted) with the model selected
    for point p at reference vertex i.
    """

    grid: Grid
    points: np.ndarray
    ranks: list[int]
    labels: tuple[str, ...]
    choices: np.ndarray

    def accuracy(self, k: int) -> float:
        _check_k(k, self.grid.region_count)
        return sum(rank < k for rank in self.ranks) / len(self.ranks)


def prediction_trial(
    models,
    bbox: tuple[float, float, float, float],
    dim: int,
    n_points: int,
    seed: int,
) -> PredictionTrial:
    """Score ``n_points`` uniform random points over the bbox grid, selecting models per block."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    grid = make_grid(bbox, dim)
    kernels = _offset_kernels(grid, models)
    rng = np.random.default_rng(seed)
    points = np.column_stack([rng.uniform(bbox[0], bbox[2], n_points), rng.uniform(bbox[1], bbox[3], n_points)])
    labels = sorted(models)
    choices = np.empty((n_points, grid.vertex_count), dtype=np.min_scalar_type(len(labels)))
    block = max(1, _SELECT_PAIRS // grid.vertex_count)
    ranks: list[int] = []
    for start in range(0, n_points, block):
        chunk = points[start : start + block]
        _, choice, best_log = _select_models(chunk, grid, models)
        choices[start : start + block] = choice
        for (lat, lon), row, best in zip(chunk, choice, best_log):
            _, fused, _ = _score(grid, kernels, row, best)
            order = region_ranking(grid.region_average(fused))
            ranks.append(order.index(grid.region_containing(lat, lon)))
    return PredictionTrial(grid, points, ranks, tuple(labels), choices)


def prediction_accuracy(
    models,
    bbox: tuple[float, float, float, float],
    dim: int,
    n_points: int,
    k: int,
    seed: int,
) -> float:
    """Fraction of uniform random points whose region lands in the top k."""
    check_grid(bbox, dim)
    _check_k(k, (dim - 1) ** 2)
    return prediction_trial(models, bbox, dim, n_points, seed).accuracy(k)


@dataclass(frozen=True)
class RelationOracle:
    """Geometric ground-truth predicates for label correctness.

    Proximity labels hold within a distance threshold; directional labels
    hold when the subject's orientation seen from the reference falls in a
    sector around the cardinal direction (north 90, south 270, east 0,
    west 180 degrees).
    """

    near_km: float = 6.5
    at_km: float = 2.5
    containment_km: float = 2.5
    sector_half_width_deg: float = 60.0

    def __post_init__(self) -> None:
        if min(self.near_km, self.at_km, self.containment_km) <= 0.0:
            raise ValueError("distance thresholds must be positive")
        if not (0.0 < self.sector_half_width_deg <= 90.0):
            raise ValueError("sector half-width must lie in (0, 90]")

    @classmethod
    def from_file(cls, path: str) -> RelationOracle:
        """Read ``key<TAB>value`` overrides for the default thresholds."""
        overrides: dict[str, float] = {}
        allowed = {"near_km", "at_km", "containment_km", "sector_half_width_deg"}
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                fields = stripped.split("\t")
                if len(fields) != 2 or fields[0] not in allowed:
                    raise ValueError(f"{path}:{lineno}: expected '<threshold>\\t<value>'")
                overrides[fields[0]] = float(fields[1])
        return cls(**overrides)

    def is_correct(self, label: str, distance_km: float, orientation_deg: float) -> bool:
        if label in ("near", "next to", "close to"):
            return distance_km <= self.near_km
        if label == "at":
            return distance_km <= self.at_km
        if label == "in":
            return distance_km <= self.containment_km
        centers = {
            "east of": 0.0,
            "northeast of": 45.0,
            "north of": 90.0,
            "northwest of": 135.0,
            "west of": 180.0,
            "southwest of": 225.0,
            "south of": 270.0,
            "southeast of": 315.0,
        }
        if label in centers:
            delta = abs((orientation_deg - centers[label] + 180.0) % 360.0 - 180.0)
            return delta <= self.sector_half_width_deg
        return False


def qualitative_accuracy(trial: PredictionTrial, oracle: RelationOracle) -> float:
    """Fraction of a trial's label choices whose predicate holds for the point seen from the vertex."""
    if trial.choices.size == 0:
        raise ValueError("trial must hold at least one label choice")
    distance, orientation = _point_features(trial.points, trial.grid)
    labels = map(trial.labels.__getitem__, trial.choices.ravel().tolist())
    correct = sum(map(oracle.is_correct, labels, distance.ravel().tolist(), orientation.ravel().tolist()))
    return correct / trial.choices.size


def surface_to_csv(grid: Grid, region_likelihoods: np.ndarray) -> str:
    """Region likelihoods as ``region_row,region_col,likelihood`` CSV text."""
    cells = grid.dim - 1
    lines = ["region_row,region_col,likelihood"]
    for index, value in enumerate(region_likelihoods):
        lines.append(f"{index // cells},{index % cells},{float(value)!r}")
    return "\n".join(lines) + "\n"


def surface_to_geojson(grid: Grid, region_likelihoods: np.ndarray) -> dict:
    """Region likelihoods as a GeoJSON FeatureCollection of cell polygons."""
    cells = grid.dim - 1
    features = []
    for index, value in enumerate(region_likelihoods):
        bl, br, tl, tr = grid.regions[index]
        ring = [
            [float(grid.vertices[v, 1]), float(grid.vertices[v, 0])]
            for v in (bl, br, tr, tl, bl)
        ]
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Polygon", "coordinates": [ring]},
                "properties": {
                    "region_row": index // cells,
                    "region_col": index % cells,
                    "likelihood": float(value),
                },
            }
        )
    return {"type": "FeatureCollection", "features": features}
