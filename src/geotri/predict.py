"""Grid-based location scoring from relation mixture models.

A square grid of vertices is laid over a bounding box, indexed row-major
from the bottom-left vertex, proceeding rightward then row by row upward;
the cells between vertices form regions indexed the same way. To score a
point: every vertex in turn acts as the reference landmark, the model whose
density best explains the point's feature vector relative to that vertex is
selected, and that model then scores every vertex as a hypothetical subject
location with the reference held fixed. Scores are accumulated per scored
vertex (a column sum across reference vertices), normalized into a vertex
distribution, and averaged over each region's four corners.
The projection is linear in latitude and longitude, so a vertex pair's
features depend only on its (row, col) offset: each label's density is
evaluated once per grid over the offsets (see ``_offset_kernels``), and the
column sums of a block of points come from matrix products with each
label's kernel laid out as row-Toeplitz blocks (see ``_score_block``); no
vertex x vertex surface is built.

Densities are evaluated in log space. Each term of a point's column sums is
exp(log density - peak), up to rounding, where the peak is the largest log
density over all of its (reference, subject) pairs, so the surface is a
uniformly scaled copy of the raw densities and every derived quantity is
scale-free. A reference vertex where every model's density underflows to
zero falls back to the first label; if every pair underflows, the surface
is uniform and every vertex counts as underflowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atomic import read_tsv
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
        """Per region, the mean of its four corner values (summed in corner order) along the last axis."""
        c, v = self.regions, vertex_values
        return (v[..., c[:, 0]] + v[..., c[:, 1]] + v[..., c[:, 2]] + v[..., c[:, 3]]) / 4.0


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

    ``fused_vertex`` is the normalized column sum, over reference vertices,
    of each vertex's (uniformly scaled) density as subject under the model
    selected at the reference; ``region_likelihoods`` is its four-corner
    average per region. ``underflow_vertices`` lists reference vertices where
    every model underflowed to zero density and the first label was used as
    fallback.
    """

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


def _row_toeplitz(exp_kernels: np.ndarray, dim: int) -> np.ndarray:
    """Lay (..., 2*dim - 1, 2*dim - 1) kernels out as (..., dim, (2*dim - 1) * dim) blocks.

    Entry ``[c, k * dim + c2]`` is the kernel's ``[k, c2 - c + dim - 1]``: kernel
    row k for a reference in column c and a subject in column c2.
    """
    windows = np.lib.stride_tricks.sliding_window_view(exp_kernels, dim, axis=-1)  # [..., k, s, c2] -> [k, s + c2]
    shifted = windows[..., ::-1, :]  # (..., k, c, c2)
    return np.moveaxis(shifted, -3, -2).reshape(*exp_kernels.shape[:-2], dim, (2 * dim - 1) * dim)


def _window_max(kernels: np.ndarray, dim: int, axis: int) -> np.ndarray:
    """Maximum over every length-``dim`` window along ``axis`` (of length 2*dim - 1).

    Each window holds the centre entry, so its maximum is the larger of the
    running maximum from its start to the centre and from the centre to its end.
    """
    a = np.moveaxis(kernels, axis, -1)
    to_centre = np.maximum.accumulate(a[..., dim - 1 :: -1], axis=-1)[..., ::-1]
    from_centre = np.maximum.accumulate(a[..., dim - 1 :], axis=-1)
    return np.moveaxis(np.maximum(to_centre, from_centre), -1, axis)


@dataclass(frozen=True)
class _ScoringTables:
    """Per-grid tables of the sorted labels' offset kernels K (see ``_offset_kernels``).

    ``kernels`` is K itself, ``peaks`` each label's maximum m = max K,
    ``toeplitz`` the (L*dim, (2*dim - 1)*dim) stack of ``_row_toeplitz``
    blocks of exp(K - m) (zero for a label whose m is not finite), and
    ``reach[l, i]`` the largest K_l over the offsets a subject can take from
    reference vertex i.
    """

    kernels: np.ndarray
    peaks: np.ndarray
    toeplitz: np.ndarray
    reach: np.ndarray


def _scoring_tables(grid: Grid, models) -> _ScoringTables:
    """Build the scoring tables of ``models`` on ``grid``: O(L * dim^2) memory, not L * V^2."""
    dim = grid.dim
    kernels = _offset_kernels(grid, models)
    peaks = kernels.max(axis=(1, 2))
    live = np.isfinite(peaks)
    scaled = np.zeros_like(kernels)
    scaled[live] = np.exp(kernels[live] - peaks[live, None, None])
    windows = _window_max(_window_max(kernels, dim, 1), dim, 2)
    # Reference (row, col) sees the window starting at kernel (dim-1-row, dim-1-col).
    reach = windows[:, ::-1, ::-1].reshape(len(kernels), -1)
    return _ScoringTables(kernels, peaks, _row_toeplitz(scaled, dim).reshape(-1, scaled.shape[1] * dim), reach)


def _score_block(grid: Grid, tables: _ScoringTables, choice: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fused (P, V) vertex distributions and (P,) surface peaks of a block of points.

    ``choice`` holds the block's rows of ``_select_models``. A point's column
    sums are sum_i exp(K_{c_i}[j - i] - peak), where its peak, the largest
    K_{c_i}[j - i] over every pair, is the largest ``reach`` of its choices.
    Each reference vertex's one-hot label choice, weighted by exp(m_l - peak),
    multiplies the row-Toeplitz stack: one (dim x L*dim) @ (L*dim x
    (2*dim - 1)*dim) product per point sums, for every reference row and
    kernel row, the references of that row. Adding the kernel rows each
    reference row uses, shifted by the row, gives the column sums. A label
    whose kernel maximum lies above the point's peak (no vertex that chose it
    reaches that maximum) uses its own kernel exp(min(K - peak, 0)) instead,
    which is exact because no pair uses an entry above the peak. A point
    whose peak is infinite gets the uniform surface.
    """
    dim, v = grid.dim, grid.vertex_count
    n_points, n_labels = len(choice), len(tables.peaks)
    peak = tables.reach[choice, np.arange(v)].max(axis=1)
    flat = np.isinf(peak)
    excess = tables.peaks - np.where(flat, 0.0, peak)[:, None]
    unreachable = (excess > 0.0) & ~flat[:, None]
    scale = np.exp(np.minimum(excess, 0.0))
    scale[unreachable | flat[:, None]] = 0.0
    chosen = choice[:, :, None] == np.arange(n_labels)  # (P, V, L)
    weights = (chosen * scale[:, None, :]).reshape(n_points, dim, dim, n_labels).swapaxes(2, 3)
    # A stacked matmul runs one product per point, so a point scores the same in any block.
    rows = weights.reshape(n_points, dim, n_labels * dim) @ tables.toeplitz
    for point, label in np.argwhere(unreachable & chosen.any(axis=1)):
        clamped = np.exp(np.minimum(tables.kernels[label] - peak[point], 0.0))
        rows[point] += chosen[point, :, label].reshape(dim, dim) @ _row_toeplitz(clamped, dim)
    rows = rows.reshape(n_points, dim, 2 * dim - 1, dim)
    sums = np.zeros((n_points, dim, dim))
    for row in range(dim):
        sums += rows[:, row, dim - 1 - row : 2 * dim - 1 - row]
    sums = sums.reshape(n_points, v)
    sums[flat] = 1.0
    return sums / sums.sum(axis=1, keepdims=True), peak


def score_point(point, grid: Grid, models) -> PredictionSurface:
    """Score every grid vertex and region as the location of ``point``."""
    tables = _scoring_tables(grid, models)
    labels, choices, best_log = _select_models(np.array([_latlon(point)]), grid, models)
    fused, peak = _score_block(grid, tables, choices)
    if np.isinf(peak[0]):
        underflow = tuple(range(grid.vertex_count))
    else:
        underflow = tuple(np.flatnonzero(np.isneginf(best_log[0])).tolist())
    return PredictionSurface(
        fused_vertex=fused[0],
        region_likelihoods=grid.region_average(fused[0]),
        chosen_labels=tuple(labels[i] for i in choices[0]),
        underflow_vertices=underflow,
    )


def region_ranking(region_likelihoods: np.ndarray) -> list[int]:
    """Region indices from most to least likely; ties favor the lower index."""
    return np.argsort(-np.asarray(region_likelihoods), kind="stable").tolist()


def _true_region_ranks(grid: Grid, points: np.ndarray, region_likelihoods: np.ndarray) -> np.ndarray:
    """Per point, the position of its own region in ``region_ranking`` of its row of likelihoods.

    That position is the number of regions more likely than the point's
    region plus the number of equally likely regions with a lower index.
    """
    target = np.array([grid.region_containing(lat, lon) for lat, lon in points])
    own = region_likelihoods[np.arange(len(target)), target][:, None]
    earlier = np.arange(grid.region_count) < target[:, None]
    return np.count_nonzero(region_likelihoods > own, axis=1) + np.count_nonzero(
        (region_likelihoods == own) & earlier, axis=1
    )


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
    tables = _scoring_tables(grid, models)
    rng = np.random.default_rng(seed)
    points = np.column_stack([rng.uniform(bbox[0], bbox[2], n_points), rng.uniform(bbox[1], bbox[3], n_points)])
    labels = sorted(models)
    choices = np.empty((n_points, grid.vertex_count), dtype=np.min_scalar_type(len(labels)))
    ranks = np.empty(n_points, dtype=int)
    block = max(1, _SELECT_PAIRS // grid.vertex_count)
    for start in range(0, n_points, block):
        chunk = points[start : start + block]
        _, choice, _ = _select_models(chunk, grid, models)
        choices[start : start + block] = choice
        fused, _ = _score_block(grid, tables, choice)
        ranks[start : start + block] = _true_region_ranks(grid, chunk, grid.region_average(fused))
    return PredictionTrial(grid, points, ranks.tolist(), tuple(labels), choices)


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


# Cardinal direction of each directional label, in degrees (north 90).
_SECTOR_CENTERS = {
    "east of": 0.0,
    "northeast of": 45.0,
    "north of": 90.0,
    "northwest of": 135.0,
    "west of": 180.0,
    "southwest of": 225.0,
    "south of": 270.0,
    "southeast of": 315.0,
}


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
        allowed = {"near_km", "at_km", "containment_km", "sector_half_width_deg"}

        def parse(fields: list[str]) -> tuple[str, float]:
            key = fields[0].strip()
            if len(fields) != 2 or key not in allowed:
                raise ValueError("expected '<threshold>\\t<value>'")
            try:
                value = float(fields[1])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"{key} must be a finite number, got {fields[1]!r}")
            cls(**{key: value})  # check the override while its line number is known
            return key, value

        return cls(**dict(read_tsv(path, parse)))

    def is_correct(self, label: str, distance_km: float, orientation_deg: float) -> bool:
        if label in ("near", "next to", "close to"):
            return distance_km <= self.near_km
        if label == "at":
            return distance_km <= self.at_km
        if label == "in":
            return distance_km <= self.containment_km
        if label in _SECTOR_CENTERS:
            delta = abs((orientation_deg - _SECTOR_CENTERS[label] + 180.0) % 360.0 - 180.0)
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
