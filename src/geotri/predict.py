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
evaluated once per grid over the offsets (see ``_offset_kernels``). Per
label, a point's column sums are then a 2-D convolution of the map of the
references that chose the label with the label's kernel, and a block of
points takes one FFT convolution over n x n arrays, n the smallest power of
two >= 2*dim - 1 (see ``_score_block``): O(dim^2 log dim) time per point and
label, O(L * n^2) memory per grid plus O(P * n^2) per block, one label's
transforms at a time, and no vertex x vertex surface is built.

The per-grid tables outlive the call that builds them: for a set of
``GmmModel`` objects, ``_STORE`` holds its read-only tables per grid
geometry, weakly keyed on the first label's model and keyed within it on
what the kernels read (dim, origin, row latitudes and column longitudes),
the labels and the other models. That is about 17 KB per label at dim 15,
69 KB at dim 30 and 275 KB at dim 60, for at most 4 entries per first
model, the least recently used dropped first, released with that model.
Other model types may change their densities between calls, so their
tables are built on every call.

Densities are evaluated in log space. Each term of a point's column sums is
exp(log density - peak), where the peak is the largest log density over all
of its (reference, subject) pairs, so the surface is a uniformly scaled copy
of the raw densities and every derived quantity is scale-free. The FFT
rounds each sum to within about 1e-15 of the largest one, not of itself,
and a sum rounded below 0 is clamped to 0. A reference vertex where every
model's density underflows to zero falls back to the first label; if every
pair underflows, the surface is uniform and every vertex counts as
underflowed.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .features import ProjectionOrigin, feature_components, origin_for_points
from .gazetteer import _check_coords
from .mixture import GmmModel

__all__ = [
    "AT_KM",
    "CONTAINMENT_KM",
    "Grid",
    "NEAR_KM",
    "PredictionSurface",
    "PredictionTrial",
    "SECTOR_HALF_WIDTH_DEG",
    "check_grid",
    "make_grid",
    "prediction_accuracy",
    "prediction_trial",
    "qualitative_accuracy",
    "relation_holds",
    "score_point",
    "surface_texts",
    "surface_to_csv",
    "surface_to_geojson",
]


@dataclass(frozen=True)
class Grid:
    """Vertex lattice over a bounding box.

    ``vertices`` holds (lat, lon) rows; vertex ``row * dim + col`` sits at
    the row-th latitude from the bottom and col-th longitude from the left.
    Region ``row * (dim - 1) + col`` is the cell whose bottom-left corner is
    vertex ``row * dim + col``.
    """

    bbox: tuple[float, float, float, float]
    dim: int
    vertices: np.ndarray
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
        return int(self._regions(np.array([(lat, lon)]))[0])

    def _regions(self, points: np.ndarray) -> np.ndarray:
        """``region_containing`` of each (lat, lon) row of ``points``, which must lie in the box: one rule for both."""
        cells = self.dim - 1
        low, high = np.reshape(self.bbox, (2, 2))
        row, col = np.minimum(((points - low) / (high - low) * cells).astype(int), cells - 1).T
        return row * cells + col

    def region_centers(self) -> np.ndarray:
        """(region_count, 2) array of cell-center (lat, lon) pairs."""
        return self.region_average(self.vertices.T).T

    def region_average(self, vertex_values: np.ndarray) -> np.ndarray:
        """Per region along the last axis, (bottom-left + bottom-right + top-left + top-right) / 4, in that order."""
        v = vertex_values.reshape(*vertex_values.shape[:-1], self.dim, self.dim)
        total = v[..., :-1, :-1] + v[..., :-1, 1:] + v[..., 1:, :-1] + v[..., 1:, 1:]
        return (total / 4.0).reshape(*vertex_values.shape[:-1], self.region_count)


def check_grid(bbox: tuple[float, float, float, float], dim: int) -> None:
    """Reject ``dim`` < 2 and a (min_lat, min_lon, max_lat, max_lon) ``bbox`` not finite, outside WGS84 or empty."""
    min_lat, min_lon, max_lat, max_lon = bbox
    if dim < 2:
        raise ValueError("grid dim must be >= 2")
    if not all(map(math.isfinite, bbox)):
        raise ValueError(f"non-finite bbox: {bbox}")
    _check_coords(min_lat, min_lon, "bbox corner")
    _check_coords(max_lat, max_lon, "bbox corner")
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
    origin = origin_for_points(((min_lat, min_lon), (max_lat, max_lon)))
    return Grid(tuple(bbox), dim, vertices, origin)


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


# Point x vertex pairs per model-selection block of a trial and observation x vertex
# pairs per evidence block of ``fuse``: each feature array is then 256 KB at any size,
# and a K-component model's densities K times that. 2**15 was the fastest of 2**12 ... 2**17.
_PAIR_BUDGET = 1 << 15


def _point_features(points: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(P, V) distance and orientation of each (lat, lon) row of ``points`` from each vertex."""
    return feature_components(
        points[:, :1], points[:, 1:], grid.vertices[:, 0], grid.vertices[:, 1], grid.origin
    )


def _label_densities(labels, models, dist: np.ndarray, orient: np.ndarray) -> np.ndarray:
    """(L, *dist.shape) log-densities of ``labels``, in that order, at the feature pairs."""
    flat = dist.ravel(), orient.ravel()
    return np.stack([models[label].logpdf(*flat).reshape(dist.shape) for label in labels])


def _select_models(points: np.ndarray, grid: Grid, models, labels) -> tuple[np.ndarray, np.ndarray]:
    """Per point and reference vertex, pick the label whose density best explains the point.

    ``points`` is a (P, 2) array of (lat, lon) rows and ``labels`` the sorted
    labels (``_ScoringTables.labels``). Returns the (P, V) chosen label index
    (ties resolve to the first, i.e. smallest, label) and the (L, P, V)
    log-densities it was chosen from, whose maximum ``score_point`` checks for underflow.
    """
    log_densities = _label_densities(labels, models, *_point_features(points, grid))
    return np.argmax(log_densities, axis=0), log_densities


def _offset_kernels(grid: Grid, models, labels) -> np.ndarray:
    """(L, 2*dim - 1, 2*dim - 1) log-densities of ``labels`` per offset.

    Entry ``[l, dim - 1 + dr, dim - 1 + dc]`` scores a subject ``dr`` rows and
    ``dc`` columns from its reference, measured from the first row and column
    so that a zero offset has dy or dx exactly 0, as on the vertices themselves.
    """
    dim = grid.dim
    steps = np.arange(1 - dim, dim)
    subject, reference = np.maximum(steps, 0), np.maximum(-steps, 0)
    lats, lons = grid.vertices[::dim, 0], grid.vertices[:dim, 1]
    dist, orient = feature_components(
        lats[subject, None], lons[subject], lats[reference, None], lons[reference], grid.origin
    )
    return _label_densities(labels, models, dist, orient)


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

    ``labels`` is the one label order that kernels, spectra and choices index,
    ``kernels`` is K itself, ``peaks`` each label's maximum m = max K,
    ``spectra`` the (L, n, n // 2 + 1) ``rfft2`` of exp(K - m) zero-padded
    to n x n (zero for a label whose m is not finite), where n is the
    smallest power of two >= 2*dim - 1, and ``reach[l, i]`` the largest K_l
    over the offsets a subject can take from reference vertex i.
    The arrays are read-only: a ``GmmModel`` set's tables are shared through
    ``_STORE`` (see ``_scoring_tables``), about 17 KB per label at dim 15,
    69 KB at dim 30 and 275 KB at dim 60, for at most ``_ENTRIES_PER_MODEL``
    geometries and model sets per first model, released with it.
    """

    labels: tuple[str, ...]
    kernels: np.ndarray
    peaks: np.ndarray
    spectra: np.ndarray
    reach: np.ndarray


# Per first-label GmmModel of a model set, its read-only tables per (geometry, labels,
# other models), least recently used first: at most _ENTRIES_PER_MODEL, released with it.
_STORE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_ENTRIES_PER_MODEL = 4


def _geometry(grid: Grid) -> tuple:
    """What ``_offset_kernels`` reads of ``grid``: its dim, origin, row latitudes and column longitudes.

    Not its bbox: a hand-built ``Grid`` may share a bbox with another layout.
    """
    dim = grid.dim
    return dim, grid.origin, grid.vertices[::dim, 0].tobytes(), grid.vertices[:dim, 1].tobytes()


def _build_tables(grid: Grid, models, labels) -> _ScoringTables:
    """The read-only scoring tables of ``labels`` on ``grid``."""
    dim = grid.dim
    kernels = _offset_kernels(grid, models, labels)
    peaks = kernels.max(axis=(1, 2))
    live = np.isfinite(peaks)
    scaled = np.zeros_like(kernels)
    scaled[live] = np.exp(kernels[live] - peaks[live, None, None])
    windows = _window_max(_window_max(kernels, dim, 1), dim, 2)
    # Reference (row, col) sees the window starting at kernel (dim-1-row, dim-1-col).
    reach = windows[:, ::-1, ::-1].reshape(len(kernels), -1)
    # A power of two: 2*dim - 1 itself is 29 or 59 at dims 15 and 30, primes that numpy.fft transforms slowly.
    n = 1 << (2 * dim - 2).bit_length()
    tables = _ScoringTables(labels, kernels, peaks, np.fft.rfft2(scaled, s=(n, n)), reach)
    for array in (tables.kernels, tables.peaks, tables.spectra, tables.reach):
        array.flags.writeable = False
    return tables


def _scoring_tables(grid: Grid, models) -> _ScoringTables:
    """The scoring tables of ``models`` on ``grid``: O(L * dim^2) memory, not L * V^2.

    A set of ``GmmModel`` objects reuses its tables from ``_STORE``; any other
    model set, whose densities may change between calls, gets them built anew.
    """
    if not models:
        raise ValueError("at least one model is required")
    labels = tuple(sorted(models))
    first, others = models[labels[0]], tuple(models[label] for label in labels[1:])
    # A first model among the others would be held by its own entry and never released.
    if not all(isinstance(model, GmmModel) for model in models.values()) or first in others:
        return _build_tables(grid, models, labels)
    # The key holds the other models, so they live as long as the entry and no new model can match it.
    key = (_geometry(grid), labels, others)
    store = _STORE.setdefault(first, {})
    tables = store.pop(key, None)
    if tables is None:
        tables = _build_tables(grid, models, labels)
    store[key] = tables
    if len(store) > _ENTRIES_PER_MODEL:
        store.pop(next(iter(store)), None)
    return tables


def _score_block(grid: Grid, tables: _ScoringTables, choice: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fused (P, V) vertex distributions and (P,) surface peaks of a block of points.

    ``choice`` holds the block's rows of ``_select_models``. A point's column
    sums are sum_i exp(K_{c_i}[j - i] - peak), where its peak, the largest
    K_{c_i}[j - i] over every pair, is the largest ``reach`` of its choices.
    Per label, that sum is the 2-D convolution of the dim x dim map of the
    references that chose it, each weighted by exp(m_l - peak), with
    exp(K_l - m_l); the sums are the window [dim - 1, 2*dim - 2]^2 of the
    sum over labels, added label by label as the ``rfft2`` of the block's
    maps times the label's spectrum, then one ``irfft2`` (n >= 2*dim - 1,
    so no wrap-around reaches the window). Round-off below zero is clamped to 0.
    A label whose kernel maximum lies above the point's peak (no vertex that
    chose it reaches that maximum) uses its own kernel exp(min(K - peak, 0))
    instead, which is exact because no pair uses an entry above the peak. A
    point whose peak is infinite gets the uniform surface.
    """
    dim, v = grid.dim, grid.vertex_count
    n_points, n_labels = len(choice), len(tables.peaks)
    shape = (tables.spectra.shape[1],) * 2
    peak = tables.reach[choice, np.arange(v)].max(axis=1)
    flat = np.isinf(peak)
    excess = tables.peaks - np.where(flat, 0.0, peak)[:, None]
    unreachable = (excess > 0.0) & ~flat[:, None]
    scale = np.exp(np.minimum(excess, 0.0))
    scale[unreachable | flat[:, None]] = 0.0
    # One label at a time: every label's masks and transforms held at once would be paged in afresh per block.
    # numpy.fft transforms each point of a batch alike, so a point scores the same in any block.
    for label in range(n_labels):
        chosen = choice == label
        unreachable[:, label] &= chosen.any(axis=1)
        product = np.fft.rfft2((chosen * scale[:, label, None]).reshape(n_points, dim, dim), s=shape)
        product *= tables.spectra[label]
        spectrum = product if label == 0 else np.add(spectrum, product, out=spectrum)
    for point, label in np.argwhere(unreachable):
        clamped = np.exp(np.minimum(tables.kernels[label] - peak[point], 0.0))
        mask = (choice[point] == label).reshape(dim, dim)
        spectrum[point] += np.fft.rfft2(mask, s=shape) * np.fft.rfft2(clamped, s=shape)
    sums = np.fft.irfft2(spectrum, s=shape)[:, dim - 1 : 2 * dim - 1, dim - 1 : 2 * dim - 1]
    sums = np.maximum(sums, 0.0).reshape(n_points, v)
    sums[flat] = 1.0
    return sums / sums.sum(axis=1, keepdims=True), peak


def score_point(point, grid: Grid, models) -> PredictionSurface:
    """Score every grid vertex and region as the location of ``point``.

    ``point`` is a WGS84 (lat, lon); it may lie outside the grid's bbox.
    """
    lat, lon = map(float, point)
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise ValueError(f"point ({lat}, {lon}) is not finite")
    _check_coords(lat, lon, "point")
    tables = _scoring_tables(grid, models)
    choices, log_densities = _select_models(np.array([(lat, lon)]), grid, models, tables.labels)
    fused, peak = _score_block(grid, tables, choices)
    if np.isinf(peak[0]):
        underflow = tuple(range(grid.vertex_count))
    else:
        underflow = tuple(np.flatnonzero(np.isneginf(log_densities[:, 0].max(axis=0))).tolist())
    return PredictionSurface(
        fused_vertex=fused[0],
        region_likelihoods=grid.region_average(fused[0]),
        chosen_labels=tuple(tables.labels[i] for i in choices[0]),
        underflow_vertices=underflow,
    )


def _true_region_ranks(grid: Grid, points: np.ndarray, region_likelihoods: np.ndarray) -> np.ndarray:
    """Per point, the position of its own region when its row of likelihoods is ranked.

    Regions rank from most to least likely, ties favoring the lower index, so
    that position is the number of regions more likely than the point's
    region plus the number of equally likely regions with a lower index.
    """
    target = grid._regions(points)
    own = region_likelihoods[np.arange(len(target)), target][:, None]
    earlier = np.arange(grid.region_count) < target[:, None]
    return np.count_nonzero(region_likelihoods > own, axis=1) + np.count_nonzero(
        (region_likelihoods == own) & earlier, axis=1
    )


def _check_k(k: int, region_count: int) -> None:
    if not (1 <= k <= region_count):
        raise ValueError(f"k must lie in [1, {region_count}]")


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
    choices = np.empty((n_points, grid.vertex_count), dtype=np.min_scalar_type(len(tables.labels)))
    ranks = np.empty(n_points, dtype=int)
    block = max(1, _PAIR_BUDGET // grid.vertex_count)
    for start in range(0, n_points, block):
        chunk = points[start : start + block]
        choice, _ = _select_models(chunk, grid, models, tables.labels)
        choices[start : start + block] = choice
        fused, _ = _score_block(grid, tables, choice)
        ranks[start : start + block] = _true_region_ranks(grid, chunk, grid.region_average(fused))
    return PredictionTrial(grid, points, ranks.tolist(), tables.labels, choices)


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


# Thresholds of the geometric ground truth in ``relation_holds``.
NEAR_KM = 6.5
AT_KM = 2.5
CONTAINMENT_KM = 2.5
SECTOR_HALF_WIDTH_DEG = 60.0
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


def relation_holds(label: str, distance_km: float, orientation_deg: float) -> bool:
    """Whether ``label`` holds for a subject this far from its reference, seen at this orientation.

    A directional label holds within ``SECTOR_HALF_WIDTH_DEG`` of its
    cardinal direction, edges included; an unknown label never holds.
    """
    if label in ("near", "next to", "close to"):
        return distance_km <= NEAR_KM
    if label == "at":
        return distance_km <= AT_KM
    if label == "in":
        return distance_km <= CONTAINMENT_KM
    if label in _SECTOR_CENTERS:
        delta = abs((orientation_deg - _SECTOR_CENTERS[label] + 180.0) % 360.0 - 180.0)
        return delta <= SECTOR_HALF_WIDTH_DEG
    return False


def qualitative_accuracy(trial: PredictionTrial) -> float:
    """Fraction of a trial's label choices whose predicate holds for the point seen from the vertex."""
    if trial.choices.size == 0:
        raise ValueError("trial must hold at least one label choice")
    distance, orientation = _point_features(trial.points, trial.grid)
    labels = map(trial.labels.__getitem__, trial.choices.ravel().tolist())
    correct = sum(map(relation_holds, labels, distance.ravel().tolist(), orientation.ravel().tolist()))
    return correct / trial.choices.size


# JSON's spellings of the non-finite floats that ``repr`` spells nan, inf and -inf.
_JSON_SPELLINGS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _spell(grid: Grid, region_likelihoods) -> tuple[list[str], list[str]]:
    """Per region, its likelihood as ``repr`` (CSV) and ``json.dumps`` (GeoJSON) spell it: alike if finite."""
    values = np.asarray(region_likelihoods, dtype=float)
    if values.shape != (grid.region_count,):
        raise ValueError(f"{values.size} region likelihoods for a grid of {grid.region_count} regions")
    spelled = list(map(repr, values.tolist()))
    if np.isfinite(values).all():
        return spelled, spelled
    return spelled, [_JSON_SPELLINGS.get(value, value) for value in spelled]


def _region_text(grid: Grid, head: str, columns: list, tail: str) -> str:
    """``head``, then per region each column's entry in turn, then ``tail``, in one join.

    A column is a list of one string per region (row-major), or one string
    for every region.
    """
    n, k = grid.region_count, len(columns)
    parts = [""] * (k * n + 2)
    parts[0], parts[-1] = head, tail
    for i, column in enumerate(columns):
        parts[1 + i : -1 : k] = [column] * n if isinstance(column, str) else column
    return "".join(parts)


def _row_col_columns(grid: Grid) -> tuple[list[str], list[str]]:
    """Each region's row and column number as text, spelled once per row and once per column."""
    labels = [str(cell) for cell in range(grid.dim - 1)]
    return [label for label in labels for _ in labels], labels * len(labels)


def _csv_text(grid: Grid, likelihoods: list[str]) -> str:
    rows, cols = _row_col_columns(grid)
    return _region_text(grid, "region_row,region_col,likelihood\n", [rows, ",", cols, ",", likelihoods, "\n"], "")


def _geojson_text(grid: Grid, likelihoods: list[str]) -> str:
    dim = grid.dim
    lons = list(map(repr, grid.vertices[:dim, 1].tolist()))
    positions = [[f"[{lon}, {lat}]" for lon in lons] for lat in map(repr, grid.vertices[::dim, 0].tolist())]
    bottom, top = positions[:-1], positions[1:]
    bl, br = [p for row in bottom for p in row[:-1]], [p for row in bottom for p in row[1:]]
    tl, tr = [p for row in top for p in row[:-1]], [p for row in top for p in row[1:]]
    rows, cols = _row_col_columns(grid)
    feature = '{"type": "Feature", "geometry": {"type": "Polygon", "coordinates": [['
    opens = [feature] + [", " + feature] * (grid.region_count - 1)
    columns = [opens, bl, ", ", br, ", ", tr, ", ", tl, ", ", bl, ']]}, "properties": {"region_row": ', rows,
               ', "region_col": ', cols, ', "likelihood": ', likelihoods, "}}"]
    return _region_text(grid, '{"type": "FeatureCollection", "features": [', columns, "]}")


def surface_to_csv(grid: Grid, region_likelihoods: np.ndarray) -> str:
    """Region likelihoods as ``region_row,region_col,likelihood`` CSV text, one row per region."""
    return _csv_text(grid, _spell(grid, region_likelihoods)[0])


def surface_to_geojson(grid: Grid, region_likelihoods: np.ndarray) -> str:
    """Region likelihoods as GeoJSON FeatureCollection text, as ``json.dumps`` writes it, one feature per region."""
    return _geojson_text(grid, _spell(grid, region_likelihoods)[1])


def surface_texts(grid: Grid, region_likelihoods: np.ndarray) -> tuple[str, str]:
    """``surface_to_csv`` and ``surface_to_geojson`` of one surface, spelling each likelihood once."""
    csv_spelling, json_spelling = _spell(grid, region_likelihoods)
    return _csv_text(grid, csv_spelling), _geojson_text(grid, json_spelling)
