"""Grid scoring: model selection, surface fusion, rankings, and the oracle."""

import gc
import json
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from geotri import predict
from geotri.features import ProjectionOrigin, feature_components
from geotri.mixture import GaussianComponent, GmmModel
from geotri.predict import (
    PredictionTrial,
    make_grid,
    prediction_accuracy,
    prediction_trial,
    qualitative_accuracy,
    relation_holds,
    score_point,
    surface_texts,
    surface_to_csv,
    surface_to_geojson,
)
from geotri.synth import CITY_BBOX, synthetic_city_models

from conftest import UniformDensityModel

BBOX = CITY_BBOX
# City box, a box about four times wider than tall, and a box near 60 degrees north.
KERNEL_BBOXES = [CITY_BBOX, (40.0, 116.0, 40.06, 116.35), (59.9, 10.6, 60.08, 10.95)]


def corner_table(dim: int) -> np.ndarray:
    """Per region, its (bottom-left, bottom-right, top-left, top-right) vertex indices, one cell at a time."""
    cells = dim - 1
    table = np.empty((cells * cells, 4), dtype=int)
    for row in range(cells):
        for col in range(cells):
            base = row * dim + col
            table[row * cells + col] = (base, base + 1, base + dim, base + dim + 1)
    return table


def diag_model(relation: str, mean, var_d: float, var_o: float, weight: float = 1.0) -> GmmModel:
    cov = np.array([[var_d, 0.0], [0.0, var_o]])
    return GmmModel(relation, (GaussianComponent(weight, mean, cov),))


def demo_models():
    return {
        "at": diag_model("at", [0.9, 180.0], 0.09, 8100.0),
        "near": diag_model("near", [4.0, 180.0], 1.0, 8100.0),
    }


def reversed_city_models():
    """``synthetic_city_models`` inserted in reverse label order: scoring must not follow dict order."""
    return dict(reversed(synthetic_city_models().items()))


def test_grid_dimension_counts():
    grid = make_grid(BBOX, 15)
    assert grid.vertex_count == 225
    assert grid.region_count == 196
    assert grid.vertices.shape == (225, 2)


def test_grid_traversal_starts_bottom_left():
    grid = make_grid(BBOX, 3)
    min_lat, min_lon, max_lat, max_lon = BBOX
    assert grid.vertices[0].tolist() == [min_lat, min_lon]
    # Next vertex moves east along the bottom row, last sits top-right.
    assert grid.vertices[1][0] == min_lat
    assert grid.vertices[1][1] > min_lon
    assert grid.vertices[-1].tolist() == [max_lat, max_lon]


def test_grid_region_corner_order():
    grid = make_grid(BBOX, 3)
    bl, br, tl, tr = corner_table(grid.dim)[0]
    assert grid.vertices[bl][0] == grid.vertices[br][0]
    assert grid.vertices[tl][0] == grid.vertices[tr][0]
    assert grid.vertices[bl][1] == grid.vertices[tl][1]
    assert grid.vertices[bl][0] < grid.vertices[tl][0]
    assert grid.vertices[bl][1] < grid.vertices[br][1]


@pytest.mark.parametrize("dim", [2, 3, 15, 30, 60])
def test_grid_regions_match_corner_loop(dim):
    """Region averages and centres are bitwise the corner-table sums, in corner order."""
    grid = make_grid(BBOX, dim)
    c = corner_table(dim)

    def oracle(v):
        return (v[..., c[:, 0]] + v[..., c[:, 1]] + v[..., c[:, 2]] + v[..., c[:, 3]]) / 4.0

    rng = np.random.default_rng(dim)
    for shape in [(grid.vertex_count,), (7, grid.vertex_count), (2, grid.vertex_count)]:
        values = rng.random(shape) ** rng.integers(1, 41, shape)
        got, want = grid.region_average(values), oracle(values)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    got, want = grid.region_centers(), oracle(grid.vertices.T).T
    assert got.shape == (grid.region_count, 2) and got.tobytes() == want.tobytes()


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(BBOX, 1)
    with pytest.raises(ValueError):
        make_grid((40.0, 116.0, 40.0, 116.2), 5)


@pytest.mark.parametrize("corner", [0, 1, 2, 3])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_grid_rejects_non_finite_bbox_before_numpy(corner, value):
    bbox = list(BBOX)
    bbox[corner] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite bbox"):
            make_grid(tuple(bbox), 5)


@pytest.mark.parametrize("point", [(math.nan, 116.1), (40.05, math.inf), (-math.inf, 116.1)])
def test_score_point_rejects_non_finite_point(point):
    grid = make_grid(BBOX, 5)
    with pytest.raises(ValueError, match=r"point \(.*\) is not finite"):
        score_point(point, grid, demo_models())


@pytest.mark.parametrize("bbox", [(80.0, 0.0, 100.0, 10.0), (40.0, 170.0, 41.0, 190.0), (-91.0, 0.0, 0.0, 1.0)])
def test_grid_rejects_bbox_outside_wgs84(bbox):
    with pytest.raises(ValueError, match="bbox corner out of range"):
        make_grid(bbox, 5)


@pytest.mark.parametrize("point", [(95.0, 116.1), (40.05, -180.5), (-90.5, 116.1)])
def test_score_point_rejects_point_outside_wgs84(point):
    grid = make_grid(BBOX, 5)
    with pytest.raises(ValueError, match=rf"point out of range: lat={point[0]} lon={point[1]}"):
        score_point(point, grid, demo_models())


def test_score_point_accepts_finite_point_outside_bbox():
    grid = make_grid(BBOX, 5)
    surface = score_point((BBOX[2] + 0.5, BBOX[1] - 0.5), grid, demo_models())
    assert math.fsum(surface.fused_vertex) == pytest.approx(1.0)


def test_region_containing_cells_and_edges():
    grid = make_grid((0.0, 0.0, 4.0, 4.0), 5)
    assert grid.region_containing(0.5, 0.5) == 0
    assert grid.region_containing(3.5, 3.5) == 15
    # The top-right corner clamps into the last cell.
    assert grid.region_containing(4.0, 4.0) == 15
    with pytest.raises(ValueError):
        grid.region_containing(4.1, 0.0)


def scalar_region(grid, lat: float, lon: float) -> int:
    """The region rule one point at a time: cell row and column, the top and right edges clamped into the last cell."""
    min_lat, min_lon, max_lat, max_lon = grid.bbox
    cells = grid.dim - 1
    row = min(int((lat - min_lat) / (max_lat - min_lat) * cells), cells - 1)
    col = min(int((lon - min_lon) / (max_lon - min_lon) * cells), cells - 1)
    return row * cells + col


@pytest.mark.parametrize("bbox", [*KERNEL_BBOXES, (0.0, 0.0, 4.0, 4.0)])
@pytest.mark.parametrize("dim", [2, 5, 15, 60])
def test_region_lookup_of_many_points_matches_the_scalar_rule(bbox, dim):
    grid = make_grid(bbox, dim)
    lats, lons = grid.vertices[::dim, 0], grid.vertices[:dim, 1]
    # Every cell edge (the top and right bbox edges among them), the bbox as given, and each cell's middle.
    lat_values = np.concatenate([lats, bbox[::2], (lats[:-1] + lats[1:]) / 2])
    lon_values = np.concatenate([lons, bbox[1::2], (lons[:-1] + lons[1:]) / 2])
    points = np.array([(lat, lon) for lat in lat_values.tolist() for lon in lon_values.tolist()])
    expected = [scalar_region(grid, lat, lon) for lat, lon in points.tolist()]
    assert grid._regions(points).tolist() == expected
    assert [grid.region_containing(lat, lon) for lat, lon in points.tolist()] == expected


def test_surface_vertex_mass_normalized():
    grid = make_grid(BBOX, 9)
    surface = score_point((40.09, 116.12), grid, demo_models())
    assert math.fsum(surface.fused_vertex.tolist()) == pytest.approx(1.0, abs=1e-9)
    assert np.all(surface.fused_vertex >= 0.0)


def test_surface_regions_match_corner_average_oracle():
    grid = make_grid(BBOX, 9)
    surface = score_point((40.05, 116.2), grid, demo_models())
    for index, corners in enumerate(corner_table(grid.dim)):
        oracle = (
            surface.fused_vertex[corners[0]]
            + surface.fused_vertex[corners[1]]
            + surface.fused_vertex[corners[2]]
            + surface.fused_vertex[corners[3]]
        ) / 4.0
        assert abs(surface.region_likelihoods[index] - oracle) <= 1e-12


def best_model(point, ref_vertex, models, origin: ProjectionOrigin) -> str:
    """Reference selection at one vertex: the label maximizing the point's density.

    Ties break lexicographically; if every model underflows to zero density
    the lexicographically first label is returned.
    """
    labels = sorted(models)
    dist, orient = feature_components(point[0], point[1], ref_vertex[0], ref_vertex[1], origin)
    x = np.array([[float(dist), float(orient)]])
    scores = [float(models[label].logpdf(*x.T)[0]) for label in labels]
    return labels[int(np.argmax(scores))]


def region_ranking(region_likelihoods: np.ndarray) -> list[int]:
    """Region indices from most to least likely; ties favor the lower index."""
    return np.argsort(-np.asarray(region_likelihoods), kind="stable").tolist()


def test_surface_chosen_labels_match_best_model():
    grid = make_grid(BBOX, 7)
    models = demo_models()
    point = (40.08, 116.1)
    surface = score_point(point, grid, models)
    for vertex, label in zip(grid.vertices, surface.chosen_labels):
        assert label == best_model(point, (vertex[0], vertex[1]), models, grid.origin)


def test_selection_prefers_denser_label():
    # On the dim-3 city grid, vertex 4 is the bbox center (40.09, 116.1175).
    grid = make_grid(BBOX, 3)
    models = demo_models()
    nearby = (40.097, 116.1175)
    faraway = (40.13, 116.1175)
    assert score_point(nearby, grid, models).chosen_labels[4] == "at"
    assert score_point(faraway, grid, models).chosen_labels[4] == "near"


def test_selection_tie_breaks_on_sorted_label():
    grid = make_grid(BBOX, 3)
    same = diag_model("zeta", [1.0, 180.0], 1.0, 100.0)
    clone = diag_model("alpha", [1.0, 180.0], 1.0, 100.0)
    surface = score_point((40.1, 116.1175), grid, {"zeta": same, "alpha": clone})
    assert surface.chosen_labels == ("alpha",) * grid.vertex_count


def test_score_point_requires_models():
    grid = make_grid(BBOX, 5)
    with pytest.raises(ValueError):
        score_point((40.05, 116.1), grid, {})


def test_sharp_at_model_peaks_near_point():
    # A tight zero-distance model against a very broad background: vertices
    # close to the point select "at" and pile their mass onto themselves, so
    # the fused peak tracks the point through the selection channel alone.
    grid = make_grid(BBOX, 15)
    models = {
        "at": diag_model("at", [0.0, 180.0], 1.0, 1e6),
        "background": diag_model("background", [0.0, 180.0], 10000.0, 1e6),
    }
    cell_km, _ = feature_components(
        grid.vertices[0][0], grid.vertices[0][1], grid.vertices[1][0], grid.vertices[1][1], grid.origin
    )
    for point in [(40.0905, 116.1183), (40.05, 116.2), (40.16, 116.03)]:
        surface = score_point(point, grid, models)
        assert "at" in surface.chosen_labels and "background" in surface.chosen_labels
        top_vertex = grid.vertices[int(np.argmax(surface.fused_vertex))]
        dist, _ = feature_components(top_vertex[0], top_vertex[1], point[0], point[1], grid.origin)
        assert float(dist) <= 1.5 * float(cell_km)


def direct_surface(point, grid, models):
    """Reference scoring: every (reference, subject) vertex pair evaluated directly.

    Returns the fused vertex distribution (column sums added with ``math.fsum``),
    the chosen labels and the underflow vertices.
    """
    labels = sorted(models)
    lats, lons = grid.vertices[:, 0], grid.vertices[:, 1]
    dist, orient = feature_components(point[0], point[1], lats, lons, grid.origin)
    selection = np.stack([models[label].logpdf(dist, orient) for label in labels])
    choice = np.argmax(selection, axis=0)
    underflow = tuple(int(i) for i in np.flatnonzero(np.isneginf(selection.max(axis=0))))
    pair_dist, pair_orient = feature_components(
        lats[None, :], lons[None, :], lats[:, None], lons[:, None], grid.origin
    )
    pairs = np.stack([pair_dist, pair_orient], axis=-1)
    log_surface = np.empty(pair_dist.shape)
    for index, label in enumerate(labels):
        rows = choice == index
        log_surface[rows] = models[label].logpdf(*pairs[rows].reshape(-1, 2).T).reshape(-1, grid.vertex_count)
    peak = log_surface.max()
    if math.isinf(peak):
        scaled = np.ones_like(log_surface)
        underflow = tuple(range(grid.vertex_count))
    else:
        scaled = np.exp(log_surface - peak)
    columns = np.array([math.fsum(column) for column in scaled.T.tolist()])
    return columns / math.fsum(columns), tuple(labels[c] for c in choice), underflow


@pytest.mark.parametrize("bbox", KERNEL_BBOXES)
@pytest.mark.parametrize("dim", [2, 7, 15, 30])
@pytest.mark.parametrize("city", [False, True, "reversed"])
def test_score_point_matches_direct_pairs(bbox, dim, city):
    models = {False: demo_models, True: synthetic_city_models, "reversed": reversed_city_models}[city]()
    grid = make_grid(bbox, dim)
    rng = np.random.default_rng(dim)
    for _ in range(3):
        point = (rng.uniform(bbox[0], bbox[2]), rng.uniform(bbox[1], bbox[3]))
        fused, labels, underflow = direct_surface(point, grid, models)
        surface = score_point(point, grid, models)
        assert np.abs(surface.fused_vertex - fused).max() <= 1e-12 * fused.max()
        assert surface.chosen_labels == labels
        assert surface.underflow_vertices == underflow
        if city:
            top = min(20, grid.region_count)
            expected = region_ranking(grid.region_average(fused))[:top]
            assert region_ranking(surface.region_likelihoods)[:top] == expected


class WithinStub:
    """Log density 0 within ``radius_km`` of the reference, -inf beyond."""

    def __init__(self, radius_km: float):
        self.radius_km = radius_km

    def logpdf(self, distance, orientation) -> np.ndarray:
        return np.where(distance <= self.radius_km, 0.0, -np.inf)


def test_underflow_at_some_reference_vertices():
    grid = make_grid(BBOX, 9)
    point = (40.01, 116.02)
    models = {"near": WithinStub(7.3), "nearer": WithinStub(3.1)}
    # A plain model may change between calls on one grid, so its tables are never kept.
    for radius in (7.3, 5.2):
        models["near"].radius_km = radius
        surface = score_point(point, grid, models)
        fused, labels, underflow = direct_surface(point, grid, models)
        # Vertices farther than the radius from the point fall back to the first label.
        assert 0 < len(surface.underflow_vertices) < grid.vertex_count
        assert surface.underflow_vertices == underflow
        assert all(surface.chosen_labels[i] == "near" for i in underflow)
        assert surface.chosen_labels == labels
        assert np.abs(surface.fused_vertex - fused).max() <= 1e-12 * fused.max()


def test_underflow_everywhere_gives_uniform_surface():
    grid = make_grid(BBOX, 7)
    surface = score_point((40.1, 116.1), grid, {"nowhere": WithinStub(-1.0), "never": WithinStub(-1.0)})
    assert surface.underflow_vertices == tuple(range(grid.vertex_count))
    assert surface.chosen_labels == ("never",) * grid.vertex_count
    assert np.all(surface.fused_vertex == 1.0 / grid.vertex_count)


@pytest.mark.parametrize("dead", ["absent", "never"])
def test_label_without_density_anywhere_adds_nothing(dead):
    # "absent" sorts first, so it is the fallback at every underflow vertex;
    # "never" sorts after "near" and is never chosen. Its kernel is all -inf.
    grid = make_grid(BBOX, 9)
    point = (40.01, 116.02)
    models = {"near": WithinStub(7.3), dead: WithinStub(-1.0)}
    surface = score_point(point, grid, models)
    fused, labels, underflow = direct_surface(point, grid, models)
    assert not np.isnan(surface.fused_vertex).any()
    assert np.abs(surface.fused_vertex - fused).max() <= 1e-12 * fused.max()
    # Most vertices are out of every reference's reach, so their mass is 0 up to FFT round-off.
    assert surface.fused_vertex.min() >= 0 and surface.region_likelihoods.min() >= 0
    assert surface.chosen_labels == labels
    assert 0 < len(underflow) < grid.vertex_count
    assert surface.underflow_vertices == underflow


class SouthwestStub:
    """Log density rising by ``slope`` per km of the subject's offset southwest of its reference."""

    def __init__(self, slope: float, offset: float):
        self.slope, self.offset = slope, offset

    def logpdf(self, distance, orientation) -> np.ndarray:
        radians = np.radians(orientation)
        return -self.slope * distance * (np.cos(radians) + np.sin(radians)) - self.offset


class LevelStub:
    """The same log density ``level`` at every pair."""

    def __init__(self, level: float):
        self.level = level

    def logpdf(self, distance, orientation) -> np.ndarray:
        return np.full(np.shape(distance), self.level)


# A gap of 800 overflows exp(gap) and underflows exp(-gap).
@pytest.mark.parametrize(("slope", "offset", "gap"), [(0.3, 8.0, 1.0), (200.0, 1000.0, 800.0)])
def test_kernel_peak_out_of_reach_of_every_vertex_that_chose_it(slope, offset, gap):
    # The "southwest" kernel peaks at the longest southwest offset, which only
    # the top-right vertex can reach; that vertex sits next to the point and
    # chooses "near". So the kernel peak lies above the surface's peak.
    grid = make_grid(BBOX, 9)
    point = (40.17, 116.225)
    models = {"near": WithinStub(3.0), "southwest": SouthwestStub(slope, offset)}
    tables = predict._scoring_tables(grid, models)
    choice, _ = predict._select_models(np.array([point]), grid, models, tables.labels)
    _, peak = predict._score_block(grid, tables, choice)
    assert choice[0, -1] == 0 and np.count_nonzero(choice[0]) > 0
    assert tables.peaks[1] - peak[0] > gap
    surface = score_point(point, grid, models)
    fused, labels, underflow = direct_surface(point, grid, models)
    assert np.abs(surface.fused_vertex - fused).max() <= 1e-12 * fused.max()
    assert surface.fused_vertex.min() >= 0 and surface.region_likelihoods.min() >= 0
    assert surface.chosen_labels == labels
    assert surface.underflow_vertices == underflow


def batched_score_block(grid, tables, choice):
    """The scorer with one ``rfft2`` over the block's whole (P, L, dim, dim) stack of label maps: the bitwise reference."""
    dim, v = grid.dim, grid.vertex_count
    n_points, n_labels = len(choice), len(tables.peaks)
    shape = (tables.spectra.shape[1],) * 2
    peak = tables.reach[choice, np.arange(v)].max(axis=1)
    flat = np.isinf(peak)
    excess = tables.peaks - np.where(flat, 0.0, peak)[:, None]
    unreachable = (excess > 0.0) & ~flat[:, None]
    scale = np.exp(np.minimum(excess, 0.0))
    scale[unreachable | flat[:, None]] = 0.0
    chosen = choice[:, None, :] == np.arange(n_labels)[:, None]
    transforms = np.fft.rfft2((chosen * scale[:, :, None]).reshape(n_points, n_labels, dim, dim), s=shape)
    spectrum = transforms[:, 0] * tables.spectra[0]
    for label in range(1, n_labels):
        spectrum += transforms[:, label] * tables.spectra[label]
    for point, label in np.argwhere(unreachable & chosen.any(axis=2)):
        clamped = np.exp(np.minimum(tables.kernels[label] - peak[point], 0.0))
        mask = chosen[point, label].reshape(dim, dim)
        spectrum[point] += np.fft.rfft2(mask, s=shape) * np.fft.rfft2(clamped, s=shape)
    sums = np.fft.irfft2(spectrum, s=shape)[:, dim - 1 : 2 * dim - 1, dim - 1 : 2 * dim - 1]
    sums = np.maximum(sums, 0.0).reshape(n_points, v)
    sums[flat] = 1.0
    return sums / sums.sum(axis=1, keepdims=True), peak


def random_points(bbox, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(bbox[0], bbox[2], count), rng.uniform(bbox[1], bbox[3], count)])


def assert_score_block_is_batched(grid, models, points):
    tables = predict._scoring_tables(grid, models)
    choice, _ = predict._select_models(points, grid, models, tables.labels)
    fused, peak = predict._score_block(grid, tables, choice)
    want_fused, want_peak = batched_score_block(grid, tables, choice)
    assert fused.tobytes() == want_fused.tobytes()
    assert peak.tobytes() == want_peak.tobytes()


@pytest.mark.parametrize("dim", [2, 7, 15, 30, 60])
@pytest.mark.parametrize("count", [1, 3, 32])
def test_score_block_is_bitwise_the_batched_block(dim, count):
    grid = make_grid(BBOX, dim)
    for models in (synthetic_city_models(), reversed_city_models()):
        assert_score_block_is_batched(grid, models, random_points(BBOX, count, dim * count))


@pytest.mark.parametrize(
    "models",
    [
        {"near": WithinStub(3.0), "southwest": SouthwestStub(0.3, 8.0)},
        {"near": WithinStub(3.0), "southwest": SouthwestStub(200.0, 1000.0)},
        # "steady" wins beyond about 9.5 km and sorts after "southwest", so its product is added after that label's.
        {"near": WithinStub(3.0), "southwest": SouthwestStub(0.3, 8.0), "steady": LevelStub(-12.0)},
        {"nowhere": WithinStub(-1.0), "never": WithinStub(-1.0)},
        {"near": WithinStub(7.3), "nearer": WithinStub(3.1)},
        {"near": WithinStub(7.3), "absent": WithinStub(-1.0)},
    ],
    ids=["out-of-reach", "out-of-reach-overflow", "out-of-reach-mid-label", "underflow-everywhere",
         "underflow-somewhere", "dead-label"],
)
@pytest.mark.parametrize("count", [1, 3, 32])
def test_score_block_is_bitwise_the_batched_block_on_stubs(models, count):
    # The first point is the one whose "southwest" kernel peak no vertex that chose it can reach.
    points = random_points(BBOX, count, count)
    points[0] = (40.17, 116.225)
    assert_score_block_is_batched(make_grid(BBOX, 9), models, points)


def test_score_block_holds_one_label_of_transforms_at_a_time():
    # With every label's (P, L, n, n // 2 + 1) transforms at once, this block peaked at 2.2 MB.
    grid, models = make_grid(BBOX, 15), synthetic_city_models()
    tables = predict._scoring_tables(grid, models)
    choice, _ = predict._select_models(random_points(BBOX, 32, 15), grid, models, tables.labels)
    tracemalloc.start()
    try:
        predict._score_block(grid, tables, choice)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25e6


def test_uniform_stub_surface_is_uniform():
    grid = make_grid(BBOX, 15)
    surface = score_point((40.1, 116.05), grid, {"anywhere": UniformDensityModel()})
    expected = 1.0 / grid.vertex_count
    assert np.abs(surface.fused_vertex - expected).max() <= 1e-12
    assert np.abs(surface.region_likelihoods - expected).max() <= 1e-12


def fresh_tables(grid, models) -> predict._ScoringTables:
    """Every label's scoring tables built from ``_offset_kernels`` in one batch, outside the store."""
    dim, labels = grid.dim, tuple(sorted(models))
    kernels = predict._offset_kernels(grid, models, labels)
    peaks = kernels.max(axis=(1, 2))
    live = np.isfinite(peaks)
    scaled = np.zeros_like(kernels)
    scaled[live] = np.exp(kernels[live] - peaks[live, None, None])
    windows = predict._window_max(predict._window_max(kernels, dim, 1), dim, 2)
    reach = windows[:, ::-1, ::-1].reshape(len(labels), -1)
    n = 1 << (2 * dim - 2).bit_length()
    return predict._ScoringTables(labels, kernels, peaks, np.fft.rfft2(scaled, s=(n, n)), reach)


def assert_tables_bitwise(got, want):
    assert got.labels == want.labels
    for name in ("kernels", "peaks", "spectra", "reach"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.fixture
def built_labels(monkeypatch):
    """The label tuples ``_scoring_tables`` builds tables for, one per build."""
    builds = []
    build = predict._build_tables

    def spy(grid, models, labels):
        builds.append(labels)
        return build(grid, models, labels)

    monkeypatch.setattr(predict, "_build_tables", spy)
    return builds


def hand_built(grid, vertices=None, origin=None) -> predict.Grid:
    """``grid``'s bbox and dim with other vertices or another origin."""
    vertices = grid.vertices if vertices is None else vertices
    return predict.Grid(grid.bbox, grid.dim, vertices, grid.origin if origin is None else origin)


@pytest.mark.parametrize("dim", [2, 15, 30])
def test_stored_tables_are_bitwise_a_fresh_build(dim, built_labels):
    grid, other = make_grid(BBOX, dim), make_grid(KERNEL_BBOXES[2], dim)
    city = synthetic_city_models()
    labels = tuple(sorted(city))
    # The stored city models plus one new model, the stored ones with another model under a
    # stored label, and plain stubs, which are built on every call.
    plus = {**city, "beside": diag_model("beside", [1.5, 90.0], 0.3, 900.0)}
    swapped = {**city, labels[-1]: synthetic_city_models()[labels[-1]]}
    stubs = {**city, "anywhere": UniformDensityModel(), "never": WithinStub(-1.0)}
    moved = hand_built(grid, vertices=make_grid(KERNEL_BBOXES[1], dim).vertices)
    shifted = hand_built(grid, origin=ProjectionOrigin(BBOX[0], BBOX[1]))
    calls = [
        (grid, city, True),  # none stored
        (grid, city, False),  # all stored
        (other, city, True),  # a second geometry
        (grid, city, False),  # alternating with the first, each keeps its own
        (other, city, False),
        (grid, plus, True),  # some stored
        (grid, plus, False),
        (grid, swapped, True),
        (grid, stubs, True),
        (grid, stubs, True),
        (moved, city, True),  # same bbox and dim, other vertices
        (shifted, city, True),  # same bbox, dim and vertices, another origin
    ]
    for at, models, builds in calls:
        del built_labels[:]
        assert_tables_bitwise(predict._scoring_tables(at, models), fresh_tables(at, models))
        assert built_labels == ([tuple(sorted(models))] if builds else [])


def test_stored_tables_are_read_only_and_released_with_their_model():
    grid = make_grid(BBOX, 7)
    models = synthetic_city_models()
    score_point((40.1, 116.1), grid, models)
    (tables,) = predict._STORE[models[min(models)]].values()
    arrays = [tables.kernels, tables.peaks, tables.spectra, tables.reach]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    released = [weakref.ref(value) for value in [*models.values(), *arrays]]
    del models, tables, arrays, array
    gc.collect()
    assert all(ref() is None for ref in released)


def test_model_set_holding_one_model_twice_is_not_stored(built_labels):
    grid, model = make_grid(BBOX, 7), demo_models()["at"]
    models = {"at": model, "by": model}
    for _ in range(2):
        assert_tables_bitwise(predict._scoring_tables(grid, models), fresh_tables(grid, models))
    assert built_labels == [("at", "by")] * 2
    assert model not in predict._STORE


def test_fifth_geometry_evicts_the_least_recently_used(built_labels):
    models = demo_models()
    grids = [make_grid((40.0, 116.0, 40.1 + 0.01 * i, 116.2), 5) for i in range(5)]
    for i in (0, 1, 2, 3, 0, 4):
        predict._scoring_tables(grids[i], models)
    keys = [(predict._geometry(grids[i]), ("at", "near"), (models["near"],)) for i in (2, 3, 0, 4)]
    assert list(predict._STORE[models["at"]]) == keys
    del built_labels[:]
    predict._scoring_tables(grids[1], models)
    assert built_labels == [("at", "near")]


def test_region_ranking_orders_and_breaks_ties_by_index():
    ranking = region_ranking(np.array([0.1, 0.4, 0.4, 0.1]))
    assert ranking == [1, 2, 0, 3]
    values = np.random.default_rng(3).choice([0.0, 1e-300, 0.25, 0.5], size=200)
    assert region_ranking(values) == sorted(range(200), key=lambda r: (-values[r], r))


def test_prediction_trial_reproducible_and_bounded():
    models = demo_models()
    first = prediction_trial(models, BBOX, 7, 25, seed=42)
    second = prediction_trial(models, BBOX, 7, 25, seed=42)
    assert first.ranks == second.ranks
    assert np.array_equal(first.points, second.points)
    accuracy = first.accuracy(5)
    assert 0.0 <= accuracy <= 1.0
    assert first.accuracy(10) >= accuracy


def test_prediction_trial_keeps_label_choices():
    trial = prediction_trial(demo_models(), BBOX, 5, 3, seed=1)
    assert trial.labels == ("at", "near")
    assert trial.choices.shape == (3, 25)
    assert trial.choices.dtype == np.uint8
    assert trial.choices.max() <= 1


@pytest.mark.parametrize("dim", [7, 15, 30])
def test_prediction_trial_choices_and_ranks_match_score_point(dim):
    # More points than one selection block holds, and not a multiple of it.
    n_points = predict._PAIR_BUDGET // (dim * dim) + 3
    trials = []
    for models in (synthetic_city_models(), reversed_city_models()):
        trial = prediction_trial(models, BBOX, dim, n_points, seed=dim)
        trials.append(trial)
        grid = trial.grid
        assert trial.choices.shape == (n_points, grid.vertex_count)
        for point, choice, rank in zip(trial.points, trial.choices, trial.ranks):
            surface = score_point(point, grid, models)
            assert tuple(trial.labels[c] for c in choice) == surface.chosen_labels
            target = grid.region_containing(point[0], point[1])
            assert rank == region_ranking(surface.region_likelihoods).index(target)
        # The whole trial as one block scores each point bit for bit as it scores alone.
        tables = predict._scoring_tables(grid, models)
        fused, peak = predict._score_block(grid, tables, trial.choices)
        for row, choice in enumerate(trial.choices):
            alone, alone_peak = predict._score_block(grid, tables, choice[None])
            assert np.array_equal(alone[0], fused[row]) and alone_peak[0] == peak[row]
    ordered, reversed_ = trials
    assert ordered.labels == reversed_.labels == tuple(sorted(ordered.labels))
    assert ordered.ranks == reversed_.ranks and np.array_equal(ordered.choices, reversed_.choices)


def test_uniform_stub_trial_ranks_match_stable_order():
    models = {"anywhere": UniformDensityModel()}
    trial = prediction_trial(models, BBOX, 9, 40, seed=8)
    grid = trial.grid
    for point, rank in zip(trial.points, trial.ranks):
        target = grid.region_containing(point[0], point[1])
        # Every region ties, so the stable order is the index order.
        assert rank == target
        assert rank == region_ranking(score_point(point, grid, models).region_likelihoods).index(target)


def test_true_region_ranks_match_stable_order_on_tied_surfaces():
    grid = make_grid(BBOX, 9)
    rng = np.random.default_rng(11)
    points = np.column_stack([rng.uniform(BBOX[0], BBOX[2], 60), rng.uniform(BBOX[1], BBOX[3], 60)])
    tied = rng.choice([0.0, 1e-300, 0.25, 0.5], size=(60, grid.region_count))
    tied[:3] = 0.5  # whole rows tied as well
    ranks = predict._true_region_ranks(grid, points, tied)
    for point, row, rank in zip(points, tied, ranks):
        assert rank == region_ranking(row).index(grid.region_containing(point[0], point[1]))


def test_prediction_trial_needs_a_point():
    with pytest.raises(ValueError, match="n_points must be >= 1"):
        prediction_trial(demo_models(), BBOX, 7, 0, seed=1)


@pytest.mark.parametrize("k", [0, 37])
def test_prediction_accuracy_rejects_bad_k_before_scoring(k, monkeypatch):
    def fail(*args):
        raise AssertionError("a point was scored")

    monkeypatch.setattr(predict, "_score_block", fail)
    with pytest.raises(ValueError, match=r"k must lie in \[1, 36\]"):
        prediction_accuracy(demo_models(), BBOX, 7, 2000, k, seed=1)


def test_surface_csv_layout():
    grid = make_grid(BBOX, 3)
    surface = score_point((40.05, 116.1), grid, demo_models())
    text = surface_to_csv(grid, surface.region_likelihoods)
    lines = text.strip().split("\n")
    assert lines[0] == "region_row,region_col,likelihood"
    assert len(lines) == 1 + grid.region_count
    row, col, value = lines[1].split(",")
    assert (row, col) == ("0", "0")
    assert float(value) == pytest.approx(surface.region_likelihoods[0])


def test_surface_geojson_structure():
    grid = make_grid(BBOX, 3)
    surface = score_point((40.05, 116.1), grid, demo_models())
    collection = json.loads(surface_to_geojson(grid, surface.region_likelihoods))
    assert collection["type"] == "FeatureCollection"
    assert len(collection["features"]) == grid.region_count
    feature = collection["features"][0]
    assert feature["geometry"]["type"] == "Polygon"
    ring = feature["geometry"]["coordinates"][0]
    assert ring[0] == ring[-1]
    assert len(ring) == 5
    assert feature["properties"]["likelihood"] == pytest.approx(surface.region_likelihoods[0])
    # GeoJSON positions are (lon, lat).
    lons = [p[0] for p in ring]
    assert all(BBOX[1] <= lon <= BBOX[3] for lon in lons)


def reference_csv(grid, region_likelihoods) -> str:
    """The surface CSV written one numpy scalar at a time."""
    cells = grid.dim - 1
    lines = ["region_row,region_col,likelihood"]
    for index, value in enumerate(region_likelihoods):
        lines.append(f"{index // cells},{index % cells},{float(value)!r}")
    return "\n".join(lines) + "\n"


def reference_geojson(grid, region_likelihoods) -> str:
    """The surface FeatureCollection built as dicts and encoded by ``json.dumps``."""
    cells = grid.dim - 1
    vertices, regions = grid.vertices.tolist(), corner_table(grid.dim).tolist()
    features = []
    for index, value in enumerate(region_likelihoods):
        bl, br, tl, tr = regions[index]
        ring = [[vertices[v][1], vertices[v][0]] for v in (bl, br, tr, tl, bl)]
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Polygon", "coordinates": [ring]},
                "properties": {"region_row": index // cells, "region_col": index % cells, "likelihood": float(value)},
            }
        )
    return json.dumps({"type": "FeatureCollection", "features": features})


# Zero, the smallest subnormal, one and the non-finite values, each placed
# every seventh region; the other regions hold random values of many magnitudes.
EXPORT_SPECIALS = [0.0, 5e-324, 1.0, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bbox", [CITY_BBOX, (40.0, 116.0, 40.0004, 116.0007), (60.0, 10.6, 60.18, 10.95)])
def test_surface_exports_match_reference_byte_for_byte(bbox):
    rng = np.random.default_rng(7)
    for dim in range(2, 61):
        grid = make_grid(bbox, dim)
        values = rng.random(grid.region_count) ** rng.integers(1, 41, grid.region_count)
        for offset, special in enumerate(EXPORT_SPECIALS):
            values[offset::7] = special
        assert surface_to_geojson(grid, values) == reference_geojson(grid, values), dim
        assert surface_to_csv(grid, values) == reference_csv(grid, values), dim


@pytest.mark.parametrize("value", [0.0, 5e-324, 1.0])
def test_surface_exports_match_reference_on_constant_surfaces(value):
    grid = make_grid(BBOX, 9)
    values = np.full(grid.region_count, value)
    assert surface_to_geojson(grid, values) == reference_geojson(grid, values)
    assert surface_to_csv(grid, values) == reference_csv(grid, values)


def test_surface_geojson_spells_non_finite_likelihoods_as_json():
    grid = make_grid(BBOX, 3)
    text = surface_to_geojson(grid, np.array([math.nan, math.inf, -math.inf, 0.5]))
    likelihoods = [part.split("}")[0] for part in text.split('"likelihood": ')[1:]]
    assert likelihoods == ["NaN", "Infinity", "-Infinity", "0.5"]


@pytest.mark.parametrize(
    "as_input",
    [lambda values: values.tolist(), lambda values: values.astype(np.float32)],
    ids=["list", "float32"],
)
def test_surface_exports_convert_any_float_input_like_the_reference(as_input):
    grid = make_grid(BBOX, 9)
    values = np.random.default_rng(5).random(grid.region_count) ** 9
    for offset, special in enumerate(EXPORT_SPECIALS):
        values[offset::7] = special
    given = as_input(values)
    expected = reference_csv(grid, given), reference_geojson(grid, given)
    assert (surface_to_csv(grid, given), surface_to_geojson(grid, given)) == expected
    assert surface_texts(grid, given) == expected


@pytest.mark.parametrize("count", [8, 10], ids=["short", "long"])
@pytest.mark.parametrize("export", [surface_to_csv, surface_to_geojson, surface_texts])
def test_surface_exports_reject_likelihoods_not_one_per_region(export, count):
    grid = make_grid(BBOX, 4)
    with pytest.raises(ValueError, match=rf"^{count} region likelihoods for a grid of 9 regions$"):
        export(grid, np.full(count, 1.0 / count))


def test_oracle_proximity_predicates():
    assert relation_holds("near", 0.5, 0.0)
    assert relation_holds("near", 6.5, 123.0)
    assert not relation_holds("near", 6.6, 123.0)
    assert relation_holds("at", 2.4, 0.0)
    assert not relation_holds("at", 2.6, 0.0)
    assert relation_holds("in", 1.0, 0.0)
    assert not relation_holds("in", 2.6, 0.0)
    assert relation_holds("next to", 3.0, 0.0)
    assert relation_holds("close to", 3.0, 0.0)


def test_oracle_directional_predicates():
    # Each sector spans 60 degrees either side of its center, edges included.
    for label, center in predict._SECTOR_CENTERS.items():
        for side in (-1.0, 1.0):
            assert relation_holds(label, 3.0, (center + side * 60.0) % 360.0), (label, side)
            assert not relation_holds(label, 3.0, (center + side * 60.1) % 360.0), (label, side)
        assert relation_holds(label, 3.0, center)
        assert not relation_holds(label, 3.0, (center + 180.0) % 360.0)
    # The loop crosses the 0/360 seam for east, northeast and southeast, e.g.:
    assert relation_holds("east of", 3.0, 300.0)
    assert not relation_holds("east of", 3.0, 299.9)
    assert relation_holds("east of", 3.0, 359.9)
    assert not relation_holds("mystery of", 3.0, 90.0)


def test_qualitative_accuracy_hand_trace():
    # Vertices 0 (40.0, 116.0), 1 (40.0, 116.03), 2 (40.02, 116.0), 3 (40.02, 116.03);
    # the origin is the center (40.01, 116.015). The one point sits on vertex 0.
    grid = make_grid((40.0, 116.0, 40.02, 116.03), 2)
    labels = ("at", "north of", "south of", "southwest of")
    trial = PredictionTrial(grid, np.array([[40.0, 116.0]]), [0], labels, np.array([[1, 0, 2, 3]], dtype=np.uint8))
    # Vertex 0: "north of" fails (coincident, so orientation 0, 90 degrees off north).
    # Vertex 1: "at" fails (6371 * cos(40.01 deg) * 0.03 deg in radians = 2.555 km > 2.5).
    # Vertex 2: "south of" holds (due south, 270 degrees).
    # Vertex 3: "southwest of" holds (atan2(-2.224, -2.555) = 221.0 degrees, 4 from 225).
    # Two of four hold.
    assert qualitative_accuracy(trial) == 0.5


def test_qualitative_accuracy_matches_per_entry_loop():
    trial = prediction_trial(synthetic_city_models(), BBOX, 7, 20, seed=5)
    grid = trial.grid
    correct = 0
    for (plat, plon), choice in zip(trial.points, trial.choices):
        for (vlat, vlon), c in zip(grid.vertices, choice):
            distance, orientation = feature_components(plat, plon, vlat, vlon, grid.origin)
            correct += relation_holds(trial.labels[c], float(distance), float(orientation))
    expected = correct / trial.choices.size
    assert qualitative_accuracy(trial) == expected


def test_qualitative_accuracy_rejects_empty_log():
    grid = make_grid(BBOX, 2)
    trial = PredictionTrial(grid, np.empty((0, 2)), [], ("at",), np.empty((0, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        qualitative_accuracy(trial)
