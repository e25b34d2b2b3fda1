"""Grid scoring: model selection, surface fusion, rankings, and the oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geotri import predict
from geotri.features import ProjectionOrigin, feature_components
from geotri.mixture import GaussianComponent, GmmModel
from geotri.predict import (
    PredictionTrial,
    RelationOracle,
    make_grid,
    prediction_accuracy,
    prediction_trial,
    qualitative_accuracy,
    region_ranking,
    score_point,
    surface_to_csv,
    surface_to_geojson,
    topk_hit,
)
from geotri.synth import CITY_BBOX, UniformDensityModel, synthetic_city_models

BBOX = CITY_BBOX
# City box, a box about four times wider than tall, and a box near 60 degrees north.
KERNEL_BBOXES = [CITY_BBOX, (40.0, 116.0, 40.06, 116.35), (59.9, 10.6, 60.08, 10.95)]


def diag_model(relation: str, mean, var_d: float, var_o: float, weight: float = 1.0) -> GmmModel:
    cov = np.array([[var_d, 0.0], [0.0, var_o]])
    return GmmModel(relation, (GaussianComponent(weight, mean, cov),))


def demo_models():
    return {
        "at": diag_model("at", [0.9, 180.0], 0.09, 8100.0),
        "near": diag_model("near", [4.0, 180.0], 1.0, 8100.0),
    }


def test_grid_dimension_counts():
    grid = make_grid(BBOX, 15)
    assert grid.vertex_count == 225
    assert grid.region_count == 196
    assert grid.vertices.shape == (225, 2)
    assert grid.regions.shape == (196, 4)


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
    bl, br, tl, tr = grid.regions[0]
    assert grid.vertices[bl][0] == grid.vertices[br][0]
    assert grid.vertices[tl][0] == grid.vertices[tr][0]
    assert grid.vertices[bl][1] == grid.vertices[tl][1]
    assert grid.vertices[bl][0] < grid.vertices[tl][0]
    assert grid.vertices[bl][1] < grid.vertices[br][1]


@pytest.mark.parametrize("dim", [2, 3, 15, 30, 60])
def test_grid_regions_match_corner_loop(dim):
    regions = make_grid(BBOX, dim).regions
    cells = dim - 1
    expected = np.empty((cells * cells, 4), dtype=int)
    for row in range(cells):
        for col in range(cells):
            base = row * dim + col
            expected[row * cells + col] = (base, base + 1, base + dim, base + dim + 1)
    assert regions.dtype == expected.dtype
    assert np.array_equal(regions, expected)


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(BBOX, 1)
    with pytest.raises(ValueError):
        make_grid((40.0, 116.0, 40.0, 116.2), 5)


def test_region_containing_cells_and_edges():
    grid = make_grid((0.0, 0.0, 4.0, 4.0), 5)
    assert grid.region_containing(0.5, 0.5) == 0
    assert grid.region_containing(3.5, 3.5) == 15
    # The top-right corner clamps into the last cell.
    assert grid.region_containing(4.0, 4.0) == 15
    with pytest.raises(ValueError):
        grid.region_containing(4.1, 0.0)


def test_surface_vertex_mass_normalized():
    grid = make_grid(BBOX, 9)
    surface = score_point((40.09, 116.12), grid, demo_models())
    assert math.fsum(surface.fused_vertex.tolist()) == pytest.approx(1.0, abs=1e-9)
    assert np.all(surface.fused_vertex >= 0.0)


def test_surface_regions_match_corner_average_oracle():
    grid = make_grid(BBOX, 9)
    surface = score_point((40.05, 116.2), grid, demo_models())
    for index, corners in enumerate(grid.regions):
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
    scores = [float(models[label].logpdf(x)[0]) for label in labels]
    return labels[int(np.argmax(scores))]


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
    selection = np.stack([models[label].logpdf(np.column_stack([dist, orient])) for label in labels])
    choice = np.argmax(selection, axis=0)
    underflow = tuple(int(i) for i in np.flatnonzero(np.isneginf(selection.max(axis=0))))
    pair_dist, pair_orient = feature_components(
        lats[None, :], lons[None, :], lats[:, None], lons[:, None], grid.origin
    )
    pairs = np.stack([pair_dist, pair_orient], axis=-1)
    log_surface = np.empty(pair_dist.shape)
    for index, label in enumerate(labels):
        rows = choice == index
        log_surface[rows] = models[label].logpdf(pairs[rows].reshape(-1, 2)).reshape(-1, grid.vertex_count)
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
@pytest.mark.parametrize("city", [False, True])
def test_score_point_matches_direct_pairs(bbox, dim, city):
    models = synthetic_city_models() if city else demo_models()
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

    def logpdf(self, points) -> np.ndarray:
        distance = np.asarray(points, dtype=float).reshape(-1, 2)[:, 0]
        return np.where(distance <= self.radius_km, 0.0, -np.inf)


def test_underflow_at_some_reference_vertices():
    grid = make_grid(BBOX, 9)
    point = (40.01, 116.02)
    models = {"near": WithinStub(7.3), "nearer": WithinStub(3.1)}
    surface = score_point(point, grid, models)
    fused, labels, underflow = direct_surface(point, grid, models)
    # Vertices farther than 7.3 km from the point fall back to the first label.
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
    assert surface.chosen_labels == labels
    assert 0 < len(underflow) < grid.vertex_count
    assert surface.underflow_vertices == underflow


class SouthwestStub:
    """Log density rising by ``slope`` per km of the subject's offset southwest of its reference."""

    def __init__(self, slope: float, offset: float):
        self.slope, self.offset = slope, offset

    def logpdf(self, points) -> np.ndarray:
        distance, orientation = np.asarray(points, dtype=float).reshape(-1, 2).T
        radians = np.radians(orientation)
        return -self.slope * distance * (np.cos(radians) + np.sin(radians)) - self.offset


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
    _, choice, _ = predict._select_models(np.array([point]), grid, models)
    _, peak = predict._score_block(grid, tables, choice)
    assert choice[0, -1] == 0 and np.count_nonzero(choice[0]) > 0
    assert tables.peaks[1] - peak[0] > gap
    surface = score_point(point, grid, models)
    fused, labels, underflow = direct_surface(point, grid, models)
    assert np.abs(surface.fused_vertex - fused).max() <= 1e-12 * fused.max()
    assert surface.chosen_labels == labels
    assert surface.underflow_vertices == underflow


def test_uniform_stub_surface_is_uniform():
    grid = make_grid(BBOX, 15)
    surface = score_point((40.1, 116.05), grid, {"anywhere": UniformDensityModel()})
    expected = 1.0 / grid.vertex_count
    assert np.abs(surface.fused_vertex - expected).max() <= 1e-12
    assert np.abs(surface.region_likelihoods - expected).max() <= 1e-12


def test_region_ranking_orders_and_breaks_ties_by_index():
    ranking = region_ranking(np.array([0.1, 0.4, 0.4, 0.1]))
    assert ranking == [1, 2, 0, 3]
    values = np.random.default_rng(3).choice([0.0, 1e-300, 0.25, 0.5], size=200)
    assert region_ranking(values) == sorted(range(200), key=lambda r: (-values[r], r))


def test_topk_hit_monotone_in_k():
    grid = make_grid(BBOX, 9)
    surface = score_point((40.07, 116.09), grid, demo_models())
    hits = [topk_hit(surface, (40.07, 116.09), grid, k) for k in range(1, grid.region_count + 1)]
    assert all(not (a and not b) for a, b in zip(hits, hits[1:]))
    assert hits[-1]


def test_topk_hit_validates_k():
    grid = make_grid(BBOX, 5)
    surface = score_point((40.07, 116.09), grid, demo_models())
    with pytest.raises(ValueError):
        topk_hit(surface, (40.07, 116.09), grid, 0)
    with pytest.raises(ValueError):
        topk_hit(surface, (40.07, 116.09), grid, grid.region_count + 1)


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
    n_points = predict._SELECT_PAIRS // (dim * dim) + 3
    models = synthetic_city_models()
    trial = prediction_trial(models, BBOX, dim, n_points, seed=dim)
    grid = trial.grid
    assert trial.choices.shape == (n_points, grid.vertex_count)
    for point, choice, rank in zip(trial.points, trial.choices, trial.ranks):
        surface = score_point(point, grid, models)
        assert tuple(trial.labels[c] for c in choice) == surface.chosen_labels
        target = grid.region_containing(point[0], point[1])
        assert rank == region_ranking(surface.region_likelihoods).index(target)


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
    collection = surface_to_geojson(grid, surface.region_likelihoods)
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


def test_oracle_proximity_predicates():
    oracle = RelationOracle()
    assert oracle.is_correct("near", 0.5, 0.0)
    assert oracle.is_correct("near", 6.5, 123.0)
    assert not oracle.is_correct("near", 6.6, 123.0)
    assert oracle.is_correct("at", 2.4, 0.0)
    assert not oracle.is_correct("at", 2.6, 0.0)
    assert oracle.is_correct("in", 1.0, 0.0)
    assert oracle.is_correct("next to", 3.0, 0.0)
    assert oracle.is_correct("close to", 3.0, 0.0)


def test_oracle_directional_predicates():
    oracle = RelationOracle(sector_half_width_deg=45.0)
    assert oracle.is_correct("north of", 3.0, 90.0)
    assert oracle.is_correct("north of", 3.0, 135.0)
    assert not oracle.is_correct("north of", 3.0, 270.0)
    assert oracle.is_correct("east of", 3.0, 350.0)
    assert oracle.is_correct("west of", 3.0, 180.0)
    assert oracle.is_correct("south of", 3.0, 280.0)
    assert oracle.is_correct("northeast of", 3.0, 45.0)
    assert oracle.is_correct("southwest of", 3.0, 225.0)
    assert not oracle.is_correct("mystery of", 3.0, 90.0)


def test_oracle_validation():
    with pytest.raises(ValueError):
        RelationOracle(near_km=0.0)
    with pytest.raises(ValueError):
        RelationOracle(sector_half_width_deg=99.0)


def test_oracle_from_file_matches_defaults(fixtures_dir):
    assert RelationOracle.from_file(str(fixtures_dir / "oracle_default.tsv")) == RelationOracle()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
def test_oracle_from_file_rejects_non_finite_values_with_line(tmp_path, value):
    path = tmp_path / "oracle.tsv"
    path.write_text(f"# thresholds\nat_km\t{value}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"oracle\.tsv:2: at_km must be a finite number"):
        RelationOracle.from_file(str(path))


@pytest.mark.parametrize(
    "line, message",
    [
        ("near_km\t-1", "distance thresholds must be positive"),
        ("sector_half_width_deg\t120", "sector half-width must lie in"),
    ],
)
def test_oracle_from_file_rejects_out_of_range_values_with_line(tmp_path, line, message):
    path = tmp_path / "oracle.tsv"
    path.write_text(f"at_km\t2.0\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"oracle\.tsv:2: {message}"):
        RelationOracle.from_file(str(path))


def test_oracle_from_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "oracle.tsv"
    path.write_text("bogus_km\t1.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        RelationOracle.from_file(str(path))


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
    assert qualitative_accuracy(trial, RelationOracle()) == 0.5


def test_qualitative_accuracy_matches_per_entry_loop():
    trial = prediction_trial(synthetic_city_models(), BBOX, 7, 20, seed=5)
    grid = trial.grid
    oracle = RelationOracle(sector_half_width_deg=30.0)
    correct = 0
    for (plat, plon), choice in zip(trial.points, trial.choices):
        for (vlat, vlon), c in zip(grid.vertices, choice):
            distance, orientation = feature_components(plat, plon, vlat, vlon, grid.origin)
            correct += oracle.is_correct(trial.labels[c], float(distance), float(orientation))
    expected = correct / trial.choices.size
    assert qualitative_accuracy(trial, oracle) == expected


def test_qualitative_accuracy_rejects_empty_log():
    grid = make_grid(BBOX, 2)
    trial = PredictionTrial(grid, np.empty((0, 2)), [], ("at",), np.empty((0, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        qualitative_accuracy(trial, RelationOracle())


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=40.0, max_value=40.18),
    st.floats(min_value=116.0, max_value=116.235),
    st.integers(min_value=1, max_value=195),
)
def test_topk_subset_property(lat, lon, k):
    grid = make_grid(BBOX, 15)
    surface = score_point((lat, lon), grid, demo_models())
    if topk_hit(surface, (lat, lon), grid, k):
        assert topk_hit(surface, (lat, lon), grid, k + 1)
