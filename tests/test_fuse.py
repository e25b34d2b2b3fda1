"""Observation subsampling, evidence fusion, and scenario serialization."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geotri.fuse import (
    Estimate,
    MissingModelError,
    Scenario,
    fuse,
    haversine_km,
    load_scenario,
    save_scenario,
    subsample,
)
from geotri.features import feature_components
from geotri.gazetteer import Poi
from geotri.mixture import GaussianComponent, GmmModel
from geotri.predict import make_grid
from geotri.synth import CITY_BBOX, consistent_scenario, synthetic_city_models

BBOX = CITY_BBOX


def demo_scenario(dim: int = 15) -> Scenario:
    return consistent_scenario(12, seed=77, bbox=BBOX, dim=dim)


def test_haversine_one_degree_latitude():
    assert haversine_km(0.0, 0.0, 1.0, 0.0) == pytest.approx(111.19, abs=0.01)


def test_haversine_symmetry_and_identity():
    assert haversine_km(40.1, 116.2, 40.1, 116.2) == 0.0
    assert haversine_km(40.0, 116.0, 40.1, 116.2) == pytest.approx(
        haversine_km(40.1, 116.2, 40.0, 116.0), rel=1e-12
    )


def test_subsample_full_fraction_is_identity():
    items = ["a", "b", "c", "d"]
    assert subsample(items, 1.0, seed=3) == items


def test_subsample_ceiling_rule():
    items = list(range(4))
    assert len(subsample(items, 0.5, seed=0)) == 2
    assert len(subsample(items, 0.26, seed=0)) == 2
    assert len(subsample(items, 0.25, seed=0)) == 1


def test_subsample_deterministic_and_order_preserving():
    items = list(range(20))
    first = subsample(items, 0.4, seed=11)
    second = subsample(items, 0.4, seed=11)
    assert first == second
    assert first == sorted(first)


def test_subsample_rejects_bad_fraction():
    with pytest.raises(ValueError):
        subsample([1, 2], 0.0, seed=0)
    with pytest.raises(ValueError):
        subsample([1, 2], 1.5, seed=0)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=999))
def test_subsample_sizes_nested(n, seed):
    items = list(range(n))
    sizes = [len(subsample(items, f, seed)) for f in (0.1, 0.5, 1.0)]
    assert sizes[0] <= sizes[1] <= sizes[2]
    assert sizes[2] == n
    assert sizes[0] == math.ceil(0.1 * n)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(Poi("x", 40.1, 116.1), (), BBOX, 15)
    with pytest.raises(ValueError):
        Scenario(
            Poi("x", 40.1, 116.1),
            (("near", Poi("far", 41.5, 116.1)),),
            BBOX,
            15,
        )
    with pytest.raises(ValueError):
        Scenario(Poi("x", 40.1, 116.1), (("", Poi("lm", 40.1, 116.1)),), BBOX, 15)


@pytest.mark.parametrize(
    "bbox, dim, message",
    [
        (BBOX, 1, "grid dim must be >= 2"),
        (BBOX, 0, "grid dim must be >= 2"),
        ((40.1, 116.0, 40.1, 116.235), 15, "degenerate bbox"),
        ((40.0, 116.1, 40.18, 116.1), 15, "degenerate bbox"),
        ((40.18, 116.0, 40.0, 116.235), 15, "degenerate bbox"),
    ],
)
def test_scenario_rejects_grid_that_cannot_be_built(tmp_path, bbox, dim, message):
    observations = (("near", Poi("lm", 40.1, 116.1)),)
    with pytest.raises(ValueError, match=message):
        Scenario(Poi("x", 40.1, 116.1), observations, bbox, dim)
    path = tmp_path / "scenario.tsv"
    path.write_text(
        "bbox\t{}\t{}\t{}\t{}\ndim\t{}\nunknown\tx\t40.1\t116.1\nnear\tlm\t40.1\t116.1\n".format(*bbox, dim),
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=f"scenario.tsv: {message}"):
        load_scenario(str(path))


def test_fuse_deterministic():
    scenario = demo_scenario()
    models = synthetic_city_models()
    first = fuse(scenario, models, fraction=0.5, seed=9)
    second = fuse(scenario, models, fraction=0.5, seed=9)
    assert first.center == second.center
    assert first.error_km == second.error_km
    assert np.array_equal(first.region_likelihoods, second.region_likelihoods)
    assert first.observations_used == second.observations_used


def test_fuse_missing_model_names_label():
    scenario = demo_scenario()
    models = dict(synthetic_city_models())
    del models["near"]
    with pytest.raises(MissingModelError, match="near"):
        fuse(scenario, models, fraction=1.0, seed=0)


def test_fuse_region_mass_normalized():
    estimate = fuse(demo_scenario(), synthetic_city_models(), fraction=1.0, seed=0)
    assert math.fsum(estimate.region_likelihoods.tolist()) == pytest.approx(1.0, abs=1e-9)
    assert np.all(estimate.region_likelihoods >= 0.0)


def test_fuse_center_inside_bbox_and_error_nonnegative():
    estimate = fuse(demo_scenario(), synthetic_city_models(), fraction=1.0, seed=0)
    min_lat, min_lon, max_lat, max_lon = BBOX
    assert min_lat <= estimate.center[0] <= max_lat
    assert min_lon <= estimate.center[1] <= max_lon
    assert estimate.error_km >= 0.0
    assert estimate.mode_error_km >= 0.0


def test_fuse_single_sharp_at_observation_centers_on_landmark():
    landmark = Poi("anchor", 40.09, 116.1175)
    scenario = Scenario(
        unknown=Poi("hidden", 40.09, 116.1175),
        observations=(("at", landmark),),
        bbox=BBOX,
        dim=15,
    )
    sharp = GmmModel(
        "at",
        (GaussianComponent(1.0, [0.0, 180.0], np.array([[0.25, 0.0], [0.0, 1e6]])),),
    )
    estimate = fuse(scenario, {"at": sharp}, fraction=1.0, seed=0)
    cell_lat = (BBOX[2] - BBOX[0]) / 14.0
    cell_lon = (BBOX[3] - BBOX[1]) / 14.0
    assert abs(estimate.mode_center[0] - landmark.lat) <= cell_lat
    assert abs(estimate.mode_center[1] - landmark.lon) <= cell_lon
    assert estimate.error_km <= 2.0


def test_fuse_observation_order_invariance():
    scenario = demo_scenario()
    models = synthetic_city_models()
    base = fuse(scenario, models, fraction=1.0, seed=0)
    shuffled = Scenario(
        unknown=scenario.unknown,
        observations=tuple(reversed(scenario.observations)),
        bbox=scenario.bbox,
        dim=scenario.dim,
    )
    other = fuse(shuffled, models, fraction=1.0, seed=0)
    assert other.center == base.center
    assert other.error_km == base.error_km
    assert np.array_equal(other.region_likelihoods, base.region_likelihoods)


@pytest.mark.parametrize("fusion", ["product", "sum"])
def test_fuse_matches_per_observation_fsum(fusion):
    scenario = consistent_scenario(60, seed=9, bbox=BBOX, dim=30)
    models = synthetic_city_models()
    grid = make_grid(scenario.bbox, scenario.dim)
    rows = []
    for label, landmark in scenario.observations:
        dist, orient = feature_components(
            grid.vertices[:, 0], grid.vertices[:, 1], landmark.lat, landmark.lon, grid.origin
        )
        rows.append(models[label].logpdf(np.column_stack([dist, orient])))
    per_observation = np.array(rows)
    if fusion == "product":
        log_vertex = np.array([math.fsum(column) for column in per_observation.T.tolist()])
        vertex_mass = np.exp(log_vertex - log_vertex.max())
    else:
        vertex_mass = np.array([math.fsum(column) for column in np.exp(per_observation).T.tolist()])
    region = grid.region_average(vertex_mass / math.fsum(vertex_mass))
    region = region / math.fsum(region)
    estimate = fuse(scenario, models, fusion=fusion)
    assert np.abs(estimate.region_likelihoods - region).max() <= 1e-12 * region.max()


def test_fuse_duplicate_observation_sharpens_surface():
    # Diffuse single-observation posterior: repeating the observation
    # squares the density and visibly concentrates the ring.
    landmark = Poi("anchor", 40.09, 116.1175)
    observation = ("near", landmark)
    models = synthetic_city_models()
    unknown = Poi("hidden", 40.12, 116.1175)
    base = fuse(Scenario(unknown, (observation,), BBOX, 15), models, 1.0, 0)
    doubled = fuse(Scenario(unknown, (observation, observation), BBOX, 15), models, 1.0, 0)
    assert doubled.region_likelihoods.max() > base.region_likelihoods.max()


def test_fuse_duplicate_never_diffuses_saturated_surface():
    scenario = demo_scenario()
    models = synthetic_city_models()
    base = fuse(scenario, models, fraction=1.0, seed=0)
    doubled = Scenario(
        unknown=scenario.unknown,
        observations=scenario.observations + (scenario.observations[0],),
        bbox=scenario.bbox,
        dim=scenario.dim,
    )
    sharper = fuse(doubled, models, fraction=1.0, seed=0)
    assert sharper.region_likelihoods.max() >= base.region_likelihoods.max() - 1e-6


def test_fuse_error_depends_only_on_geometry():
    scenario = demo_scenario()
    models = synthetic_city_models()
    renamed = Scenario(
        unknown=Poi("other name", scenario.unknown.lat, scenario.unknown.lon),
        observations=tuple(
            (label, Poi(f"lm{i}", lm.lat, lm.lon))
            for i, (label, lm) in enumerate(scenario.observations)
        ),
        bbox=scenario.bbox,
        dim=scenario.dim,
    )
    assert fuse(renamed, models, 1.0, 0).error_km == fuse(scenario, models, 1.0, 0).error_km


def test_fuse_sum_mode_also_normalizes():
    estimate = fuse(demo_scenario(), synthetic_city_models(), fraction=1.0, seed=0, fusion="sum")
    assert math.fsum(estimate.region_likelihoods.tolist()) == pytest.approx(1.0, abs=1e-9)


def test_fuse_rejects_unknown_fusion_mode():
    with pytest.raises(ValueError):
        fuse(demo_scenario(), synthetic_city_models(), fraction=1.0, seed=0, fusion="mean")


def test_fuse_uses_expected_subsample_size():
    scenario = demo_scenario()
    estimate = fuse(scenario, synthetic_city_models(), fraction=0.5, seed=3)
    assert len(estimate.observations_used) == math.ceil(0.5 * len(scenario.observations))


def test_scenario_file_round_trip(tmp_path):
    scenario = demo_scenario()
    path = tmp_path / "scenario.tsv"
    save_scenario(scenario, str(path))
    loaded = load_scenario(str(path))
    assert loaded == scenario


def test_consistent_scenario_matches_golden_digest():
    # Pins the generator's output across seeds, sizes, bboxes, grid dims and hidden points.
    digest = hashlib.sha256()
    for n, seed in ((1, 0), (12, 77), (40, 2000), (150, 31)):
        for bbox, dim, unknown_at in (
            (CITY_BBOX, 15, (0.65, 0.3)),
            ((40.02, 116.05, 40.2, 116.3), 30, (0.5, 0.5)),
            ((-33.95, 151.1, -33.8, 151.3), 60, (0.2, 0.8)),
        ):
            s = consistent_scenario(n, seed, bbox=bbox, dim=dim, unknown_at=unknown_at)
            digest.update(repr((s.unknown, s.observations, s.bbox, s.dim)).encode())
    assert digest.hexdigest() == "0f69d30bbd5d4453bf8ff3433164e98fa42ad7a021f4e1fab3a2d02426c4b54a"


def test_scenario_fixture_loads(fixtures_dir):
    scenario = load_scenario(str(fixtures_dir / "scenario_demo.tsv"))
    assert len(scenario.observations) == 40
    assert scenario.dim == 15
    assert scenario.bbox == BBOX
    assert scenario.unknown.name == "hidden"


def test_load_scenario_requires_headers(tmp_path):
    path = tmp_path / "scenario.tsv"
    path.write_text("near\tlm\t40.1\t116.1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bbox"):
        load_scenario(str(path))


def test_load_scenario_reports_line_numbers(tmp_path):
    path = tmp_path / "scenario.tsv"
    path.write_text("bbox\t40.0\t116.0\t40.18\t116.235\ndim\tfifteen\n", encoding="utf-8")
    with pytest.raises(ValueError, match="scenario.tsv:2"):
        load_scenario(str(path))


def test_fusion_sharpens_with_more_observations():
    # More evidence about the same hidden point shrinks the error, echoing
    # the fraction ladder trend on a single scenario.
    models = synthetic_city_models()
    scenario = consistent_scenario(40, seed=5, bbox=BBOX, dim=15)
    errors = [fuse(scenario, models, fraction, seed=1).error_km for fraction in (0.1, 1.0)]
    assert errors[1] <= errors[0] + 1.0
