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
from geotri.predict import _PAIR_BUDGET, make_grid
from geotri.synth import CITY_BBOX, consistent_scenario, synthetic_city_models

from conftest import UniformDensityModel

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
        ((80.0, 0.0, 100.0, 10.0), 15, r"bbox corner out of range: lat=100\.0 lon=10\.0"),
        ((40.0, 170.0, 41.0, 190.0), 15, r"bbox corner out of range: lat=41\.0 lon=190\.0"),
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


@pytest.mark.parametrize("fusion", ["product", "sum"])
def test_fuse_accepts_any_model_with_logpdf(fusion):
    scenario = consistent_scenario(6, 0)
    models = {label: UniformDensityModel(label) for label, _ in scenario.observations}
    estimate = fuse(scenario, models, fusion=fusion)
    np.testing.assert_allclose(estimate.region_likelihoods, 1.0 / estimate.grid.region_count, rtol=1e-12, atol=0)


class NowhereModel:
    """Stub model whose density underflows everywhere (log density -inf)."""

    def logpdf(self, distance, orientation) -> np.ndarray:
        return np.full(np.shape(distance), -np.inf)


@pytest.mark.parametrize("fusion", ["product", "sum"])
def test_fuse_rejects_observations_that_all_underflow(fusion):
    scenario = consistent_scenario(6, 0)
    models = {label: NowhereModel() for label, _ in scenario.observations}
    with pytest.raises(ValueError, match="^all observations underflowed on every grid vertex$"):
        fuse(scenario, models, fusion=fusion)


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


def with_renamed_twin(scenario: Scenario) -> Scenario:
    """The scenario plus, last, its fourth observation again under another landmark name."""
    label, landmark = scenario.observations[3]
    twin = (label, Poi("twin", landmark.lat, landmark.lon))
    return Scenario(scenario.unknown, scenario.observations + (twin,), scenario.bbox, scenario.dim)


def test_fuse_observation_order_invariance():
    models = synthetic_city_models()
    scenarios = [
        demo_scenario(),  # one block
        consistent_scenario(200, seed=7, dim=60),  # 163-column blocks and a 14-column tail
        random_scenario(_PAIR_BUDGET // 112, 15, seed=_PAIR_BUDGET // 112),  # a one-column tail
        with_renamed_twin(demo_scenario()),  # equal (label, lat, lon), different names
    ]
    for scenario in scenarios:
        n = len(scenario.observations)
        for fusion in ("product", "sum"):
            base = fuse(scenario, models, fraction=1.0, seed=0, fusion=fusion)
            assert base.observations_used == scenario.observations
            for order in (reversed(range(n)), np.random.default_rng(n).permutation(n)):
                shuffled = Scenario(
                    unknown=scenario.unknown,
                    observations=tuple(scenario.observations[i] for i in order),
                    bbox=scenario.bbox,
                    dim=scenario.dim,
                )
                other = fuse(shuffled, models, fraction=1.0, seed=0, fusion=fusion)
                assert other.observations_used == shuffled.observations
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
        rows.append(models[label].logpdf(dist, orient))
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


def one_pass_fuse(scenario, models, fusion):
    """Region likelihoods and centre from all vertices at once, each column summed in (label, lat, lon) order."""
    grid = make_grid(scenario.bbox, scenario.dim)
    used = sorted(scenario.observations, key=lambda obs: (obs[0], obs[1].lat, obs[1].lon))
    landmarks = np.array([(landmark.lat, landmark.lon) for _, landmark in used])
    dist, orient = feature_components(*grid.vertices.T, landmarks[:, :1], landmarks[:, 1:], grid.origin)
    features = np.stack([dist, orient], axis=-1)
    per_observation = np.empty(dist.shape)
    for label in sorted({label for label, _ in used}):
        rows = [row for row, (other, _) in enumerate(used) if other == label]
        per_observation[rows] = models[label].logpdf(*features[rows].reshape(-1, 2).T).reshape(len(rows), -1)
    if fusion == "product":
        log_vertex = per_observation.sum(axis=0)
        vertex_mass = np.exp(log_vertex - log_vertex.max())
    else:
        vertex_mass = np.exp(per_observation).sum(axis=0)
    region = grid.region_average(vertex_mass / math.fsum(vertex_mass))
    region = region / math.fsum(region)
    centers = grid.region_centers()
    return region, (math.fsum(region * centers[:, 0]), math.fsum(region * centers[:, 1]))


def random_scenario(n: int, dim: int, seed: int) -> Scenario:
    rng = np.random.default_rng(seed)
    lats = rng.uniform(BBOX[0], BBOX[2], n)
    lons = rng.uniform(BBOX[1], BBOX[3], n)
    labels = rng.choice(sorted(synthetic_city_models()), n)
    observations = tuple((str(label), Poi(f"l{i}", lat, lon)) for i, label, lat, lon in zip(range(n), labels, lats, lons))
    return Scenario(Poi("hidden", 40.09, 116.12), observations, BBOX, dim)


def flat_city_models() -> dict[str, GmmModel]:
    """The city models with 10**6 times their covariances. The fused evidence is then nearly flat
    over the grid, so a last-bit change in any vertex's sum, the corners' too, shows in the regions."""
    return {
        label: GmmModel(label, tuple(GaussianComponent(c.weight, c.mean, 1e6 * c.covariance) for c in m.components))
        for label, m in synthetic_city_models().items()
    }


@pytest.mark.parametrize("models", [synthetic_city_models(), flat_city_models()], ids=["city", "flat"])
@pytest.mark.parametrize("fusion", ["product", "sum"])
@pytest.mark.parametrize(
    "n, dim",
    [
        (200, 60),  # 163-column blocks and a 14-column tail
        (_PAIR_BUDGET // 112, 15),  # 112-column blocks: 225 = 2 * 112 + 1 leaves a one-column tail
        (_PAIR_BUDGET // 2 + 1, 3),  # a block would be one column wide; 9 = 4 * 2 + 1 leaves one more
        (1, 60),  # a single observation: one block of every vertex
        (_PAIR_BUDGET + 1, 4),  # more observations than the pair budget
    ],
)
def test_blocked_fuse_equals_one_pass_bitwise(n, dim, fusion, models):
    scenario = random_scenario(n, dim, seed=n)
    region, center = one_pass_fuse(scenario, models, fusion)
    estimate = fuse(scenario, models, fusion=fusion)
    assert estimate.region_likelihoods.tobytes() == region.tobytes()
    assert estimate.center == center


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
    # Observation rows have four fields, so header names are valid labels.
    observations = (("bbox", Poi("a", 40.1, 116.1)), ("dim", Poi("b", 40.05, 116.2)))
    scenario = Scenario(scenario.unknown, observations + scenario.observations, scenario.bbox, scenario.dim)
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


def test_consistent_scenario_fails_when_no_landmark_lands_near_the_hidden_point():
    # Over this box almost no draw lies within 16 km of the hidden point.
    with pytest.raises(RuntimeError, match="rejection sampling failed to place landmarks"):
        consistent_scenario(1, 0, bbox=(-60.0, -120.0, 60.0, 120.0))


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


def test_load_scenario_rejects_line_of_two_fields(tmp_path):
    path = tmp_path / "scenario.tsv"
    save_scenario(demo_scenario(), str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:5] + ["near\tlm"] + lines[5:]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"scenario\.tsv:6: unrecognized line$"):
        load_scenario(str(path))


@pytest.mark.parametrize(
    "row",
    ["bbox\t40.01\t116.01\t40.17\t116.2", "dim\t9", "unknown\tdecoy\t40.05\t116.1"],
    ids=["bbox", "dim", "unknown"],
)
def test_load_scenario_rejects_repeated_header_row(tmp_path, row):
    path = tmp_path / "scenario.tsv"
    save_scenario(demo_scenario(), str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:5] + [row] + lines[5:]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"scenario.tsv:6: repeated {row.split()[0]} line"):
        load_scenario(str(path))


def test_load_scenario_reports_empty_observation_label_with_line(tmp_path):
    path = tmp_path / "scenario.tsv"
    save_scenario(demo_scenario(), str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:5] + ["\tlm\t40.1\t116.1"] + lines[5:]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"scenario\.tsv:6: observation labels must be non-empty"):
        load_scenario(str(path))


def test_fusion_sharpens_with_more_observations():
    # More evidence about the same hidden point shrinks the error, echoing
    # the fraction ladder trend on a single scenario.
    models = synthetic_city_models()
    scenario = consistent_scenario(40, seed=5, bbox=BBOX, dim=15)
    errors = [fuse(scenario, models, fraction, seed=1).error_km for fraction in (0.1, 1.0)]
    assert errors[1] <= errors[0] + 1.0
