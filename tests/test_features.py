"""Local projection, distance/orientation features, and training-set grouping."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geotri.extract import Triplet, read_triplets_tsv
from geotri.features import (
    EARTH_RADIUS_KM,
    ProjectionOrigin,
    TrainingSet,
    build_training_sets,
    feature_components,
    feature_vector,
    label_filenames,
    load_feature_array,
    origin_for_points,
    project,
    write_training_set,
)
from geotri.gazetteer import Poi

ORIGIN = ProjectionOrigin(40.0, 116.0)


def offset_poi(name: str, dx_km: float, dy_km: float, origin: ProjectionOrigin = ORIGIN) -> Poi:
    lat = origin.lat0 + math.degrees(dy_km / EARTH_RADIUS_KM)
    lon = origin.lon0 + math.degrees(dx_km / (EARTH_RADIUS_KM * math.cos(math.radians(origin.lat0))))
    return Poi(name, lat, lon)


def test_project_origin_is_fixed_point():
    assert project(ORIGIN.lat0, ORIGIN.lon0, ORIGIN) == (0.0, 0.0)


def test_project_one_degree_north():
    x, y = project(ORIGIN.lat0 + 1.0, ORIGIN.lon0, ORIGIN)
    assert abs(float(x)) < 1e-9
    assert float(y) == pytest.approx(111.19, abs=0.01)


def test_project_one_degree_east_at_60():
    origin = ProjectionOrigin(60.0, 10.0)
    x, y = project(60.0, 11.0, origin)
    assert float(x) == pytest.approx(55.59, abs=0.01)
    assert abs(float(y)) < 1e-9


def test_projection_origin_bounds():
    with pytest.raises(ValueError):
        ProjectionOrigin(95.0, 0.0)


def test_feature_vector_due_east():
    distance, orientation = feature_vector(offset_poi("east", 1.0, 0.0), Poi("ref", ORIGIN.lat0, ORIGIN.lon0), ORIGIN)
    assert distance == pytest.approx(1.0, rel=1e-9)
    assert orientation == pytest.approx(0.0, abs=1e-9)


def test_feature_vector_due_north():
    distance, orientation = feature_vector(offset_poi("north", 0.0, 2.5), Poi("ref", ORIGIN.lat0, ORIGIN.lon0), ORIGIN)
    assert distance == pytest.approx(2.5, rel=1e-9)
    assert orientation == pytest.approx(90.0, abs=1e-9)


def test_feature_vector_three_four_five():
    distance, orientation = feature_vector(offset_poi("ne", 3.0, 4.0), Poi("ref", ORIGIN.lat0, ORIGIN.lon0), ORIGIN)
    assert distance == pytest.approx(5.0, rel=1e-9)
    assert orientation == pytest.approx(math.degrees(math.atan2(4.0, 3.0)), abs=1e-9)
    assert orientation == pytest.approx(53.13, abs=0.01)


def test_feature_vector_coincident_points():
    ref = Poi("ref", ORIGIN.lat0, ORIGIN.lon0)
    assert feature_vector(Poi("same", ORIGIN.lat0, ORIGIN.lon0), ref, ORIGIN) == (0.0, 0.0)


def test_orientation_a_hair_below_zero_folds_to_zero():
    # atan2 gives about -5.3e-52 degrees here, which the fold into [0, 360) rounds up to 360.0.
    distance, orientation = feature_vector(Poi("u", 0.0, 1.0), Poi("v", 9.2e-54, 0.0), ProjectionOrigin(0.0, 0.0))
    assert orientation == 0.0
    assert distance > 0.0


def remainder_components(lat_u, lon_u, lat_v, lon_v, origin):
    """Features with the orientation folded by ``% 360.0``, as before the fold became an addition."""
    xu, yu = project(lat_u, lon_u, origin)
    xv, yv = project(lat_v, lon_v, origin)
    dx, dy = xu - xv, yu - yv
    distance = np.hypot(dx, dy)
    orientation = np.degrees(np.arctan2(dy, dx)) % 360.0
    return distance, np.where((distance == 0.0) | (orientation == 360.0), 0.0, orientation)


# (subject, reference, origin) triples whose orientation sits on a fold edge.
ZERO = ProjectionOrigin(0.0, 0.0)
FOLD_EDGES = [
    ((40.1, 116.2), (40.1, 116.1), ORIGIN),  # due east, dy exactly +0.0
    ((40.1, 116.0), (40.1, 116.1), ORIGIN),  # due west: atan2 gives +180
    ((-0.0, -1.0), (0.0, 0.0), ZERO),  # dy = -0.0 with dx < 0: atan2 gives -180
    ((40.2, 116.1), (40.1, 116.1), ORIGIN),  # due north
    ((40.0, 116.1), (40.1, 116.1), ORIGIN),  # due south: -90
    ((40.1, 116.1), (40.1, 116.1), ORIGIN),  # coincident
    ((-0.0, 0.0), (0.0, 0.0), ZERO),  # coincident with dy = -0.0
    ((-0.0, 1.0), (0.0, 0.0), ZERO),  # dy = -0.0 with dx > 0: atan2 gives -0.0
    ((0.0, 1.0), (9.2e-54, 0.0), ZERO),  # about -5.3e-52 degrees: rounds up to 360, folds to 0
    ((0.0, 1.0), (4e-16, 0.0), ZERO),  # about -2.29e-14 degrees, under half an ulp of 360: folds to 0
    ((0.0, 1.0), (5e-16, 0.0), ZERO),  # about -2.86e-14 degrees: ends one ulp below 360
]


def test_orientation_fold_matches_remainder_reference_bitwise():
    rng = np.random.default_rng(15)
    lat_u, lat_v = rng.uniform(39.9, 40.3, (2, 5000))
    lon_u, lon_v = rng.uniform(115.9, 116.4, (2, 5000))
    pairwise = (lat_u[:, None], lon_u[:, None], lat_v[:50], lon_v[:50], ORIGIN)
    for args in [(lat_u, lon_u, lat_v, lon_v, ORIGIN), pairwise]:
        for got, want in zip(feature_components(*args), remainder_components(*args)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    for subject, reference, origin in FOLD_EDGES:
        args = (*subject, *reference, origin)
        distance, orientation = feature_components(*args)
        want_distance, want_orientation = remainder_components(*args)
        assert orientation.shape == ()
        assert (distance.tobytes(), orientation.tobytes()) == (want_distance.tobytes(), want_orientation.tobytes())
        vec_distance, vec_orientation = feature_vector(Poi("u", *subject), Poi("v", *reference), origin)
        assert np.float64(vec_orientation).tobytes() == want_orientation.tobytes(), (subject, reference)
        assert np.float64(vec_distance).tobytes() == want_distance.tobytes()
        assert 0.0 <= vec_orientation < 360.0 and math.copysign(1.0, vec_orientation) == 1.0


def test_feature_components_vectorized():
    lats = np.array([ORIGIN.lat0, ORIGIN.lat0 + 0.01])
    lons = np.array([ORIGIN.lon0 + 0.01, ORIGIN.lon0])
    dist, orient = feature_components(lats, lons, ORIGIN.lat0, ORIGIN.lon0, ORIGIN)
    assert dist.shape == (2,)
    assert orient[0] == pytest.approx(0.0, abs=1e-9)
    assert orient[1] == pytest.approx(90.0, abs=1e-9)


small_km = st.floats(min_value=-40.0, max_value=40.0).map(lambda v: round(v, 4))


@given(small_km, small_km, small_km, small_km)
def test_distance_symmetry_orientation_antisymmetry(ax, ay, bx, by):
    a = offset_poi("a", ax, ay)
    b = offset_poi("b", bx, by)
    forward_distance, forward_orientation = feature_vector(a, b, ORIGIN)
    backward_distance, backward_orientation = feature_vector(b, a, ORIGIN)
    assert forward_distance == pytest.approx(backward_distance, rel=1e-9, abs=1e-12)
    if forward_distance > 1e-9:
        delta = (forward_orientation - backward_orientation) % 360.0
        assert delta == pytest.approx(180.0, abs=1e-6)


@given(small_km, small_km, small_km, small_km)
def test_translation_invariance_at_small_scale(ax, ay, bx, by):
    a = offset_poi("a", ax, ay)
    b = offset_poi("b", bx, by)
    shifted_a = Poi("a2", a.lat + 0.02, a.lon + 0.02)
    shifted_b = Poi("b2", b.lat + 0.02, b.lon + 0.02)
    base, _ = feature_vector(a, b, ORIGIN)
    moved, _ = feature_vector(shifted_a, shifted_b, ORIGIN)
    assert abs(moved - base) <= max(1e-9, 0.001 * base)


def test_origin_for_points_is_bbox_centroid():
    origin = origin_for_points([(40.0, 116.0), (40.2, 116.4), (40.1, 116.1)])
    assert origin == ProjectionOrigin(40.1, 116.2)


def test_origin_for_points_rejects_empty():
    with pytest.raises(ValueError):
        origin_for_points([])


def test_build_training_sets_empty():
    assert build_training_sets([], ORIGIN) == {}


def test_build_training_sets_groups_by_label():
    ref = Poi("ref", ORIGIN.lat0, ORIGIN.lon0)
    triplets = [
        Triplet(offset_poi("a", 1.0, 0.0), "near", ref),
        Triplet(offset_poi("b", 0.0, 2.0), "near", ref),
        Triplet(offset_poi("c", -1.0, 0.0), "in", ref),
    ]
    sets = build_training_sets(triplets, ORIGIN)
    assert list(sets) == ["near", "in"]
    assert len(sets["near"].vectors) == 2
    assert len(sets["in"].vectors) == 1
    assert sum(len(s.vectors) for s in sets.values()) == len(triplets)


def per_triplet_sets(triplets, origin):
    # One scalar feature_vector call per triplet, the reference for the
    # block computation in build_training_sets.
    sets = {}
    for triplet in triplets:
        sets.setdefault(triplet.relation, []).append(feature_vector(triplet.subject, triplet.object, origin))
    return sets


_LAT = st.floats(-89.0, 89.0)
_LON = st.floats(-179.0, 179.0)


@st.composite
def triplet_blocks(draw):
    # A few places reused across triplets, so subject and object often
    # coincide (distinct names, one coordinate); the origin may lie far away.
    near = st.tuples(st.floats(39.9, 40.1), st.floats(115.9, 116.1))
    coords = draw(st.lists(near | st.tuples(_LAT, _LON), min_size=1, max_size=4))
    triplets = []
    for _ in range(draw(st.integers(0, 12))):
        u, v = draw(st.sampled_from(coords)), draw(st.sampled_from(coords))
        label = draw(st.sampled_from(["near", "in", "north of"]))
        triplets.append(Triplet(Poi("u", *u), label, Poi("v", *v)))
    origin = draw(st.just(ORIGIN) | st.builds(ProjectionOrigin, _LAT, _LON))
    return triplets, origin


_COINCIDENT = Triplet(Poi("twin", 41.0, 117.0), "at", Poi("ref", 41.0, 117.0))
_LABELS = [Triplet(Poi("u", 40.0, 116.0), label, Poi("v", 40.05, 116.1)) for label in ("near", "in", "near")]
_BELOW_ZERO = Triplet(Poi("u", 0.0, 1.0), "east of", Poi("v", 9.2e-54, 0.0))


@example(([], ORIGIN))
@example(([_COINCIDENT], ORIGIN))
@example((_LABELS + [_COINCIDENT], ProjectionOrigin(-60.0, -170.0)))
@example(([_BELOW_ZERO], ProjectionOrigin(0.0, 0.0)))
@settings(max_examples=200)
@given(triplet_blocks())
def test_build_training_sets_matches_per_triplet_features_bitwise(block):
    triplets, origin = block
    sets = build_training_sets(triplets, origin)
    expected = per_triplet_sets(triplets, origin)
    assert list(sets) == list(expected)
    for label, vectors in expected.items():
        got = [(v.distance.hex(), v.orientation.hex()) for v in sets[label].vectors]
        assert got == [(distance.hex(), orientation.hex()) for distance, orientation in vectors]


@example(([_COINCIDENT], ORIGIN))
@example((_LABELS + [_COINCIDENT], ProjectionOrigin(-60.0, -170.0)))
@example(([_BELOW_ZERO], ProjectionOrigin(0.0, 0.0)))
@settings(max_examples=200)
@given(triplet_blocks())
def test_training_set_columns_keep_the_feature_invariants(block):
    # What feature_components guarantees, checked on each label's columns,
    # and the row view (len, .distance, .orientation) that perfbench's ingest
    # check reads.
    for training_set in build_training_sets(*block).values():
        distance, orientation = training_set.vectors.distance, training_set.vectors.orientation
        assert np.all(distance >= 0.0)
        assert np.all((orientation >= 0.0) & (orientation < 360.0)) and not np.any(np.signbit(orientation))
        assert np.all(orientation[distance == 0.0] == 0.0)
        rows = [(v.distance.hex(), v.orientation.hex()) for v in training_set.vectors]
        assert rows == [(d.hex(), o.hex()) for d, o in zip(distance.tolist(), orientation.tolist())]
        assert len(training_set) == len(training_set.vectors) == len(rows)


def test_fixture_triplet_file_label_counts(fixtures_dir):
    triplets = read_triplets_tsv(str(fixtures_dir / "triplets_100.tsv"))
    assert len(triplets) == 100
    endpoints = [(t.subject.lat, t.subject.lon) for t in triplets]
    endpoints += [(t.object.lat, t.object.lon) for t in triplets]
    sets = build_training_sets(triplets, origin_for_points(endpoints))
    sizes = {label: len(s.vectors) for label, s in sets.items()}
    assert sizes == {"near": 40, "at": 25, "north of": 20, "west of": 15}
    assert sum(sizes.values()) == 100


@pytest.mark.parametrize("label", ["", "../escaped", "sub/dir", "/"])
def test_label_filenames_reject_a_label_that_is_no_plain_file_name(label):
    # "" used to write a hidden ".tsv", and "../escaped" a file outside the output directory.
    with pytest.raises(ValueError, match=f"label {label!r} does not name a file"):
        label_filenames(["near", label])


def test_training_set_round_trip(tmp_path):
    vectors = np.rec.fromrecords([(1.25, 45.5), (0.5, 275.125)], names="distance,orientation")
    path = tmp_path / "near.tsv"
    write_training_set(TrainingSet(vectors), str(path))
    array = load_feature_array(str(path))
    assert array.shape == (2, 2)
    assert array.tolist() == [[1.25, 45.5], [0.5, 275.125]]


def test_load_feature_array_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_feature_array(str(path))


@pytest.mark.parametrize("row", ["nan\t90.0", "1.0\tinf", "-inf\t0.0", "1.0\tNaN"])
def test_load_feature_array_rejects_non_finite_values(tmp_path, row):
    path = tmp_path / "bad.tsv"
    path.write_text(f"1.0\t2.0\n\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.tsv:3: non-finite"):
        load_feature_array(str(path))
