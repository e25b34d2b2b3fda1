"""Subcommand behavior: exit codes, summaries, files, and determinism."""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from geotri import cli, predict
from geotri.atomic import write_text
from geotri.cli import ModelFileError, load_model, load_models_dir, run, save_model
from geotri.extract import read_triplets_tsv
from geotri.features import feature_vector, origin_for_points
from geotri.mixture import GaussianComponent, GmmModel
from geotri.predict import make_grid, score_point, surface_to_csv, surface_to_geojson

FIXTURE_ARGS = None  # set lazily via the fixtures_dir fixture


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_summary(capsys) -> dict[str, str]:
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    return dict(pair.split("=", 1) for pair in out[-1].split(" "))


@pytest.fixture(scope="module")
def feature_dir(tmp_path_factory, fixtures_dir):
    out_dir = tmp_path_factory.mktemp("features")
    code = run(
        [
            "features",
            "--triplets",
            str(fixtures_dir / "triplets_100.tsv"),
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    return out_dir


@pytest.fixture(scope="module")
def models_dir(tmp_path_factory, feature_dir):
    out_dir = tmp_path_factory.mktemp("models")
    for label, filename in [
        ("near", "near.tsv"),
        ("at", "at.tsv"),
        ("north of", "north_of.tsv"),
        ("west of", "west_of.tsv"),
    ]:
        code = run(
            [
                "train",
                "--features",
                str(feature_dir / filename),
                "--relation",
                label,
                "--max-components",
                "2",
                "--seed",
                "7",
                "--out",
                str(out_dir / (filename.replace(".tsv", "") + ".model")),
            ]
        )
        assert code == 0
    return out_dir


def test_no_arguments_prints_usage(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err.lower()


def test_missing_required_flag(capsys):
    assert run(["geocode", "--name", "Boston"]) == 1
    assert "--gazetteer" in capsys.readouterr().err


def test_geocode_match(fixtures_dir, capsys):
    code = run(
        ["geocode", "--gazetteer", str(fixtures_dir / "gazetteer.tsv"), "--name", "Bostom"]
    )
    assert code == 0
    summary = parse_summary(capsys)
    assert summary["match"] == "Boston"
    assert float(summary["lat"]) == 42.3601


def test_geocode_no_match(fixtures_dir, capsys):
    code = run(
        ["geocode", "--gazetteer", str(fixtures_dir / "gazetteer.tsv"), "--name", "Atlantis"]
    )
    assert code == 0
    assert parse_summary(capsys)["match"] == "none"


def test_geocode_punctuation_only_name_matches_nothing(fixtures_dir, capsys):
    code = run(
        [
            "geocode",
            "--gazetteer",
            str(fixtures_dir / "gazetteer.tsv"),
            "--name",
            "...",
            "--max-edit",
            "6",
        ]
    )
    assert code == 0
    assert parse_summary(capsys)["match"] == "none"


def test_geocode_negative_max_edit_is_usage_error(fixtures_dir, capsys):
    code = run(
        [
            "geocode",
            "--gazetteer",
            str(fixtures_dir / "gazetteer.tsv"),
            "--name",
            "Boston",
            "--max-edit",
            "-1",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "max_edit" in captured.err
    assert captured.out == ""


def test_geocode_missing_gazetteer_is_io_error(tmp_path, capsys):
    code = run(["geocode", "--gazetteer", str(tmp_path / "nope.tsv"), "--name", "Boston"])
    assert code == 2
    assert "geocode" in capsys.readouterr().err


def test_extract_matches_golden_file(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "triplets.tsv"
    code = run(
        [
            "extract",
            "--corpus",
            str(fixtures_dir / "corpus.txt"),
            "--gazetteer",
            str(fixtures_dir / "gazetteer.tsv"),
            "--patterns",
            str(fixtures_dir / "patterns.tsv"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = parse_summary(capsys)
    assert summary["triplets"] == "28"
    assert summary["gazetteer_skipped_rows"] == "0"
    assert out.read_bytes() == (fixtures_dir / "expected_triplets.tsv").read_bytes()


def test_extract_does_not_mutate_inputs(fixtures_dir, tmp_path):
    before = [
        sha256(fixtures_dir / name)
        for name in ("corpus.txt", "gazetteer.tsv", "patterns.tsv")
    ]
    run(
        [
            "extract",
            "--corpus",
            str(fixtures_dir / "corpus.txt"),
            "--gazetteer",
            str(fixtures_dir / "gazetteer.tsv"),
            "--patterns",
            str(fixtures_dir / "patterns.tsv"),
            "--out",
            str(tmp_path / "t.tsv"),
        ]
    )
    after = [
        sha256(fixtures_dir / name)
        for name in ("corpus.txt", "gazetteer.tsv", "patterns.tsv")
    ]
    assert before == after


def assert_refused(code, capsys, path, before):
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "is the input file" in err[0]
    assert path.read_bytes() == before


def test_extract_refuses_an_input_as_output(fixtures_dir, tmp_path, capsys):
    names = {"--corpus": "corpus.txt", "--gazetteer": "gazetteer.tsv", "--patterns": "patterns.tsv"}
    args = ["extract"]
    for flag, name in names.items():
        (tmp_path / name).write_bytes((fixtures_dir / name).read_bytes())
        args += [flag, str(tmp_path / name)]
    for name in names.values():
        before = (tmp_path / name).read_bytes()
        # Spelled differently from the input path: the check compares files, not strings.
        assert_refused(run([*args, "--out", f"{tmp_path}/./{name}"]), capsys, tmp_path / name, before)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names.values())


def test_features_writes_per_label_files(feature_dir):
    names = sorted(p.name for p in feature_dir.glob("*.tsv"))
    assert names == ["at.tsv", "near.tsv", "north_of.tsv", "west_of.tsv"]
    counts = {p.name: len(p.read_text().splitlines()) for p in feature_dir.glob("*.tsv")}
    assert counts == {"near.tsv": 40, "at.tsv": 25, "north_of.tsv": 20, "west_of.tsv": 15}


def test_features_files_hold_each_triplets_feature_vector_in_triplet_order(feature_dir, fixtures_dir):
    triplets = read_triplets_tsv(str(fixtures_dir / "triplets_100.tsv"))
    origin = origin_for_points([(t.subject.lat, t.subject.lon) for t in triplets]
                               + [(t.object.lat, t.object.lon) for t in triplets])
    expected = {}
    for t in triplets:
        row = [value.hex() for value in feature_vector(t.subject, t.object, origin)]
        expected.setdefault(t.relation.replace(" ", "_") + ".tsv", []).append(row)
    got = {
        path.name: [[float(value).hex() for value in line.split("\t")] for line in path.read_text(encoding="utf-8").splitlines()]
        for path in feature_dir.glob("*.tsv")
    }
    assert got == expected


def test_features_rejects_colliding_label_filenames(tmp_path, capsys):
    triplets = tmp_path / "triplets.tsv"
    triplets.write_text(
        "".join(f"Site\t{label}\tOld Market\t40.08\t116.09\t40.09\t116.12\n" for label in ("north of", "north_of")),
        encoding="utf-8",
    )
    out_dir = tmp_path / "features"
    code = run(["features", "--triplets", str(triplets), "--out-dir", str(out_dir)])
    assert code == 1
    assert "'north of' and 'north_of' both map to north_of.tsv" in capsys.readouterr().err
    assert not list(out_dir.glob("*"))


@pytest.mark.parametrize("label", ["../escaped", "sub/dir"])
def test_features_rejects_label_that_leaves_the_output_directory(tmp_path, capsys, label):
    # "../escaped" used to write escaped.tsv beside the output directory.
    triplets = tmp_path / "triplets.tsv"
    triplets.write_text(f"Site\t{label}\tOld Market\t40.08\t116.09\t40.09\t116.12\n", encoding="utf-8")
    out_dir = tmp_path / "out" / "features"
    assert run(["features", "--triplets", str(triplets), "--out-dir", str(out_dir)]) == 1
    assert f"label {label!r} does not name a file inside the output directory" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_features_reports_bad_triplet_row_with_path_and_line(tmp_path, capsys):
    triplets = tmp_path / "triplets.tsv"
    triplets.write_text("# subject\trelation\tobject\nA\tnear\tB\tabc\t116.1\t40.2\t116.2\n", encoding="utf-8")
    out_dir = tmp_path / "features"
    assert run(["features", "--triplets", str(triplets), "--out-dir", str(out_dir)]) == 1
    assert f"{triplets}:2: could not convert string to float: 'abc'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_features_rejects_triplets_file_without_rows(tmp_path, capsys):
    triplets = tmp_path / "triplets.tsv"
    triplets.write_text("# subject\trelation\tobject\n", encoding="utf-8")
    out_dir = tmp_path / "features"
    assert run(["features", "--triplets", str(triplets), "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"geotri features: no triplets in {triplets}\n"
    assert not out_dir.exists()


def test_features_refuses_its_triplets_as_a_label_file(fixtures_dir, tmp_path, capsys):
    out_dir = tmp_path / "features"
    out_dir.mkdir()
    triplets = out_dir / "near.tsv"
    triplets.write_bytes((fixtures_dir / "triplets_100.tsv").read_bytes())
    before = triplets.read_bytes()
    assert_refused(run(["features", "--triplets", str(triplets), "--out-dir", str(out_dir)]), capsys, triplets, before)
    assert [p.name for p in out_dir.iterdir()] == ["near.tsv"]


def test_failed_atomic_write_keeps_old_file(tmp_path):
    path = tmp_path / "out.tsv"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        write_text(path, "new \ud800\n")  # a lone surrogate cannot be encoded
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]


def test_train_rejects_empty_relation(feature_dir, tmp_path, capsys):
    out = tmp_path / "empty.model"
    argv = ["train", "--features", str(feature_dir / "near.tsv"), "--relation", "", "--out", str(out)]
    assert run(argv) == 1
    assert capsys.readouterr().err == "geotri train: relation label must be non-empty\n"
    assert not out.exists()


def test_train_is_byte_deterministic(feature_dir, tmp_path, capsys):
    args = [
        "train",
        "--features",
        str(feature_dir / "near.tsv"),
        "--relation",
        "near",
        "--max-components",
        "3",
        "--seed",
        "7",
    ]
    first = tmp_path / "a.model"
    second = tmp_path / "b.model"
    assert run(args + ["--out", str(first)]) == 0
    capsys.readouterr()
    assert run(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_train_refuses_its_features_as_output(feature_dir, tmp_path, capsys):
    features = tmp_path / "near.tsv"
    features.write_bytes((feature_dir / "near.tsv").read_bytes())
    before = features.read_bytes()
    code = run(["train", "--features", str(features), "--relation", "near", "--seed", "7", "--out", str(features)])
    assert_refused(code, capsys, features, before)
    assert [p.name for p in tmp_path.iterdir()] == ["near.tsv"]


def test_train_summary_reports_fit(feature_dir, tmp_path, capsys):
    out = tmp_path / "near.model"
    code = run(
        [
            "train",
            "--features",
            str(feature_dir / "near.tsv"),
            "--relation",
            "near",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = parse_summary(capsys)
    assert summary["points"] == "40"
    assert summary["relation"] == "near"
    assert int(summary["components"]) >= 1
    assert math.isfinite(float(summary["log_likelihood"]))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_train_rejects_non_finite_feature_row(tmp_path, capsys, value):
    features = tmp_path / "near.tsv"
    features.write_text(f"1.5\t90.0\n{value}\t45.0\n2.5\t180.0\n", encoding="utf-8")
    out = tmp_path / "near.model"
    code = run(["train", "--features", str(features), "--relation", "near", "--out", str(out)])
    assert code == 1
    assert f"{features}:2: non-finite feature value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "row, message",
    [
        # 1e200 used to fail inside EM after three numpy RuntimeWarnings, naming no file;
        # the other rows used to train and exit 0.
        ("1e200\t0", "distance 1e200 km outside [0, 44755]"),
        ("44756\t0", "distance 44756 km outside [0, 44755]"),
        ("-3.0\t30.0", "distance -3.0 km outside [0, 44755]"),
        ("1.0\t-5.0", "orientation -5.0 degrees outside [0, 360)"),
        ("2.0\t365.0", "orientation 365.0 degrees outside [0, 360)"),
        ("2.0\t360", "orientation 360 degrees outside [0, 360)"),
    ],
)
def test_train_rejects_a_feature_row_outside_the_feature_space(tmp_path, capsys, row, message):
    features = tmp_path / "near.tsv"
    features.write_text(f"1.5\t90.0\n{row}\n2.5\t180.0\n3.5\t0.0\n", encoding="utf-8")
    out = tmp_path / "near.model"
    assert run(["train", "--features", str(features), "--relation", "near", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"geotri train: {features}:2: {message}\n"
    assert not out.exists()


def test_train_reports_bad_feature_row_with_path_and_line(tmp_path, capsys):
    features = tmp_path / "near.tsv"
    features.write_text("\n# distance\torientation\nabc\t45.0\n", encoding="utf-8")
    out = tmp_path / "near.model"
    assert run(["train", "--features", str(features), "--relation", "near", "--out", str(out)]) == 1
    assert f"{features}:3: could not convert string to float: 'abc'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "# distance\torientation\n", "1.5\t90.0\n"])
def test_train_names_a_features_file_with_fewer_than_two_rows(tmp_path, capsys, text):
    features = tmp_path / "near.tsv"
    features.write_text(text, encoding="utf-8")
    out = tmp_path / "near.model"
    assert run(["train", "--features", str(features), "--relation", "near", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"geotri train: {features}: greedy training needs at least 2 points\n"
    assert not out.exists()


def test_model_round_trip_is_exact(tmp_path):
    model = GmmModel(
        "near",
        (
            GaussianComponent(0.375, [1.25, 90.5], np.array([[2.5, 0.125], [0.125, 8.0]])),
            GaussianComponent(0.625, [7.75, 180.25], np.array([[1.0, 0.0], [0.0, 100.0]])),
        ),
    )
    path = tmp_path / "m.model"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.relation == model.relation
    for ours, theirs in zip(model.components, loaded.components):
        assert theirs.weight == ours.weight
        assert np.array_equal(theirs.mean, ours.mean)
        assert np.array_equal(theirs.covariance, ours.covariance)


def test_model_round_trip_survives_awkward_floats(tmp_path):
    weight = 1.0 / 3.0
    model = GmmModel(
        "near",
        (
            GaussianComponent(weight, [0.1, 0.2], np.eye(2) * (1.0 / 7.0)),
            GaussianComponent(1.0 - weight, [1e-8, 359.9999], np.eye(2) * 12345.6789),
        ),
    )
    path = tmp_path / "m.model"
    save_model(model, path)
    loaded = load_model(path)
    for ours, theirs in zip(model.components, loaded.components):
        assert theirs.weight == ours.weight
        assert np.array_equal(theirs.mean, ours.mean)
        assert np.array_equal(theirs.covariance, ours.covariance)


def test_hand_written_model_file_density(tmp_path):
    path = tmp_path / "hand.model"
    path.write_text(
        json.dumps(
            {
                "relation": "near",
                "component_count": 1,
                "components": [
                    {"weight": 1.0, "mean": [1.0, 2.0], "covariance": [4.0, 0.0, 0.0, 9.0]}
                ],
            }
        ),
        encoding="utf-8",
    )
    model = load_model(path)
    expected = 1.0 / (2.0 * math.pi * math.sqrt(36.0))
    assert math.exp(model.logpdf([1.0], [2.0])[0]) == pytest.approx(expected, rel=1e-12)


def test_truncated_model_file_reports_line(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text('{\n  "relation": "near",\n', encoding="utf-8")
    with pytest.raises(ModelFileError, match="bad.model:3"):
        load_model(path)


def test_input_that_is_not_utf8_fails_with_its_path_and_line(fixtures_dir, models_dir, tmp_path, capsys):
    # Each error used to read "'utf-8' codec can't decode byte 0xe9 ..." with no file named.
    gazetteer = tmp_path / "gazetteer.tsv"
    gazetteer.write_bytes(b"Boston\t\t42.36\t-71.06\nBogot\xe9\t\t4.71\t-74.07\n")
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"Boston is near Cambridge.\n\nCaf\xe9 Boston.\n")
    models = tmp_path / "models"
    models.mkdir()
    (models / "near.model").write_bytes((models_dir / "near.model").read_bytes().replace(b'"near"', b'"n\xe9ar"'))
    commands = [
        (["geocode", "--gazetteer", str(gazetteer), "--name", "Boston"], f"{gazetteer}:2"),
        (["extract", "--corpus", str(corpus), "--gazetteer", str(fixtures_dir / "gazetteer.tsv"),
          "--patterns", str(fixtures_dir / "patterns.tsv"), "--out", str(tmp_path / "t.tsv")], f"{corpus}:3"),
        (["predict", "--models", str(models), "--bbox", "40.0,116.0,40.18,116.235", "--point", "40.09,116.12"],
         f"{models / 'near.model'}:2"),
    ]
    for argv, where in commands:
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith(f"geotri {argv[0]}: {where}: not UTF-8 text: invalid")
    assert not (tmp_path / "t.tsv").exists()


def test_invalid_model_payload_rejected(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text(
        json.dumps({"relation": "near", "component_count": 2, "components": []}),
        encoding="utf-8",
    )
    with pytest.raises(ModelFileError):
        load_model(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        # Each of these used to load: null as the label 'None', 5 as '5', "" as an empty label.
        ("relation", None, "relation must be a string, got None"),
        ("relation", 5, "relation must be a string, got 5"),
        ("relation", "", "relation label must be non-empty"),
        ("component_count", 1.9, "component_count must be an integer, got 1.9"),
        ("component_count", True, "component_count must be an integer, got True"),
        ("component_count", "1", "component_count must be an integer, got '1'"),
        ("component_count", 2, "component_count 2 != 1"),
    ],
)
def test_model_file_with_wrong_relation_or_count_is_rejected_with_path(tmp_path, field, value, message):
    component = {"weight": 1.0, "mean": [1.0, 90.0], "covariance": [1.0, 0.0, 0.0, 1.0]}
    payload = {"relation": "near", "component_count": 1, "components": [component], field: value}
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelFileError) as raised:
        load_model(path)
    assert str(raised.value) == f"{path}: invalid model file: {message}"


@pytest.mark.parametrize(
    "field, value, message",
    [
        # Each of these used to load: true as weight 1.0, strings as numbers, a nested covariance.
        ("weight", True, "weight must be a number, got True"),
        ("weight", "1.0", "weight must be a number, got '1.0'"),
        ("weight", None, "weight must be a number, got None"),
        pytest.param("weight", 10**400, "int too large to convert to float", id="weight-10**400"),
        ("mean", ["1.0", "2.0"], "mean must be an array of 2 numbers, got ['1.0', '2.0']"),
        ("mean", [False, 90.0], "mean must be an array of 2 numbers, got [False, 90.0]"),
        ("mean", [1.0], "mean must be an array of 2 numbers, got [1.0]"),
        ("mean", 1.0, "mean must be an array of 2 numbers, got 1.0"),
        ("covariance", [[1.0, 0.0], [0.0, 1.0]], "covariance must be an array of 4 numbers, got [[1.0, 0.0], [0.0, 1.0]]"),
        ("covariance", [1.0, 0.0, 0.0, True], "covariance must be an array of 4 numbers, got [1.0, 0.0, 0.0, True]"),
        ("covariance", "1 0 0 1", "covariance must be an array of 4 numbers, got '1 0 0 1'"),
    ],
)
def test_model_file_with_a_mistyped_component_field_is_rejected_with_path(tmp_path, field, value, message):
    component = {"weight": 1.0, "mean": [1.0, 90.0], "covariance": [1.0, 0.0, 0.0, 1.0], field: value}
    payload = {"relation": "near", "component_count": 1, "components": [component]}
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelFileError) as raised:
        load_model(path)
    assert str(raised.value) == f"{path}: invalid model file: {message}"


def test_predict_rejects_models_directory_with_null_relation(models_dir, tmp_path, capsys):
    # geotri predict used to exit 0 with this file loaded as the label 'None'.
    models = tmp_path / "models"
    models.mkdir()
    text = (models_dir / "near.model").read_text(encoding="utf-8")
    (models / "near.model").write_text(text.replace('"near"', "null"), encoding="utf-8")
    argv = ["predict", "--models", str(models), "--bbox", "40.0,116.0,40.18,116.235", "--point", "40.09,116.12"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "invalid model file: relation must be a string, got None"
    assert captured.err == f"geotri predict: {models / 'near.model'}: {message}\n"


def test_non_finite_model_parameter_rejected_with_path(tmp_path):
    path = tmp_path / "nan.model"
    component = {"weight": 1.0, "mean": [float("nan"), 90.0], "covariance": [1.0, 0.0, 0.0, 1.0]}
    path.write_text(
        json.dumps({"relation": "near", "component_count": 1, "components": [component]}),
        encoding="utf-8",
    )
    with pytest.raises(ModelFileError, match="nan.model.*finite"):
        load_model(path)


def test_non_positive_definite_covariance_rejected_with_path(tmp_path):
    path = tmp_path / "indefinite.model"
    component = {"weight": 1.0, "mean": [1.0, 90.0], "covariance": [1.0, 2.0, 2.0, 1.0]}
    path.write_text(
        json.dumps({"relation": "near", "component_count": 1, "components": [component]}),
        encoding="utf-8",
    )
    with pytest.raises(ModelFileError, match="indefinite.model"):
        load_model(path)


def test_load_models_dir_rejects_duplicate_labels(tmp_path):
    model = GmmModel("near", (GaussianComponent(1.0, [1.0, 90.0], np.eye(2)),))
    save_model(model, tmp_path / "a.model")
    save_model(model, tmp_path / "b.model")
    with pytest.raises(ModelFileError, match="b.model.*'near'.*a.model"):
        load_models_dir(tmp_path)


def test_load_models_dir_requires_files(tmp_path, capsys):
    with pytest.raises(ModelFileError):
        load_models_dir(tmp_path)
    # An existing directory without models is a value error, not an I/O error.
    bbox = "40.0,116.0,40.18,116.235"
    assert run(["predict", "--models", str(tmp_path), "--bbox", bbox, "--point", "40.09,116.12"]) == 1
    assert "no *.model files" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_models_path_that_is_not_a_directory_is_io_error(fixtures_dir, tmp_path, capsys, kind):
    path = tmp_path / "models"
    if kind == "file":
        path.write_text("", encoding="utf-8")
    with pytest.raises(OSError, match="not a directory"):
        load_models_dir(path)
    bbox = "40.0,116.0,40.18,116.235"
    predict = ["predict", "--models", str(path), "--bbox", bbox, "--point", "40.09,116.12"]
    scenario = str(fixtures_dir / "scenario_demo.tsv")
    fuse = ["fuse", "--scenario", scenario, "--models", str(path), "--out", str(tmp_path / "estimate")]
    for argv in (predict, fuse):
        assert run(argv) == 2
        assert f"not a directory: {path}" in capsys.readouterr().err
    assert not list(tmp_path.glob("estimate*"))


def test_predict_point_surface_export(models_dir, tmp_path, capsys):
    prefix = tmp_path / "surface"
    code = run(
        [
            "predict",
            "--models",
            str(models_dir),
            "--bbox",
            "40.0,116.0,40.18,116.235",
            "--grid-dim",
            "15",
            "--point",
            "40.09,116.12",
            "--surface-out",
            str(prefix),
        ]
    )
    assert code == 0
    summary = parse_summary(capsys)
    assert 0 <= int(summary["top_region"]) < 196
    csv_lines = (tmp_path / "surface.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "region_row,region_col,likelihood"
    assert len(csv_lines) == 197
    collection = json.loads((tmp_path / "surface.geojson").read_text())
    assert collection["type"] == "FeatureCollection"
    assert len(collection["features"]) == 196
    grid = make_grid((40.0, 116.0, 40.18, 116.235), 15)
    surface = score_point((40.09, 116.12), grid, load_models_dir(models_dir))
    assert collection == json.loads(surface_to_geojson(grid, surface.region_likelihoods))


def test_predict_accuracy_summary(models_dir, capsys):
    code = run(
        [
            "predict",
            "--models",
            str(models_dir),
            "--bbox",
            "40.0,116.0,40.18,116.235",
            "--grid-dim",
            "7",
            "--points",
            "20",
            "--topk",
            "5",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    summary = parse_summary(capsys)
    assert 0.0 <= float(summary["accuracy"]) <= 1.0
    assert summary["seed"] == "3"


def test_predict_rejects_bad_topk_before_scoring(models_dir, monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("a point was scored")

    monkeypatch.setattr(predict, "_score_block", fail)
    bbox = "40.0,116.0,40.18,116.235"
    code = run(["predict", "--models", str(models_dir), "--bbox", bbox, "--points", "2000", "--topk", "0"])
    assert code == 1
    assert "k must lie in [1, 196]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--point", "40.09,116.12", "--points", "5"], "--points"),
        (["--point", "40.09,116.12", "--topk", "2"], "--topk"),
        (["--points", "5", "--topk", "2", "--surface-out", "SURFACE"], "--surface-out"),
        (["--point", "40.09,116.12", "--seed", "3"], "--seed"),
    ],
)
def test_predict_rejects_options_of_the_other_mode(models_dir, tmp_path, capsys, extra, flag):
    argv = ["predict", "--models", str(models_dir), "--bbox", "40.0,116.0,40.18,116.235", "--grid-dim", "5"]
    argv += [str(tmp_path / "s") if arg == "SURFACE" else arg for arg in extra]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"{flag} is not used" in captured.err
    assert not list(tmp_path.iterdir())


def test_predict_accuracy_defaults(models_dir, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "prediction_accuracy", lambda *args: calls.append(args[3:5]) or 0.5)
    argv = ["predict", "--models", str(models_dir), "--bbox", "40.0,116.0,40.18,116.235", "--seed", "1"]
    assert run(argv) == 0
    summary = parse_summary(capsys)
    assert calls == [(2000, 20)]
    assert (summary["points"], summary["topk"]) == ("2000", "20")


def test_predict_rejects_bad_bbox(models_dir, capsys):
    code = run(
        ["predict", "--models", str(models_dir), "--bbox", "1,2,3", "--point", "1,2"]
    )
    assert code == 1
    assert "bbox" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--point", "nan,116.1", "point (nan, 116.1) is not finite"),
        ("--point", "40.09,inf", "point (40.09, inf) is not finite"),
        ("--bbox", "-inf,116.0,40.18,116.235", "non-finite bbox"),
        ("--bbox", "40.0,116.0,nan,116.235", "non-finite bbox"),
        # Finite but outside WGS84: these used to exit 0.
        ("--point", "95,116.1", "point out of range: lat=95.0 lon=116.1"),
        ("--bbox", "80,0,100,10", "bbox corner out of range: lat=100.0 lon=10.0"),
        ("--bbox", "40,170,41,190", "bbox corner out of range: lat=41.0 lon=190.0"),
        # Three fields are not a point.
        ("--point", "40.09,116.12,3", "point must be lat,lon"),
    ],
)
def test_predict_rejects_non_finite_point_and_bbox(models_dir, tmp_path, capsys, flag, value, message):
    args = {"--bbox": "40.0,116.0,40.18,116.235", "--point": "40.09,116.12", flag: value}
    argv = ["predict", "--models", str(models_dir), "--grid-dim", "5", "--surface-out", str(tmp_path / "s")]
    argv += [f"{key}={text}" for key, text in args.items()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert message in captured.err
    assert not list(tmp_path.iterdir())


def test_fuse_rejects_scenario_bbox_outside_wgs84(models_dir, tmp_path, capsys):
    scenario = tmp_path / "scenario.tsv"
    scenario.write_text("bbox\t80\t0\t100\t10\ndim\t5\nunknown\tx\t85\t5\nnear\tlm\t86\t6\n", encoding="utf-8")
    code = run(["fuse", "--scenario", str(scenario), "--models", str(models_dir), "--out", str(tmp_path / "estimate")])
    assert code == 1
    assert f"{scenario}: bbox corner out of range: lat=100.0 lon=10.0" in capsys.readouterr().err
    assert not list(tmp_path.glob("estimate*"))


def test_predict_accepts_finite_point_outside_bbox(models_dir, tmp_path, capsys):
    argv = ["predict", "--models", str(models_dir), "--bbox", "40.0,116.0,40.18,116.235", "--grid-dim", "5",
            "--point", "41.5,115.0", "--surface-out", str(tmp_path / "s")]
    assert run(argv) == 0
    assert parse_summary(capsys)["point_lat"] == "41.5"
    assert (tmp_path / "s.geojson").exists()


def test_fuse_writes_estimate_and_surface(models_dir, fixtures_dir, tmp_path, capsys):
    out = tmp_path / "estimate"
    code = run(
        [
            "fuse",
            "--scenario",
            str(fixtures_dir / "scenario_demo.tsv"),
            "--models",
            str(models_dir),
            "--fraction",
            "0.5",
            "--seed",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = parse_summary(capsys)
    assert summary["observations"] == "20"
    fields = (tmp_path / "estimate.tsv").read_text().strip().split("\t")
    assert len(fields) == 4
    assert float(fields[0]) == 0.5
    assert float(fields[3]) == float(summary["error_km"])
    collection = json.loads((tmp_path / "estimate.geojson").read_text())
    assert len(collection["features"]) == 196
    total = sum(f["properties"]["likelihood"] for f in collection["features"])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_fuse_refuses_its_scenario_as_output(models_dir, fixtures_dir, tmp_path, capsys):
    # "--out s" writes s.tsv and s.geojson; either may be the scenario.
    for suffix in (".tsv", ".geojson"):
        scenario = tmp_path / f"s{suffix}"
        scenario.write_bytes((fixtures_dir / "scenario_demo.tsv").read_bytes())
        before = scenario.read_bytes()
        code = run(["fuse", "--scenario", str(scenario), "--models", str(models_dir), "--out", str(tmp_path / "s")])
        assert_refused(code, capsys, scenario, before)
        assert [p.name for p in tmp_path.iterdir()] == [scenario.name]
        scenario.unlink()


# sha256 of the estimate .tsv and .geojson that `geotri fuse` writes for the demo
# scenario with the fixture-trained models, recorded before fusion was blocked by
# vertex, again when the candidate race changed the trained "at" and "north of",
# and again when evidence came to be summed in (label, lat, lon) order.
FUSE_DIGESTS = {
    "product": (
        "66b8977d91d31a7e6413add904df56bda1f048a1a962dcb3afb8000544c0c2a1",
        "f344581457f1918320be1a19e58a6bdd4443614df8a6953ac819021579090328",
    ),
    "sum": (
        "dc122bb1549d9d97eaf16da11896b25ef4c2013ed6bd95bb52fbd3b899f4da21",
        "08da6d0e982e51f318fe24760dbb9c0f6c01e8b71f24d07d12045e8668dbb3d5",
    ),
}


@pytest.mark.parametrize("fusion", sorted(FUSE_DIGESTS))
def test_fuse_output_bytes_match_golden_digests(models_dir, fixtures_dir, tmp_path, capsys, fusion):
    out = tmp_path / "estimate"
    argv = ["fuse", "--scenario", str(fixtures_dir / "scenario_demo.tsv"), "--models", str(models_dir),
            "--seed", "0", "--fusion", fusion, "--out", str(out)]
    assert run(argv) == 0
    capsys.readouterr()
    assert (sha256(out.with_suffix(".tsv")), sha256(out.with_suffix(".geojson"))) == FUSE_DIGESTS[fusion]


# sha256 of the .csv and .geojson that `geotri predict --point 40.09,116.12
# --surface-out` writes with the fixture-trained models, recorded when scoring
# moved to one FFT convolution per block.
PREDICT_DIGESTS = {
    15: (
        "c64cd2fd18b4f726cadc9039d55935f2a29486524dcdf6eca7b51b6ae44f0471",
        "c79158cccb0ca6ce988283ae19da3cec276339b873b168d61dab2a6907905cc4",
    ),
    60: (
        "2a0a5d515f0f920c82c82ca06cf5a872ecd169e930f00945e8f1b1c5c5f3cf8b",
        "a8b900cd23037fb055c64bb57d75f440483a34b333bb39258340ee388cc27dc5",
    ),
}


def predict_surface_files(models_dir, tmp_path, capsys, dim):
    out = tmp_path / "surface"
    argv = ["predict", "--models", str(models_dir), "--bbox", "40.0,116.0,40.18,116.235", "--grid-dim", str(dim),
            "--point", "40.09,116.12", "--surface-out", str(out)]
    assert run(argv) == 0
    capsys.readouterr()
    return out.with_suffix(".csv"), out.with_suffix(".geojson")


@pytest.mark.parametrize("dim", sorted(PREDICT_DIGESTS))
def test_predict_surface_bytes_match_golden_digests(models_dir, tmp_path, capsys, dim):
    files = predict_surface_files(models_dir, tmp_path, capsys, dim)
    assert tuple(map(sha256, files)) == PREDICT_DIGESTS[dim]


@pytest.mark.parametrize("dim", sorted(PREDICT_DIGESTS))
def test_predict_surface_files_hold_the_exporters_text(models_dir, tmp_path, capsys, dim):
    csv_path, geojson_path = predict_surface_files(models_dir, tmp_path, capsys, dim)
    grid = make_grid((40.0, 116.0, 40.18, 116.235), dim)
    likelihoods = score_point((40.09, 116.12), grid, load_models_dir(models_dir)).region_likelihoods
    assert csv_path.read_bytes() == surface_to_csv(grid, likelihoods).encode()
    assert geojson_path.read_bytes() == (surface_to_geojson(grid, likelihoods) + "\n").encode()


@pytest.mark.parametrize("header", ["dim\t1", "dim\t0", "bbox\t40.0\t116.0\t40.0\t116.235"])
def test_fuse_rejects_scenario_without_grid(models_dir, fixtures_dir, tmp_path, capsys, header):
    lines = (fixtures_dir / "scenario_demo.tsv").read_text(encoding="utf-8").splitlines()
    key = header.split("\t")[0]
    scenario = tmp_path / "scenario.tsv"
    scenario.write_text("\n".join(header if line.startswith(key + "\t") else line for line in lines) + "\n")
    out = tmp_path / "estimate"
    code = run(["fuse", "--scenario", str(scenario), "--models", str(models_dir), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{scenario}: " in err
    assert ("grid dim must be >= 2" if key == "dim" else "degenerate bbox") in err
    assert not list(tmp_path.glob("estimate*"))


def test_seed_defaults_to_environment(feature_dir, models_dir, monkeypatch, capsys):
    monkeypatch.setenv("GEOTRI_SEED", "123")
    code = run(
        [
            "predict",
            "--models",
            str(models_dir),
            "--bbox",
            "40.0,116.0,40.18,116.235",
            "--grid-dim",
            "5",
            "--points",
            "5",
            "--topk",
            "2",
        ]
    )
    assert code == 0
    assert parse_summary(capsys)["seed"] == "123"


def test_explicit_seed_overrides_environment(models_dir, monkeypatch, capsys):
    monkeypatch.setenv("GEOTRI_SEED", "123")
    code = run(
        [
            "predict",
            "--models",
            str(models_dir),
            "--bbox",
            "40.0,116.0,40.18,116.235",
            "--grid-dim",
            "5",
            "--points",
            "5",
            "--topk",
            "2",
            "--seed",
            "9",
        ]
    )
    assert code == 0
    assert parse_summary(capsys)["seed"] == "9"


def seed_commands(fixtures_dir, feature_dir, models_dir, out):
    return {
        "train": ["train", "--features", str(feature_dir / "near.tsv"), "--relation", "near", "--out", str(out)],
        "predict": ["predict", "--models", str(models_dir), "--bbox", "40.0,116.0,40.18,116.235",
                    "--grid-dim", "5", "--points", "5", "--topk", "2"],
        "fuse": ["fuse", "--scenario", str(fixtures_dir / "scenario_demo.tsv"), "--models", str(models_dir),
                 "--out", str(out)],
    }


@pytest.mark.parametrize("command", ["train", "predict", "fuse"])
def test_invalid_seed_environment_is_usage_error(
    fixtures_dir, feature_dir, models_dir, tmp_path, monkeypatch, capsys, command
):
    for value in ("abc", "-1"):
        monkeypatch.setenv("GEOTRI_SEED", value)
        out = tmp_path / "out"
        assert run(seed_commands(fixtures_dir, feature_dir, models_dir, out)[command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "GEOTRI_SEED" in captured.err and repr(value) in captured.err
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["train", "predict", "fuse"])
def test_negative_seed_is_usage_error(fixtures_dir, feature_dir, models_dir, tmp_path, monkeypatch, capsys, command):
    # fuse at --fraction 1.0 draws no sample, so numpy never sees the seed: the CLI must refuse it.
    monkeypatch.delenv("GEOTRI_SEED", raising=False)
    argv = seed_commands(fixtures_dir, feature_dir, models_dir, tmp_path / "out")[command]
    assert run(argv + ["--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"geotri {command}: --seed must be a non-negative integer, got -1\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["train", "predict", "fuse"])
def test_explicit_seed_ignores_invalid_environment(
    fixtures_dir, feature_dir, models_dir, tmp_path, monkeypatch, capsys, command
):
    monkeypatch.setenv("GEOTRI_SEED", "abc")
    argv = seed_commands(fixtures_dir, feature_dir, models_dir, tmp_path / "out")[command]
    assert run(argv + ["--seed", "9"]) == 0
    assert parse_summary(capsys)["command"] == command


def test_point_mode_ignores_seed_environment(models_dir, tmp_path, monkeypatch, capsys):
    prefix = tmp_path / "surface"
    argv = ["predict", "--models", str(models_dir), "--bbox", "40.0,116.0,40.18,116.235", "--grid-dim", "4",
            "--point", "40.09,116.12", "--surface-out", str(prefix)]
    monkeypatch.delenv("GEOTRI_SEED", raising=False)
    assert run(argv) == 0
    unset = capsys.readouterr().out, [sha256(path) for path in sorted(tmp_path.iterdir())]
    monkeypatch.setenv("GEOTRI_SEED", "abc")
    assert run(argv) == 0
    assert (capsys.readouterr().out, [sha256(path) for path in sorted(tmp_path.iterdir())]) == unset
    assert len(unset[1]) == 2


def test_train_has_no_candidates_option(feature_dir, tmp_path, capsys):
    out = tmp_path / "near.model"
    code = run(["train", "--features", str(feature_dir / "near.tsv"), "--relation", "near", "--m", "10",
                "--out", str(out)])
    assert code == 1
    assert "--m" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_runs_in_one_process_share_no_parser_state(fixtures_dir, models_dir, tmp_path, monkeypatch, capsys):
    bbox = "40.0,116.0,40.18,116.235"
    point = ["predict", "--models", str(models_dir), "--bbox", bbox, "--grid-dim", "4", "--point", "40.09,116.12"]
    assert run(point + ["--surface-out", str(tmp_path / "refused"), "--seed", "99", "--bogus"]) == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert run(point) == 0
    assert parse_summary(capsys)["surface_out"] == "none"
    prefix = tmp_path / "surface"
    assert run(point + ["--surface-out", str(prefix)]) == 0
    assert parse_summary(capsys)["surface_out"] == str(prefix)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["surface.csv", "surface.geojson"]
    fused = {}
    for env_seed in ("5", "6", "5"):
        monkeypatch.setenv("GEOTRI_SEED", env_seed)
        out = tmp_path / f"env{env_seed}"
        argv = ["fuse", "--scenario", str(fixtures_dir / "scenario_demo.tsv"), "--models", str(models_dir),
                "--fraction", "0.5", "--out", str(out)]
        assert run(argv) == 0
        fused.setdefault(env_seed, []).append(parse_summary(capsys)["error_km"])
        assert run(argv[:-1] + [str(tmp_path / f"explicit{env_seed}"), "--seed", env_seed]) == 0
        assert parse_summary(capsys)["error_km"] == fused[env_seed][-1]
        assert sha256(out.with_suffix(".geojson")) == sha256(tmp_path / f"explicit{env_seed}.geojson")
        accuracy = ["predict", "--models", str(models_dir), "--bbox", bbox, "--grid-dim", "5", "--points", "5",
                    "--topk", "2"]
        assert run(accuracy) == 0
        assert parse_summary(capsys)["seed"] == env_seed
    assert fused["5"][0] == fused["5"][1]
    assert fused["5"][0] != fused["6"][0]


def test_commands_without_seed_ignore_seed_environment(fixtures_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GEOTRI_SEED", "abc")
    gazetteer = str(fixtures_dir / "gazetteer.tsv")
    assert run(["geocode", "--gazetteer", gazetteer, "--name", "Bostom"]) == 0
    assert parse_summary(capsys)["match"] == "Boston"
    out = tmp_path / "triplets.tsv"
    assert run(["extract", "--corpus", str(fixtures_dir / "corpus.txt"), "--gazetteer", gazetteer,
                "--patterns", str(fixtures_dir / "patterns.tsv"), "--out", str(out)]) == 0
    assert parse_summary(capsys)["command"] == "extract"
    assert run(["features", "--triplets", str(out), "--out-dir", str(tmp_path / "features")]) == 0
    assert parse_summary(capsys)["command"] == "features"


def test_extract_has_no_span_option(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "triplets.tsv"
    code = run(["extract", "--corpus", str(fixtures_dir / "corpus.txt"), "--gazetteer",
                str(fixtures_dir / "gazetteer.tsv"), "--patterns", str(fixtures_dir / "patterns.tsv"),
                "--max-span", "5", "--out", str(out)])
    assert code == 1
    assert "--max-span" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, code, stream, text",
    [
        (["geocode", "--gazetteer", "{fixtures}/gazetteer.tsv", "--name", "Bostom"], 0, "stdout",
         "command=geocode query=Bostom match=Boston lat=42.3601"),
        (["geocode", "--gazetteer", "{fixtures}/missing.tsv", "--name", "Boston"], 2, "stderr", "missing.tsv"),
        ([], 1, "stderr", "usage: geotri"),
    ],
    ids=["geocode", "missing-gazetteer", "no-subcommand"],
)
def test_module_entry_point_exit_codes(fixtures_dir, args, code, stream, text):
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    argv = [arg.format(fixtures=fixtures_dir) for arg in args]
    result = subprocess.run(
        [sys.executable, "-m", "geotri", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == code, result.stderr
    assert text in getattr(result, stream)
