"""Subcommand behavior: exit codes, summaries, files, and determinism."""

import hashlib
import json
import math

import numpy as np
import pytest

from geotri import predict
from geotri.atomic import write_text
from geotri.cli import ModelFileError, load_model, load_models_dir, run, save_model
from geotri.mixture import GaussianComponent, GmmModel
from geotri.predict import make_grid, score_point, surface_to_geojson

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


def test_features_writes_per_label_files(feature_dir):
    names = sorted(p.name for p in feature_dir.glob("*.tsv"))
    assert names == ["at.tsv", "near.tsv", "north_of.tsv", "west_of.tsv"]
    counts = {p.name: len(p.read_text().splitlines()) for p in feature_dir.glob("*.tsv")}
    assert counts == {"near.tsv": 40, "at.tsv": 25, "north_of.tsv": 20, "west_of.tsv": 15}


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


def test_features_reports_bad_triplet_row_with_path_and_line(tmp_path, capsys):
    triplets = tmp_path / "triplets.tsv"
    triplets.write_text("# subject\trelation\tobject\nA\tnear\tB\tabc\t116.1\t40.2\t116.2\n", encoding="utf-8")
    out_dir = tmp_path / "features"
    assert run(["features", "--triplets", str(triplets), "--out-dir", str(out_dir)]) == 1
    assert f"{triplets}:2: could not convert string to float: 'abc'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_failed_atomic_write_keeps_old_file(tmp_path):
    path = tmp_path / "out.tsv"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        write_text(path, "new \ud800\n")  # a lone surrogate cannot be encoded
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]


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


def test_train_reports_bad_feature_row_with_path_and_line(tmp_path, capsys):
    features = tmp_path / "near.tsv"
    features.write_text("\n# distance\torientation\nabc\t45.0\n", encoding="utf-8")
    out = tmp_path / "near.model"
    assert run(["train", "--features", str(features), "--relation", "near", "--out", str(out)]) == 1
    assert f"{features}:3: could not convert string to float: 'abc'" in capsys.readouterr().err
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
    assert math.exp(model.logpdf([1.0, 2.0])[0]) == pytest.approx(expected, rel=1e-12)


def test_truncated_model_file_reports_line(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text('{\n  "relation": "near",\n', encoding="utf-8")
    with pytest.raises(ModelFileError, match="bad.model:3"):
        load_model(path)


def test_invalid_model_payload_rejected(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text(
        json.dumps({"relation": "near", "component_count": 2, "components": []}),
        encoding="utf-8",
    )
    with pytest.raises(ModelFileError):
        load_model(path)


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


def test_load_models_dir_requires_files(tmp_path):
    with pytest.raises(ModelFileError):
        load_models_dir(tmp_path)


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
    assert collection == surface_to_geojson(grid, surface.region_likelihoods)


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


def test_predict_rejects_bad_bbox(models_dir, capsys):
    code = run(
        ["predict", "--models", str(models_dir), "--bbox", "1,2,3", "--point", "1,2"]
    )
    assert code == 1
    assert "bbox" in capsys.readouterr().err


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
    monkeypatch.setenv("GEOTRI_SEED", "abc")
    out = tmp_path / "out"
    assert run(seed_commands(fixtures_dir, feature_dir, models_dir, out)[command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "GEOTRI_SEED" in captured.err and "'abc'" in captured.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["train", "predict", "fuse"])
def test_explicit_seed_ignores_invalid_environment(
    fixtures_dir, feature_dir, models_dir, tmp_path, monkeypatch, capsys, command
):
    monkeypatch.setenv("GEOTRI_SEED", "abc")
    argv = seed_commands(fixtures_dir, feature_dir, models_dir, tmp_path / "out")[command]
    assert run(argv + ["--seed", "9"]) == 0
    assert parse_summary(capsys)["command"] == command


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
