"""Command-line pipeline: geocode, extract, features, train, predict, fuse.

Every subcommand prints a single machine-readable ``key=value`` summary
line on success, writes output files atomically (temp file in the target
directory, then rename), and never mutates its inputs. Exit codes: 0 on
success, 1 on validation or usage errors, 2 on I/O errors. The default
seed comes from the GEOTRI_SEED environment variable (0 when unset).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .atomic import write_text, write_tsv
from .extract import extract_triplets, load_patterns, read_triplets_tsv, write_triplets_tsv
from .features import (
    build_training_sets,
    label_filenames,
    load_feature_array,
    origin_for_points,
    write_training_set,
)
from .fuse import fuse, load_scenario
from .gazetteer import geocode, load_gazetteer
from .mixture import (
    GaussianComponent,
    GmmModel,
    InvalidParameterError,
    TrainingConfig,
    gmm_log_likelihood,
    greedy_train,
)
from .predict import make_grid, prediction_accuracy, score_point, surface_to_csv, surface_to_geojson

__all__ = ["ModelFileError", "load_model", "load_models_dir", "main", "run", "save_model"]


class ModelFileError(ValueError):
    """Raised when a model file cannot be parsed or fails validation."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we report usage as 1
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def save_model(model: GmmModel, path: str | Path) -> None:
    """Serialize a mixture as JSON that round-trips floats exactly."""
    payload = {
        "relation": model.relation,
        "component_count": model.component_count,
        "components": [
            {
                "weight": c.weight,
                "mean": c.mean.tolist(),
                "covariance": c.covariance.ravel().tolist(),
            }
            for c in model.components
        ],
    }
    write_text(path, json.dumps(payload, indent=2) + "\n")


def load_model(path: str | Path) -> GmmModel:
    """Parse and validate a model file written by ``save_model``."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    try:
        components = tuple(
            GaussianComponent(
                weight=float(c["weight"]),
                mean=np.array(c["mean"], dtype=float),
                covariance=np.array(c["covariance"], dtype=float).reshape(2, 2),
            )
            for c in payload["components"]
        )
        model = GmmModel(str(payload["relation"]), components)
        if int(payload["component_count"]) != model.component_count:
            raise InvalidParameterError(
                f"component_count {payload['component_count']} != {model.component_count}"
            )
        model.validate()
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"{path}: invalid model file: {exc}") from exc
    return model


def load_models_dir(directory: str | Path) -> dict[str, GmmModel]:
    """Load every ``*.model`` file in a directory, keyed by relation label.

    Two files with the same relation label are an error naming both files.
    """
    models: dict[str, GmmModel] = {}
    sources: dict[str, Path] = {}
    paths = sorted(Path(directory).glob("*.model"))
    if not paths:
        raise ModelFileError(f"no *.model files in {directory}")
    for path in paths:
        model = load_model(path)
        if model.relation in sources:
            raise ModelFileError(
                f"{path}: relation {model.relation!r} is already loaded from {sources[model.relation]}"
            )
        sources[model.relation] = path
        models[model.relation] = model
    return models


def _summary(**pairs) -> None:
    print(" ".join(f"{key}={value}" for key, value in pairs.items()))


def _default_seed() -> int:
    text = os.environ.get("GEOTRI_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"GEOTRI_SEED must be an integer, got {text!r}") from None


def _parse_bbox(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("bbox must be min_lat,min_lon,max_lat,max_lon")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


def _cmd_geocode(args) -> None:
    gaz = load_gazetteer(args.gazetteer)
    poi = geocode(args.name, gaz, max_edit=args.max_edit)
    if poi is None:
        _summary(command="geocode", query=args.name.replace(" ", "_"), match="none")
    else:
        _summary(
            command="geocode",
            query=args.name.replace(" ", "_"),
            match=poi.name.replace(" ", "_"),
            lat=repr(poi.lat),
            lon=repr(poi.lon),
        )


def _cmd_extract(args) -> None:
    gaz = load_gazetteer(args.gazetteer)
    patterns = load_patterns(args.patterns)
    with open(args.corpus, encoding="utf-8") as handle:
        corpus = [line.strip() for line in handle if line.strip()]
    triplets = extract_triplets(corpus, gaz, patterns)
    write_triplets_tsv(triplets, args.out)
    _summary(
        command="extract",
        texts=len(corpus),
        triplets=len(triplets),
        gazetteer_skipped_rows=gaz.skipped_rows,
        out=args.out,
    )


def _cmd_features(args) -> None:
    triplets = read_triplets_tsv(args.triplets)
    if not triplets:
        raise ValueError(f"no triplets in {args.triplets}")
    endpoints = [(t.subject.lat, t.subject.lon) for t in triplets]
    endpoints += [(t.object.lat, t.object.lon) for t in triplets]
    origin = origin_for_points(endpoints)
    sets = build_training_sets(triplets, origin)
    filenames = label_filenames(sets)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for label, training_set in sets.items():
        write_training_set(training_set, out_dir / filenames[label])
    _summary(
        command="features",
        triplets=len(triplets),
        labels=len(sets),
        origin_lat=repr(origin.lat0),
        origin_lon=repr(origin.lon0),
        out_dir=str(out_dir),
    )


def _cmd_train(args) -> None:
    data = load_feature_array(args.features)
    cfg = TrainingConfig(
        max_components=args.max_components,
        candidates_per_component=args.m,
        seed=args.seed,
    )
    model = greedy_train(data, args.relation, cfg)
    save_model(model, args.out)
    _summary(
        command="train",
        relation=args.relation.replace(" ", "_"),
        points=data.shape[0],
        components=model.component_count,
        log_likelihood=repr(gmm_log_likelihood(data, model)),
        out=args.out,
    )


def _write_geojson(path: str, grid, region_likelihoods) -> None:
    # Compact: with ``indent`` json.dumps falls back to its pure-Python encoder.
    write_text(path, json.dumps(surface_to_geojson(grid, region_likelihoods)) + "\n")


def _cmd_predict(args) -> None:
    models = load_models_dir(args.models)
    bbox = _parse_bbox(args.bbox)
    if args.point is not None:
        parts = args.point.split(",")
        if len(parts) != 2:
            raise ValueError("point must be lat,lon")
        point = (float(parts[0]), float(parts[1]))
        grid = make_grid(bbox, args.grid_dim)
        surface = score_point(point, grid, models)
        if args.surface_out:
            write_text(args.surface_out + ".csv", surface_to_csv(grid, surface.region_likelihoods))
            _write_geojson(args.surface_out + ".geojson", grid, surface.region_likelihoods)
        top_region = int(np.argmax(surface.region_likelihoods))
        _summary(
            command="predict",
            point_lat=repr(point[0]),
            point_lon=repr(point[1]),
            grid_dim=args.grid_dim,
            top_region=top_region,
            underflow_vertices=len(surface.underflow_vertices),
            surface_out=args.surface_out or "none",
        )
    else:
        accuracy = prediction_accuracy(
            models, bbox, args.grid_dim, args.points, args.topk, args.seed
        )
        _summary(
            command="predict",
            grid_dim=args.grid_dim,
            points=args.points,
            topk=args.topk,
            seed=args.seed,
            accuracy=repr(accuracy),
        )


def _cmd_fuse(args) -> None:
    models = load_models_dir(args.models)
    scenario = load_scenario(args.scenario)
    estimate = fuse(scenario, models, fraction=args.fraction, seed=args.seed, fusion=args.fusion)
    write_tsv(args.out + ".tsv", [(args.fraction, *estimate.center, estimate.error_km)])
    _write_geojson(args.out + ".geojson", estimate.grid, estimate.region_likelihoods)
    _summary(
        command="fuse",
        observations=len(estimate.observations_used),
        fraction=repr(args.fraction),
        center_lat=repr(estimate.center[0]),
        center_lon=repr(estimate.center[1]),
        error_km=repr(estimate.error_km),
        mode_error_km=repr(estimate.mode_error_km),
        out=args.out,
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="geotri", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("geocode", help="resolve one name against a gazetteer")
    p.add_argument("--gazetteer", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--max-edit", type=int, default=1)

    p = sub.add_parser("extract", help="extract relation triplets from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--gazetteer", required=True)
    p.add_argument("--patterns", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("features", help="triplets -> per-relation feature TSVs")
    p.add_argument("--triplets", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("train", help="fit a mixture for one relation")
    p.add_argument("--features", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--max-components", type=int, default=5)
    p.add_argument("--m", type=int, default=10, help="candidates per component")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("predict", help="top-k accuracy or one-point surface export")
    p.add_argument("--models", required=True, help="directory of *.model files")
    p.add_argument("--bbox", required=True, help="min_lat,min_lon,max_lat,max_lon")
    p.add_argument("--grid-dim", type=int, default=15)
    p.add_argument("--points", type=int, default=2000)
    p.add_argument("--topk", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--point", default=None, help="lat,lon: score this point instead")
    p.add_argument("--surface-out", default=None, help="prefix for .csv/.geojson export")

    p = sub.add_parser("fuse", help="estimate an unknown location from a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--fraction", type=float, default=1.0)
    p.add_argument("--fusion", choices=("product", "sum"), default="product")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    return parser


_HANDLERS = {
    "geocode": _cmd_geocode,
    "extract": _cmd_extract,
    "features": _cmd_features,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "fuse": _cmd_fuse,
}


def run(argv: list[str]) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.command is None:
        print(parser.format_usage(), file=sys.stderr)
        return 1
    try:
        if "seed" in vars(args) and args.seed is None:
            args.seed = _default_seed()
        _HANDLERS[args.command](args)
    except OSError as exc:
        print(f"geotri {args.command}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"geotri {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
