"""Command-line pipeline: geocode, extract, features, train, predict, fuse.

Every subcommand prints a single machine-readable ``key=value`` summary
line on success, writes output files atomically (temp file in the target
directory, then rename), and never mutates its inputs. Exit codes: 0 on
success, 1 on validation or usage errors, 2 on I/O errors. The default
seed comes from the GEOTRI_SEED environment variable (0 when unset),
read only by modes that draw random numbers; ``predict --point`` draws none.
A negative seed, given or from the environment, is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .atomic import read_text, write_text, write_tsv
from .extract import extract_triplets, load_patterns, read_triplets_tsv, write_triplets_tsv
from .features import (
    build_training_sets,
    label_filenames,
    load_feature_array,
    origin_for_points,
    write_training_set,
)
from .fuse import FUSION_MODES, fuse, load_scenario
from .gazetteer import geocode, load_gazetteer
from .mixture import (
    GaussianComponent,
    GmmModel,
    InsufficientDataError,
    InvalidParameterError,
    TrainingConfig,
    gmm_log_likelihood,
    greedy_train,
)
from .predict import make_grid, prediction_accuracy, score_point, surface_texts, surface_to_geojson

__all__ = ["ModelFileError", "load_model", "load_models_dir", "main", "run", "save_model"]


class ModelFileError(ValueError):
    """Raised when a model file cannot be parsed or fails validation."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # no prefix matching: a removed --m must not act as --max-components
        super().__init__(allow_abbrev=False, **kwargs)

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


def _is_number(value) -> bool:
    """A JSON number: a bool is an int to Python but not a number to JSON."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_model(path: str | Path) -> GmmModel:
    """Parse and validate a model file written by ``save_model``."""
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    try:
        relation, count = payload["relation"], payload["component_count"]
        if not isinstance(relation, str):
            raise TypeError(f"relation must be a string, got {relation!r}")
        if not isinstance(count, int) or isinstance(count, bool):
            raise TypeError(f"component_count must be an integer, got {count!r}")
        components = []
        for c in payload["components"]:
            weight = c["weight"]
            if not _is_number(weight):
                raise TypeError(f"weight must be a number, got {weight!r}")
            for field, size in (("mean", 2), ("covariance", 4)):
                value = c[field]
                if not (isinstance(value, list) and len(value) == size and all(map(_is_number, value))):
                    raise TypeError(f"{field} must be an array of {size} numbers, got {value!r}")
            components.append(GaussianComponent(float(weight), c["mean"], c["covariance"]))
        model = GmmModel(relation, components)
        if count != model.component_count:
            raise InvalidParameterError(f"component_count {count} != {model.component_count}")
        model.validate()
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ModelFileError(f"{path}: invalid model file: {exc}") from exc
    return model


def load_models_dir(directory: str | Path) -> dict[str, GmmModel]:
    """Load every ``*.model`` file in a directory, keyed by relation label.

    Two files with the same relation label are an error naming both files.
    """
    if not Path(directory).is_dir():
        raise NotADirectoryError(f"not a directory: {directory}")
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


def _seed(given: int | None) -> int:
    """``given`` (a ``--seed`` value) unless None, else GEOTRI_SEED, else 0; a negative seed is an error."""
    source, text = "--seed", given
    if given is None:
        source, text = "GEOTRI_SEED", os.environ.get("GEOTRI_SEED", "0")
        try:
            given = int(text)
        except ValueError:
            raise ValueError(f"GEOTRI_SEED must be an integer, got {text!r}") from None
    if given < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {text!r}")
    return given


def _check_outputs(outputs, inputs) -> None:
    """Raise ValueError, before anything is written, when an output is an input file."""
    for out in outputs:
        for source in inputs:
            if os.path.exists(out) and os.path.exists(source) and os.path.samefile(out, source):
                raise ValueError(f"output {out} is the input file {source}")


def _parse_floats(text: str, what: str, form: str) -> tuple[float, ...]:
    """The comma-separated numbers of ``text``, as many as ``form`` (e.g. ``lat,lon``) names."""
    parts = text.split(",")
    if len(parts) != form.count(",") + 1:
        raise ValueError(f"{what} must be {form}")
    return tuple(map(float, parts))


def _cmd_geocode(args) -> None:
    gaz = load_gazetteer(args.gazetteer)
    poi = geocode(args.name, gaz, max_edit=args.max_edit)
    match = "none" if poi is None else poi.name.replace(" ", "_")
    where = {} if poi is None else {"lat": repr(poi.lat), "lon": repr(poi.lon)}
    _summary(command="geocode", query=args.name.replace(" ", "_"), match=match, **where)


def _cmd_extract(args) -> None:
    _check_outputs([args.out], [args.corpus, args.gazetteer, args.patterns])
    gaz = load_gazetteer(args.gazetteer)
    patterns = load_patterns(args.patterns)
    corpus = [line.strip() for line in read_text(args.corpus).split("\n") if line.strip()]
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
    _check_outputs([out_dir / name for name in filenames.values()], [args.triplets])
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
    _check_outputs([args.out], [args.features])
    seed = _seed(args.seed)
    data = load_feature_array(args.features)
    try:
        model = greedy_train(data, args.relation, TrainingConfig(max_components=args.max_components, seed=seed))
    except InsufficientDataError as exc:
        raise ValueError(f"{args.features}: {exc}") from exc
    save_model(model, args.out)
    _summary(
        command="train",
        relation=args.relation.replace(" ", "_"),
        points=data.shape[0],
        components=model.component_count,
        log_likelihood=repr(gmm_log_likelihood(data, model)),
        out=args.out,
    )


def _cmd_predict(args) -> None:
    point_mode = args.point is not None
    unused = {"--points": args.points, "--topk": args.topk, "--seed": args.seed}
    if not point_mode:
        unused = {"--surface-out": args.surface_out}
    for flag, value in unused.items():
        if value is not None:
            raise ValueError(f"{flag} is not used {'with' if point_mode else 'without'} --point")
    seed = None if point_mode else _seed(args.seed)
    models = load_models_dir(args.models)
    bbox = _parse_floats(args.bbox, "bbox", "min_lat,min_lon,max_lat,max_lon")
    if point_mode:
        point = _parse_floats(args.point, "point", "lat,lon")
        grid = make_grid(bbox, args.grid_dim)
        surface = score_point(point, grid, models)
        if args.surface_out:
            csv_text, geojson_text = surface_texts(grid, surface.region_likelihoods)
            write_text(args.surface_out + ".csv", csv_text)
            write_text(args.surface_out + ".geojson", geojson_text + "\n")
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
        points = 2000 if args.points is None else args.points
        topk = 20 if args.topk is None else args.topk
        accuracy = prediction_accuracy(models, bbox, args.grid_dim, points, topk, seed)
        _summary(
            command="predict",
            grid_dim=args.grid_dim,
            points=points,
            topk=topk,
            seed=seed,
            accuracy=repr(accuracy),
        )


def _cmd_fuse(args) -> None:
    _check_outputs([args.out + ".tsv", args.out + ".geojson"], [args.scenario])
    seed = _seed(args.seed)
    models = load_models_dir(args.models)
    scenario = load_scenario(args.scenario)
    estimate = fuse(scenario, models, fraction=args.fraction, seed=seed, fusion=args.fusion)
    write_tsv(args.out + ".tsv", [(args.fraction, *estimate.center, estimate.error_km)])
    write_text(args.out + ".geojson", surface_to_geojson(estimate.grid, estimate.region_likelihoods) + "\n")
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
    p.add_argument("--max-components", type=int, default=TrainingConfig.max_components)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("predict", help="top-k accuracy or one-point surface export")
    p.add_argument("--models", required=True, help="directory of *.model files")
    p.add_argument("--bbox", required=True, help="min_lat,min_lon,max_lat,max_lon")
    p.add_argument("--grid-dim", type=int, default=15)
    p.add_argument("--points", type=int, default=None, help="without --point: sampled points (default 2000)")
    p.add_argument("--topk", type=int, default=None, help="without --point: regions counted as a hit (default 20)")
    p.add_argument("--seed", type=int, default=None, help="without --point: seed of the sampled points")
    p.add_argument("--point", default=None, help="lat,lon: score this point instead")
    p.add_argument("--surface-out", default=None, help="with --point: prefix for .csv/.geojson export")

    p = sub.add_parser("fuse", help="estimate an unknown location from a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--fraction", type=float, default=1.0)
    p.add_argument("--fusion", choices=FUSION_MODES, default=FUSION_MODES[0])
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
_PARSER = _build_parser()


def run(argv: list[str]) -> int:
    """Run one subcommand; returns the process exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.command is None:
        print(_PARSER.format_usage(), file=sys.stderr)
        return 1
    try:
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
