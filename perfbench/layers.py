"""Which geotri functions the traced run wraps, and the per-layer metrics.

Each row names a public function by its defining module; ``Tracer.install``
also patches every other geotri module that imported it. ``geotri.fuse`` is
looked up in ``sys.modules`` because the package re-exports the ``fuse``
function under the module's name. ``token_class``, ``normalize_name`` and
``project`` run inside per-token and per-call loops and are left unwrapped;
their time counts in their callers' self time.
"""

from __future__ import annotations

import numpy as np


def _fuzzy(counters, result, name, gaz, max_edit=1):  # geocode's own default
    if max_edit > 0:
        counters["gazetteer.fuzzy_queries"] += 1
        counters["gazetteer.fuzzy_hits"] += result is not None


def _length(counter):
    def count(counters, result, *args, **kwargs):
        counters[counter] += len(result)

    return count


def _pairs(counters, result, *args, **kwargs):
    counters["features.pairs_computed"] += int(np.size(result[0]))


def _accepted(counters, result, *args, **kwargs):
    counters["mixture.rounds_accepted"] += result.component_count - 1


def _underflow(counters, result, *args, **kwargs):
    counters["predict.underflow_vertices"] += len(result.underflow_vertices)


def _observations(counters, result, *args, **kwargs):
    counters["fuse.observations_used"] += len(result.observations_used)


# (defining module, function, layer, timed, counter hook)
FUNCTIONS = [
    ("geotri.gazetteer", "load_gazetteer", "gazetteer", True, None),
    ("geotri.gazetteer", "build_gazetteer", "gazetteer", True, None),
    ("geotri.gazetteer", "geocode", "gazetteer", True, _fuzzy),
    ("geotri.gazetteer", "levenshtein", "gazetteer", False, None),
    ("geotri.extract", "load_patterns", "extract", True, None),
    ("geotri.extract", "extract_triplets", "extract", True, _length("extract.triplets")),
    ("geotri.extract", "split_sentences", "extract", True, _length("extract.sentences")),
    ("geotri.extract", "tokenize", "extract", True, None),
    ("geotri.extract", "tag_entities", "extract", True, _length("extract.spans")),
    ("geotri.extract", "match_relation", "extract", True, None),
    ("geotri.extract", "read_triplets_tsv", "extract", True, None),
    ("geotri.extract", "write_triplets_tsv", "extract", True, None),
    ("geotri.features", "feature_components", "features", True, _pairs),
    ("geotri.features", "feature_vector", "features", True, None),
    ("geotri.features", "build_training_sets", "features", True, None),
    ("geotri.features", "origin_for_points", "features", True, None),
    ("geotri.features", "load_feature_array", "features", True, None),
    ("geotri.features", "write_training_set", "features", True, None),
    ("geotri.mixture", "em_fit", "mixture", True, None),
    ("geotri.mixture", "generate_candidates", "mixture", True, _length("mixture.candidates")),
    ("geotri.mixture", "greedy_train", "mixture", True, _accepted),
    ("geotri.mixture", "gmm_log_likelihood", "mixture", True, None),
    ("geotri.predict", "make_grid", "predict", True, None),
    ("geotri.predict", "score_point", "predict", True, _underflow),
    ("geotri.predict", "prediction_trial", "predict", True, None),
    ("geotri.predict", "prediction_accuracy", "predict", True, None),
    ("geotri.predict", "surface_to_csv", "predict", True, None),
    ("geotri.predict", "surface_to_geojson", "predict", True, None),
    ("geotri.fuse", "fuse", "fuse", True, _observations),
    ("geotri.fuse", "subsample", "fuse", True, None),
    ("geotri.fuse", "load_scenario", "fuse", True, None),
    ("geotri.fuse", "save_scenario", "fuse", True, None),
    ("geotri.fuse", "haversine_km", "fuse", True, None),
    ("geotri.cli", "run", "cli", True, None),
    ("geotri.cli", "load_model", "cli", True, None),
    ("geotri.cli", "load_models_dir", "cli", True, None),
    ("geotri.cli", "save_model", "cli", True, None),
]


def methods():
    from geotri.mixture import GmmModel

    return [(GmmModel, "logpdf", "mixture", _length("mixture.logpdf_points"))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, better, value from a Tracer)
PER_LAYER = {
    "gazetteer.load_ms": ("ms", "lower", lambda t: t.ms(t.total_ns, "gazetteer.load_gazetteer")),
    "gazetteer.geocode_busy_ms": ("ms", "lower", lambda t: t.ms(t.total_ns, "gazetteer.geocode")),
    "gazetteer.geocode_calls": ("count", "lower", lambda t: t.calls["gazetteer.geocode"]),
    "gazetteer.levenshtein_calls": ("count", "lower", lambda t: t.calls["gazetteer.levenshtein"]),
    "gazetteer.fuzzy_hit_ratio": ("ratio", "higher", lambda t: _ratio(
        t.counters["gazetteer.fuzzy_hits"], t.counters["gazetteer.fuzzy_queries"])),
    "extract.split_busy_ms": ("ms", "lower", lambda t: t.ms(t.total_ns, "extract.split_sentences")),
    "extract.tag_busy_ms": ("ms", "lower", lambda t: t.ms(t.total_ns, "extract.tag_entities")),
    "extract.match_busy_ms": ("ms", "lower", lambda t: t.ms(t.total_ns, "extract.match_relation")),
    "extract.sentences": ("count", "higher", lambda t: t.counters["extract.sentences"]),
    "extract.spans": ("count", "higher", lambda t: t.counters["extract.spans"]),
    "extract.pairs_tested": ("count", "lower", lambda t: t.calls["extract.match_relation"]),
    "extract.triplet_yield": ("ratio", "higher", lambda t: _ratio(
        t.counters["extract.triplets"], t.calls["extract.match_relation"])),
    "features.busy_ms": ("ms", "lower", lambda t: t.ms(t.layer_busy_ns, "features")),
    "features.pairs_computed": ("count", "lower", lambda t: t.counters["features.pairs_computed"]),
    "mixture.greedy_self_ms": ("ms", "lower", lambda t: t.ms(t.self_ns, "mixture.greedy_train")),
    "mixture.em_busy_ms": ("ms", "lower", lambda t: t.ms(t.total_ns, "mixture.em_fit")),
    "mixture.em_fit_calls": ("count", "lower", lambda t: t.calls["mixture.em_fit"]),
    "mixture.candidates": ("count", "lower", lambda t: t.counters["mixture.candidates"]),
    "mixture.rounds": ("count", "lower", lambda t: t.calls["mixture.generate_candidates"]),
    "mixture.rounds_accepted": ("count", "higher", lambda t: t.counters["mixture.rounds_accepted"]),
    "mixture.logpdf_busy_ms": ("ms", "lower", lambda t: t.ms(t.total_ns, "mixture.logpdf")),
    "mixture.logpdf_points": ("count", "lower", lambda t: t.counters["mixture.logpdf_points"]),
    "predict.score_self_ms": ("ms", "lower", lambda t: t.ms(t.self_ns, "predict.score_point")),
    "predict.trial_self_ms": ("ms", "lower", lambda t: t.ms(t.self_ns, "predict.prediction_trial")),
    "predict.export_ms": ("ms", "lower", lambda t: t.ms(t.total_ns, "predict.surface_to_csv")
                          + t.ms(t.total_ns, "predict.surface_to_geojson")),
    "predict.score_calls": ("count", "lower", lambda t: t.calls["predict.score_point"]),
    "predict.underflow_vertices": ("count", "lower", lambda t: t.counters["predict.underflow_vertices"]),
    "fuse.self_ms": ("ms", "lower", lambda t: t.ms(t.layer_self_ns, "fuse")),
    "fuse.calls": ("count", "lower", lambda t: t.calls["fuse.fuse"]),
    "fuse.observations_used": ("count", "lower", lambda t: t.counters["fuse.observations_used"]),
    "cli.self_ms": ("ms", "lower", lambda t: t.ms(t.layer_self_ns, "cli")),
    "cli.bytes_written": ("bytes", "lower", lambda t: t.counters["cli.bytes_written"]),
}
