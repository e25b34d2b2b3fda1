"""The benchmark's three workloads: ingest, quantify and localize.

A workload generates its inputs from the seed, times the program's own
set-up calls, and then runs one pass of operations round after round. Each
operation calls geotri's public API once and its result is checked. Only
the program call is timed, and the time is scaled to the speed of a
reference computation run just before and after it (see ``Recorder``).
Load is a closed loop with one caller: an operation starts when the
previous one has finished.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen

MIN_ROUNDS = 3


class CheckFailed(Exception):
    """An operation returned a result that is not correct."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    items: int
    call: object  # () -> result; the only timed part
    check: object  # result -> dict of value lists to record, or None; raises on a wrong result


@dataclass
class Phase:
    name: str
    blocks: int  # blocks in one pass
    block: object  # (block index, set-up state, round) -> list[Op]; each round new inputs of the same sizes
    trace_blocks: int  # blocks the traced run executes


# The reference computation's time, in seconds, on an unloaded 2-vCPU Intel
# Xeon virtual machine (Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_S = 0.004
_REFERENCE_WORDS = (("brakotelumar", "drimonakelu"), ("zelavintorka", "zelavinterka"), ("kalemuntrado", "kalemuntrade"))
_REFERENCE_PAIRS = gen.rng_for(0, 7).standard_normal((300, 300, 2))


def reference() -> None:
    """A fixed computation in the benchmark's own code, not geotri's.

    Pure-Python edit distance, then numpy distances and exponentials over a
    1.4 MB array: the interpreter-bound and the array-bound work that the
    workloads spend their time in.
    """
    for _ in range(4):
        for a, b in _REFERENCE_WORDS:
            gen.levenshtein(a, b)
    np.exp(-np.hypot(_REFERENCE_PAIRS[..., 0], _REFERENCE_PAIRS[..., 1])).sum()


@dataclass
class Recorder:
    """Attempted and failed operations, timings and checked values.

    With a ``reference`` computation, every timing is scaled to the
    reference speed. The shared machine the benchmark was built on moves
    between a fast and a slow state, 1.3-1.6x apart. A state lasts from
    under a second to many minutes, so a whole run can fall in either. The
    reference runs just before and just after each timed call, and the
    call's time is multiplied by ``REFERENCE_S`` over the mean of the two
    reference times. A slow state slows both alike, so the scaled time
    keeps what the program costs and drops most of what the machine adds.
    ``raw`` holds the unscaled times.
    """

    tracer: object = None
    reference: object = None  # () -> None, or None to leave timings unscaled
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    seconds: dict = field(default_factory=lambda: defaultdict(list))
    raw: dict = field(default_factory=lambda: defaultdict(list))
    items: dict = field(default_factory=lambda: defaultdict(int))
    values: dict = field(default_factory=lambda: defaultdict(list))
    reference_seconds: list = field(default_factory=list)
    rounds: int = 0

    def _reference(self) -> float:
        start = time.perf_counter()
        self.reference()
        elapsed = time.perf_counter() - start
        self.reference_seconds.append(elapsed)
        return elapsed

    def timed(self, call):
        """(result, scaled seconds, seconds) of one call."""
        before = self._reference() if self.reference else None
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        if before is None:
            return result, elapsed, elapsed
        return result, elapsed * 2.0 * REFERENCE_S / (before + self._reference()), elapsed

    def run(self, op: Op) -> None:
        self.attempted += 1
        scope = contextlib.nullcontext() if self.tracer is None else self.tracer.request(f"bench.{op.kind}")
        try:
            with scope:
                result, scaled, elapsed = self.timed(op.call)
            recorded = op.check(result) or {}
        except Exception as exc:  # a failing operation is counted, and the run goes on
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            return
        self.seconds[op.kind].append(scaled)
        self.raw[op.kind].append(elapsed)
        self.items[op.kind] += op.items
        for key, values in recorded.items():
            self.values[key].extend(values)

    def check_band(self, name: str, value: float, band: dict) -> None:
        """One-sided check of a quality metric against its recorded reference."""
        self.attempted += 1
        limit = band["reference"] - band["tolerance"] if band["better"] == "higher" else band["reference"] + band["tolerance"]
        worse = value < limit if band["better"] == "higher" else value > limit
        if worse or not math.isfinite(value):
            self.failed += 1
            self.errors.append(f"{name}={value!r} is worse than reference {band['reference']} by more than {band['tolerance']}")

    def rate(self, *kinds: str) -> float:
        """Items per second of program time, scaled like every timing."""
        return sum(self.items[k] for k in kinds) / sum(sum(self.seconds[k]) for k in kinds)

    def percentiles_ms(self, *kinds: str) -> dict:
        """p50 and p90 over every operation of these kinds."""
        p50, p90 = np.percentile([s for k in kinds for s in self.seconds[k]], (50, 90)) * 1000.0
        return {"p50": float(p50), "p90": float(p90)}


def interleave(lists: list[list]) -> list:
    """Merge lists so each one's items are spread evenly over the result."""
    keyed = [((i + 0.5) / len(items), j, item) for j, items in enumerate(lists) for i, item in enumerate(items)]
    return [item for *_, item in sorted(keyed, key=lambda row: row[:2])]


def run_rounds(workload, state, rec: Recorder, seconds: float) -> list[float]:
    """Time-boxed run; returns the set-up times taken along the way.

    A pass is every phase's blocks, with the phases' operations interleaved.
    The pass runs round after round while the next round still fits in
    ``seconds``, and at least ``MIN_ROUNDS`` times. Every round draws new
    inputs of the same sizes for every position, so no input repeats and a
    cache keyed on inputs never hits across rounds. Set-up is timed again at
    evenly spaced points of every round.
    """
    start, last, setups = time.perf_counter(), 0.0, []
    while rec.rounds < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        ops = interleave([[op for k in range(p.blocks) for op in p.block(k, state, rec.rounds)] for p in workload.phases])
        every = max(1, len(ops) // workload.setups_per_round)
        for i, op in enumerate(ops):
            rec.run(op)
            if i % every == every - 1:
                setups.append(rec.timed(workload.setup)[1])
        rec.rounds += 1
        last = time.perf_counter() - began
    return setups


def traced_blocks(workload, state) -> list[Op]:
    """The fixed operations of a traced run, with all inputs generated."""
    return [op for phase in workload.phases for k in range(phase.trace_blocks) for op in phase.block(k, state, 0)]


# ---------------------------------------------------------------- ingest

GAZETTEER_NAMES = 2000
TEXTS_PER_BLOCK = 200
QUERIES_PER_KIND = 3
# One pass: about a third of its time on texts and the rest on fuzzy queries.
TEXT_BLOCKS = 12
QUERY_BLOCKS = 2


class Ingest:
    """Extraction over a generated corpus and fuzzy geocoding.

    The gazetteer has 2000 canonical names plus about 1300 alternates. Fuzzy
    geocoding scans every name, so its cost grows linearly with that size.
    """

    name = "ingest"
    setups_per_round = 6

    def __init__(self, root: Path, work: Path, seed: int):
        import geotri
        from geotri.features import ProjectionOrigin

        self.g = geotri
        self.seed = seed
        self.root = root
        self.entries = gen.make_gazetteer(seed, GAZETTEER_NAMES)
        self.gazetteer_path = work / "gazetteer.tsv"
        self.gazetteer_path.write_text(gen.gazetteer_tsv(self.entries), encoding="utf-8")
        self.patterns_path = root / "fixtures" / "patterns.tsv"
        self.rules = gen.read_pattern_rows(str(self.patterns_path))
        self.index = gen.NameIndex(self.entries)
        box = gen.GAZ_BBOX
        self.origin = ProjectionOrigin((box[0] + box[2]) / 2, (box[1] + box[3]) / 2)
        self.phases = [
            Phase("texts", TEXT_BLOCKS, self._texts, trace_blocks=2),
            Phase("fuzzy", QUERY_BLOCKS, self._fuzzy, trace_blocks=2),
        ]

    def setup(self):
        return (self.g.load_gazetteer(str(self.gazetteer_path)), self.g.load_patterns(str(self.patterns_path)))

    def once(self, state) -> list[Op]:
        """The fixture corpus still yields the fixture's expected triplets."""
        fixtures = self.root / "fixtures"
        corpus = [line.strip() for line in (fixtures / "corpus.txt").read_text(encoding="utf-8").splitlines() if line.strip()]
        expected = [tuple(line.split("\t")) for line in (fixtures / "expected_triplets.tsv").read_text(encoding="utf-8").splitlines() if line]

        def call():
            gaz = self.g.load_gazetteer(str(fixtures / "gazetteer.tsv"))
            return self.g.extract_triplets(corpus, gaz, state[1])

        def check(triplets):
            got = [(t.subject.name, t.relation, t.object.name, t.subject.lat, t.subject.lon, t.object.lat, t.object.lon)
                   for t in triplets]
            want = [(s, r, o, float(a), float(b), float(c), float(d)) for s, r, o, a, b, c, d in expected]
            expect(got == want, "fixture corpus triplets differ from fixtures/expected_triplets.tsv")

        return [Op("fixture", len(corpus), call, check)]

    def _texts(self, k, state, rnd) -> list[Op]:
        texts, expected = gen.make_corpus(self.seed, k, self.entries, self.rules, TEXTS_PER_BLOCK, rnd)
        gaz, patterns = state

        def call():
            triplets = self.g.extract_triplets(texts, gaz, patterns)
            return triplets, self.g.build_training_sets(triplets, self.origin)

        def check(result):
            triplets, sets = result
            got = [(t.subject.name, t.relation, t.object.name) for t in triplets]
            expect(got == [t for text in expected for t in text], f"corpus block {k}: triplets differ from the generated truth")
            expect(sum(len(s) for s in sets.values()) == len(triplets), "training sets lost triplets")
            expect(all(math.isfinite(v.distance) and v.distance > 0 for s in sets.values() for v in s.vectors),
                   "non-finite or zero feature distance")

        return [Op("texts", len(texts), call, check)]

    def _fuzzy(self, k, state, rnd) -> list[Op]:
        gaz = state[0]
        ops = []
        for query, target, kind in gen.make_queries(self.seed, k, self.entries, self.index, QUERIES_PER_KIND, rnd):
            def check(poi, target=target, query=query):
                expect((poi.name if poi else None) == target, f"geocode({query!r}) gave {poi}, expected {target}")

            ops.append(Op("fuzzy", 1, lambda q=query: self.g.geocode(q, gaz, max_edit=2), check))
        return ops

    def metrics(self, rec: Recorder) -> tuple[dict, dict]:
        fuzzy = rec.percentiles_ms("fuzzy")
        detail = {
            "ingest.texts_per_s": (rec.rate("texts"), "1/s"),
            "ingest.geocode_fuzzy_ms.p50": (fuzzy["p50"], "ms"),
            "ingest.geocode_fuzzy_ms.p90": (fuzzy["p90"], "ms"),
        }
        roles = {"batch_items_per_s": rec.rate("texts"), "request_ms.p50": fuzzy["p50"], "request_ms.p90": fuzzy["p90"]}
        return detail, roles


# ---------------------------------------------------------------- quantify

FIT_BLOCKS = 1


class Quantify:
    """Greedy mixture training over a fixed mix of labels and data sizes."""

    name = "quantify"
    setups_per_round = 30

    def __init__(self, root: Path, work: Path, seed: int):
        from geotri import mixture, synth

        self.mixture = mixture
        self.synth = synth
        self.seed = seed
        self.phases = [Phase("fits", FIT_BLOCKS, self._fits, trace_blocks=1)]

    def setup(self):
        """Ground-truth models the fits' data are drawn from."""
        m = self.mixture
        models = dict(self.synth.synthetic_city_models())
        for label, lobes in (("five lobes", gen.FIVE_LOBES), ("unimodal", gen.UNIMODAL)):
            models[label] = m.GmmModel(label, tuple(m.GaussianComponent(w, mean, np.diag(var)) for w, mean, var in lobes))
        return models

    def once(self, state) -> list[Op]:
        return []

    def _fits(self, k, state, rnd) -> list[Op]:
        m = self.mixture
        truths = {label: gen.lobes_of(model) for label, model in state.items()}
        ops = []
        for label, data, heldout, fit_seed in gen.fit_block(self.seed, k, truths, rnd):
            def call(label=label, data=data, fit_seed=fit_seed):
                return m.greedy_train(data, label, m.TrainingConfig(max_components=5, seed=fit_seed))

            def check(model, heldout=heldout):
                model.validate()
                expect(1 <= model.component_count <= 5, f"{model.component_count} components")
                weights, means, covs = zip(*((c.weight, c.mean, c.covariance) for c in model.components))
                score = float(np.mean(gen.mixture_logpdf(weights, means, covs, heldout))) + gen.LOG_UNIFORM_AREA
                expect(math.isfinite(score), "non-finite held-out log-likelihood")
                return {"heldout": [score]}

            ops.append(Op("fit", 1, call, check))
        return ops

    def metrics(self, rec: Recorder) -> tuple[dict, dict]:
        fit = rec.percentiles_ms("fit")
        detail = {
            "quantify.fits_per_s": (rec.rate("fit"), "1/s"),
            "quantify.heldout_loglik_per_point": (statistics.fmean(rec.values["heldout"]), "nats"),
            "quantify.fit_ms.p50": (fit["p50"], "ms"),
            "quantify.fit_ms.p90": (fit["p90"], "ms"),
        }
        roles = {"batch_items_per_s": rec.rate("fit"), "request_ms.p50": fit["p50"], "request_ms.p90": fit["p90"]}
        return detail, roles


# ---------------------------------------------------------------- localize

TRIAL_POINTS = {15: 32, 30: 4}


class Localize:
    """Grid scoring in trial batches, and one-shot CLI predict/fuse requests."""

    name = "localize"
    setups_per_round = 10

    def __init__(self, root: Path, work: Path, seed: int):
        from geotri import cli, predict, synth

        self.cli, self.predict, self.synth = cli, predict, synth
        self.fuse_module = sys.modules["geotri.fuse"]  # geotri.fuse is the re-exported function
        self.seed = seed
        self.work = work
        self.models_dir = work / "models"
        self.models_dir.mkdir()
        self.phases = [
            Phase("trials", 1, self._trials, trace_blocks=1),
            Phase("requests", 1, self._requests, trace_blocks=1),
        ]

    def setup(self):
        """The city models, their model files, and the trial grids."""
        models = self.synth.synthetic_city_models()
        for label, model in models.items():
            self.cli.save_model(model, self.models_dir / (label.replace(" ", "_") + ".model"))
        for dim in TRIAL_POINTS:
            self.predict.make_grid(self.synth.CITY_BBOX, dim)
        return models

    def once(self, state) -> list[Op]:
        return []

    def _trials(self, k, state, rnd) -> list[Op]:
        ops = []
        for dim, seed in zip(TRIAL_POINTS, gen.trial_seeds(self.seed, k, rnd)):
            n = TRIAL_POINTS[dim]

            def call(dim=dim, n=n, seed=seed):
                return self.predict.prediction_trial(state, self.synth.CITY_BBOX, dim, n, seed)

            def check(trial, n=n):
                regions = trial.grid.region_count
                expect(len(trial.ranks) == n, "trial lost points")
                expect(all(0 <= r < regions for r in trial.ranks), "rank out of range")
                return {"top20": [r < 20 for r in trial.ranks]}

            ops.append(Op(f"trial{dim}", n, call, check))
        return ops

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.run(argv)
        return code, out.getvalue()

    def _requests(self, k, state, rnd) -> list[Op]:
        ops = []
        out = self.work / "out"
        out.mkdir(exist_ok=True)
        for i, (kind, spec) in enumerate(gen.request_block(self.seed, k, self.synth.CITY_BBOX, rnd=rnd)):
            prefix = str(out / f"{kind}{i}")
            bbox = ",".join(repr(v) for v in spec["bbox"])
            if kind == "predict":
                argv = ["predict", "--models", str(self.models_dir), "--bbox", bbox, "--grid-dim", str(spec["dim"]),
                        "--point", "{!r},{!r}".format(*spec["point"]), "--surface-out", prefix]
                check = self._predict_check(spec, prefix)
            else:
                scenario = self.synth.consistent_scenario(
                    spec["observations"], seed=spec["scenario_seed"], bbox=spec["bbox"], dim=spec["dim"],
                    unknown_at=spec["unknown_at"])
                scenario_path = prefix + ".scenario.tsv"
                self.fuse_module.save_scenario(scenario, scenario_path)
                argv = ["fuse", "--scenario", scenario_path, "--models", str(self.models_dir),
                        "--fraction", repr(spec["fraction"]), "--fusion", spec["fusion"],
                        "--seed", str(spec["subsample_seed"]), "--out", prefix]
                check = self._fuse_check(spec, scenario, prefix)
            ops.append(Op(kind, 1, lambda argv=argv: self._cli(argv), check))
        return ops

    @staticmethod
    def _geojson_likelihoods(path: str, regions: int) -> list[float]:
        with open(path, encoding="utf-8") as handle:
            features = json.load(handle)["features"]
        expect(len(features) == regions, f"{path}: {len(features)} regions, expected {regions}")
        return [f["properties"]["likelihood"] for f in features]

    def _predict_check(self, spec, prefix):
        regions = (spec["dim"] - 1) ** 2

        def check(result):
            code, summary = result
            expect(code == 0, f"predict exited {code}")
            with open(prefix + ".csv", encoding="utf-8") as handle:
                rows = handle.read().splitlines()[1:]
            values = [float(row.split(",")[2]) for row in rows]
            expect(len(values) == regions, "surface csv has the wrong region count")
            expect(all(math.isfinite(v) and v >= 0 for v in values), "negative or non-finite region likelihood")
            # Regions average their four corners, and the corner mass sums to 1.
            expect(0.25 - 1e-12 <= math.fsum(values) <= 1 + 1e-12, "region surface mass outside [1/4, 1]")
            expect(self._geojson_likelihoods(prefix + ".geojson", regions) == values, "csv and geojson differ")
            top = int(summary.split("top_region=")[1].split()[0])
            expect(top == int(np.argmax(values)), "summary top_region is not the surface maximum")
            return {"bytes": [os.path.getsize(prefix + ".csv") + os.path.getsize(prefix + ".geojson")]}

        return check

    def _fuse_check(self, spec, scenario, prefix):
        regions = (spec["dim"] - 1) ** 2
        used = min(len(scenario.observations), math.ceil(spec["fraction"] * len(scenario.observations)))

        def check(result):
            code, summary = result
            expect(code == 0, f"fuse exited {code}")
            fraction, lat, lon, error_km = (float(v) for v in Path(prefix + ".tsv").read_text().split("\t"))
            min_lat, min_lon, max_lat, max_lon = spec["bbox"]
            expect(min_lat <= lat <= max_lat and min_lon <= lon <= max_lon, "estimate outside the bbox")
            expect(abs(error_km - haversine_km(lat, lon, scenario.unknown.lat, scenario.unknown.lon)) < 1e-6,
                   "reported error is not the distance to the hidden place")
            expect(f"observations={used} " in summary, "wrong number of observations used")
            surface = self._geojson_likelihoods(prefix + ".geojson", regions)
            expect(abs(math.fsum(surface) - 1.0) <= 1e-12, "fused surface does not sum to 1")
            return {"fuse_error_km": [error_km],
                    "bytes": [os.path.getsize(prefix + ".tsv") + os.path.getsize(prefix + ".geojson")]}

        return check

    def metrics(self, rec: Recorder) -> tuple[dict, dict]:
        predict = rec.percentiles_ms("predict")
        fuse = rec.percentiles_ms("fuse")
        requests = rec.percentiles_ms("predict", "fuse")
        detail = {
            "localize.trial_dim15_points_per_s": (rec.rate("trial15"), "1/s"),
            "localize.trial_dim30_points_per_s": (rec.rate("trial30"), "1/s"),
            "localize.predict_request_ms.p50": (predict["p50"], "ms"),
            "localize.predict_request_ms.p90": (predict["p90"], "ms"),
            "localize.fuse_request_ms.p50": (fuse["p50"], "ms"),
            "localize.fuse_request_ms.p90": (fuse["p90"], "ms"),
            "localize.top20_accuracy": (statistics.fmean(rec.values["top20"]), "fraction"),
            "localize.fuse_error_km.mean": (statistics.fmean(rec.values["fuse_error_km"]), "km"),
        }
        roles = {"batch_items_per_s": rec.rate("trial15", "trial30"),
                 "request_ms.p50": requests["p50"], "request_ms.p90": requests["p90"]}
        return detail, roles


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    a = math.sin((phi2 - phi1) / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(math.radians(lon2 - lon1) / 2) ** 2
    return 2.0 * 6371.0 * math.asin(math.sqrt(a))


WORKLOADS = {w.name: w for w in (Ingest, Quantify, Localize)}
