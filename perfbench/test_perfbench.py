"""Tests of the benchmark itself: seeded inputs and the layer tracer.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402

PATTERNS = str(ROOT / "fixtures" / "patterns.tsv")


def _inputs(seed: int) -> list[bytes]:
    """Every input the three workloads generate for one seed, serialized."""
    from geotri import synth

    entries = gen.make_gazetteer(seed, 300)
    index = gen.NameIndex(entries)
    rules = gen.read_pattern_rows(PATTERNS)
    truths = {label: gen.lobes_of(m) for label, m in synth.synthetic_city_models().items()}
    truths.update({"five lobes": gen.FIVE_LOBES, "unimodal": gen.UNIMODAL})
    fits = gen.fit_block(seed, 0, truths)
    parts = [
        gen.gazetteer_tsv(entries).encode(),
        pickle.dumps(gen.make_corpus(seed, 0, entries, rules, 30)),
        pickle.dumps(gen.make_queries(seed, 0, entries, index, 2)),
        b"".join(a.tobytes() + b.tobytes() + str((label, s)).encode() for label, a, b, s in fits),
        pickle.dumps(gen.request_block(seed, 0, synth.CITY_BBOX, count=3)),
        pickle.dumps(gen.trial_seeds(seed, 0)),
    ]
    return parts


def test_same_seed_gives_identical_inputs():
    first, second = _inputs(5), _inputs(5)
    assert [hashlib.sha256(p).digest() for p in first] == [hashlib.sha256(p).digest() for p in second]


def test_different_seed_gives_different_inputs():
    assert all(a != b for a, b in zip(_inputs(5), _inputs(6)))


def test_generated_corpus_yields_generated_truth():
    from geotri import extract_triplets, load_patterns
    from geotri.gazetteer import GazetteerEntry, build_gazetteer

    entries = gen.make_gazetteer(3, 300)
    gaz = build_gazetteer([GazetteerEntry(n, a, lat, lon) for n, a, lat, lon in entries])
    texts, expected = gen.make_corpus(3, 1, entries, gen.read_pattern_rows(PATTERNS), 60)
    for text, want in zip(texts, expected):
        got = [(t.subject.name, t.relation, t.object.name) for t in extract_triplets([text], gaz, load_patterns(PATTERNS))]
        assert got == want, text


def test_fuzzy_queries_resolve_to_their_target():
    from geotri.gazetteer import GazetteerEntry, build_gazetteer, geocode

    entries = gen.make_gazetteer(4, 300)
    gaz = build_gazetteer([GazetteerEntry(n, a, lat, lon) for n, a, lat, lon in entries])
    queries = gen.make_queries(4, 0, entries, gen.NameIndex(entries), 4)
    assert [kind for _, _, kind in queries] == ["d1", "d2", "miss"] * 4
    for query, target, _ in queries:
        poi = geocode(query, gaz, max_edit=2)
        assert (poi.name if poi else None) == target


def test_fresh_rounds_keep_the_sizes_and_change_the_inputs():
    from geotri import synth

    first, later = (gen.request_block(5, 0, synth.CITY_BBOX, count=4, rnd=r) for r in (0, 3))
    sizes = ("dim", "observations", "fraction", "fusion")
    assert [(k, [s.get(f) for f in sizes]) for k, s in first] == [(k, [s.get(f) for f in sizes]) for k, s in later]
    assert all(a["bbox"] != b["bbox"] for (_, a), (_, b) in zip(first, later))

    entries = gen.make_gazetteer(4, 300)
    index = gen.NameIndex(entries)
    q0, q1 = (gen.make_queries(4, 0, entries, index, 3, rnd=r) for r in (0, 1))
    assert [(len(q), kind) for q, _, kind in q0] == [(len(q), kind) for q, _, kind in q1]
    assert [q for q, _, _ in q0] != [q for q, _, _ in q1]


def test_interleave_spreads_each_list_and_keeps_every_item():
    import workloads

    merged = workloads.interleave([["a"] * 6, ["b"] * 2])
    assert sorted(merged) == ["a"] * 6 + ["b"] * 2
    assert merged.index("b") >= 2 and merged[-1] != "b"


def test_timings_scale_to_the_reference_speed(monkeypatch):
    import workloads

    # Reference 0.25 s before the call, the call 0.5 s, reference 0.25 s after.
    clock = iter([0.0, 0.25, 1.0, 1.5, 2.0, 2.25])
    monkeypatch.setattr(workloads.time, "perf_counter", lambda: next(clock))
    rec = workloads.Recorder(reference=lambda: None)
    result, scaled, raw = rec.timed(lambda: "done")
    assert (result, raw, rec.reference_seconds) == ("done", 0.5, [0.25, 0.25])
    assert abs(scaled - 0.5 * workloads.REFERENCE_S / 0.25) < 1e-15


def test_unscaled_without_a_reference():
    import workloads

    rec = workloads.Recorder()
    for _ in range(3):
        rec.run(workloads.Op("k", 2, lambda: None, lambda _: None))
    assert rec.seconds["k"] == rec.raw["k"] and rec.items["k"] == 6 and not rec.reference_seconds


def test_tracer_patches_every_binding_and_restores_them():
    import geotri
    import geotri.predict
    from geotri.mixture import GmmModel

    fuse_module = sys.modules["geotri.fuse"]
    originals = (geotri.fuse, fuse_module.feature_components, geotri.predict.feature_components, GmmModel.logpdf)
    tracer = Tracer()
    tracer.install("geotri", layers.FUNCTIONS, layers.methods())
    try:
        patched = (geotri.fuse, fuse_module.feature_components, geotri.predict.feature_components, GmmModel.logpdf)
        assert all(p is not o for p, o in zip(patched, originals))
        assert fuse_module.feature_components is geotri.predict.feature_components
        assert geotri.fuse is fuse_module.fuse
    finally:
        tracer.uninstall()
    restored = (geotri.fuse, fuse_module.feature_components, geotri.predict.feature_components, GmmModel.logpdf)
    assert all(r is o for r, o in zip(restored, originals))


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def child():
        return sum(range(20000))

    wrapped_child = tracer.wrap(child, "b.child", "b")

    def parent():
        return wrapped_child() + wrapped_child()

    wrapped_parent = tracer.wrap(parent, "a.parent", "a")
    with tracer.request("bench.op"):
        wrapped_parent()
    assert tracer.calls["b.child"] == 2
    assert tracer.self_ns["a.parent"] == tracer.total_ns["a.parent"] - tracer.total_ns["b.child"]
    assert tracer.layer_busy_ns["b"] == tracer.total_ns["b.child"]
    requests = {span[2] for span in tracer.spans}
    assert requests == {1}
    by_id = {span[0]: span for span in tracer.spans}
    assert all(by_id[s[1]][3] == "a.parent" for s in tracer.spans if s[3] == "b.child")
