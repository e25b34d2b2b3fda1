"""geotri benchmark: one workload, one seed, one JSON result.

Usage, from the repository root:

    python3 perfbench/run.py --workload ingest|quantify|localize \
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off, for S
seconds: the workload's pass of operations runs round after round with new
inputs each round, and every timing is scaled to the speed of a fixed
reference computation timed around it. ``--trace 1`` runs the workload's
fixed traced operations twice, untraced and then with every layer's public
functions wrapped, and reports the per-layer metrics; the spans go to
``perfbench/_traces/<workload>-seed<N>.jsonl``. The last line of standard
output is the result; the line before it records the machine, the settings,
the workload's own named metrics and either the reference's time and the
unscaled metrics or, when traced, the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

BLAS_THREADS = 1
# Pin BLAS/OpenMP pools before numpy loads: one caller, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Unit of each end-to-end metric; every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "batch_items_per_s": "1/s",
    "request_ms.p50": "ms",
    "request_ms.p90": "ms",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def measure(workload, seconds: float):
    """End-to-end run with tracing off."""
    import workloads as w

    rec = w.Recorder(reference=w.reference)
    state, first_setup_s, _ = rec.timed(workload.setup)
    for op in workload.once(state):
        rec.run(op)
    setup_s = statistics.median([first_setup_s, *w.run_rounds(workload, state, rec, seconds)])
    try:
        detail, roles = workload.metrics(rec)
    except (ValueError, IndexError, ZeroDivisionError, statistics.StatisticsError) as exc:
        for error in rec.errors:
            print(f"perfbench: failed: {error}", file=sys.stderr)
        fail(f"metrics need successful operations of every kind: {exc}")
    for name, band in load_bands(workload.name).items():
        rec.check_band(name, detail[name][0], band)
    detail["setup_s"] = (setup_s, "s")
    metrics = {"setup_s": setup_s, **roles}
    unscaled = workload.metrics(dataclasses.replace(rec, seconds=rec.raw))[1]
    return rec, metrics, {
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "reference_ms": {"scale_to": 1000.0 * w.REFERENCE_S, "median": 1000.0 * statistics.median(rec.reference_seconds)},
        "unscaled": unscaled,
    }


def traced(workload, trace_path: Path):
    """The fixed traced operations, each run once untraced and once traced.

    The two runs of an operation alternate in order, so neither side gets
    the warmer caches throughout; the overhead is the difference of the
    summed program-call times.
    """
    import layers
    import workloads as w
    from spans import Tracer

    state = workload.setup()
    ops = w.traced_blocks(workload, state)
    tracer = Tracer()
    plain, rec = w.Recorder(), w.Recorder(tracer=tracer)

    def run_traced(action, *args):
        tracer.install("geotri", layers.FUNCTIONS, layers.methods())
        try:
            return action(*args)
        finally:
            tracer.uninstall()

    with tracer.request("bench.setup"):
        run_traced(workload.setup)
    for i, op in enumerate(ops):
        if i % 2:
            plain.run(op)
        run_traced(rec.run, op)
        if not i % 2:
            plain.run(op)
    tracer.counters["cli.bytes_written"] += sum(rec.values["bytes"])
    trace_path.parent.mkdir(exist_ok=True)
    tracer.write_jsonl(str(trace_path))
    rec.attempted += plain.attempted
    rec.failed += plain.failed
    rec.errors += plain.errors
    untraced_s = sum(map(sum, plain.seconds.values()))
    traced_s = sum(map(sum, rec.seconds.values()))
    metrics = {name: value(tracer) for name, (_, _, value) in layers.PER_LAYER.items()}
    context = {
        "trace_file": str(trace_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "trace_overhead_s": traced_s - untraced_s,
        "trace_overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    }
    units = {name: unit for name, (unit, _, _) in layers.PER_LAYER.items()}
    return rec, metrics, units, context


def load_bands(workload: str) -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)[workload]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/geotri/__init__.py", "fixtures/patterns.tsv", "fixtures/expected_triplets.tsv"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found under {ROOT}; run from a geotri checkout")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import geotri

    if Path(geotri.__file__).resolve().parent != ROOT / "src" / "geotri":
        fail(f"imported geotri from {geotri.__file__}, not from this checkout")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    scratch = HERE / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
        # The generated inputs live for the whole run; keep the collector from
        # rescanning them inside timed calls.
        gc.collect()
        gc.freeze()
        if args.trace:
            trace_path = HERE / "_traces" / f"{args.workload}-seed{args.seed}.jsonl"
            rec, metrics, units, context = traced(workload, trace_path)
        else:
            rec, metrics, context = measure(workload, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in rec.errors:
        print(f"perfbench: failed: {error}", file=sys.stderr)
    context.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, rounds=rec.rounds,
                   machine=machine(), operations={k: len(v) for k, v in rec.seconds.items()})
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
