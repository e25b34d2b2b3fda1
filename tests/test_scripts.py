"""Smoke runs of the benchmark scripts at tiny sizes."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_relation_benchmark_runs():
    lines = run_script(
        "relation_benchmark.py", "--seeds", "1", "--points", "20", "--n-per-label", "100", "--seed", "3"
    )
    assert lines[0] == "seeds=1 points=20 grid_dim=15"
    assert lines[1].split() == ["model", "top-1", "top-5", "top-10", "top-20", "qualitative"]
    assert [line.split()[0] for line in lines[2:]] == ["baseline", "greedy"]
    for line in lines[2:]:
        values = [float(v) for v in line.split()[1:]]
        assert len(values) == 5
        assert all(0.0 <= v <= 1.0 for v in values)


def test_fusion_trend_runs():
    lines = run_script(
        "fusion_trend.py", "--scenarios", "20", "--n-per-label", "100", "--fusion", "sum", "--seed", "3"
    )
    assert lines[0] == "scenarios=20 observations=40 fusion=sum"
    assert lines[1].split() == ["fraction", "mean_km", "min_km", "max_km"]
    assert [float(line.split()[0]) for line in lines[2:]] == [0.1, 0.5, 1.0]
    for line in lines[2:]:
        mean_km, min_km, max_km = (float(v) for v in line.split()[1:])
        assert 0.0 <= min_km <= mean_km <= max_km
