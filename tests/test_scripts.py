"""Smoke runs of the benchmark scripts at tiny sizes."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def script_result(name: str, *args: str, seed_env: str | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("GEOTRI_SEED", None)
    if seed_env is not None:
        env["GEOTRI_SEED"] = seed_env
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def run_script(name: str, *args: str) -> list[str]:
    result = script_result(name, *args)
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


SCRIPTS = ["relation_benchmark.py", "fusion_trend.py"]


@pytest.mark.parametrize("name", SCRIPTS)
def test_help_ignores_invalid_seed_environment(name):
    result = script_result(name, "--help", seed_env="abc")
    assert result.returncode == 0, result.stderr
    assert "--seed" in result.stdout


@pytest.mark.parametrize("name", SCRIPTS)
def test_invalid_seed_environment_is_one_line_error(name):
    result = script_result(name, seed_env="abc")
    assert result.returncode != 0
    assert result.stdout == ""
    assert result.stderr == "GEOTRI_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize("name", SCRIPTS)
@pytest.mark.parametrize(
    ("args", "seed_env", "message"),
    [
        (["--seed", "-1"], None, "--seed must be a non-negative integer, got -1\n"),
        ([], "-1", "GEOTRI_SEED must be a non-negative integer, got '-1'\n"),
    ],
    ids=["flag", "environment"],
)
def test_negative_seed_is_one_line_error(name, args, seed_env, message):
    result = script_result(name, *args, seed_env=seed_env)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == message
