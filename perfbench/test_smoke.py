"""Smoke test of the benchmark at tiny sizes (about two minutes):

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload for one second in both modes and checks the output
contract, that each run starts with a cold `op_image_mask` cache, that plans
are seeded and prefix-stable, how host speed samples are averaged, and that
the command fails without finclone.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", NAMES)
def test_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {m: out["metrics"][m]["unit"] for m in out["metrics"]} == {
        m["name"]: m["unit"] for m in declared}
    if trace == "0":
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in declared)
    assert "failed_frac 0 fraction" in proc.stdout
    if trace == "0":
        assert f"{workload} host speed " in proc.stdout


def test_each_run_starts_cold():
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", "opside-sweep",
           "--seed", "3", "--seconds", "1", "--budget", "60"]
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{HERE}",
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert json.loads(proc.stdout.strip().splitlines()[-1])["cold_cache"] is True
    # the check can fail: a process that already answered a query is warm
    from finclone.preserve import op_image_mask
    workloads.answer(workloads.make_plan("opside-sweep", 3, 1)[0])
    assert op_image_mask.cache_info().currsize > 0
    assert worker._cache_is_cold() is False


@pytest.mark.parametrize("workload", NAMES)
def test_plans_are_seeded_and_prefix_stable(workload):
    long = workloads.make_plan(workload, 5, 20)
    assert long == workloads.make_plan(workload, 5, 20)
    assert long != workloads.make_plan(workload, 6, 20)
    for seconds in (1, 10):
        short = workloads.make_plan(workload, 5, seconds)
        assert long[:len(short)] == short
    assert len({q.key for q in long}) == len(long)


def test_worker_result_survives_a_late_reader(monkeypatch):
    class LatePopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            time.sleep(1.5)  # the worker prints `ready` and its result meanwhile

    monkeypatch.setattr(run.subprocess, "Popen", LatePopen)
    args = argparse.Namespace(workload="opside-sweep", seed=1)
    _, res = run._worker(args, 1, 0, 30, ["--setup-only"])
    assert res["speed"] > 0


def test_speed_is_a_window_mean_or_the_nearest_sample():
    s = hostspeed.Sampler()
    s.times, s.speeds = [0.0, 1.0, 2.0, 10.0], [1.0, 0.5, 1.5, 2.0]
    assert s.speed() == 1.25
    assert s.speed(0.9, 1.1) == 0.5
    assert s.speed(0.6, 1.6) == 1.0
    assert s.speed(6.5, 6.6) == 2.0
    s.sample()
    assert len(s.speeds) == 5 and s.speeds[-1] > 0 and s.spent > 0


def test_hd_quantile():
    assert run.hd_quantile([7.0], 0.5) == pytest.approx(7.0)
    assert run.hd_quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    xs = [float(x * x) for x in range(40)]
    p50, p90 = run.hd_quantile(xs, 0.5), run.hd_quantile(xs, 0.9)
    assert xs[18] < p50 < xs[21] and xs[33] < p90 < xs[37]


def test_fails_without_finclone(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
