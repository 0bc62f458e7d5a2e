"""finclone benchmark: one run of one workload.

    python3 perfbench/run.py --workload opside-sweep --seed 1 --seconds 25 --trace 0

Every run answers its queries in a fresh interpreter (worker.py), one
thread, so the process-global `op_image_mask` cache starts cold.  The plan
is fixed by workload, seed and --seconds; a faster finclone finishes sooner.

--trace 0 prints the end-to-end metrics: setup_s (median over several fresh
interpreters, from spawn through import and input generation to the first
query), wall_s, query_p50_ms (Harrell-Davis median of the query times) and
peak_rss_mb of the run.  The three times are given at the reference host
speed (hostspeed.py), which keeps runs made in slow and fast phases of a
shared host comparable; the lines before the JSON also give them as
measured, with the host's mean speed.
--trace 1 runs a half-length plan twice, untraced and traced, and prints the
per-layer metrics of the traced run plus trace.overhead_frac.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit code 0 only when every answer passed its checks.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__

import argparse
import json
import math
import os
import statistics
import subprocess
import time
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("opside-sweep", "pairside", "k3-cli")  # the planners in workloads.py
SETUP_SAMPLES = 30    # half before the run, half after it
RUN_LIMIT_S = 170       # the whole command, all workers included
P90_MIN_QUERIES = 100   # p90 needs ten samples beyond it


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(HERE), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    # every worker compiles finclone from source and writes no bytecode, so
    # set-up does the same work in every run and the checkout stays clean;
    # a pycache prefix would also hide the interpreter's own stdlib bytecode
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def _worker(args, seconds: int, trace: int, budget: float, extra=()) -> tuple[float, dict]:
    """Start one worker; return seconds from spawn to `ready` and the JSON
    line the worker prints last."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
           "--budget", str(budget), *extra]
    t0 = time.perf_counter()
    # unbuffered, so that readline() takes no byte past `ready`: communicate()
    # reads the pipe itself and never sees what a buffer took ahead
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, bufsize=0)
    try:
        first = proc.stdout.readline().decode()
        setup = time.perf_counter() - t0
        rest = proc.communicate(timeout=budget + 15)[0].decode()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {first}{rest}")
    return setup, json.loads(lines[-1])


def hd_quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of xs: the mean of the sorted
    values weighted by a Beta(p(n+1), (1-p)(n+1)) density.  Unlike the
    sample quantile it does not jump when two values near the quantile swap
    ranks, which on a run with few queries near the median is most of the
    run-to-run spread."""
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    c = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    per = 16  # midpoint rule, 16 points per order statistic
    weights = [0.0] * n
    for j in range(per * n):
        t = (j + 0.5) / (per * n)
        weights[j // per] += math.exp(c + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _setup_only(args) -> tuple[float, float]:
    """Set-up seconds of one fresh worker, and the host speed right after."""
    setup, res = _worker(args, args.seconds, 0, 30, ["--setup-only"])
    return setup, res["speed"]


def _end_to_end(args, deadline: float) -> tuple[dict, list[dict], list[str]]:
    # half the set-up samples before the run and half after it, so that
    # their median spans the run's time rather than one moment of it
    setups = [_setup_only(args) for _ in range(SETUP_SAMPLES // 2)]
    _, res = _worker(args, args.seconds, 0, deadline - time.perf_counter() - 20)
    setups += [_setup_only(args) for _ in range(SETUP_SAMPLES - len(setups))]
    times, ref_times = res["query_s"], res["query_ref_s"]
    metrics = {
        "setup_s": (statistics.median(t * v for t, v in setups), "s"),
        "wall_s": (sum(ref_times), "s"),
        "query_p50_ms": (1000 * hd_quantile(ref_times, 0.5), "ms"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
    }
    notes = [
        f"setup samples: {len(setups)}; queries: {len(times)}",
        f"measured: setup_s {statistics.median(t for t, _ in setups):.6g} s, "
        f"wall_s {sum(times):.6g} s, query_p50_ms {1000 * hd_quantile(times, 0.5):.6g} ms",
        f"host speed {res['speed']:.4g} of the reference "
        f"(mean of {res['speed_samples']} samples)",
    ]
    if len(times) >= P90_MIN_QUERIES:
        p90 = 1000 * hd_quantile(ref_times, 0.9)
        notes.append(f"query_p90_ms {p90:.6g} ms (from {len(times)} queries)")
    else:
        notes.append(f"query_p90_ms not reported: {len(times)} queries, "
                     f"fewer than {P90_MIN_QUERIES}")
    return metrics, [res], notes


def _per_layer(args, deadline: float) -> tuple[dict, list[dict], list[str]]:
    seconds = max(1, args.seconds // 2)
    half = (deadline - time.perf_counter()) / 2
    spans = BUILD / f"spans-{args.workload}-{args.seed}.jsonl"
    BUILD.mkdir(exist_ok=True)
    _, plain = _worker(args, seconds, 0, half)
    _, traced = _worker(args, seconds, 1, deadline - time.perf_counter(),
                        ["--spans", str(spans)])
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: (value, units[name]) for name, value in traced["layers"].items()}
    metrics["trace.overhead_frac"] = (
        sum(traced["query_ref_s"]) / sum(plain["query_ref_s"]) - 1, "ratio")
    notes = [f"traced queries: {len(traced['query_s'])}; spans written to {spans}"]
    notes += [f"{name} absent: {why}" for name, why in traced["absent"].items()]
    return metrics, [plain, traced], notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "finclone" / "__init__.py").is_file():
        print(f"no finclone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    metrics, results, notes = (_per_layer if args.trace else _end_to_end)(args, deadline)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    cold = all(r["cold_cache"] is not False for r in results)
    correct = failed == 0 and cold

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} failed_frac {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} queries)")
    for note in notes:
        print(f"{args.workload} {note}")
    print(f"{args.workload} answer digests checked: "
          f"{sum(r['digest_checked'] for r in results)} of {attempted}")
    if not cold:
        print(f"{args.workload} op_image_mask cache was warm at the first query")
    for r in results:
        for why in r["failures"]:
            print(f"{args.workload} FAILED {why}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
