"""One benchmark run in a fresh interpreter.

Imports finclone, builds the seeded plan, prints `ready` (the end of
set-up), answers every query in this one thread, and prints one JSON line
with per-query times, peak RSS and the outcome of the answer checks.  A fresh
interpreter per run means the process-global `op_image_mask` cache starts
cold, which the run verifies.

While the queries run, a SIGALRM timer samples the host's speed ten times a
second (hostspeed.py) and enforces the per-query time limit.  Each query's
time is reported as measured and at the reference host speed; the time spent
sampling is left out of both.  A set-up-only worker samples the speed right
after `ready` and prints it.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import workloads  # imports finclone: part of set-up

QUERY_LIMIT_S = 60
SETUP_SPEED_SAMPLES = 5
HERE = Path(__file__).resolve().parent


class QueryTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so library code cannot swallow it."""


def _cache_is_cold() -> bool | None:
    from finclone import preserve

    info = getattr(getattr(preserve, "op_image_mask", None), "cache_info", None)
    return None if info is None else info().currsize == 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PLANNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=float, required=True,
                    help="seconds after which unstarted queries count as failed")
    ap.add_argument("--spans", help="file to write the traced spans to")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    plan = workloads.make_plan(args.workload, args.seed, args.seconds)
    print("ready", flush=True)
    sampler = hostspeed.Sampler()
    if args.setup_only:
        for _ in range(SETUP_SPEED_SAMPLES):
            sampler.sample()
        print(json.dumps({"speed": sampler.speed()}))
        return 0

    recorded = json.loads((HERE / "answers.json").read_text())
    cold = _cache_is_cold()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer.install()
    query_deadline = [float("inf")]

    def tick(signum, frame):
        sampler.sample()
        if time.perf_counter() > query_deadline[0]:
            raise QueryTimeout()

    texts, failures = [], {}
    spans = []  # (start, end, seconds spent sampling) of each started query
    deadline = time.perf_counter() + args.budget
    sampler.sample()  # so that even a run shorter than one interval has samples
    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, hostspeed.INTERVAL_S, hostspeed.INTERVAL_S)
    try:
        for qid, q in enumerate(plan):
            if tracer is not None:
                tracer.qid = qid
            left = min(QUERY_LIMIT_S, deadline - time.perf_counter())
            text = None
            if left <= 0:
                failures[qid] = "not started before the run deadline"
                texts.append(text)
                continue
            spent = sampler.spent
            t0 = time.perf_counter()
            try:
                query_deadline[0] = t0 + left
                text = workloads.answer(q)
            except QueryTimeout:
                failures[qid] = f"ran past {left:.0f} s"
            except Exception:
                failures[qid] = traceback.format_exc(limit=3)
            finally:
                query_deadline[0] = float("inf")
                spans.append((t0, time.perf_counter(), sampler.spent - spent))
            texts.append(text)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    sampler.sample()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = [t1 - t0 - spent for t0, t1, spent in spans]
    ref_times = [t * sampler.speed(t0, t1) for t, (t0, t1, _) in zip(times, spans)]

    digest_checked = 0
    for qid, (q, text) in enumerate(zip(plan, texts)):
        if text is None:
            continue
        problems = workloads.check(q, text)
        want = recorded.get(q.key)
        if want is None and q.kind in ("opside", "pairside"):
            problems.append("no answer digest recorded for this family")
        elif want is not None:
            digest_checked += 1
            if workloads.digest(text) != want:
                problems.append("answer digest differs from the recorded one")
        if problems:
            failures[qid] = "; ".join(problems)

    result = {
        "attempted": len(plan), "failed": len(failures),
        "failures": [f"query {qid} ({plan[qid].key}): {why}"
                     for qid, why in sorted(failures.items())[:5]],
        "query_s": times, "query_ref_s": ref_times, "rss_mb": rss_mb,
        "speed": sampler.speed(), "speed_samples": len(sampler.speeds),
        "cold_cache": cold, "digest_checked": digest_checked,
    }
    if tracer is not None:
        tracer.counts["cli.output_bytes"] = sum(
            len(t.encode()) for q, t in zip(plan, texts)
            if t is not None and q.kind not in ("opside", "pairside"))
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent_metrics()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
