"""Record the answer digests that benchmark runs compare against.

    PYTHONPATH=src python3 perfbench/record.py

opside-sweep and pairside draw from small fixed populations, so every family
either can draw is recorded and the check holds for any seed.  k3-cli inputs
are drawn from a large space, so the plans of seeds 0-15 at the run length
in BENCHMARK.json are recorded; a shorter run's plan is a prefix of those.
Run this only on a commit whose answers are trusted: it overwrites
answers.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
K3_SEEDS = range(16)
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def main() -> int:
    queries = [workloads.opside_query(fam) for fam in workloads.opside_families()]
    queries += [workloads.pairside_query(p)
                for p in [workloads.PAIRSIDE_FIXED] + workloads.pairside_light()]
    for seed in K3_SEEDS:
        queries += workloads.make_plan("k3-cli", seed, RUN_SECONDS)
    recorded = {}
    for i, q in enumerate(queries):
        if q.key in recorded:
            continue
        text = workloads.answer(q)
        problems = workloads.check(q, text)
        if problems:
            print(f"refusing to record {q.key}: {problems}", file=sys.stderr)
            return 1
        recorded[q.key] = workloads.digest(text)
        print(f"{i + 1}/{len(queries)} {q.key[:60]}", file=sys.stderr, flush=True)
    (HERE / "answers.json").write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
