"""Seeded query plans for the three benchmark workloads, the code that answers
one query, and the checks every answer must pass.

A plan is a list of `Query`.  It depends only on the workload, the seed and
the run length, so the same arguments give the same inputs on every commit.
The rates below were measured on a shared 2-vCPU x86-64 VM under
CPython 3.11; they only size the plans and never enter a reported metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass

from finclone import cli, harness
from finclone.core import Carrier, Relation, RelationPair, all_operations, all_pairs

@dataclass(frozen=True)
class Query:
    key: str      # canonical description of the input; indexes answers.json
    kind: str     # "opside" | "pairside" | a CLI command name
    args: tuple


# -- opside-sweep ------------------------------------------------------------

OPSIDE_RATE = 26      # families answered per second at k=2
OPSIDE_N = (1, 2)
OPSIDE_S = (1, 2, 3)


def _op_key(f) -> str:
    return f"op/{f.arity}:" + "".join(map(str, f.table))


def opside_families() -> list[tuple]:
    """The 1,350 families of 1-3 distinct k=2 operations of arity 1-2."""
    ops = [f for n in (1, 2) for f in all_operations(Carrier(2), n)]
    return [fam for size in (1, 2, 3) for fam in itertools.combinations(ops, size)]


def _plan_opside(rng: random.Random, seconds: int) -> list[Query]:
    families = _shuffled(rng, opside_families())
    count = min(len(families), max(1, OPSIDE_RATE * seconds))
    return [opside_query(fam) for fam in families[:count]]


def opside_query(fam: tuple) -> Query:
    return Query("opside:" + ",".join(_op_key(f) for f in fam), "opside", (fam,))


# -- pairside ----------------------------------------------------------------

PAIRSIDE_RATE = 4     # light families per second of run length
PAIRSIDE_S = (1, 2)
_K2 = Carrier(2)
_BIN = {
    name: Relation.from_tuples(_K2, 2, tuples)
    for name, tuples in {
        "leq": [(0, 0), (0, 1), (1, 1)],
        "geq": [(0, 0), (1, 0), (1, 1)],
        "eq": [(0, 0), (1, 1)],
        "nand": [(0, 0), (0, 1), (1, 0)],
        "or": [(0, 1), (1, 0), (1, 1)],
        "neq": [(0, 1), (1, 0)],
    }.items()
}
# nand-to-neq closes to 7,590 pairs at intermediate cap 5 and takes 6-8 s per
# value of s; every run answers it first.
PAIRSIDE_FIXED = RelationPair.of(_BIN["nand"], _BIN["neq"])
# Left out of the plan: leq-to-eq and geq-to-eq take about 15 s per
# value of s each, more than half a run, so a seed that drew one would
# double the run; or-to-neq mirrors the fixed family under 0<->1.
PAIRSIDE_HEAVY = {
    RelationPair.of(_BIN["leq"], _BIN["eq"]),
    RelationPair.of(_BIN["geq"], _BIN["eq"]),
    RelationPair.of(_BIN["or"], _BIN["neq"]),
    PAIRSIDE_FIXED,
}


def _pair_key(p: RelationPair) -> str:
    return f"pair/{p.arity}:rho={p.rho.mask:x},rho'={p.rho_prime.mask:x}"


def pairside_light() -> list[RelationPair]:
    return [p for m in (1, 2) for p in all_pairs(_K2, m) if p not in PAIRSIDE_HEAVY]


def _plan_pairside(rng: random.Random, seconds: int) -> list[Query]:
    light = _shuffled(rng, pairside_light())
    chosen = [PAIRSIDE_FIXED] + light[:min(len(light), max(1, PAIRSIDE_RATE * seconds))]
    return [pairside_query(p) for p in chosen]


def pairside_query(p: RelationPair) -> Query:
    # one query covers both values of s: split by s, the median query sat
    # where the cost distribution is steep and spread 0.33-0.37 over seeds
    return Query("pairside:" + _pair_key(p), "pairside", (p,))


# -- k3-cli ------------------------------------------------------------------

K3_ROUND_SECONDS = 8.5  # two polp, two pol, one invp and one gen-clone at k=3
K3_REL_SIZE = 4         # |rho|: cold polp/pol cost grows with |rho|^2
_K3_TUPLES = [f"{a}{b}" for a in range(3) for b in range(3)]


def _rel_text(name: str, tuples) -> str:
    return f"rel {name}/2 = {{{','.join(tuples)}}}\n"


def _cli_query(argv: list[str], text: str) -> Query:
    return Query("k3:" + " ".join(argv) + ":" + text.replace("\n", ";"), argv[0], (argv, text))


def _polp_query(rng: random.Random, rho: tuple) -> Query:
    rho_p = sorted(rng.sample(rho, K3_REL_SIZE - 1))
    text = "domain 3\n" + _rel_text("r", rho) + _rel_text("rp", rho_p) + "pair q = (r, rp)\n"
    return _cli_query(["polp", "--pairs", "q", "--arity", "2"], text)


def _pol_query(rho: tuple) -> Query:
    return _cli_query(["pol", "--rels", "r", "--arity", "2"], "domain 3\n" + _rel_text("r", rho))


def _plan_k3(rng: random.Random, seconds: int) -> list[Query]:
    # every relation of the run is distinct, so each polp/pol starts cold
    rels = _shuffled(rng, list(itertools.combinations(_K3_TUPLES, K3_REL_SIZE)))
    rounds = min(len(rels) // 4, max(1, round(seconds / K3_ROUND_SECONDS)))
    plan = []
    for r in range(rounds):
        a, b, c, d = rels[4 * r: 4 * r + 4]
        op_text = "domain 3\nop f/2 = " + "".join(str(rng.randrange(3)) for _ in range(9)) + "\n"
        plan += [_polp_query(rng, a), _pol_query(b),
                 _cli_query(["invp", "--ops", "f", "--arity", "2"], op_text),
                 _polp_query(rng, c), _pol_query(d),
                 _cli_query(["gen-clone", "--ops", "f", "--arity", "1"], op_text)]
    return plan


def _shuffled(rng: random.Random, population: list) -> list:
    """A seeded order of the whole population, so that the plan of a shorter
    run is a prefix of the plan of a longer one with the same seed."""
    return rng.sample(population, len(population))


PLANNERS = {"opside-sweep": _plan_opside, "pairside": _plan_pairside, "k3-cli": _plan_k3}


def make_plan(workload: str, seed: int, seconds: int) -> list[Query]:
    return PLANNERS[workload](random.Random(f"{workload}:{seed}"), seconds)


# -- answering and checking --------------------------------------------------

def answer(q: Query) -> str:
    """Run one query and return its canonical answer text, which the digest
    covers.  A CLI query that exits non-zero raises."""
    if q.kind == "opside":
        reports = [harness.check_op_side_characterisation(list(q.args[0]), s, n, 2)
                   for n in OPSIDE_N for s in OPSIDE_S]
        return _reports_text(reports)
    if q.kind == "pairside":
        p = q.args[0]
        reports = [harness.check_pair_side_characterisation([p], s, p.arity, 2)
                   for s in PAIRSIDE_S]
        return _reports_text(reports)
    argv, text = q.args
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--problem", "-", "--json"])
    finally:
        sys.stdin = stdin
    if rc != 0:
        raise RuntimeError(f"finclone {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _reports_text(reports) -> str:
    # runtime_ms varies between runs, so it is left out of the answer
    rows = [[r.name, r.params, r.verdict, r.counterexample, r.details] for r in reports]
    return json.dumps(rows, sort_keys=True)


def check(q: Query, text: str) -> list[str]:
    """Problems an independent check finds in an answer: a theorem verdict
    other than pass, or a CLI answer that breaks a definition."""
    if q.kind in ("opside", "pairside"):
        return [f"{name} s={params['s']}: {verdict}"
                for name, params, verdict, _, _ in json.loads(text) if verdict != "pass"]
    return _check_cli(q.kind, q.args[1], json.loads(text))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _parse_rels(text: str) -> dict[str, set[tuple[int, ...]]]:
    rels = {}
    for line in text.splitlines():
        if line.startswith("rel "):
            name = line.split()[1].split("/")[0]
            items = line.split("{", 1)[1].rstrip("}").split(",")
            rels[name] = {tuple(map(int, t)) for t in items if t}
    return rels


def _tables(ops: list[dict]) -> list[str]:
    return [o["table"] for o in ops]


def _maps_into(table: str, src, dst) -> bool:
    """Binary table over {0,1,2} applied row-wise to every two columns from
    src lands in dst."""
    return all(
        tuple(int(table[3 * x[i] + y[i]]) for i in range(len(x))) in dst
        for x in src for y in src
    )


def _check_cli(kind: str, text: str, obj: dict) -> list[str]:
    """Necessary conditions on a k=3 CLI answer, checked from the definitions
    without calling the library."""
    rels = _parse_rels(text)
    if kind == "polp":
        bad = [t for t in _tables(obj["ops"]) if not _maps_into(t, rels["r"], rels["rp"])]
        return [f"polp returned non-polymorphism {t}" for t in bad[:1]]
    if kind == "pol":
        tables = _tables(obj["ops"])
        bad = [t for t in tables if not _maps_into(t, rels["r"], rels["r"])]
        missing = [p for p in ("000111222", "012012012") if p not in tables]
        return ([f"pol returned non-polymorphism {t}" for t in bad[:1]]
                + [f"pol misses projection {p}" for p in missing])
    f = text.split("op f/2 = ")[1].strip()
    if kind == "invp":
        problems = []
        for p in obj["pairs"]:
            rho = {tuple(map(int, t)) for t in p["rho"]["tuples"]}
            rho_p = {tuple(map(int, t)) for t in p["rho_prime"]["tuples"]}
            if not _maps_into(f, rho, rho_p):
                problems.append(f"invp returned non-invariant pair {p}")
                break
        if not any(p["rho"]["tuples"] == _K3_TUPLES == p["rho_prime"]["tuples"]
                   for p in obj["pairs"]):
            problems.append("invp misses the full pair")
        return problems
    # gen-clone at arity 1: the unary part of a clone is a monoid
    unary = set(_tables(obj["ops"]))
    if "012" not in unary:
        return ["gen-clone misses the identity"]
    for g, h in itertools.product(unary, repeat=2):
        if "".join(g[int(h[x])] for x in range(3)) not in unary:
            return [f"gen-clone not closed under composition: {g} o {h}"]
    return []
