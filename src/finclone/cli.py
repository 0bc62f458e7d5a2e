"""Line-oriented front end: parse problem files describing a carrier,
operations, relations and relation pairs, run library computations or checks,
and emit canonical text or JSON.

Exit codes: 0 success/pass, 1 check failed, 2 refused by the complexity cap
`--caps` (a `core.capped` scope around the command), 3 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

from .core import (
    DEFAULT_CAP,
    CapExceeded,
    Carrier,
    DomainError,
    OpFamily,
    Operation,
    PairFamily,
    Relation,
    RelationPair,
    capped,
    enc,
)
from .generation import (
    clone_nary_part,
    decide_projections,
    gamma_fixpoint,
    semiclone_nary_part,
    semigroup_generate,
)
from .preserve import inv, invp, pol, polp, preserves, sloc_ops
from .relpairs import (
    SuperpositionSpec,
    general_superposition,
    rpclone_generate,
    sloc_pairs,
)
from . import harness


class ProblemError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


@dataclass
class Problem:
    carrier: Carrier
    ops: dict[str, Operation] = field(default_factory=dict)
    rels: dict[str, Relation] = field(default_factory=dict)
    pairs: dict[str, RelationPair] = field(default_factory=dict)


def _parse_tuple(text: str, arity: int, k: int, line: int, col: int) -> tuple[int, ...]:
    if text == "eps":
        if arity != 0:
            raise ProblemError(line, col, "'eps' only denotes the empty tuple at arity 0")
        return ()
    if len(text) != arity:
        raise ProblemError(line, col, f"tuple '{text}' does not have arity {arity}")
    out = []
    for ch in text:
        if not ch.isdecimal() or int(ch) >= k:
            raise ProblemError(line, col, f"tuple entry '{ch}' outside carrier of size {k}")
        out.append(int(ch))
    return tuple(out)


def parse_problem(text: str) -> Problem:
    carrier: Carrier | None = None
    problem: Problem | None = None
    names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        keyword = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        col = raw.index(keyword) + 1
        if keyword == "domain":
            if carrier is not None:
                raise ProblemError(lineno, col, "duplicate 'domain' line")
            try:
                k = int(rest.strip())
            except ValueError:
                raise ProblemError(lineno, col, f"invalid carrier size '{rest.strip()}'")
            if k < 0:
                raise ProblemError(lineno, col, "carrier size must be >= 0")
            carrier = Carrier(k)
            problem = Problem(carrier)
            continue
        if carrier is None or problem is None:
            raise ProblemError(lineno, col, "'domain <k>' must come first")
        if "=" not in rest:
            raise ProblemError(lineno, col, "expected '=' in declaration")
        head, value = rest.split("=", 1)
        head = head.strip()
        value = value.strip()
        if keyword in ("op", "rel"):
            if "/" not in head:
                raise ProblemError(lineno, col, f"expected '<name>/<arity>', got '{head}'")
            name, arity_text = head.rsplit("/", 1)
            name = name.strip()
            try:
                arity = int(arity_text)
            except ValueError:
                raise ProblemError(lineno, col, f"invalid arity '{arity_text}'")
            if arity < 0:
                raise ProblemError(lineno, col, "arity must be >= 0")
        else:
            name = head
            arity = -1
        if not name or not name.replace("_", "").replace("-", "").isalnum():
            raise ProblemError(lineno, col, f"invalid name '{name}'")
        if name in names:
            raise ProblemError(lineno, col, f"duplicate name '{name}'")
        if keyword == "op":
            expected = carrier.k ** arity
            if len(value) != expected or not all(c.isdecimal() for c in value):
                raise ProblemError(
                    lineno, col,
                    f"operation table must be {expected} digits, got '{value}'")
            table = tuple(int(c) for c in value)
            if any(v >= carrier.k for v in table):
                raise ProblemError(lineno, col, "table value outside carrier")
            problem.ops[name] = Operation(carrier.k, arity, table)
        elif keyword == "rel":
            if not (value.startswith("{") and value.endswith("}")):
                raise ProblemError(lineno, col, "relation value must be '{ ... }'")
            inner = value[1:-1].strip()
            tuples = []
            if inner:
                for item in inner.split(","):
                    tuples.append(_parse_tuple(item.strip(), arity, carrier.k, lineno, col))
            try:
                problem.rels[name] = Relation.from_tuples(carrier, arity, tuples)
            except DomainError as e:
                raise ProblemError(lineno, col, str(e))
        elif keyword == "pair":
            if not (value.startswith("(") and value.endswith(")")):
                raise ProblemError(lineno, col, "pair value must be '(<rel>, <rel>)'")
            inner = value[1:-1]
            pieces = [x.strip() for x in inner.split(",")]
            if len(pieces) != 2:
                raise ProblemError(lineno, col, "pair value must name exactly two relations")
            for piece in pieces:
                if piece not in problem.rels:
                    raise ProblemError(lineno, col, f"unknown relation '{piece}'")
            rho, rho_prime = problem.rels[pieces[0]], problem.rels[pieces[1]]
            try:
                problem.pairs[name] = RelationPair.of(rho, rho_prime)
            except DomainError as e:
                raise ProblemError(lineno, col, str(e))
        else:
            raise ProblemError(lineno, col, f"unknown keyword '{keyword}'")
        names.add(name)
    if problem is None:
        raise ProblemError(1, 1, "missing 'domain <k>' line")
    return problem


def format_tuple(t: tuple[int, ...]) -> str:
    return "eps" if not t else "".join(str(x) for x in t)


def format_op(f: Operation) -> str:
    return f"op/{f.arity} = " + "".join(str(v) for v in f.table)


def format_rel(r: Relation) -> str:
    items = [format_tuple(t) for t in r.tuples()]
    return f"rel/{r.arity} = {{" + ",".join(items) + "}"


def format_pair(p: RelationPair) -> str:
    return f"pair/{p.arity} = (" + format_rel(p.rho) + ", " + format_rel(p.rho_prime) + ")"


def op_to_obj(f: Operation) -> dict:
    return {"arity": f.arity, "table": "".join(str(v) for v in f.table)}


def rel_to_obj(r: Relation) -> dict:
    return {"arity": r.arity, "tuples": [format_tuple(t) for t in r.tuples()]}


def pair_to_obj(p: RelationPair) -> dict:
    return {"arity": p.arity, "rho": rel_to_obj(p.rho), "rho_prime": rel_to_obj(p.rho_prime)}


def _named(problem: Problem, kind: str, names: list[str]):
    table = {"ops": problem.ops, "rels": problem.rels, "pairs": problem.pairs}[kind]
    out = []
    for n in names:
        if n not in table:
            raise DomainError(f"unknown {kind[:-1]} name '{n}'")
        out.append(table[n])
    return out


class Output(NamedTuple):
    """What a command prints: its text lines and its JSON object, each built
    only when `run_command` prints it, and the exit code."""

    lines: Callable[[], list[str]]
    obj: Callable[[], dict]
    code: int = 0


def _output(result) -> Output:
    """A command's own Output, or a family result printed by its type:
    operations, relation pairs, or a list of relations."""
    if isinstance(result, Output):
        return result
    if isinstance(result, OpFamily):
        return Output(lambda: [format_op(f) for f in result],
                      lambda: {"ops": [op_to_obj(f) for f in result]})
    if isinstance(result, PairFamily):
        return Output(lambda: [format_pair(p) for p in result],
                      lambda: {"pairs": [pair_to_obj(p) for p in result]})
    return Output(lambda: [format_rel(r) for r in result],
                  lambda: {"rels": [rel_to_obj(r) for r in result]})


def _truth(key: str, value: bool) -> Output:
    return Output(lambda: ["true" if value else "false"], lambda: {key: value})


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


def _preserves(args, problem, k) -> Output:
    _require(len(args.ops) == 1 and len(args.pairs) == 1,
             "preserves needs exactly one --ops name and one --pairs name")
    f = _named(problem, "ops", args.ops)[0]
    return _truth("preserves", preserves(f, _named(problem, "pairs", args.pairs)[0]))


def _seed_tuple(text: str) -> tuple[int, ...]:
    if text == "eps":
        return ()
    try:
        return tuple(int(c) for c in text)
    except ValueError:
        raise DomainError(f"seed tuple '{text}' is neither 'eps' nor a string of digits")


def _gamma(args, problem, k) -> Output:
    ops = _named(problem, "ops", args.ops)
    seed = [_seed_tuple(t) for t in args.seed_tuples]
    result = gamma_fixpoint(ops, args.ksize, seed, k)
    r_sorted = [format_tuple(t) for t in sorted(result.R)]
    s_sorted = [format_tuple(t) for t in sorted(result.S)]
    return Output(lambda: (["R:"] + ["  " + t for t in r_sorted] + ["S:"]
                           + ["  " + t for t in s_sorted] + [f"steps: {result.steps}"]),
                  lambda: {"R": r_sorted, "S": s_sorted, "steps": result.steps})


def _superpose(args, problem, k) -> Output:
    try:
        raw = json.loads(args.spec)
        spec = SuperpositionSpec(
            raw["mu"], raw["m"], tuple(raw["beta"]),
            tuple(tuple(a) for a in raw["alphas"]))
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        raise DomainError(f"invalid superposition spec: {e}")
    result = general_superposition(spec, _named(problem, "pairs", args.pairs), k)
    return Output(lambda: [format_pair(result)], lambda: pair_to_obj(result))


def _rpclone(args, problem, k) -> Output:
    result = rpclone_generate(_named(problem, "pairs", args.pairs), args.max_arity,
                              args.intermediate_cap, k)
    changed = result.slice_changed_at_last_cap
    pairs = _output(result.pairs)
    return Output(lambda: pairs.lines() + [
        f"intermediate-cap: {result.intermediate_cap}",
        f"slice-changed-at-last-cap: {'true' if changed else 'false'}",
    ], lambda: {**pairs.obj(), "intermediate_cap": result.intermediate_cap,
                "slice_changed_at_last_cap": changed})


def _check(args, problem, k) -> Output:
    _require(args.name is not None, "check requires a name or 'all'")
    _require(args.name == "all" or args.name in dict(harness.CHECKS),
             f"unknown check '{args.name}'")
    reports = harness.run_checks(args.name, k if k is not None else 2, args.seed)

    def lines() -> list[str]:
        out = []
        for r in reports:
            out.append(f"{r.name}: {r.verdict} ({r.runtime_ms} ms)")
            if r.verdict == "fail":
                out.append(f"  counterexample: {json.dumps(r.counterexample, sort_keys=True)}")
        return out

    verdicts = {r.verdict for r in reports}
    code = 1 if "fail" in verdicts else 2 if "refused" in verdicts else 0
    return Output(lines, lambda: {"reports": [r.to_dict() for r in reports]}, code)


# command -> (required arguments, run(args, problem, k)); argparse lists
# the commands in this order.  A run returns an Output or a family.
COMMANDS = {
    "preserves": ((), _preserves),
    "polp": (("arity",), lambda a, p, k: polp(_named(p, "pairs", a.pairs), a.arity, k)),
    "invp": (("arity",), lambda a, p, k: invp(_named(p, "ops", a.ops), a.arity, k)),
    "pol": (("arity",), lambda a, p, k: pol(_named(p, "rels", a.rels), a.arity, k)),
    "inv": (("arity",), lambda a, p, k: inv(_named(p, "ops", a.ops), a.arity, k)),
    "gen-semiclone": (("arity",), lambda a, p, k: semiclone_nary_part(
        _named(p, "ops", a.ops), a.arity, k)),
    "gen-clone": (("arity",), lambda a, p, k: clone_nary_part(_named(p, "ops", a.ops), a.arity, k)),
    "gen-semigroup": ((), lambda a, p, k: semigroup_generate(_named(p, "ops", a.ops))),
    "sloc": (("arity", "s"), lambda a, p, k: sloc_ops(_named(p, "ops", a.ops), a.s, a.arity, k)),
    "sloc-pairs": (("arity", "s"), lambda a, p, k: sloc_pairs(
        _named(p, "pairs", a.pairs), a.s, a.arity, k)),
    "enc": ((), lambda a, p, k: enc(_named(p, "pairs", a.pairs))),
    "gamma": (("ksize",), _gamma),
    "superpose": (("spec",), _superpose),
    "rpclone": (("max_arity",), _rpclone),
    "decide-proj": ((), lambda a, p, k: _truth(
        "decide_proj", decide_projections(_named(p, "ops", a.ops), k))),
    "check": ((), _check),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finclone",
        description="Computations with finitary operations and relation pairs "
                    "on small finite carriers.")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("name", nargs="?", default=None,
                        help="check name for the 'check' command")
    parser.add_argument("--problem", help="path to a problem file ('-' for stdin)")
    parser.add_argument("--ops", nargs="*", default=[], help="operation names")
    parser.add_argument("--rels", nargs="*", default=[], help="relation names")
    parser.add_argument("--pairs", nargs="*", default=[], help="pair names")
    parser.add_argument("--arity", type=int, default=None)
    parser.add_argument("--max-arity", type=int, default=None)
    parser.add_argument("--s", type=int, default=None)
    parser.add_argument("--intermediate-cap", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--caps", type=int, default=DEFAULT_CAP,
                        help="complexity cap before refusing")
    parser.add_argument("--k", type=int, default=None,
                        help="carrier size when no problem file is given")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--spec", default=None,
                        help="superposition spec as JSON: "
                             '{"mu":..,"m":..,"beta":[..],"alphas":[[..],..]}')
    parser.add_argument("--seed-tuples", nargs="*", default=[],
                        help="seed tuples for the gamma command")
    parser.add_argument("--ksize", type=int, default=None,
                        help="index-set size for the gamma command")
    return parser


def _read_problem(path: str) -> Problem:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise DomainError(f"problem file is not valid UTF-8: {e}")
    return parse_problem(text)


def run_command(args) -> int:
    required, run = COMMANDS[args.command]
    problem = _read_problem(args.problem) if args.problem else None
    if args.command != "check":
        _require(problem is not None, "a problem file is required (--problem)")
    flags = " and ".join("--" + name.replace("_", "-") for name in required)
    _require(all(getattr(args, name) is not None for name in required),
             f"{flags} {'is' if len(required) == 1 else 'are'} required")
    with capped(args.caps):
        out = _output(run(args, problem, problem.carrier.k if problem else args.k))
    if args.json:
        print(json.dumps(out.obj(), indent=2, sort_keys=True))
    else:
        for line in out.lines():
            print(line)
    return out.code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run_command(args)
    except (ProblemError, DomainError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 3
    except CapExceeded as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
