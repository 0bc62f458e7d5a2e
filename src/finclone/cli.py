"""Line-oriented front end: parse problem files describing a carrier,
operations, relations and relation pairs, run library computations or checks,
and emit canonical text or JSON.

Family results print in canonical order straight from rows, one printer
per kind: operations as (arity, value table) (`ops_listing`), relations as
(arity, mask) (`rels_listing`) and relation pairs as (arity, rho, rho')
(`pairs_listing`).  `polp`, `pol`, `inv`, `invp`, `gen-semiclone` and
`gen-clone` take their rows from the library functions that the family
wrappers are built on (`polp_tables`, `least_invp`, `invp_pairs`,
`semiclone_tables`, `clone_tables`), so they build no operation, relation,
pair or family object; the other family commands read the rows off their
family's members.  A relation's tuples are named from its set bits only.
The JSON text is byte for byte what
`json.dumps(obj, indent=2, sort_keys=True)` prints for the objects
{"ops": [{"arity", "table"}]}, {"rels": [{"arity", "tuples"}]} and
{"pairs": [{"arity", "rho", "rho_prime"}]}, written from per-member
templates; the report-shaped outputs of `check`, `gamma`, `preserves`,
`decide-proj` and `superpose` go through `json.dumps` itself.

`check` runs on the carrier of `--k` and takes no problem file; every other
command takes its carrier from the problem file and refuses `--k`.

Exit codes: 0 success/pass, 1 check failed, 2 refused by the complexity cap
`--caps` (a `core.capped` scope around the command), 3 input error: a bad
argument, or a problem file that is malformed or cannot be read.  A reader
that closes stdout early (`finclone ... | head -1`) ends the command
quietly with exit 141, as a shell reports a process that SIGPIPE ended.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import (
    DEFAULT_CAP,
    CapExceeded,
    Carrier,
    DomainError,
    Operation,
    PairFamily,
    Relation,
    RelationPair,
    bit_indices,
    capped,
    enc,
)
from .generation import (
    clone_tables,
    decide_projections,
    gamma_fixpoint,
    semiclone_tables,
    semigroup_tables,
)
from .preserve import (
    arity_tables,
    invp_pairs,
    least_invp,
    polp_tables,
    preserves,
    sloc_tables,
)
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


def _named(problem: Problem, kind: str, names: Sequence[str]):
    table = {"ops": problem.ops, "rels": problem.rels, "pairs": problem.pairs}[kind]
    out = []
    for n in names:
        if n not in table:
            raise DomainError(f"unknown {kind[:-1]} name '{n}'")
        out.append(table[n])
    return out


class Output(NamedTuple):
    """What a command prints: its text lines and its JSON text, each built
    only when `run_command` prints it, and the exit code."""

    lines: Callable[[], list[str]]
    json: Callable[[], str]
    code: int = 0


class Listing(NamedTuple):
    """A family printed member by member, in the order given: each member's
    text line, and its JSON object as a member of the list under `key`."""

    key: str
    lines: Callable[[], list[str]]
    items: Callable[[], list[str]]


# What `json.dumps(obj, indent=2, sort_keys=True)` prints for an object or a
# list whose closing bracket is indented by `pad`, given the JSON text of
# each value or member as it prints at that depth.
def _json_object(fields: dict[str, str], pad: str = "") -> str:
    inner = pad + "  "
    return ("{\n" + ",\n".join(f'{inner}"{key}": {fields[key]}' for key in sorted(fields))
            + "\n" + pad + "}")


def _json_array(items: list[str], pad: str) -> str:
    inner = pad + "  "
    return "[\n" + ",\n".join(inner + x for x in items) + "\n" + pad + "]" if items else "[]"


_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def ops_listing(k: int, rows: Iterable[tuple[int, Sequence[int]]]) -> Listing:
    """Operations on {0,...,k-1} given as (arity, value table) rows.  A table
    prints as its values' `str` joined; below k = 10 that is one
    `bytes.translate`."""
    if k <= 10:
        rows = [(n, bytes(t).translate(_DIGITS).decode()) for n, t in rows]
    else:
        rows = [(n, "".join(map(str, t))) for n, t in rows]
    return Listing(
        "ops", lambda: [f"op/{n} = {s}" for n, s in rows],
        lambda: [f'{{\n      "arity": {n},\n      "table": "{s}"\n    }}' for n, s in rows])


class _TupleNames(dict):
    """{index: `format_tuple` of the m-tuple over {0,...,k-1} it encodes},
    each name made when it is first asked for, so that a sparse relation of
    high arity names only its own tuples."""

    def __init__(self, k: int, m: int):
        super().__init__()
        self.carrier, self.m = Carrier(k), m

    def __missing__(self, index: int) -> str:
        name = self[index] = format_tuple(self.carrier.decode(index, self.m))
        return name


class _Relations:
    """Text and JSON of relations on {0,...,k-1} given as (arity, mask); each
    tuple's name is made once per arity."""

    def __init__(self, k: int):
        self.k = k
        self.names: dict[int, _TupleNames] = {}

    def tuples(self, m: int, mask: int) -> list[str]:
        names = self.names.get(m)
        if names is None:
            names = self.names[m] = _TupleNames(self.k, m)
        return [names[i] for i in bit_indices(mask)]

    def text(self, m: int, mask: int) -> str:
        return f"rel/{m} = {{{','.join(self.tuples(m, mask))}}}"

    def json(self, m: int, mask: int, pad: str) -> str:
        """The relation's JSON object, closing at indent `pad`."""
        tuples = _json_array([f'"{t}"' for t in self.tuples(m, mask)], pad + "  ")
        return _json_object({"arity": str(m), "tuples": tuples}, pad)


def rels_listing(k: int, rows: Iterable[tuple[int, int]]) -> Listing:
    """Relations on {0,...,k-1} given as (arity, mask) rows."""
    rows = list(rows)
    rels = _Relations(k)
    return Listing("rels", lambda: [rels.text(m, x) for m, x in rows],
                   lambda: [rels.json(m, x, "    ") for m, x in rows])


def pairs_listing(k: int, rows: Iterable[tuple[int, int, int]]) -> Listing:
    """Relation pairs on {0,...,k-1} given as (arity, rho, rho') rows, the
    components as masks."""
    rows = list(rows)
    rels = _Relations(k)
    pad = " " * 6
    return Listing(
        "pairs", lambda: [f"pair/{m} = ({rels.text(m, r)}, {rels.text(m, s)})" for m, r, s in rows],
        lambda: [f'{{\n      "arity": {m},\n      "rho": {rels.json(m, r, pad)},\n'
                 f'      "rho_prime": {rels.json(m, s, pad)}\n    }}' for m, r, s in rows])


def _pair_rows(family: PairFamily) -> Iterable[tuple[int, int, int]]:
    return ((p.arity, p.rho.mask, p.rho_prime.mask) for p in family)


def _output(result: Output | Listing) -> Output:
    """A command's own Output, or a family listing printed under its key."""
    if isinstance(result, Output):
        return result
    return Output(result.lines,
                  lambda: _json_object({result.key: _json_array(result.items(), "  ")}))


def _report(lines: Callable[[], list[str]], obj: Callable[[], dict], code: int = 0) -> Output:
    """A report-shaped output, its JSON printed by `json.dumps`."""
    return Output(lines, lambda: json.dumps(obj(), indent=2, sort_keys=True), code)


def _truth(key: str, value: bool) -> Output:
    return _report(lambda: ["true" if value else "false"], lambda: {key: value})


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
    return _report(lambda: (["R:"] + ["  " + t for t in r_sorted] + ["S:"]
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
    p = general_superposition(spec, _named(problem, "pairs", args.pairs), k)
    rels = _Relations(k)
    m, rho, rho_prime = p.arity, p.rho.mask, p.rho_prime.mask
    return _report(lambda: [f"pair/{m} = ({rels.text(m, rho)}, {rels.text(m, rho_prime)})"],
                   lambda: {"arity": m, "rho": {"arity": m, "tuples": rels.tuples(m, rho)},
                            "rho_prime": {"arity": m, "tuples": rels.tuples(m, rho_prime)}})


def _rpclone(args, problem, k) -> Output:
    result = rpclone_generate(_named(problem, "pairs", args.pairs), args.max_arity,
                              args.intermediate_cap, k)
    changed = result.slice_changed_at_last_cap
    pairs = pairs_listing(k, _pair_rows(result.pairs))
    return Output(lambda: pairs.lines() + [
        f"intermediate-cap: {result.intermediate_cap}",
        f"slice-changed-at-last-cap: {'true' if changed else 'false'}",
    ], lambda: _json_object({"intermediate_cap": json.dumps(result.intermediate_cap),
                             "pairs": _json_array(pairs.items(), "  "),
                             "slice_changed_at_last_cap": json.dumps(changed)}))


def _tables(k: int, n: int, tables: Iterable[tuple[int, ...]]) -> Listing:
    """n-ary operations given as value tables, in the order given."""
    return ops_listing(k, ((n, t) for t in tables))


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
    return _report(lines, lambda: {"reports": [r.to_dict() for r in reports]}, code)


# command -> (required arguments, run(args, problem, k)); argparse lists
# the commands in this order.  A run returns an Output or a Listing.
COMMANDS = {
    "preserves": ((), _preserves),
    "polp": (("arity",), lambda a, p, k: _tables(
        k, a.arity, polp_tables(_named(p, "pairs", a.pairs), a.arity, k))),
    "invp": (("arity",), lambda a, p, k: pairs_listing(
        k, ((a.arity, rho, rho_prime)
            for rho, rho_prime in invp_pairs(_named(p, "ops", a.ops), a.arity, k)))),
    "pol": (("arity",), lambda a, p, k: _tables(k, a.arity, polp_tables(
        map(RelationPair.identical, _named(p, "rels", a.rels)), a.arity, k))),
    "inv": (("arity",), lambda a, p, k: rels_listing(
        k, ((a.arity, rho) for rho in least_invp(_named(p, "ops", a.ops), a.arity, k)))),
    "gen-semiclone": (("arity",), lambda a, p, k: _tables(
        k, a.arity, sorted(semiclone_tables(_named(p, "ops", a.ops), a.arity, k)))),
    "gen-clone": (("arity",), lambda a, p, k: _tables(
        k, a.arity, sorted(clone_tables(_named(p, "ops", a.ops), a.arity, k)))),
    "gen-semigroup": ((), lambda a, p, k: _tables(
        k, 1, sorted(semigroup_tables(_named(p, "ops", a.ops), k)))),
    "sloc": (("arity", "s"), lambda a, p, k: _tables(k, a.arity, sloc_tables(
        arity_tables(_named(p, "ops", a.ops), a.arity, k), a.s, a.arity, k))),
    "sloc-pairs": (("arity", "s"), lambda a, p, k: pairs_listing(
        k, _pair_rows(sloc_pairs(_named(p, "pairs", a.pairs), a.s, a.arity, k)))),
    "enc": ((), lambda a, p, k: pairs_listing(k, _pair_rows(enc(_named(p, "pairs", a.pairs))))),
    "gamma": (("ksize",), _gamma),
    "superpose": (("spec",), _superpose),
    "rpclone": (("max_arity",), _rpclone),
    "decide-proj": ((), lambda a, p, k: _truth(
        "decide_proj", decide_projections(_named(p, "ops", a.ops), k))),
    "check": ((), _check),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser.  Its list defaults are tuples, so no call of
    `main` can change what a later call reads for an omitted option."""
    parser = argparse.ArgumentParser(
        prog="finclone",
        description="Computations with finitary operations and relation pairs "
                    "on small finite carriers.")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("name", nargs="?", default=None,
                        help="check name for the 'check' command")
    parser.add_argument("--problem", help="path to a problem file ('-' for stdin)")
    parser.add_argument("--ops", nargs="*", default=(), help="operation names")
    parser.add_argument("--rels", nargs="*", default=(), help="relation names")
    parser.add_argument("--pairs", nargs="*", default=(), help="pair names")
    parser.add_argument("--arity", type=int, default=None)
    parser.add_argument("--max-arity", type=int, default=None)
    parser.add_argument("--s", type=int, default=None)
    parser.add_argument("--intermediate-cap", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--caps", type=int, default=DEFAULT_CAP,
                        help="complexity cap before refusing")
    parser.add_argument("--k", type=int, default=None,
                        help="carrier size for the 'check' command")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--spec", default=None,
                        help="superposition spec as JSON: "
                             '{"mu":..,"m":..,"beta":[..],"alphas":[[..],..]}')
    parser.add_argument("--seed-tuples", nargs="*", default=(),
                        help="seed tuples for the gamma command")
    parser.add_argument("--ksize", type=int, default=None,
                        help="index-set size for the gamma command")
    return parser


PARSER = build_parser()


def _read_problem(path: str) -> Problem:
    """The problem of the file at `path`, or of stdin for '-'.  A file that
    cannot be read is an input error."""
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise DomainError(f"problem file is not valid UTF-8: {e}")
    except OSError as e:
        raise DomainError(str(e))
    return parse_problem(text)


def run_command(args) -> int:
    required, run = COMMANDS[args.command]
    if args.command == "check":
        _require(args.problem is None, "check takes no problem file (--problem)")
        problem, k = None, args.k
    else:
        _require(args.k is None, "--k only applies to check; a problem file gives the carrier")
        _require(bool(args.problem), "a problem file is required (--problem)")
        problem = _read_problem(args.problem)
        k = problem.carrier.k
    flags = " and ".join("--" + name.replace("_", "-") for name in required)
    _require(all(getattr(args, name) is not None for name in required),
             f"{flags} {'is' if len(required) == 1 else 'are'} required")
    with capped(args.caps):
        out = _output(run(args, problem, k))
    sys.stdout.write(out.json() + "\n" if args.json else "".join(f"{line}\n" for line in out.lines()))
    sys.stdout.flush()
    return out.code


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return run_command(args)
    except (ProblemError, DomainError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 3
    except CapExceeded as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # at exit finds no pipe either (the idiom of Python's `signal`
        # docs), and exit as a shell reports a process that SIGPIPE ended
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
