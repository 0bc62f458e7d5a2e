"""Line-oriented front end: parse problem files describing a carrier,
operations, relations and relation pairs, run library computations or checks,
and emit canonical text or JSON.

Family results print in canonical order straight from rows, one printer
per kind: operations as runs (arity, value tables) (`ops_listing`),
relations as (arity, mask) (`rels_listing`) and relation pairs as (arity,
rho, rho') (`pairs_listing`).  `polp`, `pol`, `inv`, `invp`, `gen-semiclone`
and `gen-clone` take their rows from the library functions that the family
wrappers are built on (`polp_tables`, `least_invp`, `invp_pairs`,
`semiclone_tables`, `clone_tables`), so they build no operation, relation,
pair or family object; the other family commands read the rows off their
family's members.  The JSON text is byte for byte what
`json.dumps(obj, indent=2, sort_keys=True)` prints for the objects
{"ops": [{"arity", "table"}]}, {"rels": [{"arity", "tuples"}]} and
{"pairs": [{"arity", "rho", "rho_prime"}]}; the report-shaped outputs of
`check`, `gamma`, `preserves`, `decide-proj` and `superpose` go through
`json.dumps` itself.

A listing prints in chunks of up to `CHUNK` members, each chunk one join:
the value tables of one arity are joined as bytes with the member template
as separator, then translated to digits and decoded in one call each (below
k = 10); a relation's text and JSON are made once per listing, from its set
bits only, and every pair that holds it reuses them.  The whole family is
computed, every charge taken, before `run_command` writes the first chunk,
and it writes each chunk as it is made, so a listing holds its rows and one
chunk of text, never its whole text.

`check` runs on the carrier of `--k` and takes no problem file; every other
command takes its carrier from the problem file and refuses `--k`.  The
problem format and `--seed-tuples` take only the ASCII digits 0-9.

`main` reads argv in one pass over the parser's own actions, positionals
anywhere (`finclone check --k 3 all`).  An argv it cannot settle exactly,
`--help`, `--opt=value`, an abbreviation, a negative number or any error
among them, goes to argparse's `parse_intermixed_args`, which defines the
grammar and writes every help and error text.

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
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import (
    DEFAULT_CAP,
    CapExceeded,
    Carrier,
    DomainError,
    Operation,
    Relation,
    RelationPair,
    bit_indices,
    capped,
    enc,
    pair_rows,
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


def _is_digits(text: str) -> bool:
    """Whether `text` is a string of the ASCII digits 0-9, the only digits
    the problem format and `--seed-tuples` take."""
    return text.isascii() and (text.isdigit() or not text)


def _integer(text: str) -> int | None:
    """`text` as an integer written in ASCII digits, with an optional minus
    sign, or None."""
    digits = text[1:] if text[:1] == "-" else text
    return int(text) if digits and _is_digits(digits) else None


def _tuple_index(text: str, arity: int, k: int, line: int, col: int) -> int:
    """The index of the tuple written `text`, one ASCII digit below k per
    entry (k <= 10)."""
    if text == "eps":
        if arity != 0:
            raise ProblemError(line, col, "'eps' only denotes the empty tuple at arity 0")
        return 0
    if len(text) != arity:
        raise ProblemError(line, col, f"tuple '{text}' does not have arity {arity}")
    digits = "0123456789"[:k]
    if text.strip(digits):
        bad = next(ch for ch in text if ch not in digits)
        raise ProblemError(line, col, f"tuple entry '{bad}' outside carrier of size {k}")
    return int(text, k) if k > 1 and text else 0


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
            k = _integer(rest.strip())
            if k is None:
                raise ProblemError(lineno, col, f"invalid carrier size '{rest.strip()}'")
            if k < 0:
                raise ProblemError(lineno, col, "carrier size must be >= 0")
            if k > 10:
                raise ProblemError(lineno, col, f"carrier size {k} above 10: the format "
                                                "writes one digit per entry")
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
            arity = _integer(arity_text.strip())
            if arity is None:
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
            if len(value) != expected or not _is_digits(value):
                raise ProblemError(
                    lineno, col,
                    f"operation table must be {expected} digits, got '{value}'")
            table = tuple(map(int, value))
            if table and max(table) >= carrier.k:
                raise ProblemError(lineno, col, "table value outside carrier")
            problem.ops[name] = Operation(carrier.k, arity, table)
        elif keyword == "rel":
            if not (value.startswith("{") and value.endswith("}")):
                raise ProblemError(lineno, col, "relation value must be '{ ... }'")
            inner = value[1:-1].strip()
            mask = 0
            for item in inner.split(",") if inner else ():
                mask |= 1 << _tuple_index(item.strip(), arity, carrier.k, lineno, col)
            problem.rels[name] = Relation(carrier.k, arity, mask)
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
    """What a command prints: its text and its JSON text, each as the pieces
    that `run_command` writes, made only as it writes them, and the exit
    code.  Either text ends in a newline."""

    text: Callable[[], Iterable[str]]
    json: Callable[[], Iterable[str]]
    code: int = 0


class Listing(NamedTuple):
    """A family printed member by member, in the order given: its text, and
    the JSON list of its members as it prints under `key`, each as chunks."""

    key: str
    text: Callable[[], Iterator[str]]
    json: Callable[[], Iterator[str]]


# Members per join: a listing holds one chunk of text, and the pieces joined
# into it, at a time.
CHUNK = 1024


def _json_fields(fields: dict[str, Iterable[str]]) -> Iterator[str]:
    """What `json.dumps(obj, indent=2, sort_keys=True)` prints for a
    non-empty object, and a newline, given the JSON text of each value as it
    prints at depth 1."""
    lead = "{\n"
    for key in sorted(fields):
        yield f'{lead}  "{key}": '
        yield from fields[key]
        lead = ",\n"
    yield "\n}\n"


def _json_list(chunks: Iterable[str]) -> Iterator[str]:
    """A list as it prints at depth 1, given its members' JSON text as
    chunks, the members already separated."""
    chunks = iter(chunks)
    first = next(chunks, None)
    if first is None:
        yield "[]"
        return
    yield "[\n    "
    yield first
    yield from chunks
    yield "\n  ]"


class _Memo(dict):
    """{key: make(key)}, each value made when it is first asked for."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _table_chunks(runs: list[tuple[int, Sequence[Sequence[int]]]],
                  member: Callable[[int], tuple[str, str]], between: str) -> Iterator[str]:
    """Runs (arity n, value tables) printed table by table, each table's
    values between the pair `member(n)` = (head, tail) and `between` between
    tables: the tables of a chunk are one join with the member template as
    separator.  Values are below 10, as on every problem file's carrier:
    one byte each, which `_DIGITS` turns into its digit, leaving the
    templates, whose bytes are all 10 (the newline) or above, as they are."""
    lead = ""
    for n, tables in runs:
        head, tail = member(n)
        sep = tail + between + head
        for i in range(0, len(tables), CHUNK):
            chunk = tables[i:i + CHUNK]
            yield lead + head
            yield sep.encode().join(map(bytes, chunk)).translate(_DIGITS).decode()
            yield tail
            lead = between


def ops_listing(k: int, runs: Iterable[tuple[int, Sequence[Sequence[int]]]]) -> Listing:
    """Operations on {0,...,k-1}, k <= 10, given as runs (arity, value
    tables).  A table prints as its values' `str` joined."""
    runs = list(runs)
    return Listing(
        "ops", lambda: _table_chunks(runs, lambda n: (f"op/{n} = ", "\n"), ""),
        lambda: _json_list(_table_chunks(
            runs, lambda n: (f'{{\n      "arity": {n},\n      "table": "', '"\n    }'),
            ",\n    ")))


class _Relations:
    """Text and JSON of relations on {0,...,k-1} given as (arity, mask), each
    made once: a tuple's name once per arity, from the set bits only, so that
    a sparse relation of high arity names only its own tuples; a relation's
    text `text[m, mask]` and its JSON object `json[m, mask]`, closing at
    indent `pad`, once per mask."""

    def __init__(self, k: int, pad: str = ""):
        carrier = Carrier(k)
        self.names = _Memo(lambda m: _Memo(lambda i: format_tuple(carrier.decode(i, m))))
        self.text = _Memo(lambda key: f"rel/{key[0]} = {{{','.join(self.tuples(*key))}}}")
        self.json = _Memo(lambda key: self._json(*key, pad))

    def tuples(self, m: int, mask: int) -> list[str]:
        names = self.names[m]
        return [names[i] for i in bit_indices(mask)]

    def _json(self, m: int, mask: int, pad: str) -> str:
        inner = f'",\n{pad}    "'.join(self.tuples(m, mask))
        tuples = f'[\n{pad}    "{inner}"\n{pad}  ]' if mask else "[]"
        return f'{{\n{pad}  "arity": {m},\n{pad}  "tuples": {tuples}\n{pad}}}'


def _joined(rows: list[tuple], parts: Callable[..., tuple[str, ...]],
            between: str) -> Iterator[str]:
    """`rows` printed in the order given, `between` between members: per
    chunk of rows, one join of the pieces `parts(*row)` of every row."""
    lead = ""
    for i in range(0, len(rows), CHUNK):
        pieces = []
        for row in rows[i:i + CHUNK]:
            pieces.append(lead)
            pieces += parts(*row)
            lead = between
        yield "".join(pieces)


def rels_listing(k: int, rows: Iterable[tuple[int, int]]) -> Listing:
    """Relations on {0,...,k-1} given as (arity, mask) rows."""
    rows = list(rows)
    rels = _Relations(k, "    ")
    return Listing("rels", lambda: _joined(rows, lambda m, x: (rels.text[m, x], "\n"), ""),
                   lambda: _json_list(_joined(rows, lambda m, x: (rels.json[m, x],), ",\n    ")))


def pairs_listing(k: int, rows: Iterable[tuple[int, int, int]]) -> Listing:
    """Relation pairs on {0,...,k-1} given as (arity, rho, rho') rows, the
    components as masks."""
    rows = list(rows)
    rels = _Relations(k, " " * 6)
    text, objects = rels.text, rels.json
    heads = _Memo(lambda m: f"pair/{m} = (")
    json_heads = _Memo(lambda m: f'{{\n      "arity": {m},\n      "rho": ')
    return Listing(
        "pairs", lambda: _joined(
            rows, lambda m, r, s: (heads[m], text[m, r], ", ", text[m, s], ")\n"), ""),
        lambda: _json_list(_joined(
            rows, lambda m, r, s: (json_heads[m], objects[m, r], ',\n      "rho_prime": ',
                                   objects[m, s], "\n    }"), ",\n    ")))


def _output(result: Output | Listing) -> Output:
    """A command's own Output, or a family listing printed under its key."""
    if isinstance(result, Output):
        return result
    return Output(result.text, lambda: _json_fields({result.key: result.json()}))


def _report(lines: Callable[[], list[str]], obj: Callable[[], dict], code: int = 0) -> Output:
    """A report-shaped output, its JSON printed by `json.dumps`."""
    return Output(lambda: [f"{line}\n" for line in lines()],
                  lambda: [json.dumps(obj(), indent=2, sort_keys=True), "\n"], code)


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
    if not _is_digits(text):
        raise DomainError(f"seed tuple '{text}' is neither 'eps' nor a string of digits")
    return tuple(map(int, text))


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
    return _report(lambda: [f"pair/{m} = ({rels.text[m, rho]}, {rels.text[m, rho_prime]})"],
                   lambda: {"arity": m, "rho": {"arity": m, "tuples": rels.tuples(m, rho)},
                            "rho_prime": {"arity": m, "tuples": rels.tuples(m, rho_prime)}})


def _rpclone(args, problem, k) -> Output:
    result = rpclone_generate(_named(problem, "pairs", args.pairs), args.max_arity,
                              args.intermediate_cap, k)
    changed = result.slice_changed_at_last_cap
    pairs = pairs_listing(k, pair_rows(result.pairs, k))
    return Output(lambda: chain(pairs.text(), [
        f"intermediate-cap: {result.intermediate_cap}\n",
        f"slice-changed-at-last-cap: {'true' if changed else 'false'}\n",
    ]), lambda: _json_fields({"intermediate_cap": [json.dumps(result.intermediate_cap)],
                              "pairs": pairs.json(),
                              "slice_changed_at_last_cap": [json.dumps(changed)]}))


def _tables(k: int, n: int, tables: Sequence[tuple[int, ...]]) -> Listing:
    """n-ary operations given as value tables, in the order given."""
    return ops_listing(k, [(n, tables)])


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
        k, pair_rows(sloc_pairs(_named(p, "pairs", a.pairs), a.s, a.arity, k), k))),
    "enc": ((), lambda a, p, k: pairs_listing(k, pair_rows(enc(_named(p, "pairs", a.pairs)), k))),
    "gamma": (("ksize",), _gamma),
    "superpose": (("spec",), _superpose),
    "rpclone": (("max_arity",), _rpclone),
    "decide-proj": ((), lambda a, p, k: _truth(
        "decide_proj", decide_projections(_named(p, "ops", a.ops), k))),
    "check": ((), _check),
}


def _value(action: argparse.Action, token: str):
    """`token` as `action` stores it, through the action's `type` and
    `choices`, or None where argparse would refuse it."""
    try:
        value = token if action.type is None else action.type(token)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return value if action.choices is None or value in action.choices else None


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are input errors (exit 3), not
    argparse's exit 2, which is the refusal code.

    `read` reads a well-formed argv in one pass over the actions that
    `build_parser` keeps: its `positionals` in order, and its `options` by
    long option string.  Every other argv goes to `parse_intermixed_args`,
    which defines the grammar and alone prints help and raises errors."""

    positionals: list[argparse.Action]
    options: dict[str, argparse.Action]

    def error(self, message: str):
        raise DomainError(message)

    def read(self, argv: Sequence[str]) -> argparse.Namespace:
        args = self._read(argv)
        return self.parse_intermixed_args(argv) if args is None else args

    def _read(self, argv: Sequence[str]) -> argparse.Namespace | None:
        """The namespace of `argv` where each token is an exact long option,
        a value of the option before it, or a positional, and the values
        pass their actions; None otherwise.  A word is any token that does
        not start with '-', and '-' itself, as argparse reads them."""
        args = {a.dest: a.default for a in chain(self.positionals, self.options.values())}
        positionals = iter(self.positionals)
        option = None  # the option whose value(s) the next words are
        for token in argv:
            if token[:1] == "-" and token != "-":
                if option is not None and option.nargs is None:
                    return None
                option = self.options.get(token)
                if option is None:
                    return None
                if option.nargs == "*":
                    args[option.dest] = []
                elif option.nargs == 0:
                    args[option.dest], option = option.const, None
                elif option.nargs is not None:
                    return None
                continue
            taker = next(positionals, None) if option is None else option
            value = None if taker is None else _value(taker, token)
            if value is None:
                return None
            if taker.nargs == "*":
                args[taker.dest].append(value)
            else:
                args[taker.dest], option = value, None
        if option is not None and option.nargs is None or any(a.required for a in positionals):
            return None
        namespace = argparse.Namespace()
        vars(namespace).update(args)  # a third of the time of Namespace(**args)
        return namespace


def build_parser() -> _Parser:
    """The argument parser.  Its list defaults are tuples, so no call of
    `main` can change what a later call reads for an omitted option.  Its
    usage text is formatted once, here, where `parse_intermixed_args` would
    format it on every call."""
    parser = _Parser(
        prog="finclone",
        description="Computations with finitary operations and relation pairs "
                    "on small finite carriers.")
    add = parser.add_argument
    parser.positionals = [
        add("command", choices=list(COMMANDS)),
        add("name", nargs="?", default=None, help="check name for the 'check' command"),
    ]
    options = [
        add("--problem", help="path to a problem file ('-' for stdin)"),
        add("--ops", nargs="*", default=(), help="operation names"),
        add("--rels", nargs="*", default=(), help="relation names"),
        add("--pairs", nargs="*", default=(), help="pair names"),
        add("--arity", type=int, default=None),
        add("--max-arity", type=int, default=None),
        add("--s", type=int, default=None),
        add("--intermediate-cap", type=int, default=None),
        add("--seed", type=int, default=0),
        add("--caps", type=int, default=DEFAULT_CAP, help="complexity cap before refusing"),
        add("--k", type=int, default=None, help="carrier size for the 'check' command"),
        add("--json", action="store_true"),
        add("--spec", default=None,
            help="superposition spec as JSON: "
                 '{"mu":..,"m":..,"beta":[..],"alphas":[[..],..]}'),
        add("--seed-tuples", nargs="*", default=(), help="seed tuples for the gamma command"),
        add("--ksize", type=int, default=None, help="index-set size for the gamma command"),
    ]
    parser.options = {action.option_strings[0]: action for action in options}
    parser.usage = parser.format_usage()[7:]
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
    sys.stdout.writelines(out.json() if args.json else out.text())
    sys.stdout.flush()
    return out.code


def main(argv: list[str] | None = None) -> int:
    try:
        return run_command(PARSER.read(sys.argv[1:] if argv is None else argv))
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
