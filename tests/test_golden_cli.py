"""Golden CLI outputs.

Each case runs `finclone` on one of the problems below, once as text and once
with `--json`, and compares stdout byte for byte with
`tests/golden/<case>.txt` and `tests/golden/<case>.json`.  Check reports
carry their run time, so `(N ms)` and `"runtime_ms": N` are normalised on
both sides.  The files were recorded from the CLI before `gamma_fixpoint`
became a semi-naive engine (the generation commands) and before the command
and check tables replaced the CLI's if-chain (every other command), and the
cases on the wide problems, whose tables need more than one-byte lanes, before
the matrix-row engine moved to byte lanes, and the cases on the `k2n` problem
(empty families, nullary relations and pairs) before the CLI printed
families from value tables and masks; a refactor must leave them
unchanged.  The error paths pin exit code and stderr.  Every argv that runs
its command is read by the CLI's one-pass reader, not by argparse.
"""

import itertools
import re
from pathlib import Path

import pytest

from finclone.cli import main

GOLDEN = Path(__file__).parent / "golden"

PROBLEMS = {
    "k2": """\
domain 2
op id/1 = 01
op not/1 = 10
op c0/1 = 00
op and/2 = 0001
op or/2 = 0111
op xor/2 = 0110
op maj/3 = 00010111
op one/0 = 1
rel leq/2 = {00, 01, 11}
rel eq/2 = {00, 11}
rel any1/1 = {0, 1}
rel top/1 = {1}
pair leqp = (leq, leq)
pair leqeq = (leq, eq)
pair strict = (any1, top)
""",
    "k3": """\
domain 3
op id/1 = 012
op succ/1 = 120
op c0/1 = 000
op min/2 = 000011012
op max/2 = 012112222
op maj/3 = 000010002010111112002112222
op one/0 = 1
rel leq/2 = {00, 01, 02, 11, 12, 22}
rel eq/2 = {00, 11, 22}
rel low/1 = {0, 1}
rel zero/1 = {0}
pair leqp = (leq, leq)
pair leqeq = (leq, eq)
pair lowzero = (low, zero)
""",
    # nullary relations and pairs, and families that come out empty
    "k2n": """\
domain 2
op one/0 = 1
op not/1 = 10
op and/2 = 0001
rel e/0 = {eps}
rel z/0 = {}
rel leq/2 = {00, 01, 11}
rel eq/2 = {00, 11}
pair ez = (e, z)
pair ee = (e, e)
pair leqeq = (leq, eq)
""",
    # two9: at least two of nine arguments are 1; w6: min(max(x0..x2),
    # max(x3..x5)) + x0 mod 3
    "k2w": "domain 2\nop two9/9 = " + "".join(
        str(int(sum(t) >= 2)) for t in itertools.product(range(2), repeat=9)) + "\n",
    "k3w": "domain 3\nop w6/6 = " + "".join(
        str((min(max(t[:3]), max(t[3:])) + t[0]) % 3)
        for t in itertools.product(range(3), repeat=6)) + "\n",
}

SPEC = '{"mu":3,"m":2,"beta":[0,2],"alphas":[[0,1],[1,2]]}'

CHECK_NAMES = ["galois", "op-side", "least-pair", "finite-collapse", "pair-side",
               "semiclone-laws", "decide-proj", "semigroups", "directed-unions",
               "classical", "all"]

CASES = [
    ("gamma-k2-and", "k2", ["gamma", "--ops", "and", "--ksize", "2", "--seed-tuples", "01"]),
    ("gamma-k2-not-one-binary", "k2",
     ["gamma", "--ops", "not", "one", "--ksize", "4", "--seed-tuples", "0011", "0101"]),
    ("gamma-k2-xor-maj-binary", "k2",
     ["gamma", "--ops", "xor", "maj", "--ksize", "4", "--seed-tuples", "0011", "0101"]),
    ("gamma-k2-not-maj-ternary", "k2",
     ["gamma", "--ops", "not", "maj", "--ksize", "8",
      "--seed-tuples", "00001111", "00110011", "01010101"]),
    ("gamma-k2-c0-binary", "k2",
     ["gamma", "--ops", "c0", "--ksize", "4", "--seed-tuples", "0011", "0101"]),
    ("gamma-k2-one-ksize0", "k2", ["gamma", "--ops", "one", "--ksize", "0", "--seed-tuples", "eps"]),
    ("gamma-k2-empty-seed", "k2", ["gamma", "--ops", "one", "not", "--ksize", "2"]),
    ("gamma-k3-min-succ", "k3", ["gamma", "--ops", "min", "succ", "--ksize", "3",
                                 "--seed-tuples", "012"]),
    ("gamma-k3-maj-binary", "k3",
     ["gamma", "--ops", "maj", "--ksize", "9",
      "--seed-tuples", "000111222", "012012012"]),
    ("gen-semiclone-k2-and-not-2", "k2", ["gen-semiclone", "--ops", "and", "not", "--arity", "2"]),
    ("gen-semiclone-k2-maj-3", "k2", ["gen-semiclone", "--ops", "maj", "--arity", "3"]),
    ("gen-semiclone-k2-one-not-0", "k2", ["gen-semiclone", "--ops", "one", "not", "--arity", "0"]),
    ("gen-semiclone-k3-min-2", "k3", ["gen-semiclone", "--ops", "min", "--arity", "2"]),
    ("gen-semiclone-k3-succ-one-1", "k3", ["gen-semiclone", "--ops", "succ", "one", "--arity", "1"]),
    ("gen-semiclone-k3-maj-1", "k3", ["gen-semiclone", "--ops", "maj", "--arity", "1"]),
    ("gamma-k2w-two9", "k2w", ["gamma", "--ops", "two9", "--ksize", "2",
                               "--seed-tuples", "01", "10"]),
    ("gen-semiclone-k3w-w6-1", "k3w", ["gen-semiclone", "--ops", "w6", "--arity", "1"]),
    ("gen-clone-k2-or-2", "k2", ["gen-clone", "--ops", "or", "--arity", "2"]),
    ("gen-clone-k2-xor-c0-2", "k2", ["gen-clone", "--ops", "xor", "c0", "--arity", "2"]),
    ("gen-clone-k3-max-succ-1", "k3", ["gen-clone", "--ops", "max", "succ", "--arity", "1"]),
    ("gen-clone-k3-min-max-2", "k3", ["gen-clone", "--ops", "min", "max", "--arity", "2"]),
    ("decide-proj-k2-and", "k2", ["decide-proj", "--ops", "and"]),
    ("decide-proj-k2-id-c0", "k2", ["decide-proj", "--ops", "id", "c0"]),
    ("decide-proj-k3-succ", "k3", ["decide-proj", "--ops", "succ"]),
    ("decide-proj-k3-c0-one", "k3", ["decide-proj", "--ops", "c0", "one"]),
    ("decide-proj-k3-maj", "k3", ["decide-proj", "--ops", "maj"]),
    ("preserves-k2-and-leqp", "k2", ["preserves", "--ops", "and", "--pairs", "leqp"]),
    ("preserves-k2-not-leqp", "k2", ["preserves", "--ops", "not", "--pairs", "leqp"]),
    ("preserves-k3-min-leqp", "k3", ["preserves", "--ops", "min", "--pairs", "leqp"]),
    ("preserves-k3-succ-leqeq", "k3", ["preserves", "--ops", "succ", "--pairs", "leqeq"]),
    ("polp-k2-leqeq-2", "k2", ["polp", "--pairs", "leqeq", "--arity", "2"]),
    ("polp-k2-strict-leqp-1", "k2", ["polp", "--pairs", "strict", "leqp", "--arity", "1"]),
    ("polp-k3-lowzero-1", "k3", ["polp", "--pairs", "lowzero", "--arity", "1"]),
    ("polp-k3-leqeq-2", "k3", ["polp", "--pairs", "leqeq", "--arity", "2"]),
    ("pol-k2-leq-2", "k2", ["pol", "--rels", "leq", "--arity", "2"]),
    ("pol-k3-low-1", "k3", ["pol", "--rels", "low", "--arity", "1"]),
    ("invp-k2-not-2", "k2", ["invp", "--ops", "not", "--arity", "2"]),
    ("invp-k3-succ-1", "k3", ["invp", "--ops", "succ", "--arity", "1"]),
    ("invp-k3-min-1", "k3", ["invp", "--ops", "min", "--arity", "1"]),
    ("inv-k2-and-2", "k2", ["inv", "--ops", "and", "--arity", "2"]),
    ("inv-k3-min-1", "k3", ["inv", "--ops", "min", "--arity", "1"]),
    ("gen-semigroup-k2-not-c0", "k2", ["gen-semigroup", "--ops", "not", "c0"]),
    ("gen-semigroup-k3-succ-c0", "k3", ["gen-semigroup", "--ops", "succ", "c0"]),
    ("sloc-k2-and-1-2", "k2", ["sloc", "--ops", "and", "--s", "1", "--arity", "2"]),
    ("sloc-k3-succ-c0-2-1", "k3", ["sloc", "--ops", "succ", "c0", "--s", "2", "--arity", "1"]),
    ("sloc-pairs-k2-strict-1-1", "k2", ["sloc-pairs", "--pairs", "strict", "--s", "1", "--arity", "1"]),
    ("sloc-pairs-k3-lowzero-1-1", "k3",
     ["sloc-pairs", "--pairs", "lowzero", "--s", "1", "--arity", "1"]),
    ("enc-k2-strict-leqeq", "k2", ["enc", "--pairs", "strict", "leqeq"]),
    ("enc-k3-lowzero", "k3", ["enc", "--pairs", "lowzero"]),
    ("superpose-k2-leqp", "k2", ["superpose", "--pairs", "leqp", "leqp", "--spec", SPEC]),
    ("superpose-k3-leqp-leqeq", "k3", ["superpose", "--pairs", "leqp", "leqeq", "--spec", SPEC]),
    ("rpclone-k2-strict-1", "k2", ["rpclone", "--pairs", "strict", "--max-arity", "1"]),
    ("rpclone-k2-leqeq-2", "k2", ["rpclone", "--pairs", "leqeq", "--max-arity", "2"]),
    ("rpclone-k3-lowzero-1", "k3", ["rpclone", "--pairs", "lowzero", "--max-arity", "1"]),
    ("polp-k2n-ez-0", "k2n", ["polp", "--pairs", "ez", "--arity", "0"]),
    ("polp-k2n-ee-0", "k2n", ["polp", "--pairs", "ee", "--arity", "0"]),
    ("pol-k2n-z-0", "k2n", ["pol", "--rels", "z", "--arity", "0"]),
    ("sloc-pairs-k2n-leqeq-1-3", "k2n",
     ["sloc-pairs", "--pairs", "leqeq", "--s", "1", "--arity", "3"]),
    ("inv-k2n-not-0", "k2n", ["inv", "--ops", "not", "--arity", "0"]),
    ("inv-k2n-one-0", "k2n", ["inv", "--ops", "one", "--arity", "0"]),
    ("invp-k2n-none-0", "k2n", ["invp", "--arity", "0"]),
    ("invp-k2n-one-0", "k2n", ["invp", "--ops", "one", "--arity", "0"]),
    ("enc-k2n-none", "k2n", ["enc"]),
    ("gen-semiclone-k2n-and-0", "k2n", ["gen-semiclone", "--ops", "and", "--arity", "0"]),
    ("gen-clone-k2n-one-not-0", "k2n", ["gen-clone", "--ops", "one", "not", "--arity", "0"]),
    ("gen-semigroup-k2n-none", "k2n", ["gen-semigroup"]),
    ("rpclone-k2n-ez-1", "k2n", ["rpclone", "--pairs", "ez", "--max-arity", "1"]),
] + [(f"check-k2-{name}", None, ["check", name]) for name in CHECK_NAMES] + [
    (f"check-k{k}-{name}", None, ["check", name, "--k", str(k)])
    for k, name in [(0, "galois"), (0, "op-side"), (0, "pair-side"), (1, "galois"),
                    (1, "finite-collapse"), (1, "semigroups"), (1, "all"),
                    (3, "finite-collapse"), (3, "pair-side"), (3, "directed-unions"),
                    (3, "classical")]
]

# (problem, argv, exit code, stderr); stdout is empty on each
ERRORS = [
    ("k2", ["polp", "--pairs", "leqp"], 3, "input error: --arity is required\n"),
    ("k2", ["inv", "--ops", "and"], 3, "input error: --arity is required\n"),
    ("k2", ["sloc", "--ops", "and", "--arity", "1"], 3,
     "input error: --arity and --s are required\n"),
    ("k2", ["sloc-pairs", "--pairs", "strict", "--s", "1"], 3,
     "input error: --arity and --s are required\n"),
    ("k2", ["gamma", "--ops", "and"], 3, "input error: --ksize is required\n"),
    ("k2", ["gamma", "--ops", "and", "--ksize", "2", "--seed-tuples", "02"], 3,
     "input error: seed entry 2 outside carrier of size 2\n"),
    ("k2", ["gamma", "--ops", "and", "--ksize", "2", "--seed-tuples", "011"], 3,
     "input error: seed tuple (0, 1, 1) does not have length 2\n"),
    ("k2", ["superpose", "--pairs", "leqp"], 3,
     "input error: --spec is required\n"),
    ("k2", ["rpclone", "--pairs", "leqp"], 3,
     "input error: --max-arity is required\n"),
    ("k2", ["polp", "--pairs", "nosuch"], 3, "input error: --arity is required\n"),
    (None, ["enc", "--pairs", "leqp"], 3,
     "input error: a problem file is required (--problem)\n"),
    ("k2", ["preserves", "--ops", "and", "not", "--pairs", "leqp"], 3,
     "input error: preserves needs exactly one --ops name and one --pairs name\n"),
    ("k2", ["invp", "--ops", "nosuch", "--arity", "1"], 3,
     "input error: unknown op name 'nosuch'\n"),
    ("k3", ["gen-clone", "--ops", "min", "nosuch", "--arity", "1"], 3,
     "input error: unknown op name 'nosuch'\n"),
    ("k2", ["superpose", "--pairs", "leqp", "--spec", "[]"], 3,
     "input error: invalid superposition spec: "
     "list indices must be integers or slices, not str\n"),
    (None, ["check", "nope"], 3, "input error: unknown check 'nope'\n"),
    (None, ["check"], 3, "input error: check requires a name or 'all'\n"),
    (None, ["check", "all", "--k", "-1"], 3, "input error: carrier size must be >= 0, got -1\n"),
    (None, ["check", "least-pair", "--k", "-1"], 3,
     "input error: carrier size must be >= 0, got -1\n"),
    ("k2", ["polp", "--pairs", "leqp", "--arity", "5"], 2,
     "refused: polp table enumeration: estimated cost 4294967296 exceeds cap 1048576\n"),
    ("k3", ["invp", "--ops", "min", "--arity", "2", "--caps", "100"], 2,
     "refused: invp pair enumeration: estimated cost 19683 exceeds cap 100\n"),
    ("k2", ["sloc-pairs", "--pairs", "strict", "--s", "1", "--arity", "-1"], 3,
     "input error: arity must be >= 0\n"),
    ("k2", ["rpclone", "--pairs", "strict", "--max-arity", "-1"], 3,
     "input error: target arity must be >= 0\n"),
    ("k2", ["sloc", "--ops", "and", "--s", "1", "--arity", "-1"], 3,
     "input error: arity must be >= 0\n"),
    ("k2", ["gen-clone", "--ops", "and", "--arity", "-1"], 3, "input error: arity must be >= 0\n"),
    ("k2", ["gen-semiclone", "--ops", "and", "--arity", "-1"], 3,
     "input error: arity must be >= 0\n"),
    ("k2", ["gamma", "--ops", "and", "--ksize", "-1"], 3,
     "input error: index-set size must be >= 0\n"),
    ("k2", ["polp", "--pairs", "leqp", "--arity", "14"], 2,
     "refused: polp table enumeration: estimated cost >= 2^16384 exceeds cap 1048576\n"),
    ("k2", ["superpose", "--pairs", "leqp", "--spec",
            '{"mu":1.5,"m":1,"beta":[0],"alphas":[[0,1]]}'], 3,
     "input error: variable counts and map values must be integers\n"),
    ("k2", ["superpose", "--pairs", "leqp", "--spec",
            '{"mu":2,"m":1,"beta":[0.0],"alphas":[[0,1]]}'], 3,
     "input error: variable counts and map values must be integers\n"),
    ("k2", ["superpose", "--pairs", "leqp", "--spec",
            '{"mu":2,"m":true,"beta":[0],"alphas":[[0,1]]}'], 3,
     "input error: variable counts and map values must be integers\n"),
    ("k2", ["polp", "--pairs", "leqp", "--arity", "1", "--caps", "-1"], 3,
     "input error: cap must be >= 0\n"),
    ("k2", ["gen-semigroup", "--ops", "not", "--caps", "1"], 2,
     "refused: gamma tuple space: estimated cost 4 exceeds cap 1\n"),
    ("k2", ["polp", "--pairs", "leqp", "--arity", "-1"], 3, "input error: arity must be >= 0\n"),
    ("k2", ["pol", "--rels", "leq", "--arity", "-1"], 3, "input error: arity must be >= 0\n"),
    ("k2", ["invp", "--ops", "and", "--arity", "-1"], 3, "input error: arity must be >= 0\n"),
    ("k2", ["inv", "--ops", "and", "--arity", "-1"], 3, "input error: arity must be >= 0\n"),
    (None, ["enc", "--problem", "/nonexistent/problem.txt"], 3,
     "input error: [Errno 2] No such file or directory: '/nonexistent/problem.txt'\n"),
    # refused before the file is read
    (None, ["check", "op-side", "--k", "3", "--problem", "/nonexistent/problem.txt"], 3,
     "input error: check takes no problem file (--problem)\n"),
    ("k2", ["polp", "--pairs", "leqp", "--arity", "1", "--k", "3"], 3,
     "input error: --k only applies to check; a problem file gives the carrier\n"),
    (None, ["enc", "--k", "2"], 3,
     "input error: --k only applies to check; a problem file gives the carrier\n"),
]


def _argv(tmp_path, problem, command):
    if problem is None:
        return list(command)
    path = tmp_path / f"{problem}.txt"
    path.write_text(PROBLEMS[problem])
    return [command[0], "--problem", str(path)] + command[1:]


def _normalise(text: str) -> str:
    text = re.sub(r"\(\d+ ms\)", "(N ms)", text)
    return re.sub(r'"runtime_ms": \d+', '"runtime_ms": N', text)


def _assert_golden(tmp_path, capsys, name, problem, command, suffix):
    argv = _argv(tmp_path, problem, command) + (["--json"] if suffix == ".json" else [])
    code = main(argv)
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    assert _normalise(out.out) == _normalise((GOLDEN / (name + suffix)).read_text())


def _assert_error(tmp_path, capsys, problem, command, code, err):
    got = main(_argv(tmp_path, problem, command))
    out = capsys.readouterr()
    assert (got, out.out, out.err) == (code, "", err)


@pytest.mark.parametrize("name,problem,command", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("suffix", [".txt", ".json"])
def test_output_is_byte_identical(tmp_path, capsys, name, problem, command, suffix):
    _assert_golden(tmp_path, capsys, name, problem, command, suffix)


@pytest.mark.parametrize("problem,command,code,err", ERRORS,
                         ids=[" ".join(c[1]) for c in ERRORS])
def test_error_exit_code_and_stderr(tmp_path, capsys, problem, command, code, err):
    _assert_error(tmp_path, capsys, problem, command, code, err)


# every argv of the corpus that runs its command, to an answer or a refusal,
# is read in one pass: argparse reads only what the reader hands over
REFUSALS = [e for e in ERRORS if e[2] != 3]


@pytest.mark.parametrize("name,problem,command", CASES, ids=[c[0] for c in CASES])
def test_output_takes_the_reader(tmp_path, capsys, argparse_refuses, name, problem, command):
    for suffix in (".txt", ".json"):
        _assert_golden(tmp_path, capsys, name, problem, command, suffix)


@pytest.mark.parametrize("problem,command,code,err", REFUSALS,
                         ids=[" ".join(c[1]) for c in REFUSALS])
def test_refusal_takes_the_reader(tmp_path, capsys, argparse_refuses, problem, command, code, err):
    _assert_error(tmp_path, capsys, problem, command, code, err)
