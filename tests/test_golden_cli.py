"""Golden CLI outputs for the generation commands.

Each case runs `finclone` on one of the problems below, once as text and once
with `--json`, and compares stdout byte for byte with
`tests/golden/<case>.txt` and `tests/golden/<case>.json`.  The files were
recorded from the CLI before `gamma_fixpoint` became a semi-naive engine;
a refactor of the generation layer must leave them unchanged.
"""

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
""",
}

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
    ("gen-clone-k2-or-2", "k2", ["gen-clone", "--ops", "or", "--arity", "2"]),
    ("gen-clone-k2-xor-c0-2", "k2", ["gen-clone", "--ops", "xor", "c0", "--arity", "2"]),
    ("gen-clone-k3-max-succ-1", "k3", ["gen-clone", "--ops", "max", "succ", "--arity", "1"]),
    ("gen-clone-k3-min-max-2", "k3", ["gen-clone", "--ops", "min", "max", "--arity", "2"]),
    ("decide-proj-k2-and", "k2", ["decide-proj", "--ops", "and"]),
    ("decide-proj-k2-id-c0", "k2", ["decide-proj", "--ops", "id", "c0"]),
    ("decide-proj-k3-succ", "k3", ["decide-proj", "--ops", "succ"]),
    ("decide-proj-k3-c0-one", "k3", ["decide-proj", "--ops", "c0", "one"]),
    ("decide-proj-k3-maj", "k3", ["decide-proj", "--ops", "maj"]),
]


def _argv(tmp_path, problem, command):
    path = tmp_path / f"{problem}.txt"
    path.write_text(PROBLEMS[problem])
    return [command[0], "--problem", str(path)] + command[1:]


@pytest.mark.parametrize("name,problem,command", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("suffix", [".txt", ".json"])
def test_output_is_byte_identical(tmp_path, capsys, name, problem, command, suffix):
    argv = _argv(tmp_path, problem, command) + (["--json"] if suffix == ".json" else [])
    code = main(argv)
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    assert out.out == (GOLDEN / (name + suffix)).read_text()
