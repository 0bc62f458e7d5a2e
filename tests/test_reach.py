"""The reach map: what the default cap answers, command by command.

`tests/golden/reach.json` holds one cell per family command, carrier size
k in {2, 3, 4} and arity 0-4, on the problem `problem(k)`: the k-chain leq,
its strict order lt, the pair (leq, lt), min and x + 1 (mod k).  A cell is
[exit code, member count] for an answer and [exit code, what] for a
refusal, the layer the refusal names; it never holds a time.  `check all`
at k = 0-4 adds its exit code and, for each entry, its verdict, or for a
refused entry the refusal's what.

A change that moves a cell from an answer to a refusal narrows what the
library answers; one that moves it the other way widens it.  Either shows
here as a changed cell.  Regenerate the file with

    PYTHONPATH=src python tests/test_reach.py
"""

import contextlib
import io
import json
import time
from pathlib import Path

from finclone.cli import main

REACH = Path(__file__).parent / "golden" / "reach.json"

CARRIERS = (2, 3, 4)
ARITIES = range(5)
CHECK_CARRIERS = range(5)

# command -> the names and options it reads from `problem(k)`
COMMANDS = {
    "pol": ["--rels", "leq"],
    "polp": ["--pairs", "leqlt"],
    "inv": ["--ops", "min", "succ"],
    "invp": ["--ops", "min", "succ"],
    "gen-semiclone": ["--ops", "min", "succ"],
    "gen-clone": ["--ops", "min", "succ"],
    "sloc": ["--ops", "min", "succ", "--s", "2"],
    "sloc-pairs": ["--pairs", "leqlt", "--s", "1"],
}

# a cell that takes longer than this would show a reach gain bought with time
CELL_SECONDS = 2


def problem(k: int) -> str:
    pairs = [(x, y) for x in range(k) for y in range(k)]
    leq = ", ".join(f"{x}{y}" for x, y in pairs if x <= y)
    lt = ", ".join(f"{x}{y}" for x, y in pairs if x < y)
    return (f"domain {k}\n"
            f"rel leq/2 = {{{leq}}}\n"
            f"rel lt/2 = {{{lt}}}\n"
            "pair leqlt = (leq, lt)\n"
            "op min/2 = " + "".join(str(min(x, y)) for x, y in pairs) + "\n"
            "op succ/1 = " + "".join(str((x + 1) % k) for x in range(k)) + "\n")


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `finclone argv`, in this process."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    seconds = time.perf_counter() - start
    assert seconds < CELL_SECONDS, (argv, seconds)
    return code, out.getvalue(), err.getvalue()


def refused_what(err: str) -> str:
    return err.removeprefix("refused: ").split(": estimated cost ")[0]


def family_cell(argv: list[str]) -> list:
    code, out, err = run(argv + ["--json"])
    if code:
        return [code, refused_what(err) if code == 2 else err.strip()]
    (members,) = json.loads(out).values()
    return [code, len(members)]


def check_cell(k: int) -> dict:
    code, out, _ = run(["check", "all", "--k", str(k), "--json"])
    entries = {r["name"]: r["verdict"] if r["verdict"] != "refused" else
               "refused: " + r["details"]["what"] for r in json.loads(out)["reports"]}
    return {"exit": code, "entries": entries}


def reach_map(tmp_path: Path) -> dict:
    families = {}
    for k in CARRIERS:
        path = tmp_path / f"reach-k{k}.txt"
        path.write_text(problem(k))
        families[str(k)] = {
            command: [family_cell([command, "--problem", str(path), *options,
                                   "--arity", str(n)]) for n in ARITIES]
            for command, options in COMMANDS.items()}
    return {"families": families,
            "check all": {str(k): check_cell(k) for k in CHECK_CARRIERS}}


def dump(reach: dict) -> str:
    """The map as the file holds it: one line per command and carrier."""
    lines = ["{", '  "families": {']
    ks = list(reach["families"])
    for i, k in enumerate(ks):
        lines.append(f'    "{k}": {{')
        rows = list(reach["families"][k].items())
        for j, (command, cells) in enumerate(rows):
            lines.append(f'      "{command}": {json.dumps(cells)}' + ("," if j < len(rows) - 1 else ""))
        lines.append("    }" + ("," if i < len(ks) - 1 else ""))
    lines += ["  },", '  "check all": {']
    checks = list(reach["check all"].items())
    for i, (k, cell) in enumerate(checks):
        lines.append(f'    "{k}": {json.dumps(cell, sort_keys=True)}' + ("," if i < len(checks) - 1 else ""))
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def test_reach_map_is_unchanged(tmp_path):
    got = reach_map(tmp_path)
    assert json.loads(dump(got)) == got
    assert got == json.loads(REACH.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        REACH.write_text(dump(reach_map(Path(scratch))))
