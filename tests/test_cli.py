import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finclone import cli, core, harness
from finclone.cli import main, parse_problem, ProblemError
from finclone.core import OpFamily, Operation, PairFamily, Relation, RelationPair
from finclone.preserve import polp_tables

PROBLEM = """\
# ordered two-element carrier
domain 2

op id/1 = 01
op not/1 = 10
op and/2 = 0001
op one/0 = 1

rel leq/2 = {00, 01, 11}
rel top/1 = {1}
rel any1/1 = {0, 1}
rel none/1 = {}
rel point/0 = {eps}

pair leqp = (leq, leq)
pair strict = (any1, top)
"""


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.txt"
    path.write_text(PROBLEM)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_parses_all_declarations(self):
        p = parse_problem(PROBLEM)
        assert set(p.ops) == {"id", "not", "and", "one"}
        assert set(p.rels) == {"leq", "top", "any1", "none", "point"}
        assert set(p.pairs) == {"leqp", "strict"}
        assert p.ops["and"].table == (0, 0, 0, 1)
        assert len(p.rels["none"]) == 0
        assert len(p.rels["point"]) == 1

    def test_missing_domain(self):
        with pytest.raises(ProblemError) as e:
            parse_problem("op f/1 = 01\n")
        assert e.value.line == 1

    def test_duplicate_name(self):
        text = "domain 2\nrel a/1 = {0}\nrel a/1 = {1}\n"
        with pytest.raises(ProblemError) as e:
            parse_problem(text)
        assert e.value.line == 3
        assert "duplicate" in str(e.value)

    def test_tuple_arity_mismatch(self):
        with pytest.raises(ProblemError):
            parse_problem("domain 2\nrel a/2 = {0}\n")

    def test_tuple_value_out_of_range(self):
        with pytest.raises(ProblemError):
            parse_problem("domain 2\nrel a/1 = {2}\n")

    def test_pair_inclusion_violation_reports_position(self):
        text = "domain 2\nrel a/1 = {0}\nrel b/1 = {1}\npair p = (a, b)\n"
        with pytest.raises(ProblemError) as e:
            parse_problem(text)
        assert e.value.line == 4 and e.value.column == 1

    def test_bad_table_length(self):
        with pytest.raises(ProblemError):
            parse_problem("domain 2\nop f/2 = 01\n")

    def test_unknown_keyword(self):
        with pytest.raises(ProblemError):
            parse_problem("domain 2\nfoo x = y\n")

    def test_non_ascii_digit_is_a_parse_error(self):
        for text in ["domain 2\nrel a/1 = {\u00b2}\n", "domain 2\nop f/1 = \u00b20\n"]:
            with pytest.raises(ProblemError):
                parse_problem(text)

    def test_eps_only_at_arity_zero(self):
        with pytest.raises(ProblemError):
            parse_problem("domain 2\nrel a/1 = {eps}\n")


class TestCommands:
    def test_preserves_true_false(self, capsys, problem_file):
        code, out, _ = run(capsys, "preserves", "--problem", problem_file,
                           "--ops", "id", "--pairs", "leqp")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "preserves", "--problem", problem_file,
                           "--ops", "not", "--pairs", "leqp")
        assert code == 0 and out.strip() == "false"

    def test_polp_monotone_unary(self, capsys, problem_file):
        code, out, _ = run(capsys, "polp", "--problem", problem_file,
                           "--pairs", "leqp", "--arity", "1")
        assert code == 0
        assert out.splitlines() == ["op/1 = 00", "op/1 = 01", "op/1 = 11"]

    def test_invp_not(self, capsys, problem_file):
        code, out, _ = run(capsys, "invp", "--problem", problem_file,
                           "--ops", "not", "--arity", "1")
        assert code == 0
        assert out.splitlines() == ["pair/1 = (rel/1 = {}, rel/1 = {})",
                                    "pair/1 = (rel/1 = {0,1}, rel/1 = {0,1})"]

    def test_pol_inv(self, capsys, problem_file):
        code, out, _ = run(capsys, "pol", "--problem", problem_file,
                           "--rels", "leq", "--arity", "1")
        assert code == 0 and len(out.splitlines()) == 3
        code, out, _ = run(capsys, "inv", "--problem", problem_file,
                           "--ops", "id", "--arity", "1")
        assert code == 0 and len(out.splitlines()) == 4

    def test_generation_commands(self, capsys, problem_file):
        code, out, _ = run(capsys, "gen-semiclone", "--problem", problem_file,
                           "--ops", "and", "--arity", "1")
        assert code == 0 and out.splitlines() == ["op/1 = 01"]
        code, out, _ = run(capsys, "gen-clone", "--problem", problem_file,
                           "--ops", "and", "--arity", "1")
        assert code == 0 and out.splitlines() == ["op/1 = 01"]
        code, out, _ = run(capsys, "gen-semigroup", "--problem", problem_file,
                           "--ops", "not")
        assert code == 0 and out.splitlines() == ["op/1 = 01", "op/1 = 10"]

    def test_sloc(self, capsys, problem_file):
        code, out, _ = run(capsys, "sloc", "--problem", problem_file,
                           "--ops", "id", "--s", "2", "--arity", "1")
        assert code == 0 and out.splitlines() == ["op/1 = 01"]

    def test_sloc_pairs_and_enc(self, capsys, problem_file):
        code, out_sloc, _ = run(capsys, "sloc-pairs", "--problem", problem_file,
                                "--pairs", "strict", "--s", "2", "--arity", "1")
        assert code == 0
        code, out_enc, _ = run(capsys, "enc", "--problem", problem_file,
                               "--pairs", "strict")
        assert code == 0
        # at s = k^m the local closure collapses to the relaxation closure
        assert out_sloc == out_enc

    def test_gamma(self, capsys, problem_file):
        code, out, _ = run(capsys, "gamma", "--problem", problem_file,
                           "--ops", "not", "--ksize", "2",
                           "--seed-tuples", "01")
        assert code == 0
        assert out.splitlines() == ["R:", "  01", "  10", "S:", "  01", "  10",
                                    "steps: 1"]

    def test_superpose(self, capsys, problem_file):
        spec = json.dumps({"mu": 3, "m": 2, "beta": [0, 2],
                           "alphas": [[0, 1], [1, 2]]})
        code, out, _ = run(capsys, "superpose", "--problem", problem_file,
                           "--pairs", "leqp", "leqp", "--spec", spec)
        assert code == 0
        assert out.strip() == "pair/2 = (rel/2 = {00,01,11}, rel/2 = {00,01,11})"

    def test_rpclone(self, capsys, problem_file):
        code, out, _ = run(capsys, "rpclone", "--problem", problem_file,
                           "--pairs", "leqp", "--max-arity", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["pair/0 = (rel/0 = {eps}, rel/0 = {eps})",
                             "pair/1 = (rel/1 = {0,1}, rel/1 = {0,1})"]
        assert lines[2] == "intermediate-cap: 3"
        assert lines[3] == "slice-changed-at-last-cap: false"

    def test_decide_proj(self, capsys, problem_file):
        code, out, _ = run(capsys, "decide-proj", "--problem", problem_file,
                           "--ops", "and")
        assert code == 0 and out.strip() == "false"

    def test_stdin_problem(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(PROBLEM))
        code, out, _ = run(capsys, "decide-proj", "--problem", "-", "--ops", "one")
        assert code == 0 and out.strip() == "true"


class TestJsonMode:
    def test_valid_json_and_deterministic(self, capsys, problem_file):
        code, out1, _ = run(capsys, "invp", "--problem", problem_file,
                            "--ops", "and", "--arity", "1", "--json")
        code2, out2, _ = run(capsys, "invp", "--problem", problem_file,
                             "--ops", "and", "--arity", "1", "--json")
        assert code == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert all({"arity", "rho", "rho_prime"} <= set(p) for p in data["pairs"])

    def test_check_json_reports(self, capsys):
        code, out, _ = run(capsys, "check", "decide-proj", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["reports"][0]["verdict"] == "pass"


class TestExitCodes:
    def test_check_all_passes(self, capsys):
        code, out, _ = run(capsys, "check", "all")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 13
        assert all(": pass (" in line for line in lines)

    def test_unknown_check_is_input_error(self, capsys):
        code, _, err = run(capsys, "check", "nope")
        assert code == 3 and "unknown check" in err

    def test_refusal_exit_code(self, capsys, problem_file):
        code, _, err = run(capsys, "polp", "--problem", problem_file,
                           "--pairs", "leqp", "--arity", "5")
        assert code == 2 and "refused" in err

    def test_check_refusal_exit_code(self, capsys):
        code, out, _ = run(capsys, "check", "galois", "--caps", "10")
        assert code == 2

    # galois at k=4 counts its 4^4 + 4^16 operations and 3 + 3^4 pairs
    # before it lists them, and finite-collapse the sum_rho 4^|rho| = 5^k
    # relaxations of the unary pairs
    @pytest.mark.parametrize("name,what,cost,k", [
        pytest.param("galois", "galois two-element unions", 194232630, 3,
                     id="galois-galois two-element unions-194232630"),
        pytest.param("semigroups", "semigroup subset enumeration", 2 ** 27, 3,
                     id="semigroups-semigroup subset enumeration-134217728"),
        pytest.param("galois", "galois two-element unions",
                     math.comb(4 ** 4 + 4 ** 16, 2) + math.comb(3 + 3 ** 4, 2), 4,
                     id="galois-k4"),
        pytest.param("least-pair", "least-pair brute force", 3 ** 27, 3,
                     id="least-pair-least-pair brute force-7625597484987"),
        pytest.param("finite-collapse", "enc relaxation enumeration", 5 ** 9, 9,
                     id="finite-collapse-k9"),
        pytest.param("finite-collapse", "enc relaxation enumeration", 5 ** 10, 10,
                     id="finite-collapse-k10"),
        # charged before the 3^14 unary pairs are listed or k^(k^2) is
        # built; 3^(30^30) is shown by its exact floor, and 2^(2000^2000) by
        # the bit length of a floor too long to print
        pytest.param("finite-collapse", "enc relaxation enumeration", 5 ** 14, 14,
                     id="finite-collapse-k14"),
        pytest.param("galois", "galois two-element unions", ">= 2^19931567", 1000,
                     id="galois-k1000"),
        pytest.param("least-pair", "least-pair brute force",
                     ">= 2^326329723601044778279064428220315427222562989", 30,
                     id="least-pair-k30"),
        pytest.param("semigroups", "semigroup subset enumeration", ">= 2^(2^21931)", 2000,
                     id="semigroups-k2000"),
    ])
    def test_k3_check_refuses_before_running(self, capsys, name, what, cost, k):
        start = time.perf_counter()
        code, out, _ = run(capsys, "check", name, "--k", str(k), "--json")
        assert time.perf_counter() - start < 5
        details = json.loads(out)["reports"][0]["details"]
        assert code == 2 and details == {"what": what, "cost": cost, "cap": 2 ** 20}

    def test_check_all_refuses_the_fixture_before_building_it(self, capsys):
        # at k=2000 every entry that reads and_op is refused at its 2000^2
        # table entries, before the table is built; the others as before
        start = time.perf_counter()
        code, out, _ = run(capsys, "check", "all", "--k", "2000", "--json")
        assert time.perf_counter() - start < 3
        reports = json.loads(out)["reports"]
        assert code == 2 and len(reports) == 13
        assert {r["verdict"] for r in reports} == {"refused"}
        fixture = {"what": "suite fixture table", "cost": 2000 ** 2, "cap": 2 ** 20}
        assert [r["name"] for r in reports if r["details"] == fixture] == [
            "op-side-characterisation", "least-invariant-pair", "semiclone-laws",
            "projection-decidability", "classical-pol-inv"]
        assert all("F" not in r["params"] for r in reports if r["details"] == fixture)

    # estimates far past the cap are refused from their magnitude, before
    # 3^(3^9) or 2^(2^16) is built
    @pytest.mark.parametrize("domain,argv,text", [
        pytest.param("3", ["sloc", "--ops", "c0", "--s", "1", "--arity", "9"],
                     "sloc_ops subset enumeration: estimated cost >= 2^31211", id="sloc-k3-9"),
        pytest.param("2", ["polp", "--pairs", "leqp", "--arity", "15"],
                     "polp table enumeration: estimated cost >= 2^32768", id="polp-k2-15"),
        pytest.param("2", ["polp", "--pairs", "leqp", "--arity", "16"],
                     "polp table enumeration: estimated cost >= 2^65536", id="polp-k2-16"),
        pytest.param("3", ["polp", "--arity", "90"], "polp table enumeration: estimated "
                     "cost >= 2^13833494963079445784451379215846353308842584", id="polp-k3-90"),
    ])
    def test_huge_estimates_refuse_at_once(self, capsys, tmp_path, domain, argv, text):
        problem = tmp_path / "problem.txt"
        # at k=3 one 9-ary constant, a table of 3^9 = 19,683 digits
        problem.write_text(PROBLEM if domain == "2" else "domain 3\nop c0/9 = " + "0" * 3 ** 9)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv[:1], "--problem", str(problem), *argv[1:])
        assert time.perf_counter() - start < 2
        assert (code, out, err) == (2, "", f"refused: {text} exceeds cap 1048576\n")

    def test_empty_family_has_an_empty_local_closure(self, capsys, tmp_path):
        # id has no 15-ary member, so no subset constraint can hold: the
        # answer is empty at once, with no estimate of the 3^15 subsets
        problem = tmp_path / "problem.txt"
        problem.write_text("domain 3\nop id/1 = 012\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "sloc", "--problem", str(problem), "--ops", "id",
                             "--s", "1", "--arity", "15", "--json")
        assert time.perf_counter() - start < 2
        assert (code, json.loads(out), err) == (0, {"ops": []}, "")

    def test_lanes_past_eight_bytes_refuse(self, capsys, tmp_path):
        # inv at arity 7 on k=2: the 3^128 estimate fits under 10^62, but
        # least_invp's 2^128 subsets need lanes wider than 8 bytes
        problem = tmp_path / "problem.txt"
        problem.write_text(PROBLEM)
        start = time.perf_counter()
        code, out, err = run(capsys, "inv", "--problem", str(problem), "--ops", "and",
                             "--arity", "7", "--caps", str(10 ** 62))
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == (f"refused: invp subset lanes: estimated cost {2 ** 128} "
                       f"exceeds cap {2 ** 64}\n")

    def test_lane_bytes_past_the_bound_refuse(self, capsys, tmp_path):
        # inv at arity 6 on k=2: the 3^64 estimate fits under 10^31 and the
        # 2^64 subsets fit 8-byte lanes, but not in MAX_LANE_BYTES
        problem = tmp_path / "problem.txt"
        problem.write_text(PROBLEM)
        start = time.perf_counter()
        code, out, err = run(capsys, "inv", "--problem", str(problem), "--ops", "and",
                             "--arity", "6", "--caps", str(10 ** 31))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (f"refused: invp subset lane bytes: estimated cost {8 << 64} "
                       f"exceeds cap {2 ** 24}\n")

    def test_semigroups_count_before_they_list(self, capsys):
        # 7^7 unary operations would take seconds to list; 2^(7^7) is refused
        start = time.perf_counter()
        code, out, _ = run(capsys, "check", "semigroups", "--k", "7", "--json")
        assert time.perf_counter() - start < 2
        details = json.loads(out)["reports"][0]["details"]
        assert code == 2 and details == {
            "what": "semigroup subset enumeration", "cost": ">= 2^823543", "cap": 2 ** 20}

    def test_runaway_fixpoint_refuses(self, capsys, tmp_path):
        # webb(x, y) = max(x, y) + 1 mod 3 generates all of A^9 from the
        # binary projections, so the fixpoint's rows cross the cap long
        # before the last round
        problem = tmp_path / "webb.txt"
        problem.write_text("domain 3\nop webb/2 = 120220000\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "gen-semiclone", "--problem", str(problem),
                             "--ops", "webb", "--arity", "2")
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert err == "refused: gamma row evaluations: estimated cost 2259009 exceeds cap 1048576\n"

    # each of these listed its work before charging it: the 3^16
    # relaxations of one 4-ary pair, 20 projection tables of 2^20 entries
    # each, and the 8^9 (or 8^7) matrices over the full ternary relation
    @pytest.mark.parametrize("argv,err", [
        pytest.param(["enc", "--pairs", "p"], "enc relaxation enumeration: estimated cost "
                     "43046721 exceeds cap 1048576", id="enc"),
        pytest.param(["gen-semiclone", "--ops", "and", "--arity", "20"], "gamma tuple space: "
                     "estimated cost >= 2^1048576 exceeds cap 1048576", id="gen-semiclone"),
        pytest.param(["gen-clone", "--ops", "and", "--arity", "20"], "gamma tuple space: "
                     "estimated cost >= 2^1048576 exceeds cap 1048576", id="gen-clone"),
        pytest.param(["preserves", "--ops", "two9", "--pairs", "full3"], "matrix enumeration: "
                     "estimated cost 134217728 exceeds cap 1048576", id="preserves-9-ary"),
        pytest.param(["preserves", "--ops", "two7", "--pairs", "full3"], "matrix enumeration: "
                     "estimated cost 2097152 exceeds cap 1048576", id="preserves-7-ary"),
    ])
    def test_work_is_charged_before_it_is_listed(self, capsys, tmp_path, argv, err):
        tuples = lambda m: ", ".join(map("".join, itertools.product("01", repeat=m)))
        two = lambda n: "".join(str(int(sum(t) >= 2))
                                for t in itertools.product((0, 1), repeat=n))
        problem = tmp_path / "problem.txt"
        problem.write_text(f"domain 2\nop and/2 = 0001\nop two7/7 = {two(7)}\n"
                           f"op two9/9 = {two(9)}\nrel full4/4 = {{{tuples(4)}}}\n"
                           f"rel none4/4 = {{}}\nrel full3r/3 = {{{tuples(3)}}}\n"
                           f"pair p = (full4, none4)\npair full3 = (full3r, full3r)\n")
        start = time.perf_counter()
        code, out, got = run(capsys, *argv[:1], "--problem", str(problem), *argv[1:])
        assert time.perf_counter() - start < 2
        assert (code, out, got) == (2, "", f"refused: {err}\n")
        if argv[1] == "two7":
            # the charge is exactly the 2^21 matrices
            code, out, _ = run(capsys, *argv[:1], "--problem", str(problem), *argv[1:],
                               "--caps", str(2 ** 21))
            assert (code, out) == (0, "true\n")

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("domain 2\nrel a/1 = {0}\nrel b/1 = {1}\npair p = (a, b)\n")
        code, _, err = run(capsys, "enc", "--problem", str(bad), "--pairs", "p")
        assert code == 3
        assert "line 4, column 1" in err

    # each parse error is an input error that names its line and column
    @pytest.mark.parametrize("text,where,message", [
        ("domain 2\ndomain 3\n", (2, 1), "duplicate 'domain' line"),
        ("domain two\n", (1, 1), "invalid carrier size 'two'"),
        ("  domain -1\n", (1, 3), "carrier size must be >= 0"),
        ("domain 11\n", (1, 1), "carrier size 11 above 10: the format writes one digit per entry"),
        ("domain 2\n  op f/1 01\n", (2, 3), "expected '=' in declaration"),
        ("domain 2\nop f = 01\n", (2, 1), "expected '<name>/<arity>', got 'f'"),
        ("domain 2\nrel r/x = {}\n", (2, 1), "invalid arity 'x'"),
        ("domain 2\nrel r/-1 = {}\n", (2, 1), "arity must be >= 0"),
        ("domain 2\nop f!/1 = 01\n", (2, 1), "invalid name 'f!'"),
        ("domain 2\n\nop f/1 = 02\n", (3, 1), "table value outside carrier"),
        ("domain 2\nrel r/1 = 0\n", (2, 1), "relation value must be '{ ... }'"),
        ("domain 2\nrel r/1 = {0}\n pair p = r, r\n", (3, 2),
         "pair value must be '(<rel>, <rel>)'"),
        ("domain 2\nrel r/1 = {0}\npair p = (r)\n", (3, 1),
         "pair value must name exactly two relations"),
        ("domain 2\nrel r/1 = {0}\npair p = (r, s)\n", (3, 1), "unknown relation 's'"),
        ("# no carrier\n", (1, 1), "missing 'domain <k>' line"),
        # only the ASCII digits 0-9 are digits
        ("domain \uff13\n", (1, 1), "invalid carrier size '\uff13'"),
        ("domain 1_0\n", (1, 1), "invalid carrier size '1_0'"),
        ("domain 3\nrel r/\u0661 = {}\n", (2, 1), "invalid arity '\u0661'"),
        ("domain 3\nop f/1 = \u0660\u0661\u0662\n", (2, 1),
         "operation table must be 3 digits, got '\u0660\u0661\u0662'"),
        ("domain 3\nrel r/1 = {\u0662}\n", (2, 1), "tuple entry '\u0662' outside carrier of size 3"),
    ], ids=["duplicate-domain", "carrier-size", "negative-carrier", "carrier-past-ten", "no-equals",
            "no-slash", "arity", "negative-arity", "name", "table-value", "braces",
            "parentheses", "two-relations", "unknown-relation", "no-domain", "non-ascii-carrier",
            "underscored-carrier", "non-ascii-arity", "non-ascii-table", "non-ascii-entry"])
    def test_each_parse_error(self, capsys, tmp_path, text, where, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code, out, err = run(capsys, "enc", "--problem", str(bad))
        assert (code, out) == (3, "")
        assert err == f"input error: line {where[0]}, column {where[1]}: {message}\n"

    def test_failed_check_prints_its_counterexample(self, capsys, monkeypatch):
        witness = {"law": "extensivity", "op": "op/1:10"}
        monkeypatch.setattr(harness, "check_galois_axioms",
                            lambda k: harness.Report("galois-axioms", {"k": k}, "fail", witness))
        code, out, _ = run(capsys, "check", "galois")
        assert code == 1
        assert out == ("galois-axioms: fail (0 ms)\n"
                       '  counterexample: {"law": "extensivity", "op": "op/1:10"}\n')

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "enc", "--problem", "/no/such/file", "--pairs", "p")
        assert code == 3

    def test_unknown_name_reference(self, capsys, problem_file):
        code, _, err = run(capsys, "polp", "--problem", problem_file,
                           "--pairs", "missing", "--arity", "1")
        assert code == 3 and "unknown pair" in err

    @pytest.mark.parametrize("seed", ["0x", "0-1", "\u0661", "0\uff11"])
    def test_malformed_seed_tuple_is_input_error(self, capsys, problem_file, seed):
        code, out, err = run(capsys, "gamma", "--problem", problem_file, "--ops", "and",
                             "--ksize", "2", "--seed-tuples", seed)
        assert (code, out) == (3, "")
        assert err.startswith("input error: ") and f"'{seed}'" in err

    def test_problem_file_not_utf8_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"domain 2\nop f/1 = 01 # \xff\n")
        code, out, err = run(capsys, "enc", "--problem", str(bad))
        assert (code, out) == (3, "")
        assert err.startswith("input error: ") and "UTF-8" in err

    def test_key_error_inside_check_is_not_unknown_check(self, capsys, monkeypatch):
        def broken(*args):
            raise KeyError("galois")

        monkeypatch.setattr(harness, "check_galois_axioms", broken)
        with pytest.raises(KeyError):
            main(["check", "galois"])
        assert "unknown check" not in capsys.readouterr().err


# -- family printers ----------------------------------------------------------

# The oracle: each member as an object dumped by `json.dumps`, and its text
# line, which the printers must reproduce byte for byte.
def format_tuple(t: tuple[int, ...]) -> str:
    return "eps" if not t else "".join(str(x) for x in t)


def format_op(f: Operation) -> str:
    return f"op/{f.arity} = " + "".join(str(v) for v in f.table)


def format_rel(r: Relation) -> str:
    return f"rel/{r.arity} = {{" + ",".join(format_tuple(t) for t in r.tuples()) + "}"


def format_pair(p: RelationPair) -> str:
    return f"pair/{p.arity} = (" + format_rel(p.rho) + ", " + format_rel(p.rho_prime) + ")"


def op_to_obj(f: Operation) -> dict:
    return {"arity": f.arity, "table": "".join(str(v) for v in f.table)}


def rel_to_obj(r: Relation) -> dict:
    return {"arity": r.arity, "tuples": [format_tuple(t) for t in r.tuples()]}


def pair_to_obj(p: RelationPair) -> dict:
    return {"arity": p.arity, "rho": rel_to_obj(p.rho), "rho_prime": rel_to_obj(p.rho_prime)}


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# k <= 3 and arities 0-3, mixed within a family; at k = 0 no nullary
# operation exists, and every relation of positive arity is empty
carriers = st.integers(0, 3)
arities = st.integers(0, 3)


@st.composite
def op_families(draw):
    k = draw(carriers)
    ns = draw(st.lists(arities.filter(lambda n: k or n), max_size=6))
    values = st.integers(0, max(k - 1, 0))
    return k, OpFamily(Operation(k, n, tuple(draw(st.lists(
        values, min_size=k ** n, max_size=k ** n)))) for n in ns)


@st.composite
def relation_lists(draw):
    k = draw(carriers)
    return k, [Relation(k, m, draw(st.integers(0, (1 << k ** m) - 1)))
               for m in draw(st.lists(arities, max_size=6))]


@st.composite
def pair_families(draw):
    k, rels = draw(relation_lists())
    return k, PairFamily(RelationPair.of(r, Relation(k, r.arity, r.mask & draw(st.integers(
        0, (1 << k ** r.arity) - 1)))) for r in rels)


def _runs(ops) -> list:
    """Operations as the printer's runs (arity, value tables)."""
    return [(n, [f.table for f in run]) for n, run in itertools.groupby(ops, lambda f: f.arity)]


def assert_prints(listing, lines: list[str], obj: dict) -> None:
    """The listing prints the oracle's lines as its text, and its JSON as
    `json.dumps` of the oracle's object."""
    assert "".join(listing.text()) == "".join(f"{line}\n" for line in lines)
    assert "".join(cli._output(listing).json()) == _dumps(obj) + "\n"


class TestPrinters:
    """Each printer gives the lines and the JSON text that the oracle prints
    for the same members, in the order given."""

    @settings(max_examples=200, deadline=None)
    @given(op_families())
    def test_ops(self, family):
        k, ops = family
        assert_prints(cli.ops_listing(k, _runs(ops)), [format_op(f) for f in ops],
                      {"ops": [op_to_obj(f) for f in ops]})

    @settings(max_examples=200, deadline=None)
    @given(relation_lists())
    def test_rels(self, family):
        k, rels = family
        assert_prints(cli.rels_listing(k, ((r.arity, r.mask) for r in rels)),
                      [format_rel(r) for r in rels], {"rels": [rel_to_obj(r) for r in rels]})

    @settings(max_examples=200, deadline=None)
    @given(pair_families())
    def test_pairs(self, family):
        k, pairs = family
        assert_prints(cli.pairs_listing(k, ((p.arity, p.rho.mask, p.rho_prime.mask) for p in pairs)),
                      [format_pair(p) for p in pairs], {"pairs": [pair_to_obj(p) for p in pairs]})


class TestChunkSeams:
    """Families longer than one chunk print as the oracle prints them, across
    every seam between chunks and between runs of one arity."""

    @staticmethod
    def assert_ops(k: int, ops: list[Operation]) -> None:
        assert_prints(cli.ops_listing(k, _runs(ops)), [format_op(f) for f in ops],
                      {"ops": [op_to_obj(f) for f in ops]})

    def test_polymorphisms_of_a_square(self):
        square = Relation.from_tuples(core.Carrier(3), 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        tables = polp_tables([RelationPair.identical(square)], 2, 3)
        assert len(tables) == 3888 > cli.CHUNK
        self.assert_ops(3, [Operation(3, 2, t) for t in tables])

    def test_every_binary_table_at_k3(self):
        ops = [Operation(3, 2, t) for t in itertools.product(range(3), repeat=9)]
        assert len(ops) == 19683
        self.assert_ops(3, ops)

    def test_mixed_arities_across_a_seam(self):
        binary = [Operation(3, 2, t) for t in itertools.product(range(3), repeat=9)]
        unary = [Operation(3, 1, t) for t in itertools.product(range(3), repeat=3)]
        ops = binary[:cli.CHUNK + 1] + unary[:2] + binary[:cli.CHUNK - 1] + unary
        self.assert_ops(3, ops)

    def test_pairs_sharing_a_rho_across_a_seam(self):
        # rho = 511 is the last pair of the first chunk and the first of the
        # second
        rows = [(2, rho, rho_prime) for rho in (511, 510, 511)
                for rho_prime in range(512) if rho_prime & ~rho == 0]
        rows[10:10] = [(1, 7, 5), (0, 1, 0)]
        assert rows[cli.CHUNK - 1][1] == rows[cli.CHUNK][1] == 511
        pairs = [RelationPair.of(Relation(3, m, r), Relation(3, m, s)) for m, r, s in rows]
        assert_prints(cli.pairs_listing(3, rows), [format_pair(p) for p in pairs],
                      {"pairs": [pair_to_obj(p) for p in pairs]})
        rels = [Relation(3, m, r) for m, r, _ in rows]
        assert_prints(cli.rels_listing(3, ((m, r) for m, r, _ in rows)),
                      [format_rel(r) for r in rels], {"rels": [rel_to_obj(r) for r in rels]})


SQUARE_K3 = """\
domain 3
rel square/2 = {00, 01, 10, 11}
rel full/2 = {00, 01, 02, 10, 11, 12, 20, 21, 22}
"""


class _Digest:
    """A stdout that keeps only the length and the digest of what is
    written to it."""

    def __init__(self):
        self.size, self.hash = 0, hashlib.sha256()

    def write(self, piece: str) -> int:
        self.size += len(piece)
        self.hash.update(piece.encode())
        return len(piece)

    def writelines(self, pieces) -> None:
        for piece in pieces:
            self.write(piece)

    def flush(self) -> None:
        pass


class TestStreaming:
    """A family is computed, every charge taken, before its first byte is
    written, and then printed a chunk at a time."""

    @pytest.fixture
    def square_file(self, tmp_path):
        path = tmp_path / "square.txt"
        path.write_text(SQUARE_K3)
        return str(path)

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_refused_listing_prints_nothing(self, capsys, square_file, fmt):
        code, out, err = run(capsys, "pol", "--problem", square_file, "--rels", "square",
                             "--arity", "2", "--caps", "100", *fmt)
        assert (code, out) == (2, "") and err.startswith("refused: ")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_printing_holds_less_than_its_text(self, monkeypatch, square_file, fmt):
        # the 19,683 tables themselves outweigh their text, so the peak is
        # taken from the hand-over of the computed family to the printer
        tables = list(itertools.product(range(3), repeat=9))
        ops = [Operation(3, 2, t) for t in tables]
        expected = ("".join(format_op(f) + "\n" for f in ops) if fmt == "text"
                    else _dumps({"ops": [op_to_obj(f) for f in ops]}) + "\n")
        held = []
        output = cli._output

        def handed_over(result):
            out = output(result)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return out

        sink = _Digest()
        monkeypatch.setattr(cli, "_output", handed_over)
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["pol", "--problem", square_file, "--rels", "full", "--arity", "2",
                         *(["--json"] if fmt == "json" else [])])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert (sink.size, sink.hash.hexdigest()) == (
            len(expected), hashlib.sha256(expected.encode()).hexdigest())
        assert peak - held[0] < len(expected)


class TestSparseRelations:
    """A relation prints from its set bits: a sparse relation of high arity
    names its own tuples, not all k^m tuples of its arity."""

    def test_only_set_bits_are_named(self):
        rels = cli._Relations(3)
        assert rels.tuples(16, 1 | 1 << 3 ** 16 - 1) == ["0" * 16, "2" * 16]
        assert len(rels.names[16]) == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_enc_of_a_sparse_pair_of_arity_16(self, capsys, tmp_path, fmt):
        problem = tmp_path / "sparse.txt"
        problem.write_text("domain 3\nrel r/16 = {0000000000000000}\npair p = (r, r)\n")
        argv = ["enc", "--pairs", "p", "--problem", str(problem)]
        code, out, err = run(capsys, *argv, *(["--json"] if fmt == "json" else []))
        assert (code, err) == (0, "")
        rel = {"arity": 16, "tuples": ["0" * 16]}
        if fmt == "json":
            assert json.loads(out) == {"pairs": [{"arity": 16, "rho": rel, "rho_prime": rel}]}
        else:
            assert out == f"pair/16 = (rel/16 = {{{'0' * 16}}}, rel/16 = {{{'0' * 16}}})\n"


K3_PROBLEM = """\
domain 3
op f/2 = 012120201
rel r/2 = {00, 01, 11, 22}
rel rp/2 = {00, 11, 22}
pair q = (r, rp)
"""


class TestFamilyCommandsBuildNoFamily:
    """The commands that print from value tables and masks build no
    `OpFamily` or `PairFamily`: a guard on their speed that needs no timer."""

    @pytest.fixture
    def family_count(self, monkeypatch):
        calls = []
        init = core._Family.__init__

        def counting(self, *args):
            calls.append(type(self).__name__)
            init(self, *args)

        monkeypatch.setattr(core._Family, "__init__", counting)
        return calls

    @pytest.mark.parametrize("argv", [
        ["pol", "--rels", "r", "--arity", "2"],
        ["polp", "--pairs", "q", "--arity", "2"],
        ["invp", "--ops", "f", "--arity", "2"],
        ["inv", "--ops", "f", "--arity", "2"],
        ["gen-clone", "--ops", "f", "--arity", "2"],
        ["gen-semiclone", "--ops", "f", "--arity", "2"],
    ], ids=lambda argv: argv[0])
    def test_k3_json(self, capsys, tmp_path, family_count, argv):
        problem = tmp_path / "k3.txt"
        problem.write_text(K3_PROBLEM)
        code, out, err = run(capsys, *argv, "--problem", str(problem), "--json")
        assert (code, err) == (0, "") and json.loads(out)
        assert family_count == []

    def test_counter_sees_a_family(self, capsys, tmp_path, family_count):
        problem = tmp_path / "k3.txt"
        problem.write_text(K3_PROBLEM)
        code, _, _ = run(capsys, "enc", "--pairs", "q", "--problem", str(problem), "--json")
        assert code == 0 and family_count


def _argparse_reads(argv: list[str]):
    """The namespace argparse reads from `argv`, or None where it refuses
    the argv or prints help."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.PARSER.parse_intermixed_args(argv)
    except (core.DomainError, SystemExit):
        return None


# values an option or a positional may meet now and then: ints that Python's
# `int` reads (" 3", Arabic-Indic 3, "1_0" among them) and words that it does
# not, a negative number, a command and a check name
_ODD_VALUES = ["0", " 3", "\u0663", "1_0", "x", "1.5", "", "-", "-1", "polp", "all"]
# tokens that start with '-' and name no option
_DASHED = ["-h", "--help", "--", "-1", "-x y", "--frob"]


@st.composite
def _argvs(draw):
    """An argv of options drawn from the parser's own actions, with a command
    and at most one more positional at any place among them.  Now and then
    an option is written as `--opt=value` or abbreviated, has a value too
    few or one too many or an odd value, the command is missing or another
    word, a third positional comes, or a token starts with '-' and names no
    option."""
    def rarely() -> bool:
        return draw(st.sampled_from([False] * 9 + [True]))

    odd = st.one_of(st.sampled_from(_ODD_VALUES), st.text(max_size=3))
    segments = []  # the tokens of each option, and whether a word after them is a value
    for option, action in draw(st.lists(st.sampled_from(sorted(cli.PARSER.options.items())),
                                        max_size=6)):
        count = draw(st.integers(0, 3)) if action.nargs == "*" else int(action.nargs is None)
        if rarely():
            count = max(0, count + draw(st.sampled_from([-1, 1])))
        usual = st.sampled_from(["0", "2", "17"] if action.type is int else ["q", "f", "-"])
        values = [draw(odd if rarely() else usual) for _ in range(count)]
        if rarely() and values:
            tokens = [f"{option}={values[0]}", *values[1:]]
        elif rarely() and len(option) > 3:
            tokens = [option[:draw(st.integers(3, len(option) - 1))], *values]
        else:
            tokens = [option, *values]
        segments.append((tokens, action.nargs == "*"))
    words = [] if rarely() else [draw(odd if rarely() else st.sampled_from(list(cli.COMMANDS)))]
    words += draw(st.lists(st.sampled_from(["all", "galois"]) | odd, max_size=2 if rarely() else 1))
    if rarely():
        words.append(draw(st.sampled_from(_DASHED)))
    for word in words:
        # mostly where it is a positional, not the value of a list option
        places = [i for i in range(len(segments) + 1) if i == 0 or not segments[i - 1][1]]
        place = draw(st.integers(0, len(segments)) if rarely() else st.sampled_from(places))
        segments.insert(place, ([word], False))
    return [token for tokens, _ in segments for token in tokens]


class TestArguments:
    def test_consecutive_calls_share_no_list_default(self, capsys, problem_file):
        # --ops given, then omitted: the second call reads no operation
        assert all(not isinstance(action.default, list) for action in cli.PARSER._actions)
        code, given, _ = run(capsys, "invp", "--problem", problem_file,
                             "--ops", "one", "--arity", "0")
        assert code == 0 and given.splitlines() == ["pair/0 = (rel/0 = {eps}, rel/0 = {eps})"]
        code, omitted, _ = run(capsys, "invp", "--problem", problem_file, "--arity", "0")
        assert code == 0 and omitted.splitlines() == [
            "pair/0 = (rel/0 = {}, rel/0 = {})",
            "pair/0 = (rel/0 = {eps}, rel/0 = {})",
            "pair/0 = (rel/0 = {eps}, rel/0 = {eps})"]

    # argparse's own errors would exit 2, the refusal code
    @pytest.mark.parametrize("argv,message", [
        (["polp", "--arity", "x"], "argument --arity: invalid int value: 'x'"),
        (["frob"], "argument command: invalid choice: 'frob'"),
        (["polp", "--frob"], "unrecognized arguments: --frob"),
    ], ids=["bad-value", "unknown-command", "unknown-option"])
    def test_bad_argument_is_an_input_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"input error: {message}") and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: finclone")

    def test_fallback_formats_no_usage(self, capsys, monkeypatch, problem_file):
        # the usage text is formatted when the parser is built, so an argv
        # handed to argparse and the help read it without formatting it
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = capsys.readouterr().out
        argv = ["invp", "--ops", "not", "--arity=1", "--problem", problem_file]
        expected = run(capsys, *argv)

        def refuse():
            raise RuntimeError("usage formatted")

        monkeypatch.setattr(cli.PARSER, "format_usage", refuse)
        assert run(capsys, *argv) == expected and expected[0] == 0
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert (done.value.code, capsys.readouterr().out) == (0, help_text)

    def test_closed_stdout_is_not_an_input_error(self, problem_file, tmp_path):
        # the read end is closed before the command starts, so its first
        # write fails with EPIPE; the second command prints 3,888 tables,
        # more than one chunk
        square = tmp_path / "square.txt"
        square.write_text(SQUARE_K3)
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        for argv in (["inv", "--problem", problem_file, "--ops", "and", "--arity", "1"],
                     ["pol", "--problem", str(square), "--rels", "square", "--arity", "2"]):
            read, write = os.pipe()
            os.close(read)
            try:
                proc = subprocess.run([sys.executable, "-m", "finclone.cli", *argv],
                                      stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
            finally:
                os.close(write)
            assert (argv[0], proc.returncode, proc.stderr) == (argv[0], 141, b"")

    @settings(max_examples=500, deadline=None)
    @given(argv=_argvs())
    def test_reader_agrees_with_argparse(self, argv):
        # where the reader answers, argparse answers the same, lists as
        # lists and omitted lists as their tuple defaults
        read = cli.PARSER._read(argv)
        if read is not None:
            expected = _argparse_reads(argv)
            assert expected is not None, "the reader took an argv that argparse refuses"
            assert vars(read) == vars(expected)
            assert ({key: type(v) for key, v in vars(read).items()}
                    == {key: type(v) for key, v in vars(expected).items()})

    def test_each_read_is_fresh(self):
        argv = ["invp", "--ops", "f", "--arity", "1"]
        first, second = cli.PARSER._read(argv), cli.PARSER._read(argv)
        assert first.ops == second.ops == ["f"] and first.ops is not second.ops

    def test_positionals_may_follow_options(self, capsys, problem_file):
        # argparse's parse_args takes positionals from the first block only,
        # so `check --k 1 galois` was an unrecognised argument
        for orders in ([["check", "galois", "--k", "1"], ["check", "--k", "1", "galois"],
                        ["--k", "1", "check", "galois"]],
                       [["polp", "--problem", problem_file, "--pairs", "strict", "--arity", "1"],
                        ["--problem", problem_file, "--pairs", "strict", "--arity", "1", "polp"]]):
            outcomes = set()
            for argv in orders:
                code, out, err = run(capsys, *argv)
                outcomes.add((code, re.sub(r"\(\d+ ms\)", "(N ms)", out), err))
            assert len(outcomes) == 1 and outcomes.pop()[::2] == (0, "")

    @pytest.mark.parametrize("argv", [
        ["polp", "--pairs", "q", "--arity", "2"],
        ["pol", "--rels", "r", "--arity", "2"],
        ["invp", "--ops", "f", "--arity", "2"],
        ["gen-clone", "--ops", "f", "--arity", "1"],
    ], ids=lambda argv: argv[0])
    def test_k3_cli_shapes_take_the_reader(self, capsys, monkeypatch, argparse_refuses, argv):
        # the commands of the k3-cli benchmark give what they give when a
        # fresh parser's argparse reads them
        argv = argv + ["--problem", "-", "--json"]
        monkeypatch.setattr(sys, "stdin", io.StringIO(K3_PROBLEM))
        code = cli.run_command(cli.build_parser().parse_intermixed_args(argv))
        expected = (code, *capsys.readouterr())
        monkeypatch.setattr(sys, "stdin", io.StringIO(K3_PROBLEM))
        assert (main(argv), *capsys.readouterr()) == expected and expected[0] == 0

    @pytest.mark.parametrize("argv,reader", [
        (["invp", "--ops", "not", "--arity", "1"], True),
        (["invp", "--ops", "not", "--arity=1"], False),
        (["invp", "--ops", "not", "--arity", "x"], False),
    ], ids=["read-in-one-pass", "handed-to-argparse", "input-error"])
    def test_console_script_reads_sys_argv(self, capsys, monkeypatch, request, problem_file,
                                           argv, reader):
        argv = [*argv, "--problem", problem_file]
        expected = run(capsys, *argv)
        if reader:
            request.getfixturevalue("argparse_refuses")
        monkeypatch.setattr(sys, "argv", ["finclone", *argv])
        assert (main(), *capsys.readouterr()) == expected
