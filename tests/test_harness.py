import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from finclone import core, harness, preserve, relpairs
from finclone.core import (
    Carrier,
    DomainError,
    Operation,
    PairFamily,
    Relation,
    RelationPair,
    all_operations,
    all_pairs,
    capped,
)
from finclone.harness import (
    Report,
    check_classical,
    check_directed_unions,
    check_finite_collapse,
    check_galois_axioms,
    check_least_invariant_pair,
    check_op_side_characterisation,
    check_pair_side_characterisation,
    check_projection_decidability,
    check_semiclone_laws,
    check_transformation_semigroups,
    run_checks,
    CHECKS,
)

C2 = Carrier(2)
AND = Operation(2, 2, (0, 0, 0, 1))
NOT = Operation(2, 1, (1, 0))
LEQ = Relation.from_tuples(C2, 2, [(0, 0), (0, 1), (1, 1)])
LEQ_PAIR = RelationPair.identical(LEQ)
EQ = Relation.from_tuples(C2, 2, [(0, 0), (1, 1)])
LEQ_TO_EQ = RelationPair.of(LEQ, EQ)
STRICT01 = RelationPair.of(Relation.from_tuples(C2, 1, [(0,), (1,)]),
                           Relation.from_tuples(C2, 1, [(1,)]))
# binary pairs (rho, rho') with masks (9, 1), (15, 10) and (15, 4), whose
# 2-local closure holds both 2-directed and other subfamilies
SPREAD_PAIRS = [RelationPair(2, 2, Relation(2, 2, rho), Relation(2, 2, rho_p))
                for rho, rho_p in ((9, 1), (15, 10), (15, 4))]
NAND_TO_NEQ = RelationPair.of(Relation.from_tuples(C2, 2, [(0, 0), (0, 1), (1, 0)]),
                              Relation.from_tuples(C2, 2, [(0, 1), (1, 0)]))

# the pair-side report pin (TestPairSideCheck.test_reports_pinned), recorded
# with the check that compared `PairFamily` objects
PAIR_SIDE_PIN_CASES = 614
PAIR_SIDE_PIN = "01c6303c8b84b60bedb3fa22c3ebcafbe1cff2e3f6b3b46c849db163192a3814"


class TestDefaultSuite:
    def test_all_checks_pass(self):
        reports = run_checks("all")
        assert len(reports) == 13
        for r in reports:
            assert r.verdict == "pass", (r.name, r.counterexample)
            assert r.counterexample is None

    def test_named_checks_pass(self):
        for name in dict(CHECKS):
            for r in run_checks(name):
                assert r.verdict == "pass", (name, r.counterexample)

    @pytest.mark.parametrize("k", [0, 1, 3, 4])
    def test_every_carrier_size_answers_or_refuses(self, k):
        # the fixtures are built from k: no carrier size is an input error,
        # and a check too large for the cap is refused, never run away
        reports = run_checks("all", k)
        assert len(reports) == len(CHECKS)
        assert {r.verdict for r in reports} <= {"pass", "refused"}
        refused = {r.name for r in reports if r.verdict == "refused"}
        if k < 2:
            assert refused == set()
        if k == 3:
            assert refused == {"galois-axioms", "least-invariant-pair",
                               "transformation-semigroups"}

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            run_checks("no-such-check")


class TestReportShape:
    def test_to_dict_fields(self):
        r = run_checks("decide-proj")[0]
        d = r.to_dict()
        assert set(d) == {"name", "params", "verdict", "counterexample",
                          "runtime_ms", "details"}
        assert d["verdict"] == "pass"
        assert isinstance(d["runtime_ms"], int)

    def test_params_record_inputs(self):
        r = check_op_side_characterisation([AND], 2, 1, 2)
        assert r.params["s"] == 2 and r.params["n"] == 1
        assert r.params["F"] == ["op/2:0001"]


class TestRefusal:
    def test_tiny_cap_refuses(self):
        with capped(10):
            r = check_galois_axioms(2)
        assert r.verdict == "refused"
        assert r.counterexample is None
        assert {"what", "cost", "cap"} <= set(r.details)
        assert r.details["cost"] > r.details["cap"] == 10

    def test_refusal_in_pair_side(self):
        with capped(3):
            r = check_pair_side_characterisation([LEQ_PAIR], 1, 1, 2)
        assert r.verdict == "refused"

    def test_op_side_refuses_in_order(self):
        # the pair arities are charged first, ascending, then the tables
        with capped(81):
            r = check_op_side_characterisation([AND], 3, 2, 2)
        assert r.verdict == "refused"
        assert r.details == {"what": "invp pair enumeration", "cost": 6561, "cap": 81}
        with capped(15):
            r = check_op_side_characterisation([AND], 1, 2, 2)
        assert r.verdict == "refused"
        assert r.details == {"what": "polp table enumeration", "cost": 16, "cap": 15}

    def test_refusal_of_a_cost_too_long_for_decimal_dumps_as_json(self):
        r = check_op_side_characterisation([AND], 1, 14, 2)
        assert r.details == {"what": "polp table enumeration", "cost": ">= 2^16384", "cap": 2 ** 20}
        assert '"cost": ">= 2^16384"' in json.dumps(r.to_dict())

    def test_refusal_under_a_cap_too_long_for_decimal_dumps_as_json(self):
        with capped(2 ** 14300):
            r = check_op_side_characterisation([AND], 1, 14, 2)
        assert r.details == {"what": "polp table enumeration", "cost": ">= 2^16384",
                             "cap": ">= 2^14300"}
        assert '"cap": ">= 2^14300"' in json.dumps(r.to_dict())

    def test_op_side_carrier_mismatch(self):
        with pytest.raises(DomainError, match="carrier mismatch in operation family"):
            check_op_side_characterisation([Operation(3, 1, (0, 1, 2))], 1, 1, 2)

    def test_negative_locality_is_an_input_error_on_both_sides(self, monkeypatch):
        # both sides refuse s < 0 before they build any least map, and the
        # pair side before it runs the rpclone closure; at a valid s the
        # check grows one closure, through `rpclone_generate_stable`
        calls = []

        def counted(name, real):
            return lambda *args: calls.append(name) or real(*args)

        init = relpairs._Closure.__init__
        monkeypatch.setattr(relpairs._Closure, "__init__",
                            lambda self, *args: calls.append("closure") or init(self, *args))
        for name in ("least_invp", "rpclone_generate_stable"):
            monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
        with pytest.raises(DomainError, match="locality parameter must be >= 0"):
            check_op_side_characterisation([AND], -1, 1, 2)
        with pytest.raises(DomainError, match="locality parameter must be >= 0"):
            check_pair_side_characterisation([LEQ_PAIR], -1, 2, 2)
        assert calls == []
        assert check_pair_side_characterisation([LEQ_PAIR], 1, 2, 2).verdict == "pass"
        assert (calls.count("rpclone_generate_stable"), calls.count("closure")) == (1, 1)


class TestNegativeControl:
    def test_tampered_pipeline_is_caught(self, monkeypatch):
        # drop one table from the local-closure side; the dual route must
        # notice and name the missing operation
        real = harness.sloc_tables

        def tampered(tables, s, n, k):
            return real(tables, s, n, k)[:-1]

        monkeypatch.setattr(harness, "sloc_tables", tampered)
        r = check_op_side_characterisation([AND], 2, 1, 2)
        assert r.verdict == "fail"
        assert r.counterexample["in_lhs"] and not r.counterexample["in_rhs"]
        monkeypatch.undo()
        # the counterexample disappears once the real pipeline is restored
        assert check_op_side_characterisation([AND], 2, 1, 2).verdict == "pass"

    def test_tampered_single_arity_search_is_caught(self, monkeypatch):
        # an arity-s search that ignores its constraints returns every unary
        # table; the lower arities filter the extra ones out of the window,
        # so only the single-arity variant can see them.  The unary part of
        # the semiclone of AND is the identity, and the least of the extra
        # tables is the constant 0.
        monkeypatch.setattr(harness, "polp_rows",
                            lambda rows, n, k: list(itertools.product(range(k), repeat=k ** n)))
        r = check_op_side_characterisation([AND], 2, 1, 2)
        assert r.verdict == "fail"
        assert r.counterexample == {"variant": "single-arity", "op": "op/1:00"}
        monkeypatch.undo()
        assert check_op_side_characterisation([AND], 2, 1, 2).verdict == "pass"

    def test_tampered_generation_is_caught(self, monkeypatch):
        real = harness.gamma_fixpoint

        def tampered(F, ksize, B, k):
            g = real(F, ksize, B, k)
            return type(g)(g.R | {(1, 1)}, g.S | {(1, 1)}, g.steps)

        monkeypatch.setattr(harness, "gamma_fixpoint", tampered)
        r = check_least_invariant_pair([AND], [(0, 1)], 2)
        assert r.verdict == "fail"
        assert "gamma" in r.counterexample and "minimum" in r.counterexample

    def test_tampered_round_count_is_caught(self, monkeypatch):
        # k = 2 allows at most k^k = 4 rounds
        self._tamper(monkeypatch, "gamma_fixpoint",
                     lambda got, *_: dataclasses.replace(got, steps=5))
        r = check_least_invariant_pair([AND], [(0, 1)], 2)
        assert (r.verdict, r.counterexample) == (
            "fail", {"reason": "round bound exceeded", "steps": 5})
        monkeypatch.undo()
        assert check_least_invariant_pair([AND], [(0, 1)], 2).verdict == "pass"

    def test_tampered_pair_side_windows_are_caught(self, monkeypatch):
        # the pair-side check asks `least_invp` for the window <= s, then
        # for arities {0, s}, then (with an empty pair) for arity s alone;
        # the least map of one window call loses its last entry
        empty1 = RelationPair.of(Relation.empty(2, 1), Relation.empty(2, 1))
        real = harness.least_invp
        for call, Q, variant in ((2, [LEQ_PAIR], "arities {0,s}"),
                                 (3, [empty1, LEQ_PAIR], "single arity s with empty pair")):
            calls = []

            def tampered(F, m, k):
                calls.append(1)
                least = real(F, m, k)
                if len(calls) == call:
                    least.popitem()
                return least

            monkeypatch.setattr(harness, "least_invp", tampered)
            r = check_pair_side_characterisation(Q, 1, 1, 2)
            assert (r.verdict, r.counterexample, r.details) == ("fail", {"variant": variant}, {})
            monkeypatch.undo()
            assert check_pair_side_characterisation(Q, 1, 1, 2).verdict == "pass"

    def test_tampered_relation_clone_is_caught(self, monkeypatch):
        # the generated relational clone of leq at arity 2 holds the
        # identical pairs of {00,11}, leq, geq and A^2, packed 0x99, 0xbb,
        # 0xdd and 0xff; without leq its 2-local closure misses leq, and
        # with the empty relation (0x00) it gains one that the nullary
        # polymorphisms do not preserve
        real = harness.rpclone_generate_stable
        for change, counterexample, details in (
                (lambda got: got.discard(0xbb), {"kind": "generation_incomplete"},
                 {"intermediate_cap": 4}),
                (lambda got: got.add(0x00), {"kind": "logic_error"}, {})):
            def tampered(Q, target_cap, k=None):
                gen = real(Q, target_cap, k)
                change(gen.closure[target_cap])
                return gen

            monkeypatch.setattr(harness, "rpclone_generate_stable", tampered)
            r = check_classical([AND], [LEQ], 2, 2)
            assert (r.verdict, r.counterexample, r.details) == (
                "fail", {**counterexample, "equality": "sLOC relclone vs inv pol"}, details)
            monkeypatch.undo()
            assert check_classical([AND], [LEQ], 2, 2).verdict == "pass"

    def test_tampered_classical_windows_are_caught(self, monkeypatch):
        # negation among the unary polymorphisms, inside the window <= s
        # but outside {0, s}, drops leq from inv pol; a pair-level local
        # closure without its least pair differs from the relation-level one
        real_polp, real_sloc = harness.polp_tables, harness.sloc_pair_masks

        def with_negation(Q, n, k):
            return real_polp(Q, n, k) + ([(1, 0)] if n == 1 else [])

        def without_least(witnesses, s, m, k):
            got = real_sloc(witnesses, s, m, k)
            return got - {min(got)}

        for name, tampered, equality in (
                ("polp_tables", with_negation, "inv pol {0,s} window"),
                ("sloc_pair_masks", without_least, "pair vs relation local closure")):
            monkeypatch.setattr(harness, name, tampered)
            r = check_classical([AND], [LEQ], 2, 2)
            assert (r.verdict, r.counterexample, r.details) == ("fail", {"equality": equality}, {})
            monkeypatch.undo()
        assert check_classical([AND], [LEQ], 2, 2).verdict == "pass"

    @pytest.mark.parametrize("name,change,counterexample", [
        # the 2-local closure of the unary clone of AND loses the identity
        ("sloc_tables", lambda got, *_: got[:-1],
         {"equality": "sloc clone vs pol inv", "n": 1, "sizes": [0, 1, 1]}),
        # the invariants of AND and the identity gain (A^m, empty)
        ("invp_pairs", lambda got, F, m, k: got + [((1 << k ** m) - 1, 0)],
         {"law": "projection forces identical pairs", "m": 0}),
        # the empty unary relation excludes the unary operations too
        ("polp_rows", lambda got, rows, n, k: [] if rows == [(1, 0, 0)] else got,
         {"law": "empty relation excludes nullaries", "n": 1}),
    ])
    def test_tampered_classical_laws_are_caught(self, monkeypatch, name, change, counterexample):
        self._tamper(monkeypatch, name, change)
        r = check_classical([AND], [LEQ], 2, 2)
        assert (r.verdict, r.counterexample) == ("fail", counterexample)
        monkeypatch.undo()
        assert check_classical([AND], [LEQ], 2, 2).verdict == "pass"

    def test_tampered_redundant_arities_are_caught(self, monkeypatch):
        # the invariants of arities 1 and 2 alone lose a polymorphism; the
        # rows arrive as a chain, so they are listed before the real call
        real = harness.polp_rows

        def tampered(rows, n, k):
            rows = list(rows)
            got = real(rows, n, k)
            return got[:-1] if {m for m, _, _ in rows} == {1, 2} else got

        monkeypatch.setattr(harness, "polp_rows", tampered)
        r = check_classical([AND], [LEQ], 2, 2)
        assert (r.verdict, r.counterexample) == (
            "fail", {"equality": "small-arity invariants redundant", "n": 1})
        monkeypatch.undo()
        assert check_classical([AND], [LEQ], 2, 2).verdict == "pass"

    def test_tampered_relaxation_closure_is_caught(self, monkeypatch):
        real = harness.enc
        monkeypatch.setattr(harness, "enc", lambda Q: PairFamily(list(real(Q))[1:]))
        unary = list(all_pairs(C2, 1))
        r = check_finite_collapse(unary, 1, 2)
        assert (r.verdict, r.counterexample) == ("fail", {"enc": 8, "loc": 9, "sloc": 9})
        monkeypatch.undo()
        assert check_finite_collapse(unary, 1, 2).verdict == "pass"

    @staticmethod
    def _tamper(monkeypatch, name, change):
        # harness.<name> hands its check `change(result, *args)` instead
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *args: change(real(*args), *args))

    @pytest.mark.parametrize("name,change,counterexample", [
        # the semiclone of the identity loses it
        ("semiclone_tables", lambda got, *_: got - {max(got)},
         {"law": "projections generate trivials", "op": "op/1:01", "n": 1}),
        # every semiclone gains the constant 1
        ("semiclone_tables", lambda got, F, n, k: got | {(1,) * k ** n},
         {"law": "projections generate trivials", "op": "op/1:01", "n": 1}),
        # the identity no longer preserves ({0}, {0})
        ("polp_rows", lambda got, *_: got[:-1],
         {"law": "polp clone iff identical pairs", "Q": ["pair/1:rho=1,rho'=1"]}),
        # the 1-local closure of the polymorphisms of (empty, empty) shrinks
        ("sloc_tables", lambda got, *_: got[:-1],
         {"law": "polp s-locally closed", "Q": ["pair/1:rho=0,rho'=0"], "n": 1}),
        # AND with the identity loses its largest table
        ("semiclone_tables", lambda got, F, n, k: got - {max(got)} if len(F) > 1 else got,
         {"law": "adding identity adds trivials", "n": 1}),
        # the binary part of AND loses the projection x but keeps y
        ("semiclone_tables",
         lambda got, F, n, k: got - {(0, 0, 1, 1)} if n == 2 and F == [AND] else got,
         {"law": "trivial part all-or-nothing", "n": 2}),
        # the unary part gains const0 and not, and not o const0 is const1
        ("semiclone_tables",
         lambda got, F, n, k: got | {(0, 0), (1, 0)} if n == 1 and AND in F else got,
         {"law": "unary part composes", "ops": ["op/1:10", "op/1:00"]}),
    ])
    def test_tampered_semiclone_laws_are_caught(self, monkeypatch, name, change, counterexample):
        self._tamper(monkeypatch, name, change)
        r = check_semiclone_laws([AND], 2)
        assert (r.verdict, r.counterexample) == ("fail", counterexample)
        monkeypatch.undo()
        assert check_semiclone_laws([AND], 2).verdict == "pass"

    @pytest.mark.parametrize("F,change,counterexample", [
        # the binary clone of and loses and, so the window holds nothing to
        # compose and reads closed, though and(x, x) is the identity
        ([AND], lambda got, F, n, k: got - {AND.table},
         {"fixpoint": False, "direct_window_test": True}),
        # the unary clone of const0 gains not, and not o not is the identity
        ([Operation(2, 1, (0, 0))], lambda got, F, n, k: got | {NOT.table} if n == 1 else got,
         {"fixpoint": True, "direct_window_test": False}),
    ])
    def test_tampered_decide_proj_window_is_caught(self, monkeypatch, F, change, counterexample):
        self._tamper(monkeypatch, "clone_tables", change)
        r = check_projection_decidability(F, 2)
        assert (r.verdict, r.counterexample) == ("fail", counterexample)
        monkeypatch.undo()
        assert check_projection_decidability(F, 2).verdict == "pass"

    @pytest.mark.parametrize("name,change,counterexample", [
        # the unary polymorphisms of const0's invariants lose const0
        ("polp_rows", lambda got, *_: got[:-1], {"law": "extensivity", "op": "op/1:00"}),
        # every invariant family gains (A^m, empty), which const0 breaks
        ("invp_pairs", lambda got, F, m, k: got + [((1 << k ** m) - 1, 0)],
         {"law": "extensivity", "op": "op/1:00"}),
        # the invariants of pol({()}, {()}) lose that pair
        ("invp_pairs", lambda got, *_: got[:-1],
         {"law": "extensivity", "pair": "pair/0:rho=1,rho'=1"}),
        # the invariants of a polymorphism set lose their last pair
        ("invp_pairs", lambda got, F, m, k: got[:-1] if len(F) > 1 else got,
         {"law": "invp_polp_invp", "op": "op/1:00"}),
        # the nullary polymorphisms of an invariant family vanish
        ("polp_rows", lambda got, Q, n, k: [] if n == 0 and len(Q) > 1 else got,
         {"law": "polp_invp_polp", "pair": "pair/0:rho=1,rho'=1"}),
        # the invariants of two operations gain (A^m, empty)
        ("invp_pairs", lambda got, F, m, k:
         got + [((1 << k ** m) - 1, 0)] if isinstance(F, list) and len(F) == 2 else got,
         {"law": "invp_antitone", "ops": ["op/1:00", "op/1:01"]}),
        # the polymorphisms of two pairs gain the constant 0
        ("polp_rows", lambda got, Q, n, k:
         got + [(0,)] if n == 0 and isinstance(Q, list) and len(Q) == 2 else got,
         {"law": "polp_antitone", "pairs": ["pair/0:rho=0,rho'=0", "pair/0:rho=1,rho'=0"]}),
    ])
    def test_tampered_galois_maps_are_caught(self, monkeypatch, name, change, counterexample):
        self._tamper(monkeypatch, name, change)
        r = check_galois_axioms(2)
        assert (r.verdict, r.counterexample) == ("fail", counterexample)
        monkeypatch.undo()
        assert check_galois_axioms(2).verdict == "pass"

    @pytest.mark.parametrize("name,change,counterexample", [
        # const0 is not recovered from its invariant pairs
        ("polp_rows", lambda got, *_: got[:-1], {"H": ["op/1:00"], "recovered": []}),
        # {00, 01, 10} passes for closed once the closure loses 11
        ("semigroup_tables", lambda got, *_: got - {max(got)} if got else got,
         {"H": ["op/1:00", "op/1:01", "op/1:10"],
          "recovered": ["op/1:00", "op/1:01", "op/1:10", "op/1:11"]}),
        # with not taken for the identity, {id} reads as a proper semigroup
        ("projection_table", lambda got, *_: (1, 0),
         {"H": ["op/1:01"], "reason": "proper semigroup without strict invariant pair"}),
    ])
    def test_tampered_semigroup_recovery_is_caught(self, monkeypatch, name, change, counterexample):
        self._tamper(monkeypatch, name, change)
        r = check_transformation_semigroups(2)
        assert (r.verdict, r.counterexample) == ("fail", counterexample)
        monkeypatch.undo()
        assert check_transformation_semigroups(2).verdict == "pass"

    def test_tampered_union_is_caught(self, monkeypatch):
        # every union becomes (A^2, empty), which no witness covers; the
        # first s-directed sample is the one reported
        outside = RelationPair(2, 2, Relation(2, 2, 0xf), Relation.empty(2, 2))
        monkeypatch.setattr(harness, "union_family", lambda T: outside)
        r = check_directed_unions(SPREAD_PAIRS, 2, 2, 2, seed=0)
        assert (r.verdict, r.counterexample) == ("fail", {
            "T": ["pair/2:rho=f,rho'=4", "pair/2:rho=5,rho'=4", "pair/2:rho=c,rho'=c",
                  "pair/2:rho=f,rho'=c"],
            "union": "pair/2:rho=f,rho'=0"})
        monkeypatch.undo()
        assert check_directed_unions(SPREAD_PAIRS, 2, 2, 2, seed=0).verdict == "pass"


class TestDeterminism:
    def test_seeded_check_is_reproducible(self):
        a = check_directed_unions([LEQ_PAIR], 2, 2, 2, seed=5, samples=40)
        b = check_directed_unions([LEQ_PAIR], 2, 2, 2, seed=5, samples=40)
        assert a.verdict == b.verdict == "pass"
        assert a.details == b.details
        assert a.params == b.params

    def test_directed_unions_skip_and_test_unions(self):
        # a 36-member closure: of 50 samples, 8 are not 2-directed and are
        # skipped, and the unions of the other 42 are tested
        r = check_directed_unions(SPREAD_PAIRS, 2, 2, 2, seed=0)
        assert (r.verdict, r.details) == ("pass", {"closure_size": 36, "checked": 42})

    def test_directed_unions_of_an_empty_closure(self):
        # with no witness no set is covered: the closure is empty and no
        # family is sampled
        for s in (0, 2):
            r = check_directed_unions([], s, 2, 2)
            assert (r.verdict, r.counterexample, r.details) == (
                "pass", None, {"closure_size": 0, "checked": 0}), s

    def test_other_seeds_also_pass(self):
        for seed in (0, 1, 2, 3):
            r = check_directed_unions([LEQ_PAIR], 2, 2, 2, seed=seed, samples=30)
            assert r.verdict == "pass"


class TestIndividualChecks:
    def test_op_side_over_several_families(self):
        for F in ([NOT], [AND, NOT], [Operation(2, 0, (1,))], []):
            for s in (0, 1, 2):
                for n in (1, 2):
                    r = check_op_side_characterisation(F, s, n, 2)
                    assert r.verdict == "pass", (F, s, n, r.counterexample)

    def test_op_side_builds_no_pair_family(self, monkeypatch):
        built = []
        init = core.PairFamily.__init__

        def counted(self, members=()):
            built.append(1)
            init(self, members)

        monkeypatch.setattr(core.PairFamily, "__init__", counted)
        ops = list(all_operations(C2, 2))
        for F in ([AND], [NOT, ops[6]], [ops[1], ops[7], NOT]):
            for n in (1, 2):
                assert check_op_side_characterisation(F, 3, n, 2).verdict == "pass"
        assert built == []

    def test_passing_op_side_builds_no_operation(self, monkeypatch):
        # the check runs on value tables from start to end: a pass builds
        # no Operation and no OpFamily
        built = []
        init = core.OpFamily.__init__

        def counted(self, members=()):
            built.append("OpFamily")
            init(self, members)

        ops = list(all_operations(C2, 2))
        monkeypatch.setattr(core.OpFamily, "__init__", counted)
        monkeypatch.setattr(core.Operation, "__post_init__",
                            lambda self: built.append("Operation"))
        for F in ([AND], [NOT, ops[6]], [ops[1], ops[7], NOT], []):
            for s in (0, 1, 2, 3):
                for n in (0, 1, 2):
                    assert check_op_side_characterisation(F, s, n, 2).verdict == "pass"
        assert built == []

    def test_passing_op_side_builds_no_relation(self, monkeypatch):
        # images and scopes are taken on relation masks: with both caches
        # cold, neither the check nor least_invp builds a Relation
        built = []
        preserve.op_image_mask.cache_clear()
        preserve._scopes.cache_clear()
        monkeypatch.setattr(core.Relation, "__post_init__", lambda self: built.append(self))
        ops = list(all_operations(C2, 2))
        for F in ([AND], [NOT, ops[6]], [ops[1], ops[7], NOT], []):
            for s in (0, 1, 2, 3):
                for n in (0, 1, 2):
                    assert check_op_side_characterisation(F, s, n, 2).verdict == "pass"
            for m in range(4):
                preserve.least_invp(F, m, 2)
        assert built == []

    @pytest.mark.parametrize("k", [2, 3])
    def test_passing_checks_build_no_family(self, monkeypatch, k):
        # the checks run on value tables and masks: of all passing entries
        # only finite-collapse builds a family, the one `enc` returns
        built, entries = [], []
        for cls in (core.OpFamily, core.PairFamily):
            monkeypatch.setattr(cls, "__init__", lambda self, members=(), init=cls.__init__:
                                built.append(type(self).__name__) or init(self, members))

        def counted(run):
            def wrapped(inputs):
                start = len(built)
                r = run(inputs)
                entries.append((r.name, r.verdict, built[start:]))
                return r
            return wrapped

        monkeypatch.setattr(harness, "CHECKS", [(name, counted(run)) for name, run in CHECKS])
        run_checks("all", k)
        assert len(entries) == len(CHECKS)
        assert [(name, families) for name, verdict, families in entries
                if verdict == "pass" and families] == [("finite-collapse", ["PairFamily"])]
        assert {verdict for _, verdict, _ in entries} == ({"pass"} if k == 2 else {"pass", "refused"})

    def test_least_pair_various_seeds(self):
        for B in ([], [(0, 0)], [(0, 1), (1, 0)]):
            r = check_least_invariant_pair([NOT], B, 2)
            assert r.verdict == "pass"
            assert r.details["steps"] <= 4

    def test_finite_collapse_arity2(self):
        r = check_finite_collapse([LEQ_PAIR], 2, 2)
        assert r.verdict == "pass"

    def test_pair_side_strict_seed(self):
        strict = RelationPair.of(
            Relation.from_tuples(C2, 1, [(0,), (1,)]),
            Relation.from_tuples(C2, 1, [(1,)]))
        r = check_pair_side_characterisation([strict], 2, 1, 2)
        assert r.verdict == "pass", r.counterexample

    def test_pair_side_empty_pair_variant(self):
        empty1 = RelationPair.of(Relation.empty(2, 1), Relation.empty(2, 1))
        r = check_pair_side_characterisation([empty1, LEQ_PAIR], 1, 1, 2)
        assert r.verdict == "pass", r.counterexample

    def test_semiclone_laws_more_families(self):
        for F in ([], [NOT], [AND, Operation(2, 0, (0,))]):
            assert check_semiclone_laws(F, 2).verdict == "pass"

    def test_projection_decidability_cases(self):
        for F, want in (([AND], False), ([Operation(2, 1, (0, 0))], True), ([], True)):
            r = check_projection_decidability(F, 2)
            assert r.verdict == "pass"
            assert r.details["is_semiclone_without_projections"] is want

    def test_transformation_semigroups(self):
        assert check_transformation_semigroups(2).verdict == "pass"

    def test_classical_other_relations(self):
        eq = Relation.from_tuples(C2, 2, [(0, 0), (1, 1)])
        for F, Q1 in (([NOT], [eq]), ([], [LEQ]), ([AND], [])):
            r = check_classical(F, Q1, 2, 2)
            assert r.verdict == "pass", r.counterexample

    def test_small_carrier(self):
        assert check_galois_axioms(1).verdict == "pass"
        assert check_transformation_semigroups(1).verdict == "pass"


class TestPairSideCheck:
    @staticmethod
    def _pin_grid():
        # every k=2 single pair of arity <= 2 at s <= 2 with m its arity;
        # every family of at most two pairs of arity <= 2 at k = 0 and 1, at
        # s <= 2 and every m from the largest seed arity to 2; 8 seeded k=3
        # unary pairs at s = 1
        cases = [([p], s, a, 2) for a in range(3) for p in all_pairs(C2, a) for s in range(3)]
        for k in (0, 1):
            pairs = [p for a in range(3) for p in all_pairs(Carrier(k), a)]
            families = [[]] + [[p] for p in pairs] + list(map(list, itertools.combinations(pairs, 2)))
            cases += [(Q, s, m, k) for Q in families
                      for m in range(max([0] + [p.arity for p in Q]), 3) for s in range(3)]
        unary = list(all_pairs(Carrier(3), 1))
        return cases + [([p], 1, 1, 3) for p in random.Random(37).sample(unary, 8)]

    def test_reports_pinned(self):
        # verdict, counterexample and details of every report on the grid
        cases = self._pin_grid()
        digest = hashlib.sha256()
        for Q, s, m, k in cases:
            r = check_pair_side_characterisation(Q, s, m, k)
            digest.update(json.dumps([r.verdict, r.counterexample, r.details],
                                     sort_keys=True).encode())
        assert (len(cases), digest.hexdigest()) == (PAIR_SIDE_PIN_CASES, PAIR_SIDE_PIN)

    @staticmethod
    def _tamper(monkeypatch, change):
        # change the s-local closure that the generated side hands over, a
        # set of (rho, rho') masks; `change` also gets the mask of A^m
        real = harness.sloc_pair_masks

        def tampered(witnesses, s, m, k):
            return change(real(witnesses, s, m, k), (1 << k ** m) - 1)

        monkeypatch.setattr(harness, "sloc_pair_masks", tampered)

    def test_dropped_pair_is_generation_incomplete(self, monkeypatch):
        # the generated side loses its least pair in `PairFamily` order;
        # the reports are those of the check that compared `PairFamily`s
        self._tamper(monkeypatch, lambda got, full: got - {min(got)})
        for Q, s, m, pair, cap in (([LEQ_PAIR], 1, 2, "pair/2:rho=9,rho'=9", 4),
                                   ([STRICT01], 1, 1, "pair/1:rho=2,rho'=2", 3),
                                   ([NAND_TO_NEQ], 2, 2, "pair/2:rho=0,rho'=0", 5),
                                   ([LEQ_TO_EQ], 2, 2, "pair/2:rho=9,rho'=9", 5)):
            r = check_pair_side_characterisation(Q, s, m, 2)
            assert (r.verdict, r.counterexample, r.details) == (
                "fail", {"kind": "generation_incomplete", "pair": pair, "missing": 1},
                {"intermediate_cap": cap}), (Q, s)

    def test_added_pair_is_a_logic_error(self, monkeypatch):
        # the generated side gains (A^m, empty), which no polymorphism of
        # arity >= 1 preserves
        self._tamper(monkeypatch, lambda got, full: got | {(full, 0)})
        for Q, s, m, pair, cap in (([LEQ_PAIR], 1, 2, "pair/2:rho=f,rho'=0", 4),
                                   ([STRICT01], 1, 1, "pair/1:rho=3,rho'=0", 3),
                                   ([LEQ_TO_EQ], 2, 2, "pair/2:rho=f,rho'=0", 5)):
            r = check_pair_side_characterisation(Q, s, m, 2)
            assert (r.verdict, r.counterexample, r.details) == (
                "fail", {"kind": "logic_error", "pair": pair}, {"intermediate_cap": cap}), (Q, s)

    def test_counterexample_is_first_in_family_order(self, monkeypatch):
        # with (A^2, empty), masks (0xf, 0x0), and ({01}, {01}), masks
        # (0x2, 0x2), added, the first by (rho, rho') is the second one;
        # with nothing generated, every invariant pair is missing
        self._tamper(monkeypatch, lambda got, full: got | {(0xf, 0x0), (0x2, 0x2)})
        for Q, s, cap in (([LEQ_PAIR], 1, 4), ([LEQ_TO_EQ], 2, 5)):
            r = check_pair_side_characterisation(Q, s, 2, 2)
            assert (r.counterexample, r.details) == (
                {"kind": "logic_error", "pair": "pair/2:rho=2,rho'=2"},
                {"intermediate_cap": cap}), Q
        self._tamper(monkeypatch, lambda got, full: set())
        for Q, s, missing in (([LEQ_PAIR], 1, 4), ([LEQ_TO_EQ], 2, 9)):
            r = check_pair_side_characterisation(Q, s, 2, 2)
            assert r.counterexample == {"kind": "generation_incomplete",
                                        "pair": "pair/2:rho=9,rho'=9", "missing": missing}, Q

    def test_passing_check_builds_no_pair_object(self, monkeypatch):
        # both sides are compared as (rho, rho') masks: once its inputs
        # exist, a passing check builds no RelationPair and no PairFamily
        built = []
        init = core.PairFamily.__init__

        def counted(self, members=()):
            built.append("PairFamily")
            init(self, members)

        monkeypatch.setattr(core.PairFamily, "__init__", counted)
        monkeypatch.setattr(core.RelationPair, "__post_init__",
                            lambda self: built.append("RelationPair"))
        for Q, s, m in (([LEQ_TO_EQ], 2, 2), ([LEQ_PAIR], 1, 2), ([STRICT01], 2, 1)):
            assert check_pair_side_characterisation(Q, s, m, 2).verdict == "pass"
        assert built == []

    def test_seed_above_the_target_arity_enters(self):
        # the 4-ary pair ({0000}, empty) at target arity 0: the stable rule
        # counts its increments from cap 3, so the seed enters at the first,
        # and stops at 6; counting from cap 0 it stopped at 2 without the
        # seed and missed two pairs
        Q = [RelationPair(2, 4, Relation(2, 4, 1), Relation.empty(2, 4))]
        for s in (0, 1):
            r = check_pair_side_characterisation(Q, s, 0, 2)
            assert (r.verdict, r.details) == ("pass", {"size": 3, "intermediate_cap": 6}), s
