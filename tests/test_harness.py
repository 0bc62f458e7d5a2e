import itertools
import json

import pytest

from finclone import core, harness, preserve
from finclone.core import (
    Carrier,
    DomainError,
    Operation,
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
        # pair side before it runs the rpclone closure
        built = []
        monkeypatch.setattr(harness, "least_invp", lambda *args: built.append(args))
        monkeypatch.setattr(harness, "rpclone_generate_stable",
                            lambda *args: built.append(args))
        with pytest.raises(DomainError, match="locality parameter must be >= 0"):
            check_op_side_characterisation([AND], -1, 1, 2)
        with pytest.raises(DomainError, match="locality parameter must be >= 0"):
            check_pair_side_characterisation([LEQ_PAIR], -1, 2, 2)
        assert built == []


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
        monkeypatch.setattr(harness, "polp_least",
                            lambda least, n, k: list(itertools.product(range(k), repeat=k ** n)))
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


class TestDeterminism:
    def test_seeded_check_is_reproducible(self):
        a = check_directed_unions([LEQ_PAIR], 2, 2, 2, seed=5, samples=40)
        b = check_directed_unions([LEQ_PAIR], 2, 2, 2, seed=5, samples=40)
        assert a.verdict == b.verdict == "pass"
        assert a.details == b.details
        assert a.params == b.params

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
