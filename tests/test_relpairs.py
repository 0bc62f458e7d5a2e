import functools
import hashlib
import itertools
import random
import time
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finclone.core import (
    CapExceeded,
    Carrier,
    DomainError,
    PairFamily,
    Relation,
    RelationPair,
    all_pairs,
    bit_indices,
    capped,
    check_cap,
    enc,
    submasks,
)
from finclone import relpairs
from finclone.preserve import invp, preserves
from finclone.relpairs import (
    _Closure,
    SuperpositionSpec,
    general_superposition,
    is_s_directed,
    loc_pairs,
    rpclone_generate,
    rpclone_generate_stable,
    sloc_pairs,
    union_family,
)

C2 = Carrier(2)
LEQ = Relation.from_tuples(C2, 2, [(0, 0), (0, 1), (1, 1)])
LEQ_PAIR = RelationPair.identical(LEQ)


# the closure-engine regression pin (TestClosureEngine.test_regression_pin)
PIN_CASES = 933
PIN_CLOSURES = "66cc685c9032f888fabfa040d9d96c16a92ea7c1532e10661267719dbcd5810e"
PIN_REFUSALS = {
    50: (181, "8a08a732084ece7b8ca3a3645d35d2af8ade4b3d652c133a6b5b268f28c0da34"),
    500: (46, "2c299afc1e85023a5a51586e3c01e7eecddbd064b59e5de92f71d39a327ba169"),
    3_000: (2, "e00ecf770f671bbd2f665a01f775ffcd1baf3b5870d20d10f9d25ae27d954b3d"),
}


def pair_of(k, arity, rho_tuples, rho_prime_tuples):
    c = Carrier(k)
    return RelationPair.of(
        Relation.from_tuples(c, arity, rho_tuples),
        Relation.from_tuples(c, arity, rho_prime_tuples),
    )


def tuples_of(p):
    return set(p.rho.tuples()), set(p.rho_prime.tuples())


class TestSpecValidation:
    def test_output_map_length(self):
        with pytest.raises(DomainError):
            SuperpositionSpec(2, 1, (0, 1), ())

    def test_output_map_range(self):
        with pytest.raises(DomainError):
            SuperpositionSpec(1, 1, (1,), ())

    def test_input_map_range(self):
        with pytest.raises(DomainError):
            SuperpositionSpec(1, 1, (0,), ((2,),))

    @pytest.mark.parametrize("args", [
        (1.5, 1, (0,), ()), (2, True, (0,), ()), (2, 1, (0.0,), ()),
        (2, 1, (0,), ((False,),)), (True, 0, (), ()),
    ])
    def test_entries_must_be_ints(self, args):
        with pytest.raises(DomainError, match="^variable counts and map values must be integers$"):
            SuperpositionSpec(*args)

    def test_input_count_mismatch(self):
        spec = SuperpositionSpec(1, 1, (0,), ((0,),))
        with pytest.raises(DomainError):
            general_superposition(spec, [], 2)

    def test_input_arity_mismatch(self):
        spec = SuperpositionSpec(2, 2, (0, 1), ((0,),))
        with pytest.raises(DomainError):
            general_superposition(spec, [LEQ_PAIR], 2)


class TestGeneralSuperposition:
    def test_identity_scheme(self):
        spec = SuperpositionSpec(2, 2, (0, 1), ((0, 1),))
        assert general_superposition(spec, [LEQ_PAIR], 2) == LEQ_PAIR

    def test_componentwise(self):
        # each component is superposed on its own
        p = pair_of(2, 2, [(0, 0), (0, 1), (1, 1)], [(0, 1)])
        spec = SuperpositionSpec(2, 2, (1, 0), ((0, 1),))
        got = general_superposition(spec, [p], 2)
        assert tuples_of(got) == ({(0, 0), (1, 0), (1, 1)}, {(1, 0)})

    def test_join_two_pairs_on_shared_variable(self):
        # composition of <= with itself over a middle variable is still <=
        spec = SuperpositionSpec(3, 2, (0, 2), ((0, 1), (1, 2)))
        got = general_superposition(spec, [LEQ_PAIR, LEQ_PAIR], 2)
        assert got == LEQ_PAIR

    def test_cap_refusal(self):
        spec = SuperpositionSpec(25, 1, (0,), ())
        with pytest.raises(CapExceeded):
            general_superposition(spec, [], 2)

    def test_matches_definition_random(self):
        # direct set-level evaluation of the defining formula
        rng = random.Random(11)
        pairs1 = list(all_pairs(C2, 1))
        pairs2 = list(all_pairs(C2, 2))
        for _ in range(40):
            p = rng.choice(pairs2)
            q = rng.choice(pairs1)
            mu = rng.randint(1, 3)
            m = rng.randint(0, 2)
            beta = tuple(rng.randrange(mu) for _ in range(m))
            a1 = tuple(rng.randrange(mu) for _ in range(2))
            a2 = (rng.randrange(mu),)
            spec = SuperpositionSpec(mu, m, beta, (a1, a2))
            got = general_superposition(spec, [p, q], 2)
            for rel_got, r1, r2 in ((got.rho, p.rho, q.rho),
                                    (got.rho_prime, p.rho_prime, q.rho_prime)):
                want = {
                    tuple(a[v] for v in beta)
                    for a in C2.tuples(mu)
                    if tuple(a[v] for v in a1) in set(r1.tuples())
                    and tuple(a[v] for v in a2) in set(r2.tuples())
                }
                assert set(rel_got.tuples()) == want


class TestInvpClosedUnderSuperposition:
    def test_random_specs_stay_invariant(self):
        from finclone.core import Operation
        AND = Operation(2, 2, (0, 0, 0, 1))
        NOT = Operation(2, 1, (1, 0))
        rng = random.Random(23)
        for F in ([AND], [NOT], [AND, NOT]):
            inv1 = list(invp(F, 1, 2))
            inv2 = list(invp(F, 2, 2))
            members = {1: inv1, 2: inv2}
            for _ in range(30):
                mu = rng.randint(1, 3)
                m = rng.randint(1, 2)
                beta = tuple(rng.randrange(mu) for _ in range(m))
                n_inputs = rng.randint(0, 2)
                chosen, alphas = [], []
                for _ in range(n_inputs):
                    ar = rng.choice((1, 2))
                    chosen.append(rng.choice(members[ar]))
                    alphas.append(tuple(rng.randrange(mu) for _ in range(ar)))
                spec = SuperpositionSpec(mu, m, beta, tuple(alphas))
                out = general_superposition(spec, chosen, 2)
                for f in F:
                    assert preserves(f, out)


class TestRpClone:
    def test_leq_target1(self):
        res = rpclone_generate([LEQ_PAIR], 1)
        want = PairFamily([full_pair(0, 2), full_pair(1, 2)])
        assert res.pairs == want
        assert res.intermediate_cap == 3
        assert res.slice_changed_at_last_cap is False

    def test_empty_seed_needs_k(self):
        with pytest.raises(DomainError):
            rpclone_generate([], 1)
        res = rpclone_generate([], 1, k=2)
        assert res.pairs == PairFamily([full_pair(0, 2), full_pair(1, 2)])

    def test_negative_target_rejected(self):
        with pytest.raises(DomainError, match="target arity must be >= 0"):
            rpclone_generate([LEQ_PAIR], -1)

    def test_no_empty_pairs_injected(self):
        res = rpclone_generate([LEQ_PAIR], 2)
        for p in res.pairs:
            assert len(p.rho) > 0

    def test_strict_seed_produces_strict_pairs(self):
        p = pair_of(2, 1, [(0,), (1,)], [(1,)])
        res = rpclone_generate([p], 1)
        assert p in res.pairs
        assert any(not q.is_identical() for q in res.pairs)

    def test_idempotent_on_own_output(self):
        res = rpclone_generate_stable([LEQ_PAIR], 2)
        again = rpclone_generate_stable(list(res.pairs), 2)
        assert again.pairs == res.pairs

    def test_monotone_in_intermediate_cap(self):
        seed = [LEQ_PAIR, pair_of(2, 1, [(0,), (1,)], [(0,)])]
        prev = None
        for c in range(2, 5):
            cur = rpclone_generate(seed, 2, intermediate_cap=c).pairs
            if prev is not None:
                assert prev.issubset(cur)
            prev = cur

    def test_contains_invp_seed_closure_consequences(self):
        # the closure of an invariant family stays inside that family
        from finclone.core import Operation
        AND = Operation(2, 2, (0, 0, 0, 1))
        fam = set(invp([AND], 1, 2)) | set(invp([AND], 2, 2))
        res = rpclone_generate_stable(
            [p for p in fam if len(p.rho) > 0], 2)
        for p in res.pairs:
            assert preserves(AND, p)

    def test_flag_of_each_stopping_rule(self):
        # slice sizes 1, 2, 3, 3, 3 at caps 0-4, the seeds entering at caps
        # 1 and 2: the fixed rule's last increment changed the slice at cap
        # 2 and left it at cap 3; the stable rule counts from cap 1, one
        # below the largest seed arity, finds caps 1 and 3 apart and stops
        # at cap 4 with the slice unchanged since cap 2
        Q = [pair_of(2, 1, [], []), pair_of(2, 2, [(0, 0), (1, 0)], [])]
        assert [c[:1] for c in _Closure(Q, 2, 4).counts] == [(1,), (2,), (3,), (3,), (3,)]
        stable = rpclone_generate_stable(Q, 0)
        assert (stable.intermediate_cap, stable.slice_changed_at_last_cap) == (4, False)
        for c, changed in ((2, True), (3, False)):
            fixed = rpclone_generate(Q, 0, c)
            assert (fixed.intermediate_cap, fixed.slice_changed_at_last_cap) == (c, changed)
            assert fixed.pairs == stable.pairs

    def test_seed_above_the_target_arity_enters(self):
        # the 4-ary pair ({0000}, empty) at target arity 0: slice sizes 1,
        # 1, 1, 1, 2, 2, 2 at caps 0-6, the pair (A^0, empty) appearing once
        # the seed enters at cap 4; both rules reach that cap by default
        Q = [pair_of(2, 4, [(0, 0, 0, 0)], [])]
        assert [c[0] for c in _Closure(Q, 2, 6).counts] == [1, 1, 1, 1, 2, 2, 2]
        want = PairFamily([pair_of(2, 0, [()], []), full_pair(0, 2)])
        fixed, stable = rpclone_generate(Q, 0), rpclone_generate_stable(Q, 0)
        assert (fixed.pairs, fixed.intermediate_cap, fixed.slice_changed_at_last_cap) == \
            (want, 4, True)
        assert (stable.pairs, stable.intermediate_cap, stable.slice_changed_at_last_cap) == \
            (want, 6, False)

    def test_stable_rule_gives_up_at_b_plus_3(self, monkeypatch):
        # no real input is known to reach the give-up branch, so a closure
        # whose slice at arity <= target grows at every cap stands in: its
        # arity-0 count reads the number of caps built
        class Growing(_Closure):
            def grow(self):
                super().grow()
                self.counts[-1] = (len(self.counts), *self.counts[-1][1:])

        monkeypatch.setattr(relpairs, "_Closure", Growing)
        unary = pair_of(2, 1, [(0,), (1,)], [(1,)])
        for Q, target, b in (([LEQ_PAIR], 0, 1), ([LEQ_PAIR], 2, 2), ([unary], 1, 1)):
            res = rpclone_generate_stable(Q, target)
            assert type(res.closure) is Growing
            assert res.intermediate_cap == b + 3, (Q, target)
            assert res.slice_changed_at_last_cap is True, (Q, target)

    def test_cap_below_a_seed_arity_rejected(self):
        # a seed above the intermediate cap would never enter the closure
        Q = [pair_of(2, 4, [(0, 0, 0, 0)], [])]
        for c in range(4):
            with pytest.raises(DomainError, match="^intermediate cap must be >= the largest seed arity$"):
                rpclone_generate(Q, 0, c)
        with pytest.raises(DomainError, match="^intermediate cap must be >= target cap$"):
            rpclone_generate(Q, 1, 0)

    def test_max_pairs_refusal(self, monkeypatch):
        monkeypatch.setattr(relpairs, "MAX_PAIRS", 5)
        with pytest.raises(CapExceeded, match=r"^rpclone closure size: estimated cost \d+ exceeds cap 5$"):
            rpclone_generate([LEQ_PAIR], 2)

    def test_max_pairs_boundary(self, monkeypatch):
        # refused iff the closure at the intermediate cap has more than
        # MAX_PAIRS members, however early the refusal comes
        seeds = [[LEQ_PAIR], [pair_of(2, 1, [(0,), (1,)], [(1,)])],
                 [pair_of(2, 2, [(0, 1), (1, 0), (1, 1)], [(0, 1)])]]
        for seed in seeds:
            for c in (2, 3, 4):
                monkeypatch.undo()
                n = sum(map(len, _Closure(seed, 2, c)))
                monkeypatch.setattr(relpairs, "MAX_PAIRS", n)
                rpclone_generate(seed, 1, intermediate_cap=c)
                monkeypatch.setattr(relpairs, "MAX_PAIRS", n - 1)
                with pytest.raises(CapExceeded, match="rpclone closure size"):
                    rpclone_generate(seed, 1, intermediate_cap=c)

    def test_max_pairs_refused_as_the_closure_crosses_it(self):
        # leq-to-eq at intermediate cap 6 outgrows the default 200,000 pairs;
        # the refusal comes as the closure crosses the bound, long before the
        # closure is complete
        eq = Relation.from_tuples(C2, 2, [(0, 0), (1, 1)])
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=r"^rpclone closure size: estimated cost \d+ "
                                              "exceeds cap 200000$"):
            rpclone_generate([RelationPair.of(LEQ, eq)], 4)
        assert time.perf_counter() - start < 5

    def test_tuple_space_refused_before_any_closure(self, monkeypatch):
        # cap c - 1 fits the tuple-space cap, cap c does not: the refusal
        # must come before the cheaper closure at c - 1 is built: no cap of
        # the closure is grown
        calls, grow = [], relpairs._Closure.grow
        monkeypatch.setattr(relpairs._Closure, "grow",
                            lambda self: calls.append(len(self)) or grow(self))
        for c in (3, 4, 5):
            with pytest.raises(CapExceeded, match="rpclone tuple space"):
                with capped(2 ** (c - 1)):
                    rpclone_generate([LEQ_PAIR], 2, intermediate_cap=c)
        assert calls == []


def permute(p: RelationPair, pi: Sequence[int]) -> RelationPair:
    """Reorder coordinates: output coordinate j reads input coordinate pi(j)."""
    m = p.arity
    if sorted(pi) != list(range(m)):
        raise DomainError("coordinate permutation must be a bijection on the arity")
    spec = SuperpositionSpec(m, m, tuple(pi), (tuple(range(m)),))
    return general_superposition(spec, [p], p.k)


def identify(p: RelationPair, merge: Sequence[int], target_arity: int) -> RelationPair:
    """Identify coordinates via a surjection merge: arity -> target_arity."""
    if len(merge) != p.arity:
        raise DomainError("merge map length must equal the pair arity")
    if set(merge) != set(range(target_arity)):
        raise DomainError("merge map must be onto the target coordinates")
    spec = SuperpositionSpec(target_arity, target_arity, tuple(range(target_arity)), (tuple(merge),))
    return general_superposition(spec, [p], p.k)


def add_fictitious(p: RelationPair, positions: Sequence[int]) -> RelationPair:
    """Insert unconstrained coordinates at the given output positions."""
    m_out = p.arity + len(positions)
    positions = sorted(positions)
    if len(set(positions)) != len(positions):
        raise DomainError("duplicate insertion positions")
    for pos in positions:
        if not 0 <= pos < m_out:
            raise DomainError(f"insertion position {pos} out of range")
    old_of_new = [v for v in range(m_out) if v not in positions]
    alpha = tuple(old_of_new)
    spec = SuperpositionSpec(m_out, m_out, tuple(range(m_out)), (alpha,))
    return general_superposition(spec, [p], p.k)


def project_onto(p: RelationPair, coords: Sequence[int]) -> RelationPair:
    """Keep only the listed coordinates (in the listed order)."""
    for c in coords:
        if not 0 <= c < p.arity:
            raise DomainError(f"coordinate {c} out of range for arity {p.arity}")
    spec = SuperpositionSpec(p.arity, len(coords), tuple(coords), (tuple(range(p.arity)),))
    return general_superposition(spec, [p], p.k)


def intersect(p: RelationPair, q: RelationPair) -> RelationPair:
    """Componentwise intersection of two pairs of equal arity."""
    if p.arity != q.arity:
        raise DomainError("intersection requires equal arity")
    m = p.arity
    ident = tuple(range(m))
    spec = SuperpositionSpec(m, m, ident, (ident, ident))
    return general_superposition(spec, [p, q], p.k)


def diagonal(m: int, i: int, j: int, k: int) -> RelationPair:
    """The m-ary identical pair of tuples whose coordinates i and j agree.
    Produced from no inputs (an empty-index superposition)."""
    if not (0 <= i < m and 0 <= j < m):
        raise DomainError("diagonal coordinates out of range")
    beta = []
    drop = max(i, j)
    keep = min(i, j)
    fresh = 0
    var_of = {}
    for c in range(m):
        if c == drop and i != j:
            continue
        var_of[c] = fresh
        fresh += 1
    for c in range(m):
        if c == drop and i != j:
            beta.append(var_of[keep])
        else:
            beta.append(var_of[c])
    spec = SuperpositionSpec(fresh, m, tuple(beta), ())
    return general_superposition(spec, [], k)


def full_pair(m: int, k: int) -> RelationPair:
    """The m-ary identical pair on all tuples, from an empty-index
    superposition; at m = 0 this is the pair on the empty tuple alone."""
    spec = SuperpositionSpec(m, m, tuple(range(m)), ())
    return general_superposition(spec, [], k)


class TestElementaryOps:
    def test_permute(self):
        p = pair_of(2, 2, [(0, 1)], [(0, 1)])
        got = permute(p, (1, 0))
        assert tuples_of(got) == ({(1, 0)}, {(1, 0)})

    def test_permute_rejects_non_bijection(self):
        with pytest.raises(DomainError):
            permute(LEQ_PAIR, (0, 0))

    def test_identify(self):
        got = identify(LEQ_PAIR, (0, 0), 1)
        assert tuples_of(got) == ({(0,), (1,)}, {(0,), (1,)})

    def test_identify_strict_pair(self):
        p = pair_of(2, 2, [(0, 0), (0, 1), (1, 1)], [(0, 1)])
        got = identify(p, (0, 0), 1)
        assert tuples_of(got) == ({(0,), (1,)}, set())

    def test_add_fictitious(self):
        p = pair_of(2, 1, [(1,)], [(1,)])
        got = add_fictitious(p, [0])
        assert tuples_of(got) == ({(0, 1), (1, 1)}, {(0, 1), (1, 1)})

    def test_project_onto(self):
        got = project_onto(LEQ_PAIR, [0])
        assert tuples_of(got) == ({(0,), (1,)}, {(0,), (1,)})
        got = project_onto(LEQ_PAIR, [1, 0])
        assert tuples_of(got) == ({(0, 0), (1, 0), (1, 1)},
                                  {(0, 0), (1, 0), (1, 1)})

    def test_intersect_matches_direct_masks(self):
        rng = random.Random(4)
        pairs = list(all_pairs(C2, 2))
        for _ in range(40):
            p, q = rng.choice(pairs), rng.choice(pairs)
            got = intersect(p, q)
            assert got.rho.mask == p.rho.mask & q.rho.mask
            assert got.rho_prime.mask == p.rho_prime.mask & q.rho_prime.mask

    def test_intersect_rejects_arity_mismatch(self):
        with pytest.raises(DomainError):
            intersect(LEQ_PAIR, full_pair(1, 2))

    def test_diagonal(self):
        got = diagonal(2, 0, 1, 2)
        assert got.is_identical()
        assert set(got.rho.tuples()) == {(0, 0), (1, 1)}
        got3 = diagonal(3, 0, 2, 2)
        assert set(got3.rho.tuples()) == {t for t in C2.tuples(3) if t[0] == t[2]}

    def test_diagonal_equal_indices_is_full(self):
        assert diagonal(2, 1, 1, 2) == full_pair(2, 2)

    def test_full_pair(self):
        got = full_pair(2, 2)
        assert got.is_identical() and len(got.rho) == 4

    def test_nullary_full_pair(self):
        got = full_pair(0, 2)
        assert got.is_identical() and len(got.rho) == 1

    def test_elementary_ops_are_superpositions_of_invariants(self):
        # invariant pair families absorb every elementary operation
        fam2 = set(invp([], 2, 2))
        fam1 = set(invp([], 1, 2))
        for p in list(fam2)[:10]:
            assert permute(p, (1, 0)) in fam2
            assert identify(p, (0, 0), 1) in fam1
            assert project_onto(p, [0]) in fam1


def transpositions(m, k):
    """(i, j, swaps) for each transposition (j i), j < i, at arity m, its
    swaps gathered from the closure engine's orbit layers."""
    for i, (first, later) in enumerate(relpairs._arity_maps(m, k)[0], 1):
        for j in range(i):
            yield i, j, [first[j], *(step[j] for step in later)] if first else []


def transpose(x, swaps):
    """Swap the bits under each mask with those shift places above them."""
    for mask, shift in swaps:
        t = (x >> shift ^ x) & mask
        x ^= t | t << shift
    return x


def closure_by_definition(seed, c, k):
    """The closure at intermediate cap c straight from its definition: apply
    every permutation, identification, projection, fictitious extension and
    intersection to every member, through the superposition operations,
    until nothing new appears; packed per arity as the engine returns it."""
    members = {p for p in seed if p.arity <= c}
    members |= {full_pair(m, k) for m in range(c + 1)}
    members |= {diagonal(m, i, j, k) for m in range(c + 1)
                for i in range(m) for j in range(i + 1, m)}
    frontier = set(members)
    while frontier:
        out = set()
        for p in frontier:
            m = p.arity
            out.update(permute(p, pi) for pi in itertools.permutations(range(m)))
            for t in range(1, m):
                for merge in itertools.product(range(t), repeat=m):
                    if len(set(merge)) == t:
                        out.add(identify(p, merge, t))
            for size in range(m):
                out.update(project_onto(p, cs)
                           for cs in itertools.combinations(range(m), size))
            for extra in range(1, c - m + 1):
                out.update(add_fictitious(p, pos)
                           for pos in itertools.combinations(range(m + extra), extra))
            out.update(intersect(p, q) for q in members if q.arity == m)
        frontier = out - members
        members |= frontier
    packed = [set() for _ in range(c + 1)]
    for p in members:
        packed[p.arity].add(p.rho.mask | p.rho_prime.mask << k ** p.arity)
    return packed


class TestClosureEngine:
    def test_matches_definition_small_families(self):
        # every k=2 single pair of arity <= 2 at each cap from its arity to 3,
        # except that arity 2 at cap 3 (81 families, about 14 s) is sampled:
        # 24 of them, seed 5
        arity2 = list(all_pairs(C2, 2))
        cases = [([p], c) for a in (0, 1) for p in all_pairs(C2, a)
                 for c in range(a, 4)]
        cases += [([p], 2) for p in arity2]
        cases += [([p], 3) for p in random.Random(5).sample(arity2, 24)]
        for seed, c in cases:
            assert _Closure(seed, 2, c) == \
                closure_by_definition(seed, c, 2), (seed, c)

    def test_nand_to_neq_sizes(self):
        nand = Relation.from_tuples(C2, 2, [(0, 0), (0, 1), (1, 0)])
        neq = Relation.from_tuples(C2, 2, [(0, 1), (1, 0)])
        got = _Closure([RelationPair.of(nand, neq)], 2, 5)
        assert tuple(map(len, got)) == (2, 3, 11, 64, 556, 6954)
        assert sum(map(len, got)) == 7590

    def test_leq_to_eq_size(self):
        eq = Relation.from_tuples(C2, 2, [(0, 0), (1, 1)])
        got = _Closure([RelationPair.of(LEQ, eq)], 2, 5)
        assert sum(map(len, got)) == 11041

    def test_matches_definition_other_carriers(self):
        # every pair of arity <= 2 at k = 0 and k = 1 at each cap up to 3;
        # at k=3 all 27 unary pairs at caps 1 and 2, 6 seeded binary ones at
        # cap 2 and 4 seeded unary ones at cap 3
        cases = [([], c, k) for k in (0, 1) for c in range(4)]
        cases += [([p], c, k) for k in (0, 1) for a in range(3)
                  for p in all_pairs(Carrier(k), a) for c in range(a, 4)]
        unary = list(all_pairs(Carrier(3), 1))
        rng = random.Random(7)
        cases += [([p], c, 3) for p in unary for c in (1, 2)]
        cases += [([p], 2, 3) for p in rng.sample(list(all_pairs(Carrier(3), 2)), 6)]
        cases += [([p], 3, 3) for p in rng.sample(unary, 4)]
        for seed, c, k in cases:
            assert _Closure(seed, k, c) == \
                closure_by_definition(seed, c, k), (seed, c, k)

    def test_grown_caps_match_definition(self):
        seeds = [[LEQ_PAIR], [pair_of(2, 1, [(0,), (1,)], [(0,)])],
                 [pair_of(2, 2, [(0, 1), (1, 1)], [(1, 1)])]]
        for seed in seeds:
            closure = _Closure(seed, 2, 1)
            assert closure == closure_by_definition(seed, 1, 2)
            for c in (2, 3):
                closure.grow()
                assert closure == closure_by_definition(seed, c, 2), (seed, c)

    def test_born_orbits_generate_the_closure(self):
        # born[m], the move-born orbits, is a union of orbits inside
        # closure[m], and every member is the intersection of the born
        # members containing it, of which there is at least one; both sets
        # are closed under the transpositions, so checking the
        # representatives suffices
        nand = Relation.from_tuples(C2, 2, [(0, 0), (0, 1), (1, 0)])
        neq = Relation.from_tuples(C2, 2, [(0, 1), (1, 0)])
        seeds = [[LEQ_PAIR], [pair_of(2, 1, [(0,), (1,)], [(1,)])],
                 [pair_of(2, 2, [(0, 1), (1, 0), (1, 1)], [(0, 1)])]]
        cases = [([RelationPair.of(nand, neq)], 5)]
        cases += [(seed, c) for seed in seeds for c in range(5)]
        for seed, c in cases:
            closure = _Closure(seed, 2, c)
            for m, (members, born) in enumerate(zip(closure, closure.born)):
                assert born <= members, (seed, c, m)
                for _, _, swaps in transpositions(m, 2):
                    assert {transpose(x, swaps) for x in born} == born
                for r in closure.reps[m]:
                    above = [g for g in born if not r & ~g]
                    assert above and functools.reduce(int.__and__, above) == r, \
                        (seed, c, m, r)

    def test_matches_definition_multi_pair_families(self):
        # seeded k=2 families of two or three pairs, where orbits born by a
        # move meet orbits born by a meet: 20 of arity <= 2 at cap 2, and 4
        # with one binary pair at cap 3 (three binary pairs there can take
        # the definition-level closure 45 s)
        rng = random.Random(31)
        unary, binary = list(all_pairs(C2, 1)), list(all_pairs(C2, 2))
        cases = [(rng.sample(unary + binary, rng.randint(2, 3)), 2) for _ in range(20)]
        cases += [(rng.sample(unary, rng.randint(1, 2)) + [rng.choice(binary)], 3)
                  for _ in range(4)]
        skipped = 0
        for seed, c in cases:
            closure = _Closure(seed, 2, c)
            assert closure == closure_by_definition(seed, c, 2), (seed, c)
            skipped += sum(r not in closure.born[m] for m in range(c) for r in closure.reps[m])
        # meet-born representatives below the cap, whose append the engine
        # skips: without them this grid would not test that rule
        assert skipped

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_append_distributes_over_meets(self, data):
        # ext(a & b) == ext(a) & ext(b) for the fictitious first coordinate,
        # the step that lets the engine skip extending meet-born
        # representatives
        k = data.draw(st.integers(0, 3), label="k")
        m = data.draw(st.integers(0, 3), label="m")
        w = k ** m
        a, b = (data.draw(st.integers(0, (1 << 2 * w) - 1), label=name) for name in "ab")
        closure = _Closure([], k, m + 1)
        assert closure._fictitious(m, a & b) == \
            closure._fictitious(m, a) & closure._fictitious(m, b)

    def test_drop_does_not_distribute_over_meets(self):
        # dropping coordinate 0 of {(0, 0)} and {(1, 0)} gives {(0,)} twice,
        # but their meet is empty: drops of meet-born representatives stay
        a, b = (pair_of(2, 2, [t], [t]) for t in ((0, 0), (1, 0)))
        a, b = (p.rho.mask | p.rho_prime.mask << 4 for p in (a, b))
        closure = _Closure([], 2, 2)
        assert closure._drops(2, a & b)[0] == 0
        assert closure._drops(2, a)[0] & closure._drops(2, b)[0] == 0b101

    def test_transpositions_match_permute(self):
        # each masked-swap transposition against the superposition-level
        # one, and the fronts against (0 i)
        rng = random.Random(3)
        for k, m in ((2, 4), (3, 3)):
            w = k ** m
            fronts = relpairs._arity_maps(m, k)[1]
            assert [swaps for i, j, swaps in transpositions(m, k) if j == 0] == fronts[1:]
            for _ in range(20):
                rho = rng.getrandbits(w)
                p = RelationPair(k, m, Relation(k, m, rho), Relation(k, m, rho & rng.getrandbits(w)))
                x = p.rho.mask | p.rho_prime.mask << w
                for i, j, swaps in transpositions(m, k):
                    pi = list(range(m))
                    pi[i], pi[j] = j, i
                    q = permute(p, pi)
                    assert transpose(x, swaps) == \
                        q.rho.mask | q.rho_prime.mask << w, (p, i, j)

    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("k", range(4))
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_moves_match_definition(self, k, m, data):
        # the fictitious move against `add_fictitious` at the new first
        # position, and each drop as the engine makes it (swap 0 and i,
        # drop 0) against `project_onto` the coordinates that leaves
        w = k ** m
        rho = data.draw(st.integers(0, (1 << w) - 1), label="rho")
        rho_p = rho & data.draw(st.integers(0, (1 << w) - 1), label="rho'")
        p = RelationPair(k, m, Relation(k, m, rho), Relation(k, m, rho_p))
        x = rho | rho_p << w
        closure = _Closure([], k, m + 1)
        q = add_fictitious(p, [0])
        assert closure._fictitious(m, x) == q.rho.mask | q.rho_prime.mask << k * w
        drops = closure._drops(m, x) if m else []
        assert len(drops) == m
        for i, y in enumerate(drops):
            coords = list(range(1, m))
            if i:
                coords[i - 1] = 0
            q = project_onto(p, coords)
            assert y == q.rho.mask | q.rho_prime.mask << k ** (m - 1), i

    def test_one_representative_per_orbit(self):
        # the representatives are the orbit minima under every coordinate
        # permutation, each orbit's once: 249 orbits among the 6,954
        # arity-5 pairs of nand-to-neq
        nand = Relation.from_tuples(C2, 2, [(0, 0), (0, 1), (1, 0)])
        neq = Relation.from_tuples(C2, 2, [(0, 1), (1, 0)])
        closure = _Closure([RelationPair.of(nand, neq)], 2, 5)
        assert len(closure.reps[5]) == 249
        for m, packed in enumerate(closure[:4]):
            w = 2 ** m
            pairs = [RelationPair(2, m, Relation(2, m, x & (1 << w) - 1), Relation(2, m, x >> w))
                     for x in packed]
            minima = {min(q.rho.mask | q.rho_prime.mask << w
                          for q in (permute(p, pi) for pi in itertools.permutations(range(m))))
                      for p in pairs}
            assert sorted(closure.reps[m]) == sorted(minima), m

    @staticmethod
    def _pin_grid():
        # k = 1, 2, 3; the empty family, single pairs and two-pair families
        # of arity <= 2 (all of them at k=1, every single pair at k=2, seeded
        # samples otherwise); caps 0-4, 0-2 at k=3; nand-to-neq and leq-to-eq
        # at cap 5
        cases = []
        for k, top, singles, doubles in ((1, 4, None, None), (2, 4, None, 24), (3, 2, 24, 12)):
            pairs = [p for a in range(3) for p in all_pairs(Carrier(k), a)]
            rng = random.Random(k)
            seeds = [[]] + [[p] for p in (pairs if singles is None else rng.sample(pairs, singles))]
            seeds += (list(map(list, itertools.combinations(pairs, 2))) if doubles is None
                      else [rng.sample(pairs, 2) for _ in range(doubles)])
            cases += [(seed, k, c) for seed in seeds for c in range(top + 1)]
        eq = Relation.from_tuples(C2, 2, [(0, 0), (1, 1)])
        nand = Relation.from_tuples(C2, 2, [(0, 0), (0, 1), (1, 0)])
        neq = Relation.from_tuples(C2, 2, [(0, 1), (1, 0)])
        return cases + [([RelationPair.of(nand, neq)], 2, 5), ([RelationPair.of(LEQ, eq)], 2, 5)]

    def test_regression_pin(self, monkeypatch):
        # per-arity closure sets and counts on a fixed grid, and which inputs
        # a small MAX_PAIRS refuses (the refusal kind, not its cost, which
        # depends on the order in which orbits enter); the digests were
        # recorded with an engine that appended to every representative
        cases = self._pin_grid()
        digest = hashlib.sha256()
        for seed, k, c in cases:
            closure = _Closure(seed, k, c)
            digest.update(repr((k, c, [sorted(s) for s in closure], closure.counts)).encode())
        assert (len(cases), digest.hexdigest()) == (PIN_CASES, PIN_CLOSURES)
        for limit, refused in PIN_REFUSALS.items():
            monkeypatch.setattr(relpairs, "MAX_PAIRS", limit)
            kinds = hashlib.sha256()
            count = 0
            for seed, k, c in cases:
                try:
                    _Closure(seed, k, c)
                    kinds.update(b"-")
                except CapExceeded as e:
                    kinds.update(e.what.encode() + b";")
                    count += 1
            assert (count, kinds.hexdigest()) == refused, limit


def sloc_pairs_enumerate(Q, s, m, k):
    """The oracle for `sloc_pairs`: for every candidate (sigma, sigma') the
    witnesses usable inside sigma' are filtered afresh and tested against
    every subset of sigma of size min(s, |sigma|)."""
    if s < 0:
        raise DomainError("locality parameter must be >= 0")
    carrier = Carrier(k)
    check_cap("sloc_pairs candidate enumeration", 3 ** carrier.num_tuples(m))
    qm = [(p.rho.mask, p.rho_prime.mask) for p in Q if p.arity == m]
    out = []
    for sigma_mask in range(1 << carrier.num_tuples(m)):
        members = [i for i in range(carrier.num_tuples(m)) if sigma_mask >> i & 1]
        size = min(s, len(members))
        subsets = [
            sum(1 << i for i in B) for B in itertools.combinations(members, size)
        ]
        # witnesses usable inside a given sigma' are those with rho' <= sigma'
        for sub in submasks(sigma_mask):
            usable = [rho for rho, rho_p in qm if rho_p & ~sub == 0]
            if all(any(B & ~rho == 0 for rho in usable) for B in subsets):
                out.append(
                    RelationPair(k, m, Relation(k, m, sigma_mask), Relation(k, m, sub))
                )
    return PairFamily(out)


class TestSlocPairs:
    def test_s0_includes_everything_when_nonempty_base(self):
        # at s = 0 the only subset is empty, so any usable witness works;
        # an empty second component is usable inside every sigma'
        got = sloc_pairs([pair_of(2, 1, [(0,)], [])], 0, 1, 2)
        assert got == PairFamily(all_pairs(C2, 1))
        # a full second component is usable only when sigma' is full
        tight = sloc_pairs([full_pair(1, 2)], 0, 1, 2)
        assert tight == PairFamily([full_pair(1, 2)])

    def test_s0_empty_family(self):
        got = sloc_pairs([], 0, 1, 2)
        assert len(got) == 0

    def test_seed_is_contained(self):
        for Q in ([LEQ_PAIR], [pair_of(2, 1, [(0,), (1,)], [(1,)])]):
            m = Q[0].arity
            for s in range(4):
                fam = sloc_pairs(Q, s, m, 2)
                for p in Q:
                    assert p in fam

    def test_relaxation_closed(self):
        Q = [pair_of(2, 1, [(0,), (1,)], [(1,)])]
        for s in range(3):
            fam = sloc_pairs(Q, s, 1, 2)
            assert enc(fam) == fam

    def test_matches_definition_m1(self):
        # definition-level: all subsets of sigma with at most s elements
        rng = random.Random(9)
        pairs1 = list(all_pairs(C2, 1))
        for _ in range(15):
            Q = rng.sample(pairs1, rng.randint(0, 4))
            qm = [(set(p.rho.tuples()), set(p.rho_prime.tuples())) for p in Q]
            for s in range(4):
                want = []
                for sigma in pairs1:
                    st, spt = set(sigma.rho.tuples()), set(sigma.rho_prime.tuples())
                    ok = True
                    for size in range(min(s, len(st)) + 1):
                        for B in itertools.combinations(sorted(st), size):
                            if not any(set(B) <= rt and rpt <= spt
                                       for rt, rpt in qm):
                                ok = False
                    if ok:
                        want.append(sigma)
                assert sloc_pairs(Q, s, 1, 2) == PairFamily(want)

    def test_finite_collapse(self):
        # at s = k^m the closure equals loc and equals enc of the family
        rng = random.Random(17)
        pairs1 = list(all_pairs(C2, 1))
        for _ in range(20):
            Q = rng.sample(pairs1, rng.randint(0, 5))
            collapsed = sloc_pairs(Q, 2, 1, 2)
            assert collapsed == loc_pairs(Q, 1, 2)
            assert collapsed == enc(Q)

    def test_nesting_in_s(self):
        Q = [LEQ_PAIR, pair_of(2, 2, [(0, 0), (1, 1)], [(0, 0)])]
        prev = None
        for s in range(0, 5):
            cur = sloc_pairs(Q, s, 2, 2)
            if prev is not None:
                assert cur.issubset(prev)
            prev = cur

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded):
            with capped(100):
                sloc_pairs([], 1, 3, 2)

    def test_rejects_a_pair_on_another_carrier(self):
        # as polp does, instead of silently dropping the witness
        p = next(iter(all_pairs(Carrier(3), 1)))
        with pytest.raises(DomainError, match="carrier mismatch in pair family"):
            sloc_pairs([p], 1, 1, 2)

    def test_rejects_negative_arity(self):
        with pytest.raises(DomainError, match="arity must be >= 0"):
            sloc_pairs([pair_of(2, 1, [(0,), (1,)], [(1,)])], 1, -1, 2)

    def test_matches_enumeration_k2(self):
        # every k=2 family of one pair of arity <= 2 and a seeded sample of
        # two-pair families, at s <= 3 and m in {1, 2}
        pairs = [p for a in range(3) for p in all_pairs(C2, a)]
        families = [[p] for p in pairs]
        families += random.Random(23).sample(list(itertools.combinations(pairs, 2)), 150)
        for Q in families:
            for m in (1, 2):
                for s in range(4):
                    assert sloc_pairs(Q, s, m, 2) == sloc_pairs_enumerate(Q, s, m, 2), (Q, s, m)

    def test_matches_enumeration_other_carriers(self):
        # every family of at most two pairs of arity <= 2 at k = 0 and k = 1;
        # seeded k=3 unary and binary families
        cases = []
        for k in (0, 1):
            pairs = [p for a in range(3) for p in all_pairs(Carrier(k), a)]
            families = [[]] + [[p] for p in pairs] + list(map(list, itertools.combinations(pairs, 2)))
            cases += [(Q, s, m, k) for Q in families for m in range(3) for s in range(4)]
        rng = random.Random(29)
        unary = list(all_pairs(Carrier(3), 1))
        cases += [(rng.sample(unary, rng.randint(1, 3)), s, 1, 3) for _ in range(20)
                  for s in range(4)]
        binary = [p for p in all_pairs(Carrier(3), 2) if rng.random() < 0.01]
        cases += [(rng.sample(binary, 2), s, 2, 3) for _ in range(2) for s in (1, 2)]
        for Q, s, m, k in cases:
            assert sloc_pairs(Q, s, m, k) == sloc_pairs_enumerate(Q, s, m, k), (Q, s, m, k)

    def test_matches_enumeration_on_closure_slices(self):
        # the generated families that the pair-side check passes in
        nand = Relation.from_tuples(C2, 2, [(0, 0), (0, 1), (1, 0)])
        neq = Relation.from_tuples(C2, 2, [(0, 1), (1, 0)])
        seeds = [[RelationPair.of(nand, neq)], [LEQ_PAIR],
                 [pair_of(2, 1, [(0,), (1,)], [(1,)])]]
        for Q in seeds:
            m = Q[0].arity
            gen = rpclone_generate_stable(Q, m).pairs
            for s in (1, 2):
                assert sloc_pairs(gen, s, m, 2) == sloc_pairs_enumerate(gen, s, m, 2), (Q, s)


def is_s_directed_by_definition(T, s):
    """Every choice of at most s tuples from the union of the first
    components lies inside one member's first component, tested at every
    size up to s."""
    firsts = [p.rho.mask for p in T]
    if not firsts:
        return False
    members = list(bit_indices(functools.reduce(int.__or__, firsts)))
    return all(
        any(not sum(1 << i for i in combo) & ~mask for mask in firsts)
        for t in range(min(s, len(members)) + 1)
        for combo in itertools.combinations(members, t)
    )


class TestDirectedness:
    def test_matches_definition_on_seeded_k2_families(self):
        rng = random.Random(12)
        by_arity = {m: list(all_pairs(C2, m)) for m in (0, 1, 2)}
        for _ in range(300):
            pairs = by_arity[rng.randrange(3)]
            T = rng.sample(pairs, rng.randint(1, min(5, len(pairs))))
            for s in range(6):
                assert is_s_directed(T, s) == is_s_directed_by_definition(T, s), (T, s)

    def test_empty_family_not_directed(self):
        assert is_s_directed([], 1) is False

    def test_singleton_always_directed(self):
        for s in range(4):
            assert is_s_directed([LEQ_PAIR], s)

    def test_chain_is_directed(self):
        chain = [
            pair_of(2, 1, [(0,)], []),
            pair_of(2, 1, [(0,), (1,)], []),
        ]
        assert is_s_directed(chain, 2)

    def test_antichain_fails_at_s2(self):
        T = [pair_of(2, 1, [(0,)], []), pair_of(2, 1, [(1,)], [])]
        assert is_s_directed(T, 1)
        assert not is_s_directed(T, 2)

    def test_mixed_arity_rejected(self):
        with pytest.raises(DomainError):
            is_s_directed([LEQ_PAIR, full_pair(1, 2)], 1)

    def test_mixed_carriers_rejected(self):
        # the identical pairs on {0} at k=2 and on {1} at k=3
        T = [pair_of(2, 1, [(0,)], [(0,)]), pair_of(3, 1, [(1,)], [(1,)])]
        with pytest.raises(DomainError, match="^carrier mismatch in pair family$"):
            is_s_directed(T, 1)

    def test_negative_s_rejected(self):
        for T in ([LEQ_PAIR], []):
            with pytest.raises(DomainError, match="locality parameter must be >= 0"):
                is_s_directed(T, -1)

    def test_takes_no_cap(self):
        with pytest.raises(TypeError):
            is_s_directed([LEQ_PAIR], 1, 2 ** 20)

    def test_union_family(self):
        T = [pair_of(2, 1, [(0,)], [(0,)]), pair_of(2, 1, [(1,)], [])]
        u = union_family(T)
        assert tuples_of(u) == ({(0,), (1,)}, {(0,)})

    def test_union_empty_rejected(self):
        with pytest.raises(DomainError):
            union_family([])

    def test_union_mixed_carriers_rejected(self):
        T = [pair_of(2, 1, [(0,)], [(0,)]), pair_of(3, 1, [(1,)], [(1,)])]
        with pytest.raises(DomainError, match="^carrier mismatch in pair family$"):
            union_family(T)

    def test_directed_union_stays_in_sloc_closure(self):
        # an s-directed subfamily of an s-local closure has its union inside
        rng = random.Random(31)
        base = [pair_of(2, 1, [(0,), (1,)], [(1,)]), full_pair(1, 2)]
        for s in range(1, 4):
            fam = list(sloc_pairs(base, s, 1, 2))
            for _ in range(40):
                T = rng.sample(fam, rng.randint(1, min(4, len(fam))))
                if is_s_directed(T, s):
                    assert union_family(T) in PairFamily(fam)
