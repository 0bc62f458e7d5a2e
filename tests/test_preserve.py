import itertools
import math
import random
import time
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finclone import preserve
from finclone.core import (
    DEFAULT_CAP,
    CapExceeded,
    Carrier,
    DomainError,
    OpFamily,
    Operation,
    PairFamily,
    Relation,
    RelationPair,
    all_operations,
    all_pairs,
    all_relations,
    capped,
    check_cap,
    enc,
    int_lanes,
    lane_bytes,
    submasks,
)
from finclone.preserve import (
    MAX_LANE_BYTES,
    PLAIN_SEARCH_TABLES,
    _forward_search,
    _search,
    image_mask,
    inv,
    invp,
    invp_pairs,
    least_invp,
    loc_ops,
    op_image_mask,
    pol,
    polp,
    polp_rows,
    polp_tables,
    preserves,
    preserving,
    sloc_ops,
    sloc_tables,
)


def image_mask_by_definition(f, rho):
    """The oracle for `image_mask`: every n-column matrix over rho, its
    rows fed to f through `Operation.__call__`."""
    if f.k != rho.k:
        raise DomainError("carrier mismatch between operation and relation")
    carrier = f.carrier
    members = [carrier.decode(i, rho.arity) for i in rho.indices()]
    out = 0
    for cols in itertools.product(members, repeat=f.arity):
        image = tuple(f(tuple(col[row] for col in cols)) for row in range(rho.arity))
        out |= 1 << carrier.encode(image)
    return out


def polp_enumerate(Q, n, k):
    """The oracle for `polp`: all n-ary operations preserving every pair in
    Q, by enumerating all k^(k^n) value tables."""
    if n < 0:
        raise DomainError("arity must be >= 0")
    carrier = Carrier(k)
    check_cap("polp table enumeration", k ** carrier.num_tuples(n))
    pairs = list(Q)
    for p in pairs:
        if p.k != k:
            raise DomainError("carrier mismatch in pair family")
    # group the constraints: for fixed rho only the tightest rho' matters
    tightest = {}
    for p in pairs:
        prev = tightest.get(p.rho)
        tightest[p.rho] = p.rho_prime.mask if prev is None else prev & p.rho_prime.mask
    out = []
    for f in all_operations(carrier, n):
        if all(image_mask(f, rho.arity, rho.mask) & ~allowed == 0
               for rho, allowed in tightest.items()):
            out.append(f)
    return OpFamily(out)


def invp_enumerate(F, m, k):
    """The oracle for `invp`: all m-ary relation pairs preserved by every
    operation in F, by enumerating all 3^(k^m) candidates."""
    if m < 0:
        raise DomainError("arity must be >= 0")
    carrier = Carrier(k)
    check_cap("invp pair enumeration", 3 ** carrier.num_tuples(m))
    ops = list(F)
    for f in ops:
        if f.k != k:
            raise DomainError("carrier mismatch in operation family")
    out = []
    for rho in (Relation(k, m, mask) for mask in range(1 << carrier.num_tuples(m))):
        # the union of images is the least admissible rho'
        need = 0
        for f in ops:
            need |= image_mask(f, m, rho.mask)
            if need & ~rho.mask:
                break
        if need & ~rho.mask:
            continue
        out.extend(RelationPair(k, m, rho, Relation(k, m, need | s))
                   for s in submasks(rho.mask & ~need))
    return PairFamily(out)


def sloc_ops_enumerate(F, s, n, k):
    """The oracle for `sloc_ops`: every k^(k^n) value table, filtered
    against every subset of A^n of size min(s, k^n)."""
    if s < 0:
        raise DomainError("locality parameter must be >= 0")
    carrier = Carrier(k)
    ops = list(F)
    for f in ops:
        if f.k != k:
            raise DomainError("carrier mismatch in operation family")
    fs = [f for f in ops if f.arity == n]
    domain = carrier.num_tuples(n)
    size = min(s, domain)
    if size == 0:
        return OpFamily(all_operations(carrier, n)) if fs else OpFamily()
    check_cap("sloc_ops subset enumeration", math.comb(domain, size) * (k ** domain))
    subsets = list(itertools.combinations(range(domain), size))
    out = []
    for g in all_operations(carrier, n):
        ok = True
        for B in subsets:
            if not any(all(f.table[i] == g.table[i] for i in B) for f in fs):
                ok = False
                break
        if ok:
            out.append(g)
    return OpFamily(out)

C2 = Carrier(2)
ID = Operation(2, 1, (0, 1))
NOT = Operation(2, 1, (1, 0))
CONST0 = Operation(2, 1, (0, 0))
CONST1 = Operation(2, 1, (1, 1))
AND = Operation(2, 2, (0, 0, 0, 1))
N0 = Operation(2, 0, (0,))
N1 = Operation(2, 0, (1,))
LEQ = Relation.from_tuples(C2, 2, [(0, 0), (0, 1), (1, 1)])
LEQ_PAIR = RelationPair.identical(LEQ)
EMPTY_FROM_FULL0 = RelationPair.of(Relation.full(2, 0), Relation.empty(2, 0))


def polp_by_filter(Q, n, k):
    """Definition-level cross-check: filter every table through preserves."""
    return OpFamily(
        f for f in all_operations(Carrier(k), n) if all(preserves(f, p) for p in Q)
    )


def invp_by_filter(F, m, k):
    return PairFamily(
        p for p in all_pairs(Carrier(k), m) if all(preserves(f, p) for f in F)
    )


class TestPreserves:
    def test_identity_preserves_identical_pairs(self):
        for mask in range(16):
            rho = Relation(2, 2, mask)
            assert preserves(ID, RelationPair.identical(rho))

    def test_nothing_preserves_full0_empty(self):
        for n in range(3):
            for f in all_operations(C2, n):
                assert not preserves(f, EMPTY_FROM_FULL0)

    def test_not_breaks_leq(self):
        assert not preserves(NOT, LEQ_PAIR)

    def test_nullary_constant_in_rho_prime(self):
        p = RelationPair.of(Relation.from_tuples(C2, 1, [(0,), (1,)]),
                            Relation.from_tuples(C2, 1, [(1,)]))
        assert preserves(N1, p)
        assert not preserves(N0, p)

    def test_positive_arity_vacuous_on_empty_pair(self):
        empty1 = RelationPair.of(Relation.empty(2, 1), Relation.empty(2, 1))
        assert preserves(AND, empty1)
        assert preserves(ID, empty1)
        assert not preserves(N0, empty1)

    def test_nullary_pair_semantics(self):
        full0 = RelationPair.identical(Relation.full(2, 0))
        assert preserves(N0, full0)
        assert preserves(AND, full0)
        empty0 = RelationPair.identical(Relation.empty(2, 0))
        assert preserves(AND, empty0)
        assert not preserves(N0, empty0)

    def test_nonempty_rho_with_empty_rho_prime(self):
        p = RelationPair.of(Relation.from_tuples(C2, 1, [(0,)]), Relation.empty(2, 1))
        for n in range(3):
            for f in all_operations(C2, n):
                assert not preserves(f, p)


# the 7-ary at-least-two operation and the full ternary relation's pair
TWO7 = Operation(2, 7, tuple(int(sum(t) >= 2) for t in C2.tuples(7)))
FULL3 = RelationPair.identical(Relation.full(2, 3))


class TestChargesBeforeCaches:
    """A refusal does not depend on what ran before in the process: each
    sequence is refused, answered under a larger cap, then refused again
    with the same charge."""

    @pytest.mark.parametrize("query,cap,what,cost", [
        pytest.param(lambda: preserves(TWO7, FULL3), DEFAULT_CAP, "matrix enumeration",
                     2 ** 21, id="preserves-8^7"),
        # a 4-ary relation of 11 tuples: scopes of the 11^2 binary matrices
        pytest.param(lambda: pol([Relation(2, 4, (1 << 11) - 1)], 2, 2), 100,
                     "matrix enumeration", 121, id="pol-11^2"),
        pytest.param(lambda: inv([TWO7], 1, 2), 100, "matrix enumeration", 128,
                     id="inv-2^7"),
    ])
    def test_refused_answered_refused(self, query, cap, what, cost):
        refusals = []
        for limit in (cap, cost, cap):
            with capped(limit):
                try:
                    answer = query()
                except CapExceeded as e:
                    refusals.append((limit, e.what, e.cost, e.cap))
        assert refusals == [(cap, what, cost, cap)] * 2
        assert answer


class TestPolp:
    def test_no_constraints_gives_all(self):
        assert polp([], 1, 2) == OpFamily(all_operations(C2, 1))

    def test_full0_empty_kills_everything(self):
        for n in range(3):
            assert len(polp([EMPTY_FROM_FULL0], n, 2)) == 0

    def test_monotone_unary_ops(self):
        got = polp([LEQ_PAIR], 1, 2)
        assert got == OpFamily([CONST0, ID, CONST1])

    def test_matches_definition_filter(self):
        samples = [
            [LEQ_PAIR],
            [RelationPair.of(Relation.full(2, 1), Relation.from_tuples(C2, 1, [(1,)]))],
            list(all_pairs(C2, 1))[:5],
            [],
        ]
        for Q in samples:
            for n in range(3):
                assert polp(Q, n, 2) == polp_by_filter(Q, n, 2)

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded):
            polp([], 5, 2)


def families_upto_two(pairs):
    return [()] + [(p,) for p in pairs] + list(itertools.combinations(pairs, 2))


def assert_search_matches_oracle(families, arities, k):
    for Q in families:
        for n in arities:
            want = polp_enumerate(Q, n, k)
            assert polp(Q, n, k) == want, (Q, n)
            # the tables in the family's order: strictly ascending
            tables = [f.table for f in want]
            rows = [(p.arity, p.rho.mask, p.rho_prime.mask) for p in Q]
            assert polp_rows(rows, n, k) == tables, (Q, n)
            assert polp_tables(Q, n, k) == tables, (Q, n)
            every = itertools.product(range(k), repeat=k ** n)
            assert preserving(every, rows, n, k) == tables, (Q, n)


class TestPolpSearch:
    """The constraint search against the table enumerator it replaced."""

    def test_k2_low_arity_families(self):
        low = [p for m in (0, 1) for p in all_pairs(C2, m)]
        assert_search_matches_oracle(families_upto_two(low), (0, 1, 2), 2)

    def test_k2_single_binary_pairs(self):
        assert_search_matches_oracle([(p,) for p in all_pairs(C2, 2)], (0, 1, 2), 2)

    def test_k2_sampled_ternary_pairs(self):
        sample = random.Random(3).sample(list(all_pairs(C2, 3)), 40)
        assert_search_matches_oracle([(p,) for p in sample], (0, 1, 2), 2)

    @pytest.mark.parametrize("k", [0, 1])
    def test_degenerate_carriers(self, k):
        pairs = [p for m in (0, 1, 2) for p in all_pairs(Carrier(k), m)]
        assert_search_matches_oracle(families_upto_two(pairs), (0, 1, 2), k)

    def test_k3_low_arity_pairs(self):
        pairs = [p for m in (0, 1) for p in all_pairs(Carrier(3), m)]
        assert_search_matches_oracle([(p,) for p in pairs], (0, 1), 3)

    def test_k3_seeded_binary_pairs(self):
        # one enumeration of the 19,683 binary tables per relation costs
        # seconds, so the second relation is checked jointly with the first:
        # its images are then only computed for survivors
        rng = random.Random(7)
        tuples = list(Carrier(3).tuples(2))
        pairs = []
        for _ in range(2):
            rho = Relation.from_tuples(Carrier(3), 2, rng.sample(tuples, 4))
            drop = rng.choice(list(rho.indices()))
            pairs.append(RelationPair.of(rho, Relation(3, 2, rho.mask & ~(1 << drop))))
        assert_search_matches_oracle([pairs[:1], pairs], (2,), 3)
        joint, first = polp(pairs, 2, 3), polp(pairs[:1], 2, 3)
        assert joint.issubset(first) and len(joint) < len(first)

    def test_three_chain_ternary_frontier(self):
        # the monotone ternary tables on the 3-chain are the nested pairs of
        # down-sets of [3]^3, of which there are 980 (MacMahon's plane
        # partitions in a 3x3x3 box): 211,250; the default cap refuses the
        # 3^27 tables before the search
        chain = Relation.from_tuples(Carrier(3), 2, [(a, b) for a in range(3) for b in range(a, 3)])
        pairs = [RelationPair.identical(chain)]
        with capped(10 ** 13):
            assert len(polp_tables(pairs, 3, 3)) == 211250
        with pytest.raises(CapExceeded) as refused:
            polp_tables(pairs, 3, 3)
        assert (refused.value.what, refused.value.cost) == ("polp table enumeration", 3 ** 27)

    def test_three_chain_order(self):
        chain = Relation.from_tuples(Carrier(3), 2, [(a, b) for a in range(3) for b in range(a, 3)])
        before = op_image_mask.cache_info().currsize
        assert len(pol([chain], 2, 3)) == 175
        assert op_image_mask.cache_info().currsize == before


def search_by_filter(k, size, constraints):
    """The oracle for `_search`: every table of `size` entries, ascending,
    kept when each scope reads an allowed image."""
    def holds(table):
        return all(ok >> Carrier(k).encode([table[j] for j in idxs]) & 1
                   for idxs, ok in constraints.items())
    return [t for t in itertools.product(range(k), repeat=size) if holds(t)]


class TestSearchLoop:
    """The search, on both sides of PLAIN_SEARCH_TABLES, and forward
    checking on its own, against a filter over every table."""

    @staticmethod
    def assert_both_match_the_filter(k, size, constraints):
        want = search_by_filter(k, size, constraints)
        assert _search(k, size, constraints) == want
        # _forward_search leaves the empty scope to _search
        if size and constraints.get((), 1) & 1:
            assert _forward_search(k, size, constraints) == want

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_random_constraints_match_the_filter(self, data):
        # at k=3, up to 27 tables (size 3) are filtered and 81 to 2187
        # (size 4 to 7) go to forward checking
        k = data.draw(st.integers(0, 3), label="k")
        size = data.draw(st.integers(0, 7), label="size")
        index = st.integers(0, size - 1) if size else st.nothing()
        # up to 4 entries, so that a scope such as (5, 2, 5) repeats its
        # largest entry around a smaller one
        scope = st.lists(index, max_size=4 if size else 0).map(tuple)
        count = data.draw(st.integers(0, 6), label="scopes")
        constraints = {}
        for _ in range(count):
            idxs = data.draw(scope, label="scope")
            constraints[idxs] = data.draw(st.integers(0, (1 << k ** len(idxs)) - 1), label="ok")
        # the empty scope, allowed or forbidden, or absent
        empty = data.draw(st.sampled_from((None, 0, 1)), label="empty scope")
        if empty is not None:
            constraints[()] = empty
        self.assert_both_match_the_filter(k, size, constraints)

    def test_largest_entry_repeated_around_a_gap(self):
        # each scope is checked at its next-largest entry d, 3 to 5 entries
        # before its largest entry j: j repeated around d, j first or in the
        # middle, and d itself repeated
        rng = random.Random(11)
        shapes = [(5, 2, 5), (6, 1), (6, 2, 6, 2), (4, 0, 4, 4), (3, 6, 0), (2, 2, 5)]
        assert PLAIN_SEARCH_TABLES < 3 ** 7
        for _ in range(30):
            constraints = {idxs: rng.getrandbits(3 ** len(idxs)) | rng.getrandbits(3 ** len(idxs))
                           for idxs in rng.sample(shapes, 3)}
            self.assert_both_match_the_filter(3, 7, constraints)

    # the filter at PLAIN_SEARCH_TABLES, forward checking just above it,
    # and k=2 at 256 and 512 tables and k=4 at 256
    @pytest.mark.parametrize("k,size", [(3, 3), (2, 5), (2, 8), (2, 9), (4, 4)])
    def test_both_sides_of_the_threshold(self, k, size):
        assert 3 ** 3 == PLAIN_SEARCH_TABLES < 2 ** 5
        rng = random.Random(k * 10 + size)
        for _ in range(10):
            constraints = {}
            for _ in range(size):
                idxs = tuple(rng.randrange(size) for _ in range(rng.randint(1, 3)))
                constraints[idxs] = rng.getrandbits(k ** len(idxs)) | rng.getrandbits(k ** len(idxs))
            for empty in (None, 0, 1):
                if empty is not None:
                    constraints[()] = empty
                self.assert_both_match_the_filter(k, size, constraints)

    def test_edge_sizes_and_carriers(self):
        for k in range(4):
            for size in range(4):
                for constraints in ({}, {(): 0}, {(): 1}):
                    assert _search(k, size, constraints) == search_by_filter(k, size, constraints)


class TestImageEngine:
    """`image_mask` on the matrix-row engine against its definition, and the
    least maps of `op_image_mask` against it lane by lane."""

    def test_k2_every_operation_and_relation(self):
        ops = [f for n in range(3) for f in all_operations(C2, n)]
        rels = [r for m in range(4) for r in all_relations(C2, m)]
        for f in ops:
            for rho in rels:
                assert image_mask(f, rho.arity, rho.mask) == image_mask_by_definition(f, rho), (f, rho)

    def test_k3_seeded_cases(self):
        rng = random.Random(11)
        c3 = Carrier(3)
        for _ in range(150):
            n, m = rng.randint(0, 3), rng.randint(0, 2)
            f = Operation(3, n, tuple(rng.randrange(3) for _ in range(3 ** n)))
            rho = Relation(3, m, rng.randrange(1 << c3.num_tuples(m)))
            assert image_mask(f, rho.arity, rho.mask) == image_mask_by_definition(f, rho), (f, rho)

    def test_tables_beyond_one_byte_lanes(self):
        # 2^9 and 3^6 table entries: rows ride on two-byte lanes; relations
        # of at most 3 members keep the oracle to 3^9 matrices each
        two_of_nine = Operation(2, 9, tuple(int(sum(t) >= 2) for t in C2.tuples(9)))
        w6 = Operation(3, 6, tuple((min(max(t[:3]), max(t[3:])) + t[0]) % 3
                                   for t in Carrier(3).tuples(6)))
        for f in (two_of_nine, w6):
            for m in (0, 1, 2):
                for rho in all_relations(f.carrier, m):
                    if len(rho) <= 3:
                        got = image_mask(f, rho.arity, rho.mask)
                        assert got == image_mask_by_definition(f, rho), (f, rho)

    def test_least_maps_lane_by_lane(self):
        # lane rho of f's least map at arity m is f's images on rho, for
        # every rho of A^m
        for k in range(3):
            carrier = Carrier(k)
            for f in (f for n in range(3) for f in all_operations(carrier, n)):
                for m in range(3):
                    rels = list(all_relations(carrier, m))
                    lanes = int_lanes(op_image_mask(f, m), lane_bytes(2 ** k ** m), len(rels))
                    assert lanes == tuple(map(partial(image_mask_by_definition, f), rels)), (f, m)

    def test_carrier_mismatch(self):
        # image_mask takes a mask, so `preserves` checks the carrier
        with pytest.raises(DomainError, match="carrier mismatch between operation and pair"):
            preserves(ID, RelationPair.identical(Relation.full(3, 1)))
        with pytest.raises(DomainError, match="carrier mismatch between operation and relation"):
            image_mask_by_definition(ID, Relation.full(3, 1))


def assert_sloc_matches_oracle(families, arities, k, sizes=range(6)):
    for F in families:
        for n in arities:
            tables = [f.table for f in F if f.arity == n]
            for s in sizes:
                want = sloc_ops_enumerate(F, s, n, k)
                assert sloc_ops(F, s, n, k) == want, (F, s, n)
                # the tables in the family's order: strictly ascending
                assert sloc_tables(tables, s, n, k) == [f.table for f in want], (F, s, n)


class TestSlocSearch:
    """The constraint search in `sloc_ops` against the table filter it
    replaced."""

    def test_k2_families_upto_two(self):
        ops = [f for n in (1, 2) for f in all_operations(C2, n)]
        assert_sloc_matches_oracle(families_upto_two(ops), (1, 2), 2)

    @pytest.mark.parametrize("k", [0, 1])
    def test_degenerate_carriers(self, k):
        ops = [f for n in range(3) for f in all_operations(Carrier(k), n)]
        assert_sloc_matches_oracle(families_upto_two(ops), range(3), k)

    def test_k3_seeded_binary_families(self):
        rng = random.Random(13)
        families = [[Operation(3, 2, tuple(rng.randrange(3) for _ in range(9)))
                     for _ in range(size)] for size in (1, 3)]
        assert_sloc_matches_oracle(families, (2,), 3, range(3))

    def test_three_chain_order_is_fast(self):
        chain = Relation.from_tuples(Carrier(3), 2, [(a, b) for a in range(3) for b in range(a, 3)])
        F = pol([chain], 2, 3)
        start = time.perf_counter()
        got = sloc_ops(F, 2, 2, 3)
        assert time.perf_counter() - start < 2
        assert len(got) == 175 and got == F
        with pytest.raises(CapExceeded, match="sloc_ops subset enumeration: "
                                              "estimated cost 1653372 exceeds cap 1048576"):
            sloc_ops(F, 3, 2, 3)


class TestInvp:
    def test_no_ops_gives_all_pairs(self):
        assert invp([], 1, 2) == PairFamily(all_pairs(C2, 1))
        assert len(invp([], 1, 2)) == 9

    def test_empty_pair_iff_no_nullary(self):
        empty2 = RelationPair.of(Relation.empty(2, 2), Relation.empty(2, 2))
        assert empty2 in invp([AND, NOT], 2, 2)
        assert empty2 not in invp([AND, N0], 2, 2)

    def test_not_invariants_unary(self):
        got = invp([NOT], 1, 2)
        want = PairFamily([
            RelationPair.of(Relation.empty(2, 1), Relation.empty(2, 1)),
            RelationPair.identical(Relation.full(2, 1)),
        ])
        assert got == want

    def test_matches_definition_filter(self):
        for F in ([], [AND], [NOT, N0], [AND, NOT], [N1]):
            for m in range(3):
                assert invp(F, m, 2) == invp_by_filter(F, m, 2)

    def test_invp_is_relaxation_closed(self):
        for F in ([AND], [NOT], [AND, N1], []):
            for m in range(3):
                fam = invp(F, m, 2)
                assert enc(fam) == fam

    def test_polp_ignores_relaxation(self):
        for Q in ([LEQ_PAIR], list(all_pairs(C2, 1))[:4]):
            for n in range(3):
                assert polp(Q, n, 2) == polp(enc(Q), n, 2)

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded):
            invp([], 5, 2)


def assert_invp_matches_oracle(families, arities, k):
    for F in families:
        for m in arities:
            want = invp_enumerate(F, m, k)
            assert invp(F, m, k) == want, (F, m)
            # the masks in the family's order, by rho and then rho'
            pairs = [(p.rho.mask, p.rho_prime.mask) for p in want]
            assert invp_pairs(F, m, k) == pairs, (F, m)


class TestLeastPairEngine:
    """`least_invp` (the OR of its members' least maps) against the
    enumeration it replaced, and the op-side search on its map against
    `polp` on the pair families."""

    def test_k2_families_upto_two(self):
        ops = [f for n in range(3) for f in all_operations(C2, n)]
        families = families_upto_two(ops)
        assert_invp_matches_oracle(families, range(3), 2)
        # at m = 3 the oracle lists up to 3^8 pairs per family: a sample
        assert_invp_matches_oracle(random.Random(19).sample(families, 80), (3,), 2)

    @pytest.mark.parametrize("k", [0, 1])
    def test_degenerate_carriers(self, k):
        ops = [f for n in range(3) for f in all_operations(Carrier(k), n)]
        assert_invp_matches_oracle(families_upto_two(ops), range(4), k)

    def test_k3_seeded_families(self):
        rng = random.Random(17)
        families = []
        for _ in range(60):
            arities = [rng.randint(0, 3) for _ in range(rng.randint(1, 2))]
            families.append([Operation(3, n, tuple(rng.randrange(3) for _ in range(3 ** n)))
                             for n in arities])
        assert_invp_matches_oracle(families, (0, 1), 3)
        # at m = 2 the oracle takes ternary images on all 512 relations: half
        assert_invp_matches_oracle(families[::2], (2,), 3)

    @staticmethod
    def least_by_definition(F, m, k, rhos):
        """The oracle for `least_invp` on the relations `rhos`: the union of
        the images of F on all of rho, kept when it lies within rho."""
        out = {}
        for rho in rhos:
            need = 0
            for f in F:
                need |= image_mask(f, m, rho)
            if not need & ~rho:
                out[rho] = need
        return out

    @staticmethod
    def operation(data, k, most=3):
        # a nullary table needs a value, which a carrier of size 0 lacks
        n = data.draw(st.integers(1 if k == 0 else 0, most), label="arity")
        value = st.integers(0, k - 1) if k else st.nothing()
        return Operation(k, n, tuple(data.draw(st.lists(value, min_size=k ** n, max_size=k ** n))))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_one_byte_lanes_match_the_definition(self, data):
        k = data.draw(st.integers(0, 3), label="k")
        m = data.draw(st.sampled_from([m for m in range(4) if k ** m <= 8]), label="m")
        F = [self.operation(data, k) for _ in range(data.draw(st.integers(0, 3), label="|F|"))]
        assert lane_bytes(2 ** k ** m) == 1
        got = least_invp(F, m, k)
        assert list(got.items()) == list(self.least_by_definition(F, m, k, range(2 ** k ** m)).items())

    def test_two_byte_lanes_match_the_definition(self):
        # k=3, m=2: 2^9 subsets, in full
        assert lane_bytes(2 ** 9) == 2
        rng = random.Random(23)
        for arities in ([], [0], [1], [2], [3], [0, 2], [1, 3]):
            F = [Operation(3, n, tuple(rng.randrange(3) for _ in range(3 ** n))) for n in arities]
            got = least_invp(F, 2, 3)
            assert list(got.items()) == list(self.least_by_definition(F, 2, 3, range(2 ** 9)).items())
        # k=2, m=4: 2^16 subsets, on a sample of rho and of the invariant ones
        assert lane_bytes(2 ** 16) == 2
        maj = Operation(2, 3, tuple(int(sum(t) >= 2) for t in C2.tuples(3)))
        for F in ([AND], [maj, NOT], [N1, maj]):
            with capped(3 ** 16):
                got = least_invp(F, 4, 2)
            assert list(got) == sorted(got)
            rhos = rng.sample(range(2 ** 16), 150) + rng.sample(list(got), min(len(got), 150))
            expected = self.least_by_definition(F, 4, 2, rhos)
            assert {rho: got[rho] for rho in rhos if rho in got} == expected

    def test_lanes_past_eight_bytes_refuse(self):
        # k=2, m=7: 3^128 candidate pairs fit under the cap, but the 2^128
        # subsets need lanes of 16 bytes; refused before anything is built
        with capped(10 ** 62), pytest.raises(CapExceeded) as refused:
            least_invp([AND], 7, 2)
        assert (refused.value.what, refused.value.cost, refused.value.cap) == (
            "invp subset lanes", 2 ** 128, 2 ** 64)

    def test_lanes_past_the_byte_bound_refuse(self):
        # k=2, m=6: 3^64 candidate pairs fit under 10^31 and the 2^64
        # subsets fit 8-byte lanes, but the lanes would take 2^67 bytes;
        # refused at once, before anything is built
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with capped(10 ** 31), pytest.raises(CapExceeded) as refused:
                least_invp([AND], 6, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1 and peak < 2 ** 20
        assert (refused.value.what, refused.value.cost, refused.value.cap) == (
            "invp subset lane bytes", 8 << 64, MAX_LANE_BYTES)
        # the largest layout a carrier and arity give below the bound: N = 16
        assert lane_bytes(1 << 16) << 16 <= MAX_LANE_BYTES < lane_bytes(1 << 27) << 27

    def test_charges_the_matrices_its_maps_read(self):
        # a 7-ary operation at k=3, m=2: its least map reads the 9^7 matrices
        # whose columns are any tuples of A^2, so the default cap refuses it
        # before the map is looked up; min(7, 9)^7 = 823,543 would have passed
        f = Operation(3, 7, tuple(max(t) for t in Carrier(3).tuples(7)))
        misses = op_image_mask.cache_info().misses
        with pytest.raises(CapExceeded) as refused:
            least_invp([f], 2, 3)
        assert (refused.value.what, refused.value.cost, refused.value.cap) == (
            "matrix enumeration", 9 ** 7, DEFAULT_CAP) == ("matrix enumeration", 4782969, 2 ** 20)
        assert op_image_mask.cache_info().misses == misses

    def test_one_row_pass_per_least_map(self, monkeypatch):
        # one binary operation at k=2, m=3: one row_images pass over the
        # 8^2 = 64 two-column matrices over A^3, and no image_mask call;
        # they fill one cache entry, the operation's least map
        op_image_mask.cache_clear()
        passes, supports = [], []
        real = preserve.row_images

        def counting(*args):
            passes.append(0)
            for image in real(*args):
                passes[-1] += 1
                yield image

        monkeypatch.setattr(preserve, "row_images", counting)
        monkeypatch.setattr(preserve, "image_mask", lambda *args: supports.append(args))
        invp([AND], 3, 2)
        assert passes == [64] and supports == []
        assert op_image_mask.cache_info().currsize == 1

    def test_op_side_search_on_the_least_map(self):
        # polp_rows returns the tables of polp over the same pairs, in the
        # family's order; preserving filters the arity-s tables down to them
        ops = [f for n in (1, 2) for f in all_operations(C2, n)]
        for F in families_upto_two(ops)[1:]:
            pairs = [list(invp(F, m, 2)) for m in range(4)]
            for s in range(4):
                least = [(m, rho, need) for m in range(s + 1)
                         for rho, need in least_invp(F, m, 2).items()]
                arity_s = [row for row in least if row[0] == s]
                lower = [row for row in least if row[0] < s]
                for n in (1, 2):
                    upto = itertools.chain.from_iterable(pairs[:s + 1])
                    want = [f.table for f in polp(upto, n, 2)]
                    assert polp_rows(least, n, 2) == want, (F, s, n)
                    single = polp_rows(arity_s, n, 2)
                    assert single == [f.table for f in polp(pairs[s], n, 2)], (F, s, n)
                    assert preserving(single, lower, n, 2) == want, (F, s, n)


class TestClassical:
    def test_inv_empty_ops(self):
        assert inv([], 1, 2) == sorted(
            (Relation(2, 1, m) for m in range(4)), key=Relation.sort_key)

    def test_pol_leq(self):
        assert pol([LEQ], 1, 2) == OpFamily([CONST0, ID, CONST1])

    def test_inv_definitional(self):
        for F in ([], [AND], [NOT], [N0, AND]):
            for m in range(3):
                pairs = invp(F, m, 2)
                assert inv(F, m, 2) == sorted(
                    (p.rho for p in pairs if p.is_identical()),
                    key=Relation.sort_key)


class TestSloc:
    def test_s0_all_or_nothing(self):
        assert len(sloc_ops([], 0, 1, 2)) == 0
        assert sloc_ops([ID], 0, 1, 2) == OpFamily(all_operations(C2, 1))

    def test_s0_charges_the_table_count(self):
        # F^(3) non-empty at k=3: all 3^27 ternary tables are refused up
        # front, the same cost as C(27, 0) subsets times 3^27 tables
        maj = Operation(3, 3, tuple(sorted(t)[1] for t in Carrier(3).tuples(3)))
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="sloc_ops subset enumeration: "
                                              f"estimated cost {3 ** 27} exceeds"):
            sloc_ops([maj], 0, 3, 3)
        assert time.perf_counter() - start < 1
        assert sloc_ops([], 0, 3, 3) == OpFamily()

    def test_empty_family_is_empty_at_every_s(self):
        # with no given table no subset constraint can hold: the answer is
        # empty at once, with no estimate, even where the subsets are many
        with capped(0):
            assert all(sloc_ops([], s, 3, 3) == OpFamily() for s in range(4))
            assert loc_ops([], 3, 3) == OpFamily()

    def test_carrier_checked_on_every_member(self):
        # a k=3 member of another arity is as wrong as one of arity n
        F = [Operation(3, 1, (0, 1, 2)), AND]
        for closure in (lambda: sloc_ops(F, 1, 2, 2), lambda: loc_ops(F, 2, 2),
                        lambda: sloc_ops_enumerate(F, 1, 2, 2)):
            with pytest.raises(DomainError, match="carrier mismatch in operation family"):
                closure()

    def test_full_domain_is_identity(self):
        fam = [CONST0, CONST1]
        assert sloc_ops(fam, 2, 1, 2) == OpFamily(fam)
        assert sloc_ops(fam, 5, 1, 2) == OpFamily(fam)

    def test_singleton_interpolation(self):
        assert sloc_ops([CONST0, CONST1], 1, 1, 2) == OpFamily(all_operations(C2, 1))

    def test_matches_definition_all_subset_sizes(self):
        # quantifying over all |B| <= s equals checking size min(s, k^n) only
        c = C2
        families = [[AND], [Operation(2, 2, (0, 1, 1, 0))],
                    [AND, Operation(2, 2, (0, 1, 1, 1))]]
        for fam in families:
            for s in range(5):
                got = sloc_ops(fam, s, 2, 2)
                want = []
                domain = list(range(4))
                for g in all_operations(c, 2):
                    ok = True
                    for size in range(min(s, 4) + 1):
                        for B in itertools.combinations(domain, size):
                            if not any(all(f.table[i] == g.table[i] for i in B)
                                       for f in fam):
                                ok = False
                    if ok:
                        want.append(g)
                assert got == OpFamily(want)

    def test_loc_equals_explicit_family(self):
        fam = [AND, Operation(2, 2, (0, 1, 1, 1))]
        assert loc_ops(fam, 2, 2) == OpFamily(fam)
        assert len(loc_ops([], 2, 2)) == 0

    def test_nesting_chain(self):
        import random
        rng = random.Random(3)
        ops2 = list(all_operations(C2, 2))
        for _ in range(10):
            fam = rng.sample(ops2, rng.randint(0, 5))
            prev = None
            for s in range(0, 5):
                cur = sloc_ops(fam, s, 2, 2)
                if prev is not None:
                    assert cur.issubset(prev)
                assert OpFamily(fam).issubset(cur) or not fam
                prev = cur
            assert loc_ops(fam, 2, 2).issubset(prev)

    def test_sloc_composition_law(self):
        import random
        rng = random.Random(5)
        ops1 = list(all_operations(C2, 1))
        for _ in range(10):
            fam = rng.sample(ops1, rng.randint(1, 3))
            for s in range(3):
                for t in range(3):
                    assert sloc_ops(sloc_ops(fam, t, 1, 2), s, 1, 2) == \
                        sloc_ops(fam, min(s, t), 1, 2)

    def test_sloc_monotone_in_family(self):
        small = [AND]
        big = [AND, Operation(2, 2, (0, 1, 1, 1))]
        for s in range(4):
            assert sloc_ops(small, s, 2, 2).issubset(sloc_ops(big, s, 2, 2))


def _invp_upto2(F):
    """The k=2 invariant pairs of arity <= 2, one `invp` per arity."""
    return PairFamily(p for m in range(3) for p in invp(F, m, 2))


def _polp_upto2(Q):
    """The k=2 polymorphisms of arity <= 2, one `polp` per arity."""
    return OpFamily(f for n in range(3) for f in polp(Q, n, 2))


class TestGaloisWindows:
    def test_extensivity_both_sides(self):
        F = [AND]
        q = _invp_upto2(F)
        assert AND in _polp_upto2(q)
        Q = [LEQ_PAIR]
        g = _polp_upto2(Q)
        assert LEQ_PAIR in _invp_upto2(g)

    def test_triple_composition(self):
        Q = [LEQ_PAIR]
        g = _polp_upto2(Q)
        assert _polp_upto2(_invp_upto2(g)) == g
        F = [NOT]
        q = _invp_upto2(F)
        assert _invp_upto2(_polp_upto2(q)) == q


class TestDegenerateCarriers:
    def test_k0_universe(self):
        # on the empty carrier the nullary full/empty pairs control everything
        assert len(list(all_operations(Carrier(0), 1))) == 1
        f = next(iter(all_operations(Carrier(0), 1)))
        assert preserves(f, RelationPair.identical(Relation.full(0, 0)))
        assert not preserves(f, RelationPair.of(Relation.full(0, 0),
                                                Relation.empty(0, 0)))

    def test_k0_polp_distinguishes(self):
        full0_pair = RelationPair.of(Relation.full(0, 0), Relation.empty(0, 0))
        assert len(polp([full0_pair], 1, 0)) == 0
        assert len(polp([], 1, 0)) == 1

    def test_k1(self):
        assert len(polp([], 1, 1)) == 1
        assert len(invp([], 1, 1)) == 3
