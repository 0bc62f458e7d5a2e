import dataclasses
import decimal
import itertools
import pickle
import sys
import time
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finclone.core import (
    DEFAULT_CAP,
    CapExceeded,
    Carrier,
    DomainError,
    LaneTable,
    OpFamily,
    Operation,
    PairFamily,
    Relation,
    RelationPair,
    _log2_floor,
    all_operations,
    all_pairs,
    capped,
    check_cap,
    column_pools,
    compose,
    enc,
    int_lanes,
    is_projection,
    lane_bytes,
    lane_ints,
    or_zeta,
    pack,
    pair_leq,
    pair_qleq,
    pair_rows,
    polymer,
    projection,
    relaxations_of,
    row_images,
    unpack,
)
from finclone.preserve import op_image_mask

AND = Operation(2, 2, (0, 0, 0, 1))
NOT = Operation(2, 1, (1, 0))
CONST0 = Operation(2, 0, (0,))


def rel(k, arity, tuples):
    return Relation.from_tuples(Carrier(k), arity, tuples)


def refused_cap(cost):
    """The cap that refused `cost`, or None when it passed."""
    try:
        check_cap("probe", cost)
    except CapExceeded as e:
        return e.cap
    return None


class TestCapScope:
    def test_default_cap_outside_every_scope(self):
        assert refused_cap(DEFAULT_CAP) is None
        assert refused_cap(DEFAULT_CAP + 1) == DEFAULT_CAP

    def test_innermost_scope_applies(self):
        with capped(10):
            assert refused_cap(10) is None and refused_cap(11) == 10
            with capped(3):
                assert refused_cap(4) == 3
                with capped(20):
                    assert refused_cap(11) is None and refused_cap(21) == 20
            assert refused_cap(11) == 10

    def test_outer_cap_restored_after_an_exception(self):
        with capped(10):
            with pytest.raises(CapExceeded, match="^inner: estimated cost 6 exceeds cap 5$"):
                with capped(5):
                    check_cap("inner", 6)
            assert refused_cap(11) == 10
        assert refused_cap(DEFAULT_CAP + 1) == DEFAULT_CAP

    def test_zero_is_a_cap_and_negative_is_rejected(self):
        with capped(0):
            assert refused_cap(0) is None and refused_cap(1) == 0
            with pytest.raises(DomainError, match="^cap must be >= 0$"):
                with capped(-1):
                    pass
            assert refused_cap(1) == 0

    def test_a_cost_too_long_for_decimal_is_shown_by_magnitude(self):
        # CPython refuses to print ints of more than 4,300 digits by default
        assert str(CapExceeded("small", 10 ** 4299, 7)) == \
            f"small: estimated cost {10 ** 4299} exceeds cap 7"
        e = CapExceeded("big", 2 ** 16384, 7)
        assert (e.cost, e.cap) == (">= 2^16384", 7)
        assert str(e) == "big: estimated cost >= 2^16384 exceeds cap 7"
        assert CapExceeded("big", 2 ** 16385 - 1, 7).cost == ">= 2^16384"

    def test_a_cap_too_long_for_decimal_is_shown_by_magnitude(self):
        with capped(2 ** 14300):
            with pytest.raises(CapExceeded) as refused:
                check_cap("probe", 2 ** 14301)
        assert (refused.value.cost, refused.value.cap) == (">= 2^14301", ">= 2^14300")
        assert str(refused.value) == "probe: estimated cost >= 2^14301 exceeds cap >= 2^14300"
        # a cap that prints keeps its digits
        e = CapExceeded("probe", 2 ** 16384, 10 ** 4299)
        assert e.cap == 10 ** 4299
        assert str(e) == f"probe: estimated cost >= 2^16384 exceeds cap {10 ** 4299}"

    def test_magnitude_of_a_power_from_its_leading_bits(self):
        # 2^200 - 1 times a power of two straddles a power of two in its
        # leading bits, so the mantissas widen until the two bounds agree
        for cost, base, exponent in itertools.product(
                (1, 2, 3, 2 ** 200 - 1, 10 ** 50), (2, 3, 5, 7, 256, 1000),
                (0, 1, 2, 127, 1000, 20000)):
            assert _log2_floor(cost, base, exponent) == \
                (cost * base ** exponent).bit_length() - 1, (cost, base, exponent)

    def test_a_power_is_refused_as_if_it_were_built(self):
        # around the length past which a power is refused unbuilt: four bits
        # for each of the 4,300 digits that `str` converts by default
        for cost, base, exponent, limit in (
                (1, 3, 17199, 7), (1, 3, 17200, 7), (1, 3, 17201, 7), (1, 2, 17201, 7),
                (5, 3, 17200, 7), (1, 3, 10 ** 5, 7), (14348907, 3, 10 ** 5, 7),
                (1, 3, 20, 3 ** 20), (1, 3, 20, 3 ** 20 - 1), (1, 0, 5, 0), (0, 3, 10 ** 6, 0),
                (1, 2, 3000, 2 ** 3000), (1, 2, 3000, 2 ** 3000 - 1), (1, 3, 20000, 2 ** 3000)):
            with capped(limit):
                try:
                    check_cap("probe", cost, base, exponent)
                except CapExceeded as e:
                    got = (str(e), e.cost)
                else:
                    got = None
            built = cost * base ** exponent
            expected = None if built <= limit else \
                (str(CapExceeded("probe", built, limit)), CapExceeded("probe", built, limit).cost)
            assert got == expected, (cost, base, exponent, limit)

    def test_a_power_far_past_the_cap_is_never_built(self):
        start = time.perf_counter()
        for exponent in (3 ** 15, 3 ** 20, 10 ** 10):
            with pytest.raises(CapExceeded, match=r"^probe: estimated cost >= 2\^\d+ exceeds"):
                check_cap("probe", 3 ** 15, 3, exponent)
        assert time.perf_counter() - start < 1

    def test_floor_is_exact_past_the_magnitude_test(self):
        # powers long enough that check_cap refuses them unbuilt, against
        # the built power
        for base, exponent in itertools.product(
                (3, 5, 7), (17201, 54321, 3 ** 11, 524287, 10 ** 6)):
            for cost in (1, 10 ** 50):
                assert _log2_floor(cost, base, exponent) == \
                    (cost * base ** exponent).bit_length() - 1, (cost, base, exponent)

    def test_floor_of_a_power_too_large_to_build(self):
        # the estimates of `check least-pair --k 30`, 3^(30^30), and of
        # `polp --arity 90` at k=3, 3^(3^90), against 100-digit logarithms;
        # a base 2^j * 3 adds j times the exponent
        ctx = decimal.Context(prec=100)
        log2_3 = ctx.divide(ctx.ln(3), ctx.ln(2))
        for exponent in (30 ** 30, 3 ** 90, 10 ** 40 + 1):
            want = int(ctx.multiply(exponent, log2_3))
            for j in (0, 1, 5):
                assert _log2_floor(1, 3 << j, exponent) == want + j * exponent
        assert _log2_floor(1, 2, 2000 ** 2000) == 2000 ** 2000

    def test_a_floor_too_long_to_print_is_shown_by_its_bit_length(self):
        # 2^(2000^2000), the estimate of `check semigroups --k 2000`: its
        # floor has 6,603 digits, more than `str` converts
        start = time.perf_counter()
        with pytest.raises(CapExceeded) as refused:
            check_cap("probe", 1, 2, 2000 ** 2000)
        assert refused.value.cost == f">= 2^(2^{(2000 ** 2000).bit_length() - 1})"
        with pytest.raises(CapExceeded) as refused:
            check_cap("probe", 1, 3, 2000 ** 2000)
        assert refused.value.cost == ">= 2^(2^21932)"
        assert time.perf_counter() - start < 1


class TestEncoding:
    def test_empty_tuple(self):
        assert Carrier(2).encode(()) == 0

    def test_base2(self):
        assert Carrier(2).encode((1, 0)) == 2

    def test_base3(self):
        assert Carrier(3).encode((2, 1)) == 7

    def test_round_trip_exhaustive(self):
        for k in range(5):
            c = Carrier(k)
            for arity in range(5):
                for t in c.tuples(arity):
                    assert c.decode(c.encode(t), arity) == t

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            Carrier(2).encode((0, 2))

    def test_operation_call_reads_the_encoded_entry(self):
        for k in range(1, 4):
            c = Carrier(k)
            for arity in range(4):
                f = Operation(k, arity, tuple(i * 7 % k for i in range(k ** arity)))
                for t in c.tuples(arity):
                    assert f(t) == f.table[c.encode(t)]

    def test_operation_call_errors_match_encode(self):
        f = Operation(2, 2, (0, 0, 0, 1))
        for bad in ((0, 2), (-1, 0), (3, 5)):
            with pytest.raises(DomainError) as call:
                f(bad)
            with pytest.raises(DomainError) as enc:
                Carrier(2).encode(bad)
            assert str(call.value) == str(enc.value)
        with pytest.raises(DomainError, match="expected 2 arguments, got 1"):
            f((0,))


class TestProjection:
    def test_identity(self):
        assert projection(1, 0, Carrier(2)).table == (0, 1)

    def test_binary_first(self):
        assert projection(2, 0, Carrier(2)).table == (0, 0, 1, 1)

    def test_binary_second(self):
        assert projection(2, 1, Carrier(2)).table == (0, 1, 0, 1)

    def test_no_nullary_projection(self):
        with pytest.raises(DomainError):
            projection(0, 0, Carrier(2))

    def test_coordinate_range(self):
        with pytest.raises(DomainError):
            projection(2, 2, Carrier(2))

    def test_is_projection(self):
        c = Carrier(2)
        assert is_projection(projection(2, 1, c))
        assert not is_projection(Operation(2, 2, (0, 0, 0, 1)))
        assert not is_projection(Operation(2, 0, (0,)))


class TestPolymer:
    def test_identify_and_args(self):
        and_op = Operation(2, 2, (0, 0, 0, 1))
        assert polymer((0, 0), and_op, 1).table == (0, 1)

    def test_fictitious(self):
        ident = Operation(2, 1, (0, 1))
        assert polymer((1,), ident, 2).table == (0, 1, 0, 1)

    def test_nullary_into_binary(self):
        const1 = Operation(2, 0, (1,))
        assert polymer((), const1, 2).table == (1, 1, 1, 1)

    def test_agrees_with_projection_composition(self):
        c = Carrier(2)
        for n in range(1, 3):
            for m in range(1, 3):
                for f in all_operations(c, n):
                    for alpha in itertools.product(range(m), repeat=n):
                        via_comp = compose(f, [projection(m, a, c) for a in alpha])
                        assert polymer(alpha, f, m) == via_comp


class TestCompose:
    def test_not_not(self):
        notop = Operation(2, 1, (1, 0))
        assert compose(notop, [notop]).table == (0, 1)

    def test_projections_neutral(self):
        c = Carrier(2)
        and_op = Operation(2, 2, (0, 0, 0, 1))
        assert compose(and_op, [projection(2, 0, c), projection(2, 1, c)]) == and_op

    def test_nullary_with_target(self):
        const0 = Operation(2, 0, (0,))
        assert compose(const0, [], target_arity=2).table == (0, 0, 0, 0)

    def test_nullary_requires_target(self):
        with pytest.raises(DomainError):
            compose(Operation(2, 0, (0,)), [])

    def test_mixed_inner_arity_rejected(self):
        and_op = Operation(2, 2, (0, 0, 0, 1))
        with pytest.raises(DomainError):
            compose(and_op, [Operation(2, 1, (0, 1)), Operation(2, 2, (0, 0, 0, 1))])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_superassociativity(self, data):
        c = Carrier(2)
        n = data.draw(st.integers(0, 2), label="n")
        m = data.draw(st.integers(1, 2), label="m")
        p = data.draw(st.integers(1, 3), label="p")
        table = st.integers(0, 1)
        f = Operation(2, n, tuple(data.draw(table) for _ in range(2 ** n)))
        gs = [Operation(2, m, tuple(data.draw(table) for _ in range(2 ** m)))
              for _ in range(n)]
        rs = [Operation(2, p, tuple(data.draw(table) for _ in range(2 ** p)))
              for _ in range(m)]
        left = compose(compose(f, gs, target_arity=m), rs, target_arity=p)
        right = compose(f, [compose(g, rs) for g in gs], target_arity=p)
        assert left == right


class TestOperationHash:
    """The hash of an `Operation`, that of its fields as a tuple."""

    def test_equal_operations_share_one_image_entry(self):
        f, g = Operation(3, 2, tuple(range(3)) * 3), Operation(3, 2, tuple(range(3)) * 3)
        assert f == g and f is not g and hash(f) == hash(g)
        assert hash(f) == hash((f.k, f.arity, f.table))
        op_image_mask(f, 2)
        before = op_image_mask.cache_info()
        op_image_mask(g, 2)
        after = op_image_mask.cache_info()
        assert (after.hits, after.currsize) == (before.hits + 1, before.currsize)

    def test_pickle_keeps_equality_and_hash(self):
        f = Operation(2, 2, (0, 1, 1, 0))
        back = pickle.loads(pickle.dumps(f))
        assert back == f and hash(back) == hash(f) and {back, f} == {f}

    def test_fields_repr_and_dict_are_unchanged(self):
        f = Operation(2, 1, (1, 0))
        assert [x.name for x in dataclasses.fields(Operation)] == ["k", "arity", "table"]
        assert repr(f) == "Operation(k=2, arity=1, table=(1, 0))"
        assert dataclasses.asdict(f) == {"k": 2, "arity": 1, "table": (1, 0)}


def row_sums_by_tuples(pools, width):
    """The oracle for `row_sums`: entrywise sums of one tuple from each pool,
    over the product of the pools; with no pools the all-zero tuple."""
    if not pools:
        yield (0,) * width
        return
    *front, last = pools
    if not front:
        yield from last
        return
    for row in row_sums_by_tuples(front, width):
        for y in last:
            yield tuple(map(add, row, y))


def row_images_by_tuples(tables, pools, width):
    """The oracle for `row_images`: the table value at every entry of every
    row sum, one tuple at a time, in the engine's order: row by row, and
    within a row table by table."""
    for row in row_sums_by_tuples(pools, width):
        for table in tables:
            yield tuple(map(table.__getitem__, row))


class TestLaneEngine:
    """The byte-lane row engine against the tuple engine it replaced: the
    same rows, in the same order, on every lane width that holds the table."""

    @staticmethod
    def check(k, tables, pools, width, lane):
        a = len(pools)
        scaled = [[tuple(x * k ** (a - 1 - j) for x in t) for t in pool]
                  for j, pool in enumerate(pools)]
        lanes = [[x * k ** (a - 1 - j) for x in lane_ints(pack(t, lane) for t in pool)]
                 for j, pool in enumerate(pools)]
        identity = LaneTable.of(range(k ** a), lane)
        sums = [unpack(t, lane) for t in row_images([identity], lanes, width)]
        assert sums == list(row_sums_by_tuples(scaled, width))
        laid_out = [LaneTable.of(table, lane) for table in tables]
        images = [unpack(t, lane) for t in row_images(laid_out, lanes, width)]
        assert images == list(row_images_by_tuples(tables, scaled, width))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_tuple_engine(self, data):
        k = data.draw(st.integers(0, 4), label="k")
        # a nullary table needs a value, which a carrier of size 0 lacks
        a = data.draw(st.integers(1 if k == 0 else 0, 4), label="arity")
        width = data.draw(st.integers(0, 5), label="width")
        value = st.integers(0, k - 1) if k else st.nothing()
        table = data.draw(st.lists(value, min_size=k ** a, max_size=k ** a), label="table")
        # at k = 0 the one member is the empty tuple, at width 0
        member, most = st.tuples(*[value] * width), 4 if k or not width else 0
        pools = [data.draw(st.lists(member, max_size=most), label=f"pool {j}") for j in range(a)]
        lanes = [b for b in (1, 2, 4, 8) if b >= lane_bytes(max(k, k ** a))]
        self.check(k, [table], pools, width, data.draw(st.sampled_from(lanes), label="lane"))

    def test_column_pools_lay_out_the_matrices_over_a_relation(self):
        # the members are rho's tuples, packed and ascending, and the row
        # sums, read through the identity table, are the scopes of the
        # n-column matrices over rho in `row_sums` order
        for k, m, n in itertools.product(range(4), range(3), range(4)):
            carrier, full = Carrier(k), (1 << k ** m) - 1
            for rho in (0, full // 3, full):
                lane, members, pools = column_pools(k, m, rho, n)
                tuples = list(Relation(k, m, rho).tuples())
                assert lane == lane_bytes(max(k, k ** n))
                assert [unpack(x, lane) for x in members] == tuples
                identity = LaneTable.of(range(k ** n), lane)
                scopes = [unpack(t, lane) for t in row_images([identity], pools, m)]
                assert scopes == [tuple(carrier.encode([c[r] for c in cols]) for r in range(m))
                                  for cols in itertools.product(tuples, repeat=n)]

    def test_tables_beyond_one_byte_lanes(self):
        # 2^9, 3^6 and 4^5 table entries need two-byte lanes, and so do the
        # values of a carrier of 300
        for k, a in ((2, 9), (3, 6), (4, 5), (300, 1)):
            assert lane_bytes(k ** a) == 2
            table = [i * 7 % k for i in range(k ** a)]
            members = list(itertools.islice(Carrier(k).tuples(3), 3))
            for pools in ([members] * a, [members[:1]] * (a - 1) + [[]]):
                self.check(k, [table], pools, 3, 2)

    def test_no_pools_and_empty_pools(self):
        for lane in (1, 2):
            self.check(3, [[2]], [], 4, lane)
            self.check(3, [[2]], [], 0, lane)
            self.check(2, [[0, 1, 1, 0]], [[(0, 1)], []], 2, lane)
            self.check(2, [[0, 1, 1, 0]], [[], [(0, 1)]], 2, lane)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_several_tables_share_the_rows(self, data):
        # 2 or 3 tables of one arity read the same rows, on one-byte and
        # two-byte lanes, empty pools included
        k = data.draw(st.integers(1, 3), label="k")
        a = data.draw(st.integers(0, 3), label="arity")
        width = data.draw(st.integers(0, 4), label="width")
        value = st.integers(0, k - 1)
        table = st.lists(value, min_size=k ** a, max_size=k ** a)
        tables = data.draw(st.lists(table, min_size=2, max_size=3), label="tables")
        member = st.tuples(*[value] * width)
        pools = [data.draw(st.lists(member, max_size=3), label=f"pool {j}") for j in range(a)]
        self.check(k, tables, pools, width, data.draw(st.sampled_from((1, 2)), label="lane"))

    def test_several_tables_on_no_pools_and_empty_pools(self):
        tables = [[0, 1, 1, 0], [1, 1, 1, 0], [0, 0, 0, 1]]
        for lane in (1, 2):
            self.check(3, [[2], [0], [1]], [], 4, lane)
            self.check(3, [[2], [1]], [], 0, lane)
            self.check(2, tables, [[(0, 1), (1, 1)], []], 2, lane)
            self.check(2, tables[:2], [[], [(0, 1)]], 2, lane)
            self.check(2, tables, [[(0, 1), (1, 0)], [(0, 0), (1, 1), (0, 1)]], 2, lane)

    def test_lane_widths(self):
        assert [lane_bytes(n) for n in (0, 1, 256, 257, 2 ** 16, 2 ** 16 + 1, 2 ** 32 + 1,
                                        2 ** 64)] == [1, 1, 1, 2, 2, 4, 8, 8]
        # no lane holds more: a refusal that names the layer, not a crash
        with pytest.raises(CapExceeded, match=f"^probe: estimated cost {2 ** 64 + 1} "
                                              f"exceeds cap {2 ** 64}$"):
            lane_bytes(2 ** 64 + 1, "probe")

    def test_int_lanes_reads_lanes_lowest_first(self):
        for lane in (1, 2, 4, 8):
            for t in ((), (0,), (255, 0, 7), (1, 2, 3, 4, 5), (3, 0, 0, 0)):
                x = sum(v << 8 * lane * i for i, v in enumerate(t))
                assert int_lanes(x, lane, len(t)) == t
                if sys.byteorder == "little":
                    # the inverse of `lane_ints`
                    assert lane_ints([pack(t, lane)]) == [x]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_or_zeta_matches_definition(self, data):
        # lane S of the transform is the OR of the lanes of every subset of S
        n = data.draw(st.integers(0, 4), label="n")
        bits = data.draw(st.sampled_from((1, 3, 8)), label="bits")
        lanes = data.draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=1 << n,
                                   max_size=1 << n), label="lanes")
        x = sum(v << bits * S for S, v in enumerate(lanes))
        want = [0] * (1 << n)
        for S in range(1 << n):
            for T in range(1 << n):
                if not T & ~S:
                    want[S] |= lanes[T]
        assert or_zeta(x, bits, n) == sum(v << bits * S for S, v in enumerate(want))

    def test_pack_round_trip(self):
        for lane in (1, 2, 4, 8):
            for t in ((), (0,), (255, 0, 7), (1, 2, 3, 4, 5)):
                data = pack(t, lane)
                assert len(data) == len(t) * lane and unpack(data, lane) == t

    def test_pack_matches_the_per_entry_layout(self):
        # one array of native lanes, as `to_bytes` lays out each entry
        for lane in (1, 2, 4, 8):
            top = 256 ** lane - 1
            for t in ((), (0,), (top,), (1, top, 0, 7), tuple(range(256))):
                assert pack(t, lane) == b"".join(x.to_bytes(lane, sys.byteorder) for x in t)


class TestRelationsAndPairs:
    def test_relation_membership(self):
        r = rel(2, 2, [(0, 0), (1, 1)])
        assert len(r) == 2
        assert sorted(r.tuples()) == [(0, 0), (1, 1)]

    def test_nullary_relation(self):
        assert len(Relation.full(2, 0)) == 1
        assert len(Relation.empty(2, 0)) == 0

    def test_pair_validates_inclusion(self):
        with pytest.raises(DomainError):
            RelationPair.of(rel(2, 1, [(0,)]), rel(2, 1, [(1,)]))

    def test_arity_part_of_identity(self):
        p1 = RelationPair.of(Relation.empty(2, 1), Relation.empty(2, 1))
        p2 = RelationPair.of(Relation.empty(2, 2), Relation.empty(2, 2))
        assert p1 != p2

    def test_pair_leq(self):
        p = RelationPair.of(rel(2, 2, [(0, 0), (1, 1)]), rel(2, 2, [(0, 0)]))
        q = RelationPair.of(rel(2, 2, [(0, 0), (0, 1), (1, 1)]),
                            rel(2, 2, [(0, 0), (1, 1)]))
        assert pair_leq(p, q)
        assert not pair_leq(q, p)
        bottom = RelationPair.of(Relation.empty(2, 2), Relation.empty(2, 2))
        assert pair_leq(bottom, p)

    def test_pair_qleq(self):
        p = RelationPair.of(rel(2, 1, [(0,)]), Relation.empty(2, 1))
        q = RelationPair.identical(rel(2, 1, [(0,)]))
        assert pair_qleq(p, q) and pair_qleq(q, p)
        r = RelationPair.identical(rel(2, 1, [(1,)]))
        assert not pair_qleq(q, r)

    def test_arity_mismatch_rejected(self):
        p1 = RelationPair.identical(Relation.full(2, 1))
        p2 = RelationPair.identical(Relation.full(2, 2))
        with pytest.raises(DomainError):
            pair_leq(p1, p2)


class TestValidation:
    # each structural check of a constructor or an argument, with its message
    @pytest.mark.parametrize("call,message", [
        pytest.param(lambda: Operation(2, -1, ()), "operation arity must be >= 0",
                     id="operation-arity"),
        pytest.param(lambda: Operation(2, 2, (0, 1, 0)), "table length 3 != k^arity = 4",
                     id="operation-table-length"),
        pytest.param(lambda: Operation(2, 1, (0, 2)), "table value 2 outside carrier of size 2",
                     id="operation-table-value"),
        pytest.param(lambda: Relation(2, -1, 0), "relation arity must be >= 0",
                     id="relation-arity"),
        pytest.param(lambda: Relation(2, 1, 0b100),
                     "relation mask has bits outside the tuple range", id="relation-mask-high"),
        pytest.param(lambda: Relation(2, 1, -1),
                     "relation mask has bits outside the tuple range", id="relation-mask-negative"),
        pytest.param(lambda: Relation.from_tuples(Carrier(2), 2, [(0, 1), (1,)]),
                     "tuple (1,) does not have arity 2", id="from-tuples-arity"),
        pytest.param(lambda: RelationPair(2, 2, Relation.full(2, 1), Relation.empty(2, 2)),
                     "pair components must match the pair arity", id="pair-arity"),
        pytest.param(lambda: RelationPair(2, 1, Relation.full(2, 1), Relation.empty(3, 1)),
                     "pair components must share the pair carrier", id="pair-carrier"),
        pytest.param(lambda: Carrier(2).decode(4, 2), "index 4 out of range for arity 2, k=2",
                     id="decode-high"),
        pytest.param(lambda: Carrier(2).decode(-1, 2), "index -1 out of range for arity 2, k=2",
                     id="decode-negative"),
        pytest.param(lambda: compose(AND, [NOT]), "need 2 inner operations, got 1",
                     id="compose-count"),
        pytest.param(lambda: compose(CONST0, []),
                     "nullary composition requires an explicit target arity",
                     id="compose-nullary"),
        pytest.param(lambda: compose(CONST0, [], target_arity=-1),
                     "target arity must be >= 0", id="compose-negative-target"),
        pytest.param(lambda: compose(AND, [NOT, AND]),
                     "inner operations must share a common arity", id="compose-inner-arity"),
        pytest.param(lambda: compose(NOT, [Operation(3, 1, (0, 1, 2))]),
                     "carrier mismatch in composition", id="compose-carrier"),
        pytest.param(lambda: compose(NOT, [NOT], target_arity=2),
                     "target arity conflicts with inner operation arity", id="compose-target"),
        pytest.param(lambda: polymer((0,), AND, 1), "index map has length 1, operation arity 2",
                     id="polymer-length"),
        pytest.param(lambda: polymer((0, 0), AND, -1), "target arity must be >= 0",
                     id="polymer-negative-target"),
        pytest.param(lambda: polymer((0, 2), AND, 2),
                     "index map value 2 out of range for target arity 2", id="polymer-value"),
        pytest.param(lambda: pair_qleq(RelationPair.identical(Relation.full(2, 1)),
                                       RelationPair.identical(Relation.full(2, 2))),
                     "pair comparison requires equal carrier and arity", id="qleq-arity"),
        pytest.param(lambda: pair_qleq(RelationPair.identical(Relation.full(2, 1)),
                                       RelationPair.identical(Relation.full(3, 1))),
                     "pair comparison requires equal carrier and arity", id="qleq-carrier"),
        pytest.param(lambda: list(pair_rows([RelationPair.identical(Relation.full(2, 1)),
                                             RelationPair.identical(Relation.full(3, 1))], 2)),
                     "carrier mismatch in pair family", id="pair-rows-carrier"),
    ])
    def test_each_check_raises_its_message(self, call, message):
        with pytest.raises(DomainError) as raised:
            call()
        assert str(raised.value) == message


class TestFamilies:
    def test_op_family_dedup_and_order(self):
        a = Operation(2, 2, (0, 0, 0, 1))
        b = Operation(2, 1, (1, 0))
        fam = OpFamily([a, b, a])
        assert list(fam) == [b, a]
        assert len(fam) == 2

    def test_pair_family_order(self):
        p = RelationPair.identical(Relation.full(2, 1))
        q = RelationPair.of(Relation.full(2, 1), Relation.empty(2, 1))
        fam = PairFamily([p, q])
        assert list(fam) == [q, p]

    def test_set_equality(self):
        a = Operation(2, 1, (0, 1))
        b = Operation(2, 1, (1, 0))
        assert OpFamily([a, b]) == OpFamily([b, a])


class TestRelaxation:
    def test_enc_empty(self):
        assert len(enc([])) == 0

    def test_relaxations_count(self):
        p = RelationPair.of(Relation.full(2, 1), Relation.empty(2, 1))
        assert len(relaxations_of(p)) == 9

    def test_identical_pair_is_rigid(self):
        r = rel(2, 1, [(0,), (1,)])
        assert list(relaxations_of(RelationPair.identical(r))) == [RelationPair.identical(r)]

    def test_relaxation_definition_exhaustive(self):
        # every relaxation sits between the original components
        for p in all_pairs(Carrier(2), 1):
            got = relaxations_of(p)
            want = [
                q for q in all_pairs(Carrier(2), 1)
                if p.rho_prime.issubset(q.rho_prime) and q.rho.issubset(p.rho)
            ]
            assert set(got) == set(want)

    def test_enc_extensive_monotone_idempotent(self):
        pairs = list(all_pairs(Carrier(2), 1))
        import random
        rng = random.Random(7)
        for _ in range(30):
            q1 = rng.sample(pairs, rng.randint(0, 4))
            q2 = q1 + rng.sample(pairs, rng.randint(0, 4))
            e1, e2 = enc(q1), enc(q2)
            assert all(p in e1 for p in q1)
            assert e1.issubset(e2)
            assert enc(e1) == e1
