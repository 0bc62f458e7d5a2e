import itertools
import random
import time

import pytest

from finclone import generation
from finclone.core import (
    CapExceeded,
    Carrier,
    DomainError,
    OpFamily,
    Operation,
    all_operations,
    capped,
    check_cap,
    compose,
    is_projection,
    polymer,
    projection,
)
from finclone.generation import (
    GammaResult,
    clone_nary_part,
    clone_tables,
    decide_projections,
    gamma_fixpoint,
    iterative_op,
    semiclone_nary_part,
    semigroup_generate,
    star,
)
from finclone.preserve import preserves
from finclone.core import Relation, RelationPair

C2 = Carrier(2)
ID = Operation(2, 1, (0, 1))
NOT = Operation(2, 1, (1, 0))
CONST0 = Operation(2, 1, (0, 0))
AND = Operation(2, 2, (0, 0, 0, 1))
OR = Operation(2, 2, (0, 1, 1, 1))
NAND = Operation(2, 2, (1, 1, 1, 0))


class TestIterativeOps:
    def test_delta_and(self):
        assert iterative_op("delta", AND).table == (0, 1)

    def test_nabla_id(self):
        got = iterative_op("nabla", ID)
        assert got == projection(2, 1, C2)

    def test_tau_identity_on_unary(self):
        assert iterative_op("tau", NOT) == NOT
        assert iterative_op("tau", Operation(2, 0, (1,))) == Operation(2, 0, (1,))

    def test_zeta_cycles(self):
        f = Operation(2, 2, (0, 1, 1, 1))
        zf = iterative_op("zeta", f)
        for x in C2.tuples(2):
            assert zf(x) == f((x[1], x[0]))

    def test_zeta_nullary(self):
        c = Operation(2, 0, (1,))
        assert iterative_op("zeta", c) == c

    def test_delta_drops_arity(self):
        f = Operation(2, 3, tuple(max(t) for t in C2.tuples(3)))
        df = iterative_op("delta", f)
        assert df.arity == 2
        for x in C2.tuples(2):
            assert df(x) == f((x[0], x[0], x[1]))

    def test_unknown_symbol(self):
        with pytest.raises(DomainError):
            iterative_op("omega", ID)


class TestStar:
    def test_not_not(self):
        assert star(NOT, NOT) == ID

    def test_and_id(self):
        assert star(AND, ID) == AND

    def test_nullary_nullary(self):
        c1, c0 = Operation(2, 0, (1,)), Operation(2, 0, (0,))
        assert star(c1, c0) == c1

    def test_arity_formula(self):
        for f in (AND, NOT, Operation(2, 0, (0,))):
            for g in (OR, ID, Operation(2, 0, (1,))):
                assert star(f, g).arity == max(0, f.arity + g.arity - 1)

    def test_binary_binary_semantics(self):
        # g consumes the first two arguments, the rest feed f's tail slots
        h = star(AND, OR)
        assert h.arity == 3
        for x in C2.tuples(3):
            assert h(x) == AND((OR((x[0], x[1])), x[2]))

    def test_nullary_f_positive_g(self):
        c1 = Operation(2, 0, (1,))
        h = star(c1, AND)
        assert h.arity == 1 and h.table == (1, 1)


def star_by_composition(f, g):
    """`star` assembled from `compose`, `projection` and `polymer`: g over
    the first m projections of arity n + m - 1 feeds f's first slot, the
    later projections its other slots."""
    n, m = f.arity, g.arity
    k_out = max(0, n + m - 1)
    carrier = f.carrier
    if n == 0:
        if k_out == 0:
            return f
        return polymer([], f, k_out)
    inner_first = compose(g, [projection(k_out, i, carrier) for i in range(m)], k_out) \
        if m > 0 else polymer([], g, k_out)
    if n == 1:
        if m == 0:
            return compose(f, [g])
        return compose(f, [inner_first])
    rest = [projection(k_out, m + j, carrier) for j in range(n - 1)]
    return compose(f, [inner_first] + rest)


class TestStarByComposition:
    """`star` from its definition against `star_by_composition`."""

    def test_every_pair_up_to_arity_2_at_k_le_2(self):
        for k in (0, 1, 2):
            ops = [f for n in (0, 1, 2) for f in all_operations(Carrier(k), n)]
            for f in ops:
                for g in ops:
                    assert star(f, g) == star_by_composition(f, g), (f, g)

    def test_k3_seeded_pairs(self):
        rng = random.Random(8)
        for _ in range(100):
            f, g = (Operation(3, n, tuple(rng.randrange(3) for _ in range(3 ** n)))
                    for n in (rng.randrange(4), rng.randrange(4)))
            assert star(f, g) == star_by_composition(f, g), (f, g)

    def test_carrier_mismatch(self):
        with pytest.raises(DomainError, match="carrier mismatch in star"):
            star(NOT, Operation(3, 1, (0, 1, 2)))


class TestGammaFixpoint:
    def test_empty_family(self):
        g = gamma_fixpoint([], 2, [(0, 1)], 2)
        assert g.R == frozenset({(0, 1)})
        assert g.S == frozenset()
        assert g.steps == 0

    def test_and_fixed(self):
        g = gamma_fixpoint([AND], 2, [(0, 1)], 2)
        assert g.R == g.S == frozenset({(0, 1)})

    def test_not_orbit(self):
        g = gamma_fixpoint([NOT], 2, [(0, 1)], 2)
        assert g.R == g.S == frozenset({(0, 1), (1, 0)})

    def test_steps_bound(self):
        for f in all_operations(C2, 2):
            for seed_bits in range(16):
                space = list(itertools.product((0, 1), repeat=2))
                B = [space[i] for i in range(4) if seed_bits >> i & 1]
                g = gamma_fixpoint([f], 2, B, 2)
                assert g.steps <= 2 ** 2
                assert g.S <= g.R

    def test_result_is_invariant_pair(self):
        # (R, S) as relations over the index space is preserved by every generator
        for F in ([AND], [NOT], [AND, NOT], [Operation(2, 0, (1,))]):
            g = gamma_fixpoint(F, 2, [(0, 1)], 2)
            rho = Relation.from_tuples(C2, 2, g.R)
            rho_p = Relation.from_tuples(C2, 2, g.S)
            pair = RelationPair.of(rho, rho_p)
            for f in F:
                assert preserves(f, pair)

    def test_minimality_brute_force(self):
        # least pair with B inside the first component, all generators preserving
        space = list(itertools.product((0, 1), repeat=2))
        for f in list(all_operations(C2, 1)) + [AND, OR]:
            for seed_bits in range(16):
                B = [space[i] for i in range(4) if seed_bits >> i & 1]
                g = gamma_fixpoint([f], 2, B, 2)
                best_r, best_s = None, None
                for rho_bits in range(16):
                    rho = frozenset(space[i] for i in range(4) if rho_bits >> i & 1)
                    if not all(t in rho for t in B):
                        continue
                    for sub in map(frozenset,
                                   itertools.chain.from_iterable(
                                       itertools.combinations(sorted(rho), r)
                                       for r in range(len(rho) + 1))):
                        ok = all(
                            tuple(f(tuple(a[i] for a in args)) for i in range(2)) in sub
                            for args in itertools.product(sorted(rho), repeat=f.arity)
                        )
                        if ok:
                            best_r = rho if best_r is None else best_r & rho
                            best_s = sub if best_s is None else best_s & sub
                assert g.R == best_r
                assert g.S == best_s


def gamma_by_definition(F, ksize, B, k):
    """The naive fixpoint: every round re-applies every generator to all
    argument tuples over R, through `Operation.__call__`."""
    ops = list(F)
    for f in ops:
        if f.k != k:
            raise DomainError("carrier mismatch in operation family")
    check_cap("gamma tuple space", k ** ksize)
    carrier = Carrier(k)
    R = set()
    for t in B:
        t = tuple(t)
        if len(t) != ksize:
            raise DomainError(f"seed tuple {t} does not have length {ksize}")
        for x in t:
            if not 0 <= x < k:
                raise DomainError(f"seed entry {x} outside carrier of size {k}")
        R.add(t)
    S = set()
    steps = 0
    while True:
        current = sorted(R)
        new_s = set()
        for f in sorted(ops, key=Operation.sort_key):
            for args in itertools.product(current, repeat=f.arity):
                new_s.add(tuple(f(tuple(a[p] for a in args)) for p in range(ksize)))
        S |= new_s
        if new_s <= R:
            return GammaResult(frozenset(R), frozenset(S), steps)
        R |= new_s
        steps += 1


def _families(ops, size):
    return itertools.chain.from_iterable(
        itertools.combinations(ops, r) for r in range(size + 1))


class TestSemiNaiveGamma:
    """`gamma_fixpoint` against the naive loop `gamma_by_definition`:
    identical R, S and steps."""

    OPS_K2 = [f for n in (0, 1, 2) for f in all_operations(C2, n)]

    def check(self, F, ksize, B, k):
        got = gamma_fixpoint(F, ksize, B, k)
        assert got == gamma_by_definition(F, ksize, B, k)
        return got

    def test_k2_families_on_projection_seeds(self):
        filled = 0
        for n in (1, 2):
            seed = [tuple(t[i] for t in C2.tuples(n)) for i in range(n)]
            for F in _families(self.OPS_K2, 2):
                filled += len(self.check(F, 2 ** n, seed, 2).R) == 4 ** n
        # most families reach the exit that R is all of A^K
        assert filled > 100

    def test_k2_every_seed_set_at_ksize_2(self):
        space = list(C2.tuples(2))
        for bits in range(16):
            B = [space[i] for i in range(4) if bits >> i & 1]
            for F in _families(self.OPS_K2, 2):
                self.check(F, 2, B, 2)

    def test_k0_and_k1(self):
        for k in (0, 1):
            carrier = Carrier(k)
            ops = [f for n in (0, 1, 2, 3) for f in all_operations(carrier, n)]
            for ksize in (0, 1, 2, 3):
                space = list(carrier.tuples(ksize))
                for bits in range(1 << len(space)):
                    B = [space[i] for i in range(len(space)) if bits >> i & 1]
                    for F in _families(ops, 2):
                        self.check(F, ksize, B, k)

    def test_k2_small_and_full_seeds(self):
        # every seed set at ksize 0 and 1, and at ksize 3 the full one, which
        # is all of A^K before round 0
        for ksize in (0, 1, 3):
            space = list(C2.tuples(ksize))
            seeds = [space] if ksize == 3 else [
                [space[i] for i in range(len(space)) if bits >> i & 1]
                for bits in range(1 << len(space))]
            for B in seeds:
                for F in _families(self.OPS_K2, 2):
                    self.check(F, ksize, B, 2)

    def test_k3_families_that_fill(self):
        # webb(x, y) = max(x, y) + 1 mod 3 is a Sheffer operation
        C3 = Carrier(3)
        webb = Operation(3, 2, tuple((max(t) + 1) % 3 for t in C3.tuples(2)))
        succ = Operation(3, 1, tuple((x + 1) % 3 for x in range(3)))
        families = ([webb], [webb, Operation(3, 0, (2,))], [succ, webb], [succ])
        sizes = [len(self.check(F, 3, [tuple(range(3))], 3).R) for F in families]
        assert sizes == [27, 27, 27, 3]

    def test_tables_beyond_one_byte_lanes(self):
        # 2^9 and 3^6 table entries: R and S ride on two-byte lanes
        C3 = Carrier(3)
        two_of_nine = Operation(2, 9, tuple(int(sum(t) >= 2) for t in C2.tuples(9)))
        g = self.check([two_of_nine], 2, [(0, 1), (1, 0)], 2)
        assert g.R == {(0, 1), (1, 0), (1, 1)} and g.steps == 1
        g = self.check([two_of_nine, NOT], 1, [(0,)], 2)
        assert len(g.R) == 2 and g.steps == 1
        w6 = Operation(3, 6, tuple((min(max(t[:3]), max(t[3:])) + t[0]) % 3
                                   for t in C3.tuples(6)))
        for B in ([(0, 1)], [(2, 2)]):
            assert self.check([w6], 2, B, 3).steps == 2
        # R fills A^1, so S is completed in closed form
        assert len(self.check([w6], 1, [(1,)], 3).R) == 3

    def test_no_round_after_R_fills(self, monkeypatch):
        # each round calls the row engine once per argument position; once
        # R is all of A^K the naive loop's last round is not run
        calls, row_images = [], generation.row_images

        def counted(tables, pools, width):
            calls.append(len(pools))
            return row_images(tables, pools, width)

        seed = [(0, 0, 1, 1), (0, 1, 0, 1)]
        monkeypatch.setattr(generation, "row_images", counted)
        g = gamma_fixpoint([NAND], 4, seed, 2)
        monkeypatch.undo()
        assert len(g.R) == 16 and g.steps >= 1
        assert len(calls) == 2 * g.steps
        assert g == gamma_by_definition([NAND], 4, seed, 2)

    def test_generators_of_one_arity_share_each_row_pass(self, monkeypatch):
        # AND, OR and NAND are all binary: each round makes one row-engine
        # call per first-new position, 2, and each call reads all three
        # tables; the rounds are counted by their charges to the cap
        calls, rounds = [], []
        row_images, check_cap = generation.row_images, generation.check_cap

        def counted(tables, pools, width):
            calls.append(len(tables))
            return row_images(tables, pools, width)

        def charged(what, *args):
            if what == "gamma row evaluations":
                rounds.append(what)
            return check_cap(what, *args)

        seed = [(0, 0, 1, 1), (0, 1, 0, 1)]
        monkeypatch.setattr(generation, "row_images", counted)
        monkeypatch.setattr(generation, "check_cap", charged)
        g = gamma_fixpoint([AND, OR, NAND], 4, seed, 2)
        monkeypatch.undo()
        assert len(rounds) >= 1 and calls == [3] * (2 * len(rounds))
        assert g == gamma_by_definition([AND, OR, NAND], 4, seed, 2)

    def test_rows_are_charged_to_the_cap(self):
        webb = Operation(3, 2, tuple((max(t) + 1) % 3 for t in Carrier(3).tuples(2)))
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="^gamma row evaluations: ") as e:
            semiclone_nary_part([webb], 2, 3)
        assert time.perf_counter() - start < 5
        assert e.value.cost > e.value.cap == 2 ** 20
        # the charge is cumulative, |R|^a - |old R|^a per generator and
        # round: NAND at K = A^2 grows R through 2, 3, 6 and 10 members
        # before it fills, so its rows sum to 10^2
        seed = [(0, 0, 1, 1), (0, 1, 0, 1)]
        with pytest.raises(CapExceeded, match="^gamma row evaluations: estimated cost 100 "):
            with capped(99):
                gamma_fixpoint([NAND], 4, seed, 2)
        with capped(100):
            g = gamma_fixpoint([NAND], 4, seed, 2)
        assert g == gamma_by_definition([NAND], 4, seed, 2) and len(g.R) == 16

    def test_same_errors_in_the_same_order(self):
        bad = [
            ([Operation(3, 1, (0, 1, 2))], 2, [(0, 5)], 2, 2 ** 20),
            ([AND], 2, [(0, 1, 1)], 2, 2 ** 20),
            ([AND], 2, [(0, 2)], 2, 2 ** 20),
            ([AND], 3, [(0, 1)], 2, 4),
            ([], 2, [], -1, 2 ** 20),
        ]
        for F, ksize, B, k, cap in bad:
            errors = []
            for engine in (gamma_fixpoint, gamma_by_definition):
                with pytest.raises((DomainError, CapExceeded)) as e, capped(cap):
                    engine(F, ksize, B, k)
                errors.append((type(e.value), str(e.value)))
            assert errors[0] == errors[1]

    def test_k3_seeded_sample(self):
        rng = random.Random(4)
        C3 = Carrier(3)
        space = list(C3.tuples(3))
        for _ in range(40):
            F = [Operation(3, n, tuple(rng.randrange(3) for _ in range(3 ** n)))
                 for n in rng.sample(range(4), rng.randint(1, 2))]
            B = rng.sample(space, rng.randint(0, 3))
            self.check(F, 3, B, 3)
        seed = [tuple(t[i] for t in C3.tuples(2)) for i in range(2)]
        lattice = [Operation(3, 2, tuple(op(t) for t in C3.tuples(2))) for op in (min, max)]
        for c in range(3):
            for F in _families(lattice, 2):
                self.check(list(F) + [Operation(3, 0, (c,))], 9, seed, 3)


class TestGeneratedParts:
    def test_and_unary_part(self):
        assert semiclone_nary_part([AND], 1, 2) == OpFamily([ID])

    def test_const0_binary_part(self):
        c0 = Operation(2, 1, (0, 0))
        assert semiclone_nary_part([c0], 2, 2) == OpFamily([Operation(2, 2, (0, 0, 0, 0))])

    def test_empty_family(self):
        assert len(semiclone_nary_part([], 2, 2)) == 0
        assert clone_nary_part([], 2, 2) == OpFamily(
            [projection(2, 0, C2), projection(2, 1, C2)])

    def test_clone_is_semiclone_plus_projections(self):
        for F in ([AND], [NOT], [AND, NOT], [CONST0]):
            for n in (1, 2):
                sp = semiclone_nary_part(F, n, 2)
                cp = clone_nary_part(F, n, 2)
                assert cp == sp.union(projection(n, i, C2) for i in range(n))
                assert clone_tables(F, n, 2) == {f.table for f in sp}.union(
                    projection(n, i, C2).table for i in range(n))

    def test_nullary_part(self):
        assert semiclone_nary_part([Operation(2, 0, (0,)), NOT], 0, 2) == OpFamily(
            [Operation(2, 0, (0,)), Operation(2, 0, (1,))])
        assert len(semiclone_nary_part([AND], 0, 2)) == 0

    def test_nullary_part_checks_the_carrier(self):
        for n in (0, 1):
            with pytest.raises(DomainError, match="carrier mismatch in operation family"):
                semiclone_nary_part([Operation(3, 0, (1,))], n, 2)

    def test_closure_under_composition(self):
        # generated parts absorb composition with inner ops from the part or trivials
        for F in ([AND], [NOT], [AND, Operation(2, 0, (1,))]):
            parts = {n: semiclone_nary_part(F, n, 2) for n in (1, 2)}
            triv = {n: [projection(n, i, C2) for i in range(n)] for n in (1, 2)}
            for n in (1, 2):
                for f in parts[n]:
                    for m in (1, 2):
                        pool = list(parts[m]) + triv[m]
                        for gs in itertools.product(pool, repeat=n):
                            assert compose(f, list(gs)) in parts[m]

    def test_closure_under_iterative_algebra(self):
        for F in ([AND], [OR, NOT]):
            parts = {n: set(semiclone_nary_part(F, n, 2)) for n in (1, 2, 3)}
            for n in (1, 2):
                for f in parts[n]:
                    for sym in ("zeta", "tau", "delta", "nabla"):
                        g = iterative_op(sym, f)
                        if 1 <= g.arity <= 3:
                            assert g in parts[g.arity]
            for f in parts[1] | parts[2]:
                for g in parts[1] | parts[2]:
                    h = star(f, g)
                    if 1 <= h.arity <= 3:
                        assert h in parts[h.arity]

    def test_lower_parts_recoverable_from_higher(self):
        # an n-ary member reappears inside the semiclone generated by the s-ary part
        for F in ([AND], [NOT], [OR, CONST0]):
            p1 = semiclone_nary_part(F, 1, 2)
            p2 = semiclone_nary_part(F, 2, 2)
            regen1 = semiclone_nary_part(list(p2), 1, 2)
            assert p1.issubset(regen1)


def semigroup_by_composition(G):
    """Closure of unary maps under composition: compose every two members
    until nothing new appears."""
    S = set(G)
    while True:
        new = {compose(f, [g]) for f in S for g in S} - S
        if not new:
            return OpFamily(S)
        S |= new


class TestSemigroups:
    def test_matches_composition_closure(self):
        for k, size in ((0, 1), (1, 1), (2, 3)):
            unary = list(all_operations(Carrier(k), 1))
            for G in _families(unary, size):
                assert semigroup_generate(G) == semigroup_by_composition(G), G
        rng = random.Random(9)
        unary = list(all_operations(Carrier(3), 1))
        for _ in range(60):
            G = rng.sample(unary, rng.randint(1, 4))
            assert semigroup_generate(G) == semigroup_by_composition(G), G

    def test_not_generates_monoid(self):
        assert semigroup_generate([NOT]) == OpFamily([ID, NOT])

    def test_const_absorbing(self):
        assert semigroup_generate([CONST0]) == OpFamily([CONST0])

    def test_empty(self):
        assert len(semigroup_generate([])) == 0

    def test_nary_wrapper_matches_generated_semiclone(self):
        # the n-ary part of the semiclone generated by unary maps: members of
        # their semigroup applied to one coordinate
        for G in ([NOT], [CONST0], [NOT, CONST0]):
            for n in (1, 2):
                want = OpFamily(compose(f, [projection(n, i, C2)])
                                for f in semigroup_by_composition(G) for i in range(n))
                assert semiclone_nary_part(G, n, 2) == want

    def test_rejects_non_unary(self):
        with pytest.raises(DomainError):
            semigroup_generate([AND])


class TestDecideProjections:
    def test_and_generates_identity(self):
        assert decide_projections([AND], 2) is False

    def test_const_family(self):
        assert decide_projections([CONST0], 2) is True

    def test_empty_family(self):
        assert decide_projections([], 2) is True

    def test_negative_carrier_named_as_the_carrier(self):
        with pytest.raises(DomainError, match=r"^carrier size must be >= 0, got -1$"):
            decide_projections([], -1)
        assert decide_projections([], 0) is True

    def test_projections_are_stripped(self):
        assert decide_projections([ID, CONST0], 2) is True
        assert decide_projections([projection(2, 0, C2), CONST0], 2) is True

    def test_exhaustive_unary_families_cross_check(self):
        # direct criterion: identity derivable from the non-projection part
        unary = list(all_operations(C2, 1))
        for bits in range(16):
            F = [unary[i] for i in range(4) if bits >> i & 1]
            stripped = [f for f in F if not is_projection(f)]
            closure = set(stripped)
            while True:
                new = {compose(f, [g]) for f in closure for g in closure} - closure
                if not new:
                    break
                closure |= new
            assert decide_projections(F, 2) == (ID not in closure)
