"""Preservation predicate, Galois maps between operations and relation pairs,
their classical specialisations, and the operation-side interpolation
closures.

The pair side rests on one engine, `least_invp`: (rho, rho') is invariant
under F iff F[rho] ⊆ rho' ⊆ rho, where F[rho] = ∪_{f∈F} f[rho].  So F's
least map is the OR of its members' maps, which `op_image_mask(f, m)`
caches, f[rho] for each of the 2^N subsets rho of A^m (N = k^m), built from
one pass over the matrices whose columns are any tuples of A^m.  `inv`
reads that map, and `least_pairs` spans it into (rho, rho') masks in
`PairFamily` order, for `invp_pairs` (so `invp`) and the pair-side check.

The operation side works on value tables, and pair constraints reach it as
(arity, rho, rho') mask rows: `polp_rows` and `sloc_tables` hand their
constraints, a map {scope: allowed images}, to the one constraint search
over table entries (`_search`), which returns the tables as tuples in
ascending order: small table spaces by a filter over every table
(`_filter`), larger ones by forward checking (`_forward_search`), which
checks a scope as soon as its next-largest entry is set and prunes the
candidates of its largest.  `preserving` runs the same filter over given
tables, on the constraints of its rows, which it builds as `polp_rows` does
(`_allowed`).
`polp`, `pol`, `sloc_ops` and `loc_ops` build their `OpFamily` from those
tables (`polp_tables`, the rows of Q, for the first two; `arity_tables`
for the others); the op-side check passes its `least_invp` maps as rows.
The CLI and the checks read the row functions without building a family.
Both sides read the n-column matrices over relations given as bit masks,
laid out by `core.column_pools`: `image_mask` is their images over one
relation under the operation's table, one `core.row_images` pass, `_scopes`
the scopes they read, the row sums themselves, and `op_image_mask` the
images of all matrices over A^m by column set.  Pairs reach the op side as
the rows of `core.pair_rows`.
Complexity caps refuse rather than truncate, each charge taken before any
cache lookup, so no answer depends on what ran before in the process.  The
enumerating oracles of `invp`, `polp`, `sloc_ops` and `image_mask` live in
the tests.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache
from typing import Iterable

from .core import (
    CapExceeded,
    Carrier,
    DomainError,
    LaneTable,
    OpFamily,
    Operation,
    PairFamily,
    Relation,
    RelationPair,
    bit_indices,
    check_cap,
    column_pools,
    int_lanes,
    lane_bytes,
    lanes_int,
    or_zeta,
    pair_rows,
    row_images,
    row_sums,
    submasks,
    unpack,
)


# least_invp refuses subset lanes of more bytes than this in all: N = k^m
# up to 16 fits (2^16 lanes of 2 bytes), N = 27 does not (2^27 of 4)
MAX_LANE_BYTES = 2 ** 24


def image_mask(f: Operation, m: int, rho: int) -> int:
    """Bit mask of { f applied row-wise to an n-column matrix over the m-ary
    relation with mask rho }: one `row_images` pass of f's table over the
    `column_pools` of rho, its |rho|^n matrices charged first on every call.

    With n = 0 this is the constant tuple (f(),...,f()); with rho empty and
    n > 0 it is empty.
    """
    check_cap("matrix enumeration", 1, rho.bit_count(), f.arity)
    lane, _, pools = column_pools(f.k, m, rho, f.arity)
    carrier = f.carrier
    images = set(row_images([LaneTable.of(f.table, lane)], pools, m))
    return sum(1 << carrier.encode(unpack(t, lane)) for t in images)


@lru_cache(maxsize=None)
def op_image_mask(f: Operation, m: int) -> int:
    """f's least map at arity m, N = k^m: one int with a lane of
    `lane_bytes(2^N)` bytes for each subset rho of A^m, subset 0 lowest,
    lane rho holding f[rho], the mask of `image_mask(f, m, rho)`.

    One `row_images` pass reads the N^n matrices whose n columns are any
    tuples of A^m, n = arity(f), and ORs each image into the lane of the set
    of columns the matrix reads, the empty set for a nullary f.  f[rho] is
    the union of those lanes over the subsets of rho, which the OR-zeta
    transform `core.or_zeta` spreads to every rho in N steps.  One entry per
    (operation, arity), 128 KiB at N = 16.  A hit takes no charge and the
    layout is not bounded here: `least_invp` does both first.
    """
    k, n = f.k, f.arity
    size = k ** m
    lane, columns, pools = column_pools(k, m, (1 << size) - 1, n)
    bit = {c: 1 << i for i, c in enumerate(columns)}
    singles = list(bit.values())
    # the column sets in `row_sums` order, the last column fastest
    sets: Iterable[int] = (0,)
    for _ in range(n):
        sets = (s | b for s in sets for b in singles)
    lanes = [0] * (1 << size)
    for s, image in zip(sets, row_images([LaneTable.of(f.table, lane)], pools, m)):
        lanes[s] |= bit[image]
    width = lane_bytes(1 << size)
    return or_zeta(lanes_int(lanes, width), 8 * width, size)


def preserves(f: Operation, p: RelationPair) -> bool:
    """True iff every row-wise application of f to columns from p.rho lands
    in p.rho_prime."""
    if f.k != p.k:
        raise DomainError("carrier mismatch between operation and pair")
    return image_mask(f, p.arity, p.rho.mask) & ~p.rho_prime.mask == 0


@lru_cache(maxsize=4096)
def _scopes(k: int, m: int, rho: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The distinct scopes that n-column matrices over the m-ary relation
    with mask rho read, each the tuple of the m table indices a matrix
    reads: the row sums of its `column_pools`, read lane by lane as
    `row_images` reads them.  With n = 0 the one scope is all zeros, even
    when rho is empty.  `_allowed`, the one caller, charges first."""
    lane, _, pools = column_pools(k, m, rho, n)
    return tuple(unpack(x.to_bytes(m * lane, sys.byteorder), lane) for x in set(row_sums(pools)))


def polp(Q: Iterable[RelationPair], n: int, k: int) -> OpFamily:
    """All n-ary operations preserving every pair in Q: the operations of
    `polp_tables`."""
    return OpFamily(Operation(k, n, t) for t in polp_tables(Q, n, k))


def polp_tables(Q: Iterable[RelationPair], n: int, k: int) -> list[tuple[int, ...]]:
    """The value tables, ascending, of the n-ary operations preserving every
    pair in Q: `polp_rows` on their `pair_rows`, listed before any charge."""
    return polp_rows(list(pair_rows(Q, k)), n, k)


def polp_rows(rows: Iterable[tuple[int, int, int]], n: int, k: int) -> list[tuple[int, ...]]:
    """The value tables, ascending, of the n-ary operations preserving the
    pair (rho, rho') of every row (arity, rho, rho'), the relations given as
    bit masks.

    A constraint search over the k^n table entries (`_search`) on the scopes
    of `_allowed`.  The cap still bounds the k^(k^n) tables.
    """
    if n < 0:
        raise DomainError("arity must be >= 0")
    carrier = Carrier(k)
    check_cap("polp table enumeration", 1, k, carrier.num_tuples(n))
    return _search(k, carrier.num_tuples(n), _allowed(rows, n, k))


def preserving(tables: Iterable[tuple[int, ...]], rows: Iterable[tuple[int, int, int]],
               n: int, k: int) -> list[tuple[int, ...]]:
    """The n-ary value tables among `tables`, in their order, that preserve
    the pair of every row: the tables of `polp_rows` that `tables` holds,
    found by `_filter` instead of a search."""
    if n < 0:
        raise DomainError("arity must be >= 0")
    return _filter(tables, _allowed(rows, n, k), k)


def _filter(tables: Iterable[tuple[int, ...]], constraints: dict[tuple[int, ...], int],
            k: int) -> list[tuple[int, ...]]:
    """The tables, in their order, that map every scope of `constraints` to
    one of its allowed images: the scope's entries read as one image
    encoded base k, whose bit must be set in the scope's mask."""
    scopes = list(constraints.items())
    out = []
    for table in tables:
        for idxs, ok in scopes:
            v = 0
            for j in idxs:
                v = v * k + table[j]
            if not ok >> v & 1:
                break
        else:
            out.append(table)
    return out


def _allowed(rows: Iterable[tuple[int, int, int]], n: int, k: int) -> dict[tuple[int, ...], int]:
    """The constraints that the rows (arity, rho, rho') put on n-ary value
    tables: each scope, a tuple of the m table indices that a matrix over
    rho reads, may only map to the images in the bit mask of the
    intersection of the rho' of every m-ary row it is read from, so for a
    fixed rho only the tightest rho' matters.  A row with rho' all of A^m
    puts none; the cap is charged the largest |rho|^n matrices of the others
    before any `_scopes` lookup."""
    tight = [(m, rho, ok) for m, rho, ok in rows if ok != (1 << k ** m) - 1]
    check_cap("matrix enumeration", 1, max((rho.bit_count() for _, rho, _ in tight), default=0), n)
    allowed: dict[tuple[int, ...], int] = {}
    for m, rho, ok in tight:
        for scope in _scopes(k, m, rho, n):
            allowed[scope] = allowed.get(scope, ok) & ok
    return allowed


# The largest table space that `_search` filters; see its docstring for the
# measured crossover.
PLAIN_SEARCH_TABLES = 27


def _search(k: int, size: int, constraints: dict[tuple[int, ...], int]) -> list[tuple[int, ...]]:
    """All value tables of `size` entries that map every scope of
    `constraints` to one of its allowed images, ascending, each once.

    A scope is a tuple of table indices, and its `allowed` a bit mask over
    its images encoded base k.  The empty scope reads no entry: its one image
    is 0, so it holds for all tables or for none, and it is settled first,
    as `_forward_search` expects.  A table space of at most
    PLAIN_SEARCH_TABLES tables is filtered: `_filter` reads the k^size
    tables of `itertools.product`, which are already ascending.  A larger
    one goes to `_forward_search`.

    The crossover, measured with `polp_tables` on the k-chain, equality and
    20 seeded binary pairs per (k, n), on one x86-64 host under CPython
    3.11: the filter is 2-3x faster at 4, 16 and 27 tables, since forward
    checking reads every scope before it tries an entry; forward checking
    is 1.7x faster at 256 tables with k=2, n=3 and 1.9x with k=4, n=1.  On
    `_search` itself with random scopes of two entries, the two are level at
    27 tables and forward checking leads from 32 tables on (1.6-2.6x at
    64-256).
    """
    if not constraints.get((), 1) & 1:
        return []
    if k ** size > PLAIN_SEARCH_TABLES:
        return _forward_search(k, size, constraints)
    return _filter(itertools.product(range(k), repeat=size), constraints, k)


def _forward_search(k: int, size: int, constraints: dict[tuple[int, ...], int]) -> list[tuple[int, ...]]:
    """`_search` by forward checking (Haralick and Elliott, "Increasing tree
    search efficiency for constraint satisfaction problems", Artificial
    Intelligence 14, 1980), for size >= 1 and the empty scope settled.

    Each entry j has a mask of candidate values.  A scope with one distinct
    entry j is folded into j's candidates before the search.  Any other
    scope is checked at its next-largest entry d: once d is set, the values
    of its largest entry j that it allows are ANDed into j's candidates, and
    an empty mask backtracks at d.  At depth j only the candidates left are
    tried, so every table the last depth completes is an answer.  The
    allowed values of j are one shift of the scope's mask, by the image of
    its other entries times k, once `_regroup` has moved j's digit last
    (when j occurs once and last, the mask is used as it is); scopes with
    the same j and other entries are merged.  The candidate masks after
    each depth are kept, so backing up restores them.
    """
    candidates = [(1 << k) - 1] * size
    # at depth d: {(j, others): mask} for the scopes checked there
    merged: list[dict[tuple[int, tuple[int, ...]], int]] = [{} for _ in range(size)]
    regrouped: dict[tuple[int, tuple[bool, ...]], int] = {}
    for idxs, ok in constraints.items():
        if not idxs:
            continue
        j = max(idxs)
        others = idxs[:-1]
        if idxs[-1] != j or j in others:
            shape = tuple(e == j for e in idxs)
            if (ok, shape) not in regrouped:
                regrouped[ok, shape] = _regroup(ok, k, shape)
            ok = regrouped[ok, shape]
            others = tuple(e for e in idxs if e != j)
        if others:
            at = merged[max(others)]
            at[j, others] = at.get((j, others), ok) & ok
        else:
            candidates[j] &= ok
    if not all(candidates):
        return []
    last = size - 1
    if not last:
        return [(x,) for x in bit_indices(candidates[0])]
    checks = [[(j, others, ok) for (j, others), ok in at.items()] for at in merged]
    out: list[tuple[int, ...]] = []
    table = [0] * size
    # domains[i]: the candidate masks once the entries before i are set
    domains: list[list[int]] = [candidates] + [[]] * last
    values = _Bits()
    tries = [iter(values[candidates[0]])] + [iter(())] * last
    i = 0
    while True:
        now, at_i = domains[i], checks[i]
        for x in tries[i]:
            table[i] = x
            after: list[int] | None = now
            if at_i:
                after = now[:]
                for j, others, ok in at_i:
                    v = 0
                    for e in others:
                        v = v * k + table[e]
                    after[j] &= ok >> v * k
                    if not after[j]:
                        after = None
                        break
                if after is None:
                    continue
            if i + 1 < last:
                break
            for y in values[after[last]]:
                table[last] = y
                out.append(tuple(table))
        else:
            if not i:
                return out
            i -= 1
            continue
        i += 1
        domains[i] = after
        tries[i] = iter(values[after[i]])


class _Bits(dict):
    """{mask: the positions of its set bits, ascending}, each tuple made
    when its mask is first looked up."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        bits = self[mask] = tuple(bit_indices(mask))
        return bits


def _regroup(ok: int, k: int, shape: tuple[bool, ...]) -> int:
    """The mask `ok` over a scope's images re-indexed for its largest entry
    j, whose positions in the scope are those marked in `shape`: an allowed
    image whose digits agree at every position of j, at value x, sets bit
    r * k + x, where r is the image of the other positions in order."""
    out = 0
    carrier = Carrier(k)
    for v in bit_indices(ok):
        digits = carrier.decode(v, len(shape))
        xs = {x for x, at_j in zip(digits, shape) if at_j}
        if len(xs) == 1:
            r = 0
            for x, at_j in zip(digits, shape):
                if not at_j:
                    r = r * k + x
            out |= 1 << r * k + xs.pop()
    return out


def least_invp(F: Iterable[Operation], m: int, k: int) -> dict[int, int]:
    """{rho: F[rho]} for every m-ary rho with F[rho] ⊆ rho, as bit masks in
    ascending rho: the first components of the pairs invariant under F,
    each with the least second component it admits.

    F's least map is the OR of its members' maps `op_image_mask(f, m)`,
    exact since the OR-zeta transform commutes with OR.  The cap charges
    the 3^N candidate pairs (N = k^m); lanes of more than 8 bytes (N > 64)
    or of more than MAX_LANE_BYTES in all are refused; then the cap charges
    the N^n matrices that the map of a member of the largest arity n reads,
    before any map is looked up.
    """
    if m < 0:
        raise DomainError("arity must be >= 0")
    size = Carrier(k).num_tuples(m)
    check_cap("invp pair enumeration", 1, 3, size)
    ops = list(F)
    for f in ops:
        if f.k != k:
            raise DomainError("carrier mismatch in operation family")
    lane = lane_bytes(1 << size, "invp subset lanes")
    if lane << size > MAX_LANE_BYTES:
        raise CapExceeded("invp subset lane bytes", lane << size, MAX_LANE_BYTES)
    n = max((f.arity for f in ops), default=0)
    check_cap("matrix enumeration", 1, size, n)
    least = 0
    for f in ops:
        least |= op_image_mask(f, m)
    lanes = int_lanes(least, lane, 1 << size)
    return {rho: need for rho, need in enumerate(lanes) if not need & ~rho}


def invp(F: Iterable[Operation], m: int, k: int) -> PairFamily:
    """All m-ary relation pairs preserved by every operation in F: the pairs
    of `invp_pairs`, with one `Relation` per first component, shared by its
    pairs."""
    pairs = invp_pairs(F, m, k)
    firsts = {rho: Relation(k, m, rho) for rho in {rho for rho, _ in pairs}}
    return PairFamily(RelationPair(k, m, firsts[rho], Relation(k, m, rho_prime))
                      for rho, rho_prime in pairs)


def invp_pairs(F: Iterable[Operation], m: int, k: int) -> list[tuple[int, int]]:
    """The m-ary relation pairs (rho, rho') preserved by every operation in
    F, as bit masks in a `PairFamily`'s order: the `least_pairs` of the
    `least_invp` map."""
    return least_pairs(least_invp(F, m, k))


def least_pairs(least: dict[int, int]) -> list[tuple[int, int]]:
    """For each entry rho: F[rho] of a `least_invp` map, in the map's order,
    the pairs (rho, rho') with F[rho] ⊆ rho' ⊆ rho as bit masks: rho' =
    F[rho] | t for the submasks t of rho minus F[rho], ascending.  On the
    ascending map that is a `PairFamily`'s order, by rho and then rho'."""
    return [(rho, need | t) for rho, need in least.items() for t in submasks(rho & ~need)]


def pol(Q1: Iterable[Relation], n: int, k: int) -> OpFamily:
    """Classical polymorphisms: operations preserving each relation as the
    identical pair (rho, rho), the operations of `polp_tables` on those."""
    return OpFamily(Operation(k, n, t) for t in polp_tables(map(RelationPair.identical, Q1), n, k))


def inv(F: Iterable[Operation], m: int, k: int) -> list[Relation]:
    """Classical invariant relations: rho with (rho, rho) invariant, that is
    F[rho] ⊆ rho, so exactly the relations `least_invp` lists, ascending."""
    return [Relation(k, m, rho) for rho in least_invp(F, m, k)]


def sloc_ops(F: Iterable[Operation], s: int, n: int, k: int) -> OpFamily:
    """Operations agreeing with some member of F^(n) on every subset of A^n
    of size <= s: the operations of `sloc_tables` on `arity_tables`."""
    return OpFamily(Operation(k, n, t) for t in sloc_tables(arity_tables(F, n, k), s, n, k))


def arity_tables(F: Iterable[Operation], n: int, k: int) -> list[tuple[int, ...]]:
    """The value tables of F's n-ary members, every member's carrier checked."""
    ops = list(F)
    for f in ops:
        if f.k != k:
            raise DomainError("carrier mismatch in operation family")
    return [f.table for f in ops if f.arity == n]


def sloc_tables(tables: Iterable[tuple[int, ...]], s: int, n: int,
                k: int) -> list[tuple[int, ...]]:
    """The n-ary value tables, ascending, that agree with one of `tables` on
    every subset of A^n of size <= s.

    Only subsets of size exactly min(s, k^n) are checked: agreement on a
    larger set implies agreement on all of its subsets, so the result is
    identical to quantifying over all sizes <= s.  Each subset B is one
    constraint of `_search`: the scope B may only take the images that the
    given tables have on B.  With s = 0 the one subset is the empty B = (),
    which holds for every table when `tables` is non-empty.  With no given
    table no constraint can hold, so the answer is empty at every s.
    """
    if s < 0:
        raise DomainError("locality parameter must be >= 0")
    if n < 0:
        raise DomainError("arity must be >= 0")
    domain = Carrier(k).num_tuples(n)
    given = list(tables)
    size = min(s, domain)
    if not given:
        return []
    check_cap("sloc_ops subset enumeration", math.comb(domain, size), k, domain)
    constraints: dict[tuple[int, ...], int] = {}
    for B in itertools.combinations(range(domain), size):
        ok = 0
        for table in given:
            v = 0
            for i in B:
                v = v * k + table[i]
            ok |= 1 << v
        constraints[B] = ok
    return _search(k, domain, constraints)


def loc_ops(F: Iterable[Operation], n: int, k: int) -> OpFamily:
    """Finite-carrier local closure: interpolation on the whole of A^n."""
    s = Carrier(k).num_tuples(n)
    return OpFamily(Operation(k, n, t) for t in sloc_tables(arity_tables(F, n, k), s, n, k))
