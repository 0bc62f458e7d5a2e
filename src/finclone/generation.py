"""Iterative algebra of operations, fixpoint generation of semiclones and
clones, transformation semigroups, and the decision procedure for whether a
generated clone minus projections is composition-closed.

The generation engine is a single fixpoint: starting from a seed set B of
K-indexed value tuples, each round applies every generator row-wise to tuples
already derived.  n-ary parts of generated structures come out of the same
engine with K = A^n and the projection tables as seed, as the value tables
of `semiclone_tables` and, with the projection tables added, of
`clone_tables`, which `semiclone_nary_part` and `clone_nary_part` turn into
operations; a transformation semigroup is the unary part.  Rounds are
semi-naive (Bancilhon & Ramakrishnan, 1986): a round applies a generator
only to argument tuples holding a tuple derived in the previous round,
since the images of older tuples are already in R; the results and round counts are those of the naive
loop, which the tests keep as the oracle.  Once R is all of A^K no round is
run: every matrix over A^K occurs, so S is completed in closed form by
(image of f on A)^K for each generator f.  Rows are evaluated by the
byte-lane engine of `core`, not through `Operation.__call__`: a derived
tuple is one `bytes` key, a row one int sum and one table lookup per lane.
The generators are grouped by arity, and the generators of one arity share
each row pass: every row is laid out once and read through all of their
tables.  Each round is charged to the complexity cap before it runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    Carrier,
    DomainError,
    LaneTable,
    OpFamily,
    Operation,
    check_cap,
    compose_tables,
    is_projection,
    lane_bytes,
    lane_ints,
    pack,
    polymer,
    projection_table,
    row_images,
    unpack,
)


def iterative_op(symbol: str, f: Operation) -> Operation:
    """Apply one of the unary argument-shuffling operators.

    'zeta' cycles arguments, 'tau' swaps the first two, 'delta' identifies
    the first two (arity drops for n >= 2), 'nabla' prepends a fictitious
    argument.  Arities 0 and 1 follow the identity conventions.
    """
    n = f.arity
    if symbol == "zeta":
        if n == 0:
            return f
        alpha = [(i + 1) % n for i in range(n)]
        return polymer(alpha, f, n)
    if symbol == "tau":
        if n <= 1:
            return f
        alpha = [1, 0] + list(range(2, n))
        return polymer(alpha, f, n)
    if symbol == "delta":
        if n <= 1:
            return f
        alpha = [max(0, i - 1) for i in range(n)]
        return polymer(alpha, f, n - 1)
    if symbol == "nabla":
        alpha = [i + 1 for i in range(n)]
        return polymer(alpha, f, n + 1)
    raise DomainError(f"unknown iterative operator {symbol!r}")


def star(f: Operation, g: Operation) -> Operation:
    """Binary composition of the iterative algebra: feed g into the first
    argument slot of f, keeping the remaining arguments fresh, so the result
    is f(g(x_0,...,x_{m-1}), x_m,...,x_{n+m-2}).  A nullary f gives its
    constant at arity max(0, m - 1)."""
    if f.k != g.k:
        raise DomainError("carrier mismatch in star")
    arity = max(0, f.arity + g.arity - 1)
    xs = [projection_table(arity, i, f.carrier) for i in range(arity)]
    gs = [compose_tables(g.table, xs[:g.arity], f.k, arity), *xs[g.arity:]] if f.arity else []
    return Operation(f.k, arity, compose_tables(f.table, gs, f.k, arity))


@dataclass(frozen=True)
class GammaResult:
    """Stabilised fixpoint (R, S) over K-indexed tuples, with the round count
    at which R first stopped growing."""

    R: frozenset[tuple[int, ...]]
    S: frozenset[tuple[int, ...]]
    steps: int


def gamma_fixpoint(F: Iterable[Operation], ksize: int, B: Iterable[Sequence[int]],
                   k: int) -> GammaResult:
    """Least invariant pair containing B: R grows by row-wise application of
    every generator to tuples already in R, S collects everything derived.

    Members are tuples of length ksize over the carrier.  Stabilises after at
    most k^ksize rounds.

    Rounds are semi-naive: a generator of arity a sees only argument tuples
    with a member new in the last round, split by the first position j that
    holds one (positions before j take members of R from before the last
    round, later positions any member).  Nullary generators fire in round 0.
    The images of the older members were all added to R in the previous
    round, so S, the stopping test "no image is missing from R" and `steps`
    are those of re-applying every generator to all of R each round.

    Rows run on the byte-lane engine of `core`: a member is packed as
    `bytes`, one lane per index of K, each lane wide enough for every table
    index.  As an argument at position j it is one int pre-scaled by
    k^(a-1-j), so a row sum is one int addition; R and S stay `bytes` until
    they are returned.  The pools change every semi-naive round, so they
    are kept here, not taken from `core.column_pools`.  The generators are
    grouped by arity once, and each round makes one `row_images` call per
    arity a and first-new position j, which lays out each row once and
    reads it through the tables of all generators of arity a.
    Before each round the complexity cap in force (`core.capped`) is
    charged the round's rows, |R|^a - |old R|^a for each generator of
    arity a, summed over the rounds so far.

    The loop stops as soon as R is all of A^K, the seeds included, since no
    later round can add to R.  The naive loop's last round would then apply
    each generator f of arity > 0 to every matrix over A^K, whose images are
    exactly (image of f on A)^K; the images over earlier, smaller R are
    subsets of it.  So S is S so far, plus the nullary constants, plus those
    products, and `steps` counts the round that filled R.
    """
    ops = list(F)
    for f in ops:
        if f.k != k:
            raise DomainError("carrier mismatch in operation family")
    if ksize < 0:
        raise DomainError("index-set size must be >= 0")
    check_cap("gamma tuple space", 1, k, ksize)
    Carrier(k)  # raises DomainError for k < 0
    gens = [f for f in ops if f.arity > 0]
    lane = lane_bytes(max([k] + [len(f.table) for f in gens]))
    R: set[bytes] = set()
    for t in B:
        t = tuple(t)
        if len(t) != ksize:
            raise DomainError(f"seed tuple {t} does not have length {ksize}")
        for x in t:
            if not 0 <= x < k:
                raise DomainError(f"seed entry {x} outside carrier of size {k}")
        R.add(pack(t, lane))
    by_arity: dict[int, list[LaneTable]] = {}
    for f in gens:
        by_arity.setdefault(f.arity, []).append(LaneTable.of(f.table, lane))
    # scaled[w] holds w * t for every member t of R in the order of arrival:
    # the first `old` entries are the members from before the last round
    scaled = {k ** j: [] for a in by_arity for j in range(a)}
    # each arity's tables with its columns, the argument at position j
    # scaled by k^(a-1-j)
    groups = [(tables, [scaled[k ** (a - 1 - j)] for j in range(a)])
              for a, tables in by_arity.items()]
    fresh = R
    consts = {pack((f.table[0],) * ksize, lane) for f in ops if f.arity == 0}
    new_s = set(consts)
    S: set[bytes] = set()
    steps = rows = 0
    while len(R) < k ** ksize:
        old = len(R) - len(fresh)
        rows += sum(len(R) ** f.arity - old ** f.arity for f in gens)
        check_cap("gamma row evaluations", rows)
        members = lane_ints(fresh)
        for w, column in scaled.items():
            column.extend(map(w.__mul__, members))
        for tables, columns in groups:
            for j in range(len(columns)):
                pools = [c[:old] for c in columns[:j]] + [columns[j][old:]] + columns[j + 1:]
                new_s.update(row_images(tables, pools, ksize))
        S |= new_s
        if new_s <= R:
            break
        fresh = new_s - R
        R |= fresh
        new_s = set()
        steps += 1
    else:
        # R is all of A^K: the naive loop's last round, in closed form
        S |= consts
        for image in {frozenset(f.table) for f in gens}:
            S.update(pack(t, lane) for t in itertools.product(sorted(image), repeat=ksize))
    lanes = itertools.repeat(lane)
    return GammaResult(frozenset(map(unpack, R, lanes)), frozenset(map(unpack, S, lanes)), steps)


def semiclone_tables(F: Iterable[Operation], n: int, k: int) -> frozenset[tuple[int, ...]]:
    """The value tables of the n-ary part of the semiclone generated by F.

    This is the S-component of the fixpoint over K = A^n seeded with the
    projection tables; an n-ary operation is exactly its tuple of values.  At
    n = 0 the seed is empty and S holds the derivable constants.  The seed
    is listed only once the fixpoint has charged its tuple space.
    """
    if n < 0:
        raise DomainError("arity must be >= 0")
    carrier = Carrier(k)
    seed = (projection_table(n, i, carrier) for i in range(n))
    return gamma_fixpoint(F, carrier.num_tuples(n), seed, k).S


def semiclone_nary_part(F: Iterable[Operation], n: int, k: int) -> OpFamily:
    """The n-ary part of the semiclone generated by F: the operations of
    `semiclone_tables`."""
    return OpFamily(Operation(k, n, t) for t in semiclone_tables(F, n, k))


def clone_tables(F: Iterable[Operation], n: int, k: int) -> frozenset[tuple[int, ...]]:
    """The value tables of the n-ary part of the clone generated by F: those
    of `semiclone_tables` plus the n projection tables."""
    carrier = Carrier(k)
    return semiclone_tables(F, n, k).union(projection_table(n, i, carrier) for i in range(n))


def clone_nary_part(F: Iterable[Operation], n: int, k: int) -> OpFamily:
    """The n-ary part of the clone generated by F: the operations of
    `clone_tables`."""
    return OpFamily(Operation(k, n, t) for t in clone_tables(F, n, k))


def semigroup_generate(G: Iterable[Operation]) -> OpFamily:
    """Closure of a set of unary operations under composition: the
    operations of `semigroup_tables`."""
    gens = list(G)
    k = gens[0].k if gens else 0
    return OpFamily(Operation(k, 1, t) for t in semigroup_tables(gens, k))


def semigroup_tables(G: Iterable[Operation], k: int) -> frozenset[tuple[int, ...]]:
    """The value tables of the closure of the unary operations G on
    {0,...,k-1} under composition: their semiclone's unary part, if any G."""
    gens = list(G)
    for g in gens:
        if g.arity != 1:
            raise DomainError("semigroup generation takes unary operations only")
    return semiclone_tables(gens, 1, k) if gens else frozenset()


def decide_projections(F: Iterable[Operation], k: int) -> bool:
    """True iff the clone generated by F, with all projections removed, is
    still composition-closed.

    Equivalent to the identity map not being derivable from the
    non-projection part of F; tested via the fixpoint with K = A seeded with
    the identity tuple.  A carrier of size 0 makes the question vacuous.
    """
    Carrier(k)  # raises DomainError for k < 0
    if k == 0:
        return True
    ops = [f for f in F if not is_projection(f)]
    id_tuple = tuple(range(k))
    result = gamma_fixpoint(ops, k, [id_tuple], k)
    return id_tuple not in result.S
