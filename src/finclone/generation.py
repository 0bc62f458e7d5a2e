"""Iterative algebra of operations, fixpoint generation of semiclones and
clones, transformation semigroups, and the decision procedure for whether a
generated clone minus projections is composition-closed.

The generation engine is a single fixpoint: starting from a seed set B of
K-indexed value tuples, each round applies every generator row-wise to tuples
already derived.  n-ary parts of generated structures come out of the same
engine with K = A^n and the projection tables as seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    Carrier,
    DEFAULT_CAP,
    DomainError,
    OpFamily,
    Operation,
    check_cap,
    compose,
    is_projection,
    polymer,
    projection,
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
    argument slot of f, keeping the remaining arguments fresh."""
    if f.k != g.k:
        raise DomainError("carrier mismatch in star")
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


@dataclass(frozen=True)
class GammaResult:
    """Stabilised fixpoint (R, S) over K-indexed tuples, with the round count
    at which R first stopped growing."""

    R: frozenset[tuple[int, ...]]
    S: frozenset[tuple[int, ...]]
    steps: int


def gamma_fixpoint(
    F: Iterable[Operation],
    ksize: int,
    B: Iterable[Sequence[int]],
    k: int,
    cap: int = DEFAULT_CAP,
) -> GammaResult:
    """Least invariant pair containing B: R grows by row-wise application of
    every generator to tuples already in R, S collects everything derived.

    Members are tuples of length ksize over the carrier.  Stabilises after at
    most k^ksize rounds.
    """
    ops = list(F)
    for f in ops:
        if f.k != k:
            raise DomainError("carrier mismatch in operation family")
    check_cap("gamma tuple space", k ** ksize, cap)
    carrier = Carrier(k)
    R: set[tuple[int, ...]] = set()
    for t in B:
        t = tuple(t)
        if len(t) != ksize:
            raise DomainError(f"seed tuple {t} does not have length {ksize}")
        for x in t:
            if not 0 <= x < k:
                raise DomainError(f"seed entry {x} outside carrier of size {k}")
        R.add(t)
    S: set[tuple[int, ...]] = set()
    steps = 0
    while True:
        current = sorted(R)
        new_s: set[tuple[int, ...]] = set()
        for f in sorted(ops, key=Operation.sort_key):
            for args in itertools.product(current, repeat=f.arity):
                new_s.add(tuple(f(tuple(a[p] for a in args)) for p in range(ksize)))
        S |= new_s
        if new_s <= R:
            return GammaResult(frozenset(R), frozenset(S), steps)
        R |= new_s
        steps += 1


def _ops_from_tuples(tuples: Iterable[tuple[int, ...]], n: int, k: int) -> OpFamily:
    return OpFamily(Operation(k, n, t) for t in tuples)


def semiclone_nary_part(F: Iterable[Operation], n: int, k: int, cap: int = DEFAULT_CAP) -> OpFamily:
    """The n-ary part of the semiclone generated by F.

    For n >= 1 this is the S-component of the fixpoint over K = A^n seeded
    with the projection tables; an n-ary operation is exactly its tuple of
    values.  For n = 0 a constant-propagation fixpoint is run instead, since
    there are no nullary projections to seed with.
    """
    ops = list(F)
    carrier = Carrier(k)
    if n == 0:
        consts: set[int] = {f.table[0] for f in ops if f.arity == 0}
        while True:
            new = {
                f(args)
                for f in ops
                for args in itertools.product(sorted(consts), repeat=f.arity)
            }
            if new <= consts:
                break
            consts |= new
        return OpFamily(Operation(k, 0, (c,)) for c in consts)
    ksize = carrier.num_tuples(n)
    seed = [tuple(t[i] for t in carrier.tuples(n)) for i in range(n)]
    result = gamma_fixpoint(ops, ksize, seed, k, cap)
    return _ops_from_tuples(result.S, n, k)


def clone_nary_part(F: Iterable[Operation], n: int, k: int, cap: int = DEFAULT_CAP) -> OpFamily:
    """The n-ary part of the clone generated by F: the semiclone part plus
    the n-ary projections."""
    carrier = Carrier(k)
    part = semiclone_nary_part(F, n, k, cap)
    if n == 0:
        return part
    return part.union(projection(n, i, carrier) for i in range(n))


def semigroup_generate(G: Iterable[Operation]) -> OpFamily:
    """Closure of a set of unary operations under composition."""
    gens = list(G)
    for g in gens:
        if g.arity != 1:
            raise DomainError("semigroup generation takes unary operations only")
    S: set[Operation] = set(gens)
    while True:
        new = {compose(f, [g]) for f in S for g in S} - S
        if not new:
            return OpFamily(S)
        S |= new


def semigroup_nary_part(G: Iterable[Operation], n: int, k: int) -> OpFamily:
    """The n-ary part of the semiclone generated by a set of unary maps:
    members of the generated semigroup applied to one coordinate."""
    if n < 1:
        return OpFamily()
    carrier = Carrier(k)
    S = semigroup_generate(G)
    return OpFamily(
        compose(f, [projection(n, i, carrier)])
        for f in S
        for i in range(n)
    )


def decide_projections(F: Iterable[Operation], k: int, cap: int = DEFAULT_CAP) -> bool:
    """True iff the clone generated by F, with all projections removed, is
    still composition-closed.

    Equivalent to the identity map not being derivable from the
    non-projection part of F; tested via the fixpoint with K = A seeded with
    the identity tuple.  A carrier of size 0 makes the question vacuous.
    """
    if k == 0:
        return True
    ops = [f for f in F if not is_projection(f)]
    id_tuple = tuple(range(k))
    result = gamma_fixpoint(ops, k, [id_tuple], k, cap)
    return id_tuple not in result.S
