"""Preservation predicate, Galois maps between operations and relation pairs,
their classical specialisations, and the operation-side interpolation
closures.

`polp` and `sloc_ops` share one constraint search over table entries;
`invp` enumerates its candidates.  Matrices over a relation are applied
row-wise through the engine in `core` (`row_sums`, `row_images`).  Complexity
caps refuse rather than truncate.  The enumerating oracles of `polp`,
`sloc_ops` and `op_image_mask` live in the tests.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable

from .core import (
    Carrier,
    DomainError,
    DEFAULT_CAP,
    OpFamily,
    Operation,
    PairFamily,
    Relation,
    RelationPair,
    all_operations,
    check_cap,
    row_images,
    row_sums,
    submasks,
)


def _columns(rho: Relation, n: int) -> list[list[tuple[int, ...]]]:
    """The column pools of the n-column matrices over rho: pool j holds the
    members of rho scaled by k^(n-1-j), so a row sum is a matrix's scope."""
    members = list(rho.tuples())
    return [[tuple(x * rho.k ** (n - 1 - j) for x in t) for t in members] for j in range(n)]


@lru_cache(maxsize=None)
def op_image_mask(f: Operation, rho: Relation) -> int:
    """Bit mask of { f applied row-wise to an n-column matrix over rho }.

    Each choice of n members of rho forms a matrix whose rows are fed to f;
    the resulting m-tuple is collected.  With n = 0 this yields the constant
    tuple (f(),...,f()); with rho empty and n > 0 it yields nothing.
    """
    if f.k != rho.k:
        raise DomainError("carrier mismatch between operation and relation")
    carrier = f.carrier
    images = set(row_images(f.table, _columns(rho, f.arity), rho.arity))
    return sum(1 << carrier.encode(t) for t in images)


def preserves(f: Operation, p: RelationPair) -> bool:
    """True iff every row-wise application of f to columns from p.rho lands
    in p.rho_prime."""
    if f.k != p.k:
        raise DomainError("carrier mismatch between operation and pair")
    return op_image_mask(f, p.rho) & ~p.rho_prime.mask == 0


@lru_cache(maxsize=4096)
def _scopes(rho: Relation, n: int) -> tuple[int, ...]:
    """The distinct scopes that n-column matrices over rho read, each encoded
    base k^n like a tuple.  With n = 0 the one scope is all zeros, even when
    rho is empty."""
    tables = Carrier(rho.k ** n)
    return tuple({tables.encode(scope) for scope in row_sums(_columns(rho, n), rho.arity)})


def polp(Q: Iterable[RelationPair], n: int, k: int, cap: int = DEFAULT_CAP) -> OpFamily:
    """All n-ary operations preserving every pair in Q.

    A constraint search over the k^n table entries (`_search`): each scope
    read by a matrix over some rho may only map to tuples in the tightest rho'
    for that rho.  The cap still bounds the k^(k^n) tables.
    """
    if n < 0:
        raise DomainError("arity must be >= 0")
    carrier = Carrier(k)
    check_cap("polp table enumeration", k ** carrier.num_tuples(n), cap)
    pairs = list(Q)
    for p in pairs:
        if p.k != k:
            raise DomainError("carrier mismatch in pair family")
    # group the constraints: for fixed rho only the tightest rho' matters
    tightest: dict[Relation, int] = {}
    for p in pairs:
        prev = tightest.get(p.rho)
        tightest[p.rho] = p.rho_prime.mask if prev is None else prev & p.rho_prime.mask
    # allowed[m, scope]: the images an arity-m scope may take under every rho
    allowed: dict[tuple[int, int], int] = {}
    for rho, ok in tightest.items():
        if ok != (1 << k ** rho.arity) - 1:
            for scope in _scopes(rho, n):
                key = (rho.arity, scope)
                allowed[key] = allowed.get(key, ok) & ok
    size = carrier.num_tuples(n)
    tables = Carrier(size)
    checks: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(size)]
    for (m, scope), ok in allowed.items():
        idxs = tables.decode(scope, m)
        if idxs:
            checks[max(idxs)].append((idxs, ok))
        elif not ok & 1:
            # an arity-0 scope reads no entry: it holds for all tables or none
            return OpFamily()
    return _search(k, n, checks)


def _search(k: int, n: int, checks: list[list[tuple[tuple[int, ...], int]]]) -> OpFamily:
    """All n-ary operations whose value table maps every scope to one of its
    allowed images.

    `checks[i]` lists (scope, allowed) for each scope whose largest index is
    i; a scope is a tuple of table indices, and `allowed` a bit mask over its
    images encoded base k.  Entries are assigned depth-first in index order,
    values ascending, and a scope is checked once its largest index is set.
    """
    size = len(checks)
    out: list[Operation] = []
    table = [0] * size

    def extend(i: int) -> None:
        if i == size:
            out.append(Operation(k, n, tuple(table)))
            return
        for x in range(k):
            table[i] = x
            for idxs, ok in checks[i]:
                v = 0
                for j in idxs:
                    v = v * k + table[j]
                if not ok >> v & 1:
                    break
            else:
                extend(i + 1)

    extend(0)
    return OpFamily(out)


def invp(F: Iterable[Operation], m: int, k: int, cap: int = DEFAULT_CAP) -> PairFamily:
    """All m-ary relation pairs preserved by every operation in F, by
    enumerating all 3^(k^m) candidates."""
    if m < 0:
        raise DomainError("arity must be >= 0")
    carrier = Carrier(k)
    check_cap("invp pair enumeration", 3 ** carrier.num_tuples(m), cap)
    ops = list(F)
    for f in ops:
        if f.k != k:
            raise DomainError("carrier mismatch in operation family")
    out = []
    for rho in (Relation(k, m, mask) for mask in range(1 << carrier.num_tuples(m))):
        # the union of images is the least admissible rho'
        need = 0
        for f in ops:
            need |= op_image_mask(f, rho)
            if need & ~rho.mask:
                break
        if need & ~rho.mask:
            continue
        out.extend(RelationPair(k, m, rho, Relation(k, m, need | s))
                   for s in submasks(rho.mask & ~need))
    return PairFamily(out)


def invp_upto(F: Iterable[Operation], max_arity: int, k: int, cap: int = DEFAULT_CAP) -> PairFamily:
    """Disjoint-union convenience wrapper: all invariant pairs of arity <= max_arity."""
    ops = list(F)
    out: list[RelationPair] = []
    for m in range(max_arity + 1):
        out.extend(invp(ops, m, k, cap))
    return PairFamily(out)


def polp_upto(Q: Iterable[RelationPair], max_arity: int, k: int, cap: int = DEFAULT_CAP) -> OpFamily:
    """All polymorphisms of Q of arity <= max_arity."""
    pairs = list(Q)
    out: list[Operation] = []
    for n in range(max_arity + 1):
        out.extend(polp(pairs, n, k, cap))
    return OpFamily(out)


def pol(Q1: Iterable[Relation], n: int, k: int, cap: int = DEFAULT_CAP) -> OpFamily:
    """Classical polymorphisms: operations preserving each relation as the
    identical pair (rho, rho)."""
    return polp([RelationPair.identical(rho) for rho in Q1], n, k, cap)


def inv(F: Iterable[Operation], m: int, k: int, cap: int = DEFAULT_CAP) -> list[Relation]:
    """Classical invariant relations: rho with (rho, rho) invariant."""
    ops = list(F)
    return sorted(
        (p.rho for p in invp(ops, m, k, cap) if p.is_identical()),
        key=Relation.sort_key,
    )


def sloc_ops(F: Iterable[Operation], s: int, n: int, k: int, cap: int = DEFAULT_CAP) -> OpFamily:
    """Operations agreeing with some member of F^(n) on every subset of A^n
    of size <= s.

    Only subsets of size exactly min(s, k^n) are checked: agreement on a
    larger set implies agreement on all of its subsets, so the result is
    identical to quantifying over all sizes <= s.  Each subset B is one
    constraint of `_search`: the scope B may only take the images that the
    members of F^(n) have on B.
    """
    if s < 0:
        raise DomainError("locality parameter must be >= 0")
    carrier = Carrier(k)
    fs = [f for f in F if f.arity == n]
    for f in fs:
        if f.k != k:
            raise DomainError("carrier mismatch in operation family")
    domain = carrier.num_tuples(n)
    size = min(s, domain)
    if size == 0 and not fs:
        return OpFamily()
    check_cap("sloc_ops subset enumeration", math.comb(domain, size) * (k ** domain), cap)
    if size == 0:
        return OpFamily(all_operations(carrier, n))
    checks: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(domain)]
    for B in itertools.combinations(range(domain), size):
        ok = 0
        for f in fs:
            v = 0
            for i in B:
                v = v * k + f.table[i]
            ok |= 1 << v
        checks[B[-1]].append((B, ok))
    return _search(k, n, checks)


def loc_ops(F: Iterable[Operation], n: int, k: int, cap: int = DEFAULT_CAP) -> OpFamily:
    """Finite-carrier local closure: interpolation on the whole of A^n."""
    return sloc_ops(F, Carrier(k).num_tuples(n), n, k, cap)
