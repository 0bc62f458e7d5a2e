"""Preservation predicate, Galois maps between operations and relation pairs,
their classical specialisations, and the operation-side interpolation
closures.

Everything except `polp` is computed by definition-level enumeration, with
complexity caps that refuse rather than truncate.  `polp` is a constraint
search over table entries; `polp_enumerate` is its enumerating oracle.
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
    bit_indices,
    check_cap,
)


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
    members = [carrier.decode(i, rho.arity) for i in rho.indices()]
    out = 0
    for cols in itertools.product(members, repeat=f.arity):
        image = tuple(f(tuple(col[row] for col in cols)) for row in range(rho.arity))
        out |= 1 << carrier.encode(image)
    return out


def preserves(f: Operation, p: RelationPair) -> bool:
    """True iff every row-wise application of f to columns from p.rho lands
    in p.rho_prime."""
    if f.k != p.k:
        raise DomainError("carrier mismatch between operation and pair")
    return op_image_mask(f, p.rho) & ~p.rho_prime.mask == 0


@lru_cache(maxsize=4096)
def _scope_mask(rho: Relation, n: int) -> int:
    """Bit mask of the scopes that n-column matrices over rho read.

    Row i of a matrix is one index into an n-ary value table; the m-tuple of
    those indices is the matrix's scope, encoded base k^n like a tuple.  With
    n = 0 every row reads index 0, even when rho is empty.
    """
    carrier, tables = rho.carrier, Carrier(rho.k ** n)
    members = [carrier.decode(i, rho.arity) for i in rho.indices()]
    out = 0
    for cols in itertools.product(members, repeat=n):
        scope = [carrier.encode([col[row] for col in cols]) for row in range(rho.arity)]
        out |= 1 << tables.encode(scope)
    return out


def polp(Q: Iterable[RelationPair], n: int, k: int, cap: int = DEFAULT_CAP) -> OpFamily:
    """All n-ary operations preserving every pair in Q.

    A constraint search over the k^n table entries: each scope read by a
    matrix over some rho may only map to tuples in the tightest rho' for that
    rho.  Entries are assigned depth-first in index order, values ascending,
    and a scope is checked once its largest index is assigned.  The cap still
    bounds the k^(k^n) tables; `polp_enumerate` is the oracle.
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
    size = carrier.num_tuples(n)
    tables = Carrier(size)
    # banned[m][v]: the arity-m scopes whose image may not be the tuple v
    banned: dict[int, list[int]] = {}
    for rho, allowed in tightest.items():
        images = carrier.num_tuples(rho.arity)
        excluded = ((1 << images) - 1) & ~allowed
        if not excluded:
            continue
        row = banned.setdefault(rho.arity, [0] * images)
        scopes = _scope_mask(rho, n)
        for v in bit_indices(excluded):
            row[v] |= scopes
    # checks[i]: (scope, allowed images) for each scope whose largest index is i
    checks: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(size)]
    for m, row in banned.items():
        any_banned = 0
        for scopes in row:
            any_banned |= scopes
        for scope in bit_indices(any_banned):
            ok = sum(1 << v for v, scopes in enumerate(row) if not scopes >> scope & 1)
            idxs = tables.decode(scope, m)
            if not idxs:
                # an arity-0 scope reads no entry: it holds for all tables or none
                if not ok & 1:
                    return OpFamily()
                continue
            checks[max(idxs)].append((idxs, ok))
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


def polp_enumerate(Q: Iterable[RelationPair], n: int, k: int, cap: int = DEFAULT_CAP) -> OpFamily:
    """All n-ary operations preserving every pair in Q, by enumerating all
    k^(k^n) value tables.  The reference oracle for `polp`."""
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
    out = []
    for f in all_operations(carrier, n):
        if all(op_image_mask(f, rho) & ~allowed == 0 for rho, allowed in tightest.items()):
            out.append(f)
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
        free = rho.mask & ~need
        s = free
        while True:
            out.append(RelationPair(k, m, rho, Relation(k, m, need | s)))
            if s == 0:
                break
            s = (s - 1) & free
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
    identical to quantifying over all sizes <= s.
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
    if size == 0:
        return OpFamily(all_operations(carrier, n)) if fs else OpFamily()
    check_cap("sloc_ops subset enumeration", math.comb(domain, size) * (k ** domain), cap)
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


def loc_ops(F: Iterable[Operation], n: int, k: int, cap: int = DEFAULT_CAP) -> OpFamily:
    """Finite-carrier local closure: interpolation on the whole of A^n."""
    return sloc_ops(F, Carrier(k).num_tuples(n), n, k, cap)
