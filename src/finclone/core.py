"""Shared substrate: carriers, dense tuple encodings, operations, relations,
relation pairs, canonical families, composition, the relaxation closure and
the matrix-row engine.

All values are immutable after construction and all functions are pure.
Tuples over the carrier {0,...,k-1} are encoded base-k with position 0 most
significant: (x_0,...,x_{m-1}) -> sum x_i * k^(m-1-i).  Every other module
inherits this encoding.

The matrix-row engine (`row_sums`, `row_images`) works on byte lanes: a
tuple is packed as `bytes` with one lane of 1, 2, 4 or 8 bytes per entry
(`pack`), and a column of a matrix is that string read as one int and
scaled by its place in the table index.  The sum of the columns holds every
row of the matrix as a table index, one per lane, and no lane carries into
the next.  With one-byte lanes the image of all rows under a value table is
one `bytes.translate`.  `row_images` takes several value tables of one
arity at once and lays out each row once for all of them.  Both Galois maps
read the n-column matrices over a relation given as its bit mask, laid out
in one place, `column_pools`; `pair_rows` is the one place where relation
pairs become the (arity, rho, rho') mask rows that the maps read.

Engines charge their cost estimates to `check_cap`, which refuses one above
the complexity cap of the innermost `capped` scope; no engine takes a cap.
"""

from __future__ import annotations

import array
import itertools
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


class DomainError(ValueError):
    """An input value violates a structural invariant (bad arity, entry >= k, ...)."""


class CapExceeded(RuntimeError):
    """An enumeration would exceed the complexity cap in force.

    Raised instead of silently truncating; carries the cost estimate and the
    cap, either of them, when it has more digits than `str` converts, as its
    magnitude in text (">= 2^N"), so that the message and a JSON dump print.
    """

    def __init__(self, what: str, cost: int | str, limit: int):
        self.what = what
        self.cost = _printable(cost)
        self.cap = _printable(limit)
        super().__init__(f"{what}: estimated cost {self.cost} exceeds cap {self.cap}")


DEFAULT_CAP = 2 ** 20

_CAP: ContextVar[int] = ContextVar("finclone_cap", default=DEFAULT_CAP)


@contextmanager
def capped(limit: int) -> Iterator[None]:
    """Run the enclosed computations under the complexity cap `limit`: each
    `check_cap` inside refuses a cost above it.  Scopes nest, the innermost
    applies, and the outer cap comes back on exit; outside every scope the
    cap is DEFAULT_CAP.  The scope belongs to the current thread or task."""
    if limit < 0:
        raise DomainError("cap must be >= 0")
    token = _CAP.set(limit)
    try:
        yield
    finally:
        _CAP.reset(token)


def _at_least(bits: int) -> str:
    """How CapExceeded shows a number of `bits + 1` bits: ">= 2^N" with
    N = bits, or ">= 2^(2^M)" when N has more digits than `str` converts
    and has M + 1 bits."""
    try:
        return f">= 2^{bits}"
    except ValueError:
        return f">= 2^(2^{bits.bit_length() - 1})"


def _printable(n: int | str) -> int | str:
    """n, or its magnitude when it has more digits than `str` converts."""
    try:
        str(n)
    except ValueError:
        return _at_least(n.bit_length() - 1)
    return n


def check_cap(what: str, cost: int, base: int = 1, exponent: int = 0) -> None:
    """Refuse, by raising CapExceeded, an estimate of cost * base ** exponent
    above the innermost cap.

    The magnitude is compared first: an estimate whose bit length is sure
    to exceed both the cap's and four bits for each decimal digit that `str`
    converts is refused as ">= 2^N", N its exact floor(log2) from
    `_log2_floor` (">= 2^(2^M)" when N is too long to print), so a huge
    power is never built.
    """
    cap = _CAP.get()
    if exponent and base > 1 and cost > 0:
        bits = cost.bit_length() - 1 + exponent * (base.bit_length() - 1)
        if bits > cap.bit_length() and bits > 4 * sys.get_int_max_str_digits() > 0:
            raise CapExceeded(what, _log2_floor(cost, base, exponent, _at_least), cap)
    cost *= base ** exponent
    if cost > cap:
        raise CapExceeded(what, cost, cap)


def _log2_floor(cost: int, base: int, exponent: int, shown: Callable = lambda n: n):
    """`shown` of floor(log2(cost * base ** exponent)) for cost, base >= 1,
    exact at any size without building the power.

    The base's factor 2^j adds j * exponent.  Its odd part is raised by
    squaring on mantissas, once rounded down and once up.  Each squaring
    doubles their error, so the mantissas grow from 64 bits to
    exponent.bit_length() + 64 and then double, until `shown` of the two
    bounds agrees, as it does once the error is below the product's
    distance to a power of two.  `check_cap` shows the floor by `_at_least`,
    so a floor too long to print needs only its bit length.
    """
    j = (base & -base).bit_length() - 1
    odd, width = base >> j, 64

    def bound(up: bool) -> int:
        def keep(x: int, shift: int) -> tuple[int, int]:
            drop = max(x.bit_length() - width, 0)
            top = x >> drop
            return top + (up and top << drop != x), shift + drop

        x, shift = 1, 0
        for bit in bin(exponent)[2:]:
            x, shift = keep(x * x, 2 * shift)
            if bit == "1":
                x, shift = keep(x * odd, shift)
        x, shift = keep(x * cost, shift)
        return x.bit_length() - 1 + shift

    while (low := shown(bound(False) + j * exponent)) != shown(bound(True) + j * exponent):
        width = max(2 * width, exponent.bit_length() + 64)
    return low


@dataclass(frozen=True, order=True)
class Carrier:
    """The finite base set {0,...,k-1}; k = 0 and k = 1 are allowed."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise DomainError(f"carrier size must be >= 0, got {self.k}")

    def num_tuples(self, arity: int) -> int:
        return self.k ** arity

    def tuples(self, arity: int) -> Iterator[tuple[int, ...]]:
        """All arity-tuples over the carrier in encoding order."""
        return itertools.product(range(self.k), repeat=arity)

    def encode(self, t: Sequence[int]) -> int:
        idx = 0
        for x in t:
            if not 0 <= x < self.k:
                raise DomainError(f"tuple entry {x} outside carrier of size {self.k}")
            idx = idx * self.k + x
        return idx

    def decode(self, index: int, arity: int) -> tuple[int, ...]:
        if not 0 <= index < self.k ** arity:
            raise DomainError(f"index {index} out of range for arity {arity}, k={self.k}")
        out = [0] * arity
        for i in range(arity - 1, -1, -1):
            index, out[i] = divmod(index, self.k)
        return tuple(out)


@dataclass(frozen=True, order=True)
class Operation:
    """A finitary operation on {0,...,k-1}: arity n plus a dense value table
    of length k^n in encoding order.  n = 0 is a nullary constant."""

    k: int
    arity: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 0:
            raise DomainError("operation arity must be >= 0")
        expected = self.k ** self.arity
        if len(self.table) != expected:
            raise DomainError(
                f"table length {len(self.table)} != k^arity = {expected}"
            )
        for v in self.table:
            if not 0 <= v < self.k:
                raise DomainError(f"table value {v} outside carrier of size {self.k}")

    @property
    def carrier(self) -> Carrier:
        return Carrier(self.k)

    def __call__(self, args: Sequence[int]) -> int:
        if len(args) != self.arity:
            raise DomainError(f"expected {self.arity} arguments, got {len(args)}")
        return self.table[self.carrier.encode(args)]

    def sort_key(self):
        return (self.arity, self.table)


def all_operations(carrier: Carrier, arity: int) -> Iterator[Operation]:
    """All k^(k^arity) operations of the given arity, table-lexicographic order."""
    for table in itertools.product(range(carrier.k), repeat=carrier.num_tuples(arity)):
        yield Operation(carrier.k, arity, table)


def projection(n: int, i: int, carrier: Carrier) -> Operation:
    """The n-ary projection onto coordinate i.  There are no nullary projections."""
    if n < 1:
        raise DomainError("no nullary projections exist")
    if not 0 <= i < n:
        raise DomainError(f"projection coordinate {i} out of range for arity {n}")
    return Operation(carrier.k, n, projection_table(n, i, carrier))


def projection_table(n: int, i: int, carrier: Carrier) -> tuple[int, ...]:
    """The value table of the n-ary projection onto coordinate i."""
    return tuple(t[i] for t in carrier.tuples(n))


def is_projection(f: Operation) -> bool:
    if f.arity < 1:
        return False
    carrier = f.carrier
    return any(f == projection(f.arity, i, carrier) for i in range(f.arity))


def polymer(alpha: Sequence[int], f: Operation, m: int) -> Operation:
    """Re-index the arguments of f via alpha: n -> m, giving x -> f(x o alpha)."""
    if len(alpha) != f.arity:
        raise DomainError(f"index map has length {len(alpha)}, operation arity {f.arity}")
    if m < 0:
        raise DomainError("target arity must be >= 0")
    for a in alpha:
        if not 0 <= a < m:
            raise DomainError(f"index map value {a} out of range for target arity {m}")
    gs = [projection_table(m, a, f.carrier) for a in alpha]
    return Operation(f.k, m, compose_tables(f.table, gs, f.k, m))


def compose(f: Operation, gs: Sequence[Operation], target_arity: int | None = None) -> Operation:
    """f o (g_0,...,g_{n-1}).  All gs share an arity m; the result is m-ary.

    For n = 0 the inner arity is unconstrained, so target_arity must be given.
    """
    if len(gs) != f.arity:
        raise DomainError(f"need {f.arity} inner operations, got {len(gs)}")
    m = gs[0].arity if gs else target_arity
    if m is None:
        raise DomainError("nullary composition requires an explicit target arity")
    if m < 0:
        raise DomainError("target arity must be >= 0")
    if any(g.arity != m for g in gs):
        raise DomainError("inner operations must share a common arity")
    if any(g.k != f.k for g in gs):
        raise DomainError("carrier mismatch in composition")
    if target_arity is not None and target_arity != m:
        raise DomainError("target arity conflicts with inner operation arity")
    return Operation(f.k, m, compose_tables(f.table, [g.table for g in gs], f.k, m))


def compose_tables(f: Sequence[int], gs: Sequence[Sequence[int]], k: int,
                   m: int) -> tuple[int, ...]:
    """The value table of f o (g_0,...,g_{n-1}) at arity m on {0,...,k-1},
    f and the m-ary gs given as value tables: entry x is f's value at the
    index that the entries x of the gs encode, g_0 most significant."""
    idxs = [0] * k ** m
    for g in gs:
        idxs = [i * k + v for i, v in zip(idxs, g)]
    return tuple(map(f.__getitem__, idxs))


def bit_indices(mask: int) -> Iterator[int]:
    """Positions of the set bits of a non-negative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """Every submask of a non-negative mask, ascending from 0 to mask."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


# Lanes are laid out in native byte order, so `memoryview.cast` reads them.
_LANE_ORDER = sys.byteorder
_LANE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def lane_bytes(size: int, what: str = "byte-lane width") -> int:
    """Bytes per lane for lanes holding every value below `size`: 1, 2, 4 or 8.
    No lane holds a size above 2^64: that is refused as CapExceeded, with
    `what` naming the layer, before anything is laid out."""
    for b in _LANE_FORMATS:
        if size <= 256 ** b:
            return b
    raise CapExceeded(what, size, 256 ** max(_LANE_FORMATS))


def pack(t: Sequence[int], lane: int) -> bytes:
    """The tuple t as a lane string, `lane` bytes per entry, entry 0 first,
    in the native order that `unpack` reads."""
    if lane == 1:
        return bytes(t)
    return array.array(_LANE_FORMATS[lane], t).tobytes()


def unpack(data: bytes, lane: int) -> tuple[int, ...]:
    """The tuple that `pack` laid out as `data`."""
    if lane == 1:
        return tuple(data)
    return tuple(memoryview(data).cast(_LANE_FORMATS[lane]))


def lane_ints(data: Iterable[bytes]) -> list[int]:
    """Each lane string read as the one int that `row_sums` adds."""
    return [int.from_bytes(d, _LANE_ORDER) for d in data]


def int_lanes(x: int, lane: int, width: int) -> tuple[int, ...]:
    """The `width` lanes of `lane` bytes that make up x, its lowest bits
    first: on a little-endian host, the tuple whose `pack` `lane_ints` reads
    as x."""
    lanes = unpack(x.to_bytes(width * lane, _LANE_ORDER), lane)
    return lanes if _LANE_ORDER == "little" else lanes[::-1]


def lanes_int(lanes: Sequence[int], lane: int) -> int:
    """The int whose `int_lanes` of `lane` bytes are `lanes`."""
    if _LANE_ORDER == "big":
        lanes = lanes[::-1]
    return int.from_bytes(pack(lanes, lane), _LANE_ORDER)


def or_zeta(x: int, bits: int, n: int) -> int:
    """The OR-zeta (subset-sum) transform of x read as 2^n lanes of `bits`
    bits, lane S (lowest first) for the subset S of {0,...,n-1}: each lane
    becomes the OR of the lanes of all subsets of S.  One big-int step per
    element i, ORing each lane of a subset without i into the lane of that
    subset with i (Björklund, Husfeldt, Kaski and Koivisto, "Fourier meets
    Möbius: fast subset convolution", STOC 2007)."""
    for i in reversed(range(n)):
        step = bits << i
        # all ones on the lanes of the subsets without element i
        without = (1 << step) - 1 if i == n - 1 else without ^ without << step
        x |= (x & without) << step
    return x


class LaneTable(NamedTuple):
    """An operation's value table laid out for `row_images` on lanes of
    `lane` bytes: with one-byte lanes the 256-byte table of `bytes.translate`,
    else each value packed as one lane."""

    lane: int
    values: bytes | tuple[bytes, ...]

    @classmethod
    def of(cls, table: Sequence[int], lane: int) -> LaneTable:
        if lane == 1:
            return cls(1, bytes(table).ljust(256, b"\0"))
        return cls(lane, tuple(v.to_bytes(lane, _LANE_ORDER) for v in table))


def row_sums(pools: Sequence[Sequence[int]]) -> Iterator[int]:
    """Sums of one int from each pool, over the product of the pools.

    This is the matrix-row engine.  A member of a pool is a tuple packed as
    one int (`lane_ints`), one lane per entry.  When pool j holds the
    columns of an n-column matrix scaled by k^(n-1-j), lane r of a sum is
    row r of the matrix read as an index into an n-ary value table, and the
    sum is the matrix's scope; lanes never carry while the lanes hold k^n.
    With no pools the one sum is 0, the all-zero scope.
    """
    if not pools:
        return iter((0,))
    *front, last = pools
    if not front:
        return iter(last)
    return (row + y for row in row_sums(front) for y in last)


def row_images(tables: Sequence[LaneTable], pools: Sequence[Sequence[int]],
               width: int) -> Iterator[bytes]:
    """The images under each of `tables`, which share one lane width, of
    every row sum of `pools` over `width` lanes, packed like the lanes: lane
    r of an image is the table value at lane r of the sum.

    The images come row by row, in `row_sums` order, and within a row table
    by table.  Each row is laid out as lane bytes once and read through
    every table: with one-byte lanes by one `bytes.translate` per table,
    with wider lanes lane by lane through a `memoryview`.  One row is held
    at a time.
    """
    lane = tables[0].lane
    size = width * lane
    # the last pool is summed here, so each row costs one step of one generator
    *front, last = pools or ((0,),)
    if lane == 1:
        values = [v for _, v in tables]
        for row in row_sums(front):
            for y in last:
                key = (row + y).to_bytes(size, _LANE_ORDER)
                for v in values:
                    yield key.translate(v)
    else:
        fmt, gets = _LANE_FORMATS[lane], [v.__getitem__ for _, v in tables]
        for row in row_sums(front):
            for y in last:
                key = memoryview((row + y).to_bytes(size, _LANE_ORDER)).cast(fmt)
                for get in gets:
                    yield b"".join(map(get, key))


def column_pools(k: int, m: int, rho: int, n: int) -> tuple[int, list[bytes], list[list[int]]]:
    """The n-column matrices over the m-ary relation with mask `rho` on
    {0,...,k-1}, laid out for `row_sums`: the lane width that holds every
    index of an n-ary value table and every value below k, the members of
    rho packed on it, ascending, and the n pools, pool j the members as
    `lane_ints` scaled by k^(n-1-j), so that a row sum is a matrix's scope.
    Nothing is charged here: the callers charge their matrices first."""
    carrier = Carrier(k)
    lane = lane_bytes(max(k, k ** n))
    members = [pack(carrier.decode(i, m), lane) for i in bit_indices(rho)]
    ints = lane_ints(members)
    return lane, members, [[x * k ** (n - 1 - j) for x in ints] for j in range(n)]


@dataclass(frozen=True, order=True)
class Relation:
    """An m-ary relation, stored as a bit mask over the k^m encoded tuples."""

    k: int
    arity: int
    mask: int

    def __post_init__(self):
        if self.arity < 0:
            raise DomainError("relation arity must be >= 0")
        limit = 1 << (self.k ** self.arity)
        if not 0 <= self.mask < limit:
            raise DomainError("relation mask has bits outside the tuple range")

    @classmethod
    def from_tuples(cls, carrier: Carrier, arity: int, tuples: Iterable[Sequence[int]]) -> Relation:
        mask = 0
        for t in tuples:
            if len(t) != arity:
                raise DomainError(f"tuple {tuple(t)} does not have arity {arity}")
            mask |= 1 << carrier.encode(t)
        return cls(carrier.k, arity, mask)

    @classmethod
    def empty(cls, k: int, arity: int) -> Relation:
        return cls(k, arity, 0)

    @classmethod
    def full(cls, k: int, arity: int) -> Relation:
        return cls(k, arity, (1 << (k ** arity)) - 1)

    @property
    def carrier(self) -> Carrier:
        return Carrier(self.k)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, index: int) -> bool:
        return bool(self.mask >> index & 1)

    def indices(self) -> Iterator[int]:
        return bit_indices(self.mask)

    def tuples(self) -> Iterator[tuple[int, ...]]:
        carrier = self.carrier
        for i in self.indices():
            yield carrier.decode(i, self.arity)

    def issubset(self, other: Relation) -> bool:
        if (self.k, self.arity) != (other.k, other.arity):
            raise DomainError("relation comparison requires equal carrier and arity")
        return self.mask & ~other.mask == 0

    def sort_key(self):
        return (self.arity, self.mask)


@dataclass(frozen=True, order=True)
class RelationPair:
    """A pair (rho, rho') with rho' a subset of rho, both of the same arity.

    The arity is part of the identity: the empty pair at arity 1 differs from
    the empty pair at arity 2.
    """

    k: int
    arity: int
    rho: Relation
    rho_prime: Relation

    def __post_init__(self):
        if self.rho.arity != self.arity or self.rho_prime.arity != self.arity:
            raise DomainError("pair components must match the pair arity")
        if self.rho.k != self.k or self.rho_prime.k != self.k:
            raise DomainError("pair components must share the pair carrier")
        if self.rho_prime.mask & ~self.rho.mask:
            raise DomainError("rho_prime not a subset of rho")

    @classmethod
    def of(cls, rho: Relation, rho_prime: Relation) -> RelationPair:
        return cls(rho.k, rho.arity, rho, rho_prime)

    @classmethod
    def identical(cls, rho: Relation) -> RelationPair:
        return cls(rho.k, rho.arity, rho, rho)

    def is_identical(self) -> bool:
        return self.rho.mask == self.rho_prime.mask

    def sort_key(self):
        return (self.arity, self.rho.mask, self.rho_prime.mask)


def pair_rows(Q: Iterable[RelationPair], k: int) -> Iterator[tuple[int, int, int]]:
    """The members of Q as (arity, rho, rho') rows, the relations as bit
    masks, in Q's order; a member on another carrier is an error once it is
    reached."""
    for p in Q:
        if p.k != k:
            raise DomainError("carrier mismatch in pair family")
        yield p.arity, p.rho.mask, p.rho_prime.mask


def all_relations(carrier: Carrier, arity: int) -> Iterator[Relation]:
    for mask in range(1 << carrier.num_tuples(arity)):
        yield Relation(carrier.k, arity, mask)


def all_pairs(carrier: Carrier, arity: int) -> Iterator[RelationPair]:
    """All 3^(k^arity) relation pairs of the given arity, canonical order."""
    for rho in all_relations(carrier, arity):
        for s in submasks(rho.mask):
            yield RelationPair(carrier.k, arity, rho, Relation(carrier.k, arity, s))


def pair_leq(p: RelationPair, q: RelationPair) -> bool:
    """Componentwise inclusion order on pairs of equal arity."""
    if (p.k, p.arity) != (q.k, q.arity):
        raise DomainError("pair comparison requires equal carrier and arity")
    return p.rho.issubset(q.rho) and p.rho_prime.issubset(q.rho_prime)


def pair_qleq(p: RelationPair, q: RelationPair) -> bool:
    """Quasiorder comparing only the first components."""
    if (p.k, p.arity) != (q.k, q.arity):
        raise DomainError("pair comparison requires equal carrier and arity")
    return p.rho.issubset(q.rho)


class _Family:
    """A deduplicated, canonically ordered finite family; equality is set
    equality within one family type.  Subclasses set the member sort key."""

    __slots__ = ("members", "_set")

    def __init__(self, members: Iterable = ()):
        items = sorted(set(members), key=type(self)._key)
        self.members = tuple(items)
        self._set = frozenset(items)

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x) -> bool:
        return x in self._set

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._set == other._set

    def __hash__(self) -> int:
        return hash(self._set)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.members)!r})"

    def union(self, other: Iterable):
        return type(self)(itertools.chain(self.members, other))

    def issubset(self, other) -> bool:
        return self._set <= other._set


class OpFamily(_Family):
    """A family of operations: arity ascending, then table lexicographic."""

    __slots__ = ()
    _key = Operation.sort_key


class PairFamily(_Family):
    """A family of relation pairs: arity ascending, then by component masks."""

    __slots__ = ()
    _key = RelationPair.sort_key


def relaxations_of(p: RelationPair) -> PairFamily:
    """All (sigma, sigma') with rho' <= sigma' <= sigma <= rho, same arity:
    `enc([p])`, the 3^|rho - rho'| of them charged before they are listed."""
    return enc([p])


def enc(Q: Iterable[RelationPair]) -> PairFamily:
    """Closure of a family under relaxation (extensive, monotone, idempotent).
    The relaxations of all members, sum 3^|rho - rho'|, are charged first."""
    pairs = list(Q)
    check_cap("enc relaxation enumeration",
              sum(3 ** (p.rho.mask & ~p.rho_prime.mask).bit_count() for p in pairs))
    # sigma = rho' | s ranges over the supersets of rho' within rho, sigma'
    # = rho' | t over those within sigma
    return PairFamily(
        RelationPair(p.k, p.arity, Relation(p.k, p.arity, p.rho_prime.mask | s),
                     Relation(p.k, p.arity, p.rho_prime.mask | t))
        for p in pairs for s in submasks(p.rho.mask & ~p.rho_prime.mask) for t in submasks(s))
