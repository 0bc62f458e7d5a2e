"""Superposition of relation pairs, bounded generation of relation pair
clones, the pair-side interpolation closures sLOC/LOC, and directed-family
utilities.

The closure engine `_Closure` works on packed pairs rho | rho' << k^m, not
through superposition: its moves act on the k blocks that the first
coordinate splits each component into, and the transposition masks and
block constants are its one table per arity.  Both stopping rules return
it in an `RpCloneResult`, whose `masks(m)` is the one place that unpacks a
slice, into the (rho, rho') bit masks that other modules read, and whose
`pairs` are built only when read.  `sloc_pair_masks` is the engine under
`sloc_pairs`, on masks.  The tests
build the definition-level closure oracle from the elementary
specialisations of `general_superposition` (permutation, identification,
projection, fictitious coordinates, intersection and the from-nothing
pairs).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .core import (
    CapExceeded,
    Carrier,
    DomainError,
    PairFamily,
    Relation,
    RelationPair,
    bit_indices,
    check_cap,
    or_zeta,
    pair_rows,
    submasks,
)


@dataclass(frozen=True)
class SuperpositionSpec:
    """A finite variable scheme: mu fresh variables, target arity m with an
    output map beta: m -> mu, and one input map alpha_i: m_i -> mu per input
    pair."""

    mu: int
    m: int
    beta: tuple[int, ...]
    alphas: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        entries = [self.mu, self.m, *self.beta, *itertools.chain.from_iterable(self.alphas)]
        if any(type(v) is not int for v in entries):  # bool is an int subclass
            raise DomainError("variable counts and map values must be integers")
        if self.mu < 0 or self.m < 0:
            raise DomainError("variable counts must be >= 0")
        if len(self.beta) != self.m:
            raise DomainError("output map length must equal the target arity")
        for v in self.beta:
            if not 0 <= v < self.mu:
                raise DomainError("output map value outside the variable scheme")
        for alpha in self.alphas:
            for v in alpha:
                if not 0 <= v < self.mu:
                    raise DomainError("input map value outside the variable scheme")


def _superpose_relations(spec: SuperpositionSpec, rels: Sequence[Relation], k: int) -> Relation:
    carrier = Carrier(k)
    check_cap("superposition assignment space", 1, k, spec.mu)
    decoded = [
        (alpha, frozenset(rel.indices()))
        for alpha, rel in zip(spec.alphas, rels)
    ]
    out = 0
    for a in carrier.tuples(spec.mu):
        ok = True
        for alpha, members in decoded:
            if carrier.encode(tuple(a[v] for v in alpha)) not in members:
                ok = False
                break
        if ok:
            out |= 1 << carrier.encode(tuple(a[v] for v in spec.beta))
    return Relation(k, spec.m, out)


def general_superposition(spec: SuperpositionSpec, pairs: Sequence[RelationPair],
                          k: int) -> RelationPair:
    """Combine relation pairs through a common variable scheme, applied
    componentwise: the result collects a o beta over all assignments a whose
    restrictions a o alpha_i hit the respective components."""
    if len(pairs) != len(spec.alphas):
        raise DomainError("number of input pairs must match the number of input maps")
    for p, alpha in zip(pairs, spec.alphas):
        if p.k != k:
            raise DomainError("carrier mismatch in superposition")
        if p.arity != len(alpha):
            raise DomainError(
                f"input map of length {len(alpha)} applied to a pair of arity {p.arity}"
            )
    rho = _superpose_relations(spec, [p.rho for p in pairs], k)
    rho_prime = _superpose_relations(spec, [p.rho_prime for p in pairs], k)
    return RelationPair(k, spec.m, rho, rho_prime)


@dataclass(frozen=True)
class RpCloneResult:
    """A stopping rule's closure with its target arity, and whether the slice
    at arity <= target_cap changed over the last cap increment
    (`rpclone_generate`) or two (`rpclone_generate_stable`).  Entry m of
    `closure` is the set of its m-ary pairs rho | rho' << k^m, and its
    length is one more than the intermediate cap; `masks(m)` unpacks entry
    m, and `pairs` builds the slice's `PairFamily` from those each time it
    is read."""

    closure: _Closure = field(repr=False)
    target_cap: int
    slice_changed_at_last_cap: bool

    @property
    def intermediate_cap(self) -> int:
        return len(self.closure) - 1

    def masks(self, m: int) -> list[tuple[int, int]]:
        """The closure's m-ary pairs as (rho, rho') bit masks, unordered."""
        size = self.closure.k ** m
        return [(x & (1 << size) - 1, x >> size) for x in self.closure[m]]

    @property
    def pairs(self) -> PairFamily:
        k = self.closure.k
        return PairFamily(RelationPair(k, m, Relation(k, m, rho), Relation(k, m, rho_p))
                          for m in range(self.target_cap + 1) for rho, rho_p in self.masks(m))


# the closure refuses once it holds more pairs than this, over all arities
MAX_PAIRS = 200_000


def _arity_maps(m: int, k: int) -> tuple:
    """The closure's table at arity m: the transpositions as masked swaps on
    packed pairs rho | rho' << k^m, each (mask, shift) swapping the bits
    under mask with those shift places above, in the orbit layers and the
    fronts; then k^m, the block size B = k^(m-1) (0 at m = 0) and its mask,
    the shifts jB of blocks j = 1..k-1, and the repunit sum_{j<k} 2^(jB).
    Layer i holds (j i), j < i, as one step per value difference
    d = 1..k-1, each step listing its swap for every j, split into the first
    step and the later ones (both empty at k <= 1); fronts[i] lists the
    swaps of (0 i)."""
    tuples = list(Carrier(k).tuples(m))

    def swap(i: int, j: int, d: int) -> tuple[int, int]:
        # swapping coordinates j < i moves each tuple with t_i - t_j = d > 0
        # up by d * (k^(m-1-j) - k^(m-1-i)) places
        mask = sum(1 << n for n, t in enumerate(tuples) if t[i] - t[j] == d)
        return mask | mask << k ** m, d * (k ** (m - 1 - j) - k ** (m - 1 - i))

    layers, fronts = [], [[]]
    for i in range(1, m):
        steps = [[swap(i, j, d) for j in range(i)] for d in range(1, k)]
        layers.append((steps[0], steps[1:]) if steps else ([], []))
        fronts.append([step[0] for step in steps])
    b = k ** (m - 1) if m else 0
    return (layers, fronts, k ** m, b, (1 << b) - 1, [j * b for j in range(1, k)],
            sum(1 << j * b for j in range(k)))


class _Closure(list):
    """The closure at intermediate cap top, as one set of packed pairs
    rho | rho' << k^m per arity m <= top, built cap by cap from 0 with an
    oversized tuple space k^top refused before any cap is built; grow()
    continues it to the next cap, and counts[c] holds the set sizes per
    arity once cap c was built.

    The work is done per coordinate-permutation orbit.  A pair that is not
    yet in the closure enters with its whole orbit, and the orbit minimum is
    its one representative.  The orbit is searched layer by layer: layer i
    applies the transpositions (j i), j < i, which with the identity are one
    permutation per coset of the permutations of 0..i-1 among those of 0..i,
    so every permutation is a product of one choice per layer, and a free
    orbit costs one transposition per member.  Only representatives are
    transformed and intersected:

    - A move (identify two coordinates, drop one, add a fictitious one)
      conjugated by a permutation pi is another move followed by a
      permutation: identifying i, j of pi(r) identifies pi(i), pi(j) of r,
      dropping d drops pi(d), and adding a fictitious coordinate extends pi
      by fixing the new one.  So move(pi(r)) lies in the orbit of some
      move'(r).
      Identifying i and j is no move of its own: it is the intersection
      with the (i, j) diagonal, then dropping j.
    - pi(a & b) = pi(a) & pi(b), so for x = pi(r) every x & y is the image
      under pi of r & pi^-1(y): a representative meeting a union of whole
      orbits meets, up to pi, every member of that union.

    Not every pair needs to meet every other.  An orbit is move-born when it
    entered as a seed, the two from-nothing generators below included, by a
    drop, or by the extension of a move-born orbit (a fictitious
    coordinate added), and meet-born when it came out of an intersection;
    born[m] is the union of the move-born orbits processed at arity m.  A
    move-born representative meets every orbit processed before it and its
    own; a meet-born one meets born[m] only.  This still closes the family
    under intersection:

    - (i) every member is an intersection of move-born members: a meet-born
      orbit is the orbit of a & b for members a, b, and pi maps an
      intersection of move-born members to another one;
    - (ii) for any member x and move-born g, x & g is reached: of their two
      orbits, the one processed later meets the other (both sets met are
      unions of whole orbits, so the bullet above carries over);
    - (iii) so x & (g1 & ... & gt) is reached by t meets.

    This is the generating-set fact for closure systems (Ganter and Wille,
    Formal Concept Analysis, 1999).  Every representative is dropped, but
    only move-born ones are extended: ext(a & b) = ext(a) & ext(b), so by
    (i) the extension of a meet-born member is a meet of extensions of
    move-born members, which (iii) reaches.  Drops do not distribute over
    intersection.

    The from-nothing pairs need only two generators, which are the first
    two seeds: the arity-0 full pair and the binary diagonal.  Adding
    fictitious coordinates gives the full pair and, up to permutation,
    every diagonal at each higher arity.  The closure is monotone in the
    cap, so cap c + 1 starts from cap c: it adds the arity-(c+1) seeds,
    extends the move-born arity-c representatives, and runs on.

    The moves are integer arithmetic on the first coordinate.  A tuple index
    is read base k with coordinate 0 most significant, so each component of
    an arity-m pair is k contiguous blocks of k^(m-1) bits, block j holding
    the tuples that start with j.  A fictitious first coordinate copies each
    component into every block, one multiplication (`_fictitious`); dropping
    coordinate 0 ORs the blocks into the lowest, and coordinate i >= 1 is
    swapped with 0 first (`_drops`).  Each result is the definition's move
    followed by a permutation, so it lies in the same orbit.  maps[m], the
    `_arity_maps` table of the swaps and blocks, is built once per arity and
    closure; the swaps run inline.  Closure size is counted as orbits
    enter, so the MAX_PAIRS refusal comes as soon as the closure exceeds it.
    Checked against the definition-level closure in
    tests/test_relpairs.py::TestClosureEngine."""

    def __init__(self, seed: Iterable[RelationPair], k: int, top: int):
        check_cap("rpclone tuple space", k ** top)
        super().__init__()
        diag = sum(1 << a * (k + 1) for a in range(k))
        self.seed = [(0, 0b11), (2, diag | diag << k * k),
                     *((p.arity, p.rho.mask | p.rho_prime.mask << k ** p.arity) for p in seed)]
        self.k = k
        self.maps: list[tuple] = []
        self.reps: list[list[int]] = []
        self.done: list[set[int]] = []
        self.born: list[set[int]] = []
        self.todo: deque[tuple[int, int, set[int], bool]] = deque()
        self.size = 0
        self.counts: list[tuple[int, ...]] = []
        for _ in range(top + 1):
            self.grow()

    def _fictitious(self, m: int, r: int) -> int:
        """The arity-m pair r with a fictitious coordinate added in front:
        each component times the repunit sum_{j<k} 2^(j k^m) is k copies of
        it, one per block of arity m + 1 (0 at k = 0).  No product carries,
        as each copy is k^m bits wide."""
        _, _, n, b, low, _, repunit = self.maps[m + 1]
        return (r & low) * repunit | (r >> b) * repunit << n

    def _drops(self, m: int, r: int) -> list[int]:
        """The drops of coordinates 0..m-1 of r, each in the orbit of the
        projection that leaves out that coordinate: coordinate i >= 1 is
        swapped to the front first, and the front coordinate is dropped by
        ORing the k blocks of each component into the lowest one."""
        _, fronts, n, b, low, shifts, _ = self.maps[m]
        drops = []
        for swaps in fronts:
            x = r
            for mask, shift in swaps:
                t = (x >> shift ^ x) & mask
                x ^= t | t << shift
            y = x
            for shift in shifts:
                y |= x >> shift
            drops.append(y & low | (y >> n & low) << b)
        return drops

    def _admit(self, m: int, x: int, moved: bool = True) -> None:
        """Enter x, not yet a member, with its orbit."""
        orbit = {x}
        for first, later in self.maps[m][0]:
            # member y's image under (j i) is entry y * i + j; one step per d
            images = [y ^ ((t := (y >> shift ^ y) & mask) | t << shift)
                      for y in orbit for mask, shift in first]
            for step in later:
                images = [y ^ ((t := (y >> shift ^ y) & mask) | t << shift)
                          for y, (mask, shift) in zip(images, itertools.cycle(step))]
            orbit.update(images)
        self[m] |= orbit
        rep = min(orbit)
        self.reps[m].append(rep)
        self.todo.append((m, rep, orbit, moved))
        self.size += len(orbit)
        if self.size > MAX_PAIRS:
            raise CapExceeded("rpclone closure size", self.size, MAX_PAIRS)

    def grow(self) -> None:
        k, c = self.k, len(self)
        check_cap("rpclone tuple space", k ** c)
        self.maps.append(_arity_maps(c, k))
        self.append(set())
        self.reps.append([])
        self.done.append(set())
        self.born.append(set())
        for m, x in self.seed:
            if m == c and x not in self[c]:
                self._admit(c, x)
        if c:
            for r in filter(self.born[c - 1].__contains__, self.reps[c - 1]):
                x = self._fictitious(c - 1, r)
                if x not in self[c]:
                    self._admit(c, x)
        todo, done, born = self.todo, self.done, self.born
        while todo:
            m, r, orbit, moved = todo.popleft()
            if m:
                below = self[m - 1]
                for x in self._drops(m, r):
                    if x not in below:
                        self._admit(m - 1, x)
            if m < c and moved:
                x = self._fictitious(m, r)
                if x not in self[m + 1]:
                    self._admit(m + 1, x)
            done[m] |= orbit
            if moved:
                born[m] |= orbit
            members = self[m]
            # an orbit entered in this loop may hold a later meet
            for x in {r & y for y in (done[m] if moved else born[m])} - members:
                if x not in members:
                    self._admit(m, x, False)
        self.counts.append(tuple(map(len, self)))


def _seeds(Q: Iterable[RelationPair], target_cap: int,
           k: int | None) -> tuple[list[RelationPair], int, int]:
    """Check the arguments of both stopping rules: Q as a list, the carrier
    size, and the largest of target_cap and the seed arities.  A seed
    enters the closure only once the cap reaches its arity."""
    if target_cap < 0:
        raise DomainError("target arity must be >= 0")
    seed = list(Q)
    if k is None:
        if not seed:
            raise DomainError("carrier size required when Q is empty")
        k = seed[0].k
    for p in seed:
        if p.k != k:
            raise DomainError("carrier mismatch in pair family")
    return seed, k, max([target_cap, *(p.arity for p in seed)])


def rpclone_generate(Q: Iterable[RelationPair], target_cap: int,
                     intermediate_cap: int | None = None, k: int | None = None) -> RpCloneResult:
    """Close Q under coordinate permutation, identification, dropping a
    coordinate, fictitious coordinates, binary intersection, and the
    from-nothing diagonal and full pairs, keeping every intermediate result
    at arity <= intermediate_cap, then restrict to arity <= target_cap.  The
    cap defaults to max(target_cap + 2, the largest seed arity).  An
    explicit cap below the target is an input error, and so is one below a
    seed's arity: that seed would never enter the closure.

    For a fixed intermediate cap this computes a subset of the full closure;
    it is monotone in the cap, and the flag records whether the last cap
    increment, from intermediate_cap - 1 to intermediate_cap, changed the
    restricted slice.  With intermediate_cap == target_cap no increment is
    compared and the flag reads true.  Empty pairs are never injected; they
    appear only when derivable from Q."""
    seed, k, top = _seeds(Q, target_cap, k)
    c = intermediate_cap if intermediate_cap is not None else max(target_cap + 2, top)
    if c < target_cap:
        raise DomainError("intermediate cap must be >= target cap")
    if c < top:
        raise DomainError("intermediate cap must be >= the largest seed arity")
    closure = _Closure(seed, k, c)
    # the closure only grows with the cap, so equal slice sizes mean equal slices
    sizes = [counts[:target_cap + 1] for counts in closure.counts]
    return RpCloneResult(closure, target_cap, c == target_cap or sizes[c - 1] != sizes[c])


def rpclone_generate_stable(
    Q: Iterable[RelationPair], target_cap: int, k: int | None = None
) -> RpCloneResult:
    """The closure of Q at the stable rule's cap, in an `RpCloneResult` that
    holds it packed; its `pairs`, those of arity <= target_cap, are built
    when read.

    From b = max(target_cap, a - 1), a the largest seed arity, the cap is
    raised to b + 2 and at most b + 3, stopping at the first cap c whose
    slice at arity <= target_cap is as large as at c - 2, so unchanged over
    two increments, as the slice only grows with the cap.  Every seed has
    entered by cap b + 1, so the closure at c and c - 1 holds them all.  The
    flag is true iff those two slices differ: the rule gave up at b + 3.
    The stop is a heuristic; a higher cap may still add pairs."""
    seed, k, top = _seeds(Q, target_cap, k)
    b = max(target_cap, top - 1)
    closure = _Closure(seed, k, b)
    closure.grow()
    for c in (b + 2, b + 3):
        closure.grow()
        sizes = [counts[:target_cap + 1] for counts in closure.counts]
        if sizes[c - 2] == sizes[c]:
            break
    return RpCloneResult(closure, target_cap, sizes[c - 2] != sizes[c])


def sloc_pairs(Q: Iterable[RelationPair], s: int, m: int, k: int) -> PairFamily:
    """All m-ary (sigma, sigma') such that every subset of sigma of size <= s
    is covered by the first component of some m-ary member of Q whose second
    component lies inside sigma': the pairs of `sloc_pair_masks` on the
    m-ary members of Q."""
    return PairFamily(RelationPair(k, m, Relation(k, m, sigma), Relation(k, m, sub))
                      for sigma, sub in sloc_pair_masks(pair_masks(Q, m, k), s, m, k))


def pair_masks(Q: Iterable[RelationPair], m: int, k: int) -> Iterator[tuple[int, int]]:
    """The m-ary members of Q as (rho, rho') bit masks, in Q's order, read
    from its `pair_rows`, which check each member's carrier."""
    return ((rho, rho_prime) for arity, rho, rho_prime in pair_rows(Q, k) if arity == m)


def sloc_pair_masks(witnesses: Iterable[tuple[int, int]], s: int, m: int,
                    k: int) -> set[tuple[int, int]]:
    """The s-local closure of the m-ary witnesses, all pairs given and
    returned as (rho, rho') bit masks over the N = k^m tuples.

    A witness covering B covers every subset of B, so only the subsets B of
    sigma of size min(s, |sigma|) are tested.  The up-set of a covered set
    B is the int of 2^N bits whose bit T is set iff T contains the second
    component of some witness whose first component contains B: the bits
    of those second components, spread to their supersets by one OR-zeta
    transform (`core.or_zeta`).  A candidate sigma' ⊆ sigma is accepted iff
    its bit is set in the AND of the up-sets of sigma's covered sets, one
    bit test per candidate instead of a scan of the witnesses.

    The cap charges the 3^N candidate pairs before any work, and that
    bounds the up-sets: each is built once per call and holds 2^N bits,
    fewer than the candidates, so 512 bytes at the default cap (3^N <= 2^20
    there, so N <= 12).  One is held per covered set, at most
    sum_{j <= s} C(N, j) <= 2^N of them: at most 2 MiB at the default cap."""
    if s < 0:
        raise DomainError("locality parameter must be >= 0")
    if m < 0:
        raise DomainError("arity must be >= 0")
    size = Carrier(k).num_tuples(m)
    qm = list(witnesses)
    check_cap("sloc_pairs candidate enumeration", 1, 3, size)
    ups: dict[int, int] = {}
    out = set()
    for sigma in range(1 << size):
        members = list(bit_indices(sigma))
        need = -1
        for B in itertools.combinations(members, min(s, len(members))):
            b = sum(1 << i for i in B)
            if b not in ups:
                seeds = 0
                for rho, rho_p in qm:
                    if not b & ~rho:
                        seeds |= 1 << rho_p
                ups[b] = or_zeta(seeds, 1, size)
            need &= ups[b]
        out.update((sigma, sub) for sub in submasks(sigma) if need >> sub & 1)
    return out


def loc_pairs(Q: Iterable[RelationPair], m: int, k: int) -> PairFamily:
    """Finite-carrier local closure for pairs: covering subsets up to the
    full tuple count."""
    return sloc_pairs(Q, Carrier(k).num_tuples(m), m, k)


def is_s_directed(T: Iterable[RelationPair], s: int) -> bool:
    """True iff for every choice of at most s tuples, each drawn from the
    first component of some member, a single member's first component
    contains them all."""
    if s < 0:
        raise DomainError("locality parameter must be >= 0")
    pairs = list(T)
    if not pairs:
        return False
    if len({p.k for p in pairs}) > 1:
        raise DomainError("carrier mismatch in pair family")
    if len({p.arity for p in pairs}) > 1:
        raise DomainError("directedness requires a single arity")
    firsts = [p.rho.mask for p in pairs]
    union = 0
    for mask in firsts:
        union |= mask
    members = list(bit_indices(union))
    # a member containing a choice contains every subset of it, so only
    # choices of min(s, |union|) tuples are tested
    for combo in itertools.combinations(members, min(s, len(members))):
        picked = sum(1 << i for i in combo)
        if not any(picked & ~mask == 0 for mask in firsts):
            return False
    return True


def union_family(T: Iterable[RelationPair]) -> RelationPair:
    """Componentwise union of a non-empty single-arity family."""
    pairs = list(T)
    if not pairs:
        raise DomainError("union of an empty family is undefined")
    if len({p.k for p in pairs}) > 1:
        raise DomainError("carrier mismatch in pair family")
    if len({p.arity for p in pairs}) > 1:
        raise DomainError("union requires a single arity")
    k, m = pairs[0].k, pairs[0].arity
    rho = 0
    rho_p = 0
    for p in pairs:
        rho |= p.rho.mask
        rho_p |= p.rho_prime.mask
    return RelationPair(k, m, Relation(k, m, rho), Relation(k, m, rho_p))
