"""Desk-scale machine checks of the structural laws connecting preservation,
generation, and the local closure operators.  Every check returns a Report;
failures carry a counterexample that the preservation primitives can
re-validate independently.

Each check reads the row functions under the library's families and
compares frozensets of value tables or of pairs as (rho, rho') bit masks,
with the arity in front where arities mix: galois `invp_pairs` and
`polp_rows`; op-side `least_invp`, `polp_rows`, `preserving`,
`semiclone_tables` and `sloc_tables`; least-pair `gamma_fixpoint`;
finite-collapse `enc` and `sloc_pair_masks`; pair-side `polp_tables`,
`least_invp`, `least_pairs`, `rpclone_generate_stable` and
`sloc_pair_masks`; semiclone-laws `semiclone_tables`, `polp_rows` and
`sloc_tables`; decide-proj `decide_projections` and `clone_tables`;
semigroups `semigroup_tables`, `invp_pairs` and `polp_rows`;
directed-unions `sloc_pair_masks`, `is_s_directed` and `union_family`;
classical `clone_tables`, `sloc_tables`, `least_invp`, `polp_rows`,
`polp_tables`, `invp_pairs`, `rpclone_generate_stable` and
`sloc_pair_masks`.  A generated closure is read through
`RpCloneResult.masks`.  Composition acts on value tables through
`core.compose_tables`.  An `Operation` is built only as an engine's input
(a generator, or the key of a least map) and to name a counterexample; the
one family a passing check builds is `enc`'s, which finite-collapse tests.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator

from . import core
from .core import (
    Carrier,
    CapExceeded,
    DomainError,
    Operation,
    Relation,
    RelationPair,
    all_operations,
    all_pairs,
    bit_indices,
    compose_tables,
    enc,
    projection,
    projection_table,
    submasks,
)
from .generation import (
    clone_tables,
    decide_projections,
    gamma_fixpoint,
    semiclone_tables,
    semigroup_tables,
)
from .preserve import (
    invp_pairs,
    least_invp,
    least_pairs,
    polp_rows,
    polp_tables,
    preserving,
    sloc_tables,
)
from .relpairs import (
    is_s_directed,
    pair_masks,
    rpclone_generate_stable,
    sloc_pair_masks,
    union_family,
)


@dataclass
class Report:
    name: str
    params: dict
    verdict: str  # "pass" | "fail" | "refused"
    counterexample: dict | None = None
    runtime_ms: int = 0
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _run(name: str, params: dict, body: Callable[[], tuple[str, dict | None, dict]]) -> Report:
    start = time.perf_counter()
    try:
        verdict, witness, details = body()
    except CapExceeded as e:
        verdict, witness, details = "refused", None, {"what": e.what, "cost": e.cost, "cap": e.cap}
    ms = int((time.perf_counter() - start) * 1000)
    return Report(name, params, verdict, witness, ms, details)


def _op_key(f: Operation) -> str:
    return f"op/{f.arity}:" + "".join(str(v) for v in f.table)


def _pair_key(p: RelationPair) -> str:
    return _mask_key(p.arity, p.rho.mask, p.rho_prime.mask)


def _mask_key(m: int, rho: int, rho_p: int) -> str:
    return f"pair/{m}:rho={rho:x},rho'={rho_p:x}"


def _listed(F: Iterable[Operation], params: dict) -> list[Operation]:
    """F listed inside a check's run, into params["F"]: a family that
    charges before it is listed is refused like any other charge, and its
    report then has no "F"."""
    ops = list(F)
    params["F"] = [_op_key(f) for f in ops]
    return ops


def _pair_rows(m: int, k: int) -> list[tuple[int, int, int]]:
    """All m-ary pairs as mask rows (m, rho, rho'), in `all_pairs` order."""
    return [(m, rho, t) for rho in range(1 << k ** m) for t in submasks(rho)]


def check_galois_axioms(k: int = 2) -> Report:
    """Antitonicity, extensivity and triple-composition idempotence of the
    maps between operation sets and pair families restricted to the window of
    arities <= 2, exhaustively over singletons and their two-element unions.
    An operation set holds the window's operations, each built once."""
    params = {"k": k, "op_arity_cap": 2, "pair_arity_cap": 2}

    def body():
        carrier = Carrier(k)
        op_arities = range(1, 3)
        pair_arities = range(2)
        # counted before they are listed: k^(k^n) operations, 3^(k^m) pairs.
        # Past k^(k^2) of 2^20 bits the counts are not built: a lower bound
        # of the unions of binary operations alone, comb(k^(k^2), 2) >=
        # (k // 2) k^(2k^2 - 1), is charged by its magnitude
        if k * k * k.bit_length() > 2 ** 20:
            core.check_cap("galois two-element unions", k // 2, k, 2 * k * k - 1)
        op_count = sum(k ** (k ** n) for n in op_arities)
        pair_count = sum(3 ** (k ** m) for m in pair_arities)
        core.check_cap("galois two-element unions",
                       math.comb(op_count, 2) + math.comb(pair_count, 2))
        window = {(f.arity, f.table): f for n in range(3) for f in all_operations(carrier, n)}
        ops = [f for f in window.values() if f.arity in op_arities]
        pairs = [p for m in pair_arities for p in _pair_rows(m, k)]
        invp_w = lambda F: frozenset((m, *pair) for m in range(3) for pair in invp_pairs(F, m, k))
        polp_w = lambda Q: frozenset(window[n, t] for n in range(3) for t in polp_rows(Q, n, k))
        # each singleton's maps, taken once: the antitonicity loops reuse them
        inv_of = {f: invp_w([f]) for f in ops}
        pol_of = {p: polp_w([p]) for p in pairs}
        # extensivity and idempotence over singletons
        for f in ops:
            q = inv_of[f]
            back = polp_w(q)
            if f not in back:
                return "fail", {"law": "extensivity", "op": _op_key(f)}, {}
            if invp_w(back) != q:
                return "fail", {"law": "invp_polp_invp", "op": _op_key(f)}, {}
        for p in pairs:
            g = pol_of[p]
            back = invp_w(g)
            if p not in back:
                return "fail", {"law": "extensivity", "pair": _mask_key(*p)}, {}
            if polp_w(back) != g:
                return "fail", {"law": "polp_invp_polp", "pair": _mask_key(*p)}, {}
        # antitonicity over two-element unions
        for f, g in itertools.combinations(ops, 2):
            if not invp_w([f, g]) <= inv_of[f]:
                return "fail", {"law": "invp_antitone", "ops": [_op_key(f), _op_key(g)]}, {}
        for p, q in itertools.combinations(pairs, 2):
            if not polp_w([p, q]) <= pol_of[p]:
                return "fail", {"law": "polp_antitone",
                                "pairs": [_mask_key(*p), _mask_key(*q)]}, {}
        return "pass", None, {"ops": len(ops), "pairs": len(pairs)}

    return _run("galois-axioms", params, body)


def check_op_side_characterisation(F: Iterable[Operation], s: int, n: int, k: int) -> Report:
    """Polymorphisms of all invariant pairs of arity <= s equal the s-local
    closure of the generated composition-closed set, via two independent
    pipelines; also the single-arity-s variant on non-empty carriers."""
    params = {"k": k, "s": s, "n": n}

    def body():
        ops = _listed(F, params)
        if s < 0:
            raise DomainError("locality parameter must be >= 0")
        # of the invariant pairs (rho, rho') polp needs only the least rho';
        # one search finds the tables preserving the pairs of arity s, and
        # the window <= s keeps those that also preserve the lower arities
        rows = [[(m, rho, need) for rho, need in least_invp(ops, m, k).items()]
                for m in range(s + 1)]
        single = polp_rows(rows[s], n, k)
        lhs = set(preserving(single, itertools.chain(*rows[:s]), n, k))
        rhs = set(sloc_tables(semiclone_tables(ops, n, k), s, n, k))
        if lhs != rhs:
            t = min(lhs ^ rhs)
            return "fail", {"op": _op_key(Operation(k, n, t)), "in_lhs": t in lhs,
                            "in_rhs": t in rhs}, {}
        if k > 0 and set(single) != rhs:
            t = min(set(single) ^ rhs)
            return "fail", {"variant": "single-arity", "op": _op_key(Operation(k, n, t))}, {}
        return "pass", None, {"size": len(lhs)}

    return _run("op-side-characterisation", params, body)


def check_least_invariant_pair(F: Iterable[Operation], B: Iterable[tuple[int, ...]],
                               k: int) -> Report:
    """The generation fixpoint over K = A returns the componentwise-least
    invariant pair whose first component contains the seed, compared against
    brute-force enumeration; the round count respects the chain bound."""
    seed = sorted(tuple(t) for t in B)
    params = {"k": k, "B": [list(t) for t in seed]}

    def body():
        ops = _listed(F, params)
        # the brute force decides the 3^(k^k) pairs (rho, rho'), each rho by
        # its least rho'
        core.check_cap("least-pair brute force", 1, 3, k ** k)
        result = gamma_fixpoint(ops, k, seed, k)
        space = list(itertools.product(range(k), repeat=k))
        bound = k ** k
        if result.steps > bound:
            return "fail", {"reason": "round bound exceeded", "steps": result.steps}, {}

        # (rho, rho') is invariant iff F[rho] ⊆ rho' ⊆ rho, so the least
        # invariant pair with first component rho is (rho, F[rho]), when
        # F[rho], the images of F on the matrices over rho, lies in rho
        best = None
        for rho_bits in range(1 << len(space)):
            rho = frozenset(space[i] for i in range(len(space)) if rho_bits >> i & 1)
            if not all(t in rho for t in seed):
                continue
            need = frozenset(tuple(f(tuple(a[i] for a in args)) for i in range(k))
                             for f in ops for args in itertools.product(rho, repeat=f.arity))
            if need <= rho:
                best = (rho, need) if best is None else (best[0] & rho, best[1] & need)
        # best is never None: rho = A^k contains the seed and F[A^k] ⊆ A^k
        if (result.R, result.S) != best:
            return "fail", {
                "gamma": [sorted(map(list, result.R)), sorted(map(list, result.S))],
                "minimum": [sorted(map(list, best[0])), sorted(map(list, best[1]))],
            }, {}
        return "pass", None, {"steps": result.steps}

    return _run("least-invariant-pair", params, body)


def check_finite_collapse(Q: Iterable[RelationPair], m: int, k: int) -> Report:
    """On a finite carrier the relaxation closure, the local closure, and the
    s-local closure at s = k^m coincide.  The local closure is the s-local
    closure at s = k^m, so one call gives both."""
    params = {"k": k, "m": m}

    def body():
        # listed inside the run, so that a family that charges before it is
        # listed is refused like any other charge, and then has no "Q"
        pairs = list(Q)
        params["Q"] = [_pair_key(p) for p in pairs]
        via_enc = enc(p for p in pairs if p.arity == m)
        via_sloc = sloc_pair_masks(pair_masks(pairs, m, k), Carrier(k).num_tuples(m), m, k)
        if set(pair_masks(via_enc, m, k)) != via_sloc:
            return "fail", {
                "enc": len(via_enc), "loc": len(via_sloc), "sloc": len(via_sloc),
            }, {}
        return "pass", None, {"size": len(via_enc)}

    return _run("finite-collapse", params, body)


def check_pair_side_characterisation(Q: Iterable[RelationPair], s: int, m: int, k: int) -> Report:
    """Invariant pairs of all polymorphisms of arity <= s equal the s-local
    closure of the generated relation pair clone.  A shortfall of the
    generated side is reported as generation incompleteness; a surplus would
    be a logic error and must never occur.  The {0,s}-arity and, when an
    empty pair is present, single-arity-s polymorphism windows are also
    compared against the brute-force side.

    Both sides are sets of m-ary pairs as (rho, rho') bit masks: the pairs
    `least_pairs` spans on the least map, and the s-local closure
    `sloc_pair_masks` of the arity-m `masks` of the closure that
    `rpclone_generate_stable` returns; its `pairs` are never read.  A
    counterexample names the first differing pair in `PairFamily` order,
    the least (rho, rho'), formatted from its masks."""
    pairs = list(Q)
    params = {"k": k, "s": s, "m": m, "Q": [_pair_key(p) for p in pairs]}

    def body():
        if s < 0:
            raise DomainError("locality parameter must be >= 0")
        pols = [[Operation(k, n, t) for t in polp_tables(pairs, n, k)] for n in range(s + 1)]
        least = least_invp(itertools.chain(*pols), m, k)
        lhs = set(least_pairs(least))
        # window variants checked purely on the brute-force side, by their
        # least second components, which determine invp
        if least_invp(pols[0] + pols[s], m, k) != least:
            return "fail", {"variant": "arities {0,s}"}, {}
        if any(p.rho.mask == 0 for p in pairs):
            if least_invp(pols[s], m, k) != least:
                return "fail", {"variant": "single arity s with empty pair"}, {}
        gen = rpclone_generate_stable(pairs, m, k)
        cap = gen.intermediate_cap
        rhs = sloc_pair_masks(gen.masks(m), s, m, k)
        if rhs == lhs:
            return "pass", None, {"size": len(lhs), "intermediate_cap": cap}
        first = lambda found: _mask_key(m, *min(found))
        extra = rhs - lhs
        if extra:
            return "fail", {"kind": "logic_error", "pair": first(extra)}, \
                {"intermediate_cap": cap}
        missing = lhs - rhs
        return "fail", {
            "kind": "generation_incomplete",
            "pair": first(missing),
            "missing": len(missing),
        }, {"intermediate_cap": cap}

    return _run("pair-side-characterisation", params, body)


def check_semiclone_laws(F: Iterable[Operation], k: int) -> Report:
    """Structural laws of generated composition-closed sets on the computed
    arity window: projections generate exactly the trivial operations, adding
    the identity adds exactly the trivial operations, the trivial part of a
    generated set is all-or-nothing, polymorphism sets are clones exactly for
    identical-pair families, and unary parts compose."""
    params = {"k": k}
    window = (1, 2)

    def body():
        ops = _listed(F, params)
        carrier = Carrier(k)
        projs = {n: [projection(n, i, carrier) for i in range(n)] for n in window}
        triv = {n: frozenset(e.table for e in projs[n]) for n in window}
        if k > 0:
            for e in itertools.chain(*projs.values()):
                for n in window:
                    if semiclone_tables([e], n, k) != triv[n]:
                        return "fail", {"law": "projections generate trivials",
                                        "op": _op_key(e), "n": n}, {}
        parts = {}
        for n in window:
            parts[n] = part = semiclone_tables(ops, n, k)
            # at k > 0 the identity is projs[1][0]
            if k > 0 and semiclone_tables(ops + projs[1], n, k) != part | triv[n]:
                return "fail", {"law": "adding identity adds trivials", "n": n}, {}
            if len(part & triv[n]) not in (0, len(triv[n])):
                return "fail", {"law": "trivial part all-or-nothing", "n": n}, {}
        # unary part closed under composition
        unary = sorted(parts[1])
        for f in unary:
            for g in unary:
                if compose_tables(f, [g], k, 1) not in parts[1]:
                    return "fail", {"law": "unary part composes",
                                    "ops": [_op_key(Operation(k, 1, h)) for h in (f, g)]}, {}
        # each unary pair with its polymorphisms on the window, read by both
        # laws below
        sample = [(p, {n: frozenset(polp_rows([p], n, k)) for n in window})
                  for p in _pair_rows(1, k)]
        # polymorphism sets are clones iff the constraining pairs are identical
        for (m, rho, rho_p), pols in sample:
            if all(triv[n] <= pols[n] for n in window) != (rho == rho_p):
                return "fail", {"law": "polp clone iff identical pairs",
                                "Q": [_mask_key(m, rho, rho_p)]}, {}
        # polymorphisms of bounded-arity pair families are s-locally fixed
        for p, pols in sample:
            for n in window:
                if set(sloc_tables(pols[n], p[0], n, k)) != pols[n]:
                    return "fail", {"law": "polp s-locally closed",
                                    "Q": [_mask_key(*p)], "n": n}, {}
        return "pass", None, {}

    return _run("semiclone-laws", params, body)


def check_projection_decidability(F: Iterable[Operation], k: int) -> Report:
    """The fixpoint decision for whether the generated clone minus
    projections stays composition-closed, cross-validated by a direct closure
    test on the computed arity window."""
    params = {"k": k}

    def body():
        ops = _listed(F, params)
        carrier = Carrier(k)
        verdict = decide_projections(ops, k)
        window = (1, 2)
        triv = {n: {projection_table(n, i, carrier) for i in range(n)} for n in window}
        parts = {n: clone_tables(ops, n, k) - triv[n] for n in window}
        closed = all(compose_tables(f, gs, k, m) in parts[m]
                     for n in window for f in parts[n] for m in window
                     for gs in itertools.product([*parts[m], *triv[m]], repeat=n))
        if verdict != closed:
            return "fail", {"fixpoint": verdict, "direct_window_test": closed}, {}
        return "pass", None, {"is_semiclone_without_projections": verdict}

    return _run("projection-decidability", params, body)


def check_transformation_semigroups(k: int = 2) -> Report:
    """On a carrier of at most two elements every composition-closed set of
    unary maps is recovered as the unary polymorphisms of its invariant
    pairs up to arity 2; proper ones (without the identity) exhibit a
    strictly relaxing invariant pair.  At k = 3 that window recovers
    sloc_ops(H, 2, 1, 3), a proper superset of H for 526 of the 1,299
    subsemigroups of T_3, so the law fails there; the check is refused at
    k = 3 (2^27 subsets)."""
    params = {"k": k}

    def body():
        carrier = Carrier(k)
        core.check_cap("semigroup subset enumeration", 1, 2, k ** k)
        unary = list(all_operations(carrier, 1))
        ident = projection_table(1, 0, carrier)
        for bits in range(1 << len(unary)):
            H = [unary[i] for i in range(len(unary)) if bits >> i & 1]
            tables = frozenset(f.table for f in H)
            if semigroup_tables(H, k) != tables:
                continue
            q = [(m, *pair) for m in range(3) for pair in invp_pairs(H, m, k)]
            recovered = polp_rows(q, 1, k)
            if set(recovered) != tables:
                return "fail", {
                    "H": [_op_key(f) for f in H],
                    "recovered": [_op_key(Operation(k, 1, t)) for t in recovered],
                }, {}
            if ident not in tables and all(rho == rho_p for _, rho, rho_p in q):
                return "fail", {
                    "H": [_op_key(f) for f in H],
                    "reason": "proper semigroup without strict invariant pair",
                }, {}
        return "pass", None, {}

    return _run("transformation-semigroups", params, body)


def check_directed_unions(Q: Iterable[RelationPair], s: int, m: int, k: int,
                          seed: int = 0, samples: int = 50) -> Report:
    """Unions of s-directed subfamilies of an s-local closure stay inside it;
    the sampled members are built as pairs for `is_s_directed`."""
    pairs = list(Q)
    params = {"k": k, "s": s, "m": m, "seed": seed, "samples": samples,
              "Q": [_pair_key(p) for p in pairs]}

    def body():
        closure = sloc_pair_masks(pair_masks(pairs, m, k), s, m, k)
        members = [RelationPair(k, m, Relation(k, m, rho), Relation(k, m, rho_p))
                   for rho, rho_p in sorted(closure)]
        if not members:
            return "pass", None, {"closure_size": 0, "checked": 0}
        rng = random.Random(seed)
        checked = 0
        for _ in range(samples):
            size = rng.randint(1, min(4, len(members)))
            T = [rng.choice(members) for _ in range(size)]
            if not is_s_directed(T, s):
                continue
            u = union_family(T)
            checked += 1
            if (u.rho.mask, u.rho_prime.mask) not in closure:
                return "fail", {
                    "T": [_pair_key(p) for p in T],
                    "union": _pair_key(u),
                }, {}
        return "pass", None, {"closure_size": len(members), "checked": checked}

    return _run("directed-unions", params, body)


def _sloc_rels(qm: list[int], s: int, m: int, k: int) -> list[int]:
    """Classical s-local closure for plain m-ary relations given as masks:
    the masks sigma, ascending, each of whose small subsets is covered by a
    member relation lying inside sigma."""
    out = []
    for sigma in range(1 << Carrier(k).num_tuples(m)):
        bits = [1 << i for i in bit_indices(sigma)]
        if all(any(B & ~rho == 0 and rho & ~sigma == 0 for rho in qm)
               for B in map(sum, itertools.combinations(bits, min(s, len(bits))))):
            out.append(sigma)
    return out


def check_classical(F: Iterable[Operation], Q1: Iterable[Relation], s: int, k: int) -> Report:
    """The identical-pair specialisation: the s-local closure of the
    generated clone equals the polymorphisms of the classical invariants,
    projection-containing sets have only identical invariant pairs, the empty
    relation excludes exactly the nullary operations, small-arity invariants
    are redundant, and the relation-side closure equality holds with the
    generated relational clone."""
    rels = list(Q1)
    params = {"k": k, "s": s, "Q1": [f"rel/{r.arity}:{r.mask:x}" for r in rels]}

    def body():
        ops = _listed(F, params)
        carrier = Carrier(k)
        for n in (1, 2):
            lhs = set(sloc_tables(clone_tables(ops, n, k), s, n, k))
            if n == 1:  # once, after the sloc_tables that large k refuses first
                invs = [[(m, rho, rho) for rho in least_invp(ops, m, k)] for m in range(s + 1)]
            rhs_upto = set(polp_rows(itertools.chain(*invs), n, k))
            rhs_single = set(polp_rows(invs[s], n, k))
            if not (lhs == rhs_upto == rhs_single):
                return "fail", {"equality": "sloc clone vs pol inv", "n": n,
                                "sizes": [len(lhs), len(rhs_upto), len(rhs_single)]}, {}
            # invariants of arity < 1 are redundant
            if set(polp_rows(itertools.chain(*invs[1:]), n, k)) != rhs_upto:
                return "fail", {"equality": "small-arity invariants redundant", "n": n}, {}
        if k > 0:
            with_proj = ops + [projection(1, 0, carrier)]
            for m in range(3):
                if any(rho != rho_p for rho, rho_p in invp_pairs(with_proj, m, k)):
                    return "fail", {"law": "projection forces identical pairs", "m": m}, {}
        # the empty unary relation, as the row (1, 0, 0)
        for n in range(3):
            got = set(polp_rows([(1, 0, 0)], n, k))
            if got != (set(itertools.product(range(k), repeat=k ** n)) if n else set()):
                return "fail", {"law": "empty relation excludes nullaries", "n": n}, {}
        # relation-side closure equality, via identical-pair generation
        if rels and s > 0:
            m = max(r.arity for r in rels)
            identical = [RelationPair.identical(r) for r in rels]
            gen = rpclone_generate_stable(identical, m, k)
            relclone_m = [rho for rho, rho_p in gen.masks(m) if rho == rho_p]
            rhs_rels = _sloc_rels(relclone_m, s, m, k)
            pols = [[Operation(k, n2, t) for t in polp_tables(identical, n2, k)]
                    for n2 in range(s + 1)]
            lhs_rels = list(least_invp(itertools.chain(*pols), m, k))
            if list(least_invp(pols[0] + pols[s], m, k)) != lhs_rels:
                return "fail", {"equality": "inv pol {0,s} window"}, {}
            # bridge between the pair-level and relation-level local closures
            pair_side = sloc_pair_masks(pair_masks(identical, m, k), s, m, k)
            from_rels = {(sig, sig)
                         for sig in _sloc_rels([r.mask for r in rels if r.arity == m], s, m, k)}
            if pair_side != from_rels:
                return "fail", {"equality": "pair vs relation local closure"}, {}
            if rhs_rels != lhs_rels:
                if not set(rhs_rels) <= set(lhs_rels):
                    return "fail", {"kind": "logic_error",
                                    "equality": "sLOC relclone vs inv pol"}, {}
                return "fail", {"kind": "generation_incomplete",
                                "equality": "sLOC relclone vs inv pol"}, \
                    {"intermediate_cap": gen.intermediate_cap}
        return "pass", None, {}

    return _run("classical-pol-inv", params, body)


class _SuiteInputs:
    """The suite's parameters and its fixtures on A = {0,...,k-1}, each the
    k = 2 fixture restricted to A: `and_op` is min on A, `const0` the unary
    constant 0, `leq` the relation {00, 01, 11} ∩ A² and `leq_pair` its
    identical pair, `strict01` the pair ({0, 1} ∩ A, {1} ∩ A), and `spread`
    the binary pairs of masks (9, 1), (15, 10) and (15, 4) at k = 2, that
    is ({00, 11}, {00}), ({0, 1}², {01, 11}) and ({0, 1}², {10}), each ∩ A²,
    whose 2-local closure has 2-directed subfamilies and others.  The
    least-pair check seeds its fixpoint with the identity tuple (0,...,k-1)."""

    def __init__(self, k: int, seed: int):
        carrier = Carrier(k)
        self.k, self.seed = k, seed
        self._and_op: Operation | None = None
        self.const0 = Operation(k, 1, (0,) * k)
        inside = lambda ts: [t for t in ts if max(t) < k]
        self.leq = Relation.from_tuples(carrier, 2, inside([(0, 0), (0, 1), (1, 1)]))
        self.leq_pair = RelationPair.identical(self.leq)
        self.strict01 = RelationPair.of(Relation.from_tuples(carrier, 1, inside([(0,), (1,)])),
                                        Relation.from_tuples(carrier, 1, inside([(1,)])))
        binary = lambda mask: Relation.from_tuples(carrier, 2,
                                                   inside(Relation(2, 2, mask).tuples()))
        self.spread = [RelationPair.of(binary(rho), binary(rho_p))
                       for rho, rho_p in ((9, 1), (15, 10), (15, 4))]

    def and_op(self) -> Iterator[Operation]:
        """The family [and_op]: each listing charges its k^2 table entries
        first, and the first one that passes builds the table."""
        core.check_cap("suite fixture table", 1, self.k, 2)
        if self._and_op is None:
            self._and_op = Operation(self.k, 2, tuple(map(min, Carrier(self.k).tuples(2))))
        yield self._and_op

    def unary_pairs(self) -> Iterator[RelationPair]:
        """All 3^k unary pairs, listed only once enc's charge for their
        relaxations, the sum over rho of 4^|rho|, 5^k, is taken."""
        core.check_cap("enc relaxation enumeration", 1, 5, self.k)
        yield from all_pairs(Carrier(self.k), 1)


# The check suite in order: 'all' runs every entry, a name its first entry.
CHECKS: list[tuple[str, Callable[[_SuiteInputs], Report]]] = [
    ("galois", lambda x: check_galois_axioms(x.k)),
    ("op-side", lambda x: check_op_side_characterisation(x.and_op(), 2, 1, x.k)),
    ("least-pair",
     lambda x: check_least_invariant_pair(x.and_op(), [tuple(range(x.k))], x.k)),
    ("finite-collapse",
     lambda x: check_finite_collapse(x.unary_pairs(), 1, x.k)),
    ("pair-side", lambda x: check_pair_side_characterisation([x.leq_pair], 1, 1, x.k)),
    ("pair-side", lambda x: check_pair_side_characterisation([x.strict01], 1, 1, x.k)),
    ("semiclone-laws", lambda x: check_semiclone_laws(x.and_op(), x.k)),
    ("decide-proj", lambda x: check_projection_decidability(x.and_op(), x.k)),
    ("decide-proj", lambda x: check_projection_decidability([x.const0], x.k)),
    ("decide-proj", lambda x: check_projection_decidability([], x.k)),
    ("semigroups", lambda x: check_transformation_semigroups(x.k)),
    ("directed-unions",
     lambda x: check_directed_unions(x.spread, 2, 2, x.k, x.seed, 50)),
    ("classical", lambda x: check_classical(x.and_op(), [x.leq], 2, x.k)),
]


def run_checks(name: str, k: int = 2, seed: int = 0) -> list[Report]:
    """Run every entry of CHECKS for 'all', else the first entry called
    `name`; raise KeyError for a name CHECKS does not have."""
    inputs = _SuiteInputs(k, seed)
    if name == "all":
        return [run(inputs) for _, run in CHECKS]
    for entry, run in CHECKS:
        if entry == name:
            return [run(inputs)]
    raise KeyError(name)
