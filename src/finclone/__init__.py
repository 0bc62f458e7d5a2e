"""Computable Galois theory between finitary operations and relation pairs
on small finite carrier sets."""

from .core import (
    CapExceeded,
    Carrier,
    DomainError,
    OpFamily,
    Operation,
    PairFamily,
    Relation,
    RelationPair,
    capped,
    compose,
    enc,
    pair_leq,
    pair_qleq,
    polymer,
    projection,
    relaxations_of,
)
from .preserve import inv, invp, loc_ops, pol, polp, preserves, sloc_ops
from .generation import (
    GammaResult,
    clone_nary_part,
    decide_projections,
    gamma_fixpoint,
    iterative_op,
    semiclone_nary_part,
    semigroup_generate,
    star,
)
from .relpairs import (
    SuperpositionSpec,
    general_superposition,
    is_s_directed,
    loc_pairs,
    rpclone_generate,
    sloc_pairs,
    union_family,
)
from .harness import Report, run_checks

__all__ = [
    "CapExceeded", "Carrier", "DomainError", "OpFamily", "Operation",
    "PairFamily", "Relation", "RelationPair", "capped", "compose", "enc", "pair_leq",
    "pair_qleq", "polymer", "projection", "relaxations_of", "inv", "invp",
    "loc_ops", "pol", "polp", "preserves", "sloc_ops", "GammaResult",
    "clone_nary_part", "decide_projections", "gamma_fixpoint", "iterative_op",
    "semiclone_nary_part", "semigroup_generate", "star", "SuperpositionSpec",
    "general_superposition", "is_s_directed", "loc_pairs", "rpclone_generate",
    "sloc_pairs", "union_family", "Report", "run_checks",
]
