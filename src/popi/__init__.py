"""Orientation-preserving partial injections with restricted range:
enumeration, Green's relations, rank certificates, isomorphism decisions.
"""

from .transform import (
    PartialInjection,
    empty_map,
    identity_on,
    is_cyclic,
    order_isomorphism,
    rotation_perm,
)
from .semigroup import (
    ElementSet,
    RangeContext,
    cardinality_formula,
    closure,
    contains,
    enumerate_semigroup,
)
from .green import (
    HClassProfile,
    green_characterized,
    green_oracle,
    h_class_profile,
    is_regular_characterized,
    is_regular_oracle,
)
from .rank import (
    Decomposition,
    RankCertificate,
    canonical_generating_set,
    decompose_corank_one,
    decompose_low_rank,
    decompose_restricted_corank_one,
    deletion_test,
    is_restricted_corank_one,
    range_rotation_power,
    rotation_exponent_between,
    semigroup_rank,
    shift_decompose,
    top_rank_factorization,
)
from .iso import (
    IsoWitness,
    bruteforce_isomorphism,
    conjugation_isomorphism,
    decide_isomorphic,
    dihedral_elements,
    is_dihedral_restriction,
)

__version__ = "0.1.0"

__all__ = [
    "PartialInjection",
    "ElementSet",
    "RangeContext",
    "HClassProfile",
    "Decomposition",
    "RankCertificate",
    "IsoWitness",
    "bruteforce_isomorphism",
    "canonical_generating_set",
    "cardinality_formula",
    "closure",
    "conjugation_isomorphism",
    "contains",
    "decide_isomorphic",
    "decompose_corank_one",
    "decompose_low_rank",
    "decompose_restricted_corank_one",
    "deletion_test",
    "dihedral_elements",
    "empty_map",
    "enumerate_semigroup",
    "green_characterized",
    "green_oracle",
    "h_class_profile",
    "identity_on",
    "is_cyclic",
    "is_dihedral_restriction",
    "is_regular_characterized",
    "is_regular_oracle",
    "is_restricted_corank_one",
    "order_isomorphism",
    "range_rotation_power",
    "rotation_exponent_between",
    "rotation_perm",
    "semigroup_rank",
    "shift_decompose",
    "top_rank_factorization",
]
