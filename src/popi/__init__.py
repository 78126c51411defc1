"""Orientation-preserving partial injections with restricted range:
enumeration, Green's relations, rank certificates, isomorphism decisions.
"""

from .transform import (
    PartialInjection,
    empty_map,
    identity_on,
    is_cyclic,
    order_isomorphism,
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
    deletion_test,
    is_restricted_corank_one,
    range_rotation_power,
    semigroup_rank,
    shift_decompose,
    top_rank_factorization,
)
from .iso import (
    IsoWitness,
    bruteforce_isomorphism,
    decide_isomorphic,
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
    "contains",
    "decide_isomorphic",
    "deletion_test",
    "empty_map",
    "enumerate_semigroup",
    "green_characterized",
    "green_oracle",
    "h_class_profile",
    "identity_on",
    "is_cyclic",
    "is_regular_characterized",
    "is_regular_oracle",
    "is_restricted_corank_one",
    "order_isomorphism",
    "range_rotation_power",
    "semigroup_rank",
    "shift_decompose",
    "top_rank_factorization",
]
