"""Exact coincidence Reidemeister/Nielsen numbers for nilmanifold targets."""

from .errors import (
    BoundExceededError,
    HomomorphismError,
    InfiniteResultError,
    NilcoError,
    ParseError,
    SchemaError,
    ShapeError,
    UnsupportedClassError,
)
from .infra import CosetAction, InfraStructure, decide_infra, infra_action
from .intmat import (
    CokernelStructure,
    IntMatrix,
    SmithDecomposition,
    cokernel,
    column_hermite,
    coset_representatives,
    determinant,
    kernel_basis,
    reduce_to_canonical_rep,
    smith_normal_form,
)
from .lattice import (
    LatticeElement,
    LatticeHomomorphism,
    NilpotentLattice,
    apply_hom,
    validate_hom,
)
from .oracle import FiniteGroupTable, cokernel_oracle, twisted_orbits_finite
from .problems import INFINITE
from .reidemeister import (
    NO,
    UNKNOWN,
    YES,
    CoincidenceReport,
    ReidemeisterResult,
    TwistedAction,
    TwistedOrbitEngine,
    coincidence_invariants,
    coincidence_invariants_from_pairs,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
