"""Exact computations with degenerations of linear series on a nodal curve
made of two rational components glued at one point.

The library works entirely over the rationals with exact arithmetic. It
provides canonical subspaces and their Pluecker coordinates, the
one-parameter torus action on a split Grassmannian with structural orbit
limits and degrees, the subdivided twist ladder with its section-space
model, level-delta limit linear series with exactness and minimal
reduction, the chain construction that realizes an exact minimal series as
a torus-invariant chain of orbit closures, and an independent brute-force
oracle for every structural formula.
"""

from .linalg import (
    Matrix,
    Rational,
    Subspace,
    format_rational,
    parse_rational,
    pluecker,
    rref,
)
from .torus import (
    BlockProfile,
    Direction,
    IntersectionHypothesisError,
    TorusSplit,
    act,
    block_profile,
    is_fixed,
    limit,
    meeting_is_transverse,
    orbit_degree,
    orbit_intersection,
)
from .delta import DeltaSet, NumericalData, build_delta, consecutive_pairs, support_subset
from .curve import (
    CurveModel,
    is_generalized_linear_series,
    section_shape,
    section_space,
    twisted_space_at,
)
from .series import (
    LimitLinearSeries,
    LinkReport,
    check_compatible,
    check_exact,
    membership_failures,
    numerical_data,
    project_level_one,
    reduce_minimal,
    torus_equivalence_witnesses,
    torus_equivalent,
)
from .chain import (
    ChainBuildError,
    ChainError,
    ContinuousChain,
    build_chain,
    emit_dot,
    validate_chain,
)
from .oracle import (
    compare_chain,
    degree_via_pluecker,
    limit_via_pluecker,
    sample_orbit_check,
    subspace_from_minors,
    weight_profile_via_pluecker,
)
from .generate import (
    GenerationError,
    corrupt_exactness,
    pad_with_trivial_slots,
    random_exact_lls,
    random_linked_pair,
    random_nonfixed_subspace,
    random_subspace,
)
from .serialize import (
    SchemaError,
    SubspaceTask,
    dumps_instance,
    load_instance,
    loads_instance,
    save_instance,
)

__version__ = "0.1.0"
