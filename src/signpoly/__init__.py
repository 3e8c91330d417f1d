"""Sign permutation polytopes over Euclidean points and quantum states.

Two independent routes decide polytope membership — partial-sum
comparisons of descending rearrangements, and explicit vertex sets fed
to a feasibility LP — and the quantum layer carries both into the
coordinate chart of density matrices: enumerating signed permutations
of pure states, inscribing the largest cross-polytope in a convex
decomposition, and sizing it against the Hilbert-Schmidt volume of the
full state space.
"""

from .algorithms import (
    CrossPolytopeCertificate,
    DecompositionInput,
    QuantumCrossPolytope,
    certificate_holds,
    hs_volume,
    max_inscribed_cross_polytope,
    robustness_fraction,
    robustness_member,
)
from .errors import (
    DecompositionError,
    DimensionMismatchError,
    EnumerationTooLargeError,
    FileFormatError,
    SignpolyError,
    SolverFailureError,
    StateValidationError,
)
from .geometry import (
    ENUMERATION_CAP,
    CrossPolytopeSpec,
    VertexSet,
    ball_volume,
    count_sign_perm_vertices,
    cross_polytope_volume,
    enumerate_perm_vertices,
    enumerate_sign_perm_vertices,
    hull_member_lp,
    hulls_disjoint,
    insphere_radius,
)
from .majorization import (
    DEFAULT_TOL,
    majorizes,
    rado_member,
    sign_perm_member,
    weakly_majorized,
)
from .quantum import (
    DensityMatrix,
    PureEnumeration,
    PureState,
    enumerate_pure_sign_perms,
    from_coords,
    hs_distance,
    make_canonical,
    pure_from_density,
    purity,
    three_tangle,
    to_coords,
    traceless_hermitian_basis,
    validate_state,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "ENUMERATION_CAP",
    "CrossPolytopeCertificate",
    "CrossPolytopeSpec",
    "DecompositionError",
    "DecompositionInput",
    "DensityMatrix",
    "DimensionMismatchError",
    "EnumerationTooLargeError",
    "FileFormatError",
    "PureEnumeration",
    "PureState",
    "QuantumCrossPolytope",
    "SignpolyError",
    "SolverFailureError",
    "StateValidationError",
    "VertexSet",
    "ball_volume",
    "certificate_holds",
    "count_sign_perm_vertices",
    "cross_polytope_volume",
    "enumerate_perm_vertices",
    "enumerate_pure_sign_perms",
    "enumerate_sign_perm_vertices",
    "from_coords",
    "hs_distance",
    "hs_volume",
    "hull_member_lp",
    "hulls_disjoint",
    "insphere_radius",
    "majorizes",
    "make_canonical",
    "max_inscribed_cross_polytope",
    "pure_from_density",
    "purity",
    "rado_member",
    "robustness_fraction",
    "robustness_member",
    "sign_perm_member",
    "three_tangle",
    "to_coords",
    "traceless_hermitian_basis",
    "validate_state",
    "weakly_majorized",
]
