"""schmidtkit: Schmidt-number bounds and certificates for bipartite states.

Lower bounds come from k-positive map witnesses (the reduction family and
partial transposition) and from the fully entangled fraction; upper bounds
come from explicit rank-constrained pure-state decompositions found by
twirling constructions or numerical search.
"""

from .certify import (
    EnsembleUpper,
    FidelityBound,
    IsotropicExact,
    MapWitness,
    SnReport,
    analyze,
    ensemble_search,
    fidelity_max,
    isotropic_sn,
    sn_lower_via_map,
    tensor_copy_bound,
    verify_decomposition,
    verify_report,
)
from .linalg import (
    BipartiteIndex,
    InvariantViolation,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    permute_subsystems,
)
from .maps import (
    MatrixMap,
    ProbeResult,
    apply_id_tensor_map,
    apply_map,
    kpositivity_probe,
    lambda_p_class,
    reduction_family,
    transpose_map,
)
from .states import (
    DensityMatrix,
    PureBipartiteState,
    isotropic,
    max_entangled,
    psi_k,
    schmidt_rank,
    schmidt_ranks,
    tensor_copies,
)
from .twirl import (
    PureEnsemble,
    clifford_ensemble_qubit,
    fidelity_with_max_entangled,
    tetrahedral_ensemble_qubit,
    twirl_exact,
    twirl_mc,
    twirl_orbit,
    twirl_sectors,
    two_copy_construction,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
