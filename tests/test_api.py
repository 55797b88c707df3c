import schmidtkit

# The whole public surface. Adding or removing a name is a decision about the
# library's API: change this list in the same commit and say why.
PUBLIC_NAMES = [
    "BipartiteIndex", "DensityMatrix", "EnsembleUpper", "FidelityBound",
    "InvariantViolation", "IsotropicExact", "MapWitness", "MatrixMap",
    "ProbeResult", "PureBipartiteState", "PureEnsemble", "SnReport",
    "analyze", "apply_id_tensor_map", "apply_map",
    "clifford_ensemble_qubit", "ensemble_search", "fidelity_max",
    "fidelity_with_max_entangled",
    "isotropic", "isotropic_sn", "kpositivity_probe", "lambda_p_class",
    "max_entangled", "min_eigenvalue", "partial_trace", "partial_transpose",
    "permute_subsystems", "psi_k", "reduction_family", "schmidt_rank",
    "schmidt_ranks", "sn_lower_via_map", "tensor_copies", "tensor_copy_bound",
    "tetrahedral_ensemble_qubit", "transpose_map", "twirl_exact", "twirl_mc",
    "twirl_orbit", "twirl_sectors", "two_copy_construction",
    "verify_decomposition", "verify_report",
    # submodules
    "certify", "io", "kernels", "linalg", "maps", "states", "twirl",
]


def test_public_names_are_pinned():
    assert sorted(schmidtkit.__all__) == sorted(PUBLIC_NAMES)
