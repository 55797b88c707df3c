import tracemalloc

import numpy as np
import pytest

from helpers import random_density, random_hermitian, random_product_vector
from schmidtkit import (
    InvariantViolation,
    MatrixMap,
    apply_id_tensor_map,
    apply_map,
    isotropic,
    kpositivity_probe,
    lambda_p_class,
    max_entangled,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    reduction_family,
    transpose_map,
)
from schmidtkit.maps import NEGATIVITY_THRESHOLD
from schmidtkit.states import max_entangled_projector


def unit(i, j, n):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def reduction_action(x, p):
    return np.trace(x) * np.eye(x.shape[0]) - p * x


# ------------------------------------------------------------ Choi recovery


def test_map_from_choi_max_entangled_is_identity_map():
    # C = |Psi+><Psi+| is the Choi matrix of the identity map: recovery
    # yields L(E_ij) = E_ij on every matrix unit.
    n = 3
    lam = MatrixMap(n, max_entangled_projector(n))
    for i in range(n):
        for j in range(n):
            assert np.allclose(apply_map(lam, unit(i, j, n)), unit(i, j, n), atol=1e-12)


def test_map_from_choi_completely_depolarizing():
    n = 3
    lam = MatrixMap(n, np.eye(n * n) / n**2)
    for i in range(n):
        for j in range(n):
            expected = (1.0 if i == j else 0.0) * np.eye(n) / n
            assert np.allclose(apply_map(lam, unit(i, j, n)), expected, atol=1e-12)
    rng = np.random.default_rng(0)
    x = random_hermitian(n, rng)
    assert np.allclose(apply_map(lam, x), np.trace(x) * np.eye(n) / n, atol=1e-12)


def test_choi_round_trip():
    rng = np.random.default_rng(1)
    c = random_hermitian(9, rng)
    lam = MatrixMap(3, c)
    # rebuild the Choi matrix from the recovered action
    n = 3
    rebuilt = np.zeros((9, 9), dtype=complex)
    for i in range(n):
        for j in range(n):
            rebuilt += np.kron(unit(i, j, n), apply_map(lam, unit(i, j, n))) / n
    assert np.allclose(rebuilt, lam.choi, atol=1e-10)


def test_map_from_choi_rejects_non_hermitian():
    with pytest.raises(InvariantViolation):
        MatrixMap(2, np.triu(np.ones((4, 4))))


# --------------------------------------------------------- reduction family


def test_reduction_family_action_on_identity():
    for n, p in ((2, 1.0), (3, 0.4)):
        lam = reduction_family(n, p)
        assert np.allclose(apply_map(lam, np.eye(n)), (n - p) * np.eye(n), atol=1e-12)


def test_reduction_family_choi_spectrum():
    for n, p in ((2, 1.0), (3, 0.6), (4, 0.25)):
        w = np.linalg.eigvalsh(reduction_family(n, p).choi)
        expected = np.sort(np.array([1 / n] * (n * n - 1) + [1 / n - p]))
        assert np.allclose(np.sort(w), expected, atol=1e-12)
    assert np.isclose(np.linalg.eigvalsh(reduction_family(2, 1.0).choi)[0], -0.5, atol=1e-14)


def test_reduction_choi_min_eigenvalue_grid():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        p = float(rng.uniform(0.05, 1.0))
        lo = min_eigenvalue(reduction_family(n, p).choi)
        assert abs(lo - min(1 / n - p, 1 / n)) < 1e-12


def test_witness_pairing_scalar_identity():
    for n in (2, 3, 4):
        for p in (0.2, 0.5, 1.0):
            choi = reduction_family(n, p).choi
            for f in np.linspace(0, 1, 5):
                val = np.trace(choi @ isotropic(n, f).matrix).real
                assert abs(val - (1 / n - p * f)) < 1e-10


# ------------------------------------------------------------ transposition


def test_transpose_map_matches_partial_transpose():
    rng = np.random.default_rng(3)
    rho = random_density(3, 3, rng)
    lam = transpose_map(3)
    assert np.allclose(
        apply_id_tensor_map(lam, rho.matrix),
        partial_transpose(rho.matrix, rho.idx),
        atol=1e-12,
    )


def test_transpose_choi_spectrum():
    for n in (2, 3):
        w = np.sort(np.linalg.eigvalsh(transpose_map(n).choi))
        minus = n * (n - 1) // 2
        expected = np.array([-1 / n] * minus + [1 / n] * (n * n - minus))
        assert np.allclose(w, expected, atol=1e-12)


def test_transpose_is_one_positive_on_products():
    rng = np.random.default_rng(4)
    lam = transpose_map(3)
    for _ in range(100):
        v = random_product_vector(3, 3, rng)
        rho = np.outer(v, v.conj())
        mapped = apply_id_tensor_map(lam, rho)
        assert np.linalg.eigvalsh((mapped + mapped.conj().T) / 2)[0] > -1e-12


# ------------------------------------------------------------- application


def test_apply_map_transpose_action():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(apply_map(transpose_map(3), x), x.T, atol=1e-12)


def test_apply_map_matches_matrix_unit_expansion():
    rng = np.random.default_rng(6)
    n, p = 3, 0.7
    lam = reduction_family(n, p)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    expansion = sum(
        x[i, j] * reduction_action(unit(i, j, n), p) for i in range(n) for j in range(n)
    )
    assert np.allclose(apply_map(lam, x), expansion, atol=1e-11)
    assert np.allclose(apply_map(lam, x), reduction_action(x, p), atol=1e-11)


def test_apply_id_tensor_map_identity_map():
    rng = np.random.default_rng(7)
    rho = random_density(2, 3, rng)
    ident = MatrixMap(3, max_entangled_projector(3))
    assert np.allclose(apply_id_tensor_map(ident, rho.matrix), rho.matrix, atol=1e-12)


def test_apply_id_tensor_map_reduction_closed_form():
    for n, f, p in ((2, 0.8, 1.0), (3, 0.7, 0.5), (4, 0.6, 0.5)):
        rho = isotropic(n, f)
        mapped = apply_id_tensor_map(reduction_family(n, p), rho.matrix)
        assert np.allclose(mapped, np.eye(n * n) / n - p * rho.matrix, atol=1e-12)
        if f > (1 - f) / (n * n - 1):
            assert abs(min_eigenvalue(mapped) - (1 / n - p * f)) < 1e-12


def test_apply_id_tensor_map_equals_marginal_form():
    rng = np.random.default_rng(8)
    for _ in range(5):
        n, p = 3, 0.65
        rho = random_density(n, n, rng)
        mapped = apply_id_tensor_map(reduction_family(n, p), rho.matrix)
        marginal = partial_trace(rho.matrix, rho.idx, "B")
        expected = np.kron(marginal, np.eye(n)) - p * rho.matrix
        assert np.allclose(mapped, expected, atol=1e-10)


def test_apply_id_tensor_map_bell_transpose():
    mapped = apply_id_tensor_map(transpose_map(2), max_entangled(2).density().matrix)
    assert np.isclose(min_eigenvalue(mapped), -0.5, atol=1e-12)


# --------------------------------------------------------- positivity class


def test_lambda_p_class_examples():
    assert lambda_p_class(3, 1.0) == 1
    assert lambda_p_class(3, 0.4) == 2
    assert lambda_p_class(3, 0.2) == 3  # capped at N: completely positive
    assert lambda_p_class(4, 0.5) == 2
    assert lambda_p_class(4, 1 / 3) == 3
    with pytest.raises(InvariantViolation):
        lambda_p_class(3, 0.0)
    with pytest.raises(InvariantViolation):
        lambda_p_class(3, 1.5)


def test_lambda_p_class_tiny_p():
    # 1 / p overflows to inf at the smallest subnormal p.
    assert lambda_p_class(2, 5e-324) == 2
    assert lambda_p_class(10**400, 5e-324) == 10**400
    assert lambda_p_class(10**400, 0.4) == 2


# -------------------------------------------------------------------- probe


def test_probe_finds_reduction_violations():
    lam = reduction_family(3, 0.6)
    res = kpositivity_probe(lam, 2, restarts=6, seed=0)
    assert res.violation
    assert abs(res.min_eigenvalue - (0.5 - 0.6)) < 1e-6
    mapped = apply_id_tensor_map(lam, res.state.density().matrix)
    assert abs(min_eigenvalue(mapped) - res.min_eigenvalue) < 1e-10


def test_probe_respects_positivity_range():
    lam = reduction_family(3, 0.45)
    res = kpositivity_probe(lam, 2, restarts=6, seed=0)
    assert not res.violation
    res = kpositivity_probe(lam, 3, restarts=6, seed=0)
    assert res.violation
    assert abs(res.min_eigenvalue - (1 / 3 - 0.45)) < 1e-6


def test_probe_transpose_map():
    lam = transpose_map(2)
    assert not kpositivity_probe(lam, 1, restarts=6, seed=0).violation
    res = kpositivity_probe(lam, 2, restarts=6, seed=0)
    assert res.violation and abs(res.min_eigenvalue + 0.5) < 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_probe_verdict_does_not_depend_on_the_scale_of_the_map(seed):
    # The transposition is 1-positive and not 2-positive at every scale;
    # at 1e8 the eigenvalue rounding alone exceeds the unit-scale cut.
    for scale in (1.0, 1e4, 1e8, 1e12):
        lam = MatrixMap(3, scale * transpose_map(3).choi)
        one = kpositivity_probe(lam, 1, restarts=2, seed=seed)
        two = kpositivity_probe(lam, 2, restarts=2, seed=seed)
        assert not one.violation and two.violation
        assert two.cut == one.cut == NEGATIVITY_THRESHOLD * max(1.0, np.max(np.abs(lam.choi)))
        assert two.min_eigenvalue < two.cut


def test_probe_agrees_with_class_small_grid():
    for p in (0.45, 0.8):
        for n in (2, 3):
            expected_k = lambda_p_class(n, p)
            lam = reduction_family(n, p)
            for k in range(1, n + 1):
                res = kpositivity_probe(lam, k, restarts=4, seed=1)
                assert res.violation == (k > expected_k)


def test_probe_memory_has_no_superoperator():
    # A dense superoperator of 1 (x) L at N=6 would take 27 MB on its own.
    lam = reduction_family(6, 0.7)
    tracemalloc.start()
    try:
        kpositivity_probe(lam, 2, restarts=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_probe_rejects_bad_rank():
    with pytest.raises(InvariantViolation):
        kpositivity_probe(reduction_family(3, 0.5), 4)
