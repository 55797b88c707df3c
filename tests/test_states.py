import numpy as np
import pytest

from helpers import random_density
from schmidtkit import (
    BipartiteIndex,
    DensityMatrix,
    InvariantViolation,
    PureBipartiteState,
    fidelity_max,
    isotropic,
    max_entangled,
    partial_trace,
    partial_transpose,
    psi_k,
    schmidt_rank,
    tensor_copies,
)
from schmidtkit.twirl import fidelity_with_max_entangled


def state(amps, d_a=2, d_b=2):
    return PureBipartiteState(np.asarray(amps, dtype=complex), BipartiteIndex(d_a, d_b))


def schmidt_coefficients(psi):
    """Squared singular values of the coefficient matrix, descending."""
    return np.linalg.svd(psi.amplitude_matrix(), compute_uv=False) ** 2


def test_schmidt_rank_cases():
    assert schmidt_rank(state(amps=[1, 0, 0, 0])) == 1
    assert schmidt_rank(max_entangled(4)) == 4


def test_schmidt_rank_two_copy_state():
    s2 = np.sqrt(2)
    psi0 = np.array([s2 * np.sqrt(s2 - 1), 1 - s2], dtype=complex)
    e0, e1 = np.eye(2, dtype=complex)
    # order A1 A2 B1 B2, cut (A1 A2):(B1 B2)
    amp = (
        np.kron(np.kron(e0, psi0), np.kron(e0, psi0))
        + np.kron(np.kron(e1, e0), np.kron(e1, e0))
    ) / s2
    psi = PureBipartiteState(amp / np.linalg.norm(amp), BipartiteIndex(4, 4))
    assert schmidt_rank(psi) == 2
    assert np.allclose(schmidt_coefficients(psi), [0.5, 0.5, 0, 0], atol=1e-12)


def test_schmidt_rank_matches_reduced_rank():
    rng = np.random.default_rng(12)
    for _ in range(200):
        d_a, d_b = rng.integers(1, 6, size=2)
        rank = int(rng.integers(1, min(d_a, d_b) + 1))
        a = np.linalg.qr(rng.normal(size=(d_a, rank)) + 1j * rng.normal(size=(d_a, rank)))[0]
        b = np.linalg.qr(rng.normal(size=(d_b, rank)) + 1j * rng.normal(size=(d_b, rank)))[0]
        w = rng.dirichlet(np.ones(rank))
        amp = sum(np.sqrt(w[i]) * np.kron(a[:, i], b[:, i]) for i in range(rank))
        psi = PureBipartiteState(amp / np.linalg.norm(amp), BipartiteIndex(d_a, d_b))
        red = partial_trace(psi.density().matrix, psi.idx, "B")
        red_rank = int(np.sum(np.linalg.eigvalsh(red) > 1e-9))
        assert schmidt_rank(psi) == red_rank


def test_max_entangled():
    assert np.allclose(max_entangled(1).amplitudes, [1.0])
    assert np.allclose(max_entangled(2).amplitudes, [1, 0, 0, 1] / np.sqrt(2))
    assert schmidt_rank(max_entangled(3)) == 3
    assert np.allclose(schmidt_coefficients(max_entangled(3)), 1 / 3)


def test_psi_k():
    for n in (2, 3, 4):
        assert np.allclose(psi_k(n, n).amplitudes, max_entangled(n).amplitudes)
    assert schmidt_rank(psi_k(4, 2)) == 2
    assert np.allclose(schmidt_coefficients(psi_k(4, 2)), [0.5, 0.5, 0, 0], atol=1e-14)
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            overlap = sum(
                max_entangled(n).amplitudes[i * n + i].conjugate()
                * psi_k(n, k).amplitudes[i * n + i]
                for i in range(n)
            )
            assert np.isclose(overlap, np.sqrt(k / n), atol=1e-14)
    with pytest.raises(InvariantViolation):
        psi_k(3, 4)


def test_isotropic_endpoints():
    n = 3
    assert np.allclose(isotropic(n, 1.0).matrix, max_entangled(n).density().matrix, atol=1e-14)
    assert np.allclose(isotropic(n, 1 / n**2).matrix, np.eye(n * n) / n**2, atol=1e-14)


def test_isotropic_separable_boundary_is_ppt():
    rho = isotropic(2, 0.5)
    pt = partial_transpose(rho.matrix, rho.idx)
    assert np.linalg.eigvalsh(pt)[0] > -1e-12


def test_isotropic_fidelity_and_validity_grid():
    for n in (2, 3, 4):
        for f in np.linspace(0.0, 1.0, 50):
            rho = isotropic(n, f)  # constructor enforces all invariants
            assert np.isclose(fidelity_with_max_entangled(rho), f, atol=1e-12)


def test_isotropic_rejects_bad_input():
    with pytest.raises(InvariantViolation):
        isotropic(2, 1.2)
    with pytest.raises(InvariantViolation):
        isotropic(1, 0.5)


def test_schmidt_sum_bound_random():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        rank = int(rng.integers(1, n + 1))
        a = np.linalg.qr(rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank)))[0]
        b = np.linalg.qr(rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank)))[0]
        w = rng.dirichlet(np.ones(rank))
        amp = sum(np.sqrt(w[i]) * np.kron(a[:, i], b[:, i]) for i in range(rank))
        psi = PureBipartiteState(amp / np.linalg.norm(amp), BipartiteIndex(n, n))
        assert np.sum(np.sqrt(schmidt_coefficients(psi))) ** 2 <= rank + 1e-12
        assert fidelity_max(psi.density()).f_hat <= schmidt_rank(psi) / n + 1e-12


def test_density_matrix_invariant_messages():
    with pytest.raises(InvariantViolation, match="trace"):
        DensityMatrix(np.eye(4), BipartiteIndex(2, 2))
    with pytest.raises(InvariantViolation, match="Hermitian"):
        DensityMatrix(np.triu(np.ones((4, 4))) / 2, BipartiteIndex(2, 2))
    with pytest.raises(InvariantViolation, match="positive semidefinite"):
        DensityMatrix(np.diag([1.5, -0.5, 0, 0]), BipartiteIndex(2, 2))


def test_tensor_copies_grouping():
    rng = np.random.default_rng(14)
    rho = random_density(2, 2, rng)
    two = tensor_copies(rho, 2)
    assert (two.idx.d_a, two.idx.d_b) == (4, 4)
    # independent construction: kron in pair order, then regroup via einsum
    t = np.kron(rho.matrix, rho.matrix).reshape([2] * 8)
    expected = np.einsum("abcdefgh->acbdegfh", t).reshape(16, 16)
    assert np.allclose(two.matrix, expected, atol=1e-14)


def test_tensor_copies_fidelity_multiplicative():
    for f in (0.3, 1 / np.sqrt(2), 0.9):
        two = tensor_copies(isotropic(2, f), 2)
        assert np.isclose(fidelity_with_max_entangled(two), f * f, atol=1e-12)
