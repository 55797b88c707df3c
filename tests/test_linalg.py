import numpy as np
import pytest

from helpers import random_density, random_hermitian, random_pure
from schmidtkit import (
    BipartiteIndex,
    InvariantViolation,
    max_entangled,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    permute_subsystems,
)
from schmidtkit.linalg import hermitize
from schmidtkit.maps import apply_id_tensor_map, reduction_family


def ptrace_oracle(rho, d_a, d_b, traced):
    if traced == "B":
        out = np.zeros((d_a, d_a), dtype=complex)
        for i in range(d_a):
            for j in range(d_a):
                for k in range(d_b):
                    out[i, j] += rho[i * d_b + k, j * d_b + k]
    else:
        out = np.zeros((d_b, d_b), dtype=complex)
        for k in range(d_b):
            for l in range(d_b):
                for i in range(d_a):
                    out[k, l] += rho[i * d_b + k, i * d_b + l]
    return out


def test_partial_trace_max_entangled():
    rho = max_entangled(2).density()
    assert np.allclose(partial_trace(rho.matrix, rho.idx, "B"), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_state():
    rng = np.random.default_rng(2)
    ra = random_density(2, 1, rng).matrix
    rb = random_density(3, 1, rng).matrix
    idx = BipartiteIndex(2, 3)
    assert np.allclose(partial_trace(np.kron(ra, rb), idx, "B"), ra, atol=1e-12)
    assert np.allclose(partial_trace(np.kron(ra, rb), idx, "A"), rb, atol=1e-12)


def test_partial_trace_matches_index_sum():
    rng = np.random.default_rng(3)
    h = random_hermitian(4, rng)
    idx = BipartiteIndex(2, 2)
    for sub in ("A", "B"):
        assert np.allclose(partial_trace(h, idx, sub), ptrace_oracle(h, 2, 2, sub), atol=1e-13)
    assert np.isclose(np.trace(partial_trace(h, idx, "B")), np.trace(h))


def test_partial_transpose_bell_spectrum():
    rho = max_entangled(2).density()
    w = np.linalg.eigvalsh(partial_transpose(rho.matrix, rho.idx))
    assert np.allclose(np.sort(w), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_product_positive_and_involutive():
    rng = np.random.default_rng(4)
    idx = BipartiteIndex(2, 3)
    ra = random_density(2, 1, rng).matrix
    rb = random_density(3, 1, rng).matrix
    pt = partial_transpose(np.kron(ra, rb), idx)
    assert np.linalg.eigvalsh(pt)[0] > -1e-12
    rho = random_density(2, 3, rng).matrix
    assert np.allclose(partial_transpose(partial_transpose(rho, idx), idx), rho, atol=1e-14)


def test_partial_transpose_preserves_b_marginal():
    rng = np.random.default_rng(5)
    idx = BipartiteIndex(3, 2)
    rho = random_density(3, 2, rng).matrix
    assert np.allclose(
        partial_trace(partial_transpose(rho, idx), idx, "B"),
        partial_trace(rho, idx, "B"),
        atol=1e-13,
    )


def test_permute_subsystems_identity_and_swap():
    rng = np.random.default_rng(6)
    rho = random_density(2, 3, rng).matrix
    assert np.allclose(permute_subsystems(rho, [2, 3], [0, 1]), rho)
    a = random_density(2, 1, rng).matrix
    b = random_density(3, 1, rng).matrix
    assert np.allclose(permute_subsystems(np.kron(a, b), [2, 3], [1, 0]), np.kron(b, a), atol=1e-14)


def test_permute_subsystems_four_factors():
    rng = np.random.default_rng(7)
    mats = [random_density(d, 1, rng).matrix for d in (2, 3, 2, 2)]
    full = np.kron(np.kron(mats[0], mats[1]), np.kron(mats[2], mats[3]))
    perm = [0, 2, 1, 3]
    expected = np.kron(np.kron(mats[0], mats[2]), np.kron(mats[1], mats[3]))
    got = permute_subsystems(full, [2, 3, 2, 2], perm)
    assert np.allclose(got, expected, atol=1e-14)
    inverse = [perm.index(t) for t in range(4)]
    back = permute_subsystems(got, [2, 2, 3, 2], inverse)
    assert np.allclose(back, full, atol=1e-14)


def test_min_eigenvalue():
    assert np.isclose(min_eigenvalue(np.eye(3)), 1.0)
    assert np.isclose(min_eigenvalue(np.diag([1.0, -2.0])), -2.0)
    mapped = apply_id_tensor_map(reduction_family(2, 1.0), max_entangled(2).density().matrix)
    assert np.isclose(min_eigenvalue(mapped), -0.5, atol=1e-12)
    with pytest.raises(InvariantViolation):
        min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_rejects_non_hermitian():
    # DensityMatrix, MatrixMap and min_eigenvalue take eigenvalues only after
    # hermitize, which rejects a matrix that is not Hermitian.
    with pytest.raises(InvariantViolation):
        hermitize(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitize_tolerance_is_relative_above_unit_scale():
    # Rounding in a computed Hermitian product grows with its entries.
    with pytest.raises(InvariantViolation, match="not Hermitian"):
        hermitize(1e4 * np.array([[0.0, 1.0], [0.0, 0.0]]))
    h = 1e4 * random_hermitian(6, np.random.default_rng(0))
    h[0, 1] += 5e-9  # a defect within 1e-12 * max |h_ij|, far above 1e-12
    assert np.array_equal(hermitize(h), (h + h.conj().T) / 2)
    with pytest.raises(InvariantViolation, match="not Hermitian"):
        hermitize(h + 1e-6 * np.eye(6, k=1))


def test_random_state_norm_tolerance():
    rng = np.random.default_rng(10)
    psi = random_pure(3, 4, rng)
    assert np.isclose(np.linalg.norm(psi.amplitudes), 1.0, atol=1e-12)
