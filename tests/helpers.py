"""Shared random-object builders for the test suite."""

from __future__ import annotations

import numpy as np

from schmidtkit import BipartiteIndex, DensityMatrix, PureBipartiteState, isotropic


def random_pure(d_a: int, d_b: int, rng: np.random.Generator) -> PureBipartiteState:
    amp = rng.normal(size=d_a * d_b) + 1j * rng.normal(size=d_a * d_b)
    return PureBipartiteState(amp / np.linalg.norm(amp), BipartiteIndex(d_a, d_b))


def random_density(d_a: int, d_b: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    d = d_a * d_b
    r = rank or d
    x = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = x @ x.conj().T
    return DensityMatrix(m / np.trace(m).real, BipartiteIndex(d_a, d_b))


def random_product_vector(d_a: int, d_b: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=d_a) + 1j * rng.normal(size=d_a)
    b = rng.normal(size=d_b) + 1j * rng.normal(size=d_b)
    v = np.kron(a, b)
    return v / np.linalg.norm(v)


def random_separable(d_a: int, d_b: int, terms: int, rng: np.random.Generator) -> DensityMatrix:
    p = rng.dirichlet(np.ones(terms))
    m = np.zeros((d_a * d_b, d_a * d_b), dtype=np.complex128)
    for i in range(terms):
        v = random_product_vector(d_a, d_b, rng)
        m += p[i] * np.outer(v, v.conj())
    return DensityMatrix(m, BipartiteIndex(d_a, d_b))


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (x + x.conj().T) / 2


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def tilted_isotropic(n: int, f: float) -> DensityMatrix:
    """0.9 rho_F + 0.1 |00><00| for the isotropic rho_F on H_N (x) H_N. No
    N^2 - 1 of its eigenvalues are equal, so it is isotropic in no local
    frame, and analyze takes its upper bound from a search."""
    m = 0.9 * isotropic(n, f).matrix
    m[0, 0] += 0.1
    return DensityMatrix(m, BipartiteIndex(n, n))


def rotated(rho: DensityMatrix, rng: np.random.Generator) -> DensityMatrix:
    """(U (x) V) rho (U (x) V)^dagger for Haar-random local unitaries U, V."""
    w = np.kron(random_unitary(rho.idx.d_a, rng), random_unitary(rho.idx.d_b, rng))
    return DensityMatrix(w @ rho.matrix @ w.conj().T, rho.idx)
