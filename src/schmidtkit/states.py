"""Pure bipartite states, Schmidt decompositions, and the isotropic family."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    BipartiteIndex,
    InvariantViolation,
    as_matrix,
    hermitize,
    permute_subsystems,
)

NORM_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
RANK_TOL = 1e-9


@dataclass(frozen=True)
class PureBipartiteState:
    """Unit vector on H_{d_a} (x) H_{d_b}, flat index i*d_b + j."""

    amplitudes: np.ndarray
    idx: BipartiteIndex

    def __post_init__(self):
        amp = np.ascontiguousarray(np.asarray(self.amplitudes, dtype=np.complex128))
        if amp.ndim != 1 or amp.size != self.idx.dim:
            raise InvariantViolation(
                f"amplitude vector has length {amp.size}, expected {self.idx.dim}"
            )
        nrm = float(np.linalg.norm(amp))
        if not math.isfinite(nrm):
            raise InvariantViolation("amplitude vector has a NaN or infinite entry")
        if abs(nrm - 1.0) > NORM_ATOL:
            raise InvariantViolation(
                f"state norm deviates from 1 by {abs(nrm - 1.0):.3e} > {NORM_ATOL:.1e}"
            )
        object.__setattr__(self, "amplitudes", amp)

    def amplitude_matrix(self) -> np.ndarray:
        """The d_a x d_b coefficient matrix (row-major reshape)."""
        return self.amplitudes.reshape(self.idx.d_a, self.idx.d_b)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.idx)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on a bipartite space."""

    matrix: np.ndarray
    idx: BipartiteIndex

    def __post_init__(self):
        m = as_matrix(self.matrix)
        d = self.idx.dim
        if m.shape != (d, d):
            raise InvariantViolation(
                f"matrix shape {m.shape} does not match bipartite dims "
                f"({self.idx.d_a}, {self.idx.d_b})"
            )
        m = hermitize(m)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise InvariantViolation(
                f"trace deviates from 1 by {abs(tr - 1.0):.3e} > {TRACE_ATOL:.1e}"
            )
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -PSD_ATOL:
            raise InvariantViolation(
                f"matrix is not positive semidefinite: min eigenvalue {lo:.3e} < -{PSD_ATOL:.1e}"
            )
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Coefficients (descending, summing to 1) and orthonormal local bases.

    ``left`` and ``right`` hold the basis vectors as columns; the state is
    sum_i sqrt(coefficients[i]) left[:, i] (x) right[:, i].
    """

    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.coefficients.size)


def schmidt_decompose(psi: PureBipartiteState, rank_tol: float = RANK_TOL) -> SchmidtDecomposition:
    """Schmidt decomposition via SVD of the coefficient matrix.

    Coefficients below rank_tol (relative to the largest singular value) are
    dropped, so the decomposition carries exactly schmidt_rank(psi) terms.
    """
    x = psi.amplitude_matrix()
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    keep = s > rank_tol * s[0]
    return SchmidtDecomposition(
        coefficients=s[keep] ** 2,
        left=np.ascontiguousarray(u[:, keep]),
        right=np.ascontiguousarray(vh[keep, :].T),
    )


def schmidt_rank(psi: PureBipartiteState, rank_tol: float = RANK_TOL) -> int:
    """Number of singular values above rank_tol * (largest singular value)."""
    s = np.linalg.svd(psi.amplitude_matrix(), compute_uv=False)
    return int(np.count_nonzero(s > rank_tol * s[0]))


def max_entangled(n: int) -> PureBipartiteState:
    """(1/sqrt(N)) sum_i |ii> on H_N (x) H_N."""
    if n < 1:
        raise InvariantViolation(f"dimension must be positive, got {n}")
    return psi_k(n, n)


def psi_k(n: int, k: int) -> PureBipartiteState:
    """Maximally entangled Schmidt-rank-k state (1/sqrt(k)) sum_{i<k} |ii> in H_N (x) H_N."""
    if not 1 <= k <= n:
        raise InvariantViolation(f"need 1 <= k <= N, got k={k}, N={n}")
    amp = np.zeros(n * n, dtype=np.complex128)
    for i in range(k):
        amp[i * n + i] = 1.0 / np.sqrt(k)
    return PureBipartiteState(amp, BipartiteIndex(n, n))


def max_entangled_projector(n: int) -> np.ndarray:
    """Rank-1 projector onto the maximally entangled state, as a plain matrix."""
    v = max_entangled(n).amplitudes
    return np.outer(v, v.conj())


def isotropic(n: int, f: float) -> DensityMatrix:
    """Isotropic state F P+ + (1-F)/(N^2-1) (1 - P+) with fidelity F to P+."""
    if n < 2:
        raise InvariantViolation(f"isotropic states need N >= 2, got N={n}")
    if not 0.0 <= f <= 1.0:
        raise InvariantViolation(f"fidelity must lie in [0, 1], got {f}")
    p = max_entangled_projector(n)
    m = f * p + (1.0 - f) / (n * n - 1) * (np.eye(n * n) - p)
    return DensityMatrix(m, BipartiteIndex(n, n))


def fully_entangled_fraction_pure(psi: PureBipartiteState) -> float:
    """Largest overlap with a maximally entangled state: (1/N) (sum_i sqrt(lambda_i))^2."""
    if psi.idx.d_a != psi.idx.d_b:
        raise InvariantViolation(
            f"fully entangled fraction needs d_a == d_b, got ({psi.idx.d_a}, {psi.idx.d_b})"
        )
    s = np.linalg.svd(psi.amplitude_matrix(), compute_uv=False)
    return float(np.sum(s) ** 2 / psi.idx.d_a)


def tensor_copies(rho: DensityMatrix, m: int) -> DensityMatrix:
    """m-fold tensor power, reordered so all A factors precede all B factors.

    The result is bipartite with dims (d_a^m, d_b^m); copy i occupies A slot i
    and B slot i.
    """
    if m < 1:
        raise InvariantViolation(f"copy count must be positive, got {m}")
    out = rho.matrix
    for _ in range(m - 1):
        out = np.kron(out, rho.matrix)
    dims = [rho.idx.d_a, rho.idx.d_b] * m
    perm = [2 * i for i in range(m)] + [2 * i + 1 for i in range(m)]
    out = permute_subsystems(out, dims, perm)
    return DensityMatrix(out, BipartiteIndex(rho.idx.d_a**m, rho.idx.d_b**m))
