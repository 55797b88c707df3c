"""Pure bipartite states, Schmidt ranks, and the isotropic family."""

from __future__ import annotations

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


def check_unit_rows(amps: np.ndarray) -> None:
    """Reject an amplitude vector, or a stack of them (one per row), with a
    NaN or infinite entry or a norm more than NORM_ATOL from 1."""
    if not np.isfinite(amps).all():
        raise InvariantViolation("amplitude vector has a NaN or infinite entry")
    dev = float(np.max(np.abs(np.linalg.norm(amps, axis=-1) - 1.0), initial=0.0))
    if dev > NORM_ATOL:
        raise InvariantViolation(
            f"state norm deviates from 1 by {dev:.3e} > {NORM_ATOL:.1e}"
        )


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
        check_unit_rows(amp)
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


def schmidt_ranks(amps: np.ndarray, idx: BipartiteIndex) -> np.ndarray:
    """Schmidt rank of each row of amps: the number of singular values of
    its d_a x d_b coefficient matrix above RANK_TOL * (the largest)."""
    s = np.linalg.svd(np.reshape(amps, (-1, idx.d_a, idx.d_b)), compute_uv=False)
    return np.count_nonzero(s > RANK_TOL * s[:, :1], axis=1)


def schmidt_rank(psi: PureBipartiteState) -> int:
    """Schmidt rank of one state (schmidt_ranks)."""
    return int(schmidt_ranks(psi.amplitudes, psi.idx)[0])


def max_entangled(n: int) -> PureBipartiteState:
    """(1/sqrt(N)) sum_i |ii> on H_N (x) H_N."""
    if n < 1:
        raise InvariantViolation(f"dimension must be positive, got {n}")
    return PureBipartiteState(max_entangled_vector(n), BipartiteIndex(n, n))


def max_entangled_vector(n: int) -> np.ndarray:
    """The amplitudes of max_entangled(n), without a validated state."""
    return np.eye(n, dtype=np.complex128).reshape(n * n) / np.sqrt(n)


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
    v = max_entangled_vector(n)
    return np.outer(v, v.conj())


def isotropic(n: int, f: float) -> DensityMatrix:
    """Isotropic state F P+ + (1-F)/(N^2-1) (1 - P+) with fidelity F to P+."""
    if n < 2:
        raise InvariantViolation(f"isotropic states need N >= 2, got N={n}")
    if 16 * int(n) ** 4 > np.iinfo(np.intp).max:
        raise InvariantViolation(f"an N={n} isotropic state has more bytes than an array can hold")
    if not 0.0 <= f <= 1.0:
        raise InvariantViolation(f"fidelity must lie in [0, 1], got {f}")
    return DensityMatrix(isotropic_matrix(n, f), BipartiteIndex(n, n))


def isotropic_matrix(n: int, f: float) -> np.ndarray:
    """The matrix of isotropic(n, f), without a validated state. Its entries
    are real and exactly symmetric, so validation leaves them unchanged."""
    p = max_entangled_projector(n)
    return f * p + (1.0 - f) / (n * n - 1) * (np.eye(n * n) - p)


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
