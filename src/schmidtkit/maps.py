"""Linear Hermiticity-preserving maps on matrix algebras.

A map L : M_{n_in} -> M_{n_out} is stored by its Choi matrix
C = (1 (x) L)(|Psi+><Psi+|) with |Psi+> on H_{n_in} (x) H_{n_in}; the
action is recovered as L(X) = n_in * Tr_A[(X^T (x) 1) C]. L is k-positive
exactly when <phi|C|phi> >= 0 for every phi of Schmidt rank <= k, so the
k-positivity probe is one rank-constrained extremum of C
(kernels.rank_k_oracle); no N^2 x N^2 superoperator (N^8 entries) is ever
built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .linalg import BipartiteIndex, InvariantViolation, as_matrix, hermitize, min_eigenvalue
from .states import (
    DensityMatrix,
    PureBipartiteState,
    max_entangled_projector,
)

NEGATIVITY_THRESHOLD = -1e-8
ORACLE_ITERS = 500
ORACLE_TOL = 1e-15


@dataclass(frozen=True)
class MatrixMap:
    """Hermiticity-preserving linear map, represented by its Choi matrix."""

    n_in: int
    n_out: int
    choi: np.ndarray

    def __post_init__(self):
        c = as_matrix(self.choi)
        d = self.n_in * self.n_out
        if c.shape != (d, d):
            raise InvariantViolation(
                f"Choi matrix shape {c.shape} does not match dims "
                f"({self.n_in}, {self.n_out})"
            )
        object.__setattr__(self, "choi", hermitize(c))

    def choi4(self) -> np.ndarray:
        """Choi tensor C[i, a, j, b] with i, j input and a, b output indices."""
        return self.choi.reshape(self.n_in, self.n_out, self.n_in, self.n_out)


@dataclass(frozen=True)
class PositivityClass:
    """Largest k for which a map is known k-positive."""

    k_positive_up_to: int
    completely_positive: bool


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the numerical k-positivity falsifier.

    ``state`` is a maximally entangled Schmidt-rank-k state and
    ``min_eigenvalue`` the smallest eigenvalue of (1 (x) L) applied to it.
    ``violation`` is one-sided: True comes with a certified counterexample;
    False only means the search found none and certifies nothing.
    """

    violation: bool
    min_eigenvalue: float
    state: PureBipartiteState


def reduction_family(n: int, p: float) -> MatrixMap:
    """The family L_p(X) = Tr(X) 1 - p X on M_N; Choi matrix 1/N - p P+."""
    if n < 2:
        raise InvariantViolation(f"reduction family needs N >= 2, got {n}")
    choi = np.eye(n * n, dtype=np.complex128) / n - p * max_entangled_projector(n)
    return MatrixMap(n, n, choi)


def transpose_map(n: int) -> MatrixMap:
    """Transposition in the computational basis; Choi matrix SWAP/N."""
    if n < 2:
        raise InvariantViolation(f"transpose map needs N >= 2, got {n}")
    swap = np.zeros((n * n, n * n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            swap[i * n + j, j * n + i] = 1.0
    return MatrixMap(n, n, swap / n)


def apply_map(lam: MatrixMap, x: np.ndarray) -> np.ndarray:
    """Apply the map to a matrix: L(X) = n_in Tr_A[(X^T (x) 1) C]."""
    x = as_matrix(x)
    if x.shape != (lam.n_in, lam.n_in):
        raise InvariantViolation(
            f"input shape {x.shape} does not match map input dim {lam.n_in}"
        )
    return lam.n_in * np.einsum("ij,iajb->ab", x, lam.choi4())


def apply_id_tensor_map(lam: MatrixMap, rho) -> np.ndarray:
    """Apply (1 (x) L) blockwise: each d_b x d_b block B_ij maps to L(B_ij).

    ``rho`` may be a DensityMatrix or a plain square matrix whose dimension
    is a multiple of the map's input dimension.
    """
    if isinstance(rho, DensityMatrix):
        d_a, d_b = rho.idx.d_a, rho.idx.d_b
        mat = rho.matrix
    else:
        mat = as_matrix(rho)
        d_b = lam.n_in
        d_a, rem = divmod(mat.shape[0], d_b)
        if rem or mat.shape[0] != mat.shape[1]:
            raise InvariantViolation(
                f"matrix of shape {mat.shape} cannot be split into "
                f"{d_b}-dimensional B blocks"
            )
    if d_b != lam.n_in:
        raise InvariantViolation(
            f"B dimension {d_b} does not match map input dim {lam.n_in}"
        )
    r4 = mat.reshape(d_a, d_b, d_a, d_b)
    out = lam.n_in * np.einsum("ikjl,kalb->iajb", r4, lam.choi4())
    d_out = d_a * lam.n_out
    return np.ascontiguousarray(out.reshape(d_out, d_out))


def lambda_p_class(n: int, p: float) -> PositivityClass:
    """Exact positivity class of the reduction family.

    L_p is k-positive but (k+1)-negative exactly for 1/(k+1) < p <= 1/k;
    the class is capped at N, where k-positivity becomes complete positivity.
    """
    if not 0.0 < p <= 1.0:
        raise InvariantViolation(f"need 0 < p <= 1, got {p}")
    k = int(np.floor(min(1.0 / p, n) + 1e-12))
    return PositivityClass(k_positive_up_to=k, completely_positive=k >= n)


def kpositivity_probe(
    lam: MatrixMap,
    k: int,
    restarts: int = 50,
    seed: int = 0,
) -> ProbeResult:
    """Search for a maximally entangled Schmidt-rank-k state |Psi_k> with
    (1 (x) L)(|Psi_k><Psi_k|) having an eigenvalue below -1e-8.

    One-sided falsifier: a violation comes with the witnessing state; a clean
    run is not a k-positivity certificate.

    For Psi = vec(G)/sqrt(k) with G = A B^T, A and B N x k isometries,
    (1 (x) L)(|Psi><Psi|) = (N/k) (G (x) 1) C (G (x) 1)^dag. Its smallest
    eigenvalue is (N/k) times the least <phi|C|phi> over unit phi in
    range(conj(B)) (x) H_N, capped at 0 when k < N. Every phi of Schmidt
    rank <= k lies in such a subspace, so the minimum over all such Psi is
    (N/k) times the least <phi|C|phi> over Schmidt rank <= k, capped the
    same way. The probe finds that phi with rank_k_oracle on -C, one start
    per restart in one batch (restart r draws its start with seed + r), and
    takes the best, the first restart on a tie. Then G = I_{N x k} U_k^dag,
    with U_k the top k left singular vectors of phi's coefficient matrix,
    and min_eigenvalue is recomputed from that state.
    """
    if lam.n_in != lam.n_out:
        raise InvariantViolation("probe requires a square map")
    n = lam.n_in
    if not 1 <= k <= n:
        raise InvariantViolation(f"need 1 <= k <= N, got k={k}, N={n}")
    if restarts < 1:
        raise InvariantViolation(f"need at least one restart, got {restarts}")
    b0 = np.array([_ginibre(n, k, np.random.default_rng(seed + r)) for r in range(restarts)])
    vals, phis = kernels.rank_k_oracle(-lam.choi, n, n, k, b0, ORACLE_ITERS, ORACLE_TOL)
    u_k = np.linalg.svd(phis[np.argmax(vals)].reshape(n, n))[0][:, :k]
    g = np.zeros((n, n), dtype=np.complex128)
    g[:k] = u_k.conj().T
    psi = g.reshape(n * n) / np.sqrt(k)
    val = min_eigenvalue(apply_id_tensor_map(lam, np.outer(psi, psi.conj())))
    return ProbeResult(
        violation=val < NEGATIVITY_THRESHOLD,
        min_eigenvalue=val,
        state=PureBipartiteState(psi, BipartiteIndex(n, n)),
    )


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))) / np.sqrt(2)
