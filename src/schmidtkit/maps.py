"""Linear Hermiticity-preserving maps on matrix algebras.

A map L : M_N -> M_N is stored by its Choi matrix
C = (1 (x) L)(|Psi+><Psi+|) with |Psi+> on H_N (x) H_N; the action is
recovered as L(X) = N * Tr_A[(X^T (x) 1) C]. L is k-positive
exactly when <phi|C|phi> >= 0 for every phi of Schmidt rank <= k, so the
k-positivity probe is one rank-constrained extremum of C
(kernels.rank_k_oracle, which owns its stop rule); no N^2 x N^2
superoperator (N^8 entries) is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .linalg import BipartiteIndex, InvariantViolation, as_matrix, hermitize, min_eigenvalue
from .states import PureBipartiteState, max_entangled_projector

NEGATIVITY_THRESHOLD = -1e-8


@dataclass(frozen=True)
class MatrixMap:
    """Hermiticity-preserving linear map M_N -> M_N, represented by its
    N^2 x N^2 Choi matrix."""

    n: int
    choi: np.ndarray

    def __post_init__(self):
        c = as_matrix(self.choi)
        if c.shape != (self.n * self.n,) * 2:
            raise InvariantViolation(
                f"Choi matrix shape {c.shape} does not match N={self.n}"
            )
        object.__setattr__(self, "choi", hermitize(c))

    def choi4(self) -> np.ndarray:
        """Choi tensor C[i, a, j, b] with i, j input and a, b output indices."""
        return self.choi.reshape(self.n, self.n, self.n, self.n)


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the numerical k-positivity falsifier.

    ``state`` is a maximally entangled Schmidt-rank-k state and
    ``min_eigenvalue`` the smallest eigenvalue of (1 (x) L) applied to it;
    ``violation`` says whether it lies below ``cut``, the negativity cut
    the probe applied. ``violation`` is one-sided: True comes with a
    certified counterexample; False only means the search found none and
    certifies nothing.
    """

    violation: bool
    min_eigenvalue: float
    state: PureBipartiteState
    cut: float


def reduction_family(n: int, p: float) -> MatrixMap:
    """The family L_p(X) = Tr(X) 1 - p X on M_N; Choi matrix 1/N - p P+."""
    if n < 2:
        raise InvariantViolation(f"reduction family needs N >= 2, got {n}")
    choi = np.eye(n * n, dtype=np.complex128) / n - p * max_entangled_projector(n)
    return MatrixMap(n, choi)


def transpose_map(n: int) -> MatrixMap:
    """Transposition in the computational basis; Choi matrix SWAP/N."""
    if n < 2:
        raise InvariantViolation(f"transpose map needs N >= 2, got {n}")
    swap = np.eye(n * n, dtype=np.complex128).reshape(n, n, n, n).transpose(1, 0, 2, 3)
    return MatrixMap(n, swap.reshape(n * n, n * n) / n)


def apply_map(lam: MatrixMap, x: np.ndarray) -> np.ndarray:
    """Apply the map to a matrix: L(X) = N Tr_A[(X^T (x) 1) C]."""
    x = as_matrix(x)
    if x.shape != (lam.n, lam.n):
        raise InvariantViolation(
            f"input shape {x.shape} does not match map dimension {lam.n}"
        )
    return lam.n * np.einsum("ij,iajb->ab", x, lam.choi4())


def apply_id_tensor_map(lam: MatrixMap, rho: np.ndarray) -> np.ndarray:
    """Apply (1 (x) L) blockwise to a square matrix whose dimension is a
    multiple of N: each N x N block B_ij maps to L(B_ij). The witnesses of
    analyze use the closed forms (certify._map_witness); this general form
    serves the probe and is their reference in the tests.
    """
    mat = as_matrix(rho)
    d_b = lam.n
    d_a, rem = divmod(mat.shape[0], d_b)
    if rem or mat.shape[0] != mat.shape[1]:
        raise InvariantViolation(
            f"matrix of shape {mat.shape} cannot be split into "
            f"{d_b}-dimensional B blocks"
        )
    r4 = mat.reshape(d_a, d_b, d_a, d_b)
    out = lam.n * np.einsum("ikjl,kalb->iajb", r4, lam.choi4())
    return np.ascontiguousarray(out.reshape(mat.shape))


def lambda_p_class(n: int, p: float) -> int:
    """The largest k for which the reduction map L_p on M_N is k-positive.

    L_p is k-positive but (k+1)-negative exactly for 1/(k+1) < p <= 1/k;
    the answer is capped at N, where k-positivity becomes complete
    positivity (so L_p is completely positive exactly when the answer is N).
    """
    if not 0.0 < p <= 1.0:
        raise InvariantViolation(f"need 0 < p <= 1, got {p}")
    # Compared before rounding: an N too large for a double stays exact.
    return n if 1.0 / p >= n else int(np.floor(1.0 / p + 1e-12))


def kpositivity_probe(
    lam: MatrixMap,
    k: int,
    restarts: int = 50,
    seed: int = 0,
) -> ProbeResult:
    """Search for a maximally entangled Schmidt-rank-k state |Psi_k> with
    (1 (x) L)(|Psi_k><Psi_k|) having an eigenvalue below the cut
    NEGATIVITY_THRESHOLD * max(1, max |C_ij|). k-positivity does not depend
    on the scale of C, and the rounding of the recomputed eigenvalue grows
    with it, so the cut is relative above unit scale.

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
    n = lam.n
    if not 1 <= k <= n:
        raise InvariantViolation(f"need 1 <= k <= N, got k={k}, N={n}")
    if restarts < 1:
        raise InvariantViolation(f"need at least one restart, got {restarts}")
    b0 = np.array([_ginibre(n, k, np.random.default_rng(seed + r)) for r in range(restarts)])
    vals, phis = kernels.rank_k_oracle(-lam.choi, n, n, k, b0)
    u_k = np.linalg.svd(phis[np.argmax(vals)].reshape(n, n))[0][:, :k]
    g = np.zeros((n, n), dtype=np.complex128)
    g[:k] = u_k.conj().T
    psi = g.reshape(n * n) / np.sqrt(k)
    val = min_eigenvalue(apply_id_tensor_map(lam, np.outer(psi, psi.conj())))
    cut = NEGATIVITY_THRESHOLD * max(1.0, float(np.max(np.abs(lam.choi))))
    return ProbeResult(
        violation=val < cut,
        min_eigenvalue=val,
        state=PureBipartiteState(psi, BipartiteIndex(n, n)),
        cut=cut,
    )


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))) / np.sqrt(2)
