"""Linear Hermiticity-preserving maps on matrix algebras.

A map L : M_{n_in} -> M_{n_out} is stored by its Choi matrix
C = (1 (x) L)(|Psi+><Psi+|) with |Psi+> on H_{n_in} (x) H_{n_in}; the
action is recovered as L(X) = n_in * Tr_A[(X^T (x) 1) C]. The
k-positivity probe applies 1 (x) L to rank-one projectors straight from the
Choi tensor, at O(N^5) flops per application; no N^2 x N^2 superoperator
(N^8 entries) is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .linalg import BipartiteIndex, InvariantViolation, as_matrix, hermitize
from .states import (
    DensityMatrix,
    PureBipartiteState,
    max_entangled_projector,
)

NEGATIVITY_THRESHOLD = -1e-8
PROBE_MAX_ITERS = 500
PROBE_STEP = 0.1


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


def adjoint_map(lam: MatrixMap) -> MatrixMap:
    """Hilbert-Schmidt adjoint: Tr[A^dag L(B)] = Tr[L^dag(A^dag) B]."""
    c4 = lam.choi4()
    adj = c4.transpose(3, 2, 1, 0) * (lam.n_in / lam.n_out)
    d = lam.n_in * lam.n_out
    return MatrixMap(lam.n_out, lam.n_in, np.ascontiguousarray(adj.reshape(d, d)))


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
    run is not a k-positivity certificate. Restart r uses seed + r; results
    merge in restart order.

    Each application of 1 (x) L (or of its adjoint) to a rank-one projector
    works on the N x N^3 Choi layout: O(N^5) flops, and nothing of size N^8
    is formed or stored.
    """
    if lam.n_in != lam.n_out:
        raise InvariantViolation("probe requires a square map")
    n = lam.n_in
    if not 1 <= k <= n:
        raise InvariantViolation(f"need 1 <= k <= N, got k={k}, N={n}")
    if restarts < 1:
        raise InvariantViolation(f"need at least one restart, got {restarts}")
    c_rows = kernels.choi_rows(n * lam.choi4())
    c_adj_rows = kernels.choi_rows(n * adjoint_map(lam).choi4())
    best_val = np.inf
    best_ab = None
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        a0 = np.linalg.qr(_ginibre(n, k, rng))[0]
        b0 = np.linalg.qr(_ginibre(n, k, rng))[0]
        val, a, b = kernels.probe_descent(
            c_rows, c_adj_rows, n, k, a0, b0, PROBE_MAX_ITERS, PROBE_STEP
        )
        if val < best_val:
            best_val = float(val)
            best_ab = (a, b)
    a, b = best_ab
    psi = ((a @ b.T) / np.sqrt(k)).reshape(n * n)
    psi = psi / np.linalg.norm(psi)
    state = PureBipartiteState(psi, BipartiteIndex(n, n))
    return ProbeResult(
        violation=best_val < NEGATIVITY_THRESHOLD,
        min_eigenvalue=best_val,
        state=state,
    )


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))) / np.sqrt(2)

