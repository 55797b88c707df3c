"""Dense complex matrix primitives shared by all modules.

Index convention (normative for the whole package): the composite basis
state ``|i>_A (x) |j>_B`` sits at flat index ``i * d_b + j``, i.e. matrices
on a bipartite space are row-major over (A, B) factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_ATOL = 1e-12


class InvariantViolation(ValueError):
    """An input failed a structural invariant (message says which and by how much)."""


@dataclass(frozen=True)
class BipartiteIndex:
    """Local dimensions (d_a, d_b) of a bipartite space."""

    d_a: int
    d_b: int

    def __post_init__(self):
        if self.d_a < 1 or self.d_b < 1:
            raise InvariantViolation(
                f"bipartite dimensions must be positive, got ({self.d_a}, {self.d_b})"
            )

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b


def as_matrix(m) -> np.ndarray:
    """Coerce to a contiguous complex128 2-d array."""
    a = np.ascontiguousarray(np.asarray(m, dtype=np.complex128))
    if a.ndim != 2:
        raise InvariantViolation(f"expected a matrix, got ndim={a.ndim}")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Max entrywise deviation |M - M^dagger|."""
    m = as_matrix(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return (M + M^dagger)/2; reject inputs that hold a NaN or infinite
    entry or whose Hermiticity defect exceeds HERMITICITY_ATOL times
    max(1, max |m_ij|). Rounding in a computed Hermitian product grows with
    its entries, so the tolerance is relative above unit scale; the scale
    is only computed when the absolute check fails."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise InvariantViolation(f"matrix is not square: shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvariantViolation("matrix has a NaN or infinite entry")
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_ATOL:
        tol = HERMITICITY_ATOL * max(1.0, float(np.max(np.abs(m))))
        if defect > tol:
            raise InvariantViolation(
                f"matrix is not Hermitian: max entrywise defect {defect:.3e} > {tol:.1e}"
            )
    return (m + m.conj().T) / 2.0


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix; non-Hermitian input raises."""
    return float(np.linalg.eigvalsh(hermitize(h))[0])


def _reshape4(rho: np.ndarray, idx: BipartiteIndex) -> np.ndarray:
    rho = as_matrix(rho)
    d = idx.dim
    if rho.shape != (d, d):
        raise InvariantViolation(
            f"matrix shape {rho.shape} does not match bipartite dims "
            f"({idx.d_a}, {idx.d_b})"
        )
    return rho.reshape(idx.d_a, idx.d_b, idx.d_a, idx.d_b)


def partial_trace(rho: np.ndarray, idx: BipartiteIndex, subsystem: str = "B") -> np.ndarray:
    """Trace out one subsystem; returns the reduced matrix on the kept one.

    ``subsystem`` names the factor that is traced out ("A" or "B").
    """
    r4 = _reshape4(rho, idx)
    if subsystem == "B":
        return np.einsum("ikjk->ij", r4)
    if subsystem == "A":
        return np.einsum("ikil->kl", r4)
    raise InvariantViolation(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def partial_transpose(rho: np.ndarray, idx: BipartiteIndex) -> np.ndarray:
    """Transpose the B indices only (partial transposition on the second factor)."""
    r4 = _reshape4(rho, idx)
    return np.ascontiguousarray(r4.transpose(0, 3, 2, 1).reshape(idx.dim, idx.dim))


def permute_subsystems(m: np.ndarray, dims, perm) -> np.ndarray:
    """Conjugate by the permutation reordering tensor factors.

    ``dims`` are the factor dimensions of the input; output factor slot ``t``
    holds input factor ``perm[t]``.
    """
    m = as_matrix(m)
    dims = [int(d) for d in dims]
    perm = [int(p) for p in perm]
    n = len(dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise InvariantViolation(
            f"matrix shape {m.shape} does not match factor dims {dims}"
        )
    if sorted(perm) != list(range(n)):
        raise InvariantViolation(f"perm {perm} is not a permutation of 0..{n - 1}")
    t = m.reshape(dims + dims)
    t = t.transpose(perm + [p + n for p in perm])
    return np.ascontiguousarray(t.reshape(total, total))
