"""U (x) U* twirling: exact projection, Monte-Carlo average, finite 2-designs,
and the two-copy construction as one twirl orbit."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .linalg import BipartiteIndex, InvariantViolation, permute_subsystems
from .states import (
    NORM_ATOL,
    DensityMatrix,
    isotropic,
    max_entangled_projector,
    max_entangled_vector,
)

MC_CHUNK = 2048


@dataclass(frozen=True)
class PureEnsemble:
    """Probability-weighted pure states, one unit amplitude vector per row
    of amps (flat index i*d_b + j); a constructive decomposition."""

    probs: np.ndarray
    amps: np.ndarray
    idx: BipartiteIndex

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        a = np.ascontiguousarray(np.asarray(self.amps, dtype=np.complex128))
        if a.ndim != 2 or a.shape[1] != self.idx.dim:
            raise InvariantViolation(
                f"amplitude rows have shape {a.shape[1:]}, expected ({self.idx.dim},)"
            )
        if p.ndim != 1 or p.size != a.shape[0]:
            raise InvariantViolation("need one probability per state")
        if not np.isfinite(a).all():
            raise InvariantViolation("amplitude vector has a NaN or infinite entry")
        dev = float(np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0), initial=0.0))
        if dev > NORM_ATOL:
            raise InvariantViolation(
                f"state norm deviates from 1 by {dev:.3e} > {NORM_ATOL:.1e}"
            )
        if np.any(p < -1e-12):
            raise InvariantViolation(f"negative weight {p.min():.3e}")
        if not abs(p.sum() - 1.0) <= 1e-10:  # a NaN weight fails here too
            raise InvariantViolation(
                f"weights sum to 1 off by {abs(p.sum() - 1.0):.3e} > 1e-10"
            )
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "amps", a)

    def mixture(self) -> DensityMatrix:
        m = np.einsum("m,mi,mj->ij", self.probs, self.amps, self.amps.conj())
        return DensityMatrix(m, self.idx)


def fidelity_with_max_entangled(rho: DensityMatrix) -> float:
    """F = <Psi+| rho |Psi+> on a square bipartition."""
    if rho.idx.d_a != rho.idx.d_b:
        raise InvariantViolation(
            f"twirling needs d_a == d_b, got ({rho.idx.d_a}, {rho.idx.d_b})"
        )
    v = max_entangled_vector(rho.idx.d_a)
    return float((v.conj() @ rho.matrix @ v).real)


def twirl_exact(rho: DensityMatrix) -> DensityMatrix:
    """Project onto the isotropic family, preserving F = <Psi+|rho|Psi+>."""
    f = fidelity_with_max_entangled(rho)
    return isotropic(rho.idx.d_a, min(max(f, 0.0), 1.0))


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed N x N unitary (Ginibre + QR with phase-fixed R)."""
    rng = np.random.default_rng(seed)
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def twirl_mc(rho: DensityMatrix, samples: int, seed: int = 0) -> DensityMatrix:
    """Monte-Carlo twirl: average of (U (x) U*) rho (..)^dagger over Haar samples.

    Samples are drawn in fixed-size chunks with chunk seeds derived from
    (seed, chunk index) and accumulated in ascending order, so the result is
    bit-stable for a fixed seed regardless of how chunks are scheduled.
    """
    if samples < 1:
        raise InvariantViolation(f"sample count must be positive, got {samples}")
    n = rho.idx.d_a
    if n != rho.idx.d_b:
        raise InvariantViolation(
            f"twirling needs d_a == d_b, got ({rho.idx.d_a}, {rho.idx.d_b})"
        )
    acc = np.zeros_like(rho.matrix)
    done = 0
    chunk_index = 0
    while done < samples:
        count = min(MC_CHUNK, samples - done)
        rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))
        gin = (
            rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
        ) / np.sqrt(2)
        acc += kernels.mc_twirl_sum(rho.matrix, gin)
        done += count
        chunk_index += 1
    return DensityMatrix(acc / samples, rho.idx)


def _canonical_phase(u: np.ndarray) -> np.ndarray:
    flat = u.reshape(-1)
    i = int(np.argmax(np.abs(flat) > 1e-8))
    return u / (flat[i] / abs(flat[i]))


def _phase_key(u: np.ndarray):
    c = np.round(_canonical_phase(u).reshape(-1), 9) + 0.0
    return tuple(float(x) for z in c for x in (z.real, z.imag))


def _qubit_group(generators) -> np.ndarray:
    """Closure of the generators modulo global phase, in a deterministic
    order, as a read-only (s, 2, 2) array; a unitary 2-design for the groups
    built here."""
    eye = np.eye(2, dtype=np.complex128)
    group = {_phase_key(eye): _canonical_phase(eye)}
    frontier = [eye]
    while frontier:
        new = []
        for u in frontier:
            for g in generators:
                w = g @ u
                key = _phase_key(w)
                if key not in group:
                    group[key] = _canonical_phase(w)
                    new.append(w)
        frontier = new
    elems = np.array([group[key] for key in sorted(group)])
    elems.flags.writeable = False
    return elems


_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=np.complex128)


@functools.lru_cache(maxsize=1)
def clifford_ensemble_qubit() -> np.ndarray:
    """The 24-element single-qubit Clifford group (a unitary 2-design),
    generated by H and S, as a read-only (24, 2, 2) array."""
    return _qubit_group((_H, _S))


@functools.lru_cache(maxsize=1)
def tetrahedral_ensemble_qubit() -> np.ndarray:
    """The 12-element subgroup of the Clifford group generated by X and HS,
    as a read-only (12, 2, 2) array: the Paulis and their images under the
    cyclic map X -> Y -> Z. Its frame potential is 2, so it is a unitary
    2-design with half the members."""
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    return _qubit_group((x, _H @ _S))


def twirl_orbit(amplitudes: np.ndarray, idx: BipartiteIndex, unitaries: np.ndarray) -> np.ndarray:
    """The orbit of a state vector under the local twirl of a stack of
    unitaries, shape (s, n, n), one member per row.

    One pair (d_a = d_b = n): the members (U (x) U*) psi. Two pairs
    (d_a = d_b = n^2, factor order A1 A2 B1 B2): the members
    (U (x) V (x) U* (x) V*) psi for U, V in the stack, then the same
    members with the copies swapped (A1 <-> A2, B1 <-> B2). Every member is a local
    unitary image of psi and keeps its Schmidt rank; for a 2-design the
    orbit's equal mixture is the exact twirl of psi, symmetrized over the
    copies for two pairs.
    """
    n, d = unitaries.shape[1], idx.d_a
    if idx.d_b != d or d not in (n, n * n):
        raise InvariantViolation(
            f"state dims ({idx.d_a}, {idx.d_b}) do not match unitary dimension {n}"
        )
    if d == n:
        return np.array([np.kron(u, u.conj()) @ amplitudes for u in unitaries])
    amps = np.array([np.kron(np.kron(u, v), np.kron(u.conj(), v.conj())) @ amplitudes
                     for u in unitaries for v in unitaries])
    swapped = amps.reshape(-1, n, n, n, n).transpose(0, 2, 1, 4, 3).reshape(amps.shape)
    return np.concatenate([amps, swapped])


def _two_pair_factors(idx: BipartiteIndex) -> int:
    n = int(round(np.sqrt(idx.d_a)))
    if idx.d_a != idx.d_b or n * n != idx.d_a:
        raise InvariantViolation(
            f"expected two square copies, got dims ({idx.d_a}, {idx.d_b})"
        )
    return n


def twirl_sectors(idx: BipartiteIndex) -> np.ndarray | None:
    """The orthogonal projectors E_j, summing to 1, that span the operators
    fixed by the local twirl of twirl_orbit on qubit pairs; None for
    other dimensions.

    One pair (2, 2): P and Q = 1 - P, with P = |Phi+><Phi+|. Two pairs
    (4, 4), factor order A1 A2 B1 B2: P (x) P, P (x) Q + Q (x) P and
    Q (x) Q in pairwise order. The twirl of |psi><psi| is
    sum_j <psi|E_j|psi> E_j / Tr E_j.
    """
    if idx.d_a != idx.d_b or idx.d_a not in (2, 4):
        return None
    p = max_entangled_projector(2)
    q = np.eye(4) - p
    if idx.d_a == 2:
        return np.array([p, q])
    pairs = [np.kron(p, p), np.kron(p, q) + np.kron(q, p), np.kron(q, q)]
    return np.array([permute_subsystems(e, [2, 2, 2, 2], [0, 2, 1, 3]) for e in pairs])


def two_copy_construction() -> PureEnsemble:
    """Explicit Schmidt-rank-2 decomposition of two copies of the N=2
    isotropic state at F = 1/sqrt(2).

    Starts from a maximally entangled rank-two state across (A1 A2):(B1 B2)
    and returns its 1152-member equal-weight orbit (twirl_orbit) under the
    Clifford 2-design. The orbit twirls pairs (A1, B1) and (A2, B2)
    independently and holds every member with the copies swapped too, so
    its mixture is the copy-symmetric twirl of the seed.
    """
    s2 = np.sqrt(2.0)
    psi0 = np.array([s2 * np.sqrt(s2 - 1.0), 1.0 - s2], dtype=np.complex128)
    e0 = np.array([1.0, 0.0], dtype=np.complex128)
    e1 = np.array([0.0, 1.0], dtype=np.complex128)

    def kron4(a, b, c, d):
        return np.kron(np.kron(a, b), np.kron(c, d))

    # order A1 A2 B1 B2; bipartite cut between slots 2 and 3
    psi = (kron4(e0, psi0, e0, psi0) + kron4(e1, e0, e1, e0)) / s2
    psi /= np.linalg.norm(psi)

    idx = BipartiteIndex(4, 4)
    amps = twirl_orbit(psi, idx, clifford_ensemble_qubit())
    return PureEnsemble(np.full(len(amps), 1.0 / len(amps)), amps, idx)


def two_copy_coefficients(rho: DensityMatrix) -> tuple[float, float, float, float]:
    """Coefficients (a, b1, b2, c) of a two-pair state in the basis
    {Q (x) Q, P+ (x) Q, Q (x) P+, P+ (x) P+}, Q = 1 - P+, pairwise ordering."""
    n = _two_pair_factors(rho.idx)
    dims = [n, n, n, n]
    pairwise = permute_subsystems(rho.matrix, dims, [0, 2, 1, 3])
    pplus = max_entangled_projector(n)
    q = np.eye(n * n) - pplus
    qdim = n * n - 1
    a = float(np.trace(np.kron(q, q) @ pairwise).real) / qdim**2
    b1 = float(np.trace(np.kron(pplus, q) @ pairwise).real) / qdim
    b2 = float(np.trace(np.kron(q, pplus) @ pairwise).real) / qdim
    c = float(np.trace(np.kron(pplus, pplus) @ pairwise).real)
    return a, b1, b2, c
