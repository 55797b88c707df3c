"""U (x) U* twirling: exact projection, Monte-Carlo average, finite 2-designs,
and the two-copy construction as one twirl orbit."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .linalg import BipartiteIndex, InvariantViolation, permute_subsystems
from .states import (
    DensityMatrix,
    check_unit_rows,
    isotropic,
    max_entangled_vector,
)

MC_CHUNK = 2048
# Bytes of W (and of W rho) per block of twirl_mc.
MC_BLOCK_BYTES = 1 << 20


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
        check_unit_rows(a)
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


def overlap(rho: DensityMatrix, amp: np.ndarray) -> float:
    """<amp|rho|amp> / Tr(rho), clipped to [0, 1]: the overlap of the
    normalized state, since a DensityMatrix holds its trace only to 1e-10."""
    f = float((amp.conj() @ rho.matrix @ amp).real / np.trace(rho.matrix).real)
    return min(max(f, 0.0), 1.0)


def fidelity_with_max_entangled(rho: DensityMatrix) -> float:
    """F = overlap(rho, Psi+) on a square bipartition: the fidelity of
    rho / Tr(rho) with the maximally entangled state."""
    if rho.idx.d_a != rho.idx.d_b:
        raise InvariantViolation(
            f"twirling needs d_a == d_b, got ({rho.idx.d_a}, {rho.idx.d_b})"
        )
    return overlap(rho, max_entangled_vector(rho.idx.d_a))


def sector_weights(rho: DensityMatrix, sectors: np.ndarray) -> tuple[np.ndarray, float]:
    """The weights t_j = Tr(E_j rho) / Tr(rho) of rho in the orthogonal
    projectors E_j of sectors, and the Frobenius distance of rho / Tr(rho)
    from sum_j t_j E_j / Tr E_j, its projection onto their span.

    When the E_j span the operators a twirl fixes, the projection is the
    twirl of rho / Tr(rho) (Vollbrecht & Werner, PRA 64, 062307 (2001)), and
    the distance is zero exactly when rho is invariant.
    """
    unit = rho.matrix / np.trace(rho.matrix).real
    weights = np.einsum("jab,ba->j", sectors, unit).real
    projection = np.einsum("j,jab->ab", weights / np.einsum("jaa->j", sectors).real, sectors)
    return weights, float(np.linalg.norm(unit - projection))


def twirl_exact(rho: DensityMatrix) -> DensityMatrix:
    """Project onto the isotropic family, preserving
    F = fidelity_with_max_entangled(rho), the fidelity of rho / Tr(rho)."""
    return isotropic(rho.idx.d_a, fidelity_with_max_entangled(rho))


def twirl_mc(rho: DensityMatrix, samples: int, seed: int = 0) -> DensityMatrix:
    """Monte-Carlo twirl: average of W rho W^dagger over W = U (x) U*, U Haar.

    Samples are drawn in chunks of MC_CHUNK, chunk c from
    SeedSequence((seed, c)), so the samples are fixed by the seed alone.
    Every chunk is drawn into one buffer and summed before the next is
    drawn, in blocks of at most MC_BLOCK_BYTES of W each; blocks restart at
    each chunk boundary. W and X (W rho, in W's layout) take one buffer
    each, so memory does not grow with the number of samples. A block's
    unitaries come from kernels.haar_from_ginibre on that block alone,
    samples last, and its W is built in the layout (ab, cd, s) = W_s[ab, cd]
    by one elementwise product. Its share of the sum is then two flat
    matrix products: X = rho^T W for each row ab, then X (as D x Ds) times
    W* (as D x Ds) transposed. W is conjugated in place between the two, so
    no second copy of it is made.
    """
    if samples < 1:
        raise InvariantViolation(f"sample count must be positive, got {samples}")
    n = rho.idx.d_a
    if n != rho.idx.d_b:
        raise InvariantViolation(
            f"twirling needs d_a == d_b, got ({rho.idx.d_a}, {rho.idx.d_b})"
        )
    if n < 2:
        raise InvariantViolation(f"isotropic states need N >= 2, got N={n}")
    d = n * n
    gin = np.empty((min(MC_CHUNK, samples), n, n), dtype=np.complex128)
    normal = np.empty(gin.shape)
    block = max(1, min(len(gin), MC_BLOCK_BYTES // (d * d * 16)))
    w_buf = np.empty(d * d * block, dtype=np.complex128)
    x_buf = np.empty_like(w_buf)
    acc = np.zeros((d, d), dtype=np.complex128)
    for c, start in enumerate(range(0, samples, MC_CHUNK)):
        count = min(MC_CHUNK, samples - start)
        rng = np.random.default_rng(np.random.SeedSequence((seed, c)))
        g, z = gin[:count], normal[:count]
        # The same values as (a + 1j * b) / sqrt(2) with a, b from
        # rng.normal, bit for bit, without chunk-sized temporaries.
        g.real = rng.standard_normal(out=z)
        g.imag = rng.standard_normal(out=z)
        g /= np.sqrt(2)
        for s0 in range(0, count, block):
            # (a, c, s) = U_s[a, c], contiguous.
            u = kernels.haar_from_ginibre(g[s0:s0 + block]).transpose(1, 2, 0)
            b = u.shape[-1]
            w = w_buf[:d * d * b].reshape(d, d, b)
            np.multiply(u[:, None, :, None], u.conj()[None, :, None, :],
                        out=w.reshape(n, n, n, n, b))
            x = np.matmul(rho.matrix.T, w, out=x_buf[:d * d * b].reshape(d, d, b))
            np.conjugate(w, out=w)
            acc += x.reshape(d, d * b) @ w.reshape(d, d * b).T
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


def _kron_stack(a, b):
    """np.kron(a[i], b[i]) for every index i of the leading axes, which
    broadcast; each entry is the same single product that np.kron forms."""
    p, q = a.shape[-2:]
    r, t = b.shape[-2:]
    k = a[..., :, None, :, None] * b[..., None, :, None, :]
    return k.reshape(k.shape[:-4] + (p * r, q * t))


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
        return _kron_stack(unitaries, unitaries.conj()) @ amplitudes
    u, v = unitaries[:, None], unitaries[None, :]
    w = _kron_stack(_kron_stack(u, v), _kron_stack(u.conj(), v.conj()))
    amps = w.reshape(-1, d * d, d * d) @ amplitudes
    swapped = amps.reshape(-1, n, n, n, n).transpose(0, 2, 1, 4, 3).reshape(amps.shape)
    return np.concatenate([amps, swapped])


def one_pair_sectors(psi: np.ndarray) -> np.ndarray:
    """P = |psi><psi| and Q = 1 - P for a maximally entangled unit vector
    psi = (1 (x) W)|Psi+> on one pair H_N (x) H_N: the projectors that span
    the operators commuting with every (1 (x) W)(U (x) U*)(1 (x) W)^dagger,
    those the U (x) U* twirl fixes when psi = Psi+."""
    p = np.outer(psi, psi.conj())
    return np.array([p, np.eye(psi.size) - p])


def _pair_projectors() -> tuple[np.ndarray, ...]:
    """P (x) P, P (x) Q, Q (x) P and Q (x) Q on two qubit pairs
    (the one_pair_sectors of Psi+ on each), in factor order A1 A2 B1 B2."""
    p, q = one_pair_sectors(max_entangled_vector(2))
    return tuple(permute_subsystems(np.kron(a, b), [2, 2, 2, 2], [0, 2, 1, 3])
                 for a, b in ((p, p), (p, q), (q, p), (q, q)))


def twirl_sectors(idx: BipartiteIndex) -> np.ndarray | None:
    """The orthogonal projectors E_j, summing to 1, that span the operators
    fixed by the local twirl of twirl_orbit on qubit pairs; None for
    other dimensions.

    One pair (2, 2): one_pair_sectors of Psi+. Two pairs (4, 4), factor order
    A1 A2 B1 B2: P (x) P, P (x) Q + Q (x) P and Q (x) Q. The twirl of
    |psi><psi| is sum_j <psi|E_j|psi> E_j / Tr E_j.
    """
    if idx.d_a != idx.d_b or idx.d_a not in (2, 4):
        return None
    if idx.d_a == 2:
        return one_pair_sectors(max_entangled_vector(2))
    pp, pq, qp, qq = _pair_projectors()
    return np.array([pp, pq + qp, qq])


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
    """Coefficients (a, b1, b2, c) of a state on two qubit pairs in the basis
    {Q (x) Q, P (x) Q, Q (x) P, P (x) P} of _pair_projectors: its
    sector_weights, each divided by its projector's trace (9, 3, 3, 1)."""
    if rho.idx != BipartiteIndex(4, 4):
        raise InvariantViolation(
            f"expected two qubit pairs, got dims ({rho.idx.d_a}, {rho.idx.d_b})")
    pp, pq, qp, qq = _pair_projectors()
    weights = sector_weights(rho, np.array([qq, pq, qp, pp]))[0]
    return tuple((weights / [9.0, 3.0, 3.0, 1.0]).tolist())
