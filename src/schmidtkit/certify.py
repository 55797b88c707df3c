"""Schmidt-number bound engine.

Lower bounds come from k-positive map witnesses and from the fully entangled
fraction; upper bounds come from explicit rank-constrained pure-state
decompositions. Every certificate can be re-verified independently of the
routine that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .linalg import BipartiteIndex, InvariantViolation, min_eigenvalue
from .maps import (
    NEGATIVITY_THRESHOLD,
    apply_id_tensor_map,
    lambda_p_class,
    reduction_family,
    transpose_map,
)
from .states import (
    DensityMatrix,
    PureBipartiteState,
    isotropic,
    psi_k,
    schmidt_rank,
)
from .twirl import (
    PureEnsemble,
    clifford_ensemble_qubit,
    fidelity_with_max_entangled,
    twirl_exact,
    twirl_pure_ensemble,
)

BOUNDARY_TOL = 1e-12
FIDELITY_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class MapWitness:
    """Negativity of (1 (x) L)(rho) for a k-positive map L: proves SN >= k+1."""

    map_kind: str  # "reduction" (p stored) or "transpose"
    p: float | None
    k: int
    min_eigenvalue: float

    kind = "map_witness"


@dataclass(frozen=True)
class FidelityBound:
    """An achieved overlap with a maximally entangled state; proves SN >= sn_bound."""

    f_hat: float
    state: PureBipartiteState
    sn_bound: int

    kind = "fidelity_bound"


@dataclass(frozen=True)
class EnsembleUpper:
    """Explicit rank-<=k decomposition with its Frobenius residual."""

    ensemble: PureEnsemble
    k: int
    residual: float

    kind = "ensemble_upper"


@dataclass(frozen=True)
class IsotropicExact:
    """Exact classification of an isotropic state: SN = k on (k-1)/N < F <= k/N."""

    n: int
    f: float
    k: int

    kind = "isotropic_exact"


@dataclass(frozen=True)
class SnReport:
    lower_bound: int
    upper_bound: int | None
    certificates: tuple

    def __post_init__(self):
        if self.upper_bound is not None and self.lower_bound > self.upper_bound:
            raise InvariantViolation(
                f"inconsistent bounds: lower {self.lower_bound} > upper {self.upper_bound}"
            )
        object.__setattr__(self, "certificates", tuple(self.certificates))


def sn_lower_via_map(rho: DensityMatrix, k: int) -> MapWitness | None:
    """Witness SN >= k+1 with the extreme k-positive member L_{p=1/k}.

    Returns a certificate iff (1 (x) L_{1/k})(rho) has an eigenvalue below
    the negativity threshold.
    """
    n = rho.idx.d_b
    if not 1 <= k < min(rho.idx.d_a, rho.idx.d_b):
        raise InvariantViolation(f"need 1 <= k < N, got k={k}")
    p = 1.0 / k
    mapped = apply_id_tensor_map(reduction_family(n, p), rho)
    lo = min_eigenvalue(mapped)
    if lo < NEGATIVITY_THRESHOLD:
        return MapWitness(map_kind="reduction", p=p, k=k, min_eigenvalue=lo)
    return None


def peres_witness(rho: DensityMatrix) -> MapWitness | None:
    """Partial-transposition negativity; proves SN >= 2."""
    mapped = apply_id_tensor_map(transpose_map(rho.idx.d_b), rho)
    lo = min_eigenvalue(mapped)
    if lo < NEGATIVITY_THRESHOLD:
        return MapWitness(map_kind="transpose", p=None, k=1, min_eigenvalue=lo)
    return None


def fidelity_max(
    rho: DensityMatrix,
    restarts: int = 20,
    max_iters: int = 500,
    tol: float = 1e-10,
    seed: int = 0,
) -> FidelityBound:
    """Lower-bound the fully entangled fraction by gradient ascent over
    Psi_U = (1 (x) U)|Psi+> on the unitary manifold.

    Multi-start (restart r seeds with seed + r, plus a deterministic identity
    start); the best achieved value is returned. One-sided: f_hat <= f(rho).
    """
    n = rho.idx.d_a
    if n != rho.idx.d_b:
        raise InvariantViolation(
            f"fidelity ascent needs d_a == d_b, got ({rho.idx.d_a}, {rho.idx.d_b})"
        )
    starts = [np.eye(n, dtype=np.complex128)]
    for r in range(max(restarts - 1, 0)):
        rng = np.random.default_rng(seed + r)
        z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2)
        q, rr = np.linalg.qr(z)
        starts.append(q * (np.diag(rr) / np.abs(np.diag(rr))))
    best_val = -np.inf
    best_u = starts[0]
    for u0 in starts:
        val, u = kernels.fidelity_ascent(rho.matrix, n, u0, max_iters, tol)
        if val > best_val:
            best_val, best_u = float(val), u
    amp = (best_u.T / np.sqrt(n)).reshape(n * n)
    state = PureBipartiteState(amp / np.linalg.norm(amp), rho.idx)
    return FidelityBound(
        f_hat=best_val,
        state=state,
        sn_bound=fidelity_to_sn_bound(best_val, n),
    )


def fidelity_to_sn_bound(f_hat: float, n: int) -> int:
    """Smallest k with f_hat <= k/N (+ slack): Schmidt number is at least k."""
    if not -FIDELITY_BOUND_SLACK <= f_hat <= 1.0 + FIDELITY_BOUND_SLACK:
        raise InvariantViolation(f"fidelity {f_hat} outside [0, 1]")
    for k in range(1, n + 1):
        if f_hat <= k / n + FIDELITY_BOUND_SLACK:
            return k
    return n


def isotropic_sn(n: int, f: float) -> int:
    """Exact Schmidt number of the isotropic state: the k with (k-1)/N < F <= k/N.

    Right-inclusive at F = k/N; everything at or below F = 1/N is separable.
    """
    if n < 2:
        raise InvariantViolation(f"isotropic states need N >= 2, got N={n}")
    if not 0.0 <= f <= 1.0:
        raise InvariantViolation(f"fidelity must lie in [0, 1], got {f}")
    k = int(np.ceil(n * f - BOUNDARY_TOL))
    return min(max(k, 1), n)


def isotropic_decomposition(k: int, f: float | None = None) -> EnsembleUpper:
    """Constructive rank-<=k ensemble for the N=2 isotropic state.

    Default target is F = k/2 (the classification boundary), built by
    Clifford-twirling the rank-k maximally entangled state. Any F < k/2 is
    reached by mixing in the twirl ensemble of the product state |01>, whose
    mixture is the F = 0 isotropic state.
    """
    n = 2
    if k not in (1, 2):
        raise InvariantViolation(f"explicit ensembles exist for k in {{1, 2}}, got {k}")
    boundary = k / n
    if f is None:
        f = boundary
    if not 0.0 <= f <= boundary + 1e-12:
        raise InvariantViolation(f"target fidelity {f} outside [0, {boundary}]")
    ens_k = twirl_pure_ensemble(psi_k(n, k), clifford_ensemble_qubit())
    w = min(f / boundary, 1.0)
    if w >= 1.0 - 1e-15:
        ensemble = ens_k
    else:
        zero_state = PureBipartiteState(
            np.array([0, 1, 0, 0], dtype=np.complex128), BipartiteIndex(n, n)
        )
        ens_0 = twirl_pure_ensemble(zero_state, clifford_ensemble_qubit())
        probs = np.concatenate([w * ens_k.probs, (1.0 - w) * ens_0.probs])
        ensemble = PureEnsemble(probs, ens_k.states + ens_0.states)
    target = isotropic(n, f)
    residual = float(np.linalg.norm(ensemble.mixture().matrix - target.matrix))
    return EnsembleUpper(ensemble=ensemble, k=k, residual=residual)


def tensor_copy_bound(f: float, n: int, m: int) -> int:
    """Schmidt-number lower bound for m tensor copies of the isotropic state,
    from f(rho^(x)m) >= F^m."""
    if m < 1:
        raise InvariantViolation(f"copy count must be positive, got {m}")
    if not 0.0 <= f <= 1.0:
        raise InvariantViolation(f"fidelity must lie in [0, 1], got {f}")
    return fidelity_to_sn_bound(f**m, n**m)


def ensemble_search(
    rho: DensityMatrix,
    k: int,
    m_vectors: int | None = None,
    restarts: int = 10,
    max_iters: int = 2000,
    tol: float = 1e-4,
    seed: int = 0,
) -> EnsembleUpper | None:
    """Search for a rank-<=k decomposition by alternating minimization.

    Ansatz vectors start as random sums of k product terms and are
    re-projected onto Schmidt rank <= k each sweep; weights are refit as the
    exact least-squares optimum on the probability simplex. Success requires
    the Frobenius residual to beat tol and the result to pass
    verify_decomposition; a failed search proves nothing.
    """
    d_a, d_b = rho.idx.d_a, rho.idx.d_b
    if not 1 <= k <= min(d_a, d_b):
        raise InvariantViolation(
            f"rank bound must lie in [1, {min(d_a, d_b)}], got {k}"
        )
    if m_vectors is None:
        m_vectors = 2 * d_a * d_b
    if m_vectors < 1:
        raise InvariantViolation(f"need at least one ansatz vector, got {m_vectors}")
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        psis0 = np.array(
            [_random_rank_k(d_a, d_b, k, rng) for _ in range(m_vectors)]
        )
        probs0 = np.full(m_vectors, 1.0 / m_vectors)
        res, probs, psis, _ = kernels.ensemble_alt_min(
            rho.matrix, d_a, d_b, k, psis0, probs0, max_iters, tol
        )
        if best is None or res < best[0]:
            best = (float(res), probs, psis)
        if res < 0.7 * tol:
            break
    res, probs, psis = best
    if res >= tol:
        return None
    keep = probs > 1e-12
    probs = probs[keep] / probs[keep].sum()
    states = tuple(
        PureBipartiteState(p / np.linalg.norm(p), rho.idx) for p in psis[keep]
    )
    ensemble = PureEnsemble(probs, states)
    candidate = EnsembleUpper(ensemble=ensemble, k=k, residual=res)
    if not verify_decomposition(ensemble, rho, k, tol):
        return None
    return candidate


def _random_rank_k(d_a: int, d_b: int, k: int, rng: np.random.Generator) -> np.ndarray:
    psi = np.zeros(d_a * d_b, dtype=np.complex128)
    for _ in range(k):
        a = rng.normal(size=d_a) + 1j * rng.normal(size=d_a)
        b = rng.normal(size=d_b) + 1j * rng.normal(size=d_b)
        psi += np.kron(a, b)
    return psi / np.linalg.norm(psi)


def verify_decomposition(
    ens: PureEnsemble, rho: DensityMatrix, k: int, tol: float
) -> bool:
    """True iff the weights are a distribution, every member has Schmidt rank
    <= k, and the mixture is within tol of rho in Frobenius norm."""
    if ens.idx != rho.idx:
        return False
    if abs(float(ens.probs.sum()) - 1.0) > 1e-10 or np.any(ens.probs < -1e-12):
        return False
    if any(schmidt_rank(st) > k for st in ens.states):
        return False
    dist = float(np.linalg.norm(ens.mixture().matrix - rho.matrix))
    return dist < tol


ISOTROPIC_DETECTION_TOL = 1e-12


def analyze(
    rho: DensityMatrix,
    search_upper: int | None = None,
    restarts: int = 20,
    seed: int = 0,
    search_restarts: int = 10,
    search_max_iters: int = 2000,
    search_tol: float = 1e-4,
    search_m_vectors: int | None = None,
) -> SnReport:
    """Assemble Schmidt-number bounds and their certificates.

    The lower bound combines the partial-transposition baseline, the
    reduction-family witness scan, and the fidelity route; an exactly
    isotropic input is classified exactly. When search_upper=k is given, a
    rank-<=k decomposition search supplies the upper bound.
    """
    certificates = []
    lower = 1
    upper = None

    n = rho.idx.d_a
    square = rho.idx.d_a == rho.idx.d_b and n >= 2
    if square:
        f = fidelity_with_max_entangled(rho)
        if float(np.linalg.norm(rho.matrix - twirl_exact(rho).matrix)) <= ISOTROPIC_DETECTION_TOL:
            k_iso = isotropic_sn(n, f)
            certificates.append(IsotropicExact(n=n, f=f, k=k_iso))
            lower = max(lower, k_iso)
            upper = k_iso

    if rho.idx.d_b >= 2:
        w = peres_witness(rho)
        if w is not None:
            certificates.append(w)
            lower = max(lower, 2)

    if square:
        for k in range(1, n):
            cert = sn_lower_via_map(rho, k)
            if cert is not None:
                certificates.append(cert)
                lower = max(lower, k + 1)
        fb = fidelity_max(rho, restarts=restarts, seed=seed)
        certificates.append(fb)
        lower = max(lower, fb.sn_bound)

    if search_upper is not None:
        found = ensemble_search(
            rho,
            search_upper,
            m_vectors=search_m_vectors,
            restarts=search_restarts,
            max_iters=search_max_iters,
            tol=search_tol,
            seed=seed,
        )
        if found is not None:
            certificates.append(found)
            upper = found.k if upper is None else min(upper, found.k)

    return SnReport(lower_bound=lower, upper_bound=upper, certificates=tuple(certificates))


def verify_certificate(cert, rho: DensityMatrix, atol: float = 1e-10) -> bool:
    """Recompute a certificate's numeric evidence against rho."""
    if cert.kind == "map_witness":
        if cert.map_kind == "reduction":
            lam = reduction_family(rho.idx.d_b, cert.p)
            if lambda_p_class(rho.idx.d_b, cert.p).k_positive_up_to < cert.k:
                return False
        elif cert.map_kind == "transpose":
            lam = transpose_map(rho.idx.d_b)
            if cert.k != 1:
                return False
        else:
            return False
        lo = min_eigenvalue(apply_id_tensor_map(lam, rho))
        return abs(lo - cert.min_eigenvalue) <= atol and lo < NEGATIVITY_THRESHOLD
    if cert.kind == "fidelity_bound":
        amp = cert.state.amplitudes
        achieved = float((amp.conj() @ rho.matrix @ amp).real)
        if abs(achieved - cert.f_hat) > atol:
            return False
        n = cert.state.idx.d_a
        x = cert.state.amplitude_matrix() * np.sqrt(n)
        if float(np.max(np.abs(x.conj().T @ x - np.eye(n)))) > 1e-8:
            return False
        return cert.sn_bound == fidelity_to_sn_bound(cert.f_hat, n)
    if cert.kind == "ensemble_upper":
        tol = max(cert.residual * (1.0 + 1e-6), 1e-11)
        return verify_decomposition(cert.ensemble, rho, cert.k, tol)
    if cert.kind == "isotropic_exact":
        if rho.idx.d_a != rho.idx.d_b or rho.idx.d_a != cert.n:
            return False
        f = fidelity_with_max_entangled(rho)
        if abs(f - cert.f) > atol:
            return False
        if float(np.linalg.norm(rho.matrix - twirl_exact(rho).matrix)) > ISOTROPIC_DETECTION_TOL:
            return False
        return cert.k == isotropic_sn(cert.n, cert.f)
    return False


def verify_report(report: SnReport, rho: DensityMatrix) -> bool:
    """Re-verify every certificate in a report against rho."""
    return all(verify_certificate(c, rho) for c in report.certificates)
