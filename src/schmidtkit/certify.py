"""Schmidt-number bound engine.

Lower bounds come from k-positive map witnesses and from the fully entangled
fraction, bounded from below in one step by the maximally entangled state
nearest rho's top eigenvector; upper bounds come from explicit
rank-constrained pure-state decompositions; a state that is isotropic in any
local frame is classified exactly. Every certificate re-derives its bound
from the state, a stored psi in the maximally entangled frame nearest it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import io, kernels
from .linalg import BipartiteIndex, InvariantViolation, min_eigenvalue
from .maps import (
    NEGATIVITY_THRESHOLD,
    ORACLE_ITERS,
    ORACLE_TOL,
    apply_id_tensor_map,
    lambda_p_class,
    reduction_family,
    transpose_map,
)
from .states import DensityMatrix, PureBipartiteState, max_entangled_vector, schmidt_ranks
from .twirl import (
    PureEnsemble,
    one_pair_sectors,
    overlap,
    sector_weights,
    tetrahedral_ensemble_qubit,
    twirl_orbit,
    twirl_sectors,
)

BOUNDARY_TOL = 1e-12
ENSEMBLE_TOL = 1e-4
ISOTROPIC_DETECTION_TOL = 1e-12
ORACLE_STARTS = 4
REDUCED_STEPS = 30
REDUCED_TOL = 1e-13
SEARCH_ITERS = 2000
VERIFY_ATOL = 1e-10


@dataclass(frozen=True)
class MapWitness:
    """Negativity of (1 (x) L)(rho) for a k-positive map L: proves SN >= k+1."""

    map_kind: str  # "reduction" (p stored) or "transpose"
    p: float | None
    k: int
    min_eigenvalue: float

    kind = "map_witness"

    def __post_init__(self):
        if self.map_kind not in ("reduction", "transpose"):
            raise InvariantViolation(f"unknown witness map {self.map_kind!r}")
        if (self.map_kind != "transpose") == (self.p is None):
            raise InvariantViolation(f"{self.map_kind} witness with p={self.p!r}")
        if self.p is not None and not 0.0 < self.p <= 1.0:
            raise InvariantViolation(f"reduction witness needs 0 < p <= 1, got p={self.p!r}")
        # L_p is k-positive on M_N (N >= k) exactly when it is k-positive on M_k.
        k_positive = 1 if self.p is None else lambda_p_class(self.k, self.p)
        if not 1 <= self.k <= k_positive:
            raise InvariantViolation(
                f"{self.map_kind} map with p={self.p!r} is not {self.k}-positive"
            )
        if not self.min_eigenvalue < NEGATIVITY_THRESHOLD:
            raise InvariantViolation(f"witness eigenvalue {self.min_eigenvalue!r} "
                                     f"is not below {NEGATIVITY_THRESHOLD}")

    def verify(self, rho: DensityMatrix) -> bool:
        # No state has SN > min(d_a, d_b). Below that, L is k-positive on
        # M_{d_b} since __post_init__ found it k-positive on M_k.
        if self.k >= min(rho.idx.d_a, rho.idx.d_b):
            return False
        found = _map_witness(rho, self.p, self.k)
        return found is not None and abs(found.min_eigenvalue - self.min_eigenvalue) <= VERIFY_ATOL

    def to_payload(self) -> dict:
        return {"kind": self.kind, "map": self.map_kind, "p": self.p, "k": self.k,
                "min_eigenvalue": self.min_eigenvalue}

    @classmethod
    def from_payload(cls, payload) -> MapWitness:
        io._require(payload, ("map", "p", "k", "min_eigenvalue"), "map_witness certificate")
        return cls(
            map_kind=payload["map"],
            p=None if payload["p"] is None else io._parse_number(payload, "p"),
            k=io._parse_number(payload, "k", int),
            min_eigenvalue=io._parse_number(payload, "min_eigenvalue"),
        )

    def describe(self) -> str:
        label = "transpose map" if self.p is None else "reduction map p=%.6g" % self.p
        return f"witness[{label}, k={self.k}]: min eigenvalue {self.min_eigenvalue:.6e}"

    def bounds(self) -> tuple[int, int | None]:
        return self.k + 1, None


@dataclass(frozen=True)
class FidelityBound:
    """An achieved overlap with a maximally entangled state, verified in the
    frame _max_entangled_frame gives; proves SN >= sn_bound."""

    f_hat: float
    state: PureBipartiteState
    sn_bound: int

    kind = "fidelity_bound"

    def __post_init__(self):
        idx = self.state.idx
        if idx.d_a != idx.d_b:
            raise InvariantViolation(
                f"fidelity bound needs a square state, got ({idx.d_a}, {idx.d_b})"
            )
        sn = _fraction_sn(idx.d_a, self.f_hat)
        if not 1 <= self.sn_bound <= sn:
            raise InvariantViolation(f"fidelity {self.f_hat!r} at N={idx.d_a} proves "
                                     f"SN >= {sn}, not {self.sn_bound}")

    def verify(self, rho: DensityMatrix) -> bool:
        psi = _max_entangled_frame(self.state, rho.idx)
        if psi is None:
            return False
        achieved = overlap(rho, psi)
        return (abs(achieved - self.f_hat) <= VERIFY_ATOL
                and self.sn_bound <= _fraction_sn(rho.idx.d_a, achieved))

    def to_payload(self) -> dict:
        amp, idx = self.state.amplitudes, self.state.idx
        return {"kind": self.kind, "f_hat": self.f_hat, "sn_bound": self.sn_bound,
                "d_a": idx.d_a, "d_b": idx.d_b,
                "psi_re": amp.real.tolist(), "psi_im": amp.imag.tolist()}

    @classmethod
    def from_payload(cls, payload) -> FidelityBound:
        io._require(payload, ("f_hat", "sn_bound", "d_a", "d_b", "psi_re", "psi_im"),
                    "fidelity_bound certificate")
        idx = io._parse_index(payload)
        amp = io._parse_blocks(payload["psi_re"], payload["psi_im"], (idx.dim,), "psi_re/psi_im")
        return cls(
            f_hat=io._parse_number(payload, "f_hat"),
            state=PureBipartiteState(amp, idx),
            sn_bound=io._parse_number(payload, "sn_bound", int),
        )

    def describe(self) -> str:
        return f"fidelity bound: f_hat={self.f_hat:.12g} -> SN >= {self.sn_bound}"

    def bounds(self) -> tuple[int, int | None]:
        return self.sn_bound, None


@dataclass(frozen=True)
class EnsembleUpper:
    """Explicit rank-<=k decomposition with its Frobenius residual, which
    must lie below ENSEMBLE_TOL."""

    ensemble: PureEnsemble
    k: int
    residual: float

    kind = "ensemble_upper"

    def __post_init__(self):
        if not 0.0 <= self.residual < ENSEMBLE_TOL:
            raise InvariantViolation(f"residual {self.residual!r} not in [0, {ENSEMBLE_TOL})")

    def verify(self, rho: DensityMatrix) -> bool:
        tol = max(self.residual * (1.0 + 1e-6), 1e-11)
        return verify_decomposition(self.ensemble, rho, self.k, tol)

    def to_payload(self) -> dict:
        return {"kind": self.kind, "k": self.k, "residual": self.residual,
                "ensemble": io.ensemble_payload(self.ensemble)}

    @classmethod
    def from_payload(cls, payload) -> EnsembleUpper:
        io._require(payload, ("k", "residual", "ensemble"), "ensemble_upper certificate")
        return cls(
            ensemble=io.parse_ensemble_payload(payload["ensemble"]),
            k=io._parse_number(payload, "k", int),
            residual=io._parse_number(payload, "residual"),
        )

    def describe(self) -> str:
        return (f"ensemble upper: rank <= {self.k}, "
                f"{len(self.ensemble.probs)} members, residual {self.residual:.3e}")

    def bounds(self) -> tuple[int, int | None]:
        return 1, self.k


@dataclass(frozen=True)
class IsotropicExact:
    """Exact classification of an isotropic state in any local frame:
    rho / Tr(rho) is within ISOTROPIC_DETECTION_TOL of
    F |psi><psi| + (1-F)(1 - |psi><psi|)/(N^2-1) for psi the maximally
    entangled vector nearest the stored one (_max_entangled_frame), so
    SN = k on (k-1)/N < F <= k/N.

    rho_F is U (x) U*-invariant, so every (U (x) V) rho_F (U (x) V)^dagger
    is (1 (x) W) rho_F (1 (x) W)^dagger with W = V U^T, the state above at
    psi = (1 (x) W)|Psi+>; an invertible local operator leaves the Schmidt
    number unchanged.
    """

    f: float
    state: PureBipartiteState
    k: int

    kind = "isotropic_exact"

    def __post_init__(self):
        idx = self.state.idx
        if idx.d_a != idx.d_b:
            raise InvariantViolation(
                f"isotropic state needs a square state, got ({idx.d_a}, {idx.d_b})"
            )
        sn = isotropic_sn(self.n, self.f)  # rejects N < 2 and F outside [0, 1]
        if self.k != sn:
            raise InvariantViolation(
                f"isotropic state N={self.n}, F={self.f!r} has Schmidt number {sn}, not {self.k}"
            )

    @property
    def n(self) -> int:
        return self.state.idx.d_a

    def verify(self, rho: DensityMatrix) -> bool:
        psi = _max_entangled_frame(self.state, rho.idx)
        if psi is None:
            return False
        f = _isotropic_fidelity(rho, psi)
        return (f is not None and abs(f - self.f) <= VERIFY_ATOL
                and isotropic_sn(self.n, f) == self.k)

    def to_payload(self) -> dict:
        amp = self.state.amplitudes
        return {"kind": self.kind, "n": self.n, "f": self.f, "k": self.k,
                "psi_re": amp.real.tolist(), "psi_im": amp.imag.tolist()}

    @classmethod
    def from_payload(cls, payload) -> IsotropicExact:
        io._require(payload, ("n", "f", "k", "psi_re", "psi_im"), "isotropic_exact certificate")
        n = io._parse_number(payload, "n", int)
        idx = BipartiteIndex(n, n)
        amp = io._parse_blocks(payload["psi_re"], payload["psi_im"], (idx.dim,), "psi_re/psi_im")
        return cls(
            f=io._parse_number(payload, "f"),
            state=PureBipartiteState(amp, idx),
            k=io._parse_number(payload, "k", int),
        )

    def describe(self) -> str:
        return f"isotropic state: N={self.n}, F={self.f:.12g}, SN = {self.k} exactly"

    def bounds(self) -> tuple[int, int | None]:
        return self.k, self.k


# Adding a certificate kind means adding its class here and nowhere else.
CERTIFICATES = {c.kind: c for c in (MapWitness, FidelityBound, EnsembleUpper, IsotropicExact)}


def proven_bounds(certificates) -> tuple[int, int | None]:
    """The Schmidt-number bounds the certificates prove together: the largest
    lower bound (at least 1) and the smallest upper bound (None if none)."""
    bounds = [c.bounds() for c in certificates]
    lower = max([1] + [lo for lo, _ in bounds])
    upper = min([up for _, up in bounds if up is not None], default=None)
    if upper is not None and lower > upper:
        raise InvariantViolation(f"inconsistent bounds: lower {lower} > upper {upper}")
    return lower, upper


@dataclass(frozen=True)
class SnReport:
    """Schmidt-number bounds with their certificates; the stated bounds must
    be exactly proven_bounds(certificates)."""

    lower_bound: int
    upper_bound: int | None
    certificates: tuple

    def __post_init__(self):
        object.__setattr__(self, "certificates", tuple(self.certificates))
        proven = proven_bounds(self.certificates)
        if (self.lower_bound, self.upper_bound) != proven:
            raise InvariantViolation(f"stated bounds {(self.lower_bound, self.upper_bound)} "
                                     f"differ from the bounds {proven} the certificates prove")

    def to_payload(self) -> dict:
        return {"lower_bound": self.lower_bound, "upper_bound": self.upper_bound,
                "certificates": [c.to_payload() for c in self.certificates]}

    @classmethod
    def from_payload(cls, payload) -> SnReport:
        io._require(payload, ("lower_bound", "upper_bound", "certificates"), "report")
        certificates = []
        for cert in io._require_list(payload, "certificates", "report"):
            io._require(cert, ("kind",), "certificate")
            cert_class = CERTIFICATES.get(str(cert["kind"]))
            if cert_class is None:
                raise InvariantViolation(f"unknown certificate kind {cert['kind']!r}")
            certificates.append(cert_class.from_payload(cert))
        upper = payload["upper_bound"]
        return cls(
            lower_bound=io._parse_number(payload, "lower_bound", int),
            upper_bound=None if upper is None else io._parse_number(payload, "upper_bound", int),
            certificates=certificates,
        )


def _map_witness(rho: DensityMatrix, p: float | None, k: int) -> MapWitness | None:
    """The witness of SN >= k+1 by L, the reduction map L_p on B or the
    transpose map when p is None, if lambda_min((1 (x) L)(rho)) lies below
    the negativity threshold."""
    n = rho.idx.d_b
    lam = transpose_map(n) if p is None else reduction_family(n, p)
    lo = min_eigenvalue(apply_id_tensor_map(lam, rho))
    if lo < NEGATIVITY_THRESHOLD:
        return MapWitness("transpose" if p is None else "reduction", p, k, lo)
    return None


def sn_lower_via_map(rho: DensityMatrix, k: int) -> MapWitness | None:
    """Witness SN >= k+1 with the extreme k-positive member L_{p=1/k} on B,
    which is k-positive whatever d_a is.

    Returns a certificate iff (1 (x) L_{1/k})(rho) has an eigenvalue below
    the negativity threshold.
    """
    if not 1 <= k < min(rho.idx.d_a, rho.idx.d_b):
        raise InvariantViolation(f"need 1 <= k < N, got k={k}")
    return _map_witness(rho, 1.0 / k, k)


def peres_witness(rho: DensityMatrix) -> MapWitness | None:
    """Partial-transposition negativity; proves SN >= 2."""
    return _map_witness(rho, None, 1)


def _fraction_sn(n: int, f: float) -> int:
    """isotropic_sn(n, f), or 1 at N = 1, where every state is a product."""
    return 1 if n == 1 else isotropic_sn(n, f)


def _nearest_max_entangled(vec: np.ndarray, n: int) -> np.ndarray:
    """The maximally entangled unit vector nearest vec, a vector on
    H_N (x) H_N: vec(U) / sqrt(N) for U the polar factor of vec reshaped
    to the N x N matrix M, which maximizes |<psi|vec>| over maximally
    entangled psi."""
    amp = kernels.polar_orthonormalize(vec.reshape(n, n)).reshape(n * n)
    return amp / np.linalg.norm(amp)


def _max_entangled_frame(state: PureBipartiteState, idx: BipartiteIndex) -> np.ndarray | None:
    """The maximally entangled vector nearest a stored psi, or None unless
    psi lies on the space idx within ISOTROPIC_DETECTION_TOL of it.
    A bound taken there comes from an exactly maximally entangled vector,
    so no tolerance on psi can raise a fidelity past k/N."""
    if state.idx != idx:
        return None
    psi = _nearest_max_entangled(state.amplitudes, idx.d_a)
    return psi if np.linalg.norm(state.amplitudes - psi) <= ISOTROPIC_DETECTION_TOL else None


def _isotropic_fidelity(rho: DensityMatrix, psi: np.ndarray) -> float | None:
    """F = overlap(rho, psi) if rho / Tr(rho) is within
    ISOTROPIC_DETECTION_TOL of the isotropic state of fidelity F in the frame
    of the maximally entangled psi (sector_weights in one_pair_sectors(psi)),
    else None."""
    if sector_weights(rho, one_pair_sectors(psi))[1] > ISOTROPIC_DETECTION_TOL:
        return None
    return overlap(rho, psi)


def _classify_isotropic(
    rho: DensityMatrix, spectrum: tuple[np.ndarray, np.ndarray], top: np.ndarray
) -> IsotropicExact | None:
    """The isotropic_exact certificate of a square rho that is isotropic in
    some local frame, else None; spectrum is rho's np.linalg.eigh and top
    the maximally entangled vector nearest its top eigenvector.

    The candidate frames psi are tried in turn: Psi+, which gives the
    standard frame's F; top, when the top eigenvalue stands alone
    (F > 1/N^2); and the vector nearest the bottom eigenvector, when that
    eigenvalue stands alone (F < 1/N^2). The other N^2 - 1 eigenvalues of
    an isotropic state are equal, so within ISOTROPIC_DETECTION_TOL of one
    they lie within twice that of each other (Weyl), up to eigh's rounding;
    a state that fails this pays no projection in a rotated frame.
    """
    n = rho.idx.d_a
    w, v = spectrum
    spread = 2 * ISOTROPIC_DETECTION_TOL + w.size * np.finfo(np.float64).eps
    candidates = [max_entangled_vector(n)]
    if w[-2] - w[0] <= spread:
        candidates.append(top)
    if w[-1] - w[1] <= spread:
        candidates.append(_nearest_max_entangled(v[:, 0], n))
    for psi in candidates:
        f = _isotropic_fidelity(rho, psi)
        if f is not None:
            return IsotropicExact(f, PureBipartiteState(psi, rho.idx), isotropic_sn(n, f))
    return None


def fidelity_max(
    rho: DensityMatrix, spectrum: tuple[np.ndarray, np.ndarray] | None = None
) -> FidelityBound:
    """Lower-bound the fully entangled fraction in one step: the maximally
    entangled state nearest rho's top eigenvector v (_nearest_max_entangled).
    spectrum is rho's np.linalg.eigh, when the caller has it.

    One-sided: f_hat = overlap(rho, psi) is at most f(rho / Tr(rho)),
    the fully entangled fraction, since psi is maximally entangled by
    construction. Exact on pure states and on every local-unitary image
    (U (x) V) rho_F (U (x) V)^dagger of an isotropic state with F > 1/N^2,
    whose top eigenvector is (U (x) V)|Psi+>.
    """
    n = rho.idx.d_a
    if n != rho.idx.d_b:
        raise InvariantViolation(
            f"fidelity bound needs d_a == d_b, got ({rho.idx.d_a}, {rho.idx.d_b})"
        )
    if spectrum is None:
        spectrum = np.linalg.eigh(rho.matrix)
    amp = _nearest_max_entangled(spectrum[1][:, -1], n)
    f_hat = overlap(rho, amp)
    return FidelityBound(
        f_hat=f_hat,
        state=PureBipartiteState(amp, rho.idx),
        sn_bound=_fraction_sn(n, f_hat),
    )


def isotropic_sn(n: int, f: float) -> int:
    """Exact Schmidt number of the isotropic state: the k with (k-1)/N < F <= k/N.

    Right-inclusive at F = k/N; everything at or below F = 1/N is separable.
    """
    if n < 2:
        raise InvariantViolation(f"isotropic states need N >= 2, got N={n}")
    if not -BOUNDARY_TOL <= f <= 1.0 + BOUNDARY_TOL:
        raise InvariantViolation(f"fidelity must lie in [0, 1], got {f}")
    try:
        k = int(np.ceil(n * f - BOUNDARY_TOL))
    except OverflowError as exc:  # an integer N too large for a double
        raise InvariantViolation(f"N must fit in a double: {exc}") from exc
    return min(max(k, 1), n)


def tensor_copy_bound(f: float, n: int, m: int) -> int:
    """Schmidt-number lower bound for m tensor copies of the isotropic state,
    from f(rho^(x)m) >= F^m, with F first lowered by isotropic_sn's boundary
    tolerance: a fidelity it places at k/N then bounds m copies by at most
    k^m, whatever the rounding of F^m. The lowering costs m k^(m-1) 1e-12,
    under one unit until m k^(m-1) reaches 1e12."""
    if m < 1:
        raise InvariantViolation(f"copy count must be positive, got {m}")
    if n < 2:
        raise InvariantViolation(f"isotropic states need N >= 2, got N={n}")
    if not 0.0 <= f <= 1.0:
        raise InvariantViolation(f"fidelity must lie in [0, 1], got {f}")
    return isotropic_sn(n**m, max(f - BOUNDARY_TOL / n, 0.0) ** m)


def ensemble_search(rho: DensityMatrix, k: int, seed: int = 0) -> EnsembleUpper | None:
    """Search for a rank-<=k decomposition of rho by one route per state.

    At k = min(d_a, d_b) the spectral decomposition is the answer. A state
    fixed by the local twirl of one or two qubit pairs (twirl_sectors) is
    solved in its 2-3 sector weights (_twirl_reduced_search). Every other
    state gets one run of alternating minimization of up to SEARCH_ITERS
    sweeps: 2 d_a d_b ansatz vectors start as random sums of k product
    terms drawn from default_rng(seed) and are re-projected onto Schmidt
    rank <= k each sweep; weights are refit as the exact least-squares
    optimum on the probability simplex. Success requires the stored
    ensemble to pass EnsembleUpper.verify; a failed search proves nothing.
    """
    _check_rank(k, rho.idx)
    d_a, d_b = rho.idx.d_a, rho.idx.d_b
    if k == min(d_a, d_b):
        w, v = np.linalg.eigh(rho.matrix)
        return _certified(rho, k, np.maximum(w, 0.0), v.T)
    sectors = twirl_sectors(rho.idx)
    if sectors is not None:
        # sector_weights reads rho / Tr rho: every twirled seed has trace 1,
        # so a trace off within tolerance would put the target outside their hull.
        weights, dist = sector_weights(rho, sectors)
        if dist <= ISOTROPIC_DETECTION_TOL:
            return _twirl_reduced_search(rho, k, seed, sectors, weights)
    m_vectors = 2 * d_a * d_b
    rng = np.random.default_rng(seed)
    psis0 = np.array([_random_rank_k(d_a, d_b, k, rng) for _ in range(m_vectors)])
    probs0 = np.full(m_vectors, 1.0 / m_vectors)
    res, probs, psis, _ = kernels.ensemble_alt_min(
        rho.matrix, d_a, d_b, k, psis0, probs0, SEARCH_ITERS, ENSEMBLE_TOL
    )
    return _certified(rho, k, probs, psis) if res < ENSEMBLE_TOL else None


def _check_rank(k: int, idx: BipartiteIndex) -> None:
    """Reject a rank bound k outside [1, min(d_a, d_b)]."""
    if not 1 <= k <= min(idx.d_a, idx.d_b):
        raise InvariantViolation(
            f"rank bound must lie in [1, {min(idx.d_a, idx.d_b)}], got {k}"
        )


def _twirl_reduced_search(
    rho: DensityMatrix, k: int, seed: int, sectors: np.ndarray, rho_weights: np.ndarray,
) -> EnsembleUpper | None:
    """Rank-<=k decomposition of a twirl-invariant state from its
    sector_weights rho_weights, or None when the gap test fires or the
    result does not verify.

    With E_j the projectors sectors and scaled weights
    u(psi)_j = <psi|E_j|psi> * scale_j, scale_j = 1 / sqrt(Tr E_j), twirling
    maps |psi><psi| to sum_j u_j E_j * scale_j, and the Frobenius distance of
    two such operators is the Euclidean distance of their weights. So rho is
    a mixture of twirled rank-<=k seeds iff its scaled weights
    target = rho_weights * scale lie in the convex hull of their u. A
    fully-corrective Frank-Wolfe search finds them: each step adds the seed
    that rank_k_oracle finds for the linear step, and simplex_qp refits the
    seed weights. The seeds of the last step, converged or not, are
    expanded over the 12-element qubit 2-design and certified.
    """
    d_a, d_b = rho.idx.d_a, rho.idx.d_b
    scale = 1.0 / np.sqrt(np.einsum("jaa->j", sectors).real)
    target = rho_weights * scale
    rng = np.random.default_rng(seed)
    seeds = np.zeros((0, d_a * d_b), dtype=np.complex128)
    weights = np.zeros((0, target.size))
    probs = np.zeros(0)
    grad = -target
    for _ in range(REDUCED_STEPS):
        x = -np.einsum("j,jab->ab", grad * scale, sectors)
        shape = (ORACLE_STARTS, d_b, k)
        b0 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        vals, psis = kernels.rank_k_oracle(x, d_a, d_b, k, b0, ORACLE_ITERS, ORACLE_TOL)
        psi = psis[np.argmax(vals)]
        u = np.einsum("a,jab,b->j", psi.conj(), sectors, psi).real * scale
        # If rho's weights lie in the hull, the best seed u has
        # grad.u <= grad.target, so the Frank-Wolfe gap
        # grad.(probs @ weights - u) is at least |grad|^2.
        if probs.size and grad @ (probs @ weights - u) < 0.5 * (grad @ grad):
            return None
        seeds = np.vstack([seeds, psi])
        weights = np.vstack([weights, u])
        probs = kernels.simplex_qp(weights @ weights.T, weights @ target,
                                   np.append(probs, 0.0) if probs.size else np.ones(1))
        keep = probs > 0.0
        seeds, weights, probs = seeds[keep], weights[keep], probs[keep]
        grad = probs @ weights - target
        if float(np.linalg.norm(grad)) <= REDUCED_TOL:
            break
    orbits = [twirl_orbit(s, rho.idx, tetrahedral_ensemble_qubit()) for s in seeds]
    member_probs = np.concatenate([np.full(len(o), p / len(o)) for p, o in zip(probs, orbits)])
    amps = np.concatenate(orbits)
    return _certified(rho, k, member_probs, amps)


def _certified(
    rho: DensityMatrix, k: int, probs: np.ndarray, amps: np.ndarray
) -> EnsembleUpper | None:
    """The certificate for the rows of amps with weights probs, weights
    <= 1e-12 dropped and the rest renormalized, stating the residual of the
    ensemble it stores; None unless it is below ENSEMBLE_TOL and verifies."""
    keep = probs > 1e-12
    probs = probs[keep] / probs[keep].sum()
    # One norm per row: an axis=1 norm sums in another order and can move
    # the stored amplitudes in the last bit.
    amps = np.array([a / np.linalg.norm(a) for a in amps[keep]])
    ensemble = PureEnsemble(probs, amps, rho.idx)
    residual = float(np.linalg.norm(ensemble.mixture().matrix - rho.matrix))
    if not residual < ENSEMBLE_TOL:
        return None
    cert = EnsembleUpper(ensemble=ensemble, k=k, residual=residual)
    return cert if cert.verify(rho) else None


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
    if np.any(schmidt_ranks(ens.amps, ens.idx) > k):
        return False
    dist = float(np.linalg.norm(ens.mixture().matrix - rho.matrix))
    return dist < tol


def analyze(
    rho: DensityMatrix,
    search_upper: int | None = None,
    seed: int = 0,
) -> SnReport:
    """Assemble Schmidt-number bounds and their certificates.

    The lower bound combines the partial-transposition baseline, the
    reduction-family witness scan on every shape, and, on square input, the
    one-step fully-entangled-fraction bound of fidelity_max; an input that
    is isotropic in any local frame is classified exactly, from the same
    eigendecomposition. When search_upper=k is given, which must lie in
    [1, min(d_a, d_b)], a rank-<=k decomposition search seeded with seed
    supplies the upper bound. It runs only when lower <= k < upper for the
    bounds proven so far, a missing upper bound counting as infinite: below
    the lower bound no rank-<=k decomposition of rho exists, and from the
    upper bound on the search cannot lower it.
    """
    if search_upper is not None:
        _check_rank(search_upper, rho.idx)
    certificates = []
    d_a, d_b = rho.idx.d_a, rho.idx.d_b
    square = d_a == d_b and d_a >= 2
    if square:
        spectrum = np.linalg.eigh(rho.matrix)
        fidelity = fidelity_max(rho, spectrum)
        certificates.append(_classify_isotropic(rho, spectrum, fidelity.state.amplitudes))
    if d_b >= 2:
        certificates.append(peres_witness(rho))
    certificates += [sn_lower_via_map(rho, k) for k in range(1, min(d_a, d_b))]
    if square:
        certificates.append(fidelity)
    certificates = [c for c in certificates if c is not None]
    if search_upper is not None:
        lower, upper = proven_bounds(certificates)
        if lower <= search_upper < (math.inf if upper is None else upper):
            certificates.append(ensemble_search(rho, search_upper, seed=seed))
    certificates = tuple(c for c in certificates if c is not None)
    return SnReport(*proven_bounds(certificates), certificates)


def verify_report(report: SnReport, rho: DensityMatrix) -> bool:
    """Re-verify every certificate in a report against rho."""
    return all(c.verify(rho) for c in report.certificates)
