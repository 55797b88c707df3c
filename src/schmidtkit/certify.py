"""Schmidt-number bound engine.

Lower bounds come from k-positive map witnesses and from the fully entangled
fraction; upper bounds come from explicit rank-constrained pure-state
decompositions. Every certificate can be re-verified independently of the
routine that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import io, kernels
from .linalg import InvariantViolation, min_eigenvalue
from .maps import (
    NEGATIVITY_THRESHOLD,
    ORACLE_ITERS,
    ORACLE_TOL,
    apply_id_tensor_map,
    lambda_p_class,
    reduction_family,
    transpose_map,
)
from .states import DensityMatrix, PureBipartiteState, schmidt_ranks
from .twirl import (
    PureEnsemble,
    fidelity_with_max_entangled,
    haar_unitary,
    tetrahedral_ensemble_qubit,
    twirl_exact,
    twirl_orbit,
    twirl_sectors,
)

BOUNDARY_TOL = 1e-12
ENSEMBLE_TOL = 1e-4
FIDELITY_BOUND_SLACK = 1e-9
FIDELITY_MAX_ITERS = 500
FIDELITY_RESTARTS = 20
FIDELITY_TOL = 1e-10
ISOTROPIC_DETECTION_TOL = 1e-12
ORACLE_STARTS = 4
REDUCED_STEPS = 30
REDUCED_TOL = 1e-13
SEARCH_ITERS = 2000
SEARCH_RESTARTS = 10
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

    def verify(self, rho: DensityMatrix) -> bool:
        k_positive = 1 if self.p is None else lambda_p_class(rho.idx.d_b, self.p)
        if self.k > k_positive:
            return False
        lo = _witness_min_eigenvalue(rho, self.p)
        return abs(lo - self.min_eigenvalue) <= VERIFY_ATOL and lo < NEGATIVITY_THRESHOLD

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
    """An achieved overlap with a maximally entangled state; proves SN >= sn_bound."""

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

    def verify(self, rho: DensityMatrix) -> bool:
        if self.state.idx != rho.idx:
            return False
        amp = self.state.amplitudes
        achieved = float((amp.conj() @ rho.matrix @ amp).real)
        if abs(achieved - self.f_hat) > VERIFY_ATOL:
            return False
        n = self.state.idx.d_a
        x = self.state.amplitude_matrix() * np.sqrt(n)
        if float(np.max(np.abs(x.conj().T @ x - np.eye(n)))) > 1e-8:
            return False
        return self.sn_bound == fidelity_to_sn_bound(self.f_hat, n)

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
        amp = io._parse_blocks(payload, "psi_re", "psi_im", (idx.dim,))
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

    def verify(self, rho: DensityMatrix) -> bool:
        if not 0.0 <= self.residual < ENSEMBLE_TOL:
            return False
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
    """Exact classification of an isotropic state: SN = k on (k-1)/N < F <= k/N."""

    n: int
    f: float
    k: int

    kind = "isotropic_exact"

    def verify(self, rho: DensityMatrix) -> bool:
        if rho.idx.d_a != rho.idx.d_b or rho.idx.d_a != self.n:
            return False
        if abs(fidelity_with_max_entangled(rho) - self.f) > VERIFY_ATOL:
            return False
        if float(np.linalg.norm(rho.matrix - twirl_exact(rho).matrix)) > ISOTROPIC_DETECTION_TOL:
            return False
        return self.k == isotropic_sn(self.n, self.f)

    def to_payload(self) -> dict:
        return {"kind": self.kind, "n": self.n, "f": self.f, "k": self.k}

    @classmethod
    def from_payload(cls, payload) -> IsotropicExact:
        io._require(payload, ("n", "f", "k"), "isotropic_exact certificate")
        return cls(
            n=io._parse_number(payload, "n", int),
            f=io._parse_number(payload, "f"),
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


def _witness_min_eigenvalue(rho: DensityMatrix, p: float | None) -> float:
    """lambda_min((1 (x) L)(rho)) for the reduction map L_p on B, or for the
    transpose map when p is None."""
    n = rho.idx.d_b
    lam = transpose_map(n) if p is None else reduction_family(n, p)
    return min_eigenvalue(apply_id_tensor_map(lam, rho))


def sn_lower_via_map(rho: DensityMatrix, k: int) -> MapWitness | None:
    """Witness SN >= k+1 with the extreme k-positive member L_{p=1/k}.

    Returns a certificate iff (1 (x) L_{1/k})(rho) has an eigenvalue below
    the negativity threshold.
    """
    if not 1 <= k < min(rho.idx.d_a, rho.idx.d_b):
        raise InvariantViolation(f"need 1 <= k < N, got k={k}")
    lo = _witness_min_eigenvalue(rho, 1.0 / k)
    if lo < NEGATIVITY_THRESHOLD:
        return MapWitness(map_kind="reduction", p=1.0 / k, k=k, min_eigenvalue=lo)
    return None


def peres_witness(rho: DensityMatrix) -> MapWitness | None:
    """Partial-transposition negativity; proves SN >= 2."""
    lo = _witness_min_eigenvalue(rho, None)
    if lo < NEGATIVITY_THRESHOLD:
        return MapWitness(map_kind="transpose", p=None, k=1, min_eigenvalue=lo)
    return None


def fidelity_max(rho: DensityMatrix, seed: int = 0) -> FidelityBound:
    """Lower-bound the fully entangled fraction by ascent over
    Psi_U = (1 (x) U)|Psi+> on the unitary manifold.

    FIDELITY_RESTARTS starts, ascended together: a deterministic identity
    start, then Haar starts seeded with seed + r for r = 0, 1, ...; the best
    achieved value is returned, the first start to reach it on a tie.
    One-sided: f_hat <= f(rho).
    """
    n = rho.idx.d_a
    if n != rho.idx.d_b:
        raise InvariantViolation(
            f"fidelity ascent needs d_a == d_b, got ({rho.idx.d_a}, {rho.idx.d_b})"
        )
    starts = [np.eye(n, dtype=np.complex128)]
    starts += [haar_unitary(n, seed + r) for r in range(FIDELITY_RESTARTS - 1)]
    vals, us = kernels.fidelity_ascent(
        rho.matrix, n, np.array(starts), FIDELITY_MAX_ITERS, FIDELITY_TOL
    )
    best = int(np.argmax(vals))
    best_val, best_u = float(vals[best]), us[best]
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
    if not -BOUNDARY_TOL <= f <= 1.0 + BOUNDARY_TOL:
        raise InvariantViolation(f"fidelity must lie in [0, 1], got {f}")
    k = int(np.ceil(n * f - BOUNDARY_TOL))
    return min(max(k, 1), n)


def tensor_copy_bound(f: float, n: int, m: int) -> int:
    """Schmidt-number lower bound for m tensor copies of the isotropic state,
    from f(rho^(x)m) >= F^m."""
    if m < 1:
        raise InvariantViolation(f"copy count must be positive, got {m}")
    if not 0.0 <= f <= 1.0:
        raise InvariantViolation(f"fidelity must lie in [0, 1], got {f}")
    return fidelity_to_sn_bound(f**m, n**m)


def ensemble_search(rho: DensityMatrix, k: int, seed: int = 0) -> EnsembleUpper | None:
    """Search for a rank-<=k decomposition of rho.

    At k = min(d_a, d_b) the spectral decomposition is the answer. A state
    fixed by the local twirl of one or two qubit pairs (twirl_sectors) is
    first solved in its 2-3 sector weights (_twirl_reduced_search); when that
    search's gap test finds rho outside the reach of rank-<=k seeds, the
    answer is None. Otherwise, or when it runs out of steps, alternating
    minimization from SEARCH_RESTARTS starts (restart r seeds with seed + r)
    of up to SEARCH_ITERS sweeps: 2 d_a d_b ansatz vectors start as random
    sums of k product terms and are re-projected onto Schmidt rank <= k each
    sweep; weights are refit as the exact least-squares optimum on the
    probability simplex. Success requires the stored ensemble to pass
    EnsembleUpper.verify; a failed search proves nothing.
    """
    d_a, d_b = rho.idx.d_a, rho.idx.d_b
    if not 1 <= k <= min(d_a, d_b):
        raise InvariantViolation(
            f"rank bound must lie in [1, {min(d_a, d_b)}], got {k}"
        )
    if k == min(d_a, d_b):
        w, v = np.linalg.eigh(rho.matrix)
        return _certified(rho, k, np.maximum(w, 0.0), v.T)
    found, outside = _twirl_reduced_search(rho, k, seed)
    if found is not None or outside:
        return found
    m_vectors = 2 * d_a * d_b
    best = None
    for r in range(SEARCH_RESTARTS):
        rng = np.random.default_rng(seed + r)
        psis0 = np.array(
            [_random_rank_k(d_a, d_b, k, rng) for _ in range(m_vectors)]
        )
        probs0 = np.full(m_vectors, 1.0 / m_vectors)
        res, probs, psis, _ = kernels.ensemble_alt_min(
            rho.matrix, d_a, d_b, k, psis0, probs0, SEARCH_ITERS, ENSEMBLE_TOL
        )
        if best is None or res < best[0]:
            best = (float(res), probs, psis)
        if res < 0.7 * ENSEMBLE_TOL:
            break
    res, probs, psis = best
    if res >= ENSEMBLE_TOL:
        return None
    return _certified(rho, k, probs, psis)


def _twirl_reduced_search(
    rho: DensityMatrix, k: int, seed: int
) -> tuple[EnsembleUpper | None, bool]:
    """Rank-<=k decomposition of a state fixed by the local twirl, found in
    its sector weights, and whether the gap test stopped the search. The
    decomposition is None when rho is not such a state or none is found.

    With E_j the projectors of twirl_sectors and scaled weights
    u(psi)_j = <psi|E_j|psi> / sqrt(Tr E_j), twirling maps |psi><psi| to
    sum_j u_j E_j / sqrt(Tr E_j), and the Frobenius distance of two such
    operators is the Euclidean distance of their weights. So rho is a
    mixture of twirled rank-<=k seeds iff its weights lie in the convex hull
    of their u. A fully-corrective Frank-Wolfe search finds them: each step
    adds the seed that rank_k_oracle finds for the linear step, and
    simplex_qp refits the seed weights. Each seed is then expanded over its
    orbit under the 12-element qubit 2-design.
    """
    sectors = twirl_sectors(rho.idx)
    if sectors is None:
        return None, False
    scale = 1.0 / np.sqrt(np.einsum("jaa->j", sectors).real)
    target = np.einsum("jab,ba->j", sectors, rho.matrix).real * scale
    invariant = np.einsum("j,jab->ab", target * scale, sectors)
    if float(np.linalg.norm(rho.matrix - invariant)) > ISOTROPIC_DETECTION_TOL:
        return None, False
    d_a, d_b = rho.idx.d_a, rho.idx.d_b
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
            return None, True
        seeds = np.vstack([seeds, psi])
        weights = np.vstack([weights, u])
        probs = kernels.simplex_qp(weights @ weights.T, weights @ target,
                                   np.append(probs, 0.0) if probs.size else np.ones(1))
        keep = probs > 0.0
        seeds, weights, probs = seeds[keep], weights[keep], probs[keep]
        grad = probs @ weights - target
        if float(np.linalg.norm(grad)) <= REDUCED_TOL:
            break
    else:
        return None, False
    orbits = [twirl_orbit(s, rho.idx, tetrahedral_ensemble_qubit()) for s in seeds]
    member_probs = np.concatenate([np.full(len(o), p / len(o)) for p, o in zip(probs, orbits)])
    amps = np.concatenate(orbits)
    return _certified(rho, k, member_probs, amps), False


def _certified(
    rho: DensityMatrix, k: int, probs: np.ndarray, amps: np.ndarray
) -> EnsembleUpper | None:
    """The certificate for the rows of amps with weights probs, weights
    <= 1e-12 dropped and the rest renormalized, stating the residual of the
    ensemble it stores; None unless it verifies."""
    keep = probs > 1e-12
    probs = probs[keep] / probs[keep].sum()
    # One norm per row: an axis=1 norm sums in another order and can move
    # the stored amplitudes in the last bit.
    amps = np.array([a / np.linalg.norm(a) for a in amps[keep]])
    ensemble = PureEnsemble(probs, amps, rho.idx)
    residual = float(np.linalg.norm(ensemble.mixture().matrix - rho.matrix))
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
    reduction-family witness scan, and the fidelity route; an exactly
    isotropic input is classified exactly. When search_upper=k is given, a
    rank-<=k decomposition search supplies the upper bound; it runs only
    when k is at least the lower bound proven so far, since below that no
    rank-<=k decomposition of rho exists.
    """
    certificates = []
    n = rho.idx.d_a
    square = rho.idx.d_a == rho.idx.d_b and n >= 2
    if square:
        f = fidelity_with_max_entangled(rho)
        if float(np.linalg.norm(rho.matrix - twirl_exact(rho).matrix)) <= ISOTROPIC_DETECTION_TOL:
            certificates.append(IsotropicExact(n=n, f=f, k=isotropic_sn(n, f)))
    if rho.idx.d_b >= 2:
        certificates.append(peres_witness(rho))
    if square:
        certificates += [sn_lower_via_map(rho, k) for k in range(1, n)]
        certificates.append(fidelity_max(rho, seed=seed))
    certificates = [c for c in certificates if c is not None]
    # ensemble_search itself rejects a k outside [1, min(d_a, d_b)].
    if search_upper is not None and not 1 <= search_upper < proven_bounds(certificates)[0]:
        certificates.append(ensemble_search(rho, search_upper, seed=seed))
    certificates = tuple(c for c in certificates if c is not None)
    return SnReport(*proven_bounds(certificates), certificates)


def verify_report(report: SnReport, rho: DensityMatrix) -> bool:
    """Re-verify every certificate in a report against rho."""
    return all(c.verify(rho) for c in report.certificates)
