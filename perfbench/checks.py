"""Independent checks of every operation's output.

Each check parses the files the program wrote and recomputes the evidence
with plain numpy; none calls schmidtkit. A check returns a list of problems,
empty when the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import (
    F_TWO_COPY,
    isotropic_matrix,
    map_on_blocks,
    partial_transpose,
    psi_plus,
    two_copy_state,
)

NEGATIVITY = -1e-8  # the program's threshold for a map witness
RANK_TOL = 1e-9  # singular values above RANK_TOL * largest count toward the rank
WITNESS_ATOL = 1e-10  # reported eigenvalues and overlaps against recomputed ones
ENSEMBLE_TOL = 1e-4  # Frobenius distance of a searched mixture to the state
WEIGHT_ATOL = 1e-10
MAX_ENT_ATOL = 1e-8  # singular values of a maximally entangled vector vs 1/sqrt(N)
PROBE_ATOL = 1e-8  # probe minimum against its analytic value
DEMO_ATOL = 1e-10
TWIRL_F_ATOL = 1e-12
TWIRL_ATOL = 1e-12
# P(||mean - twirl|| >= t) <= 2 exp(-S t^2 / (2 delta^2)) for S samples whose
# terms lie at distance delta of the twirl (Pinelis' Hilbert-space Hoeffding
# bound; every (U (x) U*) rho (U (x) U*)^dag is at distance exactly
# ||rho - twirl(rho)||_F from the twirl, which it fixes). At t = 8 delta /
# sqrt(S) a correct output is rejected with probability below 3e-14.
TWIRL_SIGMAS = 8.0


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def matrix_of(payload: dict) -> np.ndarray:
    return np.asarray(payload["re"], dtype=np.float64) + 1j * np.asarray(
        payload["im"], dtype=np.float64
    )


def vector_of(re, im) -> np.ndarray:
    return np.asarray(re, dtype=np.float64) + 1j * np.asarray(im, dtype=np.float64)


def schmidt_rank(vec: np.ndarray, d_a: int, d_b: int) -> int:
    s = np.linalg.svd(vec.reshape(d_a, d_b), compute_uv=False)
    return int(np.count_nonzero(s > RANK_TOL * s[0]))


def fidelity_lower_bound(rho: np.ndarray, n: int) -> int:
    """Schmidt number implied by F = <Psi+|rho|Psi+> > (k-1)/N."""
    v = psi_plus(n)
    f = float((v.conj() @ rho @ v).real)
    return min(max(math.ceil(n * f - 1e-9), 1), n)


# ----------------------------------------------------------- certificates


def check_map_witness(cert: dict, rho: np.ndarray, d_a: int, d_b: int) -> list[str]:
    if cert["map"] == "reduction":
        rho_a = np.einsum("ikjk->ij", rho.reshape(d_a, d_b, d_a, d_b))
        mapped = np.kron(rho_a, np.eye(d_b)) - cert["p"] * rho
    elif cert["map"] == "transpose":
        mapped = partial_transpose(rho, d_a, d_b)
    else:
        return [f"unknown witness map {cert['map']!r}"]
    lo = float(np.linalg.eigvalsh((mapped + mapped.conj().T) / 2)[0])
    errors = []
    if abs(lo - cert["min_eigenvalue"]) > WITNESS_ATOL:
        errors.append(f"witness eigenvalue {cert['min_eigenvalue']!r} != recomputed {lo!r}")
    if not cert["min_eigenvalue"] < NEGATIVITY:
        errors.append(f"witness eigenvalue {cert['min_eigenvalue']!r} not below {NEGATIVITY}")
    return errors


def check_fidelity_bound(cert: dict, rho: np.ndarray) -> list[str]:
    n = cert["d_a"]
    psi = vector_of(cert["psi_re"], cert["psi_im"])
    errors = []
    overlap = float((psi.conj() @ rho @ psi).real)
    if abs(overlap - cert["f_hat"]) > WITNESS_ATOL:
        errors.append(f"fidelity f_hat {cert['f_hat']!r} != overlap {overlap!r}")
    s = np.linalg.svd(psi.reshape(n, n), compute_uv=False)
    if float(np.max(np.abs(s - 1.0 / math.sqrt(n)))) > MAX_ENT_ATOL:
        errors.append(f"fidelity state is not maximally entangled: singular values {s}")
    return errors


def check_ensemble(ens: dict, rho: np.ndarray, k: int, tol: float = ENSEMBLE_TOL) -> list[str]:
    d_a, d_b = ens["d_a"], ens["d_b"]
    probs = np.array([m["p"] for m in ens["members"]], dtype=np.float64)
    vecs = np.array([vector_of(m["re"], m["im"]) for m in ens["members"]])
    errors = []
    if probs.min() < 0.0:
        errors.append(f"negative ensemble weight {probs.min()!r}")
    if abs(probs.sum() - 1.0) > WEIGHT_ATOL:
        errors.append(f"ensemble weights sum to {probs.sum()!r}")
    s = np.linalg.svd(vecs.reshape(-1, d_a, d_b), compute_uv=False)
    rank = int(np.max(np.count_nonzero(s > RANK_TOL * s[:, :1], axis=1)))
    if rank > k:
        errors.append(f"ensemble member of Schmidt rank {rank} > {k}")
    mixture = np.einsum("m,mi,mj->ij", probs, vecs, vecs.conj())
    dist = float(np.linalg.norm(mixture - rho))
    if not dist <= tol:
        errors.append(f"ensemble mixture is {dist:.3e} from the state (tolerance {tol:.0e})")
    return errors


def check_certificates(report: dict, rho: np.ndarray, d_a: int, d_b: int,
                       k: int | None = None) -> list[str]:
    """Re-verify every certificate; ensemble members must have Schmidt rank
    <= k, and an ensemble must back the reported upper bound."""
    errors = []
    for cert in report["certificates"]:
        if cert["kind"] == "map_witness":
            errors += check_map_witness(cert, rho, d_a, d_b)
        elif cert["kind"] == "fidelity_bound":
            errors += check_fidelity_bound(cert, rho)
        elif cert["kind"] == "ensemble_upper":
            if k is None:
                errors.append("ensemble certificate where no search was asked")
                continue
            if cert["k"] != report["upper_bound"]:
                errors.append(f"ensemble certificate for k = {cert['k']} does not back "
                              f"the upper bound {report['upper_bound']}")
            errors += check_ensemble(cert["ensemble"], rho, k)
    return errors


# ----------------------------------------------------------------- reports


def check_upper_report(report: dict, exp: dict) -> list[str]:
    """upper_search: exact Schmidt number where it is known, upper <= k on
    the mixtures, and every certificate re-verified."""
    lower, upper = report["lower_bound"], report["upper_bound"]
    errors = []
    if exp["known"] is not None and not lower == upper == exp["known"]:
        errors.append(f"bounds [{lower}, {upper}] != known Schmidt number {exp['known']}")
    if upper is None or upper > exp["k"]:
        errors.append(f"upper bound {upper} not <= {exp['k']}")
    kinds = [c["kind"] for c in report["certificates"]]
    if upper is not None and "ensemble_upper" not in kinds and "isotropic_exact" not in kinds:
        errors.append("upper bound without a certificate")
    # Members are held to the searched k, and to the claimed bound below it.
    k = exp["k"] if upper is None else min(upper, exp["k"])
    return errors + check_certificates(report, exp["rho"], exp["d_a"], exp["d_b"], k)


def check_lower_report(report: dict, exp: dict) -> list[str]:
    """lower_bounds: the lower bound equals the known Schmidt number, is
    exact on isotropic inputs, and is at least the <Psi+|rho|Psi+> bound."""
    lower, upper = report["lower_bound"], report["upper_bound"]
    errors = []
    if lower != exp["known"]:
        errors.append(f"lower bound {lower} != known Schmidt number {exp['known']}")
    if exp["exact"] and upper != lower:
        errors.append(f"isotropic input not classified exactly: [{lower}, {upper}]")
    if exp["d_a"] == exp["d_b"]:
        floor = fidelity_lower_bound(exp["rho"], exp["d_a"])
        if lower < floor:
            errors.append(f"lower bound {lower} below the <Psi+|rho|Psi+> bound {floor}")
    return errors + check_certificates(report, exp["rho"], exp["d_a"], exp["d_b"])


def check_probe(result: dict, exp: dict) -> list[str]:
    """map_probe: violation exactly when the map is not k-positive, a witness
    of Schmidt rank <= k whose eigenvalue is recomputed and analytic."""
    spec, k = exp["spec"], exp["k"]
    n = spec["n"]
    errors = []
    if bool(result["violation"]) != exp["violation"]:
        errors.append(f"violation reported {result['violation']}, expected {exp['violation']}")
    psi = vector_of(result["state_re"], result["state_im"])
    rank = schmidt_rank(psi, n, n)
    if rank > k:
        errors.append(f"probe state of Schmidt rank {rank} > {k}")
    mapped = map_on_blocks(spec, np.outer(psi, psi.conj()))
    lo = float(np.linalg.eigvalsh((mapped + mapped.conj().T) / 2)[0])
    value = result["min_eigenvalue"]
    if abs(lo - value) > WITNESS_ATOL:
        errors.append(f"probe eigenvalue {value!r} != recomputed {lo!r}")
    if abs(value - exp["value"]) > PROBE_ATOL:
        errors.append(f"probe minimum {value!r} != analytic {exp['value']!r}")
    return errors


def check_demo(payload: dict) -> list[str]:
    """construct_twirl: 1152 equal weights, Schmidt rank <= 2 members, and a
    mixture equal to rho (x) rho at F = 1/sqrt(2)."""
    members = payload["members"]
    if len(members) != 1152:
        return [f"ensemble has {len(members)} members, expected 1152"]
    errors = []
    probs = np.array([m["p"] for m in members], dtype=np.float64)
    if float(np.ptp(probs)) != 0.0:
        errors.append(f"ensemble weights differ by {np.ptp(probs):.3e}")
    errors += check_ensemble(payload, two_copy_state(F_TWO_COPY), 2, DEMO_ATOL)
    return errors


def check_twirl(payload: dict, exp: dict) -> list[str]:
    """construct_twirl: the MC twirl keeps F, is a unit-trace Hermitian
    matrix, and lies within TWIRL_SIGMAS delta / sqrt(samples) of the exact
    twirl F P+ + (1-F)(1-P+)/(N^2-1)."""
    n, rho, samples = exp["n"], exp["rho"], exp["samples"]
    out = matrix_of(payload)
    v = psi_plus(n)
    f_in = float((v.conj() @ rho @ v).real)
    f_out = float((v.conj() @ out @ v).real)
    errors = []
    if abs(f_out - f_in) > TWIRL_F_ATOL:
        errors.append(f"twirl moved F from {f_in!r} to {f_out!r}")
    if abs(float(np.trace(out).real) - 1.0) > TWIRL_ATOL:
        errors.append(f"twirl output has trace {np.trace(out)!r}")
    if float(np.max(np.abs(out - out.conj().T))) > TWIRL_ATOL:
        errors.append("twirl output is not Hermitian")
    exact = isotropic_matrix(n, f_in)
    delta = float(np.linalg.norm(rho - exact))
    bound = TWIRL_SIGMAS * delta / math.sqrt(samples) + TWIRL_ATOL
    dist = float(np.linalg.norm(out - exact))
    if dist > bound:
        errors.append(f"twirl output is {dist:.3e} from the exact twirl (bound {bound:.3e})")
    return errors


def check_op(exp: dict) -> list[str]:
    """Check the output file of one operation against its expectation."""
    payload = load_json(exp["out"])
    kind = exp["check"]
    if kind == "upper":
        return check_upper_report(payload, exp)
    if kind == "lower":
        return check_lower_report(payload, exp)
    if kind == "probe":
        return check_probe(payload, exp)
    if kind == "demo":
        return check_demo(payload)
    if kind == "twirl":
        return check_twirl(payload, exp)
    raise ValueError(f"unknown check {kind!r}")
