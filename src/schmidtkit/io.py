"""File formats: JSON matrices, ensembles, and certification reports.

Floats are serialized with 17 significant decimal digits, which round-trips
IEEE-754 doubles exactly, so writing and re-reading a matrix reproduces the
binary entries bit for bit and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .certify import (
    EnsembleUpper,
    FidelityBound,
    IsotropicExact,
    MapWitness,
    SnReport,
)
from .linalg import BipartiteIndex, InvariantViolation
from .states import DensityMatrix, PureBipartiteState
from .twirl import PureEnsemble


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise InvariantViolation(f"cannot serialize non-finite float {x}")
    return f"{x:.17g}"


def dumps(obj, indent: int = 1) -> str:
    """Serialize nested dict/list/scalar data with fixed float formatting."""
    pieces = []
    _write(obj, pieces, indent, 0)
    pieces.append("\n")
    return "".join(pieces)


def _write(obj, out: list, indent: int, level: int) -> None:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{inner}{json.dumps(str(key))}: ")
            _write(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        scalars = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if scalars:
            out.append("[" + ", ".join(_scalar(v) for v in obj) + "]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(inner)
            _write(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(obj))


def _scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    if isinstance(v, str):
        return json.dumps(v)
    raise InvariantViolation(f"cannot serialize value of type {type(v).__name__}")


# ---------------------------------------------------------------- matrices


def matrix_payload(matrix: np.ndarray, idx: BipartiteIndex) -> dict:
    m = np.asarray(matrix, dtype=np.complex128)
    return {
        "d_a": idx.d_a,
        "d_b": idx.d_b,
        "re": [[float(x) for x in row] for row in m.real],
        "im": [[float(x) for x in row] for row in m.imag],
    }


def _require(payload, fields, what: str) -> None:
    """Raise InvariantViolation unless payload is a JSON object holding
    every one of fields."""
    if not isinstance(payload, dict):
        raise InvariantViolation(f"{what} must contain a JSON object")
    for field in fields:
        if field not in payload:
            raise InvariantViolation(f"{what} is missing field {field!r}")


def _parse_index(payload) -> BipartiteIndex:
    dims = []
    for field in ("d_a", "d_b"):
        try:
            dims.append(int(payload[field]))
        except (TypeError, ValueError) as exc:
            raise InvariantViolation(
                f"{field} must be an integer, got {payload[field]!r}"
            ) from exc
    return BipartiteIndex(*dims)


def parse_matrix_payload(payload) -> tuple[np.ndarray, BipartiteIndex]:
    _require(payload, ("d_a", "d_b", "re", "im"), "matrix file")
    idx = _parse_index(payload)
    try:
        re = np.asarray(payload["re"], dtype=np.float64)
        im = np.asarray(payload["im"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvariantViolation(f"matrix blocks are not arrays of numbers: {exc}") from exc
    d = idx.dim
    if re.shape != (d, d) or im.shape != (d, d):
        raise InvariantViolation(
            f"matrix blocks have shape {re.shape}/{im.shape}, expected ({d}, {d})"
        )
    # Checked before combining: re + 1j * im warns on an infinite entry.
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise InvariantViolation("matrix has a NaN or infinite entry")
    return re + 1j * im, idx


def write_matrix_file(path, matrix: np.ndarray, idx: BipartiteIndex) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(matrix_payload(matrix, idx)))


def read_matrix_file(path, raw: bool = False):
    """Load a matrix file. By default the content must be a valid density
    matrix; with raw=True any (Hermitian or not) matrix is returned as
    (matrix, idx)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvariantViolation(f"malformed JSON: {exc}") from exc
    matrix, idx = parse_matrix_payload(payload)
    if raw:
        return matrix, idx
    return DensityMatrix(matrix, idx)


# ---------------------------------------------------------------- ensembles


def ensemble_payload(ens: PureEnsemble) -> dict:
    return {
        "d_a": ens.idx.d_a,
        "d_b": ens.idx.d_b,
        "members": [
            {
                "p": float(p),
                "re": [float(x) for x in st.amplitudes.real],
                "im": [float(x) for x in st.amplitudes.imag],
            }
            for p, st in zip(ens.probs, ens.states)
        ],
    }


def parse_ensemble_payload(payload) -> PureEnsemble:
    _require(payload, ("d_a", "d_b", "members"), "ensemble")
    idx = _parse_index(payload)
    probs = []
    states = []
    for member in payload["members"]:
        _require(member, ("p", "re", "im"), "ensemble member")
        probs.append(float(member["p"]))
        amp = np.asarray(member["re"], dtype=np.float64) + 1j * np.asarray(
            member["im"], dtype=np.float64
        )
        states.append(PureBipartiteState(amp, idx))
    return PureEnsemble(np.asarray(probs), tuple(states))


def write_ensemble_file(path, ens: PureEnsemble) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(ensemble_payload(ens)))


def read_ensemble_file(path) -> PureEnsemble:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvariantViolation(f"malformed JSON: {exc}") from exc
    return parse_ensemble_payload(payload)


# ------------------------------------------------------------------ reports


def _certificate_payload(cert) -> dict:
    if cert.kind == "map_witness":
        return {
            "kind": "map_witness",
            "map": cert.map_kind,
            "p": None if cert.p is None else float(cert.p),
            "k": cert.k,
            "min_eigenvalue": float(cert.min_eigenvalue),
        }
    if cert.kind == "fidelity_bound":
        return {
            "kind": "fidelity_bound",
            "f_hat": float(cert.f_hat),
            "sn_bound": cert.sn_bound,
            "d_a": cert.state.idx.d_a,
            "d_b": cert.state.idx.d_b,
            "psi_re": [float(x) for x in cert.state.amplitudes.real],
            "psi_im": [float(x) for x in cert.state.amplitudes.imag],
        }
    if cert.kind == "ensemble_upper":
        return {
            "kind": "ensemble_upper",
            "k": cert.k,
            "residual": float(cert.residual),
            "ensemble": ensemble_payload(cert.ensemble),
        }
    if cert.kind == "isotropic_exact":
        return {
            "kind": "isotropic_exact",
            "n": cert.n,
            "f": float(cert.f),
            "k": cert.k,
        }
    raise InvariantViolation(f"unknown certificate kind {cert.kind!r}")


def _parse_certificate(payload):
    _require(payload, ("kind",), "certificate")
    kind = payload["kind"]
    if kind == "map_witness":
        _require(payload, ("map", "p", "k", "min_eigenvalue"), "map_witness certificate")
        return MapWitness(
            map_kind=payload["map"],
            p=None if payload["p"] is None else float(payload["p"]),
            k=int(payload["k"]),
            min_eigenvalue=float(payload["min_eigenvalue"]),
        )
    if kind == "fidelity_bound":
        _require(payload, ("f_hat", "sn_bound", "d_a", "d_b", "psi_re", "psi_im"),
                 "fidelity_bound certificate")
        idx = BipartiteIndex(int(payload["d_a"]), int(payload["d_b"]))
        amp = np.asarray(payload["psi_re"], dtype=np.float64) + 1j * np.asarray(
            payload["psi_im"], dtype=np.float64
        )
        return FidelityBound(
            f_hat=float(payload["f_hat"]),
            state=PureBipartiteState(amp, idx),
            sn_bound=int(payload["sn_bound"]),
        )
    if kind == "ensemble_upper":
        _require(payload, ("k", "residual", "ensemble"), "ensemble_upper certificate")
        return EnsembleUpper(
            ensemble=parse_ensemble_payload(payload["ensemble"]),
            k=int(payload["k"]),
            residual=float(payload["residual"]),
        )
    if kind == "isotropic_exact":
        _require(payload, ("n", "f", "k"), "isotropic_exact certificate")
        return IsotropicExact(n=int(payload["n"]), f=float(payload["f"]), k=int(payload["k"]))
    raise InvariantViolation(f"unknown certificate kind {kind!r}")


def report_payload(report: SnReport) -> dict:
    return {
        "lower_bound": report.lower_bound,
        "upper_bound": report.upper_bound,
        "certificates": [_certificate_payload(c) for c in report.certificates],
    }


def parse_report_payload(payload) -> SnReport:
    _require(payload, ("lower_bound", "upper_bound", "certificates"), "report")
    return SnReport(
        lower_bound=int(payload["lower_bound"]),
        upper_bound=None if payload["upper_bound"] is None else int(payload["upper_bound"]),
        certificates=tuple(_parse_certificate(c) for c in payload["certificates"]),
    )


def write_report_file(path, report: SnReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(report_payload(report)))


def read_report_file(path) -> SnReport:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvariantViolation(f"malformed JSON: {exc}") from exc
    return parse_report_payload(payload)
