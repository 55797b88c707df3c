"""File formats: JSON matrices, ensembles, and certification reports.

Floats are serialized with 17 significant decimal digits, which round-trips
IEEE-754 doubles exactly, so writing and re-reading a matrix reproduces the
binary entries bit for bit and repeated runs produce byte-identical files.
The certificate classes in certify build their own payloads and parse them
with the field parsers here, which raise InvariantViolation on bad input.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .linalg import BipartiteIndex, InvariantViolation
from .states import DensityMatrix
from .twirl import PureEnsemble


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise InvariantViolation(f"cannot serialize non-finite float {x}")
    return f"{x:.17g}"


def dumps(obj) -> str:
    """Serialize nested dict/list/scalar data with fixed float formatting,
    one space of indent per level."""
    pieces = []
    _write(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _write(obj, out: list, level: int) -> None:
    pad = " " * level
    inner = " " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{inner}{json.dumps(str(key))}: ")
            _write(value, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        if all(type(v) is float for v in obj) and all(map(math.isfinite, obj)):
            # The common case, a row of amplitudes or matrix entries: the
            # text of format_float, with its checks made once for the row.
            out.append("[" + ", ".join(map("{:.17g}".format, obj)) + "]")
            return
        scalars = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if scalars:
            out.append("[" + ", ".join(_scalar(v) for v in obj) + "]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(inner)
            _write(value, out, level + 1)
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
    return {"d_a": idx.d_a, "d_b": idx.d_b, "re": m.real.tolist(), "im": m.imag.tolist()}


def _require(payload, fields, what: str) -> None:
    """Raise InvariantViolation unless payload is a JSON object holding
    every one of fields."""
    if not isinstance(payload, dict):
        raise InvariantViolation(f"{what} must contain a JSON object")
    for field in fields:
        if field not in payload:
            raise InvariantViolation(f"{what} is missing field {field!r}")


def _require_list(payload, field: str, what: str) -> list:
    """payload[field], which must be a JSON array."""
    value = payload[field]
    if not isinstance(value, list):
        raise InvariantViolation(f"{what} field {field!r} must be an array, got {value!r}")
    return value


def _parse_number(payload, field: str, cast=float):
    """payload[field] as a finite float, or as an int with cast=int."""
    value = payload[field]
    kinds = int if cast is int else (int, float)
    if (isinstance(value, bool) or not isinstance(value, kinds)
            or (isinstance(value, float) and not math.isfinite(value))):
        expected = "an integer" if cast is int else "a finite number"
        raise InvariantViolation(f"{field} must be {expected}, got {value!r}")
    return cast(value)


def _parse_index(payload) -> BipartiteIndex:
    return BipartiteIndex(_parse_number(payload, "d_a", int), _parse_number(payload, "d_b", int))


def _parse_blocks(payload, re_field: str, im_field: str, shape: tuple) -> np.ndarray:
    """payload[re_field] + 1j * payload[im_field]; both blocks must be arrays
    of finite numbers of the given shape."""
    try:
        re = np.asarray(payload[re_field], dtype=np.float64)
        im = np.asarray(payload[im_field], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvariantViolation(f"{re_field}/{im_field} are not arrays of numbers: {exc}") from exc
    if re.shape != shape or im.shape != shape:
        raise InvariantViolation(f"{re_field}/{im_field} have shape {re.shape}/{im.shape}, "
                                 f"expected {shape}")
    # Checked before combining: re + 1j * im warns on an infinite entry.
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise InvariantViolation(f"{re_field}/{im_field} have a NaN or infinite entry")
    return re + 1j * im


def loads(text: str):
    """Parse JSON text. The "-0" that dumps writes for -0.0 reads back as
    -0.0, not as the integer 0, so negative zeros round-trip too. Nesting
    too deep for the parser, and an integer too long for int(), are
    malformed input as well."""
    try:
        return json.loads(text, parse_int=lambda s: -0.0 if s == "-0" else int(s))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise InvariantViolation(f"malformed JSON: {exc}") from exc


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InvariantViolation(f"file is not UTF-8 text: {exc}") from exc
    return loads(text)


def parse_matrix_payload(payload) -> tuple[np.ndarray, BipartiteIndex]:
    _require(payload, ("d_a", "d_b", "re", "im"), "matrix file")
    idx = _parse_index(payload)
    return _parse_blocks(payload, "re", "im", (idx.dim, idx.dim)), idx


def write_matrix_file(path, matrix: np.ndarray, idx: BipartiteIndex) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(matrix_payload(matrix, idx)))


def read_matrix_file(path, raw: bool = False):
    """Load a matrix file. By default the content must be a valid density
    matrix; with raw=True any (Hermitian or not) matrix is returned as
    (matrix, idx)."""
    matrix, idx = parse_matrix_payload(_load_json(path))
    if raw:
        return matrix, idx
    return DensityMatrix(matrix, idx)


# ---------------------------------------------------------------- ensembles


def ensemble_payload(ens: PureEnsemble) -> dict:
    members = [{"p": p, "re": re, "im": im} for p, re, im in
               zip(ens.probs.tolist(), ens.amps.real.tolist(), ens.amps.imag.tolist())]
    return {"d_a": ens.idx.d_a, "d_b": ens.idx.d_b, "members": members}


def parse_ensemble_payload(payload) -> PureEnsemble:
    _require(payload, ("d_a", "d_b", "members"), "ensemble")
    idx = _parse_index(payload)
    probs = []
    amps = []
    for member in _require_list(payload, "members", "ensemble"):
        _require(member, ("p", "re", "im"), "ensemble member")
        probs.append(_parse_number(member, "p"))
        amps.append(_parse_blocks(member, "re", "im", (idx.dim,)))
    return PureEnsemble(np.asarray(probs), np.reshape(amps, (len(amps), idx.dim)), idx)


def write_ensemble_file(path, ens: PureEnsemble) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(ensemble_payload(ens)))


def read_ensemble_file(path) -> PureEnsemble:
    return parse_ensemble_payload(_load_json(path))


# ------------------------------------------------------------------ reports


def write_report_file(path, report) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(report.to_payload()))


def read_report_file(path):
    from .certify import SnReport  # certify imports this module at load time

    return SnReport.from_payload(_load_json(path))
