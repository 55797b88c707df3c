"""File formats: JSON matrices, ensembles, and certification reports.

Every file is one line of JSON written by the standard library's encoder,
which spells each float as its repr: the shortest text that reads back to
the same double, signed zeros included. Writing and re-reading a matrix
reproduces the binary entries bit for bit, and repeated runs produce
byte-identical files.
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
    """The text dumps writes for a finite float, for the CLI's text outputs."""
    x = float(x)
    if not math.isfinite(x):
        raise InvariantViolation(f"cannot serialize non-finite float {x}")
    return repr(x)


def dumps(obj) -> str:
    """Serialize nested dict/list/scalar data as one line of JSON."""
    try:
        return json.dumps(obj, allow_nan=False) + "\n"
    except (ValueError, TypeError) as exc:  # a NaN or infinity, or a type JSON cannot hold
        raise InvariantViolation(f"cannot serialize: {exc}") from exc


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
    expected = "an integer" if cast is int else "a finite number"
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise InvariantViolation(f"{field} must be {expected}, got {value!r}")
    try:
        value = cast(value)
    except OverflowError as exc:  # an integer too large for a double
        raise InvariantViolation(f"{field} must be {expected}: {exc}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise InvariantViolation(f"{field} must be {expected}, got {value!r}")
    return value


def _parse_index(payload) -> BipartiteIndex:
    return BipartiteIndex(_parse_number(payload, "d_a", int), _parse_number(payload, "d_b", int))


def _parse_blocks(re, im, shape: tuple, what: str) -> np.ndarray:
    """re + 1j * im; both blocks must be arrays of finite numbers of the
    given shape. what names the blocks in messages."""
    try:
        re = np.asarray(re, dtype=np.float64)
        im = np.asarray(im, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: an integer past 1.8e308
        raise InvariantViolation(f"{what} are not arrays of numbers: {exc}") from exc
    if re.shape != shape or im.shape != shape:
        raise InvariantViolation(f"{what} have shape {re.shape}/{im.shape}, expected {shape}")
    # Checked before combining: re + 1j * im warns on an infinite entry.
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise InvariantViolation(f"{what} have a NaN or infinite entry")
    return re + 1j * im


def loads(text: str):
    """Parse JSON text. Nesting too deep for the parser, and an integer too
    long for int(), are malformed input as well."""
    try:
        return json.loads(text)
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
    return _parse_blocks(payload["re"], payload["im"], (idx.dim, idx.dim), "re/im"), idx


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
    members = _require_list(payload, "members", "ensemble")
    if not members:
        raise InvariantViolation("ensemble has no members")
    for member in members:
        _require(member, ("p", "re", "im"), "ensemble member")
    probs = [_parse_number(member, "p") for member in members]
    amps = _parse_blocks([m["re"] for m in members], [m["im"] for m in members],
                         (len(members), idx.dim), "members' re/im")
    return PureEnsemble(np.asarray(probs), amps, idx)


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
