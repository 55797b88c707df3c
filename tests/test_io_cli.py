import argparse
import contextlib
import hashlib
import io as io_module
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_density, random_separable, random_unitary, rotated, tilted_isotropic
from schmidtkit import cli, io, kernels
from schmidtkit.certify import IsotropicExact, MapWitness, analyze, verify_report
from schmidtkit.cli import main
from schmidtkit.linalg import BipartiteIndex, InvariantViolation
from schmidtkit.maps import transpose_map
from schmidtkit.states import (
    DensityMatrix,
    isotropic,
    max_entangled,
    max_entangled_vector,
    tensor_copies,
)
from schmidtkit.twirl import PureEnsemble, two_copy_construction

F_TIGHT = 1 / np.sqrt(2)
TOO_BIG = 10**400  # a JSON integer that no double holds


def write_state(path, rho):
    io.write_matrix_file(path, rho.matrix, rho.idx)
    return str(path)


# ----------------------------------------------------------------- formats


def test_format_float_round_trip():
    values = [0.1, 1 / 3, np.pi, 1e-300, 5e17, -0.0, 0.5, 1 - 1e-16]
    for x in values:
        assert float(io.format_float(x)) == x
    with pytest.raises(InvariantViolation):
        io.format_float(float("nan"))


def test_negative_zero_round_trips():
    text = io.dumps({"x": -0.0, "ys": [0.0, -0.0, -0.5]})
    back = io.loads(text)
    assert [np.copysign(1.0, v) for v in [back["x"], *back["ys"]]] == [-1.0, 1.0, -1.0, -1.0]
    assert io.dumps(back) == text


# Signed zeros, the smallest and largest subnormals, the smallest normal, and
# magnitudes near the largest normal.
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072009e-308,
                               2.2250738585072014e-308, 1e308, -1e308])
FINITE_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), EDGE_FLOATS)


PAYLOADS = st.recursive(
    FINITE_FLOATS | st.integers() | st.booleans() | st.none() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(max_size=4), children, max_size=6),
    max_leaves=40,
)


def _bits(obj):
    """obj with every float replaced by its exact hex spelling, which keeps
    the sign of a zero."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {key: _bits(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_bits(value) for value in obj]
    return obj


def _with_value_inserted(payload, value, data):
    """payload with value put into one of its lists or objects, or wrapped
    in a list when payload is a scalar."""
    containers = []

    def collect(obj):
        if isinstance(obj, (dict, list)):
            containers.append(obj)
            for child in obj.values() if isinstance(obj, dict) else obj:
                collect(child)

    collect(payload)
    if not containers:
        return [payload, value]
    target = data.draw(st.sampled_from(containers))
    if isinstance(target, dict):
        target[data.draw(st.text(max_size=4))] = value
    else:
        target.insert(data.draw(st.integers(0, len(target))), value)
    return payload


@settings(max_examples=200, deadline=None)
@given(PAYLOADS, st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_dumps_round_trips_floats_and_rejects_what_json_cannot_hold(payload, bad, data):
    text = io.dumps(payload)
    assert _bits(io.loads(text)) == _bits(payload)
    assert "\n" not in text[:-1] and text.endswith("\n")
    with pytest.raises(InvariantViolation, match="cannot serialize"):
        io.dumps(_with_value_inserted(io.loads(text), bad, data))
    with pytest.raises(InvariantViolation, match="cannot serialize"):
        io.dumps(_with_value_inserted(io.loads(text), object(), data))


# Files as the writer before the standard encoder made them: one space of
# indent per level, %.17g floats, and -0.0 written as the integer token -0.
OLD_MATRIX_FILE = """{
 "d_a": 1,
 "d_b": 2,
 "re": [[0.29999999999999999, 0.10000000000000001], [0.10000000000000001, 0.69999999999999996]],
 "im": [[0, -0.20000000000000001], [0.20000000000000001, -0]]
}
"""
OLD_ENSEMBLE_FILE = """{
 "d_a": 1,
 "d_b": 2,
 "members": [
  {
   "p": 0.33333333333333331,
   "re": [1, -0],
   "im": [-0, 0]
  },
  {
   "p": 0.66666666666666663,
   "re": [0.70710678118654746, 0.70710678118654746],
   "im": [0, -0]
  }
 ]
}
"""
OLD_REPORT_FILE = """{
 "lower_bound": 2,
 "upper_bound": 2,
 "certificates": [
  {
   "kind": "isotropic_exact",
   "n": 2,
   "f": 0.80000000000000004,
   "k": 2
  },
  {
   "kind": "map_witness",
   "map": "reduction",
   "p": 1,
   "k": 1,
   "min_eigenvalue": -0.30000000000000004
  }
 ]
}
"""


def test_files_in_the_old_layout_read_to_the_same_doubles(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(OLD_MATRIX_FILE)
    rho = io.read_matrix_file(path)
    assert rho.idx == BipartiteIndex(1, 2)
    # -0 reads as +0.0, equal in value to the -0.0 it stood for.
    assert np.array_equal(rho.matrix, np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, 0.7]]))

    path.write_text(OLD_ENSEMBLE_FILE)
    ens = io.read_ensemble_file(path)
    assert np.array_equal(ens.probs, [1 / 3, 2 / 3])
    assert np.array_equal(ens.amps, [[1, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)]])

    # An isotropic_exact now names its frame psi; one without it is rejected.
    path.write_text(OLD_REPORT_FILE)
    with pytest.raises(InvariantViolation, match="missing field 'psi_re'"):
        io.read_report_file(path)
    exact, witness = io.loads(OLD_REPORT_FILE)["certificates"]
    plus = max_entangled_vector(2)
    exact = IsotropicExact.from_payload(
        dict(exact, psi_re=plus.real.tolist(), psi_im=plus.imag.tolist()))
    witness = MapWitness.from_payload(witness)
    assert (exact.n, exact.f, exact.k) == (2, 0.8, 2)
    assert (witness.map_kind, witness.p, witness.k) == ("reduction", 1.0, 1)
    assert witness.min_eigenvalue == 0.1 - 0.4


def test_matrix_file_round_trip_exact(tmp_path):
    rng = np.random.default_rng(40)
    rho = random_density(2, 3, rng)
    path = tmp_path / "state.json"
    io.write_matrix_file(path, rho.matrix, rho.idx)
    loaded = io.read_matrix_file(path)
    assert np.array_equal(loaded.matrix, rho.matrix)
    assert loaded.idx == rho.idx


def test_matrix_file_rejects_invalid(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvariantViolation, match="malformed JSON"):
        io.read_matrix_file(path)
    io.write_matrix_file(path, np.eye(4), BipartiteIndex(2, 2))
    with pytest.raises(InvariantViolation, match="trace"):
        io.read_matrix_file(path)
    matrix, idx = io.read_matrix_file(path, raw=True)
    assert np.array_equal(matrix, np.eye(4))


def test_ensemble_file_round_trip(tmp_path):
    ensemble = two_copy_construction()
    path = tmp_path / "ens.json"
    io.write_ensemble_file(path, ensemble)
    loaded = io.read_ensemble_file(path)
    assert loaded.idx == ensemble.idx
    assert np.array_equal(loaded.probs, ensemble.probs)
    assert np.array_equal(loaded.amps, ensemble.amps)


def _ensemble_file_with(tmp_path, edit):
    # No command reads an ensemble file, so the readers are called directly;
    # the CLI turns their InvariantViolation into exit code 2, "invalid input".
    path = tmp_path / "ens.json"
    bell = max_entangled(2)
    io.write_ensemble_file(path, PureEnsemble(np.ones(1), bell.amplitudes[None], bell.idx))
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("entry", [float("nan"), float("inf")])
def test_ensemble_file_rejects_non_finite_amplitude(tmp_path, entry):
    def edit(payload):
        payload["members"][0]["re"][0] = entry

    with pytest.raises(InvariantViolation, match="NaN or infinite"):
        io.read_ensemble_file(_ensemble_file_with(tmp_path, edit))


@pytest.mark.parametrize("edit", [
    lambda payload: payload.pop("d_b"),
    lambda payload: payload.pop("members"),
    lambda payload: payload["members"][0].pop("p"),
    lambda payload: payload["members"][0].pop("im"),
    lambda payload: payload.__setitem__("members", [1.0]),
    lambda payload: [payload.pop(key) for key in ("d_b", "members")],  # {"d_a": 2}
])
def test_ensemble_file_rejects_missing_fields(tmp_path, edit):
    with pytest.raises(InvariantViolation):
        io.read_ensemble_file(_ensemble_file_with(tmp_path, edit))


def _corrupt_member(payload, kind, i, x):
    members = payload["members"]
    member = members[i]
    if kind == "norm":
        member["re"] = [v * (1.0 + x) for v in member["re"]]
        member["im"] = [v * (1.0 + x) for v in member["im"]]
    elif kind == "non-finite":
        member["im"][0] = x
    elif kind == "row length":
        member["re"] = member["re"][:-1] if x else member["re"] + [0.0]
        member["im"] = member["im"][:-1] if x else member["im"] + [0.0]
    elif kind == "negative weight":
        member["p"] = -x
        members[i - 1]["p"] += x  # keeps the sum at 1 when there is another member
    elif kind == "weight sum":
        member["p"] += x
    else:
        payload["members"] = []


malformed = st.one_of(
    st.tuples(st.just("norm"), st.floats(2e-10, 0.5) | st.floats(-0.5, -2e-10)),
    st.tuples(st.just("non-finite"), st.sampled_from([float("nan"), float("inf"), -float("inf")])),
    st.tuples(st.just("row length"), st.booleans()),
    st.tuples(st.just("negative weight"), st.floats(1e-9, 1.0)),
    st.tuples(st.just("weight sum"), st.sampled_from([1e-9, -1e-9])),
    st.tuples(st.just("empty"), st.none()),
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d_b=st.integers(2, 3), m=st.integers(1, 4),
       data=st.data(), corruption=malformed)
def test_malformed_ensemble_files_are_invalid_input(seed, d_b, m, data, corruption):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(m, 2 * d_b)) + 1j * rng.normal(size=(m, 2 * d_b))
    ens = PureEnsemble(rng.dirichlet(np.ones(m)), amps / np.linalg.norm(amps, axis=1)[:, None],
                       BipartiteIndex(2, d_b))
    payload = io.loads(io.dumps(io.ensemble_payload(ens)))
    kind, x = corruption
    _corrupt_member(payload, kind, data.draw(st.integers(0, m - 1)), x)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ens.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload))
        with pytest.raises(InvariantViolation):
            io.read_ensemble_file(path)
        # No command reads an ensemble file; a handler that does stands in
        # for one, to show the reader's error becomes exit code 2.
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(cli._HANDLERS, "twirl", lambda args: io.read_ensemble_file(args.input))
            assert main(["twirl", "--input", path, "--out", path]) == cli.EXIT_INVALID


@pytest.mark.parametrize("drop", [
    ("lower_bound",), ("certificates",), ("certificates", 0, "kind"),
    ("certificates", 0, "k"), ("certificates", 1, "min_eigenvalue"),
])
def test_report_file_rejects_missing_fields(tmp_path, drop):
    path = tmp_path / "report.json"
    io.write_report_file(path, analyze(isotropic(2, 0.8), seed=0))
    payload = json.loads(path.read_text())
    target = payload
    for key in drop[:-1]:
        target = target[key]
    del target[drop[-1]]
    path.write_text(json.dumps(payload))
    with pytest.raises(InvariantViolation, match="missing field"):
        io.read_report_file(path)


def _report_file_with(tmp_path, edit, rho=None):
    path = tmp_path / "report.json"
    io.write_report_file(path, analyze(isotropic(2, 0.8) if rho is None else rho, seed=0))
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


def _certificate(payload, **fields):
    return next(c for c in payload["certificates"]
                if all(c.get(key) == value for key, value in fields.items()))


@pytest.mark.parametrize("reader, make, edit", [
    (io.read_ensemble_file, _ensemble_file_with,
     lambda payload: payload["members"][0].__setitem__("p", "x")),
    (io.read_ensemble_file, _ensemble_file_with,
     lambda payload: payload["members"][0].__setitem__("re", ["x", 0, 0, 0])),
    (io.read_report_file, _report_file_with,
     lambda payload: payload.__setitem__("lower_bound", "x")),
    (io.read_report_file, _report_file_with,
     lambda payload: _certificate(payload, kind="isotropic_exact").__setitem__("n", "x")),
    (io.read_report_file, _report_file_with,
     lambda payload: _certificate(payload, kind="fidelity_bound").__setitem__("d_a", "x")),
    (io.read_ensemble_file, _ensemble_file_with,
     lambda payload: payload["members"][0].__setitem__("p", TOO_BIG)),
    (io.read_ensemble_file, _ensemble_file_with,
     lambda payload: payload["members"][0].__setitem__("re", [TOO_BIG, 0, 0, 0])),
    (io.read_report_file, _report_file_with,
     lambda payload: _certificate(payload, map="reduction").__setitem__("p", TOO_BIG)),
])
def test_readers_reject_non_numeric_values(tmp_path, reader, make, edit):
    with pytest.raises(InvariantViolation):
        reader(make(tmp_path, edit))


@pytest.mark.parametrize("reader, make, field", [
    (io.read_ensemble_file, _ensemble_file_with, "members"),
    (io.read_report_file, _report_file_with, "certificates"),
])
def test_readers_reject_non_array_lists(tmp_path, reader, make, field):
    with pytest.raises(InvariantViolation, match="must be an array"):
        reader(make(tmp_path, lambda payload: payload.__setitem__(field, 5)))


@pytest.mark.parametrize("value", [float("-inf"), float("nan")], ids=["-Infinity", "NaN"])
def test_report_file_rejects_a_non_finite_eigenvalue(tmp_path, value):
    # json.loads reads -Infinity and NaN; the field parser must not.
    path = _report_file_with(tmp_path, lambda payload: _certificate(
        payload, map="reduction").__setitem__("min_eigenvalue", value))
    assert ("NaN" if value != value else "-Infinity") in path.read_text()
    with pytest.raises(InvariantViolation, match="min_eigenvalue must be a finite number"):
        io.read_report_file(path)


def test_report_file_rejects_non_square_fidelity_bound(tmp_path):
    def widen(payload):
        cert = _certificate(payload, kind="fidelity_bound")
        cert["d_b"] = 3
        cert["psi_re"] += [0.0, 0.0]
        cert["psi_im"] += [0.0, 0.0]

    with pytest.raises(InvariantViolation, match="square"):
        io.read_report_file(_report_file_with(tmp_path, widen))


def test_report_file_rejects_unbacked_bound(tmp_path):
    rho = random_separable(2, 2, 4, np.random.default_rng(42))

    def raise_lower(payload):
        assert (payload["lower_bound"], payload["upper_bound"]) == (1, None)
        payload["lower_bound"] = 2

    with pytest.raises(InvariantViolation, match="differ"):
        io.read_report_file(_report_file_with(tmp_path, raise_lower, rho))


def test_map_witness_rejects_bad_map(tmp_path):
    for map_kind, p in (("reduction", None), ("transpose", 0.5), ("swap", None),
                        ("reduction", 2.0), ("reduction", 0.0), ("reduction", -1.0)):
        with pytest.raises(InvariantViolation, match="witness"):
            MapWitness(map_kind, p, 1, -0.1)
    for fields in ({"p": None}, {"map": "swap"}, {"p": 2.0}):
        path = _report_file_with(
            tmp_path, lambda payload: _certificate(payload, map="reduction").update(fields)
        )
        with pytest.raises(InvariantViolation, match="witness"):
            io.read_report_file(path)


def test_report_round_trip_and_reverify(tmp_path):
    from schmidtkit import analyze

    rho = isotropic(2, F_TIGHT)
    report = analyze(rho, search_upper=2, seed=0)
    path = tmp_path / "report.json"
    io.write_report_file(path, report)
    loaded = io.read_report_file(path)
    assert loaded.lower_bound == report.lower_bound
    assert loaded.upper_bound == report.upper_bound
    assert verify_report(loaded, rho)


# --------------------------------------------------------------------- CLI


def test_cli_isotropic(capsys):
    assert main(["isotropic", "--n", "2", "--f", "0.75"]) == 0
    out = capsys.readouterr().out
    assert "Schmidt number 2" in out
    assert main(["isotropic", "--n", "4", "--f", "0.6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schmidt_number"] == 3
    assert main(["isotropic", "--n", "3", "--f", "0.2"]) == 0
    assert "Schmidt number 1" in capsys.readouterr().out


def test_cli_isotropic_rejects_bad_f(capsys):
    assert main(["isotropic", "--n", "3", "--f", "1.5"]) == 2
    assert "invalid input" in capsys.readouterr().err


def test_cli_isotropic_emit_state(tmp_path, capsys):
    path = tmp_path / "iso.json"
    assert main(["isotropic", "--n", "3", "--f", "0.8", "--emit-state", str(path)]) == 0
    capsys.readouterr()
    loaded = io.read_matrix_file(path)
    assert np.allclose(loaded.matrix, isotropic(3, 0.8).matrix)


def test_cli_analyze_isotropic(tmp_path, capsys):
    path = write_state(tmp_path / "in.json", isotropic(3, 0.8))
    assert main(["analyze", "--input", path, "--json", "--seed", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower_bound"] == 3


def test_cli_analyze_invalid_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    io.write_matrix_file(path, np.eye(4) / 2, BipartiteIndex(2, 2))
    assert main(["analyze", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "trace" in err  # names the violated invariant
    assert main(["analyze", "--input", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("vectors", ["0", "-1"])
def test_cli_analyze_rejects_bad_search_vectors(tmp_path, capsys, vectors):
    # The ansatz size is fixed at 2 d_a d_b; the option no longer exists.
    path = write_state(tmp_path / "in.json", isotropic(2, 0.3))
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", "--input", path, "--search-upper", "1", "--search-vectors", vectors])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --search-vectors" in capsys.readouterr().err


def _unreadable_input(tmp_path, kind):
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "bad.json"
    if kind == "not utf-8":
        path.write_bytes(b'{"d_a": 2, "d_b": \xff}')
    elif kind == "deep nesting":  # deeper than the JSON parser recurses
        path.write_text("[" * 100000 + "]" * 100000)
    else:  # more digits than int() converts
        path.write_text('{"d_a": ' + "1" * 5000 + "}")
    return str(path)


@pytest.mark.parametrize("kind", ["directory", "not utf-8", "deep nesting", "huge integer"])
@pytest.mark.parametrize("command", ["analyze", "probe-map", "twirl"])
def test_cli_unreadable_input_is_invalid_input(tmp_path, capsys, kind, command):
    path = _unreadable_input(tmp_path, kind)
    argv = {"analyze": ["analyze", "--input", path],
            "probe-map": ["probe-map", "--choi", path, "--k", "1"],
            "twirl": ["twirl", "--input", path, "--out", str(tmp_path / "out.json")]}[command]
    assert main(argv) == 2
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("restarts", ["0", "-3"])
@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3)])
def test_cli_analyze_rejects_bad_restarts(tmp_path, capsys, restarts, d_a, d_b):
    # The fidelity bound is one step with no restarts; the option no longer exists.
    rho = random_density(d_a, d_b, np.random.default_rng(34))
    path = write_state(tmp_path / "in.json", rho)
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", "--input", path, "--restarts", restarts])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --restarts" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "probe-map", "twirl"])
def test_cli_rejects_negative_seed(tmp_path, capsys, command):
    # numpy's generators refuse negative seeds; the parser must refuse them first.
    path = write_state(tmp_path / "in.json", isotropic(2, 0.8))
    argv = {"analyze": ["analyze", "--input", path, "--search-upper", "2"],
            "probe-map": ["probe-map", "--choi", path, "--k", "1"],
            "twirl": ["twirl", "--input", path, "--mode", "mc", "--samples", "10",
                      "--out", str(tmp_path / "out.json")]}[command]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--seed", "-1"])
    assert exit_info.value.code == 2
    assert "argument --seed" in capsys.readouterr().err


def test_cli_probe_map_rejects_non_square_choi(tmp_path, capsys):
    choi = tmp_path / "choi.json"
    io.write_matrix_file(choi, np.eye(6) / 6, BipartiteIndex(2, 3))
    assert main(["probe-map", "--choi", str(choi), "--k", "1"]) == 2
    assert "invalid input: Choi matrix shape (6, 6)" in capsys.readouterr().err


@pytest.mark.parametrize("eps", [1e-6, 1e-5, 3e-5])
def test_analyze_skips_search_below_proven_lower_bound(tmp_path, capsys, eps):
    # The Peres witness proves SN >= 2 on this entangled state, while the
    # rank-1 search would find a separable state within ENSEMBLE_TOL of it.
    # The rotated isotropic state is classified exactly, with no search.
    u = np.kron(random_unitary(2, np.random.default_rng(1)),
                random_unitary(2, np.random.default_rng(2)))
    iso = isotropic(2, 0.5 + eps)
    rho = DensityMatrix(u @ iso.matrix @ u.conj().T, iso.idx)
    report = analyze(rho, search_upper=1)
    assert (report.lower_bound, report.upper_bound) == (2, 2)
    kinds = [c.kind for c in report.certificates]
    assert "isotropic_exact" in kinds and "ensemble_upper" not in kinds
    assert main(["analyze", "--input", write_state(tmp_path / "in.json", rho),
                 "--search-upper", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["lower_bound"], payload["upper_bound"]) == (2, 2)
    assert "ensemble_upper" not in [c["kind"] for c in payload["certificates"]]


@pytest.mark.parametrize("rotate", [False, True], ids=["standard", "rotated"])
@pytest.mark.parametrize("k", [0, 4])
def test_analyze_rejects_a_search_rank_outside_the_dimensions(tmp_path, capsys, rotate, k):
    # Checked before the search is skipped: an exactly classified 3x3
    # isotropic state still rejects K = 0 and K = N + 1.
    rho = isotropic(3, 0.8)
    if rotate:
        rho = rotated(rho, np.random.default_rng(3))
    with pytest.raises(InvariantViolation, match="rank bound"):
        analyze(rho, search_upper=k)
    assert main(["analyze", "--input", write_state(tmp_path / "in.json", rho),
                 "--search-upper", str(k)]) == 2
    assert "rank bound must lie in [1, 3]" in capsys.readouterr().err


def test_cli_isotropic_rejects_bad_n(capsys):
    for n in (0, TOO_BIG):
        assert main(["isotropic", "--n", str(n), "--f", "0.5"]) == 2
        assert "invalid input" in capsys.readouterr().err


def test_cli_analyze_rejects_non_integer_dimension(tmp_path, capsys):
    path = tmp_path / "bad.json"
    io.write_matrix_file(path, isotropic(2, 0.3).matrix, BipartiteIndex(2, 2))
    payload = json.loads(path.read_text())
    payload["d_a"] = "x"
    path.write_text(json.dumps(payload))
    assert main(["analyze", "--input", str(path)]) == 2
    assert "d_a" in capsys.readouterr().err


def test_cli_analyze_rejects_non_numeric_entries(tmp_path, capsys):
    path = tmp_path / "bad.json"
    io.write_matrix_file(path, isotropic(2, 0.3).matrix, BipartiteIndex(2, 2))
    for row in (["x", 0, 0], [TOO_BIG, 0, 0, 0]):
        payload = json.loads(path.read_text())
        payload["re"][1] = row
        path.write_text(json.dumps(payload))
        assert main(["analyze", "--input", str(path)]) == 2
        assert "invalid input" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("entry", [float("nan"), float("inf"), -float("inf")])
def test_cli_rejects_non_finite_entries(tmp_path, capsys, part, entry):
    # json writes these as NaN / Infinity / -Infinity, which json.load reads back.
    path = tmp_path / "bad.json"
    io.write_matrix_file(path, isotropic(2, 0.3).matrix, BipartiteIndex(2, 2))
    payload = json.loads(path.read_text())
    payload[part][0][1] = entry
    path.write_text(json.dumps(payload))
    for argv in (["analyze", "--input", str(path)],
                 ["probe-map", "--choi", str(path), "--k", "1", "--restarts", "1"]):
        assert main(argv) == 2
        assert "NaN or infinite" in capsys.readouterr().err


def test_cli_analyze_text_summary(tmp_path, capsys):
    # The tight point is classified exactly with no search; the same state
    # tilted out of the isotropic family gets its upper bound from the
    # rank-2 search. Together they print all four certificate kinds.
    path = write_state(tmp_path / "in.json", isotropic(2, F_TIGHT))
    assert main(["analyze", "--input", path, "--search-upper", "2", "--seed", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "schmidt number lower bound: 2",
        "schmidt number upper bound: 2",
        "  isotropic state: N=2, F=0.707106781187, SN = 2 exactly",
        "  witness[transpose map, k=1]: min eigenvalue -2.071068e-01",
        "  witness[reduction map p=1, k=1]: min eigenvalue -2.071068e-01",
        "  fidelity bound: f_hat=0.707106781187 -> SN >= 2",
    ]
    path = write_state(tmp_path / "tilted.json", tilted_isotropic(2, F_TIGHT))
    assert main(["analyze", "--input", path, "--search-upper", "2", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["schmidt number lower bound: 2", "schmidt number upper bound: 2"]
    assert [line.split(":")[0] for line in lines[2:5]] == [
        "  witness[transpose map, k=1]", "  witness[reduction map p=1, k=1]",
        "  fidelity bound"]
    assert len(lines) == 6
    assert re.fullmatch(r"  ensemble upper: rank <= 2, \d+ members, residual \d\.\d{3}e-\d\d",
                        lines[5])


def test_cli_analyze_deterministic_json(tmp_path, capsys):
    path = write_state(tmp_path / "in.json", isotropic(2, F_TIGHT))
    outputs = []
    for _ in range(2):
        assert main(
            ["analyze", "--input", path, "--search-upper", "2", "--json", "--seed", "7"]
        ) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert (payload["lower_bound"], payload["upper_bound"]) == (2, 2)


def test_cli_analyze_two_copies(tmp_path, capsys):
    rho = tensor_copies(isotropic(2, F_TIGHT), 2)
    path = write_state(tmp_path / "two.json", rho)
    out_path = tmp_path / "report.json"
    assert main(
        ["analyze", "--input", path, "--search-upper", "2", "--seed", "0",
         "--out", str(out_path)]
    ) == 0
    capsys.readouterr()
    report = io.read_report_file(out_path)
    assert (report.lower_bound, report.upper_bound) == (2, 2)
    assert verify_report(report, rho)


def test_cli_demo_nonadditivity(tmp_path, capsys):
    dump = tmp_path / "ens.json"
    assert main(["demo-nonadditivity", "--dump", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out
    loaded = io.read_ensemble_file(dump)
    assert len(loaded.probs) == 1152
    from schmidtkit import verify_decomposition

    target = tensor_copies(isotropic(2, F_TIGHT), 2)
    assert verify_decomposition(loaded, target, 2, 1e-8)
    again = tmp_path / "again.json"
    io.write_ensemble_file(again, loaded)
    assert again.read_bytes() == dump.read_bytes()


def test_cli_json_outputs_are_what_dumps_writes(tmp_path, capsys):
    state = write_state(tmp_path / "in.json", isotropic(2, F_TIGHT))
    choi = tmp_path / "choi.json"
    io.write_matrix_file(choi, transpose_map(2).choi, BipartiteIndex(2, 2))
    files = {name: tmp_path / f"{name}.json" for name in ("report", "ensemble", "twirl", "iso")}
    runs = [
        ["analyze", "--input", state, "--search-upper", "2", "--out", str(files["report"])],
        ["demo-nonadditivity", "--dump", str(files["ensemble"])],
        ["twirl", "--input", state, "--out", str(files["twirl"])],
        ["isotropic", "--n", "3", "--f", "0.8", "--emit-state", str(files["iso"])],
    ]
    for argv in runs:
        assert main(argv) == 0
    capsys.readouterr()
    assert main(["probe-map", "--choi", str(choi), "--k", "2", "--restarts", "2", "--json"]) == 0
    texts = [path.read_text() for path in files.values()] + [capsys.readouterr().out]
    for text in texts:
        assert io.dumps(io.loads(text)) == text


def test_cli_figure_step(tmp_path, capsys):
    path = tmp_path / "fig.csv"
    assert main(["figure-step", "--grid", "101", "--out", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "F,sn_one_copy,sn_two_copy_lower,marker"
    rows = [line.split(",") for line in lines[1:]]
    fs = np.array([float(r[0]) for r in rows])
    one = np.array([int(r[1]) for r in rows])
    two = np.array([int(r[2]) for r in rows])
    # one-copy step exactly at F = 1/2 (right-inclusive)
    assert one[fs <= 0.5].max() == 1
    assert one[fs > 0.5].min() == 2
    last_one = fs[one == 1].max()
    assert last_one == 0.5
    # two-copy lower-bound steps exactly at F^2 in {1/4, 1/2, 3/4}
    for level, bound in ((1, 0.5), (2, F_TIGHT), (3, np.sqrt(3) / 2)):
        xs = fs[two == level]
        assert np.isclose(xs.max(), bound, atol=1e-15)
    assert two[fs > np.sqrt(3) / 2].min() == 4
    # F = 1 endpoint: one copy 2, two copies 4
    assert one[-1] == 2 and two[-1] == 4
    markers = {r[3] for r in rows if r[3]}
    assert markers == {"tight:sn2", "conjectured:sn3"}


def test_cli_figure_step_bytes_are_pinned(tmp_path, capsys):
    # The figure is scalar arithmetic and repr only, so its bytes do not
    # depend on the platform; any change to the step rules moves them.
    path = tmp_path / "fig.csv"
    assert main(["figure-step", "--grid", "400", "--out", str(path)]) == 0
    capsys.readouterr()
    data = path.read_bytes()
    assert len(data) == 9832
    assert hashlib.sha256(data).hexdigest() == (
        "354fa887e754a6cc1a313293792b03c8ec5ba14c1056bc4b680ac4a23e7f0b08")


def test_cli_figure_rejects_bad_n(capsys, tmp_path):
    # Step data is for N=2 only; the option no longer exists.
    with pytest.raises(SystemExit) as exit_info:
        main(["figure-step", "--n", "3", "--out", str(tmp_path / "x.csv")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --n" in capsys.readouterr().err


def test_cli_probe_map(tmp_path, capsys):
    from schmidtkit import reduction_family, transpose_map

    choi = tmp_path / "choi.json"
    lam = reduction_family(2, 1.0)
    io.write_matrix_file(choi, lam.choi, BipartiteIndex(2, 2))
    assert main(["probe-map", "--choi", str(choi), "--k", "2", "--restarts", "4",
                 "--seed", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violation"] is True
    assert abs(payload["min_eigenvalue"] + 0.5) < 1e-6
    assert main(["probe-map", "--choi", str(choi), "--k", "2", "--restarts", "4",
                 "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("violation: min eigenvalue -0.5")
    assert lines[1].startswith("witness state (re): ")
    assert lines[2].startswith("witness state (im): ")

    lam = reduction_family(3, 0.45)
    io.write_matrix_file(choi, lam.choi, BipartiteIndex(3, 3))
    assert main(["probe-map", "--choi", str(choi), "--k", "2", "--restarts", "4",
                 "--seed", "0"]) == 0
    assert "no violation found" in capsys.readouterr().out

    lam = transpose_map(2)
    io.write_matrix_file(choi, lam.choi, BipartiteIndex(2, 2))
    assert main(["probe-map", "--choi", str(choi), "--k", "1", "--restarts", "4",
                 "--seed", "0"]) == 0
    assert "no violation found" in capsys.readouterr().out


@pytest.mark.parametrize("n", [3, 4, 6])
def test_cli_probe_map_accepts_a_scaled_hermitian_choi(tmp_path, capsys, n):
    # An exactly Hermitian Choi matrix times 1e4: the recomputed
    # (1 (x) L)(|Psi><Psi|) is Hermitian only to rounding at that scale.
    choi = tmp_path / "choi.json"
    rng = np.random.default_rng(n)
    for _ in range(3):
        x = rng.normal(size=(n * n,) * 2) + 1j * rng.normal(size=(n * n,) * 2)
        io.write_matrix_file(choi, 1e4 * (x + x.conj().T) / 2, BipartiteIndex(n, n))
        assert main(["probe-map", "--choi", str(choi), "--k", "2", "--restarts", "2"]) == 0
        assert capsys.readouterr().out.startswith("violation: min eigenvalue ")


def test_cli_probe_map_rejects_zero_restarts(tmp_path, capsys):
    choi = tmp_path / "choi.json"
    io.write_matrix_file(choi, transpose_map(2).choi, BipartiteIndex(2, 2))
    assert main(["probe-map", "--choi", str(choi), "--k", "1", "--restarts", "0"]) == 2
    assert "need at least one restart, got 0" in capsys.readouterr().err


def test_cli_figure_step_rejects_a_one_point_grid(tmp_path, capsys):
    out = tmp_path / "steps.csv"
    assert main(["figure-step", "--grid", "1", "--out", str(out)]) == 2
    assert "grid must have at least 2 points, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_numeric_failure_exits_1(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigh did not converge")

    monkeypatch.setattr(cli, "analyze", fail)
    path = write_state(tmp_path / "in.json", isotropic(2, 0.8))
    assert main(["analyze", "--input", path]) == cli.EXIT_NUMERIC
    assert "numeric failure: eigh did not converge" in capsys.readouterr().err


def test_readme_usage_block_lists_every_option():
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(path, encoding="utf-8") as readme:
        usage = {line.split()[1]: line.replace("[", " ").replace("]", " ").split()
                 for line in readme if line.startswith("schmidtkit ")}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        for action in parser._actions:
            for option in set(action.option_strings) - {"-h", "--help"}:
                assert option in usage[command], (command, option)


def test_cli_twirl(tmp_path, capsys):
    rng = np.random.default_rng(41)
    zero = np.zeros((4, 4), dtype=complex)
    zero[0, 0] = 1.0
    path = tmp_path / "zero.json"
    io.write_matrix_file(path, zero, BipartiteIndex(2, 2))
    out_path = tmp_path / "twirled.json"
    assert main(["twirl", "--input", str(path), "--mode", "exact", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "F = 0.5" in out
    twirled = io.read_matrix_file(out_path)
    assert np.allclose(twirled.matrix, isotropic(2, 0.5).matrix, atol=1e-14)

    assert main(["twirl", "--input", str(path), "--mode", "mc", "--samples", "100000",
                 "--seed", "0", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    dist = float(out.split("distance to exact twirl:")[1].split()[0])
    assert dist < 1e-2


def test_cli_twirl_mc_rejects_n1_before_sampling(tmp_path, capsys, monkeypatch):
    def no_samples(rho, gin):
        raise AssertionError("drew Haar samples for a 1x1 state")

    monkeypatch.setattr(kernels, "mc_twirl_sum", no_samples)
    path = tmp_path / "one.json"
    io.write_matrix_file(path, np.ones((1, 1), dtype=complex), BipartiteIndex(1, 1))
    assert main(["twirl", "--input", str(path), "--mode", "mc", "--samples", "10",
                 "--out", str(tmp_path / "out.json")]) == 2
    assert "isotropic states need N >= 2, got N=1" in capsys.readouterr().err


def test_cli_subprocess_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    io.write_matrix_file(good, isotropic(2, 0.3).matrix, BipartiteIndex(2, 2))
    proc = subprocess.run(
        [sys.executable, "-m", "schmidtkit.cli", "analyze", "--input", str(good), "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lower_bound"] == 1

    bad = tmp_path / "bad.json"
    bad.write_text('{"d_a": 2}')
    proc = subprocess.run(
        [sys.executable, "-m", "schmidtkit.cli", "analyze", "--input", str(bad)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


# ------------------------------------------------------------ parser reuse

# Each subcommand's flags: (flag, required, values to try; None for a switch).
# Every value list mixes valid and invalid text.
SEEDS = ["0", "5", "-1", "x", "1.5"]
INTS = ["0", "3", "-2", "two", "2.5"]
CLI_GRAMMAR = {
    "analyze": [("--input", True, ["in.json"]), ("--search-upper", False, INTS),
                ("--seed", False, SEEDS), ("--json", False, None), ("--out", False, ["r.json"])],
    "isotropic": [("--n", True, INTS), ("--f", True, ["0.3", "1.7", "nan", "f"]),
                  ("--emit-state", False, ["s.json"]), ("--json", False, None)],
    "demo-nonadditivity": [("--dump", False, ["e.json"])],
    "figure-step": [("--grid", False, INTS), ("--out", True, ["f.csv"])],
    "probe-map": [("--choi", True, ["c.json"]), ("--k", True, INTS),
                  ("--restarts", False, INTS), ("--seed", False, SEEDS), ("--json", False, None)],
    "twirl": [("--input", True, ["in.json"]), ("--mode", False, ["exact", "mc", "neither"]),
              ("--samples", False, INTS), ("--seed", False, SEEDS), ("--out", True, ["t.json"])],
}


@st.composite
def cli_argvs(draw):
    """A command line from CLI_GRAMMAR: a subcommand (or an unknown one), its
    flags in any order with valid or invalid values, each required flag
    present most of the time, sometimes an unknown flag or a flag left
    without its value."""
    command = draw(st.sampled_from(sorted(CLI_GRAMMAR) + ["no-such-command"]))
    words = []
    for flag, required, values in CLI_GRAMMAR.get(command, []):
        if draw(st.integers(0, 9)) > 0 if required else draw(st.booleans()):
            words.append([flag] if values is None else [flag, draw(st.sampled_from(values))])
    if draw(st.integers(0, 3)) == 0:
        words.append([draw(st.sampled_from(["--bogus", "--bogus=1", "extra", "-x"]))])
    argv = [command] + [w for group in draw(st.permutations(words)) for w in group]
    if draw(st.integers(0, 5)) == 0:
        argv.append(draw(st.sampled_from(["--seed", "--k", "--mode"])))
    return argv


def _parse(parser, argv):
    """The repr of vars() of the parsed namespace (so that a NaN --f compares
    equal), or the exit code and stderr text."""
    err = io_module.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io_module.StringIO()):
            return repr(vars(parser.parse_args(argv)))
    except SystemExit as exc:
        return exc.code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(argvs=st.lists(cli_argvs(), min_size=1, max_size=6))
def test_reused_parser_parses_every_call_like_a_fresh_one(argvs):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    for argv in argvs:
        assert _parse(parser, argv) == _parse(cli.build_parser.__wrapped__(), argv)


def test_reused_parser_forgets_the_flags_of_earlier_calls(tmp_path, monkeypatch, capsys):
    path = write_state(tmp_path / "in.json", isotropic(2, 0.8))
    seen = []
    handler = cli._HANDLERS["analyze"]
    monkeypatch.setitem(cli._HANDLERS, "analyze", lambda args: seen.append(vars(args)) or handler(args))
    assert main(["analyze", "--input", path, "--json", "--seed", "5"]) == 0
    assert main(["analyze", "--input", path]) == 0
    assert [(s["json"], s["seed"]) for s in seen] == [(True, 5), (False, 0)]
    assert "schmidt number lower bound: 2" in capsys.readouterr().out


def test_reused_parser_recovers_from_an_argparse_error(tmp_path, capsys):
    path = write_state(tmp_path / "in.json", isotropic(2, 0.8))
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", "--input", path, "--seed", "x"])
    assert exit_info.value.code == 2
    assert main(["analyze", "--input", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["lower_bound"] == 2


def test_main_builds_the_parser_once_per_process(monkeypatch, capsys):
    # One top-level parser and six sub-parsers, however many calls.
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
    for _ in range(3):
        assert main(["isotropic", "--n", "2", "--f", "0.3"]) == 0
    assert len(built) <= 7
