import json
import subprocess
import sys

import numpy as np
import pytest

from helpers import random_density
from schmidtkit import io
from schmidtkit.certify import analyze, verify_report
from schmidtkit.cli import main
from schmidtkit.linalg import BipartiteIndex, InvariantViolation
from schmidtkit.states import isotropic, max_entangled, tensor_copies
from schmidtkit.twirl import PureEnsemble, two_copy_construction

F_TIGHT = 1 / np.sqrt(2)


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
    ensemble, _ = two_copy_construction()
    path = tmp_path / "ens.json"
    io.write_ensemble_file(path, ensemble)
    loaded = io.read_ensemble_file(path)
    assert len(loaded.states) == len(ensemble.states)
    assert np.array_equal(loaded.probs, ensemble.probs)
    assert np.array_equal(loaded.states[17].amplitudes, ensemble.states[17].amplitudes)


def _ensemble_file_with(tmp_path, edit):
    # No command reads an ensemble file, so the readers are called directly;
    # the CLI turns their InvariantViolation into exit code 2, "invalid input".
    path = tmp_path / "ens.json"
    io.write_ensemble_file(path, PureEnsemble(np.ones(1), (max_entangled(2),)))
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


@pytest.mark.parametrize("drop", [
    ("lower_bound",), ("certificates",), ("certificates", 0, "kind"),
    ("certificates", 0, "k"), ("certificates", 1, "min_eigenvalue"),
])
def test_report_file_rejects_missing_fields(tmp_path, drop):
    path = tmp_path / "report.json"
    io.write_report_file(path, analyze(isotropic(2, 0.8), restarts=2, seed=0))
    payload = json.loads(path.read_text())
    target = payload
    for key in drop[:-1]:
        target = target[key]
    del target[drop[-1]]
    path.write_text(json.dumps(payload))
    with pytest.raises(InvariantViolation, match="missing field"):
        io.read_report_file(path)


def test_report_round_trip_and_reverify(tmp_path):
    from schmidtkit import analyze

    rho = isotropic(2, F_TIGHT)
    report = analyze(rho, search_upper=2, restarts=6, seed=0)
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
    path = write_state(tmp_path / "in.json", isotropic(2, 0.3))
    assert main(["analyze", "--input", path, "--search-upper", "1",
                 "--search-vectors", vectors]) == 2
    assert "invalid input" in capsys.readouterr().err


def test_cli_isotropic_rejects_bad_n(capsys):
    assert main(["isotropic", "--n", "0", "--f", "0.5"]) == 2
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
    payload = json.loads(path.read_text())
    payload["re"][1] = ["x", 0, 0]
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
    assert len(loaded.states) == 1152
    from schmidtkit import verify_decomposition

    target = tensor_copies(isotropic(2, F_TIGHT), 2)
    assert verify_decomposition(loaded, target, 2, 1e-8)


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


def test_cli_figure_rejects_bad_n(capsys, tmp_path):
    assert main(["figure-step", "--n", "3", "--out", str(tmp_path / "x.csv")]) == 2


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
