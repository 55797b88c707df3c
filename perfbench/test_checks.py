"""Every output check of the benchmark rejects a corrupted result.

Each test makes one real result with schmidtkit's CLI, confirms that its
check accepts it, then corrupts it in one way and confirms that the check
names that fault. Run from the root of a checkout, either way:

    python3 perfbench/test_checks.py
    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from schmidtkit import cli  # noqa: E402

WORK = os.path.join(ROOT, ".bench_runs", "test_checks")


def run_cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    assert code == 0, f"{argv[0]} exited with {code}"
    return out.getvalue()


def path(name: str) -> str:
    os.makedirs(WORK, exist_ok=True)
    return os.path.join(WORK, name)


def analyze(rho, d_a, d_b, *extra):
    src, out = path("state.json"), path("report.json")
    wl.write_matrix(src, rho, d_a, d_b)
    run_cli("analyze", "--input", src, "--seed", 3, *extra, "--out", out)
    return checks.load_json(out)


def rejects(check, result, exp, message: str) -> None:
    errors = check(result, exp)
    assert any(message in e for e in errors), f"expected {message!r}, got {errors}"


def certificate(report: dict, kind: str) -> dict:
    return next(c for c in report["certificates"] if c["kind"] == kind)


# ----------------------------------------------------------------- upper


def test_upper_report_checks_fail_on_corruption():
    rng = np.random.default_rng(0)
    rho = wl.rank_k_mixture(2, 2, 1, 8, rng)
    exp = {"rho": rho, "d_a": 2, "d_b": 2, "k": 1, "known": None}
    report = analyze(rho, 2, 2, "--search-upper", 1)
    assert checks.check_upper_report(report, exp) == []

    iso = wl.locally_rotated(wl.isotropic_matrix(2, 0.8), 2, 2, rng)
    iso_exp = {"rho": iso, "d_a": 2, "d_b": 2, "k": 2, "known": 2}
    iso_report = analyze(iso, 2, 2, "--search-upper", 2)
    assert checks.check_upper_report(iso_report, iso_exp) == []
    bad = dict(iso_report, upper_bound=1)
    rejects(checks.check_upper_report, bad, iso_exp, "!= known Schmidt number 2")

    rejects(checks.check_upper_report, dict(report, upper_bound=None), exp, "upper bound None not <= 1")
    bad = dict(report, certificates=[c for c in report["certificates"]
                                     if c["kind"] != "ensemble_upper"])
    rejects(checks.check_upper_report, bad, exp, "upper bound without a certificate")

    def corrupt(edit):
        bad = copy.deepcopy(report)
        edit(certificate(bad, "ensemble_upper")["ensemble"]["members"])
        return bad

    def rank_two(members):  # Schmidt rank k + 1
        members[0]["re"], members[0]["im"] = list(wl.psi_plus(2).real), [0.0] * 4

    def negative(members):
        p = members[0]["p"]
        members[0]["p"], members[1]["p"] = -p, members[1]["p"] + 2 * p

    def unnormalized(members):
        members[0]["p"] *= 1.5

    def moved(members):
        v = wl.rank_k_vector(2, 2, 1, np.random.default_rng(9))
        members[0]["re"], members[0]["im"] = list(v.real), list(v.imag)

    rejects(checks.check_upper_report, corrupt(rank_two), exp, "Schmidt rank 2 > 1")
    rejects(checks.check_upper_report, corrupt(negative), exp, "negative ensemble weight")
    rejects(checks.check_upper_report, corrupt(unnormalized), exp, "weights sum to")
    rejects(checks.check_upper_report, corrupt(moved), exp, "ensemble mixture is")

    # A certificate for a larger k than the bound it claims to back.
    bad = corrupt(rank_two)
    certificate(bad, "ensemble_upper")["k"] = 2
    rejects(checks.check_upper_report, bad, exp, "does not back the upper bound 1")
    rejects(checks.check_upper_report, bad, dict(exp, k=2), "Schmidt rank 2 > 1")


# ----------------------------------------------------------------- lower


def test_lower_report_checks_fail_on_corruption():
    rho = wl.isotropic_matrix(3, 0.5)  # Schmidt number 2
    exp = {"rho": rho, "d_a": 3, "d_b": 3, "known": 2, "exact": True}
    report = analyze(rho, 3, 3, "--json")
    assert checks.check_lower_report(report, exp) == []

    rejects(checks.check_lower_report, dict(report, lower_bound=3), exp,
            "lower bound 3 != known Schmidt number 2")
    rejects(checks.check_lower_report, dict(report, upper_bound=3), exp,
            "not classified exactly")
    below = dict(exp, known=1)
    rejects(checks.check_lower_report, dict(report, lower_bound=1, upper_bound=1), below,
            "below the <Psi+|rho|Psi+> bound 2")

    def with_cert(kind, edit):
        bad = copy.deepcopy(report)
        edit(certificate(bad, kind))
        return bad

    def shifted(cert):  # eigenvalue off by 1e-6
        cert["min_eigenvalue"] += 1e-6

    def unknown(cert):
        cert["map"] = "depolarizing"

    rejects(checks.check_lower_report, with_cert("map_witness", shifted), exp,
            "witness eigenvalue")
    rejects(checks.check_lower_report, with_cert("map_witness", unknown), exp,
            "unknown witness map")

    def f_shift(cert):
        cert["f_hat"] += 1e-6

    def product(cert):  # consistent overlap, but not a maximally entangled state
        v = np.kron([1.0, 0, 0], [1.0, 0, 0]).astype(complex)
        cert["psi_re"], cert["psi_im"] = list(v.real), list(v.imag)
        cert["f_hat"] = float((v.conj() @ rho @ v).real)

    rejects(checks.check_lower_report, with_cert("fidelity_bound", f_shift), exp, "fidelity f_hat")
    rejects(checks.check_lower_report, with_cert("fidelity_bound", product), exp,
            "not maximally entangled")
    stray = dict(report, certificates=report["certificates"]
                 + [{"kind": "ensemble_upper", "k": 2, "ensemble": {}}])
    rejects(checks.check_lower_report, stray, exp, "no search was asked")

    # A transpose witness on a PPT state: consistent eigenvalue, not negative.
    sep = wl.isotropic_matrix(2, 0.3)
    lo = float(np.linalg.eigvalsh(wl.partial_transpose(sep, 2, 2))[0])
    cert = {"kind": "map_witness", "map": "transpose", "p": None, "k": 1, "min_eigenvalue": lo}
    errors = checks.check_map_witness(cert, sep, 2, 2)
    assert any("not below" in e for e in errors), errors


# ----------------------------------------------------------------- probe


def probe(spec: dict, k: int):
    choi, out = path("choi.json"), path("probe.json")
    wl.write_matrix(choi, wl.choi_matrix(spec), spec["n"], spec["n"])
    result = json.loads(run_cli("probe-map", "--choi", choi, "--k", k, "--restarts", 2,
                                "--seed", 1, "--json"))
    violation, value = wl.probe_expectation(spec, k)
    return result, {"spec": spec, "k": k, "violation": violation, "value": value}


def test_probe_checks_fail_on_corruption():
    rng = np.random.default_rng(1)
    spec = {"n": 3, "map": "reduction", "p": 0.8,
            "u": wl.haar_unitary(3, rng), "v": wl.haar_unitary(3, rng)}
    result, exp = probe(spec, 2)
    assert exp["violation"] and checks.check_probe(result, exp) == []

    rejects(checks.check_probe, dict(result, violation=False), exp, "violation reported False")
    rejects(checks.check_probe, dict(result, min_eigenvalue=result["min_eigenvalue"] + 1e-6),
            exp, "probe eigenvalue")

    v = wl.psi_plus(3)  # Schmidt rank 3 > k = 2
    rejects(checks.check_probe, dict(result, state_re=list(v.real), state_im=list(v.imag)),
            exp, "probe state of Schmidt rank 3 > 2")

    # A rank-2 state with unequal Schmidt coefficients is not a minimizer;
    # it comes with its own, correctly recomputed eigenvalue.
    a = np.linalg.qr(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))[0]
    b = np.linalg.qr(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))[0]
    psi = (a @ np.diag([math.sqrt(0.8), math.sqrt(0.2)]) @ b.T).reshape(9)
    m = wl.map_on_blocks(spec, np.outer(psi, psi.conj()))
    lo = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    bad = dict(result, state_re=list(psi.real), state_im=list(psi.imag), min_eigenvalue=lo)
    rejects(checks.check_probe, bad, exp, "!= analytic")


# ------------------------------------------------------------ construction


def test_demo_checks_fail_on_corruption():
    dump = path("ensemble.json")
    run_cli("demo-nonadditivity", "--dump", dump)
    payload = checks.load_json(dump)
    assert checks.check_demo(payload) == []

    def corrupt(edit):
        bad = copy.deepcopy(payload)
        edit(bad["members"])
        return checks.check_demo(bad)

    def assert_names(errors, message):
        assert any(message in e for e in errors), f"expected {message!r}, got {errors}"

    assert_names(corrupt(lambda m: m.pop()), "1151 members")

    def unequal(members):
        members[0]["p"] += 1e-6
        members[1]["p"] -= 1e-6

    def rank_four(members):
        members[0]["re"], members[0]["im"] = list(wl.psi_plus(4).real), [0.0] * 16

    def moved(members):
        v = wl.rank_k_vector(4, 4, 2, np.random.default_rng(2))
        members[0]["re"], members[0]["im"] = list(v.real), list(v.imag)

    assert_names(corrupt(unequal), "weights differ")
    assert_names(corrupt(rank_four), "Schmidt rank 4 > 2")
    assert_names(corrupt(moved), "ensemble mixture is")


def test_twirl_checks_fail_on_corruption():
    rho = wl.random_density(4, 2, np.random.default_rng(3))
    src, out = path("twirl_in.json"), path("twirl_out.json")
    wl.write_matrix(src, rho, 2, 2)
    run_cli("twirl", "--input", src, "--mode", "mc", "--samples", 4000, "--seed", 5, "--out", out)
    payload = checks.load_json(out)
    exp = {"rho": rho, "n": 2, "samples": 4000}
    assert checks.check_twirl(payload, exp) == []

    def corrupt(delta: np.ndarray) -> dict:
        m = checks.matrix_of(payload) + delta
        return dict(payload, re=m.real.tolist(), im=m.imag.tolist())

    v = wl.psi_plus(2)
    p_plus = np.outer(v, v.conj())
    rejects(checks.check_twirl, corrupt(1e-9 * (p_plus - np.eye(4) / 4)), exp, "twirl moved F")
    rejects(checks.check_twirl, corrupt(1e-9 * (np.eye(4) - p_plus) / 3), exp, "trace")
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1e-9
    rejects(checks.check_twirl, corrupt(skew), exp, "not Hermitian")
    # Traceless, Hermitian and orthogonal to P+: only the distance moves.
    far = 0.2 * np.diag([0.0, 1.0, -1.0, 0.0]).astype(complex)
    rejects(checks.check_twirl, corrupt(far), exp, "from the exact twirl")


def test_round_comparison_fails_on_changed_bytes():
    out = path("round.json")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write('{"lower_bound": 2}\n')
    ops = [{"output": out}]
    first = worker.outputs_digest(ops)
    assert worker.outputs_digest(ops) == first
    with open(out, "w", encoding="utf-8") as fh:
        fh.write('{"lower_bound": 3}\n')
    assert worker.outputs_digest(ops) != first
    os.remove(out)
    assert worker.outputs_digest(ops) != first


if __name__ == "__main__":
    names = [n for n in sorted(globals()) if n.startswith("test_")]
    for name in names:
        globals()[name]()
        print(f"PASS {name}")
    print(f"{len(names)} passed")
