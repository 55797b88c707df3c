"""Round trips of every certificate kind through its JSON payload."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_density, random_unitary, rotated, tilted_isotropic
from schmidtkit import io
from schmidtkit.certify import (
    BOUNDARY_TOL,
    CERTIFICATES,
    ENSEMBLE_TOL,
    EnsembleUpper,
    FidelityBound,
    IsotropicExact,
    MapWitness,
    SnReport,
    analyze,
    isotropic_sn,
    peres_witness,
    sn_lower_via_map,
    verify_report,
)
from schmidtkit.linalg import BipartiteIndex, InvariantViolation
from schmidtkit.maps import NEGATIVITY_THRESHOLD
from schmidtkit.states import (
    DensityMatrix,
    PureBipartiteState,
    isotropic,
    max_entangled,
    max_entangled_vector,
)
from schmidtkit.twirl import PureEnsemble, fidelity_with_max_entangled

finite = st.floats(allow_nan=False, allow_infinity=False)
negative = st.floats(max_value=NEGATIVITY_THRESHOLD, exclude_max=True, allow_infinity=False)
isotropic_states = st.builds(isotropic, st.sampled_from([2, 3]), st.floats(0.0, 1.0))


@st.composite
def map_witnesses(draw):
    # A made-up witness is constructible (a k-positive map, an eigenvalue
    # below the threshold) but need not hold for rho.
    rho = draw(isotropic_states)
    n = rho.idx.d_b
    if draw(st.booleans()):
        cert = peres_witness(rho)
        made_up = MapWitness("transpose", None, 1, draw(negative))
    else:
        k = draw(st.integers(1, n - 1))
        cert = sn_lower_via_map(rho, k)
        made_up = MapWitness("reduction", draw(st.floats(0.0, 1.0 / k, exclude_min=True)), k,
                             draw(negative))
    return (made_up if cert is None or draw(st.booleans()) else cert), rho


@st.composite
def fidelity_bounds(draw):
    # psi = (1 (x) U)|Psi+> for a random U: fidelity_max takes U from rho's
    # top eigenvector, but older reports hold states of any such U. rho is
    # rotated into psi's frame or not. f_hat is psi's overlap with rho when
    # that proves SN >= 2, else a made-up one that does: constructible, but
    # it need not hold for rho.
    rho = draw(isotropic_states)
    n = rho.idx.d_a
    u = random_unitary(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    amp = u.T.reshape(n * n) / np.sqrt(n)
    if draw(st.booleans()):
        w = np.kron(np.eye(n), u)
        rho = DensityMatrix(w @ rho.matrix @ w.conj().T, rho.idx)
    f_hat = float((amp.conj() @ rho.matrix @ amp).real)
    if isotropic_sn(n, f_hat) < 2:
        f_hat = draw(st.floats(1.0 / n + 1e-9, 1.0))
    state = PureBipartiteState(amp / np.linalg.norm(amp), rho.idx)
    return FidelityBound(f_hat, state, isotropic_sn(n, f_hat)), rho


@st.composite
def ensemble_uppers(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = BipartiteIndex(2, draw(st.sampled_from([2, 3])))
    m = draw(st.integers(1, 4))
    amps = rng.normal(size=(m, idx.dim)) + 1j * rng.normal(size=(m, idx.dim))
    ens = PureEnsemble(rng.dirichlet(np.ones(m)), amps / np.linalg.norm(amps, axis=1)[:, None], idx)
    residual = draw(st.floats(0.0, ENSEMBLE_TOL, exclude_max=True))
    cert = EnsembleUpper(ens, draw(st.integers(1, 2)), residual)
    return cert, ens.mixture()


@st.composite
def isotropic_exacts(draw):
    # k is always isotropic_sn(n, f), the only constructible value; f is
    # rho's fidelity or any other in [0, 1]. The frame psi = (1 (x) U)|Psi+>
    # is Psi+ or a random one, and rho is rotated by 1 (x) U or not.
    rho = draw(isotropic_states)
    n = rho.idx.d_a
    f = fidelity_with_max_entangled(rho) if draw(st.booleans()) else draw(st.floats(0.0, 1.0))
    u = np.eye(n)
    if draw(st.booleans()):
        u = random_unitary(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    psi = PureBipartiteState(u.T.reshape(n * n) / np.sqrt(n), rho.idx)
    if draw(st.booleans()):
        w = np.kron(np.eye(n), u)
        rho = DensityMatrix(w @ rho.matrix @ w.conj().T, rho.idx)
    return IsotropicExact(f, psi, isotropic_sn(n, f)), rho


@pytest.mark.parametrize("certificates", [
    map_witnesses(), fidelity_bounds(), ensemble_uppers(), isotropic_exacts(),
], ids=["map_witness", "fidelity_bound", "ensemble_upper", "isotropic_exact"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_certificate_payload_round_trip(certificates, data):
    cert, rho = data.draw(certificates)
    text = io.dumps(cert.to_payload())
    back = type(cert).from_payload(io.loads(text))
    assert io.dumps(back.to_payload()) == text
    assert back.verify(rho) == cert.verify(rho)


def _isotropic_certificate(kind, rho=None):
    """The payload of the certificate of the given kind that
    analyze(rho, search_upper=3) returns, rho = isotropic(3, 0.8) by
    default, and the state."""
    rho = isotropic(3, 0.8) if rho is None else rho
    (cert,) = [c.to_payload() for c in analyze(rho, search_upper=3).certificates
               if c.kind == kind]
    return cert, rho


def _reports_of_every_kind():
    """analyze(rho, search_upper=3) on isotropic(3, 0.8), which it classifies
    exactly with no search, and on tilted_isotropic(3, 0.8), which is
    isotropic in no frame and gets an ensemble_upper; with their states."""
    return [(analyze(rho, search_upper=3), rho)
            for rho in (isotropic(3, 0.8), tilted_isotropic(3, 0.8))]


def test_fidelity_bound_rejects_a_wrong_overlap():
    payload, rho = _isotropic_certificate("fidelity_bound")
    assert FidelityBound.from_payload(payload).verify(rho)
    payload["f_hat"] += 1e-6
    assert payload["sn_bound"] == 3
    assert not FidelityBound.from_payload(payload).verify(rho)


def test_fidelity_bound_rejects_a_state_that_is_not_maximally_entangled():
    payload, rho = _isotropic_certificate("fidelity_bound")
    # sqrt(0.9)|Psi+> + sqrt(0.1)|01>: its true overlap 0.7225 > 2/3 gives
    # sn_bound 3, but it lies far from its nearest maximally entangled
    # vector, so it has no frame to verify in.
    psi = np.sqrt(0.9) * np.eye(3).reshape(9) / np.sqrt(3)
    psi[1] = np.sqrt(0.1)
    f_hat = float(psi @ rho.matrix.real @ psi)
    assert abs(f_hat - 0.7225) < 1e-12
    payload.update(f_hat=f_hat, sn_bound=3, psi_re=psi.tolist(), psi_im=[0.0] * 9)
    assert not FidelityBound.from_payload(payload).verify(rho)


@pytest.mark.parametrize("eps", [5e-12, 1e-9, 5e-9])
def test_fidelity_bound_takes_its_overlap_in_the_maximally_entangled_frame(eps):
    # rho is separable, with <Psi+|rho|Psi+> = 1/2 = 1/N exactly. Tilting
    # psi by eps|00> raises its overlap past 1/2 by about eps/sqrt(2), and
    # leaves psi 3.5e-12 to 3.5e-9 from Psi+, its nearest maximally
    # entangled vector; in that frame the overlap is 1/2 again.
    e00 = np.eye(4)[0]
    rho = DensityMatrix(0.5 * isotropic(2, 0.5).matrix + 0.5 * np.outer(e00, e00),
                        BipartiteIndex(2, 2))
    assert analyze(rho).upper_bound is None and analyze(rho).lower_bound == 1
    psi = max_entangled_vector(2) + eps * e00
    psi /= np.linalg.norm(psi)
    f_hat = float((psi.conj() @ rho.matrix @ psi).real)
    assert f_hat > 0.5
    cert = FidelityBound(f_hat, PureBipartiteState(psi, rho.idx), 2)
    assert not cert.verify(rho)
    assert not verify_report(SnReport(2, None, (cert,)), rho)


def test_fidelity_bound_within_the_frame_tolerance_cannot_raise_the_overlap():
    # psi = Psi+ + 1e-12|00>, normalized, lies 7e-13 from Psi+, inside the
    # frame tolerance. On the product state |00><00| its own overlap is
    # 1/2 + 7e-13, which isotropic_sn would read as SN 2; in the frame of
    # Psi+ the overlap is 1/2 to rounding, so the bound does not verify.
    e00 = np.eye(4)[0]
    rho = DensityMatrix(np.outer(e00, e00), BipartiteIndex(2, 2))
    psi = max_entangled_vector(2) + 1e-12 * e00
    psi /= np.linalg.norm(psi)
    f_hat = float(abs(psi[0]) ** 2)
    assert isotropic_sn(2, f_hat) == 2
    assert not FidelityBound(f_hat, PureBipartiteState(psi, rho.idx), 2).verify(rho)


def test_isotropic_exact_rejects_a_non_isotropic_state_with_the_same_fidelity():
    payload, rho = _isotropic_certificate("isotropic_exact")
    cert = IsotropicExact.from_payload(payload)
    shift = np.zeros((9, 9))
    shift[1, 1], shift[2, 2] = 0.01, -0.01  # |01><01| - |02><02|, orthogonal to Psi+
    other = DensityMatrix(rho.matrix + shift, rho.idx)
    assert abs(fidelity_with_max_entangled(other) - cert.f) < 1e-15
    assert cert.verify(rho)
    assert not cert.verify(other)


def _isotropic_exact_of(payload):
    return next(c for c in payload["certificates"] if c["kind"] == "isotropic_exact")


@pytest.mark.parametrize("rho, edit, message", [
    (isotropic(3, 0.8), lambda payload: payload["certificates"][0].update(kind="made_up_kind"),
     "unknown certificate kind"),
    (tilted_isotropic(3, 0.8),
     lambda payload: [c.update(k=2) for c in payload["certificates"]
                      if c["kind"] == "ensemble_upper"],
     "inconsistent bounds"),
    (isotropic(3, 0.8), lambda payload: _isotropic_exact_of(payload).pop("psi_re"),
     "missing field 'psi_re'"),
    (isotropic(3, 0.8), lambda payload: _isotropic_exact_of(payload).update(psi_re=[1.0] * 8),
     "shape"),
], ids=["unknown_kind", "lower_above_upper", "missing_psi", "short_psi"])
def test_report_file_rejects_tampered_certificates(tmp_path, rho, edit, message):
    payload = analyze(rho, search_upper=3).to_payload()
    edit(payload)
    path = tmp_path / "report.json"
    path.write_text(io.dumps(payload))
    with pytest.raises(InvariantViolation, match=message):
        io.read_report_file(path)


def test_isotropic_exact_rejects_a_frame_that_does_not_fit_the_state():
    # On a locally rotated isotropic state, the certificate with its frame
    # swapped for Psi+ reads as valid but must not verify.
    rho = rotated(isotropic(3, 0.8), np.random.default_rng(7))
    payload, _ = _isotropic_certificate("isotropic_exact", rho)
    assert IsotropicExact.from_payload(payload).verify(rho)
    plus = max_entangled_vector(3)
    swapped = dict(payload, psi_re=plus.real.tolist(), psi_im=plus.imag.tolist())
    assert not IsotropicExact.from_payload(swapped).verify(rho)
    assert not verify_report(SnReport(3, 3, (IsotropicExact.from_payload(swapped),)), rho)


def test_isotropic_exact_rejects_a_frame_that_is_not_maximally_entangled():
    # rho is exactly "isotropic" around phi = sqrt(0.9)|Psi+> + sqrt(0.1)|01>,
    # which lies far from its nearest maximally entangled vector, so it has
    # no frame to verify in.
    phi = np.sqrt(0.9) * max_entangled_vector(3)
    phi[1] = np.sqrt(0.1)
    p = np.outer(phi, phi.conj())
    rho = DensityMatrix(0.8 * p + 0.2 * (np.eye(9) - p) / 8, BipartiteIndex(3, 3))
    cert = IsotropicExact(0.8, PureBipartiteState(phi, rho.idx), 3)
    assert abs(float((phi.conj() @ rho.matrix @ phi).real) - 0.8) < 1e-15
    assert not cert.verify(rho)
    assert not IsotropicExact.from_payload(io.loads(io.dumps(cert.to_payload()))).verify(rho)


def test_psi_certificates_reject_a_psi_far_from_its_frame():
    # diag(1, 2, 3) has Psi+ as its nearest maximally entangled vector, in
    # whose frame both certificates of isotropic(3, 0.8) hold, but the
    # stored psi is not maximally entangled.
    rho = isotropic(3, 0.8)
    psi = np.diag([1.0, 2.0, 3.0]).reshape(9) / np.sqrt(14)
    state = PureBipartiteState(psi, rho.idx)
    assert FidelityBound(0.8, max_entangled(3), 3).verify(rho)
    assert IsotropicExact(0.8, max_entangled(3), 3).verify(rho)
    assert not FidelityBound(0.8, state, 3).verify(rho)
    assert not IsotropicExact(0.8, state, 3).verify(rho)


def test_certificates_reject_a_state_of_other_dimensions():
    # d_b = 1 leaves no room for SN >= 2, and the reduction family needs N >= 2.
    others = (isotropic(2, 0.8), DensityMatrix(np.eye(2) / 2, BipartiteIndex(2, 1)))
    kinds = set()
    for report, rho in _reports_of_every_kind():
        kinds |= {c.kind for c in report.certificates}
        for cert in report.certificates:
            assert cert.verify(rho)
            for other in others:
                assert cert.verify(other) is False
    assert kinds == {"map_witness", "fidelity_bound", "ensemble_upper", "isotropic_exact"}


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 5), f=finite, k=st.integers(-1, 6))
def test_isotropic_exact_builds_only_with_the_schmidt_number_of_its_fields(n, f, k):
    if n >= 2 and -BOUNDARY_TOL <= f <= 1.0 + BOUNDARY_TOL and k == isotropic_sn(n, f):
        assert IsotropicExact(f, max_entangled(n), k).bounds() == (k, k)
    else:
        with pytest.raises(InvariantViolation):
            IsotropicExact(f, max_entangled(n), k)


def test_isotropic_exact_does_not_verify_across_the_boundary():
    # The stored F = 1/2 + 2e-12 gives SN = 2, but the state's F = 1/2 - 5e-11,
    # within VERIFY_ATOL of it, is separable.
    cert = IsotropicExact(0.5 + 2e-12, max_entangled(2), 2)
    rho = isotropic(2, 0.5 - 5e-11)
    assert not cert.verify(rho)
    assert not verify_report(SnReport(2, 2, (cert,)), rho)
    assert IsotropicExact(0.5 - 5e-11, max_entangled(2), 1).verify(rho)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 5), f_hat=st.one_of(st.floats(0.0, 1.0), finite),
       sn_bound=st.integers(-1, 6))
def test_fidelity_bound_builds_only_with_a_bound_its_fidelity_proves(n, f_hat, sn_bound):
    # A fidelity bound must prove SN >= 2, which no 1 x 1 state has.
    state = max_entangled(n)
    if n >= 2 and -BOUNDARY_TOL <= f_hat <= 1.0 + BOUNDARY_TOL:
        proven = isotropic_sn(n, f_hat)
    else:
        proven = 0
    if 2 <= sn_bound <= proven:
        assert FidelityBound(f_hat, state, sn_bound).bounds() == (sn_bound, None)
    else:
        with pytest.raises(InvariantViolation):
            FidelityBound(f_hat, state, sn_bound)


def _write_report(tmp_path, lower, upper, cert):
    path = tmp_path / "report.json"
    path.write_text(io.dumps({"lower_bound": lower, "upper_bound": upper,
                              "certificates": [cert]}))
    return path


def test_report_file_rejects_a_fidelity_bound_its_fidelity_does_not_prove(tmp_path):
    psi = max_entangled(2).amplitudes
    path = _write_report(tmp_path, 2, None, {
        "kind": "fidelity_bound", "f_hat": 0.1, "sn_bound": 2, "d_a": 2, "d_b": 2,
        "psi_re": psi.real.tolist(), "psi_im": psi.imag.tolist()})
    with pytest.raises(InvariantViolation, match="proves"):
        io.read_report_file(path)


@settings(max_examples=50, deadline=None)
@given(d_a=st.integers(1, 4), d_b=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_no_certificate_proves_only_sn_at_least_one(tmp_path_factory, d_a, d_b, seed, data):
    # Every certificate analyze stores proves something; a fidelity bound
    # that proves only SN >= 1 is rejected when a report holding it is read.
    rank = data.draw(st.integers(1, d_a * d_b))
    rho = random_density(d_a, d_b, np.random.default_rng(seed), rank=rank)
    report = analyze(rho)
    assert all(c.bounds() != (1, None) for c in report.certificates)
    if d_a == d_b >= 2:
        psi = max_entangled(d_a).amplitudes
        f_hat = float((psi.conj() @ rho.matrix @ psi).real)
        path = _write_report(tmp_path_factory.mktemp("report"), 1, None, {
            "kind": "fidelity_bound", "f_hat": f_hat, "sn_bound": 1, "d_a": d_a, "d_b": d_b,
            "psi_re": psi.real.tolist(), "psi_im": psi.imag.tolist()})
        with pytest.raises(InvariantViolation, match="proves"):
            io.read_report_file(path)


@pytest.mark.parametrize("residual", [0.5, ENSEMBLE_TOL, -1e-3])
def test_report_file_rejects_an_ensemble_upper_outside_the_tolerance(tmp_path, residual):
    product = PureEnsemble(np.ones(1), np.eye(4, dtype=np.complex128)[:1], BipartiteIndex(2, 2))
    path = _write_report(tmp_path, 1, 1, {"kind": "ensemble_upper", "k": 1,
                                          "residual": residual,
                                          "ensemble": io.ensemble_payload(product)})
    with pytest.raises(InvariantViolation, match="residual"):
        io.read_report_file(path)


def test_readme_certificate_table_matches_the_payloads():
    # The table under the header `kind` | fields | proves, one row per kind.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| `kind` | fields | proves |\n|---|---|---|\n", 1)[1].split("\n\n")[0]
    rows = [re.match(r"\| `(\w+)` \| (.*?) \|", line).groups() for line in table.splitlines()]
    payloads = {c.kind: c.to_payload()
                for report, _ in _reports_of_every_kind() for c in report.certificates}
    assert [kind for kind, _ in rows] == list(CERTIFICATES)
    for kind, fields in rows:
        assert set(re.findall(r"`(\w+)`", fields)) == set(payloads[kind]) - {"kind"}, kind


@pytest.mark.parametrize("fields", [(2, 0.3, 2), (1, 0.5, 1), (2, 1.7, 2), (2, 0.8, 0)],
                         ids=["k_above_sn", "n1", "f_above_1", "k0"])
def test_report_file_rejects_a_contradictory_isotropic_exact(tmp_path, fields):
    n, f, k = fields
    psi = max_entangled_vector(n)
    path = _write_report(tmp_path, k, k, {"kind": "isotropic_exact", "n": n, "f": f, "k": k,
                                          "psi_re": psi.real.tolist(),
                                          "psi_im": psi.imag.tolist()})
    with pytest.raises(InvariantViolation):
        io.read_report_file(path)


@settings(max_examples=50, deadline=None)
@given(p=st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True)), k=st.integers(-1, 12),
       min_eigenvalue=finite)
def test_map_witness_builds_only_for_a_k_positive_map_and_a_negative_eigenvalue(
        p, k, min_eigenvalue):
    k_positive = 1 if p is None else np.floor(1.0 / p + 1e-12)
    map_kind = "transpose" if p is None else "reduction"
    if 1 <= k <= k_positive and min_eigenvalue < NEGATIVITY_THRESHOLD:
        assert MapWitness(map_kind, p, k, min_eigenvalue).bounds() == (k + 1, None)
    else:
        with pytest.raises(InvariantViolation):
            MapWitness(map_kind, p, k, min_eigenvalue)


def test_map_witness_past_the_state_dimension_does_not_verify():
    # L_0.001 is 1000-positive on M_1000 but completely positive on M_2: at
    # d_b = 2 it proves nothing, whatever the stored k claims.
    witness = MapWitness("reduction", 0.001, 1000, -0.5)
    assert witness.bounds() == (1001, None)
    assert not witness.verify(isotropic(2, 0.9))


@pytest.mark.parametrize("witness", [
    {"map": "transpose", "p": None, "k": 3, "min_eigenvalue": -0.1},
    {"map": "transpose", "p": None, "k": 0, "min_eigenvalue": -0.1},
    {"map": "reduction", "p": 0.9, "k": 4, "min_eigenvalue": -0.1},
    {"map": "reduction", "p": 0.5, "k": 3, "min_eigenvalue": -0.1},
    {"map": "reduction", "p": 0.5, "k": 2, "min_eigenvalue": 0.5},
    {"map": "reduction", "p": 0.5, "k": 2, "min_eigenvalue": NEGATIVITY_THRESHOLD},
], ids=["transpose_k3", "transpose_k0", "reduction_p0.9_k4", "reduction_p0.5_k3",
        "positive_eigenvalue", "eigenvalue_at_threshold"])
def test_report_file_rejects_a_witness_that_proves_nothing(tmp_path, witness):
    path = _write_report(tmp_path, max(witness["k"] + 1, 1), None,
                         dict(witness, kind="map_witness"))
    with pytest.raises(InvariantViolation):
        io.read_report_file(path)
