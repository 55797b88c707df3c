"""Round trips of every certificate kind through its JSON payload."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_unitary
from schmidtkit import io
from schmidtkit.certify import (
    EnsembleUpper,
    FidelityBound,
    IsotropicExact,
    MapWitness,
    analyze,
    fidelity_to_sn_bound,
    isotropic_sn,
    peres_witness,
    sn_lower_via_map,
)
from schmidtkit.linalg import BipartiteIndex, InvariantViolation
from schmidtkit.states import DensityMatrix, PureBipartiteState, isotropic
from schmidtkit.twirl import PureEnsemble, fidelity_with_max_entangled

finite = st.floats(allow_nan=False, allow_infinity=False)
isotropic_states = st.builds(isotropic, st.sampled_from([2, 3]), st.floats(0.0, 1.0))


@st.composite
def map_witnesses(draw):
    rho = draw(isotropic_states)
    n = rho.idx.d_b
    if draw(st.booleans()):
        cert = peres_witness(rho)
        made_up = MapWitness("transpose", None, 1, draw(finite))
    else:
        k = draw(st.integers(1, n - 1))
        cert = sn_lower_via_map(rho, k)
        made_up = MapWitness("reduction", draw(st.floats(0.0, 1.0, exclude_min=True)), k,
                             draw(finite))
    return (made_up if cert is None or draw(st.booleans()) else cert), rho


@st.composite
def fidelity_bounds(draw):
    # psi = (1 (x) U)|Psi+> for a random U: fidelity_max takes U from rho's
    # top eigenvector, but older reports hold states of any such U.
    rho = draw(isotropic_states)
    n = rho.idx.d_a
    u = random_unitary(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    amp = u.T.reshape(n * n) / np.sqrt(n)
    f_hat = float((amp.conj() @ rho.matrix @ amp).real)
    state = PureBipartiteState(amp / np.linalg.norm(amp), rho.idx)
    return FidelityBound(f_hat, state, fidelity_to_sn_bound(f_hat, n)), rho


@st.composite
def ensemble_uppers(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = BipartiteIndex(2, draw(st.sampled_from([2, 3])))
    m = draw(st.integers(1, 4))
    amps = rng.normal(size=(m, idx.dim)) + 1j * rng.normal(size=(m, idx.dim))
    ens = PureEnsemble(rng.dirichlet(np.ones(m)), amps / np.linalg.norm(amps, axis=1)[:, None], idx)
    cert = EnsembleUpper(ens, draw(st.integers(1, 2)), draw(st.floats(0.0, 1.0)))
    return cert, ens.mixture()


@st.composite
def isotropic_exacts(draw):
    rho = draw(isotropic_states)
    n = rho.idx.d_a
    f = fidelity_with_max_entangled(rho)
    k = isotropic_sn(n, f) if draw(st.booleans()) else draw(st.integers(1, n))
    return IsotropicExact(n, f if draw(st.booleans()) else draw(finite), k), rho


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


def _isotropic_certificate(kind):
    """The payload of the certificate of the given kind that
    analyze(isotropic(3, 0.8), search_upper=3) returns, and the state."""
    rho = isotropic(3, 0.8)
    (cert,) = [c.to_payload() for c in analyze(rho, search_upper=3).certificates
               if c.kind == kind]
    return cert, rho


def test_fidelity_bound_rejects_a_wrong_overlap():
    payload, rho = _isotropic_certificate("fidelity_bound")
    assert FidelityBound.from_payload(payload).verify(rho)
    payload["f_hat"] += 1e-6
    assert payload["sn_bound"] == 3
    assert not FidelityBound.from_payload(payload).verify(rho)


def test_fidelity_bound_rejects_a_state_that_is_not_maximally_entangled():
    payload, rho = _isotropic_certificate("fidelity_bound")
    # sqrt(0.9)|Psi+> + sqrt(0.1)|01>: its true overlap 0.7225 > 2/3 gives
    # sn_bound 3, so only the maximal-entanglement check can reject it.
    psi = np.sqrt(0.9) * np.eye(3).reshape(9) / np.sqrt(3)
    psi[1] = np.sqrt(0.1)
    f_hat = float(psi @ rho.matrix.real @ psi)
    assert abs(f_hat - 0.7225) < 1e-12
    payload.update(f_hat=f_hat, sn_bound=3, psi_re=psi.tolist(), psi_im=[0.0] * 9)
    assert not FidelityBound.from_payload(payload).verify(rho)


def test_isotropic_exact_rejects_a_non_isotropic_state_with_the_same_fidelity():
    payload, rho = _isotropic_certificate("isotropic_exact")
    cert = IsotropicExact.from_payload(payload)
    shift = np.zeros((9, 9))
    shift[1, 1], shift[2, 2] = 0.01, -0.01  # |01><01| - |02><02|, orthogonal to Psi+
    other = DensityMatrix(rho.matrix + shift, rho.idx)
    assert abs(fidelity_with_max_entangled(other) - cert.f) < 1e-15
    assert cert.verify(rho)
    assert not cert.verify(other)


@pytest.mark.parametrize("edit, message", [
    (lambda certs: certs[0].update(kind="made_up_kind"), "unknown certificate kind"),
    (lambda certs: [c.update(k=2) for c in certs if c["kind"] == "ensemble_upper"],
     "inconsistent bounds"),
], ids=["unknown_kind", "lower_above_upper"])
def test_report_file_rejects_tampered_certificates(tmp_path, edit, message):
    payload = analyze(isotropic(3, 0.8), search_upper=3).to_payload()
    edit(payload["certificates"])
    path = tmp_path / "report.json"
    path.write_text(io.dumps(payload))
    with pytest.raises(InvariantViolation, match=message):
        io.read_report_file(path)


def test_certificates_reject_a_state_of_other_dimensions():
    rho, other = isotropic(3, 0.8), isotropic(2, 0.8)
    report = analyze(rho, search_upper=3)
    kinds = {c.kind for c in report.certificates}
    assert kinds == {"map_witness", "fidelity_bound", "ensemble_upper", "isotropic_exact"}
    for cert in report.certificates:
        assert cert.verify(rho)
        assert cert.verify(other) is False
