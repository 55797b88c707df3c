"""Round trips of every certificate kind through its JSON payload."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtkit import io
from schmidtkit.certify import (
    EnsembleUpper,
    FidelityBound,
    IsotropicExact,
    MapWitness,
    analyze,
    fidelity_max,
    isotropic_sn,
    peres_witness,
    sn_lower_via_map,
)
from schmidtkit.linalg import BipartiteIndex
from schmidtkit.states import isotropic
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
    rho = draw(isotropic_states)
    return fidelity_max(rho, restarts=2, seed=draw(st.integers(0, 100))), rho


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


def test_certificates_reject_a_state_of_other_dimensions():
    rho, other = isotropic(3, 0.8), isotropic(2, 0.8)
    report = analyze(rho, search_upper=3)
    kinds = {c.kind for c in report.certificates}
    assert kinds == {"map_witness", "fidelity_bound", "ensemble_upper", "isotropic_exact"}
    for cert in report.certificates:
        assert cert.verify(rho)
        assert cert.verify(other) is False
