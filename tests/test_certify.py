import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_density, random_pure, random_separable, random_unitary
from schmidtkit import (
    BipartiteIndex,
    DensityMatrix,
    InvariantViolation,
    PureBipartiteState,
    PureEnsemble,
    analyze,
    ensemble_search,
    fidelity_max,
    fidelity_to_sn_bound,
    isotropic,
    isotropic_sn,
    max_entangled,
    schmidt_rank,
    schmidt_ranks,
    sn_lower_via_map,
    tensor_copies,
    tensor_copy_bound,
    tetrahedral_ensemble_qubit,
    twirl_orbit,
    two_copy_construction,
    verify_decomposition,
    verify_report,
)
from schmidtkit import certify, kernels
from schmidtkit.certify import FidelityBound, peres_witness

F_TIGHT = 1 / np.sqrt(2)


# ------------------------------------------------------------- map witness


def test_sn_lower_via_map_isotropic_examples():
    cert = sn_lower_via_map(isotropic(4, 0.6), 2)
    assert cert is not None
    assert abs(cert.min_eigenvalue - (0.25 - 0.3)) < 1e-10
    assert cert.k == 2 and np.isclose(cert.p, 0.5)
    assert sn_lower_via_map(isotropic(4, 0.6), 3) is None


def test_sn_lower_via_map_separable():
    rng = np.random.default_rng(30)
    rho = random_separable(3, 3, 12, rng)
    assert sn_lower_via_map(rho, 1) is None


def test_peres_witness():
    assert peres_witness(isotropic(2, 0.9)) is not None
    assert peres_witness(isotropic(2, 0.4)) is None
    rng = np.random.default_rng(31)
    assert peres_witness(random_separable(2, 2, 8, rng)) is None


# ---------------------------------------------------------------- fidelity


def test_fidelity_max_isotropic():
    for n in (2, 3):
        for f in (1 / n**2, 0.4, 0.75, 1.0):
            fb = fidelity_max(isotropic(n, f), seed=0)
            assert fb.f_hat >= f - 1e-6
            assert fb.f_hat <= f + 1e-9  # true optimum is F on this range


def test_fidelity_max_pure_state():
    amp = np.array([np.sqrt(0.9), 0, 0, np.sqrt(0.1)], dtype=complex)
    rho = PureBipartiteState(amp, BipartiteIndex(2, 2)).density()
    fb = fidelity_max(rho, seed=1)
    assert abs(fb.f_hat - 0.8) < 1e-7
    fb = fidelity_max(max_entangled(3).density(), seed=0)
    assert abs(fb.f_hat - 1.0) < 1e-9


def test_fidelity_max_one_sided_on_pure_states():
    rng = np.random.default_rng(32)
    for _ in range(5):
        psi = random_pure(3, 3, rng)
        fb = fidelity_max(psi.density(), seed=2)
        s = np.linalg.svd(psi.amplitude_matrix(), compute_uv=False)
        truth = np.sum(s) ** 2 / 3  # (1/N) (sum_i sqrt(lambda_i))^2
        assert fb.f_hat <= truth + 1e-9


def test_fidelity_certificate_verifies():
    rho = isotropic(3, 0.7)
    fb = fidelity_max(rho, seed=3)
    assert fb.verify(rho)
    achieved = (fb.state.amplitudes.conj() @ rho.matrix @ fb.state.amplitudes).real
    assert abs(achieved - fb.f_hat) < 1e-10


def test_fidelity_bound_rejects_non_square_state():
    state = random_pure(2, 3, np.random.default_rng(33))
    with pytest.raises(InvariantViolation, match="square"):
        FidelityBound(1.0, state, 2)


def test_fidelity_to_sn_bound():
    assert fidelity_to_sn_bound(0.5, 4) == 2
    assert fidelity_to_sn_bound(0.6, 4) == 3
    assert fidelity_to_sn_bound(1 / 3, 3) == 1
    assert fidelity_to_sn_bound(1.0, 5) == 5
    for n in (2, 3, 4):
        for f in np.linspace(0.01, 1.0, 23):
            assert fidelity_to_sn_bound(f, n) == isotropic_sn(n, f)
    with pytest.raises(InvariantViolation):
        fidelity_to_sn_bound(1.1, 3)


# ------------------------------------------------------------- isotropics


def test_isotropic_sn_examples_and_boundaries():
    assert isotropic_sn(2, 0.75) == 2
    assert isotropic_sn(4, 0.6) == 3
    assert isotropic_sn(3, 1 / 3) == 1
    assert isotropic_sn(3, 0.0) == 1
    assert isotropic_sn(3, 1.0) == 3
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            assert isotropic_sn(n, k / n) == k
            assert isotropic_sn(n, k / n - 1e-13) == k
            if k < n:
                assert isotropic_sn(n, k / n + 1e-13) == k


def test_isotropic_decomposition_boundary():
    # SN = k up to F = k/2: at the boundary a rank-k decomposition exists,
    # found by the reduced route at k = 1 and spectrally at k = 2.
    for k, f in ((1, 0.5), (2, 1.0)):
        rho = isotropic(2, f)
        cert = ensemble_search(rho, k, seed=0)
        assert cert.residual < 1e-10
        assert verify_decomposition(cert.ensemble, rho, k, 1e-10)


def test_isotropic_decomposition_below_boundary():
    for k in (1, 2):
        for f in np.linspace(0.0, k / 2, 7):
            rho = isotropic(2, f)
            cert = ensemble_search(rho, k, seed=0)
            assert cert.residual < 1e-10
            assert verify_decomposition(cert.ensemble, rho, k, 1e-10)
    assert ensemble_search(isotropic(2, 0.9), 1, seed=0) is None
    with pytest.raises(InvariantViolation):
        ensemble_search(isotropic(2, 0.9), 3)


# ------------------------------------------------------------ tensor copies


def test_tensor_copy_bound_examples():
    assert tensor_copy_bound(F_TIGHT, 2, 2) == 2
    assert tensor_copy_bound(0.9, 2, 2) == 4
    for n in (2, 3):
        for f in np.linspace(0.0, 1.0, 21):
            assert tensor_copy_bound(f, n, 1) == isotropic_sn(n, f)


def test_tensor_copy_bound_monotone_in_copies():
    for n in (2, 3):
        for f in np.linspace(0.0, 1.0, 15):
            base = isotropic_sn(n, f)
            for m in (1, 2, 3):
                assert tensor_copy_bound(f, n, m) >= base


# ---------------------------------------------------------------- ensembles


def test_ensemble_search_separable_boundary():
    found = ensemble_search(isotropic(2, 0.5), 1, seed=0)
    assert found is not None
    assert found.residual < 1e-4
    assert verify_decomposition(found.ensemble, isotropic(2, 0.5), 1, 1e-4)


def test_ensemble_search_trivial_full_rank():
    found = ensemble_search(isotropic(2, 1.0), 2, seed=0)
    assert found is not None
    assert found.residual < 1e-4


def test_ensemble_search_rejects_bad_rank():
    with pytest.raises(InvariantViolation):
        ensemble_search(isotropic(2, 0.5), 3)


def test_two_copy_rank3_sector_obstruction():
    """No rank-<=3 decomposition of two copies at F = sqrt(3)/2 exists.

    Any such decomposition would need every member to have overlap 3/4 with
    the maximally entangled state (the rank-3 maximum, forced because the
    average must equal F^2 = 3/4). Saturating members have amplitude matrix
    proportional to a rank-3 projector, and for those the joint weight on
    the (1 - P+) (x) (1 - P+) sector is 5/12 - (t1 + t2)/6 >= 1/12 (t_i are
    reduced purities, at most 1), while the target needs (1 - F)^2 < 1/12.
    """
    from schmidtkit.linalg import permute_subsystems

    f = np.sqrt(3) / 2
    target = tensor_copies(isotropic(2, f), 2)
    v = max_entangled(2).amplitudes
    pp = np.outer(v, v.conj())
    qq = np.kron(np.eye(4) - pp, np.eye(4) - pp)
    qq_grouped = permute_subsystems(qq, [2, 2, 2, 2], [0, 2, 1, 3])

    # target sector weight is (1 - F)^2, strictly below the 1/12 floor
    target_weight = float(np.trace(qq_grouped @ target.matrix).real)
    assert abs(target_weight - (1 - f) ** 2) < 1e-12
    assert target_weight < 1 / 12 - 0.06

    # saturating family: X = (1 - |w><w|)/sqrt(3); sector weight follows the
    # purity formula and is minimized (= 1/12) at product w
    rng = np.random.default_rng(35)
    for _ in range(50):
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        w /= np.linalg.norm(w)
        x = (np.eye(4) - np.outer(w, w.conj())) / np.sqrt(3)
        psi = x.reshape(16)
        w4 = w.reshape(2, 2)
        t1 = np.trace((w4 @ w4.conj().T) @ (w4 @ w4.conj().T)).real
        t2 = np.trace((w4.T @ w4.conj()) @ (w4.T @ w4.conj())).real
        weight = float((psi.conj() @ qq_grouped @ psi).real)
        assert abs(weight - (5 / 12 - (t1 + t2) / 6)) < 1e-12
        assert weight >= 1 / 12 - 1e-12
        # members saturate the overlap bound and have Schmidt rank 3
        state = PureBipartiteState(psi, BipartiteIndex(4, 4))
        assert schmidt_rank(state) == 3
        s = np.linalg.svd(x, compute_uv=False)
        assert abs(np.sum(s) ** 2 / 4 - 0.75) < 1e-12  # fully entangled fraction


def test_ensemble_search_full_rank_is_the_spectral_decomposition():
    rng = np.random.default_rng(36)
    for d_a, d_b, rank in ((2, 2, 4), (2, 3, 3), (3, 3, 9), (3, 2, 1)):
        rho = random_density(d_a, d_b, rng, rank=rank)
        found = ensemble_search(rho, min(d_a, d_b), seed=0)
        w = np.linalg.eigvalsh(rho.matrix)
        assert len(found.ensemble.probs) == rank
        assert np.allclose(np.sort(found.ensemble.probs), w[-rank:], atol=1e-12)
        assert found.residual < 1e-13
        assert found.verify(rho)
    pure = ensemble_search(isotropic(2, 1.0), 2)
    assert len(pure.ensemble.probs) == 1 and pure.residual < 1e-13


def test_ensemble_search_states_the_residual_of_its_ensemble():
    rng = np.random.default_rng(38)
    generic = random_separable(2, 2, 8, rng)
    cases = ((generic, 1), (isotropic(2, 0.3), 1), (random_density(2, 3, rng), 2),
             (tensor_copies(isotropic(2, F_TIGHT), 2), 2))
    for rho, k in cases:
        found = ensemble_search(rho, k, seed=0)
        assert found is not None
        assert found.residual == float(np.linalg.norm(found.ensemble.mixture().matrix
                                                      - rho.matrix))


def _rank_k_amplitudes(d_a, d_b, k, rng):
    a = rng.normal(size=(d_a, k)) + 1j * rng.normal(size=(d_a, k))
    b = rng.normal(size=(d_b, k)) + 1j * rng.normal(size=(d_b, k))
    v = (a @ b.T).reshape(d_a * d_b)
    return v / np.linalg.norm(v)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pairs=st.integers(1, 2), data=st.data())
def test_twirl_reduced_search_solves_invariant_mixtures(seed, pairs, data):
    d = 2**pairs
    k = data.draw(st.integers(1, d - 1))
    terms = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    idx = BipartiteIndex(d, d)
    m = np.zeros((d * d, d * d), dtype=np.complex128)
    for p in rng.dirichlet(np.ones(terms)):
        amps = twirl_orbit(_rank_k_amplitudes(d, d, k, rng), idx, tetrahedral_ensemble_qubit())
        m += p * (amps.T @ amps.conj()) / len(amps)
    rho = DensityMatrix(m, idx)
    found, _ = certify._twirl_reduced_search(rho, k, seed=0)
    assert found is not None
    assert verify_decomposition(found.ensemble, rho, k, 1e-10)
    assert found.residual <= 1e-10
    assert schmidt_ranks(found.ensemble.amps, idx).max() <= k


def test_two_copy_rank3_search_finds_nothing(monkeypatch):
    # The sector obstruction above proves that no decomposition exists. The
    # reduced route's gap test says so, and the generic search is skipped.
    target = tensor_copies(isotropic(2, np.sqrt(3) / 2), 2)
    assert certify._twirl_reduced_search(target, 3, seed=0) == (None, True)
    monkeypatch.setattr(kernels, "ensemble_alt_min", None)
    assert ensemble_search(target, 3, seed=0) is None


def test_twirl_route_needs_an_invariant_state(monkeypatch):
    calls = []
    oracle = kernels.rank_k_oracle
    monkeypatch.setattr(kernels, "rank_k_oracle", lambda *a: calls.append(1) or oracle(*a))
    rng = np.random.default_rng(39)
    rho = isotropic(4, 0.6)
    w = np.kron(random_unitary(4, rng), random_unitary(4, rng))
    rotated = DensityMatrix(w @ rho.matrix @ w.conj().T, rho.idx)
    monkeypatch.setattr(certify, "SEARCH_RESTARTS", 1)
    monkeypatch.setattr(certify, "SEARCH_ITERS", 20)
    ensemble_search(rotated, 3, seed=0)
    assert not calls
    found = ensemble_search(rho, 3, seed=0)
    assert calls and found is not None and found.residual < 1e-12


def test_verify_decomposition_rank_check_matches_loop():
    rng = np.random.default_rng(37)
    idx = BipartiteIndex(3, 4)
    spectra = ([1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 1.001e-9, 0], [1, 0.999e-9, 0],
               [1, 0.5, 1.001e-9], [1, 0.5, 0.999e-9], [1, 1e-14, 1e-15])
    amps = []
    for sv in spectra:
        x = random_unitary(3, rng) @ np.diag(sv) @ random_unitary(4, rng)[:3]
        amps.append(x.reshape(12) / np.linalg.norm(x))
    amps = np.array(amps)
    ranks = [1, 2, 3, 2, 1, 3, 2, 1]
    assert schmidt_ranks(amps, idx).tolist() == ranks
    assert [schmidt_rank(PureBipartiteState(a, idx)) for a in amps] == ranks
    for k in (1, 2, 3):
        for a, r in zip(amps, ranks):
            alone = PureEnsemble(np.array([1.0]), a[None], idx)
            assert verify_decomposition(alone, alone.mixture(), k, 1.0) == (r <= k)
        ens = PureEnsemble(np.full(len(amps), 1 / len(amps)), amps, idx)
        assert verify_decomposition(ens, ens.mixture(), k, 1.0) == (max(ranks) <= k)


def test_verify_decomposition_cases():
    idx = BipartiteIndex(2, 2)
    zero = PureBipartiteState(np.array([1, 0, 0, 0], dtype=complex), idx)
    ens = PureEnsemble(np.array([1.0]), zero.amplitudes[None], idx)
    assert verify_decomposition(ens, zero.density(), 1, 1e-10)
    assert not verify_decomposition(ens, zero.density(), 1, 0.0)  # zero tolerance
    assert not verify_decomposition(ens, isotropic(2, 0.5), 1, 1e-6)  # wrong state

    ensemble = two_copy_construction()
    target = tensor_copies(isotropic(2, F_TIGHT), 2)
    assert verify_decomposition(ensemble, target, 2, 1e-8)
    assert not verify_decomposition(ensemble, target, 1, 1e-8)  # members have rank 2


def test_verify_decomposition_rank_gate():
    rng = np.random.default_rng(33)
    idx = BipartiteIndex(4, 4)
    rank3 = sum(np.kron(np.eye(4, dtype=complex)[i], np.eye(4, dtype=complex)[i]) for i in range(3))
    rank3 = rank3 / np.linalg.norm(rank3)
    st = PureBipartiteState(rank3, idx)
    ens = PureEnsemble(np.array([1.0]), rank3[None], idx)
    assert not verify_decomposition(ens, st.density(), 2, 1.0)
    assert verify_decomposition(ens, st.density(), 3, 1e-10)


# ------------------------------------------------------------------ analyze


def test_analyze_isotropic_lower_bound():
    rep = analyze(isotropic(3, 0.8), seed=0)
    assert rep.lower_bound == 3
    assert rep.upper_bound == 3  # exact isotropic classification
    kinds = [c.kind for c in rep.certificates]
    assert "isotropic_exact" in kinds and "fidelity_bound" in kinds
    assert verify_report(rep, isotropic(3, 0.8))


def test_analyze_maximally_mixed():
    n = 2
    mixed = DensityMatrix(np.eye(n * n) / n**2, BipartiteIndex(n, n))
    rep = analyze(mixed, search_upper=1, seed=0)
    assert rep.lower_bound == 1
    assert rep.upper_bound == 1
    assert verify_report(rep, mixed)


def test_analyze_one_copy_tight_point():
    rho = isotropic(2, F_TIGHT)
    rep = analyze(rho, search_upper=2, seed=0)
    assert (rep.lower_bound, rep.upper_bound) == (2, 2)
    assert verify_report(rep, rho)


def test_analyze_two_copy_nonadditivity():
    rho = tensor_copies(isotropic(2, F_TIGHT), 2)
    rep = analyze(rho, search_upper=2, seed=0)
    assert (rep.lower_bound, rep.upper_bound) == (2, 2)
    assert verify_report(rep, rho)
    (cert,) = [c for c in rep.certificates if c.kind == "ensemble_upper"]
    assert cert.residual <= 1e-12
    assert schmidt_ranks(cert.ensemble.amps, rho.idx).max() <= 2


def test_analyze_separable_states():
    rng = np.random.default_rng(34)
    for _ in range(50):
        rho = random_separable(2, 2, 10, rng)
        rep = analyze(rho, seed=0)
        assert rep.lower_bound == 1


def test_report_rejects_inconsistent_bounds():
    from schmidtkit import SnReport

    with pytest.raises(InvariantViolation):
        SnReport(lower_bound=3, upper_bound=2, certificates=())


def test_report_rejects_unbacked_bounds():
    from schmidtkit import SnReport

    rho = random_separable(2, 2, 4, np.random.default_rng(42))
    with pytest.raises(InvariantViolation, match="differ"):
        verify_report(SnReport(lower_bound=2, upper_bound=None, certificates=()), rho)


def test_ensemble_certificate_rejects_large_residual():
    # |00> is within residual 1.0 of the Bell state, whose Peres witness proves SN >= 2.
    from schmidtkit import SnReport
    from schmidtkit.certify import ENSEMBLE_TOL, EnsembleUpper

    bell = max_entangled(2).density()
    product = PureBipartiteState(np.array([1, 0, 0, 0], dtype=np.complex128), bell.idx)
    ensemble = PureEnsemble(np.array([1.0]), product.amplitudes[None], bell.idx)
    cert = EnsembleUpper(ensemble, k=1, residual=1.0)
    assert peres_witness(bell) is not None
    assert not verify_report(SnReport(1, 1, (cert,)), bell)
    for residual, valid in ((0.0, True), (ENSEMBLE_TOL / 2, True),
                            (ENSEMBLE_TOL, False), (-1e-3, False), (np.nan, False)):
        cert = EnsembleUpper(ensemble, k=1, residual=residual)
        assert cert.verify(product.density()) == valid


def test_analyze_isotropic_endpoints():
    # The measured fidelity of these states lies a rounding error outside [0, 1].
    for f, sn in ((0.0, 1), (1.0, 3)):
        rep = analyze(isotropic(3, f), seed=0)
        assert (rep.lower_bound, rep.upper_bound) == (sn, sn)
