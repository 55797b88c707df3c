import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_density,
    random_hermitian,
    random_pure,
    random_separable,
    random_unitary,
    rotated,
)
from schmidtkit import (
    BipartiteIndex,
    DensityMatrix,
    InvariantViolation,
    PureBipartiteState,
    PureEnsemble,
    analyze,
    apply_id_tensor_map,
    ensemble_search,
    fidelity_max,
    isotropic,
    isotropic_sn,
    max_entangled,
    min_eigenvalue,
    reduction_family,
    schmidt_rank,
    schmidt_ranks,
    sn_lower_via_map,
    tensor_copies,
    tensor_copy_bound,
    tetrahedral_ensemble_qubit,
    transpose_map,
    twirl_orbit,
    twirl_sectors,
    two_copy_construction,
    verify_decomposition,
    verify_report,
)
from schmidtkit import certify, io, kernels, twirl
from schmidtkit.certify import VERIFY_ATOL, FidelityBound, IsotropicExact, SnReport, peres_witness
from schmidtkit.maps import NEGATIVITY_THRESHOLD

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


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 4)])
def test_closed_form_witnesses_match_the_choi_reference(d_a, d_b):
    # The witnesses take (1 (x) L)(rho) in closed form: rho^Gamma and
    # rho_A (x) 1 - p rho. The reference pushes rho through L's Choi matrix.
    rng = np.random.default_rng(35)
    compared = 0
    for rank in (1, 1, 2, 2, 3, 3, 4, 4):
        rho = random_density(d_a, d_b, rng, rank=rank)
        witnesses = [(peres_witness(rho), transpose_map(d_b))]
        witnesses += [(sn_lower_via_map(rho, k), reduction_family(d_b, 1.0 / k))
                      for k in range(1, min(d_a, d_b))]
        for found, lam in witnesses:
            reference = min_eigenvalue(apply_id_tensor_map(lam, rho.matrix))
            if found is None:
                assert reference >= NEGATIVITY_THRESHOLD
            else:
                assert abs(found.min_eigenvalue - reference) <= 1e-14
                compared += 1
    assert compared >= 8


# ---------------------------------------------------------------- fidelity


def test_fidelity_max_isotropic():
    for n in (2, 3):
        for f in (1 / n**2, 0.4, 0.75, 1.0):
            fb = fidelity_max(isotropic(n, f))
            if f <= 1 / n:  # an overlap that proves only SN >= 1 gives no bound
                assert fb is None
            else:
                assert abs(fb.f_hat - f) < 1e-12  # the true optimum is F on this range


def test_fidelity_max_pure_state():
    amp = np.array([np.sqrt(0.9), 0, 0, np.sqrt(0.1)], dtype=complex)
    rho = PureBipartiteState(amp, BipartiteIndex(2, 2)).density()
    fb = fidelity_max(rho)
    assert abs(fb.f_hat - 0.8) < 1e-12
    fb = fidelity_max(max_entangled(3).density())
    assert abs(fb.f_hat - 1.0) < 1e-12


def test_fidelity_max_one_sided_on_pure_states():
    # On a pure state the top eigenvector is the state itself, so the one
    # step reaches the optimum: f_hat is the fraction, not only below it.
    rng = np.random.default_rng(32)
    for _ in range(5):
        psi = random_pure(3, 3, rng)
        fb = fidelity_max(psi.density())
        s = np.linalg.svd(psi.amplitude_matrix(), compute_uv=False)
        truth = np.sum(s) ** 2 / 3  # (1/N) (sum_i sqrt(lambda_i))^2
        assert abs(fb.f_hat - truth) < 1e-12


def test_fidelity_certificate_verifies():
    rho = isotropic(3, 0.7)
    fb = fidelity_max(rho)
    assert fb.verify(rho)
    achieved = (fb.state.amplitudes.conj() @ rho.matrix @ fb.state.amplitudes).real
    assert abs(achieved - fb.f_hat) < 1e-10


def test_fidelity_bound_rejects_non_square_state():
    state = random_pure(2, 3, np.random.default_rng(33))
    with pytest.raises(InvariantViolation, match="square"):
        FidelityBound(1.0, state, 2)


def test_isotropic_sn_as_a_fidelity_bound():
    # F > k/N proves SN >= k + 1 for every state, not only isotropic ones.
    assert isotropic_sn(4, 0.5) == 2
    assert isotropic_sn(4, 0.6) == 3
    assert isotropic_sn(3, 1 / 3) == 1
    assert isotropic_sn(5, 1.0) == 5
    with pytest.raises(InvariantViolation):
        isotropic_sn(3, 1.1)


def test_fidelity_max_takes_the_overlap_of_the_normalized_state():
    # Trace 1 + 5e-11 is within the density-matrix tolerance; the raw overlap
    # with Psi+ is 1 + 5e-11, outside the domain of isotropic_sn.
    rho = DensityMatrix(max_entangled(3).density().matrix * (1 + 5e-11), BipartiteIndex(3, 3))
    fb = fidelity_max(rho)
    assert fb.f_hat == 1.0 and fb.sn_bound == 3
    assert fb.verify(rho)
    assert analyze(rho).lower_bound == 3


@pytest.mark.parametrize("scale", [1 + 9e-11, 1 - 9e-11, 1 + 1.5e-12])
def test_a_trace_within_tolerance_does_not_move_the_bound_across_k_over_n(scale):
    # scale * rho_F at N = 2, F = 1/2 is separable once normalized, but its
    # raw overlap with Psi+ is 0.5 * scale. At 1 + 1.5e-12 the state is also
    # within 1e-12 of the isotropic state of its raw fidelity.
    rho = DensityMatrix(isotropic(2, 0.5).matrix * scale, BipartiteIndex(2, 2))
    report = analyze(rho, search_upper=1)
    assert (report.lower_bound, report.upper_bound) == (1, 1)
    assert verify_report(report, rho)
    raw = 0.5 * scale
    assert abs(raw - 0.5) <= VERIFY_ATOL
    if scale > 1:
        cert = FidelityBound(raw, max_entangled(2), isotropic_sn(2, raw))
        assert cert.sn_bound == 2 and not cert.verify(rho)
        assert not verify_report(SnReport(2, None, (cert,)), rho)
        assert not IsotropicExact(raw, max_entangled(2), 2).verify(rho)


@pytest.mark.parametrize("scale", [1 + 9e-11, 1 - 9e-11, 1 + 1.5e-12])
def test_reduced_search_fits_the_weights_of_the_normalized_state(scale, monkeypatch):
    # rho_F at N = 2, F = 1/2 sits on the boundary of the separable states;
    # weights fitted to scale * rho_F lie just outside the hull of the
    # twirled product seeds, whose traces are all 1.
    def no_generic_search(*args):
        raise AssertionError("the twirl-invariant state left the reduced route")

    monkeypatch.setattr(kernels, "factor_search", no_generic_search)
    rho = DensityMatrix(isotropic(2, 0.5).matrix * scale, BipartiteIndex(2, 2))
    cert = ensemble_search(rho, 1)
    assert cert is not None and cert.verify(rho)
    assert schmidt_ranks(cert.ensemble.amps, rho.idx).max() == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lower_bound_invariant_under_local_unitaries(n):
    # Schmidt number is invariant under U (x) V, so analyze must classify a
    # locally rotated isotropic state as it classifies the state itself,
    # exactly. At F = k/N + 5e-9 the reduction witness (eigenvalue -5e-9/k)
    # stays above its -1e-8 cut, and on the rotated state only a fidelity
    # bound that follows the rotation proves SN >= k + 1; a bound evaluated
    # at |Psi+> alone misses it. At F = k/N + 5e-10 the fidelity bound proves
    # it by the same rule as the exact isotropic classification. Below
    # F = 1/N^2 the frame comes from the bottom eigenvector.
    rng = np.random.default_rng(34)
    cases = [(f, True) for k in range(1, n)
             for f in (k / n - 1e-3, k / n + 5e-10, k / n + 5e-9, k / n + 1e-3)]
    cases += [(1 / n**2 - 1e-3, False), (1 / (2 * n**2), False)]
    for f, top_is_psi in cases:
        rho = rotated(isotropic(n, f), rng)
        if top_is_psi:
            fb = fidelity_max(rho)
            assert fb is None if f <= 1 / n else abs(fb.f_hat - f) < 1e-12, (n, f)
        report = analyze(rho)
        sn = isotropic_sn(n, f)
        assert (report.lower_bound, report.upper_bound) == (sn, sn), (n, f)
        assert verify_report(report, rho)


def _recheck_isotropic_exact(payload: dict, rho: np.ndarray) -> None:
    """Re-check an isotropic_exact payload against rho with plain numpy:
    psi is maximally entangled, rho / Tr(rho) is within 1e-12 of the
    isotropic state of fidelity f around psi, and k is the Schmidt number
    of that isotropic state."""
    n = payload["n"]
    psi = np.array(payload["psi_re"]) + 1j * np.array(payload["psi_im"])
    s = np.linalg.svd(psi.reshape(n, n), compute_uv=False)
    assert np.max(np.abs(s - 1 / np.sqrt(n))) <= 1e-12
    unit = rho / np.trace(rho).real
    f = float((psi.conj() @ unit @ psi).real)
    p = np.outer(psi, psi.conj())
    iso = f * p + (1 - f) * (np.eye(n * n) - p) / (n * n - 1)
    assert np.linalg.norm(unit - iso) <= 1e-12
    assert abs(f - payload["f"]) <= 1e-12
    assert payload["k"] == min(max(int(np.ceil(n * f - 1e-12)), 1), n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rotated_isotropic_states_get_the_bounds_of_the_unrotated_state(n):
    # Haar U (x) V images at and next to each boundary k/N, and below
    # 1/N^2, each re-checked by plain numpy from its report payload.
    rng = np.random.default_rng(36)
    fs = [f for k in range(1, n + 1) for f in (k / n, k / n - 1e-9, k / n + 1e-9) if f <= 1]
    for f in fs + [1 / (2 * n**2)]:
        iso = isotropic(n, f)
        expected = analyze(iso)
        for _ in range(3):
            rho = rotated(iso, rng)
            report = analyze(rho)
            assert (report.lower_bound, report.upper_bound) == \
                (expected.lower_bound, expected.upper_bound) == (isotropic_sn(n, f),) * 2
            (payload,) = [c for c in io.loads(io.dumps(report.to_payload()))["certificates"]
                          if c["kind"] == "isotropic_exact"]
            _recheck_isotropic_exact(payload, rho.matrix)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_perturbed_isotropic_state_is_never_classified(n, monkeypatch):
    # A traceless Hermitian perturbation of norm 1e-9 leaves the isotropic
    # family in every frame; the bounds may still be proven by other means.
    # Its spectrum spreads by far more than 2e-12, so only Psi+ is tried.
    frames = []
    monkeypatch.setattr(certify, "one_pair_sectors",
                        lambda psi: frames.append(psi) or twirl.one_pair_sectors(psi))
    rng = np.random.default_rng(37)
    # F stays below 1, where the perturbation would leave the PSD cone.
    for f in [k / n - 1e-9 for k in range(1, n)] + [1 / (2 * n**2), 1 - 1e-3]:
        for rotate in (False, True, True, True, True, True):
            iso = rotated(isotropic(n, f), rng) if rotate else isotropic(n, f)
            h = random_hermitian(n * n, rng)
            h -= np.trace(h) / (n * n) * np.eye(n * n)
            rho = DensityMatrix(iso.matrix + 1e-9 * h / np.linalg.norm(h), iso.idx)
            frames.clear()
            report = analyze(rho)
            assert len(frames) == 1
            assert "isotropic_exact" not in [c.kind for c in report.certificates], (n, f)
            assert verify_report(report, rho)


def test_analyze_skips_search_at_or_above_the_proven_upper_bound(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched above an exact upper bound")

    rho = rotated(isotropic(3, 0.5), np.random.default_rng(38))
    monkeypatch.setattr(certify, "ensemble_search", no_search)
    for k in (2, 3):
        report = analyze(rho, search_upper=k)
        assert (report.lower_bound, report.upper_bound) == (2, 2)
        assert [c.kind for c in report.certificates][0] == "isotropic_exact"


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


def test_tensor_copy_bound_at_a_boundary_is_the_power_of_the_one_copy_bound():
    # m copies of a state of Schmidt number k have Schmidt number <= k^m, so
    # a bound above it would be unsound; N^m F^m rounds to 4096 + 2e-12 at
    # N = 5, F = 2/5, m = 12.
    # Lowering F by 1e-12/N costs m k^(m-1) 1e-12 on the bound, a whole
    # unit only past m k^(m-1) = 1e12.
    assert tensor_copy_bound(0.4, 5, 12) == 4096
    for n in range(2, 7):
        for k in range(1, n + 1):
            for m in range(1, 21):
                bound = tensor_copy_bound(k / n, n, m)
                assert bound <= isotropic_sn(n, k / n) ** m, (n, k, m)
                if m * k ** (m - 1) < 1e11:
                    assert bound == k**m, (n, k, m)


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


def test_spectral_route_whenever_every_eigenvector_has_rank_at_most_k(monkeypatch):
    # An eigenbasis of Schmidt rank <= k is an exact decomposition: no
    # search runs, and the one member is the state itself.
    monkeypatch.setattr(kernels, "factor_search", None)
    product = np.zeros((6, 6), dtype=np.complex128)
    product[0, 0] = 1.0
    amps = np.zeros(9, dtype=np.complex128)
    amps[[0, 4]] = 0.6, 0.8j
    cases = ((DensityMatrix(product, BipartiteIndex(2, 3)), 1, 0.0),
             (PureBipartiteState(amps, BipartiteIndex(3, 3)).density(), 2, 1e-15))
    for rho, k, tol in cases:
        found = ensemble_search(rho, k, seed=0)
        assert len(found.ensemble.probs) == 1 and found.residual <= tol
        assert found.verify(rho)
    report = analyze(cases[0][0], search_upper=1)
    assert (report.lower_bound, report.upper_bound) == (1, 1)
    assert [len(c.ensemble.probs) for c in report.certificates] == [1]


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
    found = ensemble_search(rho, k, seed=0)
    assert found is not None
    assert verify_decomposition(found.ensemble, rho, k, 1e-10)
    assert found.residual <= 1e-10
    assert schmidt_ranks(found.ensemble.amps, idx).max() <= k


def test_two_copy_rank3_search_finds_nothing(monkeypatch):
    # The sector obstruction above proves that no decomposition exists. The
    # reduced route's gap test says so before the step limit, and the
    # generic search never runs.
    calls = []
    oracle = kernels.rank_k_oracle
    monkeypatch.setattr(kernels, "rank_k_oracle", lambda *a: calls.append(1) or oracle(*a))
    monkeypatch.setattr(kernels, "factor_search", None)
    target = tensor_copies(isotropic(2, np.sqrt(3) / 2), 2)
    assert ensemble_search(target, 3, seed=0) is None
    assert 0 < len(calls) < certify.REDUCED_STEPS


def test_twirl_route_certifies_its_last_iterate_near_the_edge(monkeypatch):
    # Just below F = (2 + sqrt(2))/4 some seeds use all REDUCED_STEPS; the
    # seeds of their last step still give an exact certificate, with no
    # second search behind them.
    calls = []
    oracle = kernels.rank_k_oracle
    monkeypatch.setattr(kernels, "rank_k_oracle", lambda *a: calls.append(1) or oracle(*a))
    monkeypatch.setattr(kernels, "factor_search", None)
    rho = tensor_copies(isotropic(2, 0.8535), 2)
    steps = []
    for seed in range(8):
        calls.clear()
        found = ensemble_search(rho, 3, seed=seed)
        steps.append(len(calls))
        assert found is not None and found.residual < 1e-9
        assert verify_decomposition(found.ensemble, rho, 3, 1e-9)
    assert certify.REDUCED_STEPS in steps


def test_generic_route_on_dimensions_without_twirl_sectors(monkeypatch):
    calls = []
    search = kernels.factor_search
    monkeypatch.setattr(kernels, "factor_search", lambda *a: calls.append(1) or search(*a))
    rng = np.random.default_rng(43)
    for d_a, d_b, k, terms in ((3, 3, 2, 18), (2, 3, 1, 12)):
        idx = BipartiteIndex(d_a, d_b)
        amps = np.array([_rank_k_amplitudes(d_a, d_b, k, rng) for _ in range(terms)])
        rho = PureEnsemble(rng.dirichlet(np.ones(terms)), amps, idx).mixture()
        calls.clear()
        found = ensemble_search(rho, k, seed=0)
        assert twirl_sectors(idx) is None and calls == [1]
        assert found is not None and found.verify(rho)


def _corpus_3x3_rank3(index):
    # State `index` of the 3x3 rank-3 corpus class (ROADMAP, default_rng(4)).
    rng = np.random.default_rng(4)
    for _ in range(index + 1):
        q = np.linalg.qr(rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3)))[0]
        p = rng.random(3)
        p /= p.sum()
    return DensityMatrix(q @ np.diag(p) @ q.conj().T, BipartiteIndex(3, 3))


def test_generic_search_decides_a_rank3_corpus_state():
    # Its reduction witness proves SN >= 2, and the factor-pair search
    # reaches the renormalized residual that _certified stores: a stop rule
    # on the unnormalized mixture ended at 6.97e-5 with a stored residual
    # that _certified rejected, leaving the state at (2, None).
    rho = _corpus_3x3_rank3(11)
    report = analyze(rho, search_upper=2)
    assert (report.lower_bound, report.upper_bound) == (2, 2)
    assert verify_report(report, rho)


def _counted_search(monkeypatch):
    # (iterations, residual) of every factor_search call.
    runs = []
    search = kernels.factor_search

    def counted(*args):
        out = search(*args)
        runs.append((out[3], out[0]))
        return out

    monkeypatch.setattr(kernels, "factor_search", counted)
    return runs


def test_failed_generic_search_stops_on_the_stall_rule(monkeypatch):
    runs = _counted_search(monkeypatch)
    rng = np.random.default_rng(44)
    rho = isotropic(2, 0.9)
    w = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    rotated = DensityMatrix(w @ rho.matrix @ w.conj().T, rho.idx)
    assert ensemble_search(rotated, 1, seed=0) is None
    assert len(runs) == 1
    iters, res = runs[0]
    assert kernels.STALL_ITERS < iters < certify.SEARCH_ITERS
    assert res >= certify.ENSEMBLE_TOL


def test_stalled_corpus_search_gives_up_below_the_cap(monkeypatch):
    # State 16 of the 3x3 rank-3 corpus class stalls near residual 1.2e-2 at
    # k = 2; the stall rule ends the search long before SEARCH_ITERS.
    runs = _counted_search(monkeypatch)
    assert ensemble_search(_corpus_3x3_rank3(16), 2, seed=0) is None
    iters, res = runs[0]
    assert len(runs) == 1 and iters < certify.SEARCH_ITERS // 10
    assert res >= certify.ENSEMBLE_TOL


def test_separable_2x3_state_gets_an_upper_bound():
    # Four product terms: the k = 1 search reaches ENSEMBLE_TOL, so the
    # state is decided (approximately, like every generic bound).
    rho = random_separable(2, 3, 4, np.random.default_rng(0))
    report = analyze(rho, search_upper=1)
    assert (report.lower_bound, report.upper_bound) == (1, 1)
    assert verify_report(report, rho)


def test_twirl_route_needs_an_invariant_state(monkeypatch):
    calls = []
    oracle = kernels.rank_k_oracle
    monkeypatch.setattr(kernels, "rank_k_oracle", lambda *a: calls.append(1) or oracle(*a))
    rng = np.random.default_rng(39)
    rho = isotropic(4, 0.6)
    w = np.kron(random_unitary(4, rng), random_unitary(4, rng))
    rotated = DensityMatrix(w @ rho.matrix @ w.conj().T, rho.idx)
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


@pytest.mark.parametrize("p", [0.7, 0.9])
def test_analyze_scans_reduction_witnesses_on_non_square_input(p):
    # p |Phi_3><Phi_3| + (1 - p) 1/12 on 3 x 4: L_{1/2} on M_4 proves SN >= 3.
    idx = BipartiteIndex(3, 4)
    phi = np.zeros(12)
    phi[[0, 5, 10]] = 1 / np.sqrt(3)
    rho = DensityMatrix(p * np.outer(phi, phi) + (1 - p) * np.eye(12) / 12, idx)
    rep = analyze(rho, seed=0)
    assert (rep.lower_bound, rep.upper_bound) == (3, None)
    assert verify_report(rep, rho)


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
    # |00> is 1.0 from the Bell state, whose Peres witness proves SN >= 2: a
    # certificate stating that residual cannot be built, and one stating a
    # smaller residual does not verify.
    from schmidtkit import SnReport
    from schmidtkit.certify import ENSEMBLE_TOL, EnsembleUpper

    bell = max_entangled(2).density()
    product = PureBipartiteState(np.array([1, 0, 0, 0], dtype=np.complex128), bell.idx)
    ensemble = PureEnsemble(np.array([1.0]), product.amplitudes[None], bell.idx)
    assert peres_witness(bell) is not None
    assert not verify_report(SnReport(1, 1, (EnsembleUpper(ensemble, k=1, residual=0.0),)), bell)
    for residual in (0.0, ENSEMBLE_TOL / 2):
        assert EnsembleUpper(ensemble, k=1, residual=residual).verify(product.density())
    for residual in (1.0, ENSEMBLE_TOL, -1e-3, np.nan):
        with pytest.raises(InvariantViolation, match="residual"):
            EnsembleUpper(ensemble, k=1, residual=residual)


def test_analyze_isotropic_endpoints():
    # The measured fidelity of these states lies a rounding error outside [0, 1].
    for f, sn in ((0.0, 1), (1.0, 3)):
        rep = analyze(isotropic(3, f), seed=0)
        assert (rep.lower_bound, rep.upper_bound) == (sn, sn)


def _factor_starts_by_loop(d_a, d_b, k, m, rng):
    # Reference: one member at a time, four draws per member, each member
    # scaled on its own to weight 1/m with its two factors scaled alike.
    a_s, b_s = [], []
    for _ in range(m):
        a = rng.normal(size=(1, d_a, k)) + 1j * rng.normal(size=(1, d_a, k))
        b = rng.normal(size=(1, d_b, k)) + 1j * rng.normal(size=(1, d_b, k))
        scale = (m * np.sum(np.abs(a @ b.transpose(0, 2, 1)) ** 2, axis=(1, 2))) ** -0.25
        a_s.append(a[0] * scale)
        b_s.append(b[0] * scale)
    return np.array(a_s), np.array(b_s)


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 3)])
def test_search_starts_equal_the_per_member_loop_bitwise(d_a, d_b, monkeypatch):
    starts = []

    def recorded(rho, d_a, d_b, k, a, b, *rest):
        starts.append((a, b))
        return 1.0, a, b, 0

    monkeypatch.setattr(kernels, "factor_search", recorded)
    rho = random_density(d_a, d_b, np.random.default_rng(45))
    m = 2 * d_a * d_b
    # At k = min(d_a, d_b) the spectral route answers with no search.
    for k in range(1, min(d_a, d_b)):
        for seed in range(20):
            starts.clear()
            assert ensemble_search(rho, k, seed=seed) is None
            ref_a, ref_b = _factor_starts_by_loop(d_a, d_b, k, m, np.random.default_rng(seed))
            (a, b), = starts
            assert a.shape == ref_a.shape and a.tobytes() == ref_a.tobytes()
            assert b.shape == ref_b.shape and b.tobytes() == ref_b.tobytes()
            phis = (a @ b.transpose(0, 2, 1)).reshape(m, -1)
            assert np.allclose(np.sum(np.abs(phis) ** 2, axis=1), 1.0 / m, rtol=1e-14, atol=0)
