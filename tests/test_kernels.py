"""Tests of the numpy kernels in schmidtkit.kernels."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_hermitian
from schmidtkit import kernels
from schmidtkit.linalg import BipartiteIndex, min_eigenvalue
from schmidtkit.maps import (
    NEGATIVITY_THRESHOLD,
    MatrixMap,
    apply_id_tensor_map,
    kpositivity_probe,
    reduction_family,
    transpose_map,
)
from schmidtkit.states import DensityMatrix
from schmidtkit.twirl import MC_BLOCK_BYTES, MC_CHUNK, twirl_mc


def _ginibre(rng, *shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2)


def _haar_by_qr(z):
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _mc_block(n):
    # The samples per block that twirl_mc takes at N = n.
    return MC_BLOCK_BYTES // (n**4 * 16)


def test_mc_kernel_variants_agree():
    # The blocked twirl against a per-sample sum written out here, from the
    # same draws: a full chunk followed by a partial one, one block plus one
    # sample (a last block of one), and a single sample.
    rng = np.random.default_rng(50)
    for n in (2, 3, 4, 6):
        d = n * n
        for samples in (MC_CHUNK + 37, _mc_block(n) + 1, 1):
            x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = x @ x.conj().T
            rho = DensityMatrix(rho / np.trace(rho).real, BipartiteIndex(n, n))
            reference = np.zeros((d, d), dtype=np.complex128)
            for c, start in enumerate(range(0, samples, MC_CHUNK)):
                draw = np.random.default_rng(np.random.SeedSequence((7, c)))
                shape = (min(MC_CHUNK, samples - start), n, n)
                gin = (draw.normal(size=shape) + 1j * draw.normal(size=shape)) / np.sqrt(2)
                for z in gin:
                    u = _haar_by_qr(z)
                    w = np.kron(u, u.conj())
                    reference += w @ rho.matrix @ w.conj().T
            np.testing.assert_allclose(twirl_mc(rho, samples, seed=7).matrix,
                                       reference / samples, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [4, 6])
def test_mc_twirl_kernel_memory_is_bounded(n):
    # W and W rho for a whole 2048-sample chunk would take 16.8 MB at N=4
    # and 84.9 MB at N=6. Three chunks take no more than one: the buffers
    # are allocated once per twirl.
    rho = DensityMatrix(np.eye(n * n, dtype=np.complex128) / (n * n), BipartiteIndex(n, n))
    peaks = []
    for samples in (MC_CHUNK, 3 * MC_CHUNK):
        tracemalloc.start()
        try:
            twirl_mc(rho, samples, seed=60 + n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 6 * 2**20
    assert peaks[1] < peaks[0] + 2**16


@pytest.mark.parametrize("n", [2, 3, 4])
def test_haar_from_ginibre_is_qr_with_positive_diagonal(n):
    rng = np.random.default_rng(52 + n)
    gin = _ginibre(rng, MC_CHUNK, n, n)
    q = kernels.haar_from_ginibre(gin)
    reference = np.array([_haar_by_qr(z) for z in gin])
    np.testing.assert_allclose(q, reference, rtol=0, atol=1e-12)
    r = q.conj().transpose(0, 2, 1) @ gin
    assert np.max(np.abs(np.tril(r, -1))) < 1e-12
    diag = np.diagonal(r, axis1=1, axis2=2)
    assert np.max(np.abs(diag.imag)) < 1e-12
    assert np.all(diag.real > 0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_haar_from_ginibre_takes_any_stack_shape(n):
    # No stack axis (one matrix) and a 2-D stack give the per-matrix Q.
    rng = np.random.default_rng(58 + n)
    one = _ginibre(rng, n, n)
    np.testing.assert_allclose(kernels.haar_from_ginibre(one), _haar_by_qr(one),
                               rtol=0, atol=1e-12)
    stack = _ginibre(rng, 3, 5, n, n)
    reference = np.array([[_haar_by_qr(z) for z in row] for row in stack])
    np.testing.assert_allclose(kernels.haar_from_ginibre(stack), reference,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_haar_from_ginibre_stays_unitary_on_nearly_dependent_columns(n):
    rng = np.random.default_rng(55 + n)
    gin = _ginibre(rng, MC_CHUNK, n, n)
    gin[:, :, 1] = gin[:, :, 0] + 1e-10 * _ginibre(rng, MC_CHUNK, n)
    q = kernels.haar_from_ginibre(gin)
    gram = q.conj().transpose(0, 2, 1) @ q
    assert np.max(np.abs(gram - np.eye(n))) < 1e-14


def test_simplex_project_reference():
    def reference(v):
        # bisection on the threshold tau with sum(max(v + tau, 0)) = 1
        lo, hi = -np.max(v) - 1.0, -np.min(v) + 1.0
        for _ in range(100):
            mid = (lo + hi) / 2
            if np.maximum(v + mid, 0.0).sum() > 1.0:
                hi = mid
            else:
                lo = mid
        return np.maximum(v + (lo + hi) / 2, 0.0)

    rng = np.random.default_rng(51)
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 12)) * rng.uniform(0.1, 10)
        got = kernels.simplex_project(v)
        assert np.isclose(got.sum(), 1.0, atol=1e-9)
        assert np.all(got >= 0)
        assert np.allclose(got, reference(v), atol=1e-8)


def test_simplex_project_matches_loop():
    # The loop form the vectorized projection replaced; same arithmetic, so
    # the outputs must agree bit for bit, signed zeros included.
    def loop(v):
        n = v.shape[0]
        u = np.sort(v)[::-1]
        css = np.cumsum(u)
        rho = 0
        for j in range(n):
            if u[j] + (1.0 - css[j]) / (j + 1) > 0.0:
                rho = j
        out = v + (1.0 - css[rho]) / (rho + 1)
        for j in range(n):
            if out[j] < 0.0:
                out[j] = 0.0
        return out

    rng = np.random.default_rng(53)
    for trial in range(300):
        v = rng.normal(size=rng.integers(1, 40)) * rng.uniform(1e-3, 10)
        if trial % 2:
            v = np.round(v, 1)  # ties in the sort
        v[rng.integers(v.size)] = -0.0
        assert kernels.simplex_project(v).tobytes() == loop(v).tobytes()


def test_truncate_rank_matches_loop():
    def loop(psi, d_a, d_b, k):
        u, s, vh = np.linalg.svd(psi.reshape(d_a, d_b), full_matrices=False)
        y = np.zeros((d_a, d_b), dtype=np.complex128)
        for t in range(min(k, s.shape[0])):
            y += s[t] * np.outer(u[:, t], vh[t, :])
        out = y.reshape(d_a * d_b)
        return out / np.linalg.norm(out)

    rng = np.random.default_rng(54)
    for d_a, d_b, k in [(2, 2, 1), (2, 3, 2), (4, 4, 2), (3, 5, 3), (4, 2, 4)]:
        psi = rng.normal(size=d_a * d_b) + 1j * rng.normal(size=d_a * d_b)
        got = kernels._truncate_rank(psi, d_a, d_b, k)
        assert np.allclose(got, loop(psi, d_a, d_b, k), atol=1e-14)


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (3, 3), (4, 4)])
def test_stacked_truncate_rank_is_the_row_loop(d_a, d_b):
    rng = np.random.default_rng(55)
    for k in range(1, min(d_a, d_b) + 1):
        stack = _ginibre(rng, 2, 5, d_a * d_b)
        got = kernels._truncate_rank(stack, d_a, d_b, k)
        rows = [[kernels._truncate_rank(row, d_a, d_b, k) for row in part] for part in stack]
        assert got.shape == stack.shape
        assert got.tobytes() == np.array(rows).tobytes()


def _search_case(d_a, d_b, k, terms, seed):
    # A mixture of `terms` random rank-k vectors, and one start of 2 d_a d_b
    # random rank-k vectors with equal weights.
    rng = np.random.default_rng(seed)
    m = 2 * d_a * d_b
    vecs = kernels._truncate_rank(_ginibre(rng, terms + m, d_a * d_b), d_a, d_b, k)
    p = rng.dirichlet(np.ones(terms))
    rho = (vecs[:terms].T * p) @ vecs[:terms].conj()
    return rho, vecs[terms:], np.full(m, 1.0 / m)


@pytest.mark.parametrize("d_a, d_b, k, terms", [(2, 2, 1, 8), (2, 3, 1, 12), (3, 3, 2, 18)])
def test_ensemble_alt_min_returns_the_residual_of_its_ensemble(d_a, d_b, k, terms):
    rho, psis0, probs0 = _search_case(d_a, d_b, k, terms, 56)
    for max_iters in (1, 2, 5, 40):
        res, probs, psis, _ = kernels.ensemble_alt_min(
            rho, d_a, d_b, k, psis0, probs0, max_iters, 1e-4)
        mixture = (psis.T * probs) @ psis.conj()
        assert abs(res - np.linalg.norm(rho - mixture)) <= 1e-14


def test_ensemble_alt_min_keeps_an_extrapolation_only_when_it_lowers_the_residual():
    # The state after n - 1 sweeps followed by one plain sweep (a single
    # sweep never extrapolates) is sweep n before its extrapolation step.
    d_a, d_b, k = 2, 3, 1
    rho, psis0, probs0 = _search_case(d_a, d_b, k, 12, 57)
    kept = rejected = 0
    for n in range(2, 60):
        res, _, psis, used = kernels.ensemble_alt_min(
            rho, d_a, d_b, k, psis0, probs0, n, 1e-4)
        if used < n:
            break
        _, probs_b, psis_b, _ = kernels.ensemble_alt_min(
            rho, d_a, d_b, k, psis0, probs0, n - 1, 1e-4)
        plain, _, psis_plain, _ = kernels.ensemble_alt_min(
            rho, d_a, d_b, k, psis_b, probs_b, 1, 1e-4)
        if np.array_equal(psis, psis_plain):
            assert res == plain
            rejected += 1
        else:
            assert res < plain
            kept += 1
    assert kept and rejected


def test_polar_orthonormalize():
    rng = np.random.default_rng(52)
    m = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    q = kernels.polar_orthonormalize(m)
    assert np.allclose(q.conj().T @ q, np.eye(2), atol=1e-12)


def _projected_gradient(gram, bvec, p, iters=200):
    """The fixed-step weight loop the exact refit replaced."""
    lip = np.linalg.eigvalsh(gram)[-1] + 1e-12
    for _ in range(iters):
        p = kernels.simplex_project(p - (gram @ p - bvec) / lip)
    return p


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 6),
    m=st.integers(1, 24),
    copies=st.integers(0, 3),
)
def test_simplex_qp_is_optimal(seed, d, m, copies):
    # G and b as ensemble_alt_min builds them: G is the Gram matrix of the
    # projectors |psi_i><psi_i|, b_i = <psi_i|rho|psi_i>. Duplicated members
    # make G singular.
    rng = np.random.default_rng(seed)
    psis = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
    for _ in range(copies):
        psis[rng.integers(m)] = psis[rng.integers(m)]
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    gram = np.abs(psis @ psis.conj().T) ** 2
    bvec = np.sum(((psis.conj() @ rho) * psis).real, axis=1)
    p0 = kernels.simplex_project(rng.normal(size=m))

    p = kernels.simplex_qp(gram, bvec, p0)

    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p >= 0.0)
    # KKT with multiplier nu = min_i g_i for the sum constraint: every
    # g_i - nu >= 0 holds by construction; complementary slackness
    # p_i (g_i - nu) = 0 and stationarity on the support are checked.
    g = gram @ p - bvec
    nu = g.min()
    assert np.all(p * (g - nu) <= 1e-10)
    assert np.all(g[p > 1e-6] - nu <= 1e-10)

    def objective(q):
        return 0.5 * q @ gram @ q - bvec @ q

    assert objective(p) <= objective(_projected_gradient(gram, bvec, p0)) + 1e-14


def _min_eig_pair_with_gap(lam, psi):
    m = apply_id_tensor_map(lam, np.outer(psi, psi.conj()))
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return w[0], v[:, 0], w[1] - w[0]


def _adjoint(lam):
    """Hilbert-Schmidt adjoint of a square map: Choi tensor C[i, a, j, b]
    becomes C[b, j, a, i]."""
    n = lam.n
    return MatrixMap(n, lam.choi4().transpose(3, 2, 1, 0).reshape(n * n, n * n))


def _perturbed_probe_descent(lam, k, a0, b0, pert_a, pert_b, max_iters, step0):
    """The Stiefel-gradient probe descent that kpositivity_probe replaced,
    with the perturbation branch it had before that: Psi = vec(A B^T)/sqrt(k)
    with A, B column-orthonormal, polar retraction and a backtracking step;
    when the line search fails at a near-degenerate minimum (gap < 1e-9),
    nudge A and B by the next pre-drawn perturbation and restart the step
    size."""
    adj = _adjoint(lam)
    sk = np.sqrt(k)
    a, b = a0.copy(), b0.copy()
    psi = ((a @ b.T) / sk).reshape(-1)
    val, vec, gap = _min_eig_pair_with_gap(lam, psi)
    eta = step0
    used_pert = 0
    for _ in range(max_iters):
        wmat = apply_id_tensor_map(adj, np.outer(vec, vec.conj()))
        g = (((wmat + wmat.conj().T) / 2.0) @ psi).reshape(a.shape[0], -1)
        ga = (g @ b.conj()) / sk
        gb = (g.T @ a.conj()) / sk
        improved = False
        for _ in range(40):
            a2 = kernels.polar_orthonormalize(a - eta * ga)
            b2 = kernels.polar_orthonormalize(b - eta * gb)
            psi2 = ((a2 @ b2.T) / sk).reshape(-1)
            val2, vec2, gap2 = _min_eig_pair_with_gap(lam, psi2)
            if val2 < val - 1e-14:
                a, b, psi, val, vec, gap = a2, b2, psi2, val2, vec2, gap2
                eta = min(eta * 1.4, 1e3)
                improved = True
                break
            eta *= 0.5
            if eta < 1e-15:
                break
        if improved:
            continue
        if gap >= 1e-9 or used_pert == pert_a.shape[0]:
            break
        a = kernels.polar_orthonormalize(a + 1e-8 * pert_a[used_pert])
        b = kernels.polar_orthonormalize(b + 1e-8 * pert_b[used_pert])
        psi = ((a @ b.T) / sk).reshape(-1)
        val, vec, gap = _min_eig_pair_with_gap(lam, psi)
        used_pert += 1
        eta = step0
    return val, a, b


def _choi_of(action, n):
    """Choi matrix (1/N) sum_ij |i><j| (x) L(|i><j|) of the map X -> action(X)."""
    choi = np.zeros((n * n, n * n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=np.complex128)
            unit[i, j] = 1.0
            choi += np.kron(unit, action(unit)) / n
    return MatrixMap(n, choi)


def _choi_map(x):
    # Choi's positive, not 2-positive map on M3: diag(x11+x33, x22+x11, x33+x22) - offdiag(x).
    d = np.diag(x)
    return np.diag([d[0] + d[2], d[1] + d[0], d[2] + d[1]]) - (x - np.diag(d))


def _breuer_hall(x):
    # Tr(X) 1 - X - U X^T U^dag with the antisymmetric unitary U = J (+) J.
    u = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return np.trace(x) * np.eye(4) - x - u @ x.T @ u.conj().T


def test_probe_matches_perturbed_descent_on_non_covariant_maps():
    # Conjugated reduction and transpose maps start at their optimum; these
    # maps make the descent move, so they exercise it.
    mixture = MatrixMap(3, 0.6 * reduction_family(3, 0.7).choi + 0.4 * transpose_map(3).choi)
    moved = 0.0
    for lam in (_choi_of(_choi_map, 3), _choi_of(_breuer_hall, 4), mixture):
        n = lam.n
        for k in range(1, n + 1):
            got = kpositivity_probe(lam, k, restarts=2, seed=0)
            ref = np.inf
            for r in range(2):
                rng = np.random.default_rng(r)
                a0 = np.linalg.qr(_ginibre(rng, n, k))[0]
                b0 = np.linalg.qr(_ginibre(rng, n, k))[0]
                pert_a, pert_b = _ginibre(rng, 8, n, k), _ginibre(rng, 8, n, k)
                val = _perturbed_probe_descent(lam, k, a0, b0, pert_a, pert_b, 500, 0.1)[0]
                ref = min(ref, val)
                start = _min_eig_pair_with_gap(lam, (a0 @ b0.T).reshape(-1) / np.sqrt(k))[0]
                moved = max(moved, start - val)
            assert got.violation == (ref < NEGATIVITY_THRESHOLD)
            assert abs(got.min_eigenvalue - ref) <= 1e-10
    assert moved > 0.1


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    data=st.data(),
    restarts=st.integers(1, 4),
)
def test_probe_state_is_flat_and_recomputes(seed, n, data, restarts):
    k = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    lam = MatrixMap(n, random_hermitian(n * n, rng))
    res = kpositivity_probe(lam, k, restarts=restarts, seed=seed)

    sv = np.linalg.svd(res.state.amplitude_matrix(), compute_uv=False)
    assert np.max(np.abs(sv[:k] - 1.0 / np.sqrt(k))) <= 1e-12
    assert np.all(sv[k:] <= 1e-12)
    lo = min_eigenvalue(apply_id_tensor_map(lam, res.state.density().matrix))
    assert abs(lo - res.min_eigenvalue) <= 1e-10
    assert res.cut == NEGATIVITY_THRESHOLD * max(1.0, np.max(np.abs(lam.choi)))
    assert res.violation == (res.min_eigenvalue < res.cut)
    # (1 (x) L)(|Psi><Psi|) is (N/k) C compressed to a Schmidt-rank-k
    # subspace, padded with zeros when k < N, so the floor is capped at 0
    # there (it is 0 itself when C is positive definite).
    c_min = np.linalg.eigvalsh(lam.choi)[0]
    floor = n / k * c_min if k == n else min(n / k * c_min, 0.0)
    assert res.min_eigenvalue >= floor - 1e-10
    if k < n:
        assert res.min_eigenvalue <= 1e-12
    else:
        assert abs(res.min_eigenvalue - c_min) <= 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_probe_below_full_rank_reads_zero_on_positive_definite_choi(n):
    # A positive definite C leaves only the zero padding below (N/k) c_min.
    lam = MatrixMap(n, np.diag(np.arange(1.0, n * n + 1.0)).astype(np.complex128))
    for k in range(1, n):
        res = kpositivity_probe(lam, k, restarts=2, seed=3)
        assert abs(res.min_eigenvalue) <= 1e-12
        assert not res.violation


def test_rank_k_oracle_on_maximally_entangled_projector(monkeypatch):
    # P (x) P over the cut A1 A2 : B1 B2 is |Phi_4><Phi_4|, whose largest
    # overlap with a Schmidt-rank-<=k state is k/4.
    from schmidtkit.twirl import twirl_sectors

    monkeypatch.setattr(kernels, "ORACLE_ITERS", 500)
    monkeypatch.setattr(kernels, "ORACLE_TOL", 1e-15)
    pp = twirl_sectors(BipartiteIndex(4, 4))[0]
    rng = np.random.default_rng(71)
    for k in range(1, 5):
        vals, psis = kernels.rank_k_oracle(pp, 4, 4, k, _ginibre(rng, 4, k)[None])
        assert abs(vals[0] - k / 4) <= 1e-12
        psi = psis[0]
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
        assert abs((psi.conj() @ pp @ psi).real - vals[0]) <= 1e-12
        assert np.linalg.matrix_rank(psi.reshape(4, 4), tol=1e-9) <= k


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_a=st.integers(1, 4),
    d_b=st.integers(1, 4),
    data=st.data(),
    max_iters=st.integers(1, 30),
)
def test_rank_k_oracle_never_descends(seed, d_a, d_b, data, max_iters):
    k = data.draw(st.integers(1, min(d_a, d_b)))
    rng = np.random.default_rng(seed)
    x = random_hermitian(d_a * d_b, rng)
    b0 = np.array([_ginibre(rng, d_b, k) for _ in range(3)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "ORACLE_ITERS", max_iters)
        mp.setattr(kernels, "ORACLE_TOL", 0.0)
        vals, psis = kernels.rank_k_oracle(x, d_a, d_b, k, b0)
    # The first A step alone reaches the top eigenvalue over span(B0).
    q = np.linalg.qr(b0)[0]
    for s in range(3):
        w = np.kron(np.eye(d_a), q[s])
        start = np.linalg.eigvalsh(w.conj().T @ x @ w)[-1]
        psi = psis[s]
        assert vals[s] >= start - 1e-12
        assert vals[s] <= np.linalg.eigvalsh(x)[-1] + 1e-12
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
        assert abs((psi.conj() @ x @ psi).real - vals[s]) <= 1e-12
        sv = np.linalg.svd(psi.reshape(d_a, d_b), compute_uv=False)
        assert np.count_nonzero(sv > 1e-9 * sv[0]) <= k
