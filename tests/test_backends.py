"""Tests of the numpy kernels in schmidtkit.kernels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtkit import kernels


def test_mc_kernel_variants_agree():
    # The batched kernel against a per-sample sum written out here.
    rng = np.random.default_rng(50)
    n = 3
    x = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    gin = (rng.normal(size=(64, n, n)) + 1j * rng.normal(size=(64, n, n))) / np.sqrt(2)
    reference = np.zeros((9, 9), dtype=np.complex128)
    for z in gin:
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        w = np.kron(u, u.conj())
        reference += w @ rho @ w.conj().T
    assert np.allclose(kernels.mc_twirl_sum(rho, gin), reference, atol=1e-12)


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
