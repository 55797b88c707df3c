"""Hot numeric kernels.

Every function here is array-in / array-out and free of Python objects.
Those marked ``@jit_kernel`` run JIT-compiled (numba backend) or interpreted
on plain numpy (fallback backend). The Monte-Carlo twirl additionally has a
vectorized numpy implementation used when the JIT is disabled; the
iterative optimizers share one source for both backends. The k-positivity
probe (choi_rows, map_rank_one, _min_eig_pair, probe_descent) is plain
numpy on either backend: each step is a few small matmuls and one eigh.

Seeding happens in the callers; kernels only consume pre-drawn randomness,
which keeps results identical across backends.
"""

from __future__ import annotations

import numpy as np

from ._backend import USE_NUMBA, jit_kernel


@jit_kernel
def polar_orthonormalize(m):
    """Closest isometry to m (polar factor), via thin SVD."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return np.ascontiguousarray(u @ vh)


@jit_kernel
def ginibre_to_unitary(z):
    """QR with R-diagonal phase normalization; Haar-distributed for Ginibre z."""
    q, r = np.linalg.qr(z)
    n = r.shape[0]
    for j in range(n):
        d = r[j, j]
        ph = d / abs(d)
        for i in range(n):
            q[i, j] = q[i, j] * ph
    return q


@jit_kernel
def mc_twirl_sum_loop(rho, gin):
    """Sum of (U (x) U*) rho (U (x) U*)^dagger over the Ginibre batch gin."""
    ns = gin.shape[0]
    n = gin.shape[1]
    d = n * n
    acc = np.zeros((d, d), dtype=np.complex128)
    w = np.empty((d, d), dtype=np.complex128)
    for s in range(ns):
        u = ginibre_to_unitary(gin[s])
        uc = u.conj()
        for i in range(n):
            for k in range(n):
                for j in range(n):
                    for l in range(n):
                        w[i * n + k, j * n + l] = u[i, j] * uc[k, l]
        acc += w @ rho @ w.conj().T
    return acc


def mc_twirl_sum_batched(rho, gin):
    """Vectorized equivalent of mc_twirl_sum_loop."""
    q, r = np.linalg.qr(gin)
    diag = np.einsum("sjj->sj", r)
    u = q * (diag / np.abs(diag))[:, None, :]
    ns, n, _ = u.shape
    w = (u[:, :, None, :, None] * u.conj()[:, None, :, None, :]).reshape(ns, n * n, n * n)
    return np.einsum("sab,bc,sdc->ad", w, rho, w.conj(), optimize=True)


mc_twirl_sum = mc_twirl_sum_loop if USE_NUMBA else mc_twirl_sum_batched


def choi_rows(c4):
    """Lay out a Choi tensor c4[k, a, l, b] for map_rank_one: [k, a, b, l]
    reshaped to (N, N^3)."""
    n = c4.shape[0]
    return np.ascontiguousarray(c4.transpose(0, 1, 3, 2).reshape(n, n**3))


def map_rank_one(c_rows, x):
    """(1 (x) L)(|x><x|) for |x> = vec(X), from the map's Choi tensor.

    ``c_rows`` is choi_rows(n_in * C) for the map's Choi tensor C[k, a, l, b];
    X is the N x N amplitude matrix. The result is
    sum_{k,l} X[i,k] (n_in C)[k,a,l,b] conj(X[j,l]) at [(i,a), (j,b)]: two
    matmuls and one transpose, O(N^5) flops and O(N^4) memory.
    """
    n = x.shape[0]
    t = (x @ c_rows).reshape(n * n * n, n) @ x.conj().T
    return t.reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(n * n, n * n)


def _min_eig_pair(c_rows, psi, n):
    """Min eigenpair of (1 (x) L)(|psi><psi|) and the gap above it."""
    m = map_rank_one(c_rows, psi.reshape(n, n))
    m = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(m)
    return w[0], np.ascontiguousarray(v[:, 0]), w[1] - w[0]


def probe_descent(c_rows, c_adj_rows, n, k, a0, b0, pert_a, pert_b, max_iters, step0):
    """Minimize the smallest eigenvalue of (1 (x) Map)(|Psi><Psi|) over
    Psi = (1/sqrt(k)) sum_n a_n (x) b_n, with A, B column-orthonormal N x k.

    ``c_rows`` and ``c_adj_rows`` are the Choi tensors of the map and of its
    adjoint in the layout of map_rank_one. Gradient descent with polar
    retraction; near-degenerate minimal eigenvalues trigger a small
    pre-drawn perturbation of the isometries. Returns (best value, A, B).
    """
    d = n * n
    sk = np.sqrt(k)
    a = a0.copy()
    b = b0.copy()
    psi = ((a @ b.T) / sk).reshape(d)
    val, vec, gap = _min_eig_pair(c_rows, psi, n)
    eta = step0
    n_pert = pert_a.shape[0]
    used_pert = 0
    for _ in range(max_iters):
        wmat = map_rank_one(c_adj_rows, vec.reshape(n, n))
        wmat = (wmat + wmat.conj().T) / 2.0
        g = (wmat @ psi).reshape(n, n)
        ga = (g @ b.conj()) / sk
        gb = (g.T @ a.conj()) / sk
        improved = False
        for _ in range(40):
            a2 = polar_orthonormalize(a - eta * ga)
            b2 = polar_orthonormalize(b - eta * gb)
            psi2 = ((a2 @ b2.T) / sk).reshape(d)
            val2, vec2, gap2 = _min_eig_pair(c_rows, psi2, n)
            if val2 < val - 1e-14:
                a, b, psi, val, vec, gap = a2, b2, psi2, val2, vec2, gap2
                eta = min(eta * 1.4, 1e3)
                improved = True
                break
            eta *= 0.5
            if eta < 1e-15:
                break
        if not improved:
            if gap < 1e-9 and used_pert < n_pert:
                a = polar_orthonormalize(a + 1e-8 * pert_a[used_pert])
                b = polar_orthonormalize(b + 1e-8 * pert_b[used_pert])
                psi = ((a @ b.T) / sk).reshape(d)
                val, vec, gap = _min_eig_pair(c_rows, psi, n)
                used_pert += 1
                eta = step0
            else:
                break
    return val, a, b


@jit_kernel
def _psi_of_unitary(u, n):
    return (np.ascontiguousarray(u.T) / np.sqrt(n)).reshape(n * n)


@jit_kernel
def fidelity_ascent(rho, n, u0, max_iters, ftol):
    """Maximize <Psi_U| rho |Psi_U> over unitaries, Psi_U = (1 (x) U)|Psi+>.

    Gradient ascent with polar retraction and adaptive step. Returns
    (value, U).
    """
    u = u0.copy()
    psi = _psi_of_unitary(u, n)
    val = (psi.conj() @ rho @ psi).real
    eta = 1.0
    for _ in range(max_iters):
        g = np.ascontiguousarray((rho @ psi).reshape(n, n).T) / np.sqrt(n)
        improved = False
        for _ in range(40):
            u2 = polar_orthonormalize(u + eta * g)
            psi2 = _psi_of_unitary(u2, n)
            val2 = (psi2.conj() @ rho @ psi2).real
            if val2 > val + ftol:
                u, psi, val = u2, psi2, val2
                eta = min(eta * 1.4, 1e6)
                improved = True
                break
            eta *= 0.5
            if eta < 1e-16:
                break
        if not improved:
            break
    return val, u


@jit_kernel
def simplex_project(v):
    """Euclidean projection onto the probability simplex."""
    n = v.shape[0]
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = 0
    for j in range(n):
        if u[j] + (1.0 - css[j]) / (j + 1) > 0.0:
            rho = j
    tau = (1.0 - css[rho]) / (rho + 1)
    out = v + tau
    for j in range(n):
        if out[j] < 0.0:
            out[j] = 0.0
    return out


@jit_kernel
def _truncate_rank(psi, d_a, d_b, k):
    """Project a vector onto Schmidt rank <= k and renormalize."""
    x = psi.reshape(d_a, d_b)
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    r = min(k, s.shape[0])
    y = np.zeros((d_a, d_b), dtype=np.complex128)
    for t in range(r):
        y += s[t] * np.outer(np.ascontiguousarray(u[:, t]), np.ascontiguousarray(vh[t, :]))
    out = y.reshape(d_a * d_b)
    return out / np.linalg.norm(out)


@jit_kernel
def _mixture_of(probs, psis):
    pw = psis * probs.reshape(-1, 1).astype(np.complex128)
    return pw.T @ psis.conj()


@jit_kernel
def ensemble_alt_min(rho, d_a, d_b, k, psis0, probs0, max_iters, tol, weight_iters):
    """Alternating minimization of || rho - sum_i p_i |psi_i><psi_i| ||_F.

    Vector sweep: each ansatz vector is replaced by the dominant eigenvector
    of its residual target and re-projected onto Schmidt rank <= k.
    Weight step: projected gradient on the probability simplex.
    Returns (residual, probs, psis, sweeps_used).
    """
    m = psis0.shape[0]
    d = d_a * d_b
    psis = psis0.copy()
    probs = probs0.copy()
    delta = rho - _mixture_of(probs, psis)
    best = 1e300
    stall = 0
    sweeps = 0
    for it in range(max_iters):
        sweeps = it + 1
        for i in range(m):
            pi = probs[i]
            old = np.ascontiguousarray(psis[i])
            t = delta + pi * np.outer(old, old.conj())
            t = (t + t.conj().T) / 2.0
            w, v = np.linalg.eigh(t)
            cand = _truncate_rank(np.ascontiguousarray(v[:, d - 1]), d_a, d_b, k)
            delta += pi * (np.outer(old, old.conj()) - np.outer(cand, cand.conj()))
            psis[i] = cand
        gram = np.abs(psis @ psis.conj().T) ** 2
        tmp = psis.conj() @ rho
        bvec = np.sum((tmp * psis).real, axis=1)
        lip = np.linalg.eigvalsh(gram)[m - 1] + 1e-12
        for _ in range(weight_iters):
            probs = simplex_project(probs - (gram @ probs - bvec) / lip)
        delta = rho - _mixture_of(probs, psis)
        res = np.sqrt(np.sum(np.abs(delta) ** 2))
        if res < best - 1e-13:
            best = res
            stall = 0
        else:
            stall += 1
        if res < 0.7 * tol or stall > 60:
            break
    res = np.sqrt(np.sum(np.abs(rho - _mixture_of(probs, psis)) ** 2))
    return res, probs, psis, sweeps
