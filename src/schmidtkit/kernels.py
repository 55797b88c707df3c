"""Hot numeric kernels.

Every function here is array-in / array-out, free of Python objects, and
plain numpy. Seeding happens in the callers; kernels only consume pre-drawn
randomness.
"""

from __future__ import annotations

import numpy as np


def polar_orthonormalize(m):
    """Closest isometry to m (polar factor), via thin SVD."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return np.ascontiguousarray(u @ vh)


def mc_twirl_sum(rho, gin):
    """Sum of (U (x) U*) rho (U (x) U*)^dagger over the unitaries U of the
    Ginibre batch gin (QR with the phases of R's diagonal divided out, which
    is Haar-distributed)."""
    q, r = np.linalg.qr(gin)
    diag = np.einsum("sjj->sj", r)
    u = q * (diag / np.abs(diag))[:, None, :]
    ns, n, _ = u.shape
    w = (u[:, :, None, :, None] * u.conj()[:, None, :, None, :]).reshape(ns, n * n, n * n)
    return np.einsum("sab,bc,sdc->ad", w, rho, w.conj(), optimize=True)


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


def _psi_of_unitary(u, n):
    return (np.ascontiguousarray(u.T) / np.sqrt(n)).reshape(n * n)


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


def simplex_project(v):
    """Euclidean projection onto the probability simplex."""
    n = v.shape[0]
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    hits = np.flatnonzero(u + (1.0 - css) / np.arange(1, n + 1) > 0.0)
    rho = hits[-1] if hits.size else 0
    out = v + (1.0 - css[rho]) / (rho + 1)
    # np.where rather than np.maximum: a -0.0 entry stays -0.0.
    return np.where(out < 0.0, 0.0, out)


def simplex_qp(gram, bvec, p0):
    """Minimize 1/2 p^T G p - b^T p over the probability simplex.

    Primal active-set method from the feasible start p0, whose zero entries
    start fixed at zero. Each step solves the KKT system of the free
    entries, at most m+1 unknowns, with lstsq (a singular G is fine: the
    minimum-norm step has no component along G's null space). A step that
    would drive a free entry negative stops there and fixes that entry;
    otherwise the free set is optimal and the fixed entry with the most
    negative multiplier is freed, or, if there is none below -1e-12, p is
    optimal. The iteration cap only guards against cycling under rounding.
    simplex_project on the free entries removes the rounding left in the
    sum, and fixed entries stay exactly zero for the next warm start.
    """
    m = gram.shape[0]
    p = p0.copy()
    free = p > 0.0
    freed = -1
    for _ in range(10 * m + 10):
        f = np.flatnonzero(free)
        nf = f.size
        gff = gram[np.ix_(f, f)]
        kkt = np.zeros((nf + 1, nf + 1))
        kkt[:nf, :nf] = gff
        kkt[:nf, nf] = -1.0
        kkt[nf, :nf] = 1.0
        rhs = np.append(bvec[f] - gff @ p[f], 0.0)
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        d, nu = sol[:nf], sol[nf]
        down = np.flatnonzero(d < 0.0)
        ratios = p[f[down]] / -d[down]
        if ratios.size and ratios.min() < 1.0:
            t = np.argmin(ratios)
            blocking = f[down[t]]
            if blocking == freed and ratios[t] <= 0.0:
                # Its multiplier was negative only by rounding.
                break
            p[f] += ratios[t] * d
            p[blocking] = 0.0
            free[blocking] = False
            continue
        p[f] += d
        fixed = np.flatnonzero(~free)
        if not fixed.size:
            break
        mu = gram[fixed][:, f] @ p[f] - bvec[fixed] - nu
        t = np.argmin(mu)
        if mu[t] >= -1e-12:
            break
        freed = fixed[t]
        free[freed] = True
    p[free] = simplex_project(p[free])
    return p


def _truncate_rank(psi, d_a, d_b, k):
    """Project a vector onto Schmidt rank <= k and renormalize."""
    u, s, vh = np.linalg.svd(psi.reshape(d_a, d_b), full_matrices=False)
    s = s[:k]
    return ((u[:, :k] * (s / np.sqrt(s @ s))) @ vh[:k]).reshape(d_a * d_b)


def _mixture_of(probs, psis):
    pw = psis * probs.reshape(-1, 1).astype(np.complex128)
    return pw.T @ psis.conj()


def ensemble_alt_min(rho, d_a, d_b, k, psis0, probs0, max_iters, tol):
    """Alternating minimization of || rho - sum_i p_i |psi_i><psi_i| ||_F.

    Vector sweep: each ansatz vector is replaced by the dominant eigenvector
    of its residual target and re-projected onto Schmidt rank <= k.
    Weight step: the exact least-squares weights on the probability simplex
    for the new vectors (simplex_qp, warm-started from the last weights), so
    it never raises the residual.
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
            old = np.outer(psis[i], psis[i].conj())
            t = delta + pi * old
            t = (t + t.conj().T) / 2.0
            w, v = np.linalg.eigh(t)
            cand = _truncate_rank(v[:, d - 1], d_a, d_b, k)
            delta += pi * (old - np.outer(cand, cand.conj()))
            psis[i] = cand
        gram = np.abs(psis @ psis.conj().T) ** 2
        tmp = psis.conj() @ rho
        bvec = np.sum((tmp * psis).real, axis=1)
        probs = simplex_qp(gram, bvec, probs)
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
