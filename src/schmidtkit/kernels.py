"""Hot numeric kernels.

Every function here is array-in / array-out, free of Python objects, and
plain numpy. Seeding and drawing happen in the callers; kernels only
consume the randomness they are handed.
"""

from __future__ import annotations

import numpy as np

# The stop rule of rank_k_oracle.
ORACLE_ITERS = 500
ORACLE_TOL = 1e-15


def polar_orthonormalize(m):
    """Closest isometry to m, or to each matrix of a stack m (polar factor),
    via thin SVD."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return np.ascontiguousarray(u @ vh)


def haar_from_ginibre(gin):
    """The Haar-distributed unitary of a Ginibre matrix, or of each matrix of
    a stack: Q of its QR with R's diagonal real and positive (Mezzadri,
    Notices AMS 54, 592 (2007)).

    Gram-Schmidt runs one column at a time over the whole stack, so no
    per-matrix LAPACK call is made. The stack axes are moved last, so each
    step is an elementwise operation whose inner loop runs over the
    samples. Each column is orthogonalized twice against the columns
    before it, which keeps Q unitary to rounding even when the columns are
    nearly dependent; the norm it is divided by is R's diagonal entry, real
    and positive. Returns a view with the stack axes first again, of a
    samples-last array, so any leading stack shape works.
    """
    g = np.moveaxis(gin, (-2, -1), (0, 1))
    q = np.empty(g.shape, dtype=np.complex128)
    for j in range(g.shape[1]):
        v = g[:, j]
        if j:
            qj = q[:, :j]
            for _ in range(2):
                coef = np.sum(qj.conj() * v[:, None], axis=0)
                v = v - np.sum(qj * coef[None], axis=1)
        q[:, j] = v / np.linalg.norm(v, axis=0)
    return np.moveaxis(q, (0, 1), (-2, -1))


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


def rank_k_oracle(x, d_a, d_b, k, b0):
    """Maximize <psi|X|psi> over unit psi of Schmidt rank <= k, from every
    start of the stack b0 (S, d_b, k) at once.

    psi = vec(A B^T) with A d_a x k and B d_b x k. With B column-orthonormal,
    psi = (1 (x) B) vec(A) and |psi| = |vec(A)|, so the best A is the top
    eigenvector of (1 (x) B)^dag X (1 (x) B); A is then orthonormalized by
    QR and B is refit the same way with the roles swapped. Each half-step
    maximizes over a set that contains the current psi, so no step lowers
    the value. Both reduced matrices are batched matrix products with two
    layouts of X made once per call: X as (i j k', l) times each start's B,
    then B^dag on the j axis; X as (i j l, k') times A, then A^dag on the i
    axis. Stops when no start gains more than ORACLE_TOL max(1, max |X_ij|),
    so above unit entries the rule does not depend on the scale of X, or
    after ORACLE_ITERS rounds. Returns (values (S,), psis (S, d_a d_b)).
    """
    x_b = x.reshape(d_a * d_b * d_a, d_b)
    x_a = x.reshape(d_a, d_b, d_a, d_b).transpose(0, 1, 3, 2).reshape(-1, d_a)
    tol = ORACLE_TOL * max(1.0, float(np.max(np.abs(x))))
    b = np.linalg.qr(b0)[0]
    val = None
    for _ in range(ORACLE_ITERS):
        t = (x_b @ b).reshape(-1, d_a, d_b, d_a * k)
        m = b.conj().transpose(0, 2, 1)[:, None] @ t
        v = np.linalg.eigh(m.reshape(-1, d_a * k, d_a * k))[1][:, :, -1]
        a = np.linalg.qr(v.reshape(-1, d_a, k))[0]
        t = (x_a @ a).reshape(-1, d_a, d_b * d_b * k)
        m = (a.conj().transpose(0, 2, 1) @ t).reshape(-1, k, d_b, d_b, k)
        w, v = np.linalg.eigh(m.transpose(0, 1, 2, 4, 3).reshape(-1, k * d_b, k * d_b))
        bt = v[:, :, -1].reshape(-1, k, d_b)
        prev, val = val, w[:, -1]
        if prev is not None and np.all(val - prev <= tol):
            break
        b = np.linalg.qr(bt.transpose(0, 2, 1))[0]
    return val, (a @ bt).reshape(-1, d_a * d_b)


def _truncate_rank(psi, d_a, d_b, k):
    """Project a vector, or each row of a stack (..., d_a d_b), onto Schmidt
    rank <= k and renormalize."""
    u, s, vh = np.linalg.svd(psi.reshape(psi.shape[:-1] + (d_a, d_b)), full_matrices=False)
    s = s[..., None, :k]
    s = s / np.sqrt((s * s).sum(-1, keepdims=True))
    return ((u[..., :k] * s) @ vh[..., :k, :]).reshape(psi.shape)


def _residual(rho, probs, proj):
    """rho - sum_i p_i P_i for the projector stack proj, and its Frobenius norm."""
    m, d, _ = proj.shape
    delta = rho - (probs.astype(np.complex128) @ proj.reshape(m, d * d)).reshape(d, d)
    return delta, np.sqrt(np.sum(np.abs(delta) ** 2))


def _projectors(psis):
    """The stack of projectors |psi_i><psi_i| of the rows of psis."""
    return psis[:, :, None] * psis.conj()[:, None, :]


def ensemble_alt_min(rho, d_a, d_b, k, psis0, probs0, max_iters, tol):
    """Alternating minimization of || rho - sum_i p_i |psi_i><psi_i| ||_F.

    Vector sweep (Gauss-Seidel): each member's vector is replaced by the
    top eigenvector of its residual target delta + p_i P_i and re-projected
    onto Schmidt rank <= k. The member projectors P_i = |psi_i><psi_i| are
    kept as one (m, D, D) stack, so each step builds only the new one.
    Weight step: the exact least-squares weights on the probability simplex
    for the new vectors (simplex_qp, warm-started from the last weights), so
    it never raises the residual; the residual is then recomputed from rho,
    the stack and the weights, so no rounding drift builds up.
    Extrapolation step, from the second sweep on while the residual is at
    or above 0.7 tol (line search in alternating least squares: Bro 1998;
    Rajih, Comon & Harshman, SIAM J. Matrix Anal. Appl. 30 (2008)): each
    vector from before the sweep is aligned in phase to its new vector,
    y = psi + alpha (psi - psi_prev e^{i arg<psi_prev|psi>}) is re-projected
    onto Schmidt rank <= k row by row, and y replaces the vectors, with the
    same weights, only if its residual is strictly lower; a y with a
    non-finite or zero row is rejected before the projection. alpha starts
    at 1, grows by 1.5 on each accepted trial and halves on each rejected
    one, never below 1/4.
    Stops below 0.7 tol, or after 60 sweeps in a row that each gain at most
    1e-13 on the best residual, or after max_iters sweeps (at least one).
    Returns the residual of the last sweep: (residual, probs, psis,
    sweeps_used).
    """
    m = psis0.shape[0]
    d = d_a * d_b
    psis = psis0.copy()
    probs = probs0.copy()
    proj = _projectors(psis)
    delta = _residual(rho, probs, proj)[0]
    best = 1e300
    stall = 0
    sweeps = 0
    step = 1.0
    for it in range(max_iters):
        sweeps = it + 1
        prev = psis.copy()
        for i in range(m):
            pi = probs[i]
            # delta becomes the target t = delta + p_i P_i; eigh reads one
            # triangle of it.
            delta += pi * proj[i]
            cand = _truncate_rank(np.linalg.eigh(delta)[1][:, d - 1], d_a, d_b, k)
            np.multiply(cand[:, None], cand.conj(), out=proj[i])
            delta -= pi * proj[i]
            psis[i] = cand
        gram = np.abs(psis @ psis.conj().T) ** 2
        tmp = psis.conj() @ rho
        bvec = np.sum((tmp * psis).real, axis=1)
        probs = simplex_qp(gram, bvec, probs)
        delta, res = _residual(rho, probs, proj)
        if it and res >= 0.7 * tol:
            phase = np.exp(1j * np.angle(np.sum(prev.conj() * psis, axis=1)))
            y = psis + step * (psis - prev * phase[:, None])
            norms = np.linalg.norm(y, axis=1)
            res_y = np.inf
            if np.all(np.isfinite(norms) & (norms > 0.0)):
                y = _truncate_rank(y, d_a, d_b, k)
                proj_y = _projectors(y)
                delta_y, res_y = _residual(rho, probs, proj_y)
            if res_y < res:
                psis, proj, delta, res = y, proj_y, delta_y, res_y
                step *= 1.5
            else:
                step = max(step / 2.0, 0.25)
        if res < best - 1e-13:
            best = res
            stall = 0
        else:
            stall += 1
        if res < 0.7 * tol or stall > 60:
            break
    return res, probs, psis, sweeps
