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
# factor_search. On 209 test states (certify.SEARCH_ITERS) memories 5, 10
# and 20 decide the same 206; 5 took 22% more iterations than 10, and 20 no
# less time. A 50-iteration stall window gave up on 2 of the 206; 100 gives
# up on none, and stops the 3 failures after 483-514 iterations, where with
# no stall rule they ran to the cap (7.6 s against 0.3 s).
FACTOR_MEMORY = 10
STALL_ITERS = 100
STALL_GAIN = 0.01


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


def _factor_objective(rho, a, b):
    """f = ||rho - sigma||_F^2 for sigma = sum_i phi_i phi_i^dag,
    phi_i = vec(A_i B_i^T), its gradient over (Re, Im) of the factors
    packed as one complex vector (A's entries, then B's), ||sigma||_F^2 and
    Tr sigma. With G_i the d_a x d_b reshape of -4 (rho - sigma) phi_i, the
    gradient is G_i conj(B_i) for A_i and G_i^T conj(A_i) for B_i."""
    m, d_a, _ = a.shape
    phi = (a @ b.transpose(0, 2, 1)).reshape(m, -1)
    sigma = phi.T @ phi.conj()
    delta = rho - sigma
    g = (phi @ (-4.0 * delta.T)).reshape(m, d_a, -1)
    grad = np.concatenate([(g @ b.conj()).ravel(), (g.transpose(0, 2, 1) @ a.conj()).ravel()])
    return np.vdot(delta, delta).real, grad, np.vdot(sigma, sigma).real, np.vdot(phi, phi).real


def factor_search(rho, d_a, d_b, k, a, b, max_iters, tol):
    """Minimize f = ||rho - sum_i phi_i phi_i^dag||_F^2 over the factor pairs
    of the members phi_i = vec(A_i B_i^T), with A_i d_a x k and B_i d_b x k
    (the stacks a (m, d_a, k) and b (m, d_b, k)): a Burer-Monteiro
    factorization (Math. Program. 95, 329 (2003)) of the rank-<=k mixtures,
    so every member has Schmidt rank <= k by construction and its weight is
    ||phi_i||^2; no weights are refit.

    L-BFGS (Nocedal, Math. Comp. 35, 773 (1980)) with FACTOR_MEMORY pairs,
    the first step scaled by f/|grad|^2, and Armijo backtracking from step 1;
    a pair with s.y <= 1e-12 y.y is not stored. A step that backtracks past
    2^-30 clears the memory, or ends the search if it was empty. Stops when
    the residual of the mixture scaled to trace 1, ||rho - sigma/Tr sigma||_F,
    is below 0.7 tol, read from ||rho||^2, Re Tr(rho sigma) =
    (||rho||^2 + ||sigma||^2 - f)/2, ||sigma||^2 and Tr sigma with no second
    product; or when f has fallen by less than STALL_GAIN over the last
    STALL_ITERS iterations; or after max_iters iterations. Returns
    (||rho - sigma/Tr sigma||_F of the returned factors, a, b, iterations).
    """
    m, na = a.shape[0], a.size
    rho_sq = np.vdot(rho, rho).real
    goal = (0.7 * tol) ** 2

    def evaluate(x):
        a, b = x[:na].reshape(m, d_a, k), x[na:].reshape(m, d_b, k)
        f, grad, s, t = _factor_objective(rho, a, b)
        return f, grad, rho_sq - (rho_sq + s - f) / t + s / (t * t)

    x = np.concatenate([a.ravel(), b.ravel()])
    f, g, r2 = evaluate(x)
    s_mem, y_mem = np.empty((2, FACTOR_MEMORY, 2 * x.size))
    used, fs = 0, [f]
    while len(fs) <= max_iters and r2 >= goal:
        gr = g.view(np.float64)
        if used:
            # H grad in the compact form (Byrd, Nocedal & Schnabel, Math.
            # Program. 63, 129 (1994)): the two-loop recursion's value.
            s_, y_ = s_mem[:used], y_mem[:used]
            sy = s_ @ y_.T
            yy = y_ @ y_.T
            gamma = sy[-1, -1] / yy[-1, -1]
            r = np.triu(sy)
            w = np.linalg.solve(r, s_ @ gr)
            p = np.linalg.solve(r.T, np.diag(sy) * w + gamma * (yy @ w - y_ @ gr))
            step_dir = -(gamma * gr + p @ s_ - gamma * (w @ y_))
        else:
            step_dir = gr * (-f / (gr @ gr))
        slope = 1e-4 * (gr @ step_dir)
        for halvings in range(31):
            step = 0.5**halvings
            x_new = x + step * step_dir.view(np.complex128)
            f_new, g_new, r2_new = evaluate(x_new)
            if f_new <= f + step * slope:
                break
        else:
            if not used:
                break
            used = 0
            continue
        s = (x_new - x).view(np.float64)
        y = (g_new - g).view(np.float64)
        if s @ y > 1e-12 * (y @ y):
            if used == FACTOR_MEMORY:
                s_mem[:-1], y_mem[:-1] = s_mem[1:], y_mem[1:]
                used -= 1
            s_mem[used], y_mem[used] = s, y
            used += 1
        x, f, g, r2 = x_new, f_new, g_new, r2_new
        fs.append(f)
        if len(fs) > STALL_ITERS and f > (1.0 - STALL_GAIN) * fs[-1 - STALL_ITERS]:
            break
    a, b = x[:na].reshape(m, d_a, k), x[na:].reshape(m, d_b, k)
    phi = (a @ b.transpose(0, 2, 1)).reshape(m, -1)
    sigma = phi.T @ phi.conj()
    return float(np.linalg.norm(rho - sigma / np.trace(sigma).real)), a, b, len(fs) - 1
