"""Seeded inputs, operation plans and known answers for the four workloads.

Everything here is plain numpy: the benchmark builds its inputs and the
answers it expects without calling schmidtkit. One round of a workload is a
fixed list of operations; a run repeats that round, so every round attempts
the same operations on the same files.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("upper_search", "lower_bounds", "map_probe", "construct_twirl")

# Every fidelity F stays this far from the classification points k/N, and
# every reduction parameter p this far from 1/k.
MARGIN = 0.02
P_MARGIN = 0.05
F_TWO_COPY = 1.0 / math.sqrt(2.0)

# upper_search's small states. Rotated isotropic states: (N, the k searched,
# states per k). N = 4 at k = 1 is left out: its search time has a long
# tail (0.4-1.3 s) that would make the median op depend on the seed.
UPPER_ISOTROPIC = ((2, (1, 2), 10), (3, (1, 2, 3), 6), (4, (2, 3, 4), 4))
# Rank-<=k mixtures: (d_a, d_b, k, terms, count). Each kind was searched to
# success on 60 seeds at about 0.1-0.2 s per analyze.
MIXTURES = ((2, 2, 1, 8, 10), (3, 3, 2, 18, 10), (2, 3, 1, 12, 10))
# lower_bounds: (N, states per k), once exact and once locally rotated.
LOWER_ISOTROPIC = ((2, 12), (3, 8), (4, 6))
LOWER_2X3 = 12
# Probe restarts: at N = 6 each restart applies two 1296 x 1296 superoperators.
PROBE_RESTARTS = {3: 3, 4: 3, 6: 2}
TWIRL_SAMPLES = {2: 20000, 3: 8000, 4: 4000}
TWIRLS_PER_N = 12  # with the 4 demo dumps, 40 operations a round


# ------------------------------------------------------------ linear algebra


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def psi_plus(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128).reshape(n * n) / math.sqrt(n)


def isotropic_matrix(n: int, f: float) -> np.ndarray:
    """F P+ + (1 - F)(1 - P+)/(N^2 - 1)."""
    v = psi_plus(n)
    p = np.outer(v, v.conj())
    return f * p + (1.0 - f) * (np.eye(n * n) - p) / (n * n - 1)


def locally_rotated(rho: np.ndarray, d_a: int, d_b: int, rng) -> np.ndarray:
    w = np.kron(haar_unitary(d_a, rng), haar_unitary(d_b, rng))
    return w @ rho @ w.conj().T


def two_copy_state(f: float = F_TWO_COPY) -> np.ndarray:
    """rho (x) rho for the N=2 isotropic state, factors reordered A1 A2 B1 B2."""
    rho = isotropic_matrix(2, f)
    t = np.kron(rho, rho).reshape((2,) * 8)  # rows A1 B1 A2 B2, then columns
    return t.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)


def rank_k_vector(d_a: int, d_b: int, k: int, rng) -> np.ndarray:
    a = rng.normal(size=(d_a, k)) + 1j * rng.normal(size=(d_a, k))
    b = rng.normal(size=(d_b, k)) + 1j * rng.normal(size=(d_b, k))
    v = (a @ b.T).reshape(d_a * d_b)
    return v / np.linalg.norm(v)


def rank_k_mixture(d_a: int, d_b: int, k: int, terms: int, rng) -> np.ndarray:
    probs = rng.dirichlet(np.ones(terms))
    m = np.zeros((d_a * d_b, d_a * d_b), dtype=np.complex128)
    for p in probs:
        v = rank_k_vector(d_a, d_b, k, rng)
        m += p * np.outer(v, v.conj())
    return m


def random_density(d: int, rank: int, rng) -> np.ndarray:
    x = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = x @ x.conj().T
    return m / np.trace(m).real


def partial_transpose(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    r4 = rho.reshape(d_a, d_b, d_a, d_b)
    return r4.transpose(0, 3, 2, 1).reshape(d_a * d_b, d_a * d_b)


def fidelity_grid(n: int, k: int, count: int, rng) -> list[float]:
    """``count`` fidelities in ((k-1)/N, k/N), MARGIN away from both ends, so
    each isotropic state has Schmidt number k (Terhal & Horodecki's
    classification (k-1)/N < F <= k/N). One seeded offset shifts an even
    grid: every seed puts the same number of states in each part of the
    interval, and the cost of the fidelity ascent, which depends on F, then
    varies little from seed to seed."""
    lo, hi = (k - 1) / n + MARGIN, k / n - MARGIN
    offset = rng.uniform()
    return [lo + (j + offset) / count * (hi - lo) for j in range(count)]


def two_by_three_state(rng) -> tuple[np.ndarray, int]:
    """A 2x3 state (1-q) 1/6 + q |psi><psi| whose partial transpose is
    either positive or has an eigenvalue below -1e-3; PPT is separability
    at 2x3, so the Schmidt number is 1 or 2."""
    while True:
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        v /= np.linalg.norm(v)
        q = float(rng.uniform(0.05, 0.95))
        rho = (1.0 - q) * np.eye(6) / 6.0 + q * np.outer(v, v.conj())
        lo = float(np.linalg.eigvalsh(partial_transpose(rho, 2, 3))[0])
        if lo < -1e-3 or lo > 1e-3:
            return rho, 2 if lo < 0 else 1


# ----------------------------------------------------------------- k-positive maps


def map_on_blocks(spec: dict, x: np.ndarray) -> np.ndarray:
    """(1 (x) L)(X) for L(Y) = U L0(V Y V^dag) U^dag, applied to every N x N
    block of X. L0 is Y -> Tr(Y) 1 - p Y (reduction) or Y -> Y^T (transpose)."""
    n = spec["n"]
    u, v = spec["u"], spec["v"]
    blocks = x.reshape(-1, n, x.shape[1] // n, n).transpose(0, 2, 1, 3)
    y = v @ blocks @ v.conj().T
    if spec["map"] == "reduction":
        tr = np.trace(y, axis1=2, axis2=3)
        y = tr[:, :, None, None] * np.eye(n) - spec["p"] * y
    else:
        y = y.transpose(0, 1, 3, 2)
    y = u @ y @ u.conj().T
    return y.transpose(0, 2, 1, 3).reshape(x.shape)


def choi_matrix(spec: dict) -> np.ndarray:
    """C = (1 (x) L)(|Psi+><Psi+|), the convention of the Choi files."""
    v = psi_plus(spec["n"])
    return map_on_blocks(spec, np.outer(v, v.conj()))


def probe_expectation(spec: dict, k: int) -> tuple[bool, float]:
    """(violation expected, minimum over maximally entangled Schmidt-rank-k
    states of the smallest eigenvalue of (1 (x) L)(|psi><psi|)).

    Local unitaries do not move it. For the reduction map that minimum is
    1/k - p below k = N (or 0 when p < 1/k) and 1/N - p at k = N; for the
    transpose map it is 0 at k = 1 and -1/2 at k = 2.
    """
    n = spec["n"]
    if spec["map"] == "transpose":
        return k >= 2, (-0.5 if k == 2 else 0.0)
    p = spec["p"]
    value = 1.0 / k - p if k == n else min(0.0, 1.0 / k - p)
    return p > 1.0 / k, value


# --------------------------------------------------------------------- files


def write_matrix(path: str, m: np.ndarray, d_a: int, d_b: int) -> None:
    """The package's matrix file format: {"d_a", "d_b", "re", "im"}."""
    m = np.asarray(m, dtype=np.complex128)
    payload = {"d_a": d_a, "d_b": d_b, "re": m.real.tolist(), "im": m.imag.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


class Plan:
    """One round of operations: what the measured process runs (``ops``) and
    what the checks expect of each result (``expect``)."""

    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.ops: list[dict] = []
        self.expect: list[dict] = []

    def path(self, name: str) -> str:
        return os.path.join(self.run_dir, name)

    def add(self, argv, expect: dict, output: str, read=None, stdout=False):
        """One operation; ``output`` is the file that holds its result (its
        captured standard output when ``stdout``), read back with the
        package's reader of kind ``read`` if given."""
        self.ops.append({
            "argv": [str(a) for a in argv],
            "output": output,
            "read": read,
            "stdout": stdout,
        })
        self.expect.append(dict(expect, out=output))

    def state_file(self, rho: np.ndarray, d_a: int, d_b: int) -> str:
        path = self.path(f"in_{len(self.ops):03d}.json")
        write_matrix(path, rho, d_a, d_b)
        return path

    def analyze(self, rho, d_a, d_b, expect, extra=()):
        # The program's own seed is the operation's index: the inputs carry
        # the run's seed, and the optimizers' random starts do not add a
        # second source of seed-to-seed variation.
        src = self.state_file(rho, d_a, d_b)
        out = self.path(f"out_{len(self.ops):03d}.json")
        seed = len(self.ops)
        self.add(["analyze", "--input", src, "--seed", seed, *extra, "--out", out],
                 dict(expect, rho=rho, d_a=d_a, d_b=d_b), out, read="report")


def build(workload: str, seed: int, run_dir: str) -> Plan:
    """One round of ``workload``, its inputs made from ``seed``."""
    plan = Plan(run_dir)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    {"upper_search": _upper_search, "lower_bounds": _lower_bounds,
     "map_probe": _map_probe, "construct_twirl": _construct_twirl}[workload](plan, rng)
    return plan


def _upper_search(plan: Plan, rng) -> None:
    # The paper's two-copy state comes first, so its input and search seed
    # are the same in every run: the longest operation does not vary.
    plan.analyze(two_copy_state(), 4, 4, {"check": "upper", "k": 2, "known": 2},
                 extra=("--search-upper", 2))
    for n, ks, repeats in UPPER_ISOTROPIC:
        for k in ks:
            for f in fidelity_grid(n, k, repeats, rng):
                rho = locally_rotated(isotropic_matrix(n, f), n, n, rng)
                plan.analyze(rho, n, n, {"check": "upper", "k": k, "known": k},
                             extra=("--search-upper", k))
    for d_a, d_b, k, terms, count in MIXTURES:
        for _ in range(count):
            rho = rank_k_mixture(d_a, d_b, k, terms, rng)
            plan.analyze(rho, d_a, d_b, {"check": "upper", "k": k, "known": None},
                         extra=("--search-upper", k))


def _lower_bounds(plan: Plan, rng) -> None:
    for n, per_k in LOWER_ISOTROPIC:
        for exact in (True, False):
            for k in range(1, n + 1):
                for f in fidelity_grid(n, k, per_k, rng):
                    rho = isotropic_matrix(n, f)
                    if not exact:
                        rho = locally_rotated(rho, n, n, rng)
                    plan.analyze(rho, n, n, {"check": "lower", "known": k, "exact": exact},
                                 extra=("--json",))
    for _ in range(LOWER_2X3):
        rho, known = two_by_three_state(rng)
        plan.analyze(rho, 2, 3, {"check": "lower", "known": known, "exact": False},
                     extra=("--json",))


def _probe(plan: Plan, spec: dict, k: int) -> None:
    n = spec["n"]
    index = len(plan.ops)
    choi = plan.path(f"choi_{index:03d}.json")
    write_matrix(choi, choi_matrix(spec), n, n)
    violation, value = probe_expectation(spec, k)
    stdout = plan.path(f"probe_{index:03d}.json")
    plan.add(["probe-map", "--choi", choi, "--k", k, "--restarts", PROBE_RESTARTS[n],
              "--seed", index, "--json"],
             {"check": "probe", "spec": spec, "k": k, "violation": violation, "value": value},
             stdout, stdout=True)


def _map_spec(n: int, kind: str, rng, p: float | None = None) -> dict:
    return {"n": n, "map": kind, "p": p, "u": haar_unitary(n, rng), "v": haar_unitary(n, rng)}


def _map_probe(plan: Plan, rng) -> None:
    for n, repeats in ((3, 3), (4, 2)):
        for k in range(1, n + 1):
            for _ in range(repeats):
                if 1.0 / k - P_MARGIN > MARGIN:
                    p = float(rng.uniform(MARGIN, 1.0 / k - P_MARGIN))
                    _probe(plan, _map_spec(n, "reduction", rng, p), k)
                p = float(rng.uniform(1.0 / k + P_MARGIN, 1.0 / k + 0.5))
                _probe(plan, _map_spec(n, "reduction", rng, p), k)
        for k in (1, 2):
            for _ in range(2):
                _probe(plan, _map_spec(n, "transpose", rng), k)
    # N = 6: the superoperators are 1296 x 1296 and set the peak memory.
    _probe(plan, _map_spec(6, "reduction", rng, float(rng.uniform(0.55, 0.95))), 2)
    _probe(plan, _map_spec(6, "transpose", rng), 2)


def _construct_twirl(plan: Plan, rng) -> None:
    for i in range(4):
        dump = plan.path(f"ensemble_{i}.json")
        plan.add(["demo-nonadditivity", "--dump", dump],
                 {"check": "demo"}, dump, read="ensemble")
    for n in (2, 3, 4):
        for _ in range(TWIRLS_PER_N):
            rho = random_density(n * n, int(rng.integers(1, n * n + 1)), rng)
            src = plan.state_file(rho, n, n)
            out = plan.path(f"out_{len(plan.ops):03d}.json")
            samples = TWIRL_SAMPLES[n]
            plan.add(["twirl", "--input", src, "--mode", "mc", "--samples", samples,
                      "--seed", len(plan.ops), "--out", out],
                     {"check": "twirl", "rho": rho, "n": n, "samples": samples}, out)
