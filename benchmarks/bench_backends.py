#!/usr/bin/env python3
"""Benchmark the numba-jitted kernels against the pure-numpy fallback.

Each workload runs in a child process with SCHMIDTKIT_BACKEND fixed, so both
backends are measured end to end (the numba timing excludes JIT compilation
by doing one warmup call inside the child). Without numba only the numpy
timings are printed.

Usage: python benchmarks/bench_backends.py [--quick]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

CHILD = r"""
import os, sys, time
import numpy as np
import schmidtkit as sk
from schmidtkit import kernels

label = sys.argv[1]
quick = sys.argv[2] == "1"

def timed(fn, warmup=True):
    if warmup:
        fn()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0

results = {}

# Monte-Carlo twirl of a 2-qubit state
rho = sk.isotropic(2, 0.3)
samples = 20_000 if quick else 100_000
results[f"twirl_mc N=2 ({samples} samples)"] = timed(
    lambda: sk.twirl_mc(rho, samples, seed=7)
)

# k-positivity probe grid on the reduction family
def probe_grid():
    for p in (0.45, 0.6, 1.0):
        lam = sk.reduction_family(3, p)
        for k in (1, 2, 3):
            sk.kpositivity_probe(lam, k, restarts=4, seed=0)

results["probe grid N=3 (9 runs x 4 restarts)"] = timed(probe_grid)

# fidelity ascent on an isotropic state
rho3 = sk.isotropic(3, 0.7)
results["fidelity_max N=3 (10 restarts)"] = timed(
    lambda: sk.fidelity_max(rho3, restarts=10, seed=0)
)

# rank-constrained ensemble search
rho_sep = sk.isotropic(2, 0.5)
iters = 400 if quick else 1500
results[f"ensemble_search k=1 ({iters} sweeps)"] = timed(
    lambda: sk.ensemble_search(rho_sep, 1, restarts=1, max_iters=iters, seed=0),
    warmup=False,
)

for name, dt in results.items():
    print(f"{label}\t{name}\t{dt:.4f}")
"""


def run_backend(backend: str, quick: bool) -> list[str]:
    env = dict(os.environ, SCHMIDTKIT_BACKEND=backend)
    out = subprocess.run(
        [sys.executable, "-c", CHILD, backend, "1" if quick else "0"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return [line for line in out.stdout.splitlines() if "\t" in line]


def have_numba() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def _seconds(t: float | None) -> str:
    return f"{t:>9.3f}s" if t else f"{'-':>10}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    args = parser.parse_args()

    backends = ["numpy"]
    if have_numba():
        backends.append("numba")
    else:
        print("numba is not importable: skipping the numba backend")

    rows = {}
    for backend in backends:
        print(f"running {backend} backend ...", flush=True)
        for line in run_backend(backend, args.quick):
            label, name, dt = line.split("\t")
            rows.setdefault(name, {})[label] = float(dt)

    width = max(len(name) for name in rows)
    print(f"\n{'workload':<{width}}  {'numpy':>10}  {'numba':>10}  {'speedup':>8}")
    for name, times in rows.items():
        np_t, nb_t = times.get("numpy"), times.get("numba")
        speedup = f"{np_t / nb_t:>7.1f}x" if np_t and nb_t else f"{'-':>8}"
        print(f"{name:<{width}}  {_seconds(np_t)}  {_seconds(nb_t)}  {speedup}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
