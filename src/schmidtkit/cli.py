"""Command-line front end; main builds its parser once per process and reuses it.

Exit codes: 0 success, 1 internal numeric failure, 2 invalid input. All JSON
output is deterministic for a fixed --seed (default 0).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import io
from .certify import (
    analyze,
    isotropic_sn,
    tensor_copy_bound,
)
from .linalg import InvariantViolation
from .maps import MatrixMap, kpositivity_probe
from .states import isotropic, schmidt_ranks, tensor_copies
from .twirl import (
    fidelity_with_max_entangled,
    twirl_exact,
    twirl_mc,
    two_copy_coefficients,
    two_copy_construction,
)

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_INVALID = 2

F_TIGHT = 1.0 / np.sqrt(2.0)
F_CONJECTURED = np.sqrt(3.0) / 2.0


def _seed(text: str) -> int:
    """A --seed value; numpy's generators take only non-negative seeds."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"need a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schmidtkit",
        description="Schmidt-number bounds and certificates for bipartite density matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="certify Schmidt-number bounds for a state file")
    p.add_argument("--input", required=True, help="density-matrix JSON file")
    p.add_argument("--search-upper", type=int, default=None, metavar="K",
                   help="also search for a rank-<=K decomposition, 1 <= K <= min(d_a, d_b); "
                        "it runs only when lower <= K < upper for the bounds proven "
                        "without it (no upper bound: infinite)")
    p.add_argument("--seed", type=_seed, default=0,
                   help="seed of the --search-upper search's random starts (default 0)")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON instead of a text summary")
    p.add_argument("--out", default=None, help="also write the JSON report here")

    p = sub.add_parser("isotropic", help="classify an isotropic state exactly")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--f", type=float, required=True)
    p.add_argument("--emit-state", default=None, metavar="FILE")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("demo-nonadditivity",
                       help="run the two-copy rank-2 construction and verify it")
    p.add_argument("--dump", default=None, metavar="FILE",
                   help="write the 1152-member ensemble to FILE")

    p = sub.add_parser("figure-step",
                       help="emit N=2 one- and two-copy Schmidt-number step data as CSV")
    p.add_argument("--grid", type=int, default=400)
    p.add_argument("--out", required=True)

    p = sub.add_parser("probe-map", help="search for a k-positivity violation of a Choi file")
    p.add_argument("--choi", required=True, help="Hermitian Choi-matrix JSON file (raw)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("twirl", help="project a state onto the isotropic family")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)

    return parser


def _cmd_analyze(args) -> int:
    rho = io.read_matrix_file(args.input)
    report = analyze(rho, search_upper=args.search_upper, seed=args.seed)
    text = io.dumps(report.to_payload())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.json:
        sys.stdout.write(text)
    else:
        upper = "unknown" if report.upper_bound is None else str(report.upper_bound)
        print(f"schmidt number lower bound: {report.lower_bound}")
        print(f"schmidt number upper bound: {upper}")
        for cert in report.certificates:
            print(f"  {cert.describe()}")
    return EXIT_OK


def _cmd_isotropic(args) -> int:
    k = isotropic_sn(args.n, args.f)
    lo, hi = (k - 1) / args.n, k / args.n
    if args.emit_state:
        state = isotropic(args.n, args.f)
        io.write_matrix_file(args.emit_state, state.matrix, state.idx)
    if args.json:
        sys.stdout.write(io.dumps({
            "n": args.n,
            "f": args.f,
            "schmidt_number": k,
            "interval": {"open_lower": lo, "closed_upper": hi},
        }))
    else:
        print(f"isotropic state N={args.n}, F={args.f:g}: Schmidt number {k}")
        print(f"classification interval: {lo:.12g} < F <= {hi:.12g}")
    return EXIT_OK


def _cmd_demo(args) -> int:
    ensemble = two_copy_construction()
    mixture = ensemble.mixture()
    s2 = np.sqrt(2.0)
    a_expect = (s2 - 1.0) ** 2 / 18.0
    b_expect = (s2 - 1.0) / 6.0
    c_expect = 0.5
    a, b1, b2, c = two_copy_coefficients(mixture)
    target = tensor_copies(isotropic(2, F_TIGHT), 2)
    dist = float(np.linalg.norm(mixture.matrix - target.matrix))
    max_rank = int(schmidt_ranks(ensemble.amps, ensemble.idx).max())

    checks = [
        ("coefficient a", abs(a - a_expect) < 1e-10, f"{a:.15g} vs {a_expect:.15g}"),
        ("coefficient b (pair 1)", abs(b1 - b_expect) < 1e-10, f"{b1:.15g} vs {b_expect:.15g}"),
        ("coefficient b (pair 2)", abs(b2 - b_expect) < 1e-10, f"{b2:.15g} vs {b_expect:.15g}"),
        ("coefficient c", abs(c - c_expect) < 1e-10, f"{c:.15g} vs {c_expect:.15g}"),
        ("mixture equals isotropic(2, 1/sqrt(2))^(x)2", dist < 1e-10, f"distance {dist:.3e}"),
        ("all 1152 members Schmidt rank <= 2", max_rank <= 2, f"max rank {max_rank}"),
    ]
    ok = True
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
        ok = ok and passed
    if args.dump:
        io.write_ensemble_file(args.dump, ensemble)
        print(f"ensemble written to {args.dump} ({len(ensemble.probs)} members)")
    print("RESULT:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_NUMERIC


def _cmd_figure(args) -> int:
    if args.grid < 2:
        raise InvariantViolation(f"grid must have at least 2 points, got {args.grid}")
    specials = [0.5, F_TIGHT, F_CONJECTURED]
    fs = sorted(set(np.linspace(0.0, 1.0, args.grid).tolist()) | set(specials))
    lines = ["F,sn_one_copy,sn_two_copy_lower,marker"]
    for f in fs:
        one = isotropic_sn(2, f)
        two = tensor_copy_bound(f, 2, 2)
        marker = ""
        if f == F_TIGHT:
            marker = "tight:sn2"
        elif f == F_CONJECTURED:
            marker = "conjectured:sn3"
        lines.append(f"{io.format_float(f)},{one},{two},{marker}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(fs)} rows to {args.out}")
    return EXIT_OK


def _cmd_probe(args) -> int:
    matrix, idx = io.read_matrix_file(args.choi, raw=True)
    lam = MatrixMap(idx.d_a, matrix)
    result = kpositivity_probe(lam, args.k, restarts=args.restarts, seed=args.seed)
    if args.json:
        amps = result.state.amplitudes
        sys.stdout.write(io.dumps({
            "violation": result.violation,
            "min_eigenvalue": result.min_eigenvalue,
            "state_re": amps.real.tolist(),
            "state_im": amps.imag.tolist(),
        }))
    elif result.violation:
        print(f"violation: min eigenvalue {result.min_eigenvalue:.12g} < {result.cut}")
        amps = result.state.amplitudes
        print("witness state (re):", " ".join(io.format_float(x) for x in amps.real))
        print("witness state (im):", " ".join(io.format_float(x) for x in amps.imag))
    else:
        print(f"no violation found (not a certificate); best value {result.min_eigenvalue:.12g}")
    return EXIT_OK


def _cmd_twirl(args) -> int:
    rho = io.read_matrix_file(args.input)
    if args.mode == "exact":
        out = twirl_exact(rho)
    else:
        out = twirl_mc(rho, samples=args.samples, seed=args.seed)
        exact = twirl_exact(rho)
        dist = float(np.linalg.norm(out.matrix - exact.matrix))
        print(f"distance to exact twirl: {dist:.6e}")
    io.write_matrix_file(args.out, out.matrix, out.idx)
    print(f"F = {fidelity_with_max_entangled(rho):.12g}")
    return EXIT_OK


_HANDLERS = {
    "analyze": _cmd_analyze,
    "isotropic": _cmd_isotropic,
    "demo-nonadditivity": _cmd_demo,
    "figure-step": _cmd_figure,
    "probe-map": _cmd_probe,
    "twirl": _cmd_twirl,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (InvariantViolation, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (np.linalg.LinAlgError, FloatingPointError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
