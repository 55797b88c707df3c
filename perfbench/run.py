#!/usr/bin/env python3
"""Run one workload of the schmidtkit benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it measures the package under
``src/`` and nothing installed elsewhere. The inputs of one round are made
from the seed in this process; a separate measured process (worker.py, with
the BLAS/OpenMP thread count fixed) then repeats the round for about S
seconds and every result is checked here with plain numpy. Run files go to
``.bench_runs/`` in the checkout.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` the process runs the round once untraced and
once traced and the last line holds the per-layer metrics. ``--workload all``
runs every workload in turn. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, for the checks here
    os.environ[_var] = BLAS_THREADS

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

RUNS_DIR = ".bench_runs"
TIME_LIMIT_S = 170.0  # the whole run, set-up, checks and clean-up included
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"))


def measured_environment(src: str) -> dict:
    """The worker's environment: this one without the package's own
    settings, with one BLAS/OpenMP thread and the checkout's source first."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("SCHMIDTKIT_", "PYTHON"))}
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    # glibc's default mmap threshold, held fixed: by default it rises after
    # the first large free, and the N = 6 superoperators then land in the heap
    # or in fresh mappings depending on earlier allocations, which moved the
    # peak RSS of one seed by a whole 27 MB superoperator.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    src = os.path.join(os.getcwd(), "src")
    name = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    run_dir = os.path.join(RUNS_DIR, name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    plan = workloads.build(workload, seed, run_dir)
    plan_path = os.path.join(run_dir, "plan.json")
    result_path = os.path.join(run_dir, "result.json")
    spans_path = os.path.join(RUNS_DIR, name + ".spans.tsv")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"ops": plan.ops}, fh)

    with open(os.path.join(RUNS_DIR, name + ".log"), "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path,
             repr(t_spawn), str(seconds), "1" if trace else "0", spans_path],
            env=measured_environment(src), stdout=log, stderr=subprocess.STDOUT,
            timeout=max(deadline - time.monotonic(), 1.0), check=False,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"measured process exited with code {proc.returncode}; see {log.name}")
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)

    # Failed operations count in "failed"; "correct" speaks of the others.
    failed_ops = {i for i, _ in result["errors"]}
    wrong = []
    if not result["rounds_identical"]:
        wrong.append("results differ between rounds" + (" (traced vs untraced)" if trace else ""))
    for i, exp in enumerate(plan.expect):
        if i not in failed_ops:
            wrong += [f"op {i} {plan.ops[i]['argv'][0]}: {p}" for p in checks.check_op(exp)]
    shutil.rmtree(run_dir)

    summary = {
        "correct": not wrong,
        "attempted": len(result["latencies"]),
        "failed": len(result["errors"]),
        "problems": [f"op {i} failed: {err}" for i, err in result["errors"]] + wrong,
        "environment": result["environment"],
        "absent": result["absent"],
        "rounds": len(result["walls"]),
        "ops_per_round": result["ops_per_round"],
        "walls": result["walls"],
        "latencies": result["latencies"],
    }
    if trace:
        units = dict(tracer.metric_units(), **{"trace.overhead_s": "s"})
        summary["metrics"] = {n: {"value": result["per_layer"][n], "unit": u}
                              for n, u in units.items()}
    else:
        values = {
            "setup_s": result["setup_s"],
            # The mean over the run's rounds: the machine's speed drifts on a
            # scale of seconds, and a mean over the whole run averages it out.
            "wall_s": statistics.fmean(result["walls"]),
            "op_p50_s": statistics.median(result["latencies"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        summary["metrics"] = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    with open(os.path.join(RUNS_DIR, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join("src", "schmidtkit", "cli.py")):
        print("perfbench: src/schmidtkit not found; run from the root of a "
              "schmidtkit checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if len(names) > 1:
        deadline += TIME_LIMIT_S * (len(names) - 1)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        summary = run_workload(workload, args.seed, args.seconds, bool(args.trace), deadline)
        print(f"[{workload}] environment: {json.dumps(summary['environment'], sort_keys=True)}")
        if summary["absent"]:
            print(f"[{workload}] absent from the program: {', '.join(summary['absent'])}")
        print(f"[{workload}] {summary['rounds']} round(s) of {summary['ops_per_round']} "
              f"operations: {summary['attempted']} attempted, {summary['failed']} failed")
        for problem in summary["problems"]:
            print(f"[{workload}] PROBLEM {problem}")
        for name, m in summary["metrics"].items():
            print(f"[{workload}] {name} = {m['value']:.6g} {m['unit']}")
        final["correct"] = final["correct"] and summary["correct"]
        final["attempted"] += summary["attempted"]
        final["failed"] += summary["failed"]
        prefix = "" if len(names) == 1 else workload + "."
        final["metrics"].update({prefix + n: m for n, m in summary["metrics"].items()})
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
