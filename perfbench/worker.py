"""The measured process: import schmidtkit, then run rounds of one plan.

run.py starts it with a fixed environment and the monotonic clock reading
taken just before the start, so set-up is timed from the process's start to
the moment it is ready for its first operation. Every operation is one
``schmidtkit.cli.main(argv)`` call, followed by the package's own reader
where the workload reads its result back.

    python3 worker.py PLAN RESULT T_SPAWN SECONDS TRACE SPANS
"""

import sys
import time

import schmidtkit
from schmidtkit import cli
from schmidtkit import io as skio

READY = time.monotonic()  # set-up ends here; run.py passes the start time

import contextlib  # noqa: E402  (imported after the set-up clock stops)
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402

from tracer import Tracer  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def read_back(kind: str, path: str) -> None:
    # Looked up at call time, so the traced run sees the wrapped reader.
    if kind == "report":
        skio.read_report_file(path)
    elif kind == "ensemble":
        skio.read_ensemble_file(path)


def run_op(op: dict) -> tuple[float, str | None]:
    """Time one operation; return (seconds, error or None)."""
    out = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(op["argv"])
        if code == 0 and op["read"]:
            read_back(op["read"], op["output"])
        elif code != 0:
            error = f"exit code {code}"
    except SystemExit as exc:  # argparse rejects the command line
        error = f"exit code {exc.code}"
    except Exception as exc:  # noqa: BLE001 - one failed operation must not end the run
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if op["stdout"]:
        with open(op["output"], "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
    return elapsed, error


def run_round(ops: list, tracer: Tracer | None = None):
    latencies, errors = [], []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is None:
            elapsed, error = run_op(op)
        else:
            with tracer.span("benchmark.op"):
                elapsed, error = run_op(op)
        latencies.append(elapsed)
        if error:
            errors.append([i, error])
    return time.perf_counter() - t0, latencies, errors


def outputs_digest(ops: list) -> str:
    """Hash of every result file, to compare rounds byte for byte."""
    h = hashlib.sha256()
    for op in ops:
        try:
            with open(op["output"], "rb") as fh:
                h.update(fh.read())
        except FileNotFoundError:
            h.update(b"<missing>")
    return h.hexdigest()


def backend() -> str:
    try:
        module = importlib.import_module("schmidtkit._backend")
    except ImportError:
        return "numpy (no backend switch)"
    return str(getattr(module, "BACKEND", "unknown"))


def environment() -> dict:
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "backend": backend(),
        "schmidtkit": os.path.dirname(schmidtkit.__file__),
    }


def main() -> int:
    plan_path, result_path, t_spawn = sys.argv[1], sys.argv[2], float(sys.argv[3])
    seconds, trace, spans_path = float(sys.argv[4]), sys.argv[5] == "1", sys.argv[6]
    with open(plan_path, "r", encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]

    walls, latencies, errors, digests = [], [], [], []
    per_layer = absent = None

    def record(round_result):
        wall, lat, errs = round_result
        walls.append(wall)
        latencies.extend(lat)
        errors.extend(errs)
        digests.append(outputs_digest(ops))

    if trace:
        # One untraced round, then the same round traced: the reports must be
        # byte-identical and the wall-time difference is the tracing overhead.
        record(run_round(ops))
        tracer = Tracer()
        tracer.install()
        try:
            record(run_round(ops, tracer))
        finally:
            tracer.uninstall()
        per_layer = tracer.metrics()
        per_layer["trace.overhead_s"] = walls[1] - walls[0]
        absent = tracer.absent + sorted(tracer.unreadable)
        tracer.write(spans_path)
    else:
        begin = time.perf_counter()
        while True:
            record(run_round(ops))
            # Start another whole round only if it should end within the run.
            if time.perf_counter() - begin + walls[-1] > seconds:
                break

    result = {
        "setup_s": READY - t_spawn,
        "walls": walls,
        "latencies": latencies,
        "ops_per_round": len(ops),
        "errors": errors,
        "rounds_identical": len(set(digests)) == 1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "per_layer": per_layer,
        "absent": absent,
        "environment": environment(),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
