"""Per-layer tracing by wrapping schmidtkit's module-level functions.

Each target is replaced, in every schmidtkit module that holds it (so names
imported into other modules, such as ``certify.apply_id_tensor_map``, are
traced too), by a wrapper that records one span: name, parent span, start
and end. Spans stay in compact arrays in memory and are written out once,
at the end. A target that no longer exists is reported as absent.

Kernels compiled by numba call each other inside compiled code, so under
that backend only the outermost kernel of a call is seen.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path, extra counter, function of the return value).
TARGETS = (
    ("kernels", "ensemble_alt_min", "sweeps", lambda r: int(r[3])),
    ("kernels", "simplex_project", None, None),
    ("kernels", "_truncate_rank", None, None),
    ("kernels", "fidelity_ascent", None, None),
    ("kernels", "probe_descent", None, None),
    ("kernels", "_min_eig_pair", None, None),
    ("kernels", "polar_orthonormalize", None, None),
    ("kernels", "mc_twirl_sum", None, None),
    ("maps", "id_tensor_superop", "bytes", lambda r: int(r.nbytes)),
    ("maps", "kpositivity_probe", None, None),
    ("maps", "apply_id_tensor_map", None, None),
    ("certify", "analyze", None, None),
    ("certify", "ensemble_search", None, None),
    ("certify", "verify_decomposition", None, None),
    ("certify", "fidelity_max", None, None),
    ("certify", "sn_lower_via_map", None, None),
    ("certify", "peres_witness", None, None),
    ("twirl", "two_copy_construction", None, None),
    ("twirl", "twirl_mc", None, None),
    ("twirl", "PureEnsemble.mixture", None, None),
    ("twirl", "twirl_exact", None, None),
    ("states", "PureBipartiteState.__post_init__", None, None),
    ("states", "schmidt_rank", None, None),
    ("states", "DensityMatrix.__post_init__", None, None),
    ("linalg", "min_eigenvalue", None, None),
    ("linalg", "hermitize", None, None),
    ("io", "dumps", "bytes", lambda r: len(r.encode("utf-8"))),
    ("io", "read_matrix_file", None, None),
    ("io", "read_report_file", None, None),
    ("io", "read_ensemble_file", None, None),
    ("cli", "main", None, None),
)

PACKAGE = "schmidtkit"
UNITS = {"calls": "count", "self_s": "s", "sweeps": "count", "bytes": "B"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit, in a
    fixed order."""
    units = {}
    for module, attr, extra, _ in TARGETS:
        for kind in ("calls", "self_s") + ((extra,) if extra else ()):
            units[f"{module}.{attr}.{kind}"] = UNITS[kind]
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.extra: dict[str, float] = {}
        self.absent: list[str] = []
        self.unreadable: set[str] = set()
        self._undo: list[tuple] = []

    # ----------------------------------------------------------- recording

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span that is not a program function, such as one benchmark
        operation; the program's spans inside it become its children."""
        idx = self.begin(self._name_id(name))
        try:
            yield
        finally:
            self.finish(idx)

    def _wrap(self, name: str, fn, extra_key, extra_fn):
        tracer = self
        nid = self._name_id(name)
        if extra_key:
            self.extra[extra_key] = 0

        def traced(*args, **kwargs):
            idx = tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if extra_key:
                try:
                    tracer.extra[extra_key] += extra_fn(result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    tracer.unreadable.add(extra_key)  # the return value changed shape
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------- install

    def install(self) -> None:
        for module_name, attr, extra, extra_fn in TARGETS:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_path, _, leaf = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            traced = self._wrap(name, original, f"{name}.{extra}" if extra else None, extra_fn)
            if owner is not module:  # a method: the class is the only holder
                self._replace(owner, leaf, traced)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, traced)

    def _replace(self, holder, key: str, value) -> None:
        self._undo.append((holder, key, holder.__dict__.get(key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            if value is None:
                delattr(holder, key)
            else:
                setattr(holder, key, value)
        self._undo.clear()

    # ------------------------------------------------------------- results

    def metrics(self) -> dict[str, float]:
        """calls and self time (span time minus time in child spans) per
        target, plus the extra counters; absent targets read 0."""
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i in range(count):
            name = self.names[self.name_of[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (self.end[i] - self.start[i]) - child[i]
        out: dict[str, float] = {}
        for name in metric_units():
            base, kind = name.rsplit(".", 1)
            if kind == "calls":
                out[name] = calls.get(base, 0)
            elif kind == "self_s":
                out[name] = self_s.get(base, 0.0)
            else:
                out[name] = self.extra.get(name, 0)
        return out

    def write(self, path: str) -> None:
        """All spans as tab-separated lines: id, parent, name, start, end
        (seconds since the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")
