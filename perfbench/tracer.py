"""Layer tracing for the benchmark, installed from outside the package.

Every traced public function of a layer is replaced, in each loaded
``quantromon`` module that binds it, by a wrapper that records a span (name,
start, end, parent span, op id). The package calls these functions through
module globals, so nested calls are caught without editing the package.
Names that do not exist in the package are skipped.

Self time (a span minus its direct child spans) and counts are summed per name
as spans close, so memory stays bounded; the first ``KEEP_SPANS`` raw spans are
kept in memory and written out by :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

KEEP_SPANS = 20000  # raw spans kept per process; the aggregates cover all spans

# (module, function) pairs wrapped in a traced run
TRACED = {
    "params": ("derive_energies",),
    "analytic": ("dressed_spectrum",),
    "numeric": ("build_hamiltonian", "eigensolve", "label_states", "extract_observables"),
    "flux": ("sweep", "evaluate_flux_point"),
    "coherence": ("coherence_report",),
    "rng": ("uniforms",),
    "readout": ("simulate_shots", "export_shots_csv", "import_shots_csv",
                "fit_double_gaussian", "threshold", "fidelity_report",
                "error_vs_integration"),
}


def _arg(sig, args, kwargs, name):
    """Value of parameter ``name`` in a call, defaults applied; None if absent."""
    try:
        bound = sig.bind(*args, **kwargs)
    except TypeError:
        return None
    bound.apply_defaults()
    return bound.arguments.get(name)


def _count_eigensolve(c, sig, args, kwargs, result):
    matrix = _arg(sig, args, kwargs, "h")
    if matrix is None:
        matrix = args[0]
    dim = int(getattr(matrix, "dim", None) or len(getattr(matrix, "entries", matrix)))
    c["numeric.dim_sum"] += dim
    # dense symmetric eigh with eigenvectors: about 9*dim**3 flops (Golub & Van Loan)
    c["numeric.eigh_flops_computed"] += 9 * dim**3
    c["numeric.matrix_bytes_computed"] += 8 * dim * dim


def _count_sweep(c, sig, args, kwargs, result):
    c["flux.rows"] += len(result)
    c["flux.error_rows"] += sum(getattr(r, "error", None) is not None for r in result)


def _count_uniforms(c, sig, args, kwargs, result):
    blocks = len(result)  # one Philox block per row, whatever the signature
    c["rng.blocks"] += blocks
    c["rng.bytes_computed"] += 32 * blocks  # 4 x 64-bit words per block


def _count_simulate(c, sig, args, kwargs, result):
    c["readout.shots"] += len(result.values)


def _count_export(c, sig, args, kwargs, result):
    path = _arg(sig, args, kwargs, "path")
    if path is not None and os.path.exists(path):
        c["readout.csv_bytes_written"] += os.path.getsize(path)


def _count_import(c, sig, args, kwargs, result):
    path = _arg(sig, args, kwargs, "path")
    if path is not None and os.path.exists(path):
        c["readout.csv_bytes_read"] += os.path.getsize(path)


def _count_degenerate(c, sig, args, kwargs, result):
    c["readout.degenerate_rows"] += sum(bool(getattr(p, "degenerate", False)) for p in result)


COUNTERS = {
    "numeric.eigensolve": _count_eigensolve,
    "flux.sweep": _count_sweep,
    "rng.uniforms": _count_uniforms,
    "readout.simulate_shots": _count_simulate,
    "readout.export_shots_csv": _count_export,
    "readout.import_shots_csv": _count_import,
    "readout.error_vs_integration": _count_degenerate,
}


class Tracer:
    """Span recorder; one per process, created by the benchmark."""

    def __init__(self):
        self.op_id = 0
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []  # (id, parent, op, name, start_ns, end_ns)
        self.n_spans = 0
        self._stack: list[list] = []  # [span id, child ns]

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.n_spans
            self.n_spans += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if type(exc).__name__ == "AmbiguousLabelingError" and name == "numeric.label_states":
                    self.counts["numeric.label_failures"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_ns[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if len(self.spans) < KEEP_SPANS:
                    self.spans.append((span_id, parent, self.op_id, name, start, end))
            if counter is not None:
                counter(self.counts, sig, args, kwargs, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every traced function that exists; returns the names wrapped."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "quantromon" or key.startswith("quantromon."))]
        wrapped = []
        for mod_name, functions in TRACED.items():
            module = sys.modules.get(f"quantromon.{mod_name}")
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if original is None or not callable(original):
                    continue
                traced = self._wrap(f"{mod_name}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)
                wrapped.append(f"{mod_name}.{fn_name}")
        return wrapped

    def merge(self, dump: dict) -> None:
        """Fold in the aggregates written by another process's :meth:`dump`."""
        for key, target in (("self_ns", self.self_ns), ("calls", self.calls),
                            ("counts", self.counts)):
            for name, value in dump[key].items():
                target[name] += value
        room = KEEP_SPANS - len(self.spans)
        self.spans.extend(tuple(s[:2]) + (self.op_id,) + tuple(s[3:])
                          for s in dump["spans"][:max(room, 0)])
        self.n_spans += dump["n_spans"]

    def as_dict(self) -> dict:
        return {"self_ns": dict(self.self_ns), "calls": dict(self.calls),
                "counts": dict(self.counts), "n_spans": self.n_spans,
                "spans": self.spans}

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.as_dict(), f)
