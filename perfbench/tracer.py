"""Span tracer that wraps qca's layer entry points from outside the package.

Every target is a module attribute.  A *span* target records one span per
call (name, start, end, parent) and accumulates self time: the span's
duration minus the time covered by its child spans.  A *count* target only
counts calls, keyed by the layer bucket of the enclosing span, and leaves its
time with that enclosing span.

Spans stay in memory and are written out once, by ``Tracer.dump``.  A target
whose attribute does not exist (for example a helper a later change deleted)
is reported in ``absent`` and its metrics read 0; it never raises.  A target
whose module the run never imported is reported in ``not_loaded``.
"""

import importlib
import json
import os
import sys
import time

SPAN, COUNT = "span", "count"


def _result_bytes(args, kwargs, result):
    return {"bytes": int(getattr(result, "nbytes", 0))}


def _fft_bytes(args, kwargs, result):
    moved = int(getattr(args[0], "nbytes", 0)) if args else 0
    return {"bytes": moved + int(getattr(result, "nbytes", 0))}


def _file_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return {"bytes": os.path.getsize(path) if path and os.path.exists(path) else 0}


def _nfev(args, kwargs, result):
    return {"nfev": int(getattr(result, "nfev", 0))}


# (module, attribute, kind, bucket, extra-counter callback)
TARGETS = (
    ("qca.catalog", "build_descriptor", SPAN, "catalog.build", None),
    ("qca.evolution", "mode_matrices", SPAN, "evolution.mode_build", _result_bytes),
    ("numpy.fft", "fftn", SPAN, "evolution.fft", _fft_bytes),
    ("numpy.fft", "ifftn", SPAN, "evolution.fft", _fft_bytes),
    ("qca.evolution", "step_spectral", SPAN, "evolution.mode_apply", None),
    ("qca.evolution", "make_packet", SPAN, "evolution.make_packet", None),
    ("qca.evolution", "mean_position", SPAN, "evolution.observables", None),
    ("qca.evolution", "measure_packet_velocity", SPAN, "evolution.observables", None),
    ("qca.serialize", "save_snapshot", SPAN, "serialize.snapshot", _file_bytes),
    ("qca.serialize", "report_document", SPAN, "serialize.report", None),
    ("qca.weyl", "dispersion", SPAN, "weyl.dispersion", None),
    ("qca.weyl", "closed_form", COUNT, "weyl.closed_form", None),
    ("qca.weyl", "weyl_matrix", COUNT, "weyl.weyl_matrix", None),
    ("qca.dirac", "uniqueness_probe", SPAN, "dirac.probe", None),
    ("qca.dirac", "coupling_unitarity_residual", SPAN, "dirac.verify", None),
    ("qca.dirac", "_dressed_family_fit", SPAN, "dirac.classify", None),
    ("scipy.optimize", "least_squares", SPAN, "dirac.optimizer", _nfev),
    ("numpy.linalg", "eig", COUNT, "numpy.linalg.eig", None),
    ("numpy.linalg", "solve", COUNT, "numpy.linalg.solve", None),
    ("numpy.linalg", "matrix_power", COUNT, "numpy.linalg.matrix_power", None),
)

# The probe imports scipy.optimize lazily on entry; importing it inside the
# probe's span keeps that cost where an untraced run pays it.
_PRELOAD = {"dirac.probe": "scipy.optimize"}

ROOT_BUCKET = "cli"


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # [name index, parent span id, start, end]
        self.stack = []  # [span id, bucket, time covered by children]
        self.buckets = {}
        self.counts = {}
        self.absent = []
        self._pending = []

    # ------------------------------------------------------------ install

    def install(self, targets=TARGETS):
        for target in targets:
            if target[0] in sys.modules:
                self._patch(target)
            else:
                self._pending.append(target)

    def _install_pending(self):
        waiting, self._pending = self._pending, []
        for target in waiting:
            if target[0] in sys.modules:
                self._patch(target)
            else:
                self._pending.append(target)

    def _patch(self, target):
        module_name, attr, kind, bucket, extra = target
        module = sys.modules[module_name]
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        if kind == SPAN:
            wrapper = self._span_wrapper(original, f"{module_name}.{attr}", bucket, extra)
        else:
            wrapper = self._count_wrapper(original, bucket)
        setattr(module, attr, wrapper)

    # ------------------------------------------------------------ records

    def _bucket(self, bucket):
        return self.buckets.setdefault(
            bucket, {"self_s": 0.0, "calls": 0, "bytes": 0, "nfev": 0, "failures": 0}
        )

    def _enter(self, name, bucket):
        span_id = len(self.spans)
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self.stack.append([span_id, bucket, 0.0])
        return span_id

    def _exit(self, span_id):
        end = time.perf_counter()
        span = self.spans[span_id]
        span[3] = end
        _, bucket, covered = self.stack.pop()
        duration = end - span[2]
        if self.stack:
            self.stack[-1][2] += duration
        record = self._bucket(bucket)
        record["self_s"] += duration - covered
        record["calls"] += 1

    def _name_index(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _span_wrapper(self, fn, name, bucket, extra):
        index = self._name_index(name)
        preload = _PRELOAD.get(bucket)

        def wrapper(*args, **kwargs):
            span_id = self._enter(index, bucket)
            try:
                if preload and preload not in sys.modules:
                    importlib.import_module(preload)
                    self._install_pending()
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    self._bucket(bucket)["failures"] += 1
                    raise
                if extra is not None:
                    record = self._bucket(bucket)
                    for key, value in extra(args, kwargs, result).items():
                        record[key] += value
                return result
            finally:
                self._exit(span_id)

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts.setdefault(name, {})

        def wrapper(*args, **kwargs):
            caller = self.stack[-1][1] if self.stack else ROOT_BUCKET
            counts[caller] = counts.get(caller, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def call(self, name, bucket, fn, *args):
        """Run fn(*args) inside a span of its own (used for cli.main)."""
        span_id = self._enter(self._name_index(name), bucket)
        try:
            return fn(*args)
        finally:
            self._exit(span_id)

    # ------------------------------------------------------------- output

    def summary(self):
        return {
            "buckets": self.buckets,
            "counts": self.counts,
            "absent": sorted(self.absent),
            "not_loaded": sorted(f"{t[0]}.{t[1]}" for t in self._pending),
            "span_count": len(self.spans),
        }

    def dump(self, path):
        """Write every span as [name, parent, start, end] plus the summary."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "summary": self.summary()}, fh)
