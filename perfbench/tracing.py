"""Per-layer spans recorded from outside the program.

The tracer replaces each traced function on every tangleroof module that
binds it (``tangleroof.bounds.c3_many`` as well as
``tangleroof.invariants.c3_many``) with a wrapper that records one span per
call. Self time is a span's duration minus the time of the traced spans
nested in it. Totals are kept for every call; full spans (name, operation,
start, end, parent) are kept in memory for the first round only and written
when the run ends. Spans of one workload operation share its identifier.
"""
from __future__ import annotations

import json
import sys
import time

# (module, qualified name) of every traced function
TRACED = (
    ("states", "partial_trace"),
    ("states", "rank_two_eigendecomposition"),
    ("invariants", "c3"),
    ("invariants", "c3_many"),
    ("invariants", "wootters_concurrence"),
    ("invariants", "one_tangle"),
    ("_kernels", "tau3_many"),
    ("_kernels", "min_average_batch"),
    ("pencil", "pencil_polynomial"),
    ("pencil", "polynomial_roots"),
    ("pencil", "zero_set"),
    ("bloch", "build_polytope"),
    ("bloch", "axis_zero_interval"),
    ("bloch", "state_from_bloch"),
    ("bounds", "span_geometry"),
    ("bounds", "default_anchors"),
    ("bounds", "linearized_upper_bound"),
    ("bounds", "convex_envelope"),
    ("bounds", "upper_bound_report"),
    ("bounds", "BoundReport.decomposition_at"),
    ("sampling", "min_average_c3"),
    ("scenarios", "reduced_mixture"),
    ("scenarios", "has_interior_volume_zero"),
    ("scenarios", "phi_threshold_bisect"),
    ("scenarios", "monogamy_report"),
    ("cli", "run"),
)

# metric names must start with a letter or digit, so "_kernels" reads "kernels"
COUNTERS = (
    ("kernels.tau3_many.rows", "rows/round", "lower"),
    ("kernels.tau3_many.rows_per_call", "rows/call", "higher"),
    ("kernels.min_average_batch.samples", "samples/round", "higher"),
    ("bounds.anchors", "anchors/span", "lower"),
    ("bounds.pivot_evals", "evals/round", "lower"),
)


def metric_name(module: str, qualname: str) -> str:
    return f"{module.lstrip('_')}.{qualname.split('.')[-1]}"


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, qualname in TRACED:
        base = metric_name(module, qualname)
        out += [
            (f"{base}.calls", "calls/round", "lower"),
            (f"{base}.ms", "ms/round", "lower"),
            (f"{base}.self_ms", "ms/round", "lower"),
        ]
    return out + list(COUNTERS)


class Tracer:
    def __init__(self):
        self.totals = {metric_name(m, q): [0, 0.0, 0.0] for m, q in TRACED}
        self.counts = {"rows": 0, "samples": 0, "anchors": 0, "anchor_sets": 0, "pivot": 0}
        self.spans = []
        self.keep_spans = True
        self.ops = []
        self._stack = []

    def begin_op(self, label):
        """Start a workload operation; later spans carry its index."""
        self.ops.append(label)

    def _wrap(self, name, fn, count=None):
        totals = self.totals[name]
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0, -1]
            if self.keep_spans:
                frame[1] = len(self.spans)
                parent = stack[-1][1] if stack else -1
                self.spans.append([name, len(self.ops) - 1, 0.0, 0.0, parent])
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if frame[1] >= 0:
                    self.spans[frame[1]][2:4] = [start, end]
            if count is not None:
                count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_rows(self, args, result):
        self.counts["rows"] += len(args[0])

    def _count_samples(self, args, result):
        self.counts["samples"] += len(args[2])

    def _count_anchors(self, args, result):
        self.counts["anchors"] += len(result)
        self.counts["anchor_sets"] += 1

    def install(self, package_name: str = "tangleroof"):
        """Wrap every binding of the traced functions in the loaded package."""
        modules = [
            m
            for n, m in list(sys.modules.items())
            if n == package_name or n.startswith(package_name + ".")
        ]
        counters = {
            ("_kernels", "tau3_many"): self._count_rows,
            ("_kernels", "min_average_batch"): self._count_samples,
            ("bounds", "default_anchors"): self._count_anchors,
        }
        for module, qualname in TRACED:
            home = sys.modules[f"{package_name}.{module}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, attr, self._wrap(metric_name(module, qualname), getattr(cls, attr)))
                continue
            original = getattr(home, qualname)
            wrapper = self._wrap(
                metric_name(module, qualname), original, counters.get((module, qualname))
            )
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
        # grid points x anchors, counted without a span of its own
        bounds = sys.modules[f"{package_name}.bounds"]
        pivot = bounds._pivot_candidates

        def counted_pivot(mix, ps, anchors):
            self.counts["pivot"] += len(ps) * len(anchors)
            return pivot(mix, ps, anchors)

        bounds._pivot_candidates = counted_pivot

    def metrics(self, rounds: int) -> dict:
        """Per-round averages of every per-layer metric."""
        out = {}
        for name, (calls, total, self_time) in self.totals.items():
            out[f"{name}.calls"] = calls / rounds
            out[f"{name}.ms"] = 1e3 * total / rounds
            out[f"{name}.self_ms"] = 1e3 * self_time / rounds
        tau_calls = self.totals["kernels.tau3_many"][0]
        c = self.counts
        out["kernels.tau3_many.rows"] = c["rows"] / rounds
        out["kernels.tau3_many.rows_per_call"] = c["rows"] / tau_calls if tau_calls else 0.0
        out["kernels.min_average_batch.samples"] = c["samples"] / rounds
        out["bounds.anchors"] = c["anchors"] / c["anchor_sets"] if c["anchor_sets"] else 0.0
        out["bounds.pivot_evals"] = c["pivot"] / rounds
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        return {name: {"value": value, "unit": units[name]} for name, value in out.items()}

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, start, end, parent in self.spans:
                record = {"name": name, "op": op, "label": self.ops[op] if op >= 0 else None,
                          "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(record) + "\n")
