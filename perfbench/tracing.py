"""Span tracing done from outside the program.

Every public function of each segalign layer module is replaced by a wrapper
that records a span (name, start, end, parent) in memory.  Names a module
imported by value (``segmentation.kmeans``, ``cli.iterative_decode``) are
replaced too, so those calls are recorded under their home layer.  A layer's
self time is its span's duration minus the time its direct child spans
cover.  A few wrappers also feed counters computed from argument shapes;
those are estimates from sizes, not measurements, and are labelled so.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("motion", "textseg", "rvq", "segmentation", "alignment", "masked", "metrics")
CLI_COMMANDS = ("decompose", "quantize", "segment", "train-align", "decode", "ground", "retrieve", "eval")
COMPUTED_COUNTERS = (
    "motion.bytes_read",
    "textseg.cache_lines_read",
    "rvq.kmeans.dist_bytes_max",
    "rvq.kmeans.flops",
    "segmentation.dp_cells",
    "cli.bytes_written",
)


class Tracer:
    """In-memory span recorder.  Spans are ``[name, start, end, parent, self_s, error]``."""

    def __init__(self):
        self.spans = []
        self._open = []        # (span index, child time so far) of open spans
        self.counters = {}
        self.decompose_calls = []   # (cache_path, model, raw) per llm_decompose call

    def _enter(self, name):
        parent = self._open[-1][0] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0, False])
        self._open.append([len(self.spans) - 1, 0.0])

    def _exit(self, error):
        end = time.perf_counter()
        idx, child = self._open.pop()
        span = self.spans[idx]
        span[2] = end
        duration = end - span[1]
        span[4] = duration - child
        span[5] = error
        if self._open:
            self._open[-1][1] += duration

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        self._enter(name)
        error = True
        try:
            out = fn(*args, **kwargs)
            error = False
            return out
        finally:
            self._exit(error)

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name, fn, hook=None):
        """``fn`` inside a span; ``hook(tracer, bound arguments, result)`` runs after a normal return."""
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.span(name, fn, *args, **kwargs)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, out)
            return out

        return wrapper

    def summary(self):
        """Per span name: calls, self seconds, errors."""
        out = {}
        for name, _, _, _, self_s, error in self.spans:
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})
            row["calls"] += 1
            row["self_s"] += self_s
            row["errors"] += int(error)
        return out

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, self_s, error in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "self_s": self_s, "error": error}) + "\n")


# --- counters computed from argument sizes -----------------------------------

def _bytes_read(tracer, a, out):
    tracer.add("motion.bytes_read", 12 + 4 * out.frames.size)   # SGMO header + float32 frames


def _kmeans_work(tracer, a, out):
    n, d = a["data"].shape
    k = int(a["k"])
    # the (n, k, d) float64 broadcast of the assignment step
    tracer.counters["rvq.kmeans.dist_bytes_max"] = max(tracer.counters.get("rvq.kmeans.dist_bytes_max", 0),
                                                       n * k * d * 8)
    # subtract, square, add per broadcast element: k-means++ seeding plus each iteration
    tracer.add("rvq.kmeans.flops", 3 * n * k * d * (int(a["iters"]) + 1))


def _dp_cells(tracer, segments, n):
    if segments > 1:
        tracer.add("segmentation.dp_cells", segments * n * n // 2)


HOOKS = {
    "motion.load_motion": _bytes_read,
    "rvq.kmeans": _kmeans_work,
    "segmentation.kernel_cpd_segment": lambda t, a, out: _dp_cells(t, int(a["num_segments"]), a["x"].length),
    "segmentation.segment_cost_matrix_dp":
        lambda t, a, out: _dp_cells(t, int(a["num_segments"]), a["cost"].costs.shape[0]),
    "textseg.llm_decompose":
        lambda t, a, out: t.decompose_calls.append((a["cache_path"], a["cfg"].model_name, a["raw"])),
    "alignment.grad_alignment": lambda t, a, out: t.add("alignment.spans_aggregated", sum(map(len, a["spans"]))),
    "alignment.aggregate_mean_max": lambda t, a, out: t.add("alignment.spans_aggregated", 1),
    "masked.iterative_decode": lambda t, a, out: t.add("masked.positions_decoded", int(a["length"])),
}


def install(tracer):
    """Wrap every public layer function and rebind it wherever segalign holds it."""
    package = importlib.import_module("segalign")
    modules = [package, importlib.import_module("segalign.cli")]
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"segalign.{layer}")
        modules.append(mod)
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrappers[obj] = tracer.wrap(name, obj, HOOKS.get(name))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])


def cache_lines_read(decompose_calls):
    """Lines a cache lookup scans: up to the first match, or the whole file on a miss.

    This mirrors the linear scan of ``textseg._cache_lookup`` over the file as it
    stood after the run, so it is a computed count, not a measured one.
    """
    total = 0
    index = {}
    for path, model, raw in decompose_calls:
        if path is None:
            continue
        if path not in index:
            first = {}
            count = 0
            with open(path, "r", encoding="utf-8") as fh:
                for count, line in enumerate(fh, 1):
                    line = line.strip()
                    if line:
                        obj = json.loads(line)
                        first.setdefault((obj.get("model"), obj.get("input")), count)
            index[path] = (first, count)
        first, count = index[path]
        total += first.get((model, raw), count)
    return total
