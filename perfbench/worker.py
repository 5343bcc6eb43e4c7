"""One repetition of one workload, in a fresh process.

Run by ``run.py``; not meant to be started by hand.  The worker imports
segalign from the checkout's ``src/``, makes the workload's inputs from the
seed (set-up), then runs every operation through ``segalign.cli.main`` in
this process, times it, checks its outputs and writes one result JSON file.
With ``--spans`` the layer functions are wrapped first and the spans written
there at the end (see tracing.py).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(CHECKOUT, "src")


class NetworkGuard:
    """Stands in for the LLM transport: every call is a cache miss, which fails."""

    def __init__(self):
        self.calls = 0

    def transport(self, url, payload, timeout):
        self.calls += 1
        raise ConnectionError("cache miss: the benchmark makes no network calls")


class SpeedProbe:
    """Samples the speed of whichever core runs this process, while it runs.

    Every PERIOD_S a signal handler times a fixed pure-Python loop.  On a
    shared machine a core's speed drifts by up to 1.6x over seconds to
    minutes, with other tenants; two processes sharing one core see the same
    drift, two cores do not.  Scaling a stage's wall time by REFERENCE_S over
    the loop's median time during that stage gives its time on a core of
    fixed speed: REFERENCE_S is the loop's time on an uncontended core of the
    2-vCPU Xeon virtual machine the baseline in README.md was measured on.
    """

    PERIOD_S = 0.025
    LOOPS = 4000
    REFERENCE_S = 0.00028

    def __init__(self):
        self.samples = []   # (perf_counter at start, seconds the loop took)

    def _sample(self, signum, frame):
        t = time.perf_counter()
        s = 0.0
        for i in range(self.LOOPS):
            s += i * 0.5
        self.samples.append((t, time.perf_counter() - t))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def speed(self, t0, t1):
        """REFERENCE_S over the loop's median time in [t0, t1] (1.0 without samples)."""
        vals = [d for t, d in self.samples if t0 <= t <= t1]
        return self.REFERENCE_S / statistics.median(vals) if vals else 1.0


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def json_error(stderr):
    """The first ``{"error": ...}`` line the CLI printed to stderr, if any (warnings are not errors)."""
    for line in stderr.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "error" in obj:
            return line
    return None


def run_ops(ops, tracer=None):
    """Run operations in order.

    Returns ({stage: [first start, last end, seconds]}, failure messages);
    a stage's operations run back to back.
    """
    stages = {}
    failures = []
    for op in ops:
        start, seconds, failure = run_op(op, tracer)
        window = stages.setdefault(op.stage, [start, start, 0.0])
        window[1] = start + seconds
        window[2] += seconds
        if failure is not None:
            failures.append(failure)
    return stages, failures


def run_op(op, tracer):
    """Run one CLI operation; return (start, seconds, failure message or None)."""
    from segalign import cli

    out, err = io.StringIO(), io.StringIO()
    failure = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(op.argv)
            else:
                code = tracer.span(f"cli.{op.command}", cli.main, op.argv)
        except (Exception, SystemExit) as exc:  # the CLI boundary: count it and go on
            code = None
            failure = f"{op.command}: {type(exc).__name__} escaped cli.main: {exc}"
    seconds = time.perf_counter() - start
    if failure is None and code != 0:
        failure = f"{op.command}: exit code {code}"
    error_line = json_error(err.getvalue())
    if failure is None and error_line:
        failure = f"{op.command}: error on stderr: {error_line}"
    if failure is None and op.check is not None:
        from workloads import CheckError

        try:
            op.check()
        except (CheckError, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            failure = f"{op.command}: {type(exc).__name__}: {exc}"
    return start, seconds, failure


def digest_tree(root, name):
    """sha256 of every file under root/name, keyed by path relative to root; and their total bytes."""
    digests = {}
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, name)):
        for f in files:
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                blob = fh.read()
            total += len(blob)
            digests[os.path.relpath(path, root)] = hashlib.sha256(blob).hexdigest()
    return digests, total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True, help="directory this repetition works in")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None, help="trace this repetition and write its spans here")
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy as np
    import segalign
    import segalign.cli  # noqa: F401  -- imported in set-up, so the first stage does not pay for it
    from segalign import textseg

    if not os.path.abspath(segalign.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"segalign imported from {segalign.__file__}, not from {SRC}")
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    os.makedirs(args.root, exist_ok=True)
    guard = NetworkGuard()
    textseg._default_transport = guard.transport
    params = wl.sizes[args.size]
    inputs = wl.setup(params, args.seed, args.root)
    ops = wl.ops(params, args.seed, args.root, inputs)
    ready_at = time.monotonic()
    setup_speed = probe.speed(started, time.perf_counter())

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    windows, failures = run_ops(ops, tracer)
    probe.stop()
    stages = {k: w[2] for k, w in windows.items()}
    speed = {k: probe.speed(w[0], w[1]) for k, w in windows.items()}
    pipeline_s = sum(stages.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    data_digests, _ = digest_tree(args.root, "data")
    out_digests, bytes_written = digest_tree(args.root, "out")
    digests = dict(sorted({**data_digests, **out_digests}.items()))
    # what the program was given: the set-up data and every command line
    given = [data_digests, [[a.replace(args.root, "<root>") for a in op.argv] for op in ops]]
    result = {
        "ready_at": ready_at,
        "stages": stages,
        "pipeline_s": pipeline_s,
        "speed": speed,
        "setup_speed": setup_speed,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "op_outputs": [os.path.relpath(op.out, args.root) for op in ops],
        "failed": len(failures),
        "failures": failures,
        "quality": {k: inputs["quality"].get(k) for k in wl.quality},
        "digests": digests,
        "inputs_sha256": hashlib.sha256(json.dumps(given, sort_keys=True).encode()).hexdigest(),
        "meta": {"python": sys.version.split()[0], "numpy": np.__version__, "blas_threads": blas_threads()},
    }
    if tracer is not None:
        spans = tracer.summary()
        counters = dict(tracer.counters)
        counters["textseg.cache_lines_read"] = tracing.cache_lines_read(tracer.decompose_calls)
        # every lookup that returned was a hit: the guard fails each miss
        calls = spans.get("textseg.llm_decompose", {}).get("calls", 0)
        counters["textseg.cache_hit_ratio"] = len(tracer.decompose_calls) / calls if calls else 0.0
        counters["cli.bytes_written"] = bytes_written
        result["spans"] = spans
        result["counters"] = counters
        tracer.write_jsonl(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
