#!/usr/bin/env python3
"""segalign benchmark: seeded CLI pipelines, end-to-end and per layer.

    python3 perfbench/run.py --workload corpus-short --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  For ``--seconds`` the harness repeats the
workload, each repetition a fresh worker process (closed loop, one client,
one repetition at a time) that sets up its inputs from the seed and runs the
workload's CLI stages in-process.  It prints a table of every metric, a
``report`` line with stage times, quality guards and metadata, and, last,
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics from the traced ones; their artifacts must be
byte-identical to the untraced ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(CHECKOUT, ".perfbench")
sys.path.insert(0, BENCH_DIR)

from tracing import CLI_COMMANDS, COMPUTED_COUNTERS, LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# (name, unit, better) -- kept in step with BENCHMARK.json by selftest.py
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _self(name):
    return (f"{name}.self_s", "s", "lower")


def _calls(name):
    return (f"{name}.calls", "count", "lower")


PER_LAYER = (
    _calls("motion.load_motion"), _self("motion.load_motion"), _self("motion.project_latent"),
    ("motion.bytes_read", "B", "lower"),
    _calls("textseg.llm_decompose"), _self("textseg.llm_decompose"),
    ("textseg.cache_hit_ratio", "ratio", "higher"), ("textseg.cache_lines_read", "count", "lower"),
    _calls("rvq.kmeans"), _self("rvq.kmeans"),
    ("rvq.kmeans.dist_bytes_max", "B", "lower"), ("rvq.kmeans.flops", "flop", "lower"),
    _calls("rvq.quantize"), _self("rvq.quantize"), _self("rvq.train_codebooks"), _self("rvq.reconstruction_error"),
    _self("segmentation.gaussian_kernel_matrix"), _self("segmentation.kernel_cost_table"),
    _self("segmentation.kernel_cpd_segment"), _self("segmentation.build_primitive_library"),
    _self("segmentation.window_cost_matrix"), _self("segmentation.run_cost_tables"),
    _self("segmentation.segment_cost_matrix_dp"), ("segmentation.dp_cells", "count", "lower"),
    _calls("alignment.grad_alignment"), _self("alignment.grad_alignment"), _self("alignment.toy_train"),
    _self("alignment.make_separable_dataset"), _calls("alignment.motion_embeddings"),
    _self("alignment.motion_embeddings"), _self("alignment.retrieval_top1"),
    ("alignment.spans_aggregated", "count", "lower"),
    _calls("masked.iterative_decode"), _self("masked.iterative_decode"), ("masked.positions_decoded", "count", "lower"),
    _self("metrics.motion_grounding"), _calls("metrics.m2t_retrieve"), _self("metrics.m2t_retrieve"),
    _self("metrics.r_precision"), _self("metrics.fid"), _self("metrics.diversity"), _self("metrics.isc_score"),
    *(_self(f"cli.{c}") for c in CLI_COMMANDS),
    ("cli.bytes_written", "B", "lower"),
    *((f"{layer}.errors", "count", "lower") for layer in (*LAYERS, "cli")),
    ("trace_overhead", "ratio", "lower"),
    ("recon_mse", "mse", "lower"), ("seg_err_cpd", "tokens", "lower"),
    ("seg_err_cluster", "tokens", "lower"), ("retrieve_top1", "ratio", "higher"),
)

MIN_REPS = 3            # untraced repetitions per --trace 0 run, whatever --seconds says
MAX_RUN_S = 120         # start no repetition after this ...
DEADLINE_S = 170        # ... and stop any worker still running at this point, so a run ends within 180 s
# one BLAS thread: steadier on a small shared machine, and no run uses more threads than cores
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_worker(workload, size, seed, rep_dir, timeout, spans=None):
    """Run one repetition in a fresh process, traced when ``spans`` names a file.

    Returns the worker's result dict, or one with ``crash``.
    """
    env = {k: v for k, v in os.environ.items() if k != "SEGALIGN_LLM_URL"}
    env.update(CHILD_ENV)
    result_path = rep_dir + ".json"
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", workload, "--size", size,
           "--seed", str(seed), "--root", rep_dir, "--result", result_path]
    if spans:
        cmd += ["--spans", spans]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=CHECKOUT, env=env, capture_output=True, text=True, timeout=timeout)
        crash = None if proc.returncode == 0 else f"worker exited {proc.returncode}: {proc.stderr[-800:]}"
    except subprocess.TimeoutExpired:
        crash = f"worker stopped after {timeout:.0f} s"
    if crash is None:
        with open(result_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        # wall times, and the same rescaled to a core of fixed speed (see worker.SpeedProbe)
        result["setup_wall_s"] = result["ready_at"] - spawned
        result["setup_s"] = result["setup_wall_s"] * result["setup_speed"]
        result["stages_wall"] = result["stages"]
        result["stages"] = {k: v * result["speed"][k] for k, v in result["stages_wall"].items()}
        result["pipeline_wall_s"] = result["pipeline_s"]
        result["pipeline_s"] = sum(result["stages"].values())
    else:
        result = {"crash": crash}
    result["traced"] = spans is not None
    shutil.rmtree(rep_dir, ignore_errors=True)
    if os.path.exists(result_path):
        os.unlink(result_path)
    return result


def artifact_mismatches(reference, other):
    """Operations whose output files differ between two repetitions (plus the set-up data)."""
    def under(digests, prefix):
        return {k: v for k, v in digests.items() if k.startswith(prefix + os.sep)}

    return [prefix for prefix in ["data", *reference["op_outputs"]]
            if under(reference["digests"], prefix) != under(other["digests"], prefix)]


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(traced, untraced):
    """Flatten traced repetitions into the PER_LAYER values (median over repetitions)."""
    flat_per_rep = []
    for rep in traced:
        flat = {}
        for name, row in rep["spans"].items():
            flat[f"{name}.calls"] = row["calls"]
            flat[f"{name}.self_s"] = row["self_s"]
            layer = name.split(".", 1)[0]
            flat[f"{layer}.errors"] = flat.get(f"{layer}.errors", 0) + row["errors"]
        flat.update(rep["counters"])
        flat.update({k: v for k, v in rep["quality"].items() if v is not None})
        flat_per_rep.append(flat)
    values = {name: median([f.get(name, 0) for f in flat_per_rep]) for name, _, _ in PER_LAYER}
    base = median([r["pipeline_s"] for r in untraced])
    values["trace_overhead"] = median([r["pipeline_s"] for r in traced]) / base - 1 if base else 0.0
    return values


def metadata(reps):
    import numpy as np

    src_files = sorted(glob.glob(os.path.join(CHECKOUT, "src", "segalign", "*.py")))
    lines = 0
    h = hashlib.sha256()
    for path in src_files:
        with open(path, "rb") as fh:
            blob = fh.read()
        lines += blob.count(b"\n")
        h.update(os.path.basename(path).encode() + b"\0" + blob)
    commit = None
    if os.path.isdir(os.path.join(CHECKOUT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    worker_meta = next((r["meta"] for r in reps if "meta" in r), {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": worker_meta.get("python"),
        "numpy": worker_meta.get("numpy"),
        "blas": blas,
        "blas_threads": worker_meta.get("blas_threads"),
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
        "src_lines": lines,
    }


def print_table(rows):
    for name, value, unit, better, note in rows:
        print(f"  {name:44s} {value:>16.6g} {unit:<6s} {better:<7s}{note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the harness self-test sizes; the benchmark is full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(CHECKOUT, "src", "segalign", "cli.py")):
        print(f"error: no segalign sources under {os.path.join(CHECKOUT, 'src')}; "
              "run from the root of a segalign checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")

    untraced, traced = [], []
    start = time.monotonic()
    i = 0
    while True:
        trace_this = bool(args.trace) and i % 2 == 1
        rep = run_worker(args.workload, args.size, args.seed, os.path.join(work, f"rep-{i}"),
                         DEADLINE_S - (time.monotonic() - start), spans_path if trace_this else None)
        (traced if trace_this else untraced).append(rep)
        i += 1
        elapsed = time.monotonic() - start
        enough = len(traced) >= 1 if args.trace else len(untraced) >= MIN_REPS
        if "crash" in rep or elapsed >= MAX_RUN_S or (enough and elapsed >= args.seconds):
            break
    shutil.rmtree(work, ignore_errors=True)

    reps = untraced + traced
    crashes = [r["crash"] for r in reps if "crash" in r]
    good = [r for r in reps if "crash" not in r]
    attempted = sum(r["attempted"] for r in good) + len(crashes)
    failures = [f for r in good for f in r["failures"]] + crashes
    for r in good[1:]:
        failures += [f"artifacts of {p} differ from the first repetition (traced={r['traced']})"
                     for p in artifact_mismatches(good[0], r)]
    failed = len(failures)
    error_rate = failed / attempted if attempted else 1.0
    ok_untraced = [r for r in untraced if "crash" not in r]
    ok_traced = [r for r in traced if "crash" not in r]

    stages = {s: median([r["stages"][s] for r in ok_untraced]) for s in wl.stages}
    quality = good[0]["quality"] if good else {}
    e2e = {
        "setup_s": median([r["setup_s"] for r in ok_untraced]),
        "pipeline_s": median([r["pipeline_s"] for r in ok_untraced]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok_untraced]),
    }

    print(f"segalign benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(untraced)} untraced, {len(traced)} traced")
    print(f"  {'metric':44s} {'median':>16s} {'unit':<6s} {'better':<7s}")
    rows = [(n, e2e[n], u, b, "") for n, u, b in END_TO_END]
    rows += [(n, v, "s", "lower", "  stage") for n, v in stages.items()]
    rows.append(("error_rate", error_rate, "ratio", "lower", "  failed / attempted"))
    rows += [(n, v, wl.quality[n][0], wl.quality[n][1], "  quality guard") for n, v in quality.items() if v is not None]
    layers = {}
    if args.trace:
        layers = layer_metrics(ok_traced, ok_untraced) if ok_traced and ok_untraced else {}
        rows += [(n, layers.get(n, 0.0), u, b, "  computed" if n in COMPUTED_COUNTERS else "")
                 for n, u, b in PER_LAYER]
    print_table(rows)
    for f in failures[:20]:
        print(f"  FAILED {f}")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "inputs_sha256": good[0]["inputs_sha256"] if good else None,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "load": "closed loop, one client, one repetition at a time",
        "pipeline_s_per_repetition": [r["pipeline_s"] for r in ok_untraced],
        "stages": stages,
        "wall": {
            "setup_s": median([r["setup_wall_s"] for r in ok_untraced]),
            "pipeline_s": median([r["pipeline_wall_s"] for r in ok_untraced]),
            "pipeline_s_per_repetition": [r["pipeline_wall_s"] for r in ok_untraced],
            "stages": {s: median([r["stages_wall"][s] for r in ok_untraced]) for s in wl.stages},
        },
        "error_rate": error_rate,
        "quality": quality,
        "computed_counters": list(COMPUTED_COUNTERS),
        "metadata": metadata(good),
    }
    if args.trace and ok_traced:
        report["spans_file"] = os.path.relpath(spans_path, CHECKOUT)
        report["function_errors"] = {k: v["errors"] for k, v in ok_traced[0]["spans"].items() if v["errors"]}
    print("report " + json.dumps(report, sort_keys=True))

    if args.trace:
        metrics = {n: {"value": layers.get(n, 0.0), "unit": u} for n, u, _ in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u, _ in END_TO_END}
    print(json.dumps({"correct": failed == 0 and bool(ok_untraced), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
