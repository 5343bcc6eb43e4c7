#!/usr/bin/env python3
"""Alternating before/after pairs of the benchmark, in one BENCH_<slug>.json.

    python3 tools/benchpairs.py --base HEAD~1 --change HEAD --slug my-change \\
        --pairs corpus-long=10 --pairs corpus-short=5 --pairs align-query=5 --seed 51

Standard library only.  Each side is exported with ``git archive`` into its
own directory, the two directories' paths of one length (``.../a`` and
``.../b``): a path's length moves where the interpreter's and numpy's
allocations fall, and with them ``peak_rss_mb`` and the timings.  An export
leaves nothing in the repository's ``.git`` and works from a shallow clone.
Each tree's bytecode is compiled before its first run, so neither side pays
for compiling.  Pair i of a workload runs the unchanged
``perfbench/run.py --workload W --seed SEED+i --seconds N --trace 0`` in
each tree, the base first in even pairs and the change first in odd ones,
and reads each run's last line.

The file holds both commits and their ``src/`` line counts, every pair's
three end-to-end metrics with its seed and which side ran first, and per
workload each side's median and quartiles and the number of pairs in which
the change read lower on each metric; and the machine: Python and numpy
versions, ``sys.flags``, the allocator variables (``MALLOC_*``,
``GLIBC_TUNABLES``) and the processor count.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("setup_s", "pipeline_s", "peak_rss_mb")
SIDES = ("base", "change")


def _git(repo: str, *args: str) -> bytes:
    return subprocess.run(["git", "-C", repo, *args], check=True, capture_output=True).stdout


def export(repo: str, rev: str, dest: str) -> dict:
    """Write the tree of ``rev`` to ``dest``, compile its bytecode, and
    describe it: the revision asked for, its commit and its ``src/`` lines."""
    commit = _git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git(repo, "archive", commit))) as tar:
        tar.extractall(dest, filter="data")
    subprocess.run([sys.executable, "-m", "compileall", "-q", dest], check=True, stdout=subprocess.DEVNULL)
    lines = 0
    for root, _, files in os.walk(os.path.join(dest, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    lines += fh.read().count(b"\n")
    return {"rev": rev, "commit": commit, "src_lines": lines}


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its three end-to-end metrics and its
    operation counts, from the last line it prints."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    # its own process group, so that a stopped runner stops its workers too
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    try:
        last = json.loads(stdout.strip().splitlines()[-1])
        values = {name: float(last["metrics"][name]["value"]) for name in METRICS}
    except (IndexError, ValueError, KeyError, TypeError) as err:
        raise SystemExit(f"{workload} seed {seed} in {tree}: no result line (exit {proc.returncode}, {err!r}):\n"
                         f"{stderr.strip()[-2000:]}")
    return {**values, "correct": bool(last["correct"]), "attempted": last["attempted"], "failed": last["failed"]}


def summary(pairs: list[dict]) -> dict:
    """Each side's median and quartiles of each metric, and the numbers of
    pairs in which the change read lower and higher (a tie counts for
    neither)."""
    out = {"median": {}, "quartiles": {}}
    for side in SIDES:
        out["median"][side] = {m: statistics.median(p[side][m] for p in pairs) for m in METRICS}
        out["quartiles"][side] = {m: _quartiles([p[side][m] for p in pairs]) for m in METRICS}
    out["change_lower"] = {m: sum(p["change"][m] < p["base"][m] for p in pairs) for m in METRICS}
    out["change_higher"] = {m: sum(p["change"][m] > p["base"][m] for p in pairs) for m in METRICS}
    return out


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def machine() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    flags = {name: getattr(sys.flags, name) for name in dir(sys.flags)
             if not name.startswith(("_", "n_")) and isinstance(getattr(sys.flags, name), (int, bool))}
    return {
        "python": platform.python_version(),
        "executable": sys.executable,
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "sys_flags": flags,
        "allocator_env": {k: v for k, v in sorted(os.environ.items())
                          if k.startswith("MALLOC_") or k.startswith("_MALLOC_") or k == "GLIBC_TUNABLES"},
        "blas_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _workload_count(text: str) -> tuple[str, int]:
    name, sep, count = text.partition("=")
    if not sep or not name or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=PAIRS with PAIRS >= 1, got {text!r}")
    return name, int(count)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="revision measured as the parent")
    parser.add_argument("--change", required=True, help="revision measured as the change")
    parser.add_argument("--pairs", required=True, action="append", type=_workload_count, metavar="WORKLOAD=N",
                        help="run N alternating pairs of WORKLOAD; repeat for more workloads")
    parser.add_argument("--slug", required=True, help="the file is BENCH_<slug>.json")
    parser.add_argument("--seed", type=int, default=1, help="seed of each workload's first pair (default 1)")
    parser.add_argument("--seconds", type=float, default=20.0, help="--seconds of every run (default 20)")
    parser.add_argument("--repo", default=REPO, help="the git repository (default: this script's)")
    parser.add_argument("--out", help="output file (default: BENCH_<slug>.json in the repository)")
    args = parser.parse_args(argv)
    out_path = args.out or os.path.join(args.repo, f"BENCH_{args.slug}.json")

    # a stopped runner still stops its benchmark and removes its trees
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = tempfile.mkdtemp(prefix="benchpairs-")
    try:
        trees = dict(zip(SIDES, (os.path.join(work, "a"), os.path.join(work, "b"))))
        commits = {side: export(args.repo, rev, trees[side]) for side, rev in zip(SIDES, (args.base, args.change))}
        workloads = {}
        for workload, count in args.pairs:
            pairs = []
            for i in range(count):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, args.seconds)
                print(f"{workload} pair {i + 1}/{count} seed {seed}: "
                      + "  ".join(f"{m} {pair['base'][m]:.4g} -> {pair['change'][m]:.4g}" for m in METRICS),
                      file=sys.stderr, flush=True)
                pairs.append(pair)
            workloads[workload] = {"pairs": pairs, **summary(pairs)}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "slug": args.slug,
        **commits,
        "command": ["perfbench/run.py", "--workload", "W", "--seed", f"{args.seed}+i",
                    "--seconds", str(args.seconds), "--trace", "0"],
        "seconds": args.seconds,
        "workloads": workloads,
        "machine": machine(),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
