"""tools/benchpairs.py against a stub benchmark in a throwaway repository."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools", "benchpairs.py")

# Stands in for perfbench/run.py: logs each run and prints a report line of
# stage medians and one result line, whose figures depend on the tree's
# VERSION file.
STUB = '''
import argparse, json, os, sys
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag, required=True)
args = p.parse_args()
tree = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
version = open(os.path.join(tree, "VERSION")).read().strip()
warm = os.path.isdir(os.path.join(tree, "src", "pkg", "__pycache__"))
with open(os.environ["BENCHPAIRS_STUB_LOG"], "a") as fh:
    fh.write(json.dumps({"version": version, "tree": tree, "warm": warm, "workload": args.workload,
                         "seed": int(args.seed), "seconds": args.seconds, "trace": args.trace}) + "\\n")
scale = 1.0 if version == "base" else 0.5
metrics = {"setup_s": 0.2, "pipeline_s": scale * int(args.seed), "peak_rss_mb": 40.0 + scale}
print("segalign benchmark: stub")
print("report " + json.dumps({"stages": {"quantize_s": 0.1 * scale, "segment_cpd_s": scale * int(args.seed)}}))
print(json.dumps({"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}))
'''


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                          check=True, capture_output=True, text=True).stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_pairs_alternate_and_the_file_holds_every_field(tmp_path):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src" / "pkg").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB)
    (repo / "src" / "pkg" / "mod.py").write_text("A = 1\n")
    (repo / "VERSION").write_text("base\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "base")
    base = git(repo, "rev-parse", "HEAD")
    (repo / "src" / "pkg" / "mod.py").write_text("A = 1\nB = 2\nC = 3\n")
    (repo / "VERSION").write_text("change\n")
    git(repo, "commit", "-q", "-am", "change")
    change = git(repo, "rev-parse", "HEAD")

    log = tmp_path / "runs.jsonl"
    out = tmp_path / "BENCH_stub.json"
    run = subprocess.run([sys.executable, TOOL, "--repo", str(repo), "--base", "HEAD~1", "--change", "HEAD",
                          "--pairs", "w1=3", "--pairs", "w2=2", "--seed", "5", "--seconds", "2", "--slug", "stub",
                          "--out", str(out)], check=True, capture_output=True, text=True,
                         env={**os.environ, "BENCHPAIRS_STUB_LOG": str(log)})

    runs = [json.loads(line) for line in log.read_text().splitlines()]
    assert [(r["workload"], r["seed"], r["version"]) for r in runs] == [
        ("w1", 5, "base"), ("w1", 5, "change"), ("w1", 6, "change"), ("w1", 6, "base"),
        ("w1", 7, "base"), ("w1", 7, "change"), ("w2", 5, "base"), ("w2", 5, "change"),
        ("w2", 6, "change"), ("w2", 6, "base")]
    assert all(r["warm"] and r["seconds"] == "2.0" and r["trace"] == "0" for r in runs)
    trees = {r["version"]: r["tree"] for r in runs}
    assert trees["base"] != trees["change"] and len(trees["base"]) == len(trees["change"])
    assert not any(os.path.exists(t) for t in trees.values())   # removed afterwards

    report = json.loads(out.read_text())
    assert report["slug"] == "stub" and report["seconds"] == 2.0
    assert report["base"] == {"rev": "HEAD~1", "commit": base, "src_lines": 1}
    assert report["change"] == {"rev": "HEAD", "commit": change, "src_lines": 3}
    w1 = report["workloads"]["w1"]
    assert [p["first"] for p in w1["pairs"]] == ["base", "change", "base"]
    assert [p["seed"] for p in w1["pairs"]] == [5, 6, 7]
    assert w1["pairs"][1]["base"] == {"setup_s": 0.2, "pipeline_s": 6.0, "peak_rss_mb": 41.0,
                                      "stages": {"quantize_s": 0.1, "segment_cpd_s": 6.0},
                                      "correct": True, "attempted": 4, "failed": 0}
    assert w1["pairs"][1]["change"]["stages"] == {"quantize_s": 0.05, "segment_cpd_s": 3.0}
    assert w1["median"] == {"base": {"setup_s": 0.2, "pipeline_s": 6.0, "peak_rss_mb": 41.0},
                            "change": {"setup_s": 0.2, "pipeline_s": 3.0, "peak_rss_mb": 40.5}}
    assert w1["quartiles"]["base"]["pipeline_s"] == [5.5, 6.5]
    assert w1["stage_median"] == {"base": {"quantize_s": 0.1, "segment_cpd_s": 6.0},
                                  "change": {"quantize_s": 0.05, "segment_cpd_s": 3.0}}
    assert w1["change_lower"] == {"setup_s": 0, "pipeline_s": 3, "peak_rss_mb": 3}
    assert w1["change_higher"] == {"setup_s": 0, "pipeline_s": 0, "peak_rss_mb": 0}
    # pipeline_s: lower in 3/3, median gap 3 > the base's spread 1; peak_rss_mb: gap 0.5 > spread 0
    assert w1["verdict"] == {"setup_s": "unresolved", "pipeline_s": "lower", "peak_rss_mb": "lower"}
    assert run.stdout.splitlines() == ["w1: setup_s unresolved  pipeline_s lower  peak_rss_mb lower",
                                       "w2: setup_s unresolved  pipeline_s lower  peak_rss_mb lower", str(out)]
    assert len(report["workloads"]["w2"]["pairs"]) == 2
    m = report["machine"]
    assert {"python", "numpy", "nproc", "sys_flags", "allocator_env"} <= set(m)
    assert m["sys_flags"]["dont_write_bytecode"] in (0, 1)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_run_without_a_result_line_stops_the_runner(tmp_path):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text("import sys\nprint('boom', file=sys.stderr)\nsys.exit(3)\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "only")
    out = tmp_path / "BENCH_x.json"
    run = subprocess.run([sys.executable, TOOL, "--repo", str(repo), "--base", "HEAD", "--change", "HEAD",
                          "--pairs", "w=1", "--slug", "x", "--out", str(out)], capture_output=True, text=True)
    assert run.returncode != 0 and "w seed 1" in run.stderr and "boom" in run.stderr
    assert not out.exists()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_run_without_a_report_line_records_no_stages(tmp_path):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    metrics = {k: {"value": 1.0, "unit": "x"} for k in ("setup_s", "pipeline_s", "peak_rss_mb")}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
    (repo / "perfbench" / "run.py").write_text(f"print({json.dumps(json.dumps(result))})\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "only")
    out = tmp_path / "BENCH_x.json"
    subprocess.run([sys.executable, TOOL, "--repo", str(repo), "--base", "HEAD", "--change", "HEAD",
                    "--pairs", "w=1", "--slug", "x", "--out", str(out)], check=True, capture_output=True)
    w = json.loads(out.read_text())["workloads"]["w"]
    assert w["pairs"][0]["base"]["stages"] == {} and w["pairs"][0]["change"]["stages"] == {}
    assert w["stage_median"] == {"base": {}, "change": {}}


def load_tool():
    spec = importlib.util.spec_from_file_location("benchpairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_pairs(base, change):
    return [{"base": {"setup_s": 1.0, "pipeline_s": b, "peak_rss_mb": 40.0},
             "change": {"setup_s": 1.0, "pipeline_s": c, "peak_rss_mb": 40.0}} for b, c in zip(base, change)]


@pytest.mark.parametrize("base, change, verdict", [
    # lower in 9/10 pairs, median gap 0.5 > the base's quartile spread 0.45
    ([1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9], [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 2.0], "lower"),
    # lower in 8/10 pairs only
    ([1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9], [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 2.0, 2.0], "unresolved"),
    # lower in 10/10 pairs, but the median gap 0.1 is inside the spread 0.45
    ([1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9], [0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8], "unresolved"),
    # higher in every pair, by more than the spread
    ([1.0, 1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0, 2.0], "higher"),
])
def test_verdict(base, change, verdict):
    s = load_tool().summary(stub_pairs(base, change))
    assert s["verdict"] == {"setup_s": "unresolved", "pipeline_s": verdict, "peak_rss_mb": "unresolved"}
