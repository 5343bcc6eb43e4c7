"""tools/benchpairs.py against a stub benchmark in a throwaway repository."""

import json
import os
import shutil
import subprocess
import sys

import pytest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools", "benchpairs.py")

# Stands in for perfbench/run.py: logs each run and prints one result line
# whose metrics depend on the tree's VERSION file.
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
    subprocess.run([sys.executable, TOOL, "--repo", str(repo), "--base", "HEAD~1", "--change", "HEAD",
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
                                      "correct": True, "attempted": 4, "failed": 0}
    assert w1["median"] == {"base": {"setup_s": 0.2, "pipeline_s": 6.0, "peak_rss_mb": 41.0},
                            "change": {"setup_s": 0.2, "pipeline_s": 3.0, "peak_rss_mb": 40.5}}
    assert w1["quartiles"]["base"]["pipeline_s"] == [5.5, 6.5]
    assert w1["change_lower"] == {"setup_s": 0, "pipeline_s": 3, "peak_rss_mb": 3}
    assert w1["change_higher"] == {"setup_s": 0, "pipeline_s": 0, "peak_rss_mb": 0}
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
