"""Self-test of the benchmark harness, at tiny sizes (about 20 s).

    python3 perfbench/selftest.py

Checks that every metric is emitted with its unit and direction, that a bad
artifact and a missing cache entry count as failed operations rather than
crashing the harness, that the seed changes the inputs but not the metric
names, and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(CHECKOUT, "src"))

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=CHECKOUT):
    """Run run.py at tiny size; return (exit code, table rows, report, result)."""
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--size", "tiny",
                           "--seconds", "0", *args], cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        return proc.returncode, {}, None, None
    rows = {}
    for line in lines:
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 4 and parts[0] not in ("metric", "FAILED"):
            rows[parts[0]] = (float(parts[1]), parts[2], parts[3])
    report = json.loads(next(line for line in lines if line.startswith("report "))[len("report "):])
    return proc.returncode, rows, report, json.loads(lines[-1])


class MetricsEmitted(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(CHECKOUT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
            cls.spec = json.load(fh)
        cls.runs = {(w, seed, trace): bench("--workload", w, "--seed", str(seed), "--trace", str(trace))
                    for w in WORKLOADS for seed, trace in ((1, 0), (2, 0), (1, 1))}

    def test_benchmark_json_matches_harness(self):
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.spec["end_to_end"]],
                         [tuple(m) for m in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.spec["per_layer"]],
                         [tuple(m) for m in run.PER_LAYER])
        self.assertEqual({w["name"]: w["why"] for w in self.spec["workloads"]},
                         {name: w.why for name, w in WORKLOADS.items()})

    def test_every_metric_emitted_with_unit_and_direction(self):
        for (w, seed, trace), (code, rows, report, result) in self.runs.items():
            with self.subTest(workload=w, seed=seed, trace=trace):
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"], rows)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                expected = run.PER_LAYER if trace else run.END_TO_END
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                 {n: u for n, u, _ in expected})
                table = [(n, u, b) for n, u, b in run.END_TO_END]
                table += [(s, "s", "lower") for s in WORKLOADS[w].stages]
                table += [("error_rate", "ratio", "lower")]
                table += [(q, u, b) for q, (u, b) in WORKLOADS[w].quality.items()]
                if trace:
                    table += list(run.PER_LAYER)
                for name, unit, better in table:
                    self.assertEqual(rows[name][1:], (unit, better), name)
                self.assertEqual(rows["error_rate"][0], 0.0)

    def test_seed_changes_inputs_not_metric_names(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, rows1, report1, result1 = self.runs[(w, 1, 0)]
                _, rows2, report2, result2 = self.runs[(w, 2, 0)]
                self.assertNotEqual(report1["inputs_sha256"], report2["inputs_sha256"])
                self.assertEqual(set(result1["metrics"]), set(result2["metrics"]))
                self.assertEqual(set(rows1), set(rows2))


class FailuresAreCounted(unittest.TestCase):
    """In-process: operations fail, the harness goes on and counts them."""

    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="perfbench-selftest-")
        from segalign import textseg

        self.textseg = textseg
        self.saved_transport = textseg._default_transport
        self.guard = worker.NetworkGuard()
        textseg._default_transport = self.guard.transport

    def tearDown(self):
        self.textseg._default_transport = self.saved_transport
        shutil.rmtree(self.tmp, ignore_errors=True)

    def prepare(self, name, seed=5):
        wl = WORKLOADS[name]
        params = wl.sizes["tiny"]
        inputs = wl.setup(params, seed, self.tmp)
        return wl.ops(params, seed, self.tmp, inputs)

    def corrupt_before_check(self, op, corrupt):
        check = op.check

        def corrupted():
            corrupt(op.out)
            check()
        op.check = corrupted

    def test_bad_decode_artifact_raises_error_rate(self):
        ops = self.prepare("align-query")

        def not_exact(out):
            path = os.path.join(out, "decoded_tokens.json")
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            obj["exact"] = False
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)

        self.corrupt_before_check(next(op for op in ops if op.command == "decode"), not_exact)
        _, failures = worker.run_ops(ops)
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("decode did not reproduce its target", failures[0])

    def test_token_out_of_range_raises_error_rate(self):
        ops = self.prepare("corpus-short")
        codes = WORKLOADS["corpus-short"].sizes["tiny"]["codes"]

        def out_of_range(out):
            path = os.path.join(out, "tokens.jsonl")
            with open(path, "r", encoding="utf-8") as fh:
                rows = [json.loads(line) for line in fh]
            rows[0]["layers"][0][0] = codes
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(json.dumps(r) + "\n" for r in rows))

        self.corrupt_before_check(next(op for op in ops if op.command == "quantize"), out_of_range)
        _, failures = worker.run_ops(ops)
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("token index out of", failures[0])

    def test_missing_cache_entry_is_a_failure_not_a_crash(self):
        ops = self.prepare("corpus-short")
        cache = os.path.join(self.tmp, "inputs", "llm_cache.jsonl")
        with open(cache, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(cache, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-1])
        windows, failures = worker.run_ops(ops)
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("decompose: TransportError escaped cli.main", failures[0])
        self.assertGreater(self.guard.calls, 0)
        self.assertEqual(set(windows), set(WORKLOADS["corpus-short"].stages))

    def test_artifact_mismatch_is_attributed_to_its_operation(self):
        ref = {"op_outputs": ["out/a", "out/b"], "digests": {"data/x": "1", "out/a/f": "2", "out/b/g": "3"}}
        other = {"op_outputs": ref["op_outputs"], "digests": dict(ref["digests"], **{"out/b/g": "4"})}
        self.assertEqual(run.artifact_mismatches(ref, ref), [])
        self.assertEqual(run.artifact_mismatches(ref, other), ["out/b"])


class RefusesWithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory(prefix="perfbench-bare-") as bare:
            shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload",
                                   "corpus-short", "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
