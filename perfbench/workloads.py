"""The three benchmark workloads: their inputs, CLI stages and output checks.

A workload turns a seed into inputs (set-up), then lists the CLI operations
that are timed, each with a check of its outputs.  Checks run after the
operation, outside the timed region, and raise ``CheckError`` on a bad output.
Each workload has two sizes: ``full`` is the benchmark, ``tiny`` only feeds
the harness self-test.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

MODEL_NAME = "bench-decomposer"
# Never contacted: the worker replaces the transport, so a cache miss fails
# without a network call.  Should that guard fail, this refuses at once.
ENDPOINT = "http://127.0.0.1:9/v1/chat/completions"
GROUND_WINDOW = 5


class CheckError(Exception):
    """An operation finished but its outputs are wrong."""


class SetupError(Exception):
    """The inputs could not be made; the run cannot measure anything."""


@dataclass
class Op:
    stage: str               # stage metric this operation's time counts toward
    command: str             # CLI subcommand, also the cli.<command> span name
    argv: list
    out: str                 # directory holding this operation's outputs, and only them
    check: object            # callable() -> None, raising CheckError


@dataclass
class Workload:
    name: str
    why: str
    setup: object            # callable(params, seed, root) -> dict of inputs
    ops: object              # callable(params, seed, root, inputs) -> list[Op]
    stages: tuple            # stage metrics, in run order
    quality: dict            # quality guard -> (unit, better)
    sizes: dict              # "full" (the benchmark) and "tiny" (the self-test) -> params


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _csv_value(path, key, column):
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.strip().split(",")
            if parts[0] == key:
                return float(parts[column])
    raise CheckError(f"{os.path.basename(path)} has no {key!r} row")


# --- corpus workloads ---------------------------------------------------------

def _corpus_setup(p, seed, root):
    from segalign import cli

    inputs = os.path.join(root, "inputs")
    os.makedirs(inputs, exist_ok=True)
    spec_path = os.path.join(inputs, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(p["spec"], fh, sort_keys=True)
    data = os.path.join(root, "data")
    if cli.main(["synth", "--spec", spec_path, "--seed", str(seed), "--out", data, "--quiet"]) != 0:
        raise SetupError("segalign synth failed")
    records = _read_jsonl(os.path.join(data, "dataset.jsonl"))
    truth = _read_json(os.path.join(data, "truth.json"))
    cache = None
    if p["decompose"]:
        # a fully warm cache in the format textseg writes: one line per record
        cache = os.path.join(inputs, "llm_cache.jsonl")
        with open(cache, "w", encoding="utf-8") as fh:
            for r in records:
                line = {"model": MODEL_NAME, "input": r["text"], "output": "#".join(r["segments"])}
                fh.write(json.dumps(line, sort_keys=True) + "\n")
    return {
        "data": data,
        "cache": cache,
        "segments": {r["id"]: r["segments"] for r in records},
        "lengths": {k: v[-1][1] for k, v in truth.items()},
        "quality": {},
    }


def _check_decompose(out_path, inputs):
    def check():
        report = _read_json(os.path.splitext(out_path)[0] + "_report.json")
        bad = sorted(k for k, v in report.items() if v != "ok")
        _require(not bad, f"decompose statuses not ok: {bad[:3]}")
        got = {r["id"]: r["segments"] for r in _read_jsonl(out_path)}
        _require(got == inputs["segments"], "decomposed segments differ from the synth segments")
    return check


def _check_quantize(out, inputs, layers, codes):
    def check():
        rows = _read_jsonl(os.path.join(out, "tokens.jsonl"))
        _require([r["id"] for r in rows] == list(inputs["segments"]), "tokens.jsonl ids differ from the corpus")
        for r in rows:
            t = np.asarray(r["layers"])
            n = inputs["lengths"][r["id"]]
            _require(t.shape == (layers, n), f"{r['id']}: token matrix {t.shape}, expected {(layers, n)}")
            _require(t.min() >= 0 and t.max() < codes, f"{r['id']}: token index out of [0, {codes})")
        err = _csv_value(os.path.join(out, "rvq_report.csv"), "reconstruction_error", 1)
        _require(math.isfinite(err) and err >= 0, f"reconstruction error {err}")
        inputs["quality"]["recon_mse"] = err
    return check


def _check_segment(out, inputs, method, max_err):
    def check():
        bounds = _read_json(os.path.join(out, f"boundaries_{method}.json"))
        _require(sorted(bounds) == sorted(inputs["segments"]), f"boundaries_{method}.json ids differ")
        for rid, spans in bounds.items():
            n = inputs["lengths"][rid]
            starts = [s for s, _ in spans]
            ends = [e for _, e in spans]
            _require(len(spans) == len(inputs["segments"][rid]), f"{rid}: {len(spans)} spans")
            _require(starts == [0] + ends[:-1] and ends[-1] == n and all(s < e for s, e in spans),
                     f"{rid}: spans do not tile [0, {n}) with non-empty segments")
        err = _csv_value(os.path.join(out, f"seg_report_{method}.csv"), method, 1)
        _require(0 <= err <= max_err, f"{method} segmentation error {err} exceeds {max_err}")
        inputs["quality"][f"seg_err_{method}"] = err
    return check


def _corpus_ops(p, seed, root, inputs):
    data = inputs["data"]
    out = os.path.join(root, "out")
    ops = []
    if p["decompose"]:
        d = os.path.join(out, "decompose")
        path = os.path.join(d, "decomposed.jsonl")
        os.makedirs(d, exist_ok=True)
        ops.append(Op("decompose_s", "decompose", [
            "decompose", "--data", os.path.join(data, "dataset.jsonl"), "--endpoint", ENDPOINT,
            "--model-name", MODEL_NAME, "--cache", inputs["cache"], "--out", path, "--quiet",
        ], d, _check_decompose(path, inputs)))
    q = os.path.join(out, "quantize")
    ops.append(Op("quantize_s", "quantize", [
        "quantize", "--data", data, "--codes", str(p["codes"]), "--layers", str(p["layers"]),
        "--seed", str(seed), "--out", q, "--quiet",
    ], q, _check_quantize(q, inputs, p["layers"], p["codes"])))
    s = os.path.join(out, "segment_cpd")
    ops.append(Op("segment_cpd_s", "segment", [
        "segment", "--data", data, "--method", "cpd", "--seed", str(seed), "--out", s, "--quiet",
    ], s, _check_segment(s, inputs, "cpd", p["max_seg_err_cpd"])))
    s = os.path.join(out, "segment_cluster")
    ops.append(Op("segment_cluster_s", "segment", [
        "segment", "--data", data, "--method", "cluster", "--library", os.path.join(s, "library.json"),
        "--fit-library", "--primitives", str(p["primitives"]), "--seed", str(seed), "--out", s, "--quiet",
    ], s, _check_segment(s, inputs, "cluster", p["max_seg_err_cluster"])))
    return ops


# --- align-query ----------------------------------------------------------------

def _align_setup(p, seed, root):
    return {"quality": {}}


def _check_train(out):
    def check():
        report = _read_json(os.path.join(out, "train_report.json"))
        _require(report["final_loss"] < report["initial_loss"],
                 f"train-align loss did not fall: {report['initial_loss']} -> {report['final_loss']}")
        _require(os.path.exists(os.path.join(out, "model.json")), "model.json missing")
    return check


def _check_ground(out, align_dir):
    def check():
        holdout = _read_json(os.path.join(align_dir, "align_data.json"))["holdout"][0]
        n = sum(len(sp) for sp in holdout["spans"])
        best = _read_json(os.path.join(out, "grounding.json"))
        _require(sorted(best) == [f"segment_{j}" for j in range(len(holdout["text"]))], "grounding keys")
        _require(all(0 <= v <= n - GROUND_WINDOW for v in best.values()), "grounding start out of range")
    return check


def _check_retrieve(out, inputs, min_top1):
    def check():
        path = os.path.join(out, "retrieval.csv")
        with open(path, "r", encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        _require(len(rows) > 2, "retrieval.csv has no queries")
        acc = _csv_value(path, "accuracy", 3)
        _require(min_top1 <= acc <= 1, f"retrieval top-1 {acc} below {min_top1}")
        inputs["quality"]["retrieve_top1"] = acc
    return check


def _check_eval(out):
    def check():
        values = _read_json(os.path.join(out, "eval.json"))["metrics"]
        expected = {"isc", "r_precision_top1", "r_precision_top2", "r_precision_top3", "mm_dist", "diversity", "fid"}
        _require(set(values) == expected, f"eval metrics {sorted(values)}")
        _require(all(math.isfinite(v) for v in values.values()), "non-finite eval metric")
    return check


def _check_decode(out, length, codes):
    def check():
        obj = _read_json(os.path.join(out, "decoded_tokens.json"))
        _require(obj["exact"] is True, "decode did not reproduce its target")
        t = obj["tokens"]
        _require(len(t) == length and all(0 <= v < codes for v in t), "decoded tokens out of range")
    return check


def _align_ops(p, seed, root, inputs):
    out = os.path.join(root, "out")
    run = os.path.join(out, "align")
    model = os.path.join(run, "model.json")
    data = os.path.join(run, "align_data.json")
    a = p["align"]
    ops = [Op("train_align_s", "train-align", [
        "train-align", "--seed", str(seed), "--samples", str(a["samples"]), "--holdout", str(a["holdout"]),
        "--d-token", str(a["d_token"]), "--d-embed", str(a["d_embed"]), "--batch", str(a["batch"]),
        "--steps", str(a["steps"]), "--out", run, "--quiet",
    ], run, _check_train(run))]
    g = os.path.join(out, "ground")
    ops.append(Op("query_s", "ground", [
        "ground", "--model", model, "--data", data, "--window", str(GROUND_WINDOW), "--out", g, "--quiet",
    ], g, _check_ground(g, run)))
    r = os.path.join(out, "retrieve")
    ops.append(Op("query_s", "retrieve", ["retrieve", "--model", model, "--data", data, "--out", r, "--quiet"],
                  r, _check_retrieve(r, inputs, p["min_top1"])))
    e = os.path.join(out, "eval")
    ops.append(Op("query_s", "eval", ["eval", "--model", model, "--data", data, "--seed", str(seed),
                                      "--out", e, "--quiet"], e, _check_eval(e)))
    d = p["decode"]
    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=d["calls"])
    for i, s in enumerate(seeds):
        o = os.path.join(out, "decode", f"{i:03d}")
        ops.append(Op("decode_s", "decode", [
            "decode", "--length", str(d["length"]), "--iters", str(d["iters"]), "--codes", str(d["codes"]),
            "--seed", str(int(s)), "--out", o, "--quiet",
        ], o, _check_decode(o, d["length"], d["codes"])))
    return ops


def _spec(n_samples, segments, tokens):
    return {"n_samples": n_samples, "dim": 16, "segments_min": segments[0], "segments_max": segments[1],
            "tokens_per_segment_min": tokens[0], "tokens_per_segment_max": tokens[1]}


# The max_seg_err_* and min_top1 entries are sanity floors on the quality
# guards, loose enough for every seed: a kernel that trades exactness for
# speed should trip them long before its numbers look plausible.  Cluster
# segmentation of corpus-long averages only 16 cuts and has a heavy tail (up
# to 41 tokens over 160 seeds), so its floor is one segment, 90 tokens.  At
# the tiny size the floors only require a cut inside the sequence.
CORPUS_QUALITY = {"recon_mse": ("mse", "lower"), "seg_err_cpd": ("tokens", "lower"),
                  "seg_err_cluster": ("tokens", "lower")}
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus-short",
            "60 short sequences: RVQ k-means dominates; 120 tiny DPs; decompose reads a warm text cache",
            _corpus_setup, _corpus_ops,
            ("decompose_s", "quantize_s", "segment_cpd_s", "segment_cluster_s"),
            CORPUS_QUALITY,
            {
                "full": {"spec": _spec(60, (3, 3), (8, 8)), "decompose": True, "codes": 64, "layers": 4,
                         "primitives": 32, "max_seg_err_cpd": 1.0, "max_seg_err_cluster": 4.0},
                "tiny": {"spec": _spec(12, (3, 3), (8, 8)), "decompose": True, "codes": 8, "layers": 2,
                         "primitives": 4, "max_seg_err_cpd": 24.0, "max_seg_err_cluster": 24.0},
            },
        ),
        Workload(
            "corpus-long",
            "4 sequences of 450 tokens: the pure-Python exact DP of CPD and cluster segmentation dominates",
            _corpus_setup, _corpus_ops,
            ("quantize_s", "segment_cpd_s", "segment_cluster_s"),
            CORPUS_QUALITY,
            {
                "full": {"spec": _spec(4, (5, 5), (90, 90)), "decompose": False, "codes": 16, "layers": 2,
                         "primitives": 16, "max_seg_err_cpd": 10.0, "max_seg_err_cluster": 90.0},
                "tiny": {"spec": _spec(2, (5, 5), (12, 12)), "decompose": False, "codes": 4, "layers": 2,
                         "primitives": 4, "max_seg_err_cpd": 60.0, "max_seg_err_cluster": 60.0},
            },
        ),
        Workload(
            "align-query",
            "no corpus: alignment training, ground/retrieve/eval and 50 masked decodes; "
            "rvq and segmentation do no work",
            _align_setup, _align_ops,
            ("train_align_s", "query_s", "decode_s"),
            {"retrieve_top1": ("ratio", "higher")},
            {
                "full": {"align": {"samples": 200, "holdout": 200, "d_token": 16, "d_embed": 32, "batch": 32,
                                   "steps": 150},
                         "decode": {"calls": 50, "length": 49, "iters": 10, "codes": 512}, "min_top1": 0.8},
                "tiny": {"align": {"samples": 20, "holdout": 20, "d_token": 8, "d_embed": 16, "batch": 8,
                                   "steps": 20},
                         "decode": {"calls": 3, "length": 10, "iters": 4, "codes": 16}, "min_top1": 0.0},
            },
        ),
    )
}
