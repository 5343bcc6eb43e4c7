"""Command-line surface wiring the modules into reproducible pipelines.

Subcommands: synth, decompose, quantize, segment, train-align, decode,
ground, retrieve, eval.  Every stochastic command takes --seed and derives
all module seeds from it through named streams, so reruns are bit-identical.
All outputs are written atomically (temp + rename).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import urllib.parse

import numpy as np

from . import alignment, metrics, motion, rvq, segmentation, textseg
from .masked import OraclePredictor, Schedule, iterative_decode, trace_to_jsonl
from .seeds import rng_for, seed_for


class CliError(RuntimeError):
    pass


def _log(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message)


def _write_atomic(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, obj) -> None:
    _write_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# --- synth ------------------------------------------------------------------

def cmd_synth(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    seg_min = int(spec.get("segments_min", 2))
    seg_max = int(spec.get("segments_max", 3))
    if seg_max > textseg.A_MAX:
        raise CliError(f"spec requests up to {seg_max} segments; maximum is {textseg.A_MAX}")
    if seg_min < 1 or seg_min > seg_max:
        raise CliError("invalid segment range in spec")
    n_samples = int(spec.get("n_samples", 20))
    dim = int(spec.get("dim", 6))
    ratio = int(spec.get("ratio", motion.DEFAULT_DOWNSAMPLE_RATIO))
    tok_min = int(spec.get("tokens_per_segment_min", 4))
    tok_max = int(spec.get("tokens_per_segment_max", 8))
    mean_scale = float(spec.get("mean_scale", 3.0))
    noise_std = float(spec.get("noise_std", 0.3))
    embed_dim = int(spec.get("embed_dim", 16))

    out = args.out
    os.makedirs(os.path.join(out, "motions"), exist_ok=True)
    records = []
    truth = {}
    for i in range(n_samples):
        rng = rng_for(args.seed, f"synth.{i}")
        a = int(rng.integers(seg_min, seg_max + 1))
        tokens_per = rng.integers(tok_min, tok_max + 1, size=a)
        means = [rng.normal(0.0, mean_scale, size=dim) for _ in range(a)]
        sspec = motion.SyntheticSpec(
            regime_count=a,
            frames_per_regime=[int(t) * ratio for t in tokens_per],
            dim=dim,
            regime_means=means,
            noise_std=noise_std,
            seed=seed_for(args.seed, f"synth.noise.{i}"),
        )
        m, _ = motion.synth_motion(sspec)
        sample_id = f"sample_{i:04d}"
        rel = os.path.join("motions", f"{sample_id}.sgmo")
        motion.save_motion(m, os.path.join(out, rel))
        segments = [f"a person performs action {int(k)}" for k in rng.integers(0, 100, size=a)]
        embeddings = [rng.normal(size=embed_dim).tolist() for _ in range(a)]
        records.append(
            motion.DatasetRecord(
                id=sample_id,
                raw_text=", then ".join(segments),
                text_segments=segments,
                motion_path=rel,
                precomputed_embeddings=embeddings,
            )
        )
        token_bounds = segmentation.SegmentBoundaries.from_cuts(
            int(tokens_per.sum()), list(np.cumsum(tokens_per)[:-1])
        )
        truth[sample_id] = segmentation.boundaries_to_json(token_bounds)

    motion.write_dataset(records, os.path.join(out, "dataset.jsonl"))
    _write_json(os.path.join(out, "truth.json"), truth)
    manifest = {
        "seed": args.seed,
        "spec": spec,
        "ratio": ratio,
        "files": {
            name: _sha256(os.path.join(out, name))
            for name in sorted(
                ["dataset.jsonl", "truth.json"]
                + [os.path.join("motions", f"{r.id}.sgmo") for r in records]
            )
        },
    }
    _write_json(os.path.join(out, "manifest.json"), manifest)
    _log(args, f"synth: wrote {n_samples} samples to {out}")
    return 0


def _load_corpus(data_dir):
    records = motion.read_dataset(os.path.join(data_dir, "dataset.jsonl"))
    with open(os.path.join(data_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    ratio = int(manifest["ratio"])
    latents = {}
    for r in records:
        m = motion.load_motion(os.path.join(data_dir, r.motion_path))
        latents[r.id] = motion.project_latent(m, ratio)
    return records, latents, manifest


# --- segment ----------------------------------------------------------------

def cmd_segment(args) -> int:
    records, latents, _ = _load_corpus(args.data)
    truth_path = os.path.join(args.data, "truth.json")
    truth = None
    if os.path.exists(truth_path):
        with open(truth_path, "r", encoding="utf-8") as fh:
            truth = {k: segmentation.boundaries_from_json(v) for k, v in json.load(fh).items()}

    lib = None
    if args.method == "cluster":
        if not args.library:
            raise CliError("--method cluster requires --library")
        if args.fit_library:
            lib = segmentation.build_primitive_library(
                list(latents.values()),
                window_size=args.window,
                stride=args.stride,
                num_primitives=args.primitives,
                seed=seed_for(args.seed, "segment.library"),
            )
            _write_json(args.library, segmentation.library_to_json(lib))
        else:
            if not os.path.exists(args.library):
                raise CliError(f"primitive library not found: {args.library}")
            with open(args.library, "r", encoding="utf-8") as fh:
                lib = segmentation.library_from_json(json.load(fh))

    boundaries = {}
    pairs = []
    for r in records:
        x = latents[r.id]
        a = len(r.text_segments)
        if args.method == "uniform":
            b = segmentation.uniform_segment(x.length, a)
        elif args.method == "cpd":
            b = segmentation.kernel_cpd_segment(x, a, bandwidth=args.bandwidth)
        elif args.method == "cluster":
            b = segmentation.cluster_dp_segment(x, lib, a)
        else:
            raise CliError(f"unknown method {args.method!r}")
        boundaries[r.id] = segmentation.boundaries_to_json(b)
        if truth is not None and r.id in truth:
            pairs.append((b, truth[r.id]))

    _write_json(os.path.join(args.out, f"boundaries_{args.method}.json"), boundaries)
    if pairs:
        mean, std = segmentation.seg_error_corpus(pairs)
        report = f"method,mean_error,std_error\n{args.method},{mean:.6f},{std:.6f}\n"
        _write_atomic(os.path.join(args.out, f"seg_report_{args.method}.csv"), report)
        _log(args, f"segment[{args.method}]: mean_error={mean:.4f} std_error={std:.4f}")
    return 0


# --- quantize ---------------------------------------------------------------

def cmd_quantize(args) -> int:
    records, latents, _ = _load_corpus(args.data)
    stack = rvq.train_codebooks(
        list(latents.values()),
        layers=args.layers,
        codes_per_layer=args.codes,
        seed=seed_for(args.seed, "rvq.train"),
        iters=args.iters,
    )
    _write_atomic(os.path.join(args.out, "stack.json"), rvq.stack_to_json(stack) + "\n")
    quantized = {rid: rvq.quantize(v, stack) for rid, v in latents.items()}
    lines = [
        json.dumps({"id": r.id, "layers": quantized[r.id][0].layers.tolist()}, sort_keys=True)
        for r in records
    ]
    _write_atomic(os.path.join(args.out, "tokens.jsonl"), "\n".join(lines) + "\n")
    err = rvq.quantization_mse((v, quantized[rid][1]) for rid, v in latents.items())
    _write_atomic(
        os.path.join(args.out, "rvq_report.csv"),
        f"metric,value\nreconstruction_error,{err:.10g}\n",
    )
    _log(args, f"quantize: reconstruction_error={err:.6g}")
    return 0


# --- decompose --------------------------------------------------------------

def cmd_decompose(args) -> int:
    records = motion.read_dataset(args.data)
    cfg = None
    if not args.fallback:
        url = os.environ.get(textseg.LLM_URL_ENV_VAR, args.endpoint)
        if not url:
            raise CliError(
                "no endpoint: pass --endpoint, set SEGALIGN_LLM_URL, or use --fallback"
            )
        if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
            raise CliError(f"endpoint {url!r} is not an http:// or https:// URL")
        cfg = textseg.LlmEndpointConfig(base_url=url, model_name=args.model_name)
    statuses = {}
    report_path = os.path.splitext(args.out)[0] + "_report.json"
    for r in records:
        try:
            if args.fallback:
                seg = textseg.fallback_decompose(r.raw_text)
            else:
                seg = textseg.llm_decompose(r.raw_text, cfg, cache_path=args.cache)
            r.text_segments = list(seg.segments)
            statuses[r.id] = "ok"
        except (textseg.SegmentValidationError, textseg.MalformedResponseError) as exc:
            statuses[r.id] = f"rejected: {exc}"
        except textseg.TransportError as exc:
            # report what was handled; a partial dataset is never written
            statuses[r.id] = f"failed: {exc}"
            _write_json(report_path, statuses)
            raise CliError(str(exc)) from exc
    motion.write_dataset(records, args.out)
    _write_json(report_path, statuses)
    rejected = sum(1 for s in statuses.values() if s != "ok")
    _log(args, f"decompose: {len(records) - rejected} ok, {rejected} rejected")
    if rejected:
        print(
            json.dumps({"error": "records rejected", "count": rejected}, sort_keys=True),
            file=sys.stderr,
        )
        return 1
    return 0


# --- train-align ------------------------------------------------------------

def _sample_to_json(s: alignment.ToySample) -> dict:
    return {"text": s.text.tolist(), "spans": [sp.tolist() for sp in s.spans]}


def _sample_from_json(obj: dict) -> alignment.ToySample:
    return alignment.ToySample(
        text=np.asarray(obj["text"], dtype=np.float64),
        spans=[np.asarray(sp, dtype=np.float64) for sp in obj["spans"]],
    )


def _load_align_data(path):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    train = [_sample_from_json(s) for s in obj["train"]]
    holdout = [_sample_from_json(s) for s in obj["holdout"]]
    return train, holdout


def cmd_train_align(args) -> int:
    cfg = alignment.AlignmentConfig(
        temperature=args.temperature,
        lambda_align=getattr(args, "lambda"),
        batch_size=args.batch,
    )
    train = alignment.make_separable_dataset(
        args.samples,
        d_token=args.d_token,
        d_embed=args.d_embed,
        seed=seed_for(args.seed, "align.train_data"),
        map_seed=seed_for(args.seed, "align.map"),
    )
    holdout = alignment.make_separable_dataset(
        args.holdout,
        d_token=args.d_token,
        d_embed=args.d_embed,
        seed=seed_for(args.seed, "align.holdout_data"),
        map_seed=seed_for(args.seed, "align.map"),
    )

    if args.loss == "global":
        # one whole-sequence segment per sample: batch gradients reduce to
        # the global whole-sequence objective
        def flatten(samples):
            return [
                alignment.ToySample(
                    text=s.text.mean(axis=0, keepdims=True),
                    spans=[np.vstack(s.spans)],
                )
                for s in samples
            ]

        train_used, variant = flatten(train), "batch"
    else:
        train_used, variant = train, args.loss

    init = alignment.AggregatorParams.init(
        args.d_token, args.d_embed, seed=seed_for(args.seed, "align.init")
    )
    top1_before = alignment.retrieval_top1(holdout, init)
    try:
        params, curve = alignment.toy_train(
            train_used,
            cfg,
            steps=args.steps,
            lr=args.lr,
            seed=seed_for(args.seed, "align.sgd"),
            params=init,
            variant=variant,
        )
    except alignment.DivergenceError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 1
    top1_after = alignment.retrieval_top1(holdout, params)

    _write_json(
        os.path.join(args.out, "align_data.json"),
        {
            "d_token": args.d_token,
            "d_embed": args.d_embed,
            "train": [_sample_to_json(s) for s in train],
            "holdout": [_sample_to_json(s) for s in holdout],
        },
    )
    _write_json(os.path.join(args.out, "model.json"), alignment.params_to_json(params))
    curve_lines = ["step,loss"] + [f"{i},{v:.10g}" for i, v in enumerate(curve)]
    _write_atomic(os.path.join(args.out, "curve.csv"), "\n".join(curve_lines) + "\n")
    _write_json(
        os.path.join(args.out, "train_report.json"),
        {
            "loss_variant": args.loss,
            "final_loss": curve[-1],
            "initial_loss": curve[0],
            "holdout_top1_before": top1_before,
            "holdout_top1_after": top1_after,
        },
    )
    _log(
        args,
        f"train-align[{args.loss}]: loss {curve[0]:.4f} -> {curve[-1]:.4f}, "
        f"holdout top-1 {top1_before:.3f} -> {top1_after:.3f}",
    )
    return 0


# --- decode -----------------------------------------------------------------

def cmd_decode(args) -> int:
    rng = rng_for(args.seed, "decode.target")
    target = rng.integers(0, args.codes, size=args.length)
    predictor = OraclePredictor(target, num_codes=args.codes)
    trace = []
    tokens = iterative_decode(
        cond=None,
        length=args.length,
        predictor=predictor,
        schedule=Schedule(total_iters=args.iters),
        seed=seed_for(args.seed, "decode.sampling"),
        trace=trace,
    )
    _write_json(
        os.path.join(args.out, "decoded_tokens.json"),
        {"tokens": tokens.tolist(), "target": target.tolist(), "exact": bool(np.array_equal(tokens, target))},
    )
    _write_atomic(os.path.join(args.out, "decode_trace.jsonl"), trace_to_jsonl(trace))
    _log(args, f"decode: L={args.length} T={args.iters} exact={np.array_equal(tokens, target)}")
    return 0


# --- ground / retrieve / eval ----------------------------------------------

def _load_model(path) -> alignment.AggregatorParams:
    if not os.path.exists(path):
        raise CliError(f"model file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return alignment.params_from_json(json.load(fh))


def cmd_ground(args) -> int:
    params = _load_model(args.model)
    _, holdout = _load_align_data(args.data)
    if not (0 <= args.index < len(holdout)):
        raise CliError(f"--index out of range (holdout has {len(holdout)} samples)")
    sample = holdout[args.index]
    tokens = np.vstack(sample.spans)
    sim_rows = {}
    best = {}
    for j in range(sample.text.shape[0]):
        q = metrics.GroundingQuery(
            text_embedding=sample.text[j], window_size=args.window, stride=args.stride
        )
        start, sims = metrics.motion_grounding(q, tokens, params)
        sim_rows[f"segment_{j}"] = sims
        best[f"segment_{j}"] = start
    _write_atomic(os.path.join(args.out, "similarity_map.csv"), metrics.similarity_map_csv(sim_rows))
    _write_json(os.path.join(args.out, "grounding.json"), best)
    _log(args, f"ground: {len(sim_rows)} segments x {len(next(iter(sim_rows.values())))} windows")
    return 0


def cmd_retrieve(args) -> int:
    params = _load_model(args.model)
    _, holdout = _load_align_data(args.data)
    lines = ["sample,segment,retrieved,correct"]
    hits = 0
    total = 0
    for i, sample in enumerate(holdout):
        M = alignment.motion_embeddings(sample, params)
        for j in range(M.shape[0]):
            got = metrics.m2t_retrieve(M[j], sample.text)
            ok = int(got == j)
            hits += ok
            total += 1
            lines.append(f"{i},{j},{got},{ok}")
    acc = hits / total
    lines.append(f"accuracy,,,{acc:.6f}")
    _write_atomic(os.path.join(args.out, "retrieval.csv"), "\n".join(lines) + "\n")
    _log(args, f"retrieve: top-1 accuracy {acc:.3f} over {total} queries")
    return 0


def _load_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def cmd_eval(args) -> int:
    report = metrics.EvalReport(metadata={"seed": args.seed})
    if args.features_a:
        A = _load_matrix_csv(args.features_a)
        B = _load_matrix_csv(args.features_b) if args.features_b else A
        if args.metric in (None, "fid"):
            report.add("fid", metrics.fid(A, B))
        if args.metric in (None, "mm_dist") and A.shape == B.shape:
            report.add("mm_dist", metrics.mm_dist(A, B))
        if args.metric in (None, "diversity"):
            report.add("diversity", metrics.diversity(A, seed=seed_for(args.seed, "eval.diversity")))
    else:
        params = _load_model(args.model)
        _, holdout = _load_align_data(args.data)
        T = np.vstack([s.text for s in holdout])
        M = alignment.embed_spans([span for s in holdout for span in s.spans], params)
        report.add("isc", metrics.isc_score(zip(T, M)))
        for k in (1, 2, 3):
            report.add(f"r_precision_top{k}", metrics.r_precision(T, M, topk=k))
        report.add("mm_dist", metrics.mm_dist(T, M))
        report.add(
            "diversity", metrics.diversity(M, seed=seed_for(args.seed, "eval.diversity"))
        )
        report.add("fid", metrics.fid(T, M))
    _write_atomic(os.path.join(args.out, "eval.csv"), report.to_csv())
    _write_json(os.path.join(args.out, "eval.json"), {"metrics": report.metrics, "metadata": report.metadata})
    _log(args, "eval: " + ", ".join(f"{k}={v:.4g}" for k, v in sorted(report.metrics.items())))
    return 0


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="segalign", description=__doc__)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("synth", help="generate a synthetic annotated corpus")
    common(p)
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("decompose", help="decompose raw texts into segments")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--fallback", action="store_true")
    p.add_argument("--endpoint", default="")
    p.add_argument("--model-name", default="qwen3:8b")
    p.add_argument("--cache", default=None)
    p.set_defaults(func=cmd_decompose, out="decomposed.jsonl")

    p = sub.add_parser("quantize", help="train RVQ codebooks and tokenize")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--codes", type=int, default=16)
    p.add_argument("--iters", type=int, default=25)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("segment", help="segment a corpus and score against truth")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=["uniform", "cpd", "cluster"], required=True)
    p.add_argument("--bandwidth", default="median")
    p.add_argument("--library", default=None)
    p.add_argument("--fit-library", action="store_true")
    p.add_argument("--window", type=int, default=segmentation.DEFAULT_WINDOW_SIZE)
    p.add_argument("--stride", type=int, default=segmentation.DEFAULT_WINDOW_STRIDE)
    p.add_argument("--primitives", type=int, default=segmentation.DEFAULT_LIBRARY_SIZE)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("train-align", help="toy contrastive alignment training")
    common(p)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--holdout", type=int, default=50)
    p.add_argument("--d-token", type=int, default=8)
    p.add_argument("--d-embed", type=int, default=16)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--loss", choices=["sample", "batch", "global"], default="sample")
    p.add_argument("--lambda", type=float, default=alignment.DEFAULT_LAMBDA_ALIGN)
    p.add_argument("--temperature", type=float, default=alignment.DEFAULT_TEMPERATURE)
    p.set_defaults(func=cmd_train_align)

    p = sub.add_parser("decode", help="iterative masked decoding demo")
    common(p)
    p.add_argument("--length", type=int, default=16)
    p.add_argument("--iters", type=int, default=5)
    p.add_argument("--codes", type=int, default=8)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("ground", help="motion grounding similarity map")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--stride", type=int, default=1)
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("retrieve", help="motion-to-text retrieval report")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("eval", help="metric report (ISC, R-Precision, MM-Dist, Diversity, FID)")
    common(p)
    p.add_argument("--model", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--features-a", default=None)
    p.add_argument("--features-b", default=None)
    p.add_argument("--metric", default=None)
    p.set_defaults(func=cmd_eval)

    return parser


def _apply_config_defaults(parser: argparse.ArgumentParser, overrides: dict) -> None:
    """Config values become defaults everywhere, so explicit flags still win."""
    parser.set_defaults(**overrides)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub_parser in action.choices.values():
                sub_parser.set_defaults(**overrides)


def main(argv=None) -> int:
    parser = build_parser()
    args, _ = parser.parse_known_args(argv)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            _apply_config_defaults(parser, json.load(fh))
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
