"""Command-line surface wiring the modules into reproducible pipelines.

Commands: synth, decompose, quantize, segment, train-align, decode, ground,
retrieve, eval.  ``main`` builds the parser of the one command it is given;
``segalign <command> --help`` lists its flags.  ``--config FILE`` goes
before the command: its JSON keys are flag dests (``d_token``, ``lr``),
flags override them, and keys the command does not use are ignored.  Every
JSON file a command reads (the synth spec, manifest.json, truth.json, a
primitive library, model.json, align_data.json, --config) goes through one
reader: a missing, malformed or mistyped file exits 1, before anything is
written, with one stderr line ``{"error": "<path>: <field> ..."}``.  The
float matrices of dataset.jsonl (``embeddings``, which synth does not write:
only a hand-written dataset carries them), stack.json, a primitive
library, align_data.json and model.json share one encoding,
``jsonio.hex_rows``: each row is the lowercase hex of its little-endian
float64 bytes, read back exactly by ``np.frombuffer(bytes.fromhex(row),
"<f8")``.  A file of decimal float lists there is older and refused, naming
the command that writes it anew (or, for embeddings, ``jsonio.hex_rows``).
No JSON file stores a matrix's width, its first row's.  A corpus's latent
width is its first record's: a motion file of another is refused at load.
A spec or config value of the wrong JSON type, such as "8" for an int, is
refused, not converted.  A float overflow, NaN or division by zero in a
command exits 1 the same way, and so does a record that ``segment`` cannot
cut or ``decompose`` cannot decompose, named by its id.  Every stochastic
command takes --seed and derives all module seeds from it through named
streams, so reruns are bit-identical.  All outputs are written atomically
(temp + rename): every JSON and JSON-lines file through ``jsonio.write_json``
or ``write_jsonl``, one object per line, keys sorted; every CSV report
through ``_write_csv``, a header line and then one line per row of
``str(cell)``, so a float is the exact text JSON gives it.  The columns of
similarity_map.csv are window start tokens, as in grounding.json.  Kernel
CPD computes in float64 whatever the latents' dtype.  A count flag below 1,
such as ``--holdout 0``, or above what the data holds (``--codes``,
``--primitives``) exits 1 the same way, naming the flag, and so does a flag
of another mode: ``--metric`` or ``--features-b`` with eval's
``--model``/``--data``, ``--model`` or ``--data`` with ``--features-a``, and
``--endpoint`` or ``--cache`` with decompose's ``--fallback``.
On glibc, quantize and segment keep freed scratch memory in the heap for the
next sequence or k-means iteration (see ``_keep_freed_memory``).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import os
import sys
import warnings

import numpy as np

from . import alignment, jsonio, metrics, motion, rvq, segmentation, textseg
from .atomic import write_atomic
from .masked import OraclePredictor, Schedule, iterative_decode
from .seeds import rng_for, seed_for


class CliError(ValueError):
    pass


def _log(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message)


def _at_least_one(args, *dests: str) -> None:
    """Each of the ``dests`` counts, set by flag or by --config, is at least
    1; the first that is not is a CliError naming its flag."""
    for dest in dests:
        value = getattr(args, dest)
        if value < 1:
            raise CliError(f"--{dest.replace('_', '-')} must be at least 1, got {value}")


# glibc's mallopt parameter numbers (malloc.h), and the environment settings
# through which an operator tunes the same thresholds
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


@functools.cache
def _keep_freed_memory() -> None:
    """Keep the scratch memory a corpus command frees in the heap.

    With glibc's default thresholds, the kernel CPD blocks of one sequence and
    the (n, k) buffers of one k-means iteration are unmapped or trimmed when
    freed, and the next block or iteration page-faults them in again.
    Blocks up to 32 MiB (the 64-bit ceiling of glibc's own dynamic mmap
    threshold) come from the heap, and the heap is trimmed only above
    64 MiB free (the trim threshold glibc's dynamic rule would set).  Runs
    once per process; changes no output.  Does nothing off POSIX or where
    there is no mallopt (macOS), and mallopt is a stub on musl.  Any of
    ``_MALLOC_ENV`` set in the environment leaves the allocator as the
    operator tuned it."""
    if os.name != "posix" or any(name in os.environ for name in _MALLOC_ENV):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _within_data(args, available: int, what: str, dest: str) -> None:
    """Refuse a count flag ``dest`` above the ``available`` count at --data, naming both."""
    if getattr(args, dest) > available:
        raise CliError(f"{os.path.join(args.data, 'dataset.jsonl')}: {available} {what}, "
                       f"fewer than --{dest} {getattr(args, dest)}")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_csv(path, header, rows) -> None:
    """Write the ``header`` line and one line per row to ``path``, each cell
    ``str(cell)``: for a float64, the shortest text that reads back to it,
    which ``json.dumps`` writes too."""
    write_atomic(path, "".join(",".join(map(str, row)) + "\n" for row in [header, *rows]))


# --- synth ------------------------------------------------------------------

# synth spec fields and their defaults: an int field takes a positive JSON
# int, a float field a finite JSON number >= 0, and no other key is allowed
SPEC_DEFAULTS = dict(n_samples=20, dim=6, ratio=motion.DEFAULT_DOWNSAMPLE_RATIO, segments_min=2, segments_max=3,
                     tokens_per_segment_min=4, tokens_per_segment_max=8, mean_scale=3.0, noise_std=0.3)


def _synth_params(spec) -> dict:
    """SPEC_DEFAULTS updated by the spec's fields, each checked."""
    params = {**SPEC_DEFAULTS, **jsonio.json_object(spec)}
    for key, value in params.items():
        if key not in SPEC_DEFAULTS:
            raise ValueError(f"unknown field {key!r}")
        if isinstance(SPEC_DEFAULTS[key], int):
            jsonio.positive_int(value, key)
        elif jsonio.number(value, float, key) < 0:
            raise ValueError(f"field {key!r} must not be negative, got {value!r}")
    if params["segments_max"] > textseg.A_MAX:
        raise ValueError(f"field 'segments_max' must be at most {textseg.A_MAX}, got {params['segments_max']}")
    for low, high in (("segments_min", "segments_max"), ("tokens_per_segment_min", "tokens_per_segment_max")):
        if params[low] > params[high]:
            raise ValueError(f"field {low!r} {params[low]} exceeds field {high!r} {params[high]}")
    return params


def cmd_synth(args) -> int:
    """Draw every record, then write the corpus; a record whose frames the
    motion file's float32 cannot hold is refused before any file is written."""
    spec, p = jsonio.read_json(args.spec, lambda obj: (obj, _synth_params(obj)))
    out = args.out
    records, motions, truth = [], [], {}
    for i in range(p["n_samples"]):
        rng = rng_for(args.seed, f"synth.{i}")
        a = int(rng.integers(p["segments_min"], p["segments_max"] + 1))
        tokens_per = rng.integers(p["tokens_per_segment_min"], p["tokens_per_segment_max"] + 1, size=a)
        means = [rng.normal(0.0, p["mean_scale"], size=p["dim"]) for _ in range(a)]
        sspec = motion.SyntheticSpec(
            frames_per_regime=[int(t) * p["ratio"] for t in tokens_per],
            regime_means=means,
            noise_std=p["noise_std"],
            seed=seed_for(args.seed, f"synth.noise.{i}"),
        )
        sample_id = f"sample_{i:04d}"
        try:
            m, _ = motion.synth_motion(sspec)
            motions.append(motion.MotionSequence(frames=m.frames.astype("<f4")))
        except (FloatingPointError, motion.NonFiniteValueError):
            raise CliError(f"{args.spec}: {sample_id} has a frame value beyond the float32 range of a motion file: "
                           "lower field 'mean_scale' or 'noise_std'") from None
        segments = [f"a person performs action {int(k)}" for k in rng.integers(0, 100, size=a)]
        records.append(motion.DatasetRecord(id=sample_id, raw_text=", then ".join(segments), text_segments=segments,
                                            motion_path=os.path.join("motions", f"{sample_id}.sgmo")))
        bounds = segmentation.SegmentBoundaries.from_cuts(int(tokens_per.sum()), list(np.cumsum(tokens_per)[:-1]))
        truth[sample_id] = segmentation.boundaries_to_json(bounds)

    for r, m in zip(records, motions):
        motion.save_motion(m, os.path.join(out, r.motion_path))
    motion.write_dataset(records, os.path.join(out, "dataset.jsonl"))
    jsonio.write_json(os.path.join(out, "truth.json"), truth)
    manifest = {
        "seed": args.seed,
        "spec": spec,
        "ratio": p["ratio"],
        "files": {
            name: _sha256(os.path.join(out, name))
            for name in sorted(["dataset.jsonl", "truth.json"] + [r.motion_path for r in records])
        },
    }
    jsonio.write_json(os.path.join(out, "manifest.json"), manifest)
    _log(args, f"synth: wrote {p['n_samples']} samples to {out}")
    return 0


def _load_corpus(data_dir):
    records = motion.read_dataset(os.path.join(data_dir, "dataset.jsonl"))
    if not records:
        raise CliError(f"{os.path.join(data_dir, 'dataset.jsonl')}: no records")
    path = os.path.join(data_dir, "manifest.json")
    ratio = jsonio.read_json(path, lambda obj: jsonio.positive_int(jsonio.json_object(obj, "ratio")["ratio"], "ratio"))
    latents, first = {}, records[0].id
    for r in records:
        path = os.path.join(data_dir, r.motion_path)
        latents[r.id] = x = motion.project_latent(motion.load_motion(path), ratio)
        if x.dim != latents[first].dim:
            raise CliError(f"{path}: {r.id} has {x.dim} pose values per frame, but {first} has {latents[first].dim}")
    return records, latents


# --- segment ----------------------------------------------------------------

def _load_library(path, dim: int) -> segmentation.PrimitiveLibrary:
    """The primitive library at ``path``, checked against the corpus's latent
    width ``dim`` and for a centre whose squared norm overflows before any
    window is scored; a bad file is a ValueError that starts with ``path``."""
    lib = jsonio.read_json(path, segmentation.library_from_json)
    width = lib.centers.shape[1]
    if width != lib.window_size * dim:
        raise CliError(
            f"{path}: field 'centers' has rows of {width} values, but window_size "
            f"{lib.window_size} x latent dim {dim} needs {lib.window_size * dim}"
        )
    with np.errstate(over="ignore"):   # sqdist adds each centre's squared norm to every window cost
        if not np.isfinite((lib.centers * lib.centers).sum(axis=1)).all():
            raise CliError(f"{path}: field 'centers' has a row whose squared norm is beyond the float64 range")
    return lib


def _truth_from_json(obj, records, latents) -> dict:
    """truth.json's boundaries by sample id.  A record's entry must cover
    exactly [0, n) of its sequence with the record's segment count."""
    truth = {}
    for key, spans in jsonio.json_object(obj).items():
        try:
            truth[key] = segmentation.boundaries_from_json(spans)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    for r in records:
        b, want = truth.get(r.id), (len(r.text_segments), latents[r.id].length)
        if b is not None and (b.num_segments, b.length) != want:
            raise ValueError(f"{r.id}: {b.num_segments} spans over [0, {b.length}), but the record has "
                             f"{want[0]} segments over [0, {want[1]})")
    return truth


def cmd_segment(args) -> int:
    """Segment every record into its text's segment count, the whole corpus
    in one call to the method (which batches records as it sees fit).  If
    that call refuses, each record is segmented alone, in record order, so
    the error names the first record refused."""
    _at_least_one(args, "window", "stride", "primitives")
    if args.method == "cpd":
        segmentation.fixed_bandwidth(args.bandwidth)   # a flag's refusal, not a record's
    _keep_freed_memory()
    records, latents = _load_corpus(args.data)
    truth_path = os.path.join(args.data, "truth.json")
    truth = {}
    if os.path.exists(truth_path):
        truth = jsonio.read_json(truth_path, lambda obj: _truth_from_json(obj, records, latents))

    lib = None
    if args.method == "cluster":
        if not args.library:
            raise CliError("--method cluster requires --library")
        if args.fit_library:
            windows = sum(max(0, (x.length - args.window) // args.stride + 1) for x in latents.values())
            _within_data(args, windows, "windows", "primitives")
            lib = segmentation.build_primitive_library(
                list(latents.values()),
                window_size=args.window,
                stride=args.stride,
                num_primitives=args.primitives,
                seed=seed_for(args.seed, "segment.library"),
            )
        else:
            lib = _load_library(args.library, latents[records[0].id].dim)
            for flag, given, field in (("--window", args.window, "window_size"), ("--stride", args.stride, "stride"),
                                       ("--primitives", args.primitives, "size")):
                if not isinstance(given, _Default) and given != getattr(lib, field):
                    raise CliError(
                        f"{args.library}: {flag} {given} disagrees with the library's {field} {getattr(lib, field)}"
                    )

    segment = {
        "uniform": lambda xs, counts: [segmentation.uniform_segment(x.length, a) for x, a in zip(xs, counts)],
        "cpd": lambda xs, counts: segmentation.kernel_cpd_corpus(xs, counts, bandwidth=args.bandwidth),
        "cluster": lambda xs, counts: segmentation.cluster_dp_corpus(xs, lib, counts),
    }[args.method]
    try:
        found = segment([latents[r.id] for r in records], [len(r.text_segments) for r in records])
    except (ValueError, FloatingPointError):
        for r in records:
            try:
                segment([latents[r.id]], [len(r.text_segments)])
            except (ValueError, FloatingPointError) as exc:
                raise CliError(f"{r.id}: {exc}") from None
        raise
    boundaries = {r.id: segmentation.boundaries_to_json(b) for r, b in zip(records, found)}
    pairs = [(b, truth[r.id]) for r, b in zip(records, found) if r.id in truth]

    # written only once every record is segmented, so a refusal writes nothing
    if lib is not None and args.fit_library:
        jsonio.write_json(args.library, segmentation.library_to_json(lib))
    jsonio.write_json(os.path.join(args.out, f"boundaries_{args.method}.json"), boundaries)
    if pairs:
        mean, std = segmentation.seg_error_corpus(pairs)
        _write_csv(os.path.join(args.out, f"seg_report_{args.method}.csv"), ["method", "mean_error", "std_error"],
                   [[args.method, mean, std]])
        _log(args, f"segment[{args.method}]: mean_error={mean:.4f} std_error={std:.4f}")
    return 0


# --- quantize ---------------------------------------------------------------

def cmd_quantize(args) -> int:
    _at_least_one(args, "layers", "codes", "iters")
    _keep_freed_memory()
    records, latents = _load_corpus(args.data)
    stacked = np.vstack([v.vectors for v in latents.values()])
    _within_data(args, len(stacked), "latent vectors", "codes")
    stack, tokens = rvq.train_and_tokenize(
        stacked,
        layers=args.layers,
        codes_per_layer=args.codes,
        seed=seed_for(args.seed, "rvq.train"),
        iters=args.iters,
    )
    jsonio.write_json(os.path.join(args.out, "stack.json"), rvq.stack_to_json(stack))
    # the training rows' tokens are what quantize gives each sequence alone,
    # row by row, and dequantize sums their codes as quantize does
    quantized = rvq.dequantize(tokens, stack)
    ends = np.cumsum([v.length for v in latents.values()]).tolist()
    rows = {rid: slice(end - v.length, end) for (rid, v), end in zip(latents.items(), ends)}
    jsonio.write_jsonl(os.path.join(args.out, "tokens.jsonl"),
                       ({"id": r.id, "layers": tokens.layers[:, rows[r.id]].tolist()} for r in records))
    err = rvq.quantization_mse(
        (v, motion.LatentSequence(vectors=quantized.vectors[rows[rid]])) for rid, v in latents.items()
    )
    _write_csv(os.path.join(args.out, "rvq_report.csv"), ["metric", "value"], [["reconstruction_error", err]])
    _log(args, f"quantize: reconstruction_error={err:.6g}")
    return 0


# --- decompose --------------------------------------------------------------

def cmd_decompose(args) -> int:
    """Decompose each record's text, then write the dataset and
    ``<out>_report.json``, the status of each record handled.  A record whose
    segments change is written without its embeddings.  A rejected
    record does not stop the loop, so the cache keeps every answer that
    passed; an unreachable endpoint stops it.  After any failure only the
    report is written, and the error names the first failed record."""
    if args.fallback:
        _unused(args, "--fallback", "endpoint", "cache")
    records = motion.read_dataset(args.data)
    cfg = None
    if not args.fallback:
        if not args.endpoint:
            raise CliError("no endpoint: pass --endpoint or use --fallback")
        cfg = textseg.LlmEndpointConfig(base_url=args.endpoint, model_name=args.model_name)
    statuses = {}
    for r in records:
        try:
            seg = (textseg.fallback_decompose(r.raw_text) if cfg is None
                   else textseg.llm_decompose(r.raw_text, cfg, cache_path=args.cache))
            if list(seg.segments) != r.text_segments:
                # the record's embedding rows belong to the segments it had
                r.text_segments, r.precomputed_embeddings = list(seg.segments), None
            statuses[r.id] = "ok"
        except (textseg.SegmentValidationError, textseg.MalformedResponseError) as exc:
            statuses[r.id] = f"rejected: {exc}"
        except textseg.TransportError as exc:
            statuses[r.id] = f"failed: {exc}"
            break
    failed = next(((rid, status) for rid, status in statuses.items() if status != "ok"), None)
    if failed is None:
        motion.write_dataset(records, args.out)
    report_path = os.path.splitext(args.out)[0] + "_report.json"
    jsonio.write_json(report_path, statuses)
    if failed is not None:
        raise CliError(f"{args.data}: record {failed[0]} {failed[1]} (statuses in {report_path})")
    _log(args, f"decompose: {len(records)} ok")
    return 0


# --- train-align ------------------------------------------------------------

def cmd_train_align(args) -> int:
    _at_least_one(args, "samples", "holdout", "batch", "d_token", "d_embed", "steps")
    cfg = alignment.AlignmentConfig(temperature=args.temperature, batch_size=args.batch)
    train, holdout = (
        alignment.make_separable_dataset(
            n,
            d_token=args.d_token,
            d_embed=args.d_embed,
            seed=seed_for(args.seed, f"align.{split}_data"),
            map_seed=seed_for(args.seed, "align.map"),
        )
        for n, split in ((args.samples, "train"), (args.holdout, "holdout"))
    )

    init = alignment.AggregatorParams.init(
        args.d_token, args.d_embed, seed=seed_for(args.seed, "align.init")
    )
    top1_before = alignment.retrieval_top1(holdout, init)
    params, curve = alignment.toy_train(
        train,
        cfg,
        steps=args.steps,
        lr=args.lr,
        seed=seed_for(args.seed, "align.sgd"),
        params=init,
        variant=args.loss,
    )
    top1_after = alignment.retrieval_top1(holdout, params)

    # the query commands read only the holdout split; the train split is a
    # function of the flags
    data = {"holdout": [{"text": jsonio.hex_rows(s.text), "spans": [jsonio.hex_rows(sp) for sp in s.spans]}
                        for s in holdout]}
    jsonio.write_json(os.path.join(args.out, "align_data.json"), data)
    jsonio.write_json(os.path.join(args.out, "model.json"), alignment.params_to_json(params))
    _write_csv(os.path.join(args.out, "curve.csv"), ["step", "loss"], enumerate(curve))
    jsonio.write_json(
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
    _at_least_one(args, "length", "iters", "codes")
    rng = rng_for(args.seed, "decode.target")
    target = rng.integers(0, args.codes, size=args.length)
    predictor = OraclePredictor(target, num_codes=args.codes)
    trace = []
    tokens = iterative_decode(
        cond=None,
        length=args.length,
        predictor=predictor,
        schedule=Schedule(total_iters=args.iters),
        trace=trace,
    )
    jsonio.write_json(
        os.path.join(args.out, "decoded_tokens.json"),
        {"tokens": tokens.tolist(), "target": target.tolist(), "exact": bool(np.array_equal(tokens, target))},
    )
    jsonio.write_jsonl(os.path.join(args.out, "decode_trace.jsonl"), trace)
    _log(args, f"decode: L={args.length} T={args.iters} exact={np.array_equal(tokens, target)}")
    return 0


# --- ground / retrieve / eval ----------------------------------------------

def _read_holdout(path) -> list[alignment.ToySample]:
    """The held-out split of an align_data.json, rows by ``jsonio.hex_rows``.
    The first sample's first text and span rows set d_embed and d_token, and
    every later row must match; else a ValueError that starts with ``path``."""

    def parse(data):
        jsonio.json_object(data, "holdout")
        if not isinstance(data["holdout"], list) or not data["holdout"]:
            raise CliError("holdout must be a non-empty list of samples")
        samples, d_embed, d_token = [], None, None
        for i, s in enumerate(data["holdout"]):
            where = f"holdout[{i}]"
            if not isinstance(s, dict) or not isinstance(s.get("spans"), list):
                raise CliError(f"{where}: expected an object with text and a list of spans")
            text = jsonio.unhex_rows(s.get("text"), d_embed, f"{where}.text", "train-align")
            d_embed, spans = text.shape[1], []
            for j, sp in enumerate(s["spans"]):
                spans.append(jsonio.unhex_rows(sp, d_token, f"{where}.spans[{j}]", "train-align"))
                d_token = spans[0].shape[1]
            if len(spans) != len(text):
                raise CliError(f"{where}: {len(text)} text rows but {len(spans)} spans")
            samples.append(alignment.ToySample(text=text, spans=spans))
        return samples

    return jsonio.read_json(path, parse)


def _load_query(args):
    """The trained model and the held-out split of align_data.json.  A model
    whose input is not 2 * d_token wide or whose output is not d_embed wide
    is a CliError naming both files."""
    params = jsonio.read_json(args.model, alignment.params_from_json)
    holdout = _read_holdout(args.data)
    # _read_holdout checks every row's width, and every sample has a row
    d_token, d_embed = holdout[0].spans[0].shape[1], holdout[0].text.shape[1]
    if params.w1.shape[1] != 2 * d_token or params.w2.shape[0] != d_embed:
        raise CliError(
            f"{args.model}: model takes d_token {params.w1.shape[1] / 2:g} to d_embed "
            f"{params.w2.shape[0]}, but {args.data} has d_token {d_token}, d_embed {d_embed}"
        )
    return params, holdout


def cmd_ground(args) -> int:
    _at_least_one(args, "window", "stride")
    params, holdout = _load_query(args)
    if not (0 <= args.index < len(holdout)):
        raise CliError(f"--index out of range (holdout has {len(holdout)} samples)")
    sample = holdout[args.index]
    tokens = np.vstack(sample.spans)
    if len(tokens) < args.window:
        raise CliError(f"{args.data}: sample --index {args.index} has {len(tokens)} tokens, "
                       f"fewer than --window {args.window}")
    starts, sims = metrics.motion_grounding(sample.text, tokens, params, args.window, args.stride)
    names = [f"segment_{j}" for j in range(len(starts))]
    header = ["segment", *range(0, sims.shape[1] * args.stride, args.stride)]   # window start tokens
    _write_csv(os.path.join(args.out, "similarity_map.csv"), header, [[n, *r] for n, r in zip(names, sims.tolist())])
    jsonio.write_json(os.path.join(args.out, "grounding.json"), dict(zip(names, starts.tolist())))
    _log(args, f"ground: {sims.shape[0]} segments x {sims.shape[1]} windows")
    return 0


def cmd_retrieve(args) -> int:
    params, holdout = _load_query(args)
    # rows normalized once per split, then per segment the (1, d) @ (d, a)
    # product of metrics.m2t_retrieve, so the scores round as its do
    rows = [
        (i, j, int(np.argmax(um[None, :] @ Ut.T)))
        for i, (Ut, Um) in enumerate(alignment.unit_blocks(holdout, params))
        for j, um in enumerate(Um)
    ]
    acc = sum(got == j for _, j, got in rows) / len(rows)
    _write_csv(os.path.join(args.out, "retrieval.csv"), ["sample", "segment", "retrieved", "correct"],
               [*((i, j, got, int(got == j)) for i, j, got in rows), ("accuracy", "", "", acc)])
    _log(args, f"retrieve: top-1 accuracy {acc:.3f} over {len(rows)} queries")
    return 0


def _read_features(path) -> np.ndarray:
    """The rows of a comma-separated feature file, all finite.  A file with
    no rows is an error, where numpy would only warn."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            X = np.loadtxt(path, delimiter=",", ndmin=2)
    except UserWarning:  # numpy's "input contained no data"
        raise CliError(f"{path}: no feature rows") from None
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None
    if not np.isfinite(X).all():
        raise CliError(f"{path}: non-finite value")
    return X


def _unused(args, mode: str, *dests: str) -> None:
    """Each of the ``dests`` flags, which ``mode`` does not read, is left
    unset by flag and by --config; the first that is set is a CliError
    naming it."""
    for dest in dests:
        if getattr(args, dest) is not None:
            raise CliError(f"--{dest.replace('_', '-')} is not used with {mode}")


def cmd_eval(args) -> int:
    report = metrics.EvalReport(metadata={"seed": args.seed})
    if args.features_a:
        _unused(args, "--features-a", "model", "data")
        A = _read_features(args.features_a)
        B = _read_features(args.features_b) if args.features_b else A
        try:
            if args.metric in (None, "fid"):
                report.add("fid", metrics.fid(A, B))
            # unpaired sets skip mm_dist unless it is asked for, which then fails
            if args.metric == "mm_dist" or (args.metric is None and A.shape == B.shape):
                report.add("mm_dist", metrics.mm_dist(A, B))
            if args.metric in (None, "diversity"):
                report.add("diversity", metrics.diversity(A, seed=seed_for(args.seed, "eval.diversity")))
        except ValueError as exc:  # a metric's refusal, such as too few rows
            paths = ", ".join(filter(None, (args.features_a, args.features_b)))
            raise CliError(f"{paths}: {exc}") from None
    else:
        if not (args.model and args.data):
            raise CliError("eval needs --features-a, or both --model and --data")
        _unused(args, "--model and --data, only with --features-a", "metric", "features_b")
        params, holdout = _load_query(args)
        T = np.vstack([s.text for s in holdout])
        if len(T) < 4:  # r_precision's top-3 needs more than 3
            raise CliError(
                f"{args.data}: {len(T)} held-out segments, but eval needs at least 4 "
                "(a larger train-align --holdout gives more segments)"
            )
        M = alignment.embed_spans([span for s in holdout for span in s.spans], params)
        report.add("isc", metrics.isc_score(zip(T, M)))
        # ranked on unit rows, the cosine space every loss trains; a holdout
        # smaller than one pool is noted in eval.json, not on stderr
        unit_T, unit_M = alignment._unit_rows(T), alignment._unit_rows(M)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for k in (1, 2, 3):
                report.add(f"r_precision_top{k}", metrics.r_precision(unit_T, unit_M, topk=k))
        if caught:
            report.metadata["warnings"] = list(dict.fromkeys(str(w.message) for w in caught))
        report.add("mm_dist", metrics.mm_dist(T, M))
        report.add(
            "diversity", metrics.diversity(M, seed=seed_for(args.seed, "eval.diversity"))
        )
        report.add("fid", metrics.fid(T, M))
    _write_csv(os.path.join(args.out, "eval.csv"), ["metric", "value"], sorted(report.metrics.items()))
    jsonio.write_json(os.path.join(args.out, "eval.json"), {"metrics": report.metrics, "metadata": report.metadata})
    _log(args, "eval: " + ", ".join(f"{k}={v:.4g}" for k, v in sorted(report.metrics.items())))
    return 0


# --- command table ----------------------------------------------------------

class _Default(int):
    """A flag's built-in default.  A value given by the flag or by --config is
    a plain int, so a command can tell a value the user chose from one it
    was left; it compares, prints and serialises as the int it is."""


# flags every command takes; a command's own entry for one of them wins
_COMMON = {
    "--seed": dict(type=int, default=0),
    "--out": dict(default="out"),
    "--quiet": dict(action="store_true"),
}

# command -> (handler, help line, {flag: add_argument kwargs})
COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic annotated corpus", {
        "--spec": dict(required=True),
    }),
    "decompose": (cmd_decompose, "decompose raw texts into segments", {
        "--out": dict(default="decomposed.jsonl"),
        "--data": dict(required=True),
        "--fallback": dict(action="store_true"),
        "--endpoint": dict(default=None),
        "--model-name": dict(default="qwen3:8b"),
        "--cache": dict(default=None),
    }),
    "quantize": (cmd_quantize, "train RVQ codebooks and tokenize", {
        "--data": dict(required=True),
        "--layers": dict(type=int, default=3),
        "--codes": dict(type=int, default=16),
        "--iters": dict(type=int, default=25),
    }),
    "segment": (cmd_segment, "segment a corpus and score against truth", {
        "--data": dict(required=True),
        "--method": dict(choices=["uniform", "cpd", "cluster"], required=True),
        "--bandwidth": dict(default="median"),
        "--library": dict(default=None),
        "--fit-library": dict(action="store_true"),
        "--window": dict(type=int, default=_Default(segmentation.DEFAULT_WINDOW_SIZE)),
        "--stride": dict(type=int, default=_Default(segmentation.DEFAULT_WINDOW_STRIDE)),
        "--primitives": dict(type=int, default=_Default(segmentation.DEFAULT_LIBRARY_SIZE)),
    }),
    "train-align": (cmd_train_align, "toy contrastive alignment training", {
        "--samples": dict(type=int, default=200),
        "--holdout": dict(type=int, default=50),
        "--d-token": dict(type=int, default=8),
        "--d-embed": dict(type=int, default=16),
        "--steps": dict(type=int, default=300),
        "--lr": dict(type=float, default=0.5),
        "--batch": dict(type=int, default=8),
        "--loss": dict(choices=["sample", "batch", "global"], default="sample"),
        "--temperature": dict(type=float, default=alignment.DEFAULT_TEMPERATURE),
    }),
    "decode": (cmd_decode, "iterative masked decoding demo", {
        "--length": dict(type=int, default=16),
        "--iters": dict(type=int, default=5),
        "--codes": dict(type=int, default=8),
    }),
    "ground": (cmd_ground, "motion grounding similarity map", {
        "--model": dict(required=True),
        "--data": dict(required=True),
        "--index": dict(type=int, default=0),
        "--window": dict(type=int, default=5),
        "--stride": dict(type=int, default=1),
    }),
    "retrieve": (cmd_retrieve, "motion-to-text retrieval report", {
        "--model": dict(required=True),
        "--data": dict(required=True),
    }),
    "eval": (cmd_eval, "metric report (ISC, R-Precision, MM-Dist, Diversity, FID)", {
        "--model": dict(default=None),
        "--data": dict(default=None),
        "--features-a": dict(default=None),
        "--features-b": dict(default=None),
        "--metric": dict(choices=["fid", "mm_dist", "diversity"], default=None),
    }),
}


@functools.cache
def command_parser(name: str):
    """The parser of one command, and its flag actions keyed by dest; built
    once per process and never mutated, so it can be shared."""
    func, help_line, flags = COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"segalign {name}", description=help_line)
    parser.set_defaults(func=func)
    actions = [parser.add_argument(flag, **kwargs) for flag, kwargs in {**_COMMON, **flags}.items()]
    return parser, {a.dest: a for a in actions}


def _config_defaults(path, flags: dict) -> dict:
    """The config values for the running command's flags; other keys are
    ignored.  The values are placed in the parse namespace as they are, so
    argparse never runs a flag's ``type`` or ``choices`` on them: a value
    must already be what the flag would give, a finite number for an int or
    float flag, a bool for a switch, and one of a flag's choices or else a
    string for the rest."""

    def parse(config):
        config = {key: value for key, value in jsonio.json_object(config).items() if key in flags}
        for key, value in config.items():
            action = flags[key]
            kind = action.type or (bool if action.nargs == 0 else str)
            if kind in (int, float):
                jsonio.number(value, kind, key)
            elif not isinstance(value, kind) or action.choices and value not in action.choices:
                wanted = f"one of {action.choices}" if action.choices else kind.__name__
                raise ValueError(f"field {key!r} must be {wanted}, got {value!r}")
        return config

    return jsonio.read_json(path, parse)


@functools.cache
def _top_parser():
    """The top-level parser: --config, the command and the rest of argv."""
    commands = "\n".join(f"  {name:<12} {line}" for name, (_, line, _) in COMMANDS.items())
    top = argparse.ArgumentParser(
        prog="segalign",
        description=__doc__,
        epilog=f"commands:\n{commands}\n\nRun 'segalign <command> --help' for its flags.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    top.add_argument("--config", help="JSON file of flag defaults keyed by dest; goes before the command")
    top.add_argument("command", choices=COMMANDS, metavar="command", help="one of the commands below")
    top.add_argument("args", nargs=argparse.REMAINDER, help="the command's flags")
    return top


def parse_args(argv=None) -> argparse.Namespace:
    """Parse argv with the parser of the one command it names.  --config
    values seed the namespace, where argparse leaves a value it finds in
    place of the flag's default, so explicit flags still win and the cached
    parser is never changed."""
    head = _top_parser().parse_args(argv)
    parser, flags = command_parser(head.command)
    config = _config_defaults(head.config, flags) if head.config else {}
    return parser.parse_args(head.args, argparse.Namespace(config=head.config, command=head.command, **config))


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (ValueError, OSError, FloatingPointError, alignment.DivergenceError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
