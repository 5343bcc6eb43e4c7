import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import types
import urllib.request

import numpy as np
import pytest

from segalign import alignment, cli, jsonio, metrics, rvq, segmentation, textseg
from segalign.cli import main
from segalign.motion import (DatasetRecord, LatentSequence, MotionSequence, load_motion, read_dataset, save_motion,
                             write_dataset)
from segalign.seeds import rng_for, seed_for


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("align")
    assert main(["train-align", "--seed", "0", "--samples", "80",
                 "--holdout", "30", "--steps", "200",
                 "--out", str(out), "--quiet"]) == 0
    return out


@pytest.fixture
def synth_dir(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n_samples": 8, "dim": 3, "segments_min": 2, "segments_max": 3,
        "tokens_per_segment_min": 4, "tokens_per_segment_max": 6,
        "mean_scale": 3.0, "noise_std": 0.2,
    }))
    out = tmp_path / "data"
    assert main(["synth", "--spec", str(spec), "--seed", "1",
                 "--out", str(out), "--quiet"]) == 0
    return out


class TestSeeds:
    def test_named_streams_distinct(self):
        assert seed_for(0, "a") != seed_for(0, "b")
        assert seed_for(0, "a") == seed_for(0, "a")

    def test_rng_streams_reproducible(self):
        a = rng_for(5, "x").normal(size=4)
        b = rng_for(5, "x").normal(size=4)
        np.testing.assert_array_equal(a, b)


class TestSynth:
    def test_artifacts_exist(self, synth_dir):
        for name in ("dataset.jsonl", "truth.json", "manifest.json"):
            assert (synth_dir / name).exists()
        records = read_dataset(synth_dir / "dataset.jsonl")
        assert len(records) == 8
        m = load_motion(synth_dir / records[0].motion_path)
        assert m.dim == 3

    def test_truth_consistent_with_motions(self, synth_dir):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        truth = json.loads((synth_dir / "truth.json").read_text())
        ratio = manifest["ratio"]
        for r in read_dataset(synth_dir / "dataset.jsonl"):
            m = load_motion(synth_dir / r.motion_path)
            spans = truth[r.id]
            assert spans[-1][1] * ratio == m.num_frames
            assert len(spans) == len(r.text_segments)

    def test_a_max_violation_rejected(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text('{"segments_max": 6}')
        code = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "error" in err

    def test_same_seed_byte_identical(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"n_samples": 3, "dim": 2}')
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["synth", "--spec", str(spec), "--seed", "4",
                         "--out", str(out), "--quiet"]) == 0
            outs.append(out)
        assert (outs[0] / "manifest.json").read_bytes() == (outs[1] / "manifest.json").read_bytes()


class TestSegmentCommand:
    def test_uniform_and_cpd_reports(self, synth_dir, tmp_path):
        out = tmp_path / "seg"
        for method in ("uniform", "cpd"):
            assert main(["segment", "--data", str(synth_dir), "--method", method,
                         "--out", str(out), "--quiet"]) == 0
            report = (out / f"seg_report_{method}.csv").read_text().strip().split("\n")
            assert report[0] == "method,mean_error,std_error"
            assert report[1].startswith(method + ",")

    def test_cpd_zero_noise_recovers_truth(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"n_samples": 5, "dim": 3, "noise_std": 0.0, "mean_scale": 4.0}')
        data = tmp_path / "data"
        assert main(["synth", "--spec", str(spec), "--seed", "2",
                     "--out", str(data), "--quiet"]) == 0
        out = tmp_path / "seg"
        assert main(["segment", "--data", str(data), "--method", "cpd",
                     "--out", str(out), "--quiet"]) == 0
        line = (out / "seg_report_cpd.csv").read_text().strip().split("\n")[1]
        mean_error = float(line.split(",")[1])
        assert mean_error == 0.0

    @pytest.mark.parametrize("segments", [1, 3])
    @pytest.mark.parametrize("bandwidth", ["nan", "inf", "-inf", "0", "-1", "1e-200"])
    def test_bad_bandwidth_is_a_json_error(self, tmp_path, capsys, recwarn, segments, bandwidth):
        """Also on a corpus of one-segment records, where no kernel is built."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_samples": 3, "dim": 3, "segments_min": segments, "segments_max": segments}))
        data = tmp_path / "data"
        assert main(["synth", "--spec", str(spec), "--out", str(data), "--quiet"]) == 0
        error = _one_error(capsys, ["segment", "--data", str(data), "--method", "cpd",
                                    f"--bandwidth={bandwidth}"], tmp_path / "seg")
        assert error == {"1e-200": "bandwidth '1e-200' is too small: 2 * bandwidth^2 underflows to 0"}.get(
            bandwidth, f"bandwidth must be 'median' or a finite positive number, got {bandwidth!r}")
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("primitives", ["0", "-2", "9999"])
    def test_bad_primitive_count_is_a_json_error(self, synth_dir, tmp_path, capsys, recwarn, primitives):
        """A count below 1 is refused by its flag, and so are more primitives
        than the data has windows."""
        out = tmp_path / "seg"
        error = _one_error(capsys, ["segment", "--data", str(synth_dir), "--method", "cluster", "--fit-library",
                                    "--library", str(out / "library.json"), "--primitives", primitives], out)
        if int(primitives) < 1:
            assert error == f"--primitives must be at least 1, got {primitives}"
        else:
            assert error == f"{synth_dir / 'dataset.jsonl'}: 74 windows, fewer than --primitives {primitives}"
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("method,flags,message", [
        pytest.param("cluster", ["--fit-library", "--primitives", "1"], "sample_0000: 1 windows cannot form 2 runs",
                     id="cluster"),
        pytest.param("uniform", [], "sample_0001: cannot split 4 tokens into 5 segments", id="uniform"),
        pytest.param("cpd", [], "sample_0001: 4 tokens cannot form 5 segments", id="cpd"),
    ])
    def test_refused_record_is_named(self, tmp_path, capsys, method, flags, message):
        """A record its segmenter refuses is named, and nothing is written:
        not the boundaries and not a library fitted before the refusal."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_samples": 3, "dim": 3, "segments_min": 2, "segments_max": 2,
                                    "tokens_per_segment_min": 2, "tokens_per_segment_max": 2}))
        data = tmp_path / "data"
        assert main(["synth", "--spec", str(spec), "--out", str(data), "--quiet"]) == 0
        if method != "cluster":  # more segments than the record has tokens, where no truth.json refuses first
            (data / "truth.json").unlink()
            records = [json.loads(line) for line in (data / "dataset.jsonl").read_text().splitlines()]
            records[1]["segments"] = [f"a person acts {i}" for i in range(5)]
            (data / "dataset.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "seg"
        error = _one_error(capsys, ["segment", "--data", str(data), "--method", method,
                                    "--library", str(out / "library.json"), *flags], out)
        assert error == message

    def test_cluster_cost_overflow_is_a_json_error(self, synth_dir, tmp_path, capsys, recwarn):
        """Each window's cost to a far center is finite, but a sequence's
        total is not: the first record is named and nothing is written."""
        lib = tmp_path / "lib.json"
        lib.write_text(json.dumps({"centers": jsonio.hex_rows([[5e153] * 3]), "window_size": 1, "stride": 1}))
        error = _one_error(capsys, ["segment", "--data", str(synth_dir), "--method", "cluster",
                                    "--library", str(lib)], tmp_path / "seg")
        assert error == "sample_0000: a primitive's total cost is beyond the float64 limit of 1.79769e+308"
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("method", ["cpd", "cluster"])
    def test_stacks_give_every_record_its_own_cuts(self, tmp_path, method):
        """Records of one length and segment count are segmented as one
        stack; each gets the cuts it gets alone.  Lengths and counts vary,
        so the stacks' records interleave in record order."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_samples": 40, "dim": 3, "segments_min": 2, "segments_max": 3,
                                    "tokens_per_segment_min": 4, "tokens_per_segment_max": 5}))
        data, out = tmp_path / "data", tmp_path / "seg"
        assert main(["synth", "--spec", str(spec), "--seed", "4", "--out", str(data), "--quiet"]) == 0
        lib = out / "library.json"
        assert main(["segment", "--data", str(data), "--method", method, "--library", str(lib),
                     "--fit-library", "--primitives", "8", "--out", str(out), "--quiet"]) == 0
        records, latents = cli._load_corpus(str(data))
        groups = {(latents[r.id].length, len(r.text_segments)) for r in records}
        assert 1 < len(groups) < len(records) / 4
        if method == "cpd":
            alone = {r.id: segmentation.kernel_cpd_segment(latents[r.id], len(r.text_segments)) for r in records}
        else:
            library = segmentation.library_from_json(json.loads(lib.read_text()))
            alone = {r.id: segmentation.cluster_dp_segment(latents[r.id], library, len(r.text_segments))
                     for r in records}
        got = json.loads((out / f"boundaries_{method}.json").read_text())
        assert list(got) == [r.id for r in records]
        assert got == {rid: segmentation.boundaries_to_json(b) for rid, b in alone.items()}

    @pytest.mark.parametrize("flags", [
        pytest.param(["--method", "cpd"], id="cpd-median"),
        pytest.param(["--method", "cpd", "--bandwidth", "0.7"], id="cpd-fixed"),
        pytest.param(["--method", "cluster"], id="cluster-fixed-library"),
    ])
    def test_record_order_does_not_move_cuts(self, tmp_path, flags):
        """The lines of dataset.jsonl, shuffled, give every id the cuts it
        got in synth's order; the cluster library is fitted once, beforehand."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_samples": 24, "dim": 3, "segments_min": 2, "segments_max": 3,
                                    "tokens_per_segment_min": 4, "tokens_per_segment_max": 5}))
        data, shuffled = tmp_path / "data", tmp_path / "shuffled"
        assert main(["synth", "--spec", str(spec), "--seed", "6", "--out", str(data), "--quiet"]) == 0
        lib = tmp_path / "library.json"
        assert main(["segment", "--data", str(data), "--method", "cluster", "--fit-library", "--library", str(lib),
                     "--primitives", "8", "--out", str(tmp_path / "fit"), "--quiet"]) == 0
        shutil.copytree(data, shuffled)
        lines = (data / "dataset.jsonl").read_text().splitlines(keepends=True)
        order = np.random.default_rng(0).permutation(len(lines))
        assert list(order) != sorted(order)
        (shuffled / "dataset.jsonl").write_text("".join(lines[i] for i in order))
        got = {}
        for corpus in (data, shuffled):
            out = tmp_path / f"seg-{corpus.name}"
            assert main(["segment", "--data", str(corpus), *flags, "--library", str(lib),
                         "--out", str(out), "--quiet"]) == 0
            got[corpus.name] = json.loads(next(out.glob("boundaries_*.json")).read_text())
        assert len(got["data"]) == 24 and got["shuffled"] == got["data"]

    def test_refused_stack_member_is_named(self, tmp_path, capsys, monkeypatch):
        """A stack is refused as a whole.  The first stack refused holds
        records 0 and 2 to 5, of which 4 overflows; record 1, alone in a
        stack of 5 tokens, overflows too and is named, first in record order."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_samples": 6, "dim": 2, "segments_min": 2, "segments_max": 2,
                                    "tokens_per_segment_min": 3, "tokens_per_segment_max": 3}))
        data = tmp_path / "data"
        assert main(["synth", "--spec", str(spec), "--out", str(data), "--quiet"]) == 0
        (data / "truth.json").unlink()
        load = cli._load_corpus

        def load_with_far_records(data_dir):
            records, latents = load(data_dir)
            far = {"sample_0001": 5, "sample_0004": 6}   # tokens kept
            for rid, n in far.items():   # each window costs 5e307: the 5 or 6 of a record overflow
                latents[rid] = LatentSequence(vectors=np.full((n, 2), 5e153))
            return records, latents

        monkeypatch.setattr(cli, "_load_corpus", load_with_far_records)
        lib = tmp_path / "lib.json"
        lib.write_text(json.dumps({"centers": jsonio.hex_rows([[0.0, 0.0]]), "window_size": 1, "stride": 1}))
        error = _one_error(capsys, ["segment", "--data", str(data), "--method", "cluster", "--library", str(lib)],
                           tmp_path / "seg")
        assert error == "sample_0001: a primitive's total cost is beyond the float64 limit of 1.79769e+308"

    def test_overflow_of_a_record_alone_is_named(self, synth_dir, tmp_path, capsys, monkeypatch):
        """A record whose window norms overflow float64 raises a
        FloatingPointError alone as well as in the corpus call; the retry
        catches it as the corpus call does, and names the record."""
        load = cli._load_corpus

        def load_with_a_far_record(data_dir):
            records, latents = load(data_dir)
            latents["sample_0001"] = LatentSequence(vectors=np.full((latents["sample_0001"].length, 3), 1e154))
            return records, latents

        monkeypatch.setattr(cli, "_load_corpus", load_with_a_far_record)
        lib = tmp_path / "lib.json"
        lib.write_text(json.dumps({"centers": jsonio.hex_rows([[0.0] * 3]), "window_size": 1, "stride": 1}))
        error = _one_error(capsys, ["segment", "--data", str(synth_dir), "--method", "cluster", "--library", str(lib)],
                           tmp_path / "seg")
        assert error == "sample_0001: overflow encountered in reduce"

    def test_cluster_requires_library(self, synth_dir, tmp_path, capsys):
        assert main(["segment", "--data", str(synth_dir), "--method", "cluster",
                     "--out", str(tmp_path / "s"), "--quiet"]) == 1
        assert "library" in capsys.readouterr().err

    def test_cluster_fit_and_reuse_library(self, synth_dir, tmp_path):
        lib = tmp_path / "lib.json"
        out = tmp_path / "seg"
        assert main(["segment", "--data", str(synth_dir), "--method", "cluster",
                     "--library", str(lib), "--fit-library", "--window", "1",
                     "--primitives", "8", "--out", str(out), "--quiet"]) == 0
        text = lib.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"   # compact
        assert main(["segment", "--data", str(synth_dir), "--method", "cluster",
                     "--library", str(lib), "--out", str(out), "--quiet"]) == 0
        assert (out / "boundaries_cluster.json").exists()
        # flags that repeat the file's values are accepted
        assert main(["segment", "--data", str(synth_dir), "--method", "cluster", "--library", str(lib),
                     "--window", "1", "--stride", "1", "--primitives", "8", "--out", str(tmp_path / "again"),
                     "--quiet"]) == 0
        assert (tmp_path / "again" / "boundaries_cluster.json").read_bytes() == \
            (out / "boundaries_cluster.json").read_bytes()

    @pytest.mark.parametrize("flags,config,message", [
        pytest.param(["--window", "8"], None, "--window 8 disagrees with the library's window_size 1", id="window"),
        pytest.param(["--window", "4"], None, "--window 4 disagrees with the library's window_size 1",
                     id="window-equal-to-default"),
        pytest.param(["--stride", "3"], None, "--stride 3 disagrees with the library's stride 1", id="stride"),
        pytest.param([], {"window": 2}, "--window 2 disagrees with the library's window_size 1", id="config"),
        pytest.param(["--primitives", "3"], None, "--primitives 3 disagrees with the library's size 8",
                     id="primitives"),
        pytest.param(["--primitives", "64"], None, "--primitives 64 disagrees with the library's size 8",
                     id="primitives-equal-to-default"),
        pytest.param([], {"primitives": 3}, "--primitives 3 disagrees with the library's size 8",
                     id="primitives-config"),
    ])
    def test_library_flags_must_match_the_file(self, synth_dir, tmp_path, capsys, flags, config, message):
        lib = tmp_path / "lib.json"
        assert main(["segment", "--data", str(synth_dir), "--method", "cluster", "--library", str(lib),
                     "--fit-library", "--window", "1", "--primitives", "8", "--out", str(tmp_path / "fit"),
                     "--quiet"]) == 0
        capsys.readouterr()
        head = []
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            head = ["--config", str(cfg)]
        out = tmp_path / "seg"
        assert main([*head, "segment", "--data", str(synth_dir), "--method", "cluster",
                     "--library", str(lib), *flags, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        assert json.loads(err[0])["error"] == f"{lib}: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        pytest.param("{}", "missing field 'centers'", id="no-centers"),
        pytest.param("[[0.0, 1.0]]", "expected a JSON object", id="list"),
        pytest.param(json.dumps({"centers": jsonio.hex_rows([[0.0] * 5]), "window_size": 2, "stride": 1}),
                     "field 'centers' has rows of 5 values, but window_size 2 x latent dim 3 needs 6",
                     id="width"),
        pytest.param("centers: [[0.0]]", "Expecting value", id="not-json"),
        pytest.param(json.dumps({"centers": jsonio.hex_rows([[0.0] * 6]), "stride": 1}),
                     "missing field 'window_size'", id="no-window-size"),
        pytest.param(json.dumps({"centers": jsonio.hex_rows([[0.0] * 6]), "window_size": "2", "stride": 1}),
                     "field 'window_size' must be a positive integer", id="string-window-size"),
        pytest.param(json.dumps({"centers": jsonio.hex_rows([[0.0] * 6]), "window_size": 2, "stride": 0}),
                     "field 'stride' must be a positive integer", id="zero-stride"),
        pytest.param(json.dumps({"centers": jsonio.hex_rows([[0.0] * 6]) + jsonio.hex_rows([[0.0]]),
                                 "window_size": 2, "stride": 1}),
                     "field 'centers': each row must be a string of 96 hex digits", id="ragged-centers"),
        pytest.param(json.dumps({"centers": [], "window_size": 2, "stride": 1}),
                     "field 'centers': expected a non-empty list of rows", id="empty-centers"),
        pytest.param(json.dumps({"centers": jsonio.hex_rows([[0.0] * 3, [1e300] * 3]), "window_size": 1, "stride": 1}),
                     "field 'centers' has a row whose squared norm is beyond the float64 range", id="far-centre"),
        pytest.param(json.dumps({"centers": [[0.0] * 6], "window_size": 2, "stride": 1}),
                     "(a file of float lists is older: rerun segment --fit-library)", id="float-list-centers"),
    ])
    def test_malformed_library_is_a_json_error(self, synth_dir, tmp_path, capsys, text, message):
        lib = tmp_path / "lib.json"
        lib.write_text(text)
        out = tmp_path / "seg"
        assert main(["segment", "--data", str(synth_dir), "--method", "cluster",
                     "--library", str(lib), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        error = json.loads(err[0])["error"]
        assert error.startswith(f"{lib}: ") and message in error
        assert not out.exists()

    def test_same_seed_byte_identical(self, synth_dir, tmp_path):
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["segment", "--data", str(synth_dir), "--method", "cpd", "--seed", "3",
                         "--out", str(out), "--quiet"]) == 0
            assert main(["segment", "--data", str(synth_dir), "--method", "cluster",
                         "--library", str(out / "library.json"), "--fit-library", "--window", "2",
                         "--primitives", "4", "--seed", "3", "--out", str(out), "--quiet"]) == 0
            outs.append(out)
        names = ["boundaries_cpd.json", "seg_report_cpd.csv", "boundaries_cluster.json",
                 "seg_report_cluster.csv", "library.json"]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestQuantizeCommand:
    def test_artifacts(self, synth_dir, tmp_path):
        out = tmp_path / "q"
        assert main(["quantize", "--data", str(synth_dir), "--layers", "2",
                     "--codes", "8", "--iters", "5", "--out", str(out), "--quiet"]) == 0
        assert (out / "stack.json").exists()
        tokens = [json.loads(l) for l in (out / "tokens.jsonl").read_text().splitlines()]
        assert len(tokens) == 8
        assert len(tokens[0]["layers"]) == 2
        report = (out / "rvq_report.csv").read_text()
        assert report.startswith("metric,value\nreconstruction_error,")

    # shortest: the length of the shortest sequence at every seed, where pinned
    @pytest.mark.parametrize("spec,codes,layers,iters,shortest", [
        pytest.param({"n_samples": 40, "dim": 3, "segments_min": 1, "segments_max": 2,
                      "tokens_per_segment_min": 1, "tokens_per_segment_max": 3}, 8, 3, 25, 1, id="short"),
        pytest.param({"n_samples": 12, "dim": 8, "segments_min": 1, "segments_max": 5,
                      "tokens_per_segment_min": 1, "tokens_per_segment_max": 12}, 16, 2, 25, None, id="ragged"),
        pytest.param({"n_samples": 6, "dim": 16, "segments_min": 1, "segments_max": 3,
                      "tokens_per_segment_min": 1, "tokens_per_segment_max": 40, "mean_scale": 30.0},
                     4, 4, 25, None, id="wide"),
        # one k-means iteration reaches no fixed point: each layer's tokens take a nearest-code pass
        pytest.param({"n_samples": 12, "dim": 8, "segments_min": 1, "segments_max": 5,
                      "tokens_per_segment_min": 1, "tokens_per_segment_max": 12}, 16, 3, 1, None, id="one-iteration"),
    ])
    def test_matches_per_sequence_quantize(self, tmp_path, spec, codes, layers, iters, shortest):
        """tokens.jsonl and rvq_report.csv come from the tokens training
        assigned the stacked corpus; they must equal quantizing each
        sequence alone."""
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        for seed in (1, 2, 3):
            data, out = tmp_path / f"data{seed}", tmp_path / f"q{seed}"
            assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--seed", str(seed),
                         "--out", str(data), "--quiet"]) == 0
            assert main(["quantize", "--data", str(data), "--codes", str(codes), "--layers", str(layers),
                         "--iters", str(iters), "--seed", str(seed), "--out", str(out), "--quiet"]) == 0
            records, latents = cli._load_corpus(str(data))
            lengths = {v.length for v in latents.values()}
            assert len(lengths) > 1 and shortest in (None, min(lengths))
            stack = rvq.stack_from_json(json.loads((out / "stack.json").read_text()))
            alone = {rid: rvq.quantize(v, stack) for rid, v in latents.items()}
            lines = [json.dumps({"id": r.id, "layers": alone[r.id][0].layers.tolist()}, sort_keys=True)
                     for r in records]
            assert (out / "tokens.jsonl").read_text() == "\n".join(lines) + "\n"
            err = rvq.quantization_mse((v, alone[rid][1]) for rid, v in latents.items())
            assert (out / "rvq_report.csv").read_text() == f"metric,value\nreconstruction_error,{err!r}\n"

    @pytest.mark.parametrize("codes", ["0", "-1", "9999"])
    def test_bad_code_count_is_a_json_error(self, synth_dir, tmp_path, capsys, recwarn, codes):
        """A count below 1 is refused by its flag, and so are more codes than
        the data has latent vectors."""
        error = _one_error(capsys, ["quantize", "--data", str(synth_dir), "--codes", codes], tmp_path / "q")
        if int(codes) < 1:
            assert error == f"--codes must be at least 1, got {codes}"
        else:
            assert error == f"{synth_dir / 'dataset.jsonl'}: 98 latent vectors, fewer than --codes {codes}"
        assert [str(w.message) for w in recwarn] == []

    def test_seeded_runs_byte_identical(self, synth_dir, tmp_path):
        outs = [tmp_path / "q1", tmp_path / "q2"]
        for out in outs:
            assert main(["quantize", "--data", str(synth_dir), "--layers", "3", "--codes", "8",
                         "--seed", "3", "--out", str(out), "--quiet"]) == 0
        for name in ("stack.json", "tokens.jsonl", "rvq_report.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_duplicate_record_id_is_a_json_error(self, synth_dir, tmp_path, capsys):
        """A second record under the first one's id would otherwise give two
        token lines of one id, both from the second record's motion."""
        path = synth_dir / "dataset.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        first, second = json.loads(lines[0]), json.loads(lines[1])
        lines[1] = json.dumps({**second, "id": first["id"]}, sort_keys=True) + "\n"
        path.write_text("".join(lines))
        error = _one_error(capsys, ["quantize", "--data", str(synth_dir)], tmp_path / "q")
        assert error == f"{path}:2: duplicate id {first['id']!r} (first on line 1)"


class TestDecomposeCommand:
    def test_fallback_deterministic(self, tmp_path):
        data = tmp_path / "in.jsonl"
        write_dataset([
            DatasetRecord(id="a", raw_text="a person walks, then runs.",
                          text_segments=["placeholder"], motion_path="a.sgmo"),
        ], data)
        out1, out2 = tmp_path / "o1.jsonl", tmp_path / "o2.jsonl"
        for out in (out1, out2):
            assert main(["decompose", "--data", str(data), "--fallback",
                         "--out", str(out), "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        segs = read_dataset(out1)[0].text_segments
        assert segs == ["a person walks", "a person runs"]

    @pytest.mark.parametrize("flags,config,flag", [
        (["--endpoint", "notaurl"], {}, "--endpoint"),
        ([], {"endpoint": "http://127.0.0.1:9/v1/chat/completions"}, "--endpoint"),
        (["--cache", "/nonexistent/c.jsonl"], {}, "--cache"),
        ([], {"cache": "c.jsonl"}, "--cache"),
    ])
    def test_fallback_refuses_the_endpoint_flags(self, tmp_path, capsys, flags, config, flag):
        """--fallback sends nothing and reads no cache: an --endpoint or a
        --cache, by flag or by --config, exits 1 with one JSON line naming
        it, and nothing is written."""
        data = tmp_path / "in.jsonl"
        write_dataset([DatasetRecord(id="a", raw_text="a person walks, then runs.",
                                     text_segments=["x"], motion_path="a.sgmo")], data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        error = _one_error(capsys, ["--config", str(cfg), "decompose", "--data", str(data), "--fallback", *flags],
                           tmp_path / "o" / "x.jsonl")
        assert error == f"{flag} is not used with --fallback"
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "in.jsonl"]

    def test_changed_segments_drop_their_embeddings(self, tmp_path):
        """An embedding row belongs to the segment it was made for: a record
        decomposed into other segments is written without its rows, and one
        whose segments stay keeps them bit for bit."""
        data = tmp_path / "in.jsonl"
        write_dataset([
            DatasetRecord(id="a", raw_text="a person walks, then a person runs, then a person jumps",
                          text_segments=["a person walks"], motion_path="a.sgmo", precomputed_embeddings=[[0.5, 1.0]]),
            DatasetRecord(id="b", raw_text="a person waves", text_segments=["a person waves"],
                          motion_path="b.sgmo", precomputed_embeddings=[[0.1, -3e-300]]),
        ], data)
        out = tmp_path / "o.jsonl"
        assert main(["decompose", "--data", str(data), "--fallback", "--out", str(out), "--quiet"]) == 0
        changed, kept = read_dataset(out)
        assert changed.text_segments == ["a person walks", "a person runs", "a person jumps"]
        assert changed.precomputed_embeddings is None
        assert "embeddings" not in json.loads(out.read_text().splitlines()[0])
        assert kept.precomputed_embeddings == [[0.1, -3e-300]]

    def test_embedding_rows_must_match_the_segments(self, tmp_path):
        with pytest.raises(ValueError, match="record a: 1 embedding rows for 3 segments"):
            DatasetRecord(id="a", raw_text="t", text_segments=["x", "y", "z"], motion_path="a.sgmo",
                          precomputed_embeddings=[[0.5]])
        line = {"id": "a", "text": "t", "segments": ["x", "y"], "motion": "a.sgmo",
                "embeddings": jsonio.hex_rows([[0.5]])}
        data = tmp_path / "in.jsonl"
        data.write_text("\n" + json.dumps(line) + "\n")
        with pytest.raises(ValueError) as err:
            read_dataset(data)
        assert str(err.value) == f"{data}:2: record a: 1 embedding rows for 2 segments"

    def test_missing_out_directory_is_created(self, tmp_path):
        data = tmp_path / "in.jsonl"
        write_dataset([
            DatasetRecord(id="a", raw_text="a person walks, then runs.",
                          text_segments=["placeholder"], motion_path="a.sgmo"),
        ], data)
        out = tmp_path / "nodir" / "x.jsonl"
        assert main(["decompose", "--data", str(data), "--fallback", "--out", str(out), "--quiet"]) == 0
        assert read_dataset(out)[0].text_segments == ["a person walks", "a person runs"]
        assert json.loads((tmp_path / "nodir" / "x_report.json").read_text()) == {"a": "ok"}
        assert sorted(os.listdir(tmp_path / "nodir")) == ["x.jsonl", "x_report.json"]

    def test_rejected_record_flagged_and_nonzero_exit(self, tmp_path, capsys):
        data = tmp_path / "in.jsonl"
        write_dataset([
            DatasetRecord(id="bad", raw_text="", text_segments=["x"], motion_path="b.sgmo"),
            DatasetRecord(id="ok", raw_text="a person waves.",
                          text_segments=["x"], motion_path="o.sgmo"),
        ], data)
        out = tmp_path / "seg.jsonl"
        assert main(["decompose", "--data", str(data), "--fallback",
                     "--out", str(out), "--quiet"]) == 1
        report_path = tmp_path / "seg_report.json"
        assert json.loads(report_path.read_text()) == {"bad": "rejected: empty input text", "ok": "ok"}
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        assert json.loads(err[0]) == {
            "error": f"{data}: record bad rejected: empty input text (statuses in {report_path})"}
        assert sorted(os.listdir(tmp_path)) == ["in.jsonl", "seg_report.json"]

    def test_record_rejected_after_an_accepted_one(self, tmp_path, capsys, monkeypatch):
        """The loop goes on past a rejected record, so the cache keeps the
        accepted answer, but no dataset is written."""
        replies = {"a person waves.": "a person waves", "a person jumps.": "Output: a person jumps",
                   "a person sits.": "a person sits"}
        prompt = len(textseg.DECOMPOSE_PROMPT)
        monkeypatch.setattr(textseg, "_default_transport",
                            lambda url, payload, timeout: replies[payload["messages"][0]["content"][prompt:]])
        cache = tmp_path / "cache.jsonl"
        data = tmp_path / "in.jsonl"
        write_dataset([
            DatasetRecord(id=name, raw_text=raw, text_segments=["x"], motion_path=f"{name}.sgmo")
            for name, raw in (("first", "a person waves."), ("second", "a person jumps."),
                              ("third", "a person sits."))
        ], data)
        out = tmp_path / "out" / "seg.jsonl"
        assert main(["decompose", "--data", str(data), "--endpoint", "http://127.0.0.1:9",
                     "--model-name", "m", "--cache", str(cache), "--out", str(out), "--quiet"]) == 1
        report = json.loads((tmp_path / "out" / "seg_report.json").read_text())
        assert list(report) == ["first", "second", "third"]
        assert report["first"] == report["third"] == "ok"
        assert report["second"].startswith("rejected: response carries extra text")
        error = json.loads(capsys.readouterr().err)["error"]
        assert error.startswith(f"{data}: record second rejected: ")
        assert "http://127.0.0.1:9" in error and str(tmp_path / "out" / "seg_report.json") in error
        assert os.listdir(tmp_path / "out") == ["seg_report.json"]
        assert [json.loads(line)["input"] for line in cache.read_text().splitlines()] == \
               ["a person waves.", "a person sits."]

    def test_unreachable_endpoint_reports_and_writes_no_dataset(self, tmp_path, capsys, monkeypatch):
        def refuse(url, payload, timeout):
            raise ConnectionError("connection refused")

        monkeypatch.setattr(textseg, "_default_transport", refuse)
        monkeypatch.setattr(textseg.time, "sleep", lambda s: None)
        cache = tmp_path / "cache.jsonl"
        cache.write_text(json.dumps({"model": "m", "input": "a person waves.",
                                     "output": "a person waves"}) + "\n")
        data = tmp_path / "in.jsonl"
        write_dataset([
            DatasetRecord(id=name, raw_text=raw, text_segments=["x"], motion_path=f"{name}.sgmo")
            for name, raw in (("hit", "a person waves."), ("miss", "a person jumps."),
                              ("unseen", "a person sits."))
        ], data)
        out = tmp_path / "seg.jsonl"
        assert main(["decompose", "--data", str(data), "--endpoint", "http://127.0.0.1:9",
                     "--model-name", "m", "--cache", str(cache),
                     "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        assert json.loads(err[0])["error"] == (
            f"{data}: record miss failed: endpoint http://127.0.0.1:9 unreachable after 3 attempts: "
            f"connection refused (statuses in {tmp_path / 'seg_report.json'})")
        report = json.loads((tmp_path / "seg_report.json").read_text())
        assert list(report) == ["hit", "miss"]
        assert report["hit"] == "ok" and report["miss"].startswith("failed")
        assert not out.exists()

    def test_malformed_cache_lines_skipped_with_warning(self, tmp_path, capsys, monkeypatch):
        asked = []

        def answer(url, payload, timeout):
            asked.append(payload["messages"][0]["content"])
            return "a person jumps"

        monkeypatch.setattr(textseg, "_default_transport", answer)
        cache = tmp_path / "cache.jsonl"
        cache.write_text("\n".join([
            "[1, 2]",
            "{not json",
            json.dumps({"model": "m", "input": "a person jumps."}),
            json.dumps({"model": "m", "input": "a person jumps.", "output": 3}),
            json.dumps({"model": "m", "input": "a person waves.", "output": "a person waves"}),
        ]) + "\n")
        data = tmp_path / "in.jsonl"
        write_dataset([
            DatasetRecord(id=name, raw_text=raw, text_segments=["x"], motion_path=f"{name}.sgmo")
            for name, raw in (("hit", "a person waves."), ("miss", "a person jumps."))
        ], data)
        out = tmp_path / "seg.jsonl"
        with pytest.warns(RuntimeWarning) as record:
            assert main(["decompose", "--data", str(data), "--endpoint", "http://127.0.0.1:9",
                         "--model-name", "m", "--cache", str(cache),
                         "--out", str(out), "--quiet"]) == 0
        messages = {str(w.message) for w in record}
        assert messages == {f"{cache}:{n}: skipping malformed cache line" for n in (1, 2, 3, 4)}
        assert len(asked) == 1 and asked[0].endswith("a person jumps.")
        assert [r.text_segments for r in read_dataset(out)] == [["a person waves"], ["a person jumps"]]
        assert json.loads((tmp_path / "seg_report.json").read_text()) == {"hit": "ok", "miss": "ok"}
        assert capsys.readouterr().err == ""

    def test_malformed_reply_rejects_the_record(self, tmp_path, capsys, monkeypatch):
        calls = []

        def urlopen(request, timeout):
            calls.append(request)
            return io.BytesIO(b'{"error": "model not found"}')

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        cache = tmp_path / "cache.jsonl"
        data = tmp_path / "in.jsonl"
        write_dataset([DatasetRecord(id="a", raw_text="a person walks.",
                                     text_segments=["x"], motion_path="a.sgmo")], data)
        assert main(["decompose", "--data", str(data), "--endpoint", "http://127.0.0.1:9",
                     "--model-name", "m", "--cache", str(cache),
                     "--out", str(tmp_path / "seg.jsonl"), "--quiet"]) == 1
        report = json.loads((tmp_path / "seg_report.json").read_text())
        assert report["a"] == ("rejected: reply is not a chat completion from http://127.0.0.1:9: "
                               "'{\"error\": \"model not found\"}'")
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        assert json.loads(err[0]) == {
            "error": f"{data}: record a {report['a']} (statuses in {tmp_path / 'seg_report.json'})"}
        assert len(calls) == 1 and not cache.exists()
        assert sorted(os.listdir(tmp_path)) == ["in.jsonl", "seg_report.json"]

    def test_no_endpoint_errors(self, tmp_path, capsys):
        data = tmp_path / "in.jsonl"
        write_dataset([DatasetRecord(id="a", raw_text="a person walks.",
                                     text_segments=["x"], motion_path="a.sgmo")], data)
        assert main(["decompose", "--data", str(data),
                     "--out", str(tmp_path / "o.jsonl"), "--quiet"]) == 1
        assert "endpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_endpoint_comes_from_the_flag_or_config_only(self, tmp_path, monkeypatch, source):
        """--endpoint, or the endpoint key of --config, is the only source
        of the URL: SEGALIGN_LLM_URL, which once overrode both, is read by
        nothing."""
        asked = []

        def answer(url, payload, timeout):
            asked.append(url)
            return "a person jumps"

        monkeypatch.setattr(textseg, "_default_transport", answer)
        monkeypatch.setenv("SEGALIGN_LLM_URL", "http://other.example/chat")
        data = tmp_path / "in.jsonl"
        write_dataset([DatasetRecord(id="a", raw_text="a person jumps.",
                                     text_segments=["x"], motion_path="a.sgmo")], data)
        out = tmp_path / "seg.jsonl"
        argv = ["decompose", "--data", str(data), "--model-name", "m", "--out", str(out), "--quiet"]
        if source == "flag":
            argv += ["--endpoint", "http://127.0.0.1:9"]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"endpoint": "http://127.0.0.1:9"}))
            argv[:0] = ["--config", str(tmp_path / "cfg.json")]
        assert main(argv) == 0
        assert asked == ["http://127.0.0.1:9"]
        assert read_dataset(out)[0].text_segments == ["a person jumps"]

    def test_flag_overrides_the_config_endpoint(self, tmp_path, monkeypatch):
        asked = []

        def answer(url, payload, timeout):
            asked.append(url)
            return "a person jumps"

        monkeypatch.setattr(textseg, "_default_transport", answer)
        data = tmp_path / "in.jsonl"
        write_dataset([DatasetRecord(id="a", raw_text="a person jumps.",
                                     text_segments=["x"], motion_path="a.sgmo")], data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"endpoint": "http://other.example/chat"}))
        out = tmp_path / "seg.jsonl"
        assert main(["--config", str(cfg), "decompose", "--data", str(data), "--endpoint", "http://127.0.0.1:9",
                     "--model-name", "m", "--out", str(out), "--quiet"]) == 0
        assert asked == ["http://127.0.0.1:9"]

    def test_env_var_alone_gives_no_endpoint(self, tmp_path, capsys, monkeypatch):
        """SEGALIGN_LLM_URL set, but neither --endpoint nor a config key:
        the command has no endpoint, sends nothing and writes nothing."""
        asked = []
        monkeypatch.setattr(textseg, "_default_transport", lambda *a: asked.append(a) or "x")
        monkeypatch.setenv("SEGALIGN_LLM_URL", "http://127.0.0.1:9")
        data = tmp_path / "in.jsonl"
        write_dataset([DatasetRecord(id="a", raw_text="a person walks.",
                                     text_segments=["x"], motion_path="a.sgmo")], data)
        assert main(["decompose", "--data", str(data), "--model-name", "m",
                     "--out", str(tmp_path / "o.jsonl"), "--quiet"]) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "no endpoint: pass --endpoint or use --fallback"}
        assert asked == [] and os.listdir(tmp_path) == ["in.jsonl"]

    @pytest.mark.parametrize("url", ["llm.example/v1", "ftp://llm.example/v1"])
    def test_endpoint_without_http_scheme_fails_before_any_record(self, tmp_path, capsys, monkeypatch, url):
        asked = []
        monkeypatch.setattr(textseg, "_default_transport", lambda *a: asked.append(a) or "x")
        cache = tmp_path / "cache.jsonl"
        cache.write_text(json.dumps({"model": "m", "input": "a person waves.",
                                     "output": "a person waves"}) + "\n")
        data = tmp_path / "in.jsonl"
        write_dataset([
            DatasetRecord(id=name, raw_text=raw, text_segments=["x"], motion_path=f"{name}.sgmo")
            for name, raw in (("hit", "a person waves."), ("miss", "a person jumps."))
        ], data)
        out = tmp_path / "seg.jsonl"
        assert main(["decompose", "--data", str(data), "--endpoint", url, "--model-name", "m",
                     "--cache", str(cache), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and url in json.loads(err[0])["error"]
        assert not out.exists() and not (tmp_path / "seg_report.json").exists()
        assert asked == []


BAD_RECORDS = [
    ("[1, 2]", "expected a JSON object, got list"),
    ('"a person walks"', "expected a JSON object, got str"),
    (json.dumps({"id": "a", "segments": ["x"], "motion": "a.sgmo"}), "missing field 'text'"),
    (json.dumps({"text": "t", "segments": ["x"], "motion": "a.sgmo"}), "missing field 'id'"),
    (json.dumps({"id": "a", "text": "t", "motion": "a.sgmo"}), "missing field 'segments'"),
    (json.dumps({"id": "a", "text": "t", "segments": ["x"]}), "missing field 'motion'"),
    (json.dumps({"id": 3, "text": "t", "segments": ["x"], "motion": "a.sgmo"}), "field 'id' must be a string"),
    (json.dumps({"id": "a", "text": 7, "segments": ["x"], "motion": "a.sgmo"}), "field 'text' must be a string"),
    (json.dumps({"id": "a", "text": "t", "segments": 5, "motion": "a.sgmo"}),
     "field 'segments' must be a list of strings"),
    (json.dumps({"id": "a", "text": "t", "segments": ["x", 1], "motion": "a.sgmo"}),
     "field 'segments' must be a list of strings"),
    (json.dumps({"id": "a", "text": "t", "segments": ["x"], "motion": None}), "field 'motion' must be a string"),
    (json.dumps({"id": "a", "text": "t", "segments": ["x"], "motion": "a.sgmo", "embeddings": [1.0]}),
     "field 'embeddings': each row must be a string of 16 hex digits per value, the little-endian float64 bytes "
     "of its values (a file of float lists is older: encode each row with segalign.jsonio.hex_rows)"),
]


class TestBadDatasetRecords:
    @pytest.mark.parametrize("line,message", BAD_RECORDS)
    @pytest.mark.parametrize("command", ["decompose", "segment --method cpd", "quantize"])
    def test_bad_record_is_a_json_error(self, tmp_path, capsys, command, line, message):
        good = json.dumps({"id": "g", "text": "a person waves.", "segments": ["x"], "motion": "g.sgmo"})
        (tmp_path / "dataset.jsonl").write_text(good + "\n" + line + "\n")
        if command == "decompose":
            argv = ["decompose", "--data", str(tmp_path / "dataset.jsonl"), "--fallback",
                    "--out", str(tmp_path / "o.jsonl")]
        else:
            argv = command.split() + ["--data", str(tmp_path), "--out", str(tmp_path / "o")]
        assert main(argv + ["--quiet"]) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        assert json.loads(err[0])["error"] == f"{tmp_path / 'dataset.jsonl'}:2: {message}"
        assert sorted(os.listdir(tmp_path)) == ["dataset.jsonl"]


class TestTrainAlignCommand:
    def test_reaches_high_retrieval(self, trained):
        report = json.loads((trained / "train_report.json").read_text())
        assert report["holdout_top1_after"] >= 0.95
        assert 0.25 <= report["holdout_top1_before"] <= 0.60
        assert report["final_loss"] < report["initial_loss"]

    def test_curve_csv(self, trained):
        lines = (trained / "curve.csv").read_text().strip().split("\n")
        assert lines[0] == "step,loss"
        assert len(lines) == 201

    def test_curve_ends_are_the_report_losses(self, trained):
        """curve.csv holds each loss exactly: its first and last rows are the
        floats train_report.json holds."""
        rows = [line.split(",") for line in (trained / "curve.csv").read_text().splitlines()[1:]]
        report = json.loads((trained / "train_report.json").read_text())
        assert [rows[0], rows[-1]] == [["0", repr(report["initial_loss"])], ["199", repr(report["final_loss"])]]

    def test_loss_variant_dispatch(self, tmp_path):
        for loss in ("batch", "global"):
            out = tmp_path / loss
            assert main(["train-align", "--seed", "0", "--samples", "40",
                         "--holdout", "10", "--steps", "30", "--loss", loss,
                         "--out", str(out), "--quiet"]) == 0
            report = json.loads((out / "train_report.json").read_text())
            assert report["loss_variant"] == loss
        # the token loss has no gradient, so it is not a training option
        with pytest.raises(SystemExit) as exc:
            main(["train-align", "--loss", "token", "--out", str(tmp_path / "t"), "--quiet"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("loss", ["sample", "batch", "global"])
    def test_same_seed_byte_identical(self, tmp_path, loss):
        for run in ("r1", "r2"):
            assert main(["train-align", "--seed", "4", "--samples", "30", "--holdout", "10",
                         "--steps", "20", "--batch", "8", "--loss", loss,
                         "--out", str(tmp_path / run), "--quiet"]) == 0
        for name in ("curve.csv", "model.json", "train_report.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    @pytest.mark.parametrize("flags,message", [
        pytest.param(["--lr", "nan"], "lr must be a finite number, got nan", id="lr-nan"),
        pytest.param(["--lr=-inf"], "lr must be a finite number, got -inf", id="lr-inf"),
        pytest.param(["--temperature", "nan"], "temperature must be a finite positive number, got nan",
                     id="temperature-nan"),
        pytest.param(["--temperature", "inf"], "temperature must be a finite positive number, got inf",
                     id="temperature-inf"),
        pytest.param(["--temperature", "0"], "temperature must be a finite positive number, got 0.0",
                     id="temperature-0"),
    ])
    def test_bad_hyperparameter_is_a_json_error(self, tmp_path, capsys, recwarn, flags, message):
        """Refused before any file is written: a NaN rate would write a
        model.json of bare NaN tokens, which is not JSON."""
        error = _one_error(capsys, ["train-align", "--samples", "10", "--holdout", "4", "--steps", "1", *flags],
                           tmp_path / "a")
        assert error == message
        assert [str(w.message) for w in recwarn] == []

    def test_lr_zero_trains_nothing(self, tmp_path):
        """A zero step leaves the model as initialized; the curve still
        reports the loss it was not trained on."""
        out = tmp_path / "lz"
        assert main(["train-align", "--seed", "0", "--samples", "40",
                     "--holdout", "10", "--steps", "30", "--lr", "0",
                     "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "train_report.json").read_text())
        assert report["initial_loss"] > 0.0
        assert report["holdout_top1_after"] == report["holdout_top1_before"]

    def test_lambda_is_not_a_flag(self, tmp_path):
        """The loss is trained alone, so a weight on it would only rescale
        --lr; the parser refuses the flag with its usage error, and a config
        key of that name is ignored like any key no flag uses."""
        with pytest.raises(SystemExit) as exc:
            main(["train-align", "--lambda", "0.5", "--out", str(tmp_path / "l"), "--quiet"])
        assert exc.value.code == 2
        assert not (tmp_path / "l").exists()
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lambda": 0.5}')
        argv = ["train-align", "--samples", "20", "--holdout", "4", "--steps", "5", "--quiet"]
        assert main(["--config", str(cfg), *argv, "--out", str(tmp_path / "c")]) == 0
        assert main([*argv, "--out", str(tmp_path / "n")]) == 0
        assert (tmp_path / "c" / "model.json").read_bytes() == (tmp_path / "n" / "model.json").read_bytes()


# an edit of the parsed align_data.json, returning the object to write, and
# a fragment of the error it must give
BAD_QUERY_FILES = [
    pytest.param(lambda data: [1, 2], "expected a JSON object, got list", id="list"),
    pytest.param(lambda data: {k: v for k, v in data.items() if k != "holdout"}, "missing field 'holdout'",
                 id="no-holdout"),
    pytest.param(lambda data: {**data, "holdout": []}, "holdout must be a non-empty list", id="empty-holdout"),
    pytest.param(lambda data: _edit_row(data, lambda row: np.frombuffer(bytes.fromhex(row), "<f8").tolist()),
                 "rerun train-align", id="float-list-row"),
    # the first sample's first text and span rows set the widths every later row is held to
    pytest.param(lambda data: _edit_row(data, lambda row: row[:-2]),
                 "holdout[0].text: each row must be a string of 16 hex digits per value", id="short-first-row"),
    pytest.param(lambda data: _edit_row(data, lambda row: row[:-2], sample=1),
                 "holdout[1].text: each row must be a string of 256", id="short-row"),
    pytest.param(lambda data: _edit_row(data, lambda row: row + "00", "spans", sample=1),
                 "holdout[1].spans[0]: each row must be a string of 128", id="long-span-row"),
    pytest.param(lambda data: _edit_row(data, lambda row: 7), "each row must be a string", id="number-row"),
    pytest.param(lambda data: _edit_row(data, lambda row: "zz" + row[2:]), "holdout[0].text: rows are not hex",
                 id="non-hex"),
    pytest.param(lambda data: _edit_row(data, lambda row: row[:-2] + "  "), "bytes decoded, expected",
                 id="whitespace"),
    pytest.param(lambda data: _edit_sample(data, spans=lambda spans: [[]] + spans[1:]),
                 "holdout[0].spans[0]: expected a non-empty list of rows", id="empty-span"),
    pytest.param(lambda data: _edit_sample(data, spans=lambda spans: None), "a list of spans", id="no-spans"),
    pytest.param(lambda data: _edit_sample(data, spans=lambda spans: spans[1:]), "text rows but", id="span-count"),
    pytest.param(lambda data: _edit_row(data, lambda row: np.full(16, np.inf).tobytes().hex()),
                 "holdout[0].text: non-finite value", id="inf"),
    pytest.param(lambda data: _edit_row(data, lambda row: np.full(8, np.nan).tobytes().hex(), "spans"),
                 "holdout[0].spans[0]: non-finite value", id="nan-span"),
]


def _edit_sample(data, sample=0, **edits):
    holdout = list(data["holdout"])
    holdout[sample] = dict(holdout[sample])
    for key, edit in edits.items():
        holdout[sample][key] = edit(holdout[sample][key])
    return {**data, "holdout": holdout}


def _edit_row(data, edit, where="text", sample=0):
    """``edit`` applied to the first row of the text of holdout[sample], or
    of its first span."""
    if where == "text":
        return _edit_sample(data, sample, text=lambda rows: [edit(rows[0])] + rows[1:])
    return _edit_sample(data, sample, spans=lambda spans: [[edit(spans[0][0])] + spans[0][1:]] + spans[1:])


class TestQueryFile:
    def test_holds_the_holdout_split_only(self, trained):
        data = json.loads((trained / "align_data.json").read_text())
        assert set(data) == {"holdout"}   # each width is its rows'
        holdout = alignment.make_separable_dataset(
            30, d_token=8, d_embed=16, seed=seed_for(0, "align.holdout_data"), map_seed=seed_for(0, "align.map"))
        assert len(data["holdout"]) == len(holdout)
        for obj, sample in zip(data["holdout"], holdout):
            assert set(obj) == {"text", "spans"}
            # each row is the lowercase hex of its little-endian float64 bytes
            assert obj["text"] == [row.astype("<f8").tobytes().hex() for row in sample.text]
            assert obj["spans"] == [[row.astype("<f8").tobytes().hex() for row in span] for span in sample.spans]
        decoded = cli._read_holdout(trained / "align_data.json")
        assert len(decoded) == len(holdout)
        for got, ref in zip(decoded, holdout):
            assert got.text.tobytes() == ref.text.tobytes()
            assert len(got.spans) == len(ref.spans)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got.spans, ref.spans))

    def test_queries_match_a_file_with_the_train_split(self, trained, tmp_path):
        """The query commands read the holdout only, so a file that still
        holds the regenerated train split gives byte-identical outputs."""
        data = json.loads((trained / "align_data.json").read_text())
        train = alignment.make_separable_dataset(
            80, d_token=8, d_embed=16, seed=seed_for(0, "align.train_data"), map_seed=seed_for(0, "align.map"))
        with_train = tmp_path / "with_train.json"
        train = [{"text": jsonio.hex_rows(s.text), "spans": [jsonio.hex_rows(sp) for sp in s.spans]} for s in train]
        with_train.write_text(json.dumps({**data, "train": train}, sort_keys=True) + "\n")
        model = str(trained / "model.json")
        for name, path in (("holdout", trained / "align_data.json"), ("both", with_train)):
            out = tmp_path / name
            for cmd in ("ground", "retrieve", "eval"):
                assert main([cmd, "--model", model, "--data", str(path), "--out", str(out / cmd), "--quiet"]) == 0
        for cmd, names in (("ground", ("grounding.json", "similarity_map.csv")), ("retrieve", ("retrieval.csv",)),
                           ("eval", ("eval.csv", "eval.json"))):
            for name in names:
                assert (tmp_path / "holdout" / cmd / name).read_bytes() == \
                    (tmp_path / "both" / cmd / name).read_bytes(), name

    def test_older_width_keys_are_ignored(self, trained, tmp_path):
        """A file that still carries the ``d_token`` and ``d_embed`` it once
        stored decodes to the same holdout."""
        data = json.loads((trained / "align_data.json").read_text())
        older = tmp_path / "older.json"
        older.write_text(json.dumps({**data, "d_token": 8, "d_embed": 16}))
        for got, ref in zip(cli._read_holdout(older), cli._read_holdout(trained / "align_data.json"), strict=True):
            assert got.text.tobytes() == ref.text.tobytes()
            assert [sp.tobytes() for sp in got.spans] == [sp.tobytes() for sp in ref.spans]

    def _run_bad(self, trained, tmp_path, capsys, command, model=None, data=None):
        """``command`` on the trained files with ``model`` or ``data``
        replaced: exit 1, one JSON stderr line, no --out.  The error."""
        paths = {"model": trained / "model.json", "data": trained / "align_data.json"}
        for key, obj in (("model", model), ("data", data)):
            if obj is not None:
                paths[key] = tmp_path / f"bad_{key}.json"
                paths[key].write_text(json.dumps(obj))
        out = tmp_path / "out"
        assert main([command, "--model", str(paths["model"]), "--data", str(paths["data"]),
                     "--out", str(out), "--quiet"]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        return json.loads(err[0])["error"]

    @pytest.mark.parametrize("edit,message", BAD_QUERY_FILES)
    @pytest.mark.parametrize("command", ["ground", "retrieve", "eval"])
    def test_bad_data_file_is_a_json_error(self, trained, tmp_path, capsys, command, edit, message):
        data = json.loads((trained / "align_data.json").read_text())
        error = self._run_bad(trained, tmp_path, capsys, command, data=edit(data))
        assert message in error
        assert error.startswith(str(tmp_path / "bad_data.json"))

    @pytest.mark.parametrize("model,message", [
        ({}, "missing field 'w1'"),
        ([1, 2], "expected a JSON object, got list"),
    ])
    @pytest.mark.parametrize("command", ["ground", "retrieve", "eval"])
    def test_bad_model_file_is_a_json_error(self, trained, tmp_path, capsys, command, model, message):
        assert message in self._run_bad(trained, tmp_path, capsys, command, model=model)

    @pytest.mark.parametrize("command", ["ground", "retrieve", "eval"])
    def test_overflowing_model_is_a_json_error(self, trained, tmp_path, capsys, recwarn, command):
        model = json.loads((trained / "model.json").read_text())
        for name in ("w1", "w2"):
            model[name] = jsonio.hex_rows(jsonio.unhex_rows(model[name], None, name, "train-align") * 1e300)
        assert self._run_bad(trained, tmp_path, capsys, command, model=model).startswith("overflow encountered")
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("d_token,d_embed", [(6, 16), (16, 12)])
    @pytest.mark.parametrize("command", ["ground", "retrieve", "eval"])
    def test_model_data_mismatch_names_both_files(self, trained, tmp_path, capsys, command, d_token, d_embed):
        holdout = alignment.make_separable_dataset(4, d_token=16, d_embed=16, seed=3, map_seed=4)
        data = {"holdout": [{"text": jsonio.hex_rows(s.text), "spans": [jsonio.hex_rows(sp) for sp in s.spans]}
                            for s in holdout]}
        model = alignment.params_to_json(alignment.AggregatorParams.init(d_token, d_embed, seed=1))
        error = self._run_bad(trained, tmp_path, capsys, command, model=model, data=data)
        assert error == (f"{tmp_path / 'bad_model.json'}: model takes d_token {d_token} to d_embed {d_embed}, "
                         f"but {tmp_path / 'bad_data.json'} has d_token 16, d_embed 16")


class TestWriteCsv:
    def test_header_then_one_line_per_row(self, tmp_path):
        cli._write_csv(tmp_path / "r.csv", ["segment", 0, 2], [["segment_0", 0.5, -0.25], ["segment_1", 1, 0.0]])
        assert (tmp_path / "r.csv").read_text() == "segment,0,2\nsegment_0,0.5,-0.25\nsegment_1,1,0.0\n"

    def test_floats_are_their_json_text(self, tmp_path):
        values = [0.1 + 0.2, np.float64(1.0) / 3.0, 1e-7, 1.5e300, -0.0, np.float64(2.0)]
        cli._write_csv(tmp_path / "r.csv", ["value"], [[v] for v in values])
        cells = (tmp_path / "r.csv").read_text().splitlines()[1:]
        assert cells == [json.dumps(float(v)) for v in values]
        assert [float(c) for c in cells] == values


class TestDownstreamCommands:
    def test_ground(self, trained, tmp_path):
        out = tmp_path / "g"
        assert main(["ground", "--model", str(trained / "model.json"),
                     "--data", str(trained / "align_data.json"),
                     "--window", "3", "--out", str(out), "--quiet"]) == 0
        csv = (out / "similarity_map.csv").read_text().strip().split("\n")
        assert csv[0].startswith("segment,")
        assert (out / "grounding.json").exists()

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_map_columns_are_start_tokens(self, trained, tmp_path, index):
        """At stride 2, the column label of each row's best similarity is
        the start grounding.json gives that segment, and each cell is the
        float motion_grounding gives."""
        out = tmp_path / "g"
        assert main(["ground", "--model", str(trained / "model.json"), "--data", str(trained / "align_data.json"),
                     "--index", str(index), "--window", "3", "--stride", "2", "--out", str(out), "--quiet"]) == 0
        header, *rows = [line.split(",") for line in (out / "similarity_map.csv").read_text().splitlines()]
        starts = json.loads((out / "grounding.json").read_text())
        assert header[1:] == [str(2 * i) for i in range(len(header) - 1)]
        params = alignment.params_from_json(json.loads((trained / "model.json").read_text()))
        sample = cli._read_holdout(trained / "align_data.json")[index]
        _, sims = metrics.motion_grounding(sample.text, np.vstack(sample.spans), params, 3, 2)
        assert [row[0] for row in rows] == list(starts) == [f"segment_{j}" for j in range(len(sims))]
        for row, want in zip(rows, sims):
            cells = [float(v) for v in row[1:]]
            assert cells == want.tolist()
            assert int(header[1 + int(np.argmax(cells))]) == starts[row[0]]

    def test_retrieve_accuracy_row(self, trained, tmp_path):
        out = tmp_path / "r"
        assert main(["retrieve", "--model", str(trained / "model.json"),
                     "--data", str(trained / "align_data.json"),
                     "--out", str(out), "--quiet"]) == 0
        last = (out / "retrieval.csv").read_text().strip().split("\n")[-1]
        assert last.startswith("accuracy,")
        assert float(last.split(",")[-1]) >= 0.9

    def test_retrieve_matches_the_per_segment_m2t_loop(self, trained, tmp_path):
        out = tmp_path / "r"
        assert main(["retrieve", "--model", str(trained / "model.json"),
                     "--data", str(trained / "align_data.json"),
                     "--out", str(out), "--quiet"]) == 0
        params = alignment.params_from_json(json.loads((trained / "model.json").read_text()))
        holdout = cli._read_holdout(trained / "align_data.json")
        M = alignment.embed_spans([span for s in holdout for span in s.spans], params)
        blocks = np.split(M, np.cumsum([len(s.spans) for s in holdout])[:-1])
        rows = [(i, j, metrics.m2t_retrieve(m, sample.text))
                for i, (sample, Mi) in enumerate(zip(holdout, blocks)) for j, m in enumerate(Mi)]
        lines = ["sample,segment,retrieved,correct"] + [f"{i},{j},{got},{int(got == j)}" for i, j, got in rows]
        lines.append(f"accuracy,,,{sum(got == j for _, j, got in rows) / len(rows)!r}")
        assert (out / "retrieval.csv").read_text() == "\n".join(lines) + "\n"

    def test_eval_full_report(self, trained, tmp_path):
        out = tmp_path / "e"
        assert main(["eval", "--model", str(trained / "model.json"),
                     "--data", str(trained / "align_data.json"),
                     "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "eval.json").read_text())
        for key in ("isc", "r_precision_top1", "mm_dist", "diversity", "fid"):
            assert key in report["metrics"]
        assert report["metadata"] == {"seed": 0}  # a full R-Precision pool adds no warnings note

    @pytest.mark.parametrize("mode", ["model", "features"])
    def test_eval_csv_holds_the_json_metrics(self, trained, tmp_path, mode):
        """eval.csv lists eval.json's metrics sorted by name, each value the
        text json.dumps gives it, so both files hold the same floats."""
        out = tmp_path / "e"
        if mode == "model":
            argv = ["--model", str(trained / "model.json"), "--data", str(trained / "align_data.json")]
        else:
            np.savetxt(tmp_path / "a.csv", np.random.default_rng(3).normal(size=(30, 4)), delimiter=",")
            argv = ["--features-a", str(tmp_path / "a.csv")]
        assert main(["eval", *argv, "--out", str(out), "--quiet"]) == 0
        got = json.loads((out / "eval.json").read_text())["metrics"]
        lines = [f"{name},{json.dumps(value)}" for name, value in sorted(got.items())]
        assert (out / "eval.csv").read_text() == "\n".join(["metric,value", *lines]) + "\n"

    @pytest.mark.parametrize("loss", ["sample", "batch", "global"])
    def test_eval_ranks_by_cosine(self, tmp_path, loss):
        """R-Precision ranks in the space every loss trains: each text takes
        the motions of its pool by descending cosine similarity, ties to the
        lower index, at the flags of the seeded align chain."""
        align, out = tmp_path / "align", tmp_path / "e"
        assert main(["train-align", "--seed", "5", "--samples", "60", "--holdout", "40", "--steps", "80",
                     "--loss", loss, "--out", str(align), "--quiet"]) == 0
        assert main(["eval", "--model", str(align / "model.json"), "--data", str(align / "align_data.json"),
                     "--seed", "5", "--out", str(out), "--quiet"]) == 0
        got = json.loads((out / "eval.json").read_text())["metrics"]
        params = alignment.params_from_json(json.loads((align / "model.json").read_text()))
        holdout = cli._read_holdout(str(align / "align_data.json"))
        T = np.vstack([s.text for s in holdout])
        M = alignment.embed_spans([span for s in holdout for span in s.spans], params)
        size = metrics.POOL_SIZE
        pools = [np.arange(i, i + size) for i in range(0, len(T) - size + 1, size)]
        assert len(pools) > 1
        for k in (1, 2, 3):
            hits = 0
            for pool in pools:
                order = np.argsort(-alignment.cosine_matrix(T[pool], M[pool]), axis=1, kind="stable")
                hits += sum(j in order[j, :k] for j in range(size))
            assert got[f"r_precision_top{k}"] == hits / (len(pools) * size), k

    def test_eval_fid_identical_feature_files(self, tmp_path):
        feats = tmp_path / "f.csv"
        rng = np.random.default_rng(0)
        np.savetxt(feats, rng.normal(size=(40, 3)), delimiter=",")
        out = tmp_path / "e"
        assert main(["eval", "--features-a", str(feats), "--metric", "fid",
                     "--out", str(out), "--quiet"]) == 0
        metrics = json.loads((out / "eval.json").read_text())["metrics"]
        assert metrics["fid"] < 1e-6

    @pytest.mark.parametrize("flags", [[], ["--features-b", "b.csv"], ["--model", "m.json"]])
    def test_eval_without_features_needs_model_and_data(self, tmp_path, capsys, flags):
        assert main(["eval", *flags, "--out", str(tmp_path / "e"), "--quiet"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "eval needs --features-a, or both --model and --data"}
        assert not (tmp_path / "e").exists()

    def test_window_longer_than_the_sample_names_the_flags(self, trained, tmp_path, capsys):
        data = trained / "align_data.json"
        n = sum(len(span) for span in cli._read_holdout(data)[1].spans)
        argv = ["ground", "--model", str(trained / "model.json"), "--data", str(data), "--index", "1"]
        error = _one_error(capsys, argv + ["--window", str(n + 1)], tmp_path / "g")
        assert error == f"{data}: sample --index 1 has {n} tokens, fewer than --window {n + 1}"
        assert main(argv + ["--window", str(n), "--out", str(tmp_path / "g"), "--quiet"]) == 0

    def test_missing_model_errors(self, trained, tmp_path, capsys):
        assert main(["ground", "--model", str(tmp_path / "nope.json"),
                     "--data", str(trained / "align_data.json"),
                     "--out", str(tmp_path / "g"), "--quiet"]) == 1
        assert "not found" in capsys.readouterr().err


class TestEvalSmallHoldout:
    """R-Precision's warning about a holdout smaller than one pool is a note
    in eval.json, never a line on stderr, also in a process of its own."""

    @staticmethod
    def _query(tmp_path, holdout):
        out = tmp_path / f"align{holdout}"
        assert main(["train-align", "--samples", "10", "--holdout", str(holdout), "--steps", "5",
                     "--out", str(out), "--quiet"]) == 0
        return ["--model", str(out / "model.json"), "--data", str(out / "align_data.json")]

    @staticmethod
    def _eval_process(query, out, *python_flags):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        return subprocess.run([sys.executable, *python_flags, "-m", "segalign.cli", "eval", *query,
                               "--out", str(out), "--quiet"],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)

    def test_warning_is_noted_not_printed(self, tmp_path, capsys, recwarn):
        query = self._query(tmp_path, 5)
        assert main(["eval", *query, "--out", str(tmp_path / "e"), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        assert [str(w.message) for w in recwarn] == []
        n = sum(len(s.text) for s in cli._read_holdout(query[3]))
        assert n < metrics.POOL_SIZE
        metadata = json.loads((tmp_path / "e" / "eval.json").read_text())["metadata"]
        assert metadata == {"seed": 0, "warnings": [
            f"only {n} samples; evaluating a single pool smaller than {metrics.POOL_SIZE}"]}

    def test_no_traceback_when_warnings_are_errors(self, tmp_path):
        proc = self._eval_process(self._query(tmp_path, 5), tmp_path / "e", "-W", "error::RuntimeWarning")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "warnings" in json.loads((tmp_path / "e" / "eval.json").read_text())["metadata"]

    @staticmethod
    def _too_small(data, n):
        return (f"{data}: {n} held-out segments, but eval needs at least 4 "
                "(a larger train-align --holdout gives more segments)")

    def test_too_small_for_top_3_is_one_error_line(self, tmp_path):
        query = self._query(tmp_path, 1)
        proc = self._eval_process(query, tmp_path / "e")
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [json.dumps({"error": self._too_small(query[3], 2)})]
        assert not (tmp_path / "e").exists()

    def test_exactly_four_segments_is_evaluated(self, tmp_path, capsys):
        query = self._query(tmp_path, 2)
        assert sum(len(s.text) for s in cli._read_holdout(query[3])) == 4
        assert main(["eval", *query, "--out", str(tmp_path / "e"), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "e" / "eval.json").exists()

    def test_segment_count_is_checked_before_any_metric(self, tmp_path, capsys, monkeypatch):
        """The refusal names --data and its segment count, not r_precision's
        sample count, and comes before any metric runs."""
        query = self._query(tmp_path, 1)
        n = sum(len(s.text) for s in cli._read_holdout(query[3]))
        assert n < 4
        monkeypatch.setattr(metrics, "isc_score", lambda pairs: pytest.fail("a metric ran"))
        assert main(["eval", *query, "--out", str(tmp_path / "e"), "--quiet"]) == 1
        assert capsys.readouterr().err.splitlines() == [json.dumps({"error": self._too_small(query[3], n)})]
        assert not (tmp_path / "e").exists()


class TestDecodeCommand:
    def test_oracle_decode_exact_and_stable(self, tmp_path):
        outs = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            assert main(["decode", "--seed", "3", "--length", "16", "--iters", "5",
                         "--out", str(out), "--quiet"]) == 0
            outs.append(out)
        result = json.loads((outs[0] / "decoded_tokens.json").read_text())
        assert result["exact"] is True
        assert (outs[0] / "decode_trace.jsonl").read_bytes() == \
               (outs[1] / "decode_trace.jsonl").read_bytes()


class TestConfigFile:
    def test_config_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"length": 8, "iters": 3}))
        out = tmp_path / "d"
        assert main(["--config", str(cfg), "decode", "--seed", "0",
                     "--iters", "4", "--out", str(out), "--quiet"]) == 0
        trace = (out / "decode_trace.jsonl").read_text().strip().split("\n")
        assert len(trace) == 4  # flag overrides config
        tokens = json.loads((out / "decoded_tokens.json").read_text())["tokens"]
        assert len(tokens) == 8  # config supplies the length

    def test_config_does_not_outlive_its_call(self, tmp_path):
        """Parsers are built once per process; a --config call must leave
        the built-in defaults to the next call."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"length": 8, "iters": 3, "quiet": True}))
        with_config = cli.parse_args(["--config", str(cfg), "decode"])
        assert (with_config.length, with_config.iters, with_config.quiet) == (8, 3, True)
        plain = cli.parse_args(["decode"])
        assert (plain.length, plain.iters, plain.quiet) == (16, 5, False)
        assert cli.command_parser("decode") is cli.command_parser("decode")


# The parser surface of every command as the ten-parser build_parser() gave
# it: vars(args) for a minimal valid argv (func by name), then each flag's
# (option_strings, dest, default, type name, choices, required).
PARSER_SURFACE = {
    "synth": (["--spec", "s.json"],
              {"config": None, "command": "synth", "seed": 0, "out": "out", "quiet": False,
               "spec": "s.json", "func": "cmd_synth"},
              [(("--seed",), "seed", 0, "int", None, False),
               (("--out",), "out", "out", None, None, False),
               (("--quiet",), "quiet", False, None, None, False),
               (("--spec",), "spec", None, None, None, True)]),
    "decompose": (["--data", "d.jsonl"],
                  {"config": None, "command": "decompose", "seed": 0, "out": "decomposed.jsonl",
                   "quiet": False, "data": "d.jsonl", "fallback": False, "endpoint": None,
                   "model_name": "qwen3:8b", "cache": None, "func": "cmd_decompose"},
                  [(("--seed",), "seed", 0, "int", None, False),
                   (("--out",), "out", "decomposed.jsonl", None, None, False),
                   (("--quiet",), "quiet", False, None, None, False),
                   (("--data",), "data", None, None, None, True),
                   (("--fallback",), "fallback", False, None, None, False),
                   (("--endpoint",), "endpoint", None, None, None, False),
                   (("--model-name",), "model_name", "qwen3:8b", None, None, False),
                   (("--cache",), "cache", None, None, None, False)]),
    "quantize": (["--data", "d"],
                 {"config": None, "command": "quantize", "seed": 0, "out": "out", "quiet": False,
                  "data": "d", "layers": 3, "codes": 16, "iters": 25, "func": "cmd_quantize"},
                 [(("--seed",), "seed", 0, "int", None, False),
                  (("--out",), "out", "out", None, None, False),
                  (("--quiet",), "quiet", False, None, None, False),
                  (("--data",), "data", None, None, None, True),
                  (("--layers",), "layers", 3, "int", None, False),
                  (("--codes",), "codes", 16, "int", None, False),
                  (("--iters",), "iters", 25, "int", None, False)]),
    "segment": (["--data", "d", "--method", "cpd"],
                {"config": None, "command": "segment", "seed": 0, "out": "out", "quiet": False,
                 "data": "d", "method": "cpd", "bandwidth": "median", "library": None,
                 "fit_library": False, "window": 4, "stride": 1, "primitives": 64,
                 "func": "cmd_segment"},
                [(("--seed",), "seed", 0, "int", None, False),
                 (("--out",), "out", "out", None, None, False),
                 (("--quiet",), "quiet", False, None, None, False),
                 (("--data",), "data", None, None, None, True),
                 (("--method",), "method", None, None, ("uniform", "cpd", "cluster"), True),
                 (("--bandwidth",), "bandwidth", "median", None, None, False),
                 (("--library",), "library", None, None, None, False),
                 (("--fit-library",), "fit_library", False, None, None, False),
                 (("--window",), "window", 4, "int", None, False),
                 (("--stride",), "stride", 1, "int", None, False),
                 (("--primitives",), "primitives", 64, "int", None, False)]),
    "train-align": ([],
                    {"config": None, "command": "train-align", "seed": 0, "out": "out",
                     "quiet": False, "samples": 200, "holdout": 50, "d_token": 8, "d_embed": 16,
                     "steps": 300, "lr": 0.5, "batch": 8, "loss": "sample",
                     "temperature": 0.1, "func": "cmd_train_align"},
                    [(("--seed",), "seed", 0, "int", None, False),
                     (("--out",), "out", "out", None, None, False),
                     (("--quiet",), "quiet", False, None, None, False),
                     (("--samples",), "samples", 200, "int", None, False),
                     (("--holdout",), "holdout", 50, "int", None, False),
                     (("--d-token",), "d_token", 8, "int", None, False),
                     (("--d-embed",), "d_embed", 16, "int", None, False),
                     (("--steps",), "steps", 300, "int", None, False),
                     (("--lr",), "lr", 0.5, "float", None, False),
                     (("--batch",), "batch", 8, "int", None, False),
                     (("--loss",), "loss", "sample", None, ("sample", "batch", "global"), False),
                     (("--temperature",), "temperature", 0.1, "float", None, False)]),
    "decode": ([],
               {"config": None, "command": "decode", "seed": 0, "out": "out", "quiet": False,
                "length": 16, "iters": 5, "codes": 8, "func": "cmd_decode"},
               [(("--seed",), "seed", 0, "int", None, False),
                (("--out",), "out", "out", None, None, False),
                (("--quiet",), "quiet", False, None, None, False),
                (("--length",), "length", 16, "int", None, False),
                (("--iters",), "iters", 5, "int", None, False),
                (("--codes",), "codes", 8, "int", None, False)]),
    "ground": (["--model", "m.json", "--data", "a.json"],
               {"config": None, "command": "ground", "seed": 0, "out": "out", "quiet": False,
                "model": "m.json", "data": "a.json", "index": 0, "window": 5, "stride": 1,
                "func": "cmd_ground"},
               [(("--seed",), "seed", 0, "int", None, False),
                (("--out",), "out", "out", None, None, False),
                (("--quiet",), "quiet", False, None, None, False),
                (("--model",), "model", None, None, None, True),
                (("--data",), "data", None, None, None, True),
                (("--index",), "index", 0, "int", None, False),
                (("--window",), "window", 5, "int", None, False),
                (("--stride",), "stride", 1, "int", None, False)]),
    "retrieve": (["--model", "m.json", "--data", "a.json"],
                 {"config": None, "command": "retrieve", "seed": 0, "out": "out", "quiet": False,
                  "model": "m.json", "data": "a.json", "func": "cmd_retrieve"},
                 [(("--seed",), "seed", 0, "int", None, False),
                  (("--out",), "out", "out", None, None, False),
                  (("--quiet",), "quiet", False, None, None, False),
                  (("--model",), "model", None, None, None, True),
                  (("--data",), "data", None, None, None, True)]),
    "eval": ([],
             {"config": None, "command": "eval", "seed": 0, "out": "out", "quiet": False,
              "model": None, "data": None, "features_a": None, "features_b": None, "metric": None,
              "func": "cmd_eval"},
             [(("--seed",), "seed", 0, "int", None, False),
              (("--out",), "out", "out", None, None, False),
              (("--quiet",), "quiet", False, None, None, False),
              (("--model",), "model", None, None, None, False),
              (("--data",), "data", None, None, None, False),
              (("--features-a",), "features_a", None, None, None, False),
              (("--features-b",), "features_b", None, None, None, False),
              (("--metric",), "metric", None, None, ("fid", "mm_dist", "diversity"), False)]),
}


class TestParserSurface:
    def test_every_command_is_in_the_table(self):
        assert list(cli.COMMANDS) == list(PARSER_SURFACE)

    @pytest.mark.parametrize("name", list(PARSER_SURFACE))
    def test_args_and_flags_match_the_recorded_surface(self, name):
        argv, expected_args, expected_flags = PARSER_SURFACE[name]
        args = vars(cli.parse_args([name, *argv]))
        args["func"] = args["func"].__name__
        assert args == expected_args
        _, flags = cli.command_parser(name)
        got = [
            (tuple(a.option_strings), a.dest, a.default, a.type and a.type.__name__,
             a.choices and tuple(a.choices), a.required)
            for a in flags.values()
        ]
        assert got == expected_flags

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name, (_, help_line, _) in cli.COMMANDS.items():
            assert f"{name} " in out and help_line in out

    def test_command_help_lists_its_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decode", "--help"])
        assert exc.value.code == 0
        assert "--length" in capsys.readouterr().out

    def test_config_after_the_command_is_refused(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        with pytest.raises(SystemExit) as exc:
            main(["decode", "--config", str(cfg), "--out", str(tmp_path / "d"), "--quiet"])
        assert exc.value.code == 2
        assert not (tmp_path / "d").exists()

    def test_one_command_builds_only_its_own_parser(self, tmp_path, monkeypatch):
        calls = []
        add_argument = argparse.ArgumentParser.add_argument

        def counting(self, *args, **kwargs):
            calls.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        assert main(["decode", "--out", str(tmp_path / "d"), "--quiet"]) == 0
        assert len(calls) < 20


class TestBadConfig:
    """A config file that cannot serve the command exits 1 with one JSON
    line naming the file or the key, before anything is written."""

    def _run(self, tmp_path, capsys, cfg):
        out = tmp_path / "d"
        assert main(["--config", str(cfg), "decode", "--out", str(out), "--quiet"]) == 1
        assert not out.exists()
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        return json.loads(lines[0])["error"]

    def test_missing_file(self, tmp_path, capsys):
        assert "nope.json" in self._run(tmp_path, capsys, tmp_path / "nope.json")

    @pytest.mark.parametrize("text", ["{oops", "[1, 2]"])
    def test_not_a_json_object(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert str(cfg) in self._run(tmp_path, capsys, cfg)

    @pytest.mark.parametrize("value", [4.5, True, "8", None])
    def test_int_flag_given_a_non_integer(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"length": value}))
        assert "'length'" in self._run(tmp_path, capsys, cfg)

    def test_float_flag_given_a_non_number(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": "fast"}))
        out = tmp_path / "a"
        assert main(["--config", str(cfg), "train-align", "--out", str(out), "--quiet"]) == 1
        assert not out.exists()
        assert "'lr'" in json.loads(capsys.readouterr().err.strip())["error"]

    def test_keys_of_other_commands_are_ignored(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"length": 6, "lr": "fast", "spec": 3, "d_token": 4.5}))
        out = tmp_path / "d"
        assert main(["--config", str(cfg), "decode", "--out", str(out), "--quiet"]) == 0
        assert len(json.loads((out / "decoded_tokens.json").read_text())["tokens"]) == 6

    def test_float_flag_given_nan_or_infinity(self, tmp_path, capsys):
        for value in ("NaN", "Infinity"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text('{"lr": %s}' % value)
            out = tmp_path / "a"
            assert main(["--config", str(cfg), "train-align", "--out", str(out), "--quiet"]) == 1
            assert not out.exists()
            error = json.loads(capsys.readouterr().err.strip())["error"]
            assert error.startswith(f"{cfg}: ") and "'lr' must be float" in error


def _one_error(capsys, argv, out) -> str:
    """``argv`` run with ``--out out``: exit 1, exactly one JSON stderr
    line, nothing at ``out``.  The error."""
    assert main(argv + ["--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert not out.exists()
    return json.loads(err[0])["error"]


class TestCorpusInputFiles:
    """The spec, manifest.json and truth.json are read by the one JSON
    reader: a bad file exits 1 with one JSON line that starts with its path,
    before anything is written."""

    @pytest.mark.parametrize("text,message", [
        ("[1, 2]", "expected a JSON object, got list"),
        ('{"n_samples": [3]}', "field 'n_samples' must be a positive integer, got [3]"),
        ('{"dim": null}', "field 'dim' must be a positive integer, got None"),
        ('{"n_samples": "8"}', "field 'n_samples' must be a positive integer, got '8'"),
        ('{"ratio": 2.0}', "field 'ratio' must be a positive integer"),
        ('{"embed_dim": 0}', "unknown field 'embed_dim'"),
        ('{"dim": true}', "field 'dim' must be a positive integer"),
        ('{"noise_std": "0.3"}', "field 'noise_std' must be float"),
        ('{"mean_scale": NaN}', "field 'mean_scale' must be float"),
        ('{"noise_std": -Infinity}', "field 'noise_std' must be float"),
        ('{"noise_std": -0.1}', "field 'noise_std' must not be negative"),
        ('{"mean_scale": -1}', "field 'mean_scale' must not be negative"),
        ('{"n_sample": 3}', "unknown field 'n_sample'"),
        ('{"segments_max": 6}', "field 'segments_max' must be at most 5, got 6"),
        ('{"segments_min": 4}', "field 'segments_min' 4 exceeds field 'segments_max' 3"),
        ('{"tokens_per_segment_min": 9}', "field 'tokens_per_segment_min' 9 exceeds"),
        ('{"n_samples": 3', "Expecting"),
    ])
    def test_bad_spec(self, tmp_path, capsys, text, message):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        error = _one_error(capsys, ["synth", "--spec", str(spec)], tmp_path / "data")
        assert error.startswith(f"{spec}: ") and message in error

    def test_frames_beyond_float32_write_nothing(self, tmp_path, capsys, recwarn):
        """Sample 3 is the first with a frame beyond float32: every record
        is checked before any file is written, so no motion is left behind."""
        spec = tmp_path / "spec.json"
        spec.write_text('{"n_samples": 20, "mean_scale": 1.5e38}')
        error = _one_error(capsys, ["synth", "--spec", str(spec)], tmp_path / "data")
        assert error == (f"{spec}: sample_0003 has a frame value beyond the float32 range of a motion file: "
                         "lower field 'mean_scale' or 'noise_std'")
        assert [str(w.message) for w in recwarn] == []

    def test_missing_spec(self, tmp_path, capsys):
        spec = tmp_path / "nope.json"
        assert _one_error(capsys, ["synth", "--spec", str(spec)], tmp_path / "data") == f"{spec}: file not found"

    def test_float_fields_take_ints(self, tmp_path):
        """A float field given as a JSON int synthesizes the same corpus."""
        for name, spec in (("ints", {"mean_scale": 3, "noise_std": 0}),
                           ("floats", {"mean_scale": 3.0, "noise_std": 0.0})):
            (tmp_path / f"{name}.json").write_text(json.dumps({"n_samples": 3, "dim": 2, **spec}))
            assert main(["synth", "--spec", str(tmp_path / f"{name}.json"), "--seed", "2",
                         "--out", str(tmp_path / name), "--quiet"]) == 0
        for name in ("dataset.jsonl", "truth.json", "motions/sample_0002.sgmo"):
            assert (tmp_path / "ints" / name).read_bytes() == (tmp_path / "floats" / name).read_bytes()

    @pytest.mark.parametrize("edit,message", [
        (lambda m: {k: v for k, v in m.items() if k != "ratio"}, "missing field 'ratio'"),
        (lambda m: {**m, "ratio": "4"}, "field 'ratio' must be a positive integer, got '4'"),
        (lambda m: {**m, "ratio": 2.5}, "field 'ratio' must be a positive integer, got 2.5"),
        (lambda m: {**m, "ratio": 0}, "field 'ratio' must be a positive integer, got 0"),
        (lambda m: [m], "expected a JSON object, got list"),
    ])
    @pytest.mark.parametrize("command", ["quantize", "segment --method cpd"])
    def test_bad_manifest(self, synth_dir, tmp_path, capsys, command, edit, message):
        manifest = synth_dir / "manifest.json"
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        error = _one_error(capsys, command.split() + ["--data", str(synth_dir)], tmp_path / "o")
        assert error == f"{manifest}: {message}"

    @pytest.mark.parametrize("edit,message", [
        (lambda t: [1], "expected a JSON object, got list"),
        (lambda t: {**t, "sample_0000": 5}, "sample_0000: expected a list of [start, end] pairs of integers"),
        (lambda t: {**t, "sample_0001": [[0, 2.0], [2, t["sample_0001"][-1][1]]]}, "sample_0001: expected a list"),
        (lambda t: {**t, "sample_0001": [[0, 3], [4, t["sample_0001"][-1][1]]]},
         "sample_0001: spans must be contiguous"),
        (lambda t: {**t, "sample_0002": []}, "sample_0002: empty span list"),
        (lambda t: {**t, "elsewhere": [[0, "3"]]}, "elsewhere: expected a list"),
        (lambda t: {**t, "sample_0000": [[0, t["sample_0000"][-1][1]]]}, "sample_0000: 1 spans over [0, "),
    ])
    @pytest.mark.parametrize("method", ["uniform", "cpd"])
    def test_bad_truth(self, synth_dir, tmp_path, capsys, method, edit, message):
        truth_path = synth_dir / "truth.json"
        truth = json.loads(truth_path.read_text())
        truth_path.write_text(json.dumps(edit(truth)))
        error = _one_error(capsys, ["segment", "--data", str(synth_dir), "--method", method], tmp_path / "o")
        assert error.startswith(f"{truth_path}: {message}")

    def test_truth_must_fit_its_sequence(self, synth_dir, tmp_path, capsys):
        """An entry whose last span ends past its sequence, or that has
        another segment count than its record, names both figures."""
        truth_path = synth_dir / "truth.json"
        truth = json.loads(truth_path.read_text())
        spans = truth["sample_0003"]
        n, a = spans[-1][1], len(spans)
        truth_path.write_text(json.dumps({**truth, "sample_0003": spans[:-1] + [[spans[-1][0], n + 50]]}))
        error = _one_error(capsys, ["segment", "--data", str(synth_dir), "--method", "cpd"], tmp_path / "o")
        assert error == (f"{truth_path}: sample_0003: {a} spans over [0, {n + 50}), but the record has "
                         f"{a} segments over [0, {n})")

    def test_truth_entry_of_no_record_is_ignored(self, synth_dir, tmp_path):
        assert main(["segment", "--data", str(synth_dir), "--method", "cpd", "--out", str(tmp_path / "a"),
                     "--quiet"]) == 0
        truth_path = synth_dir / "truth.json"
        truth_path.write_text(json.dumps({**json.loads(truth_path.read_text()), "sample_9999": [[0, 3]]}))
        assert main(["segment", "--data", str(synth_dir), "--method", "cpd", "--out", str(tmp_path / "b"),
                     "--quiet"]) == 0
        for name in ("boundaries_cpd.json", "seg_report_cpd.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_library(self, synth_dir, tmp_path, capsys):
        lib = tmp_path / "lib.json"
        error = _one_error(capsys, ["segment", "--data", str(synth_dir), "--method", "cluster",
                                    "--library", str(lib)], tmp_path / "o")
        assert error == f"{lib}: file not found"

    @pytest.mark.parametrize("command", ["quantize", "segment --method cpd", "segment --method uniform",
                                         "segment --method cluster --fit-library"])
    def test_motion_of_another_width_is_refused_at_load(self, synth_dir, tmp_path, capsys, command):
        """A corpus has one latent width, its first record's: a motion file
        of twice the pose values is named with its record and both widths,
        and nothing is written, the fitted library included."""
        path = synth_dir / "motions" / "sample_0002.sgmo"
        frames = load_motion(path).frames
        save_motion(MotionSequence(frames=np.hstack([frames, frames])), path)
        argv = command.split() + ["--data", str(synth_dir)]
        if "cluster" in command:
            argv += ["--library", str(tmp_path / "o" / "lib.json")]
        error = _one_error(capsys, argv, tmp_path / "o")
        assert error == f"{path}: sample_0002 has 6 pose values per frame, but sample_0000 has 3"

    @pytest.mark.parametrize("command", ["quantize", "segment --method uniform"])
    def test_dataset_of_no_record_is_refused(self, synth_dir, tmp_path, capsys, command):
        """An empty corpus has no latent width to decide."""
        (synth_dir / "dataset.jsonl").write_text("\n")
        error = _one_error(capsys, command.split() + ["--data", str(synth_dir)], tmp_path / "o")
        assert error == f"{synth_dir / 'dataset.jsonl'}: no records"


class TestEvalFeatureFiles:
    @pytest.mark.parametrize("text,flags,message", [
        ("", [], "no feature rows"),
        ("\n\n", [], "no feature rows"),
        ("0.5,1.5,2.5\n", [], "fid needs at least 2 rows in each feature set, got 1 and 1"),
        ("0.5,1.5,2.5\n", ["--metric", "diversity"], "need at least two embeddings"),
        ("0.5,1.5\n1,nan\n2,3\n", ["--metric", "diversity"], "non-finite value"),
        ("0.5,1.5\n1,inf\n2,3\n", ["--metric", "mm_dist"], "non-finite value"),
        ("0.5,1.5\n1\n", [], "number of columns changed"),
        ("0.5,1.5\n1,x\n", [], "could not convert"),
    ])
    def test_bad_features_file(self, tmp_path, capsys, recwarn, text, flags, message):
        """One JSON error line and no warning: pytest keeps warnings off
        stderr, so the recorder is checked as well."""
        feats = tmp_path / "f.csv"
        feats.write_text(text)
        error = _one_error(capsys, ["eval", "--features-a", str(feats), *flags], tmp_path / "e")
        assert message in error
        assert error.startswith(f"{feats}: ")
        assert [str(w.message) for w in recwarn] == []

    def test_unknown_metric_is_refused(self, tmp_path, capsys):
        feats = tmp_path / "f.csv"
        feats.write_text("0,1\n1,0\n2,2\n")
        argv = ["eval", "--features-a", str(feats), "--out", str(tmp_path / "e"), "--quiet"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--metric", "foo"])
        assert exc.value.code == 2
        assert "invalid choice: 'foo'" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"metric": "foo"}')
        error = _one_error(capsys, ["--config", str(cfg)] + argv[:-3], tmp_path / "e")
        assert error == f"{cfg}: field 'metric' must be one of ['fid', 'mm_dist', 'diversity'], got 'foo'"

    def test_one_row_is_refused_only_by_a_metric_that_needs_more(self, tmp_path):
        feats = tmp_path / "one-row.csv"
        feats.write_text("0.5,1.5,2.5\n")
        out = tmp_path / "e"
        assert main(["eval", "--features-a", str(feats), "--metric", "mm_dist", "--out", str(out), "--quiet"]) == 0
        assert json.loads((out / "eval.json").read_text())["metrics"] == {"mm_dist": 0.0}

    def test_mm_dist_of_unequal_shapes_names_both(self, tmp_path, capsys, recwarn):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("0,1\n1,0\n2,2\n")
        b.write_text("0,1\n1,0\n")
        argv = ["eval", "--features-a", str(a), "--features-b", str(b)]
        error = _one_error(capsys, argv + ["--metric", "mm_dist"], tmp_path / "e")
        assert error == f"{a}, {b}: paired lists must have identical shapes, got (3, 2) and (2, 2)"
        # asked for no metric in particular, unpaired sets are scored without it
        assert main(argv + ["--out", str(tmp_path / "all"), "--quiet"]) == 0
        assert set(json.loads((tmp_path / "all" / "eval.json").read_text())["metrics"]) == {"fid", "diversity"}
        assert [str(w.message) for w in recwarn] == []


class TestEvalModes:
    """eval reads feature files or a model and its data.  A flag of the
    other mode, given by flag or by --config, exits 1 with one JSON line
    naming it, and nothing is written."""

    @staticmethod
    def _error(capsys, tmp_path, flags, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        return _one_error(capsys, ["--config", str(cfg), "eval", *flags], tmp_path / "e")

    @pytest.mark.parametrize("flags,config,flag", [
        (["--metric", "fid"], {}, "--metric"),
        ([], {"metric": "diversity"}, "--metric"),
        (["--features-b", "f.csv"], {}, "--features-b"),
        ([], {"features_b": "f.csv"}, "--features-b"),
    ])
    def test_model_mode_refuses_a_features_flag(self, trained, tmp_path, capsys, flags, config, flag):
        query = ["--model", str(trained / "model.json"), "--data", str(trained / "align_data.json")]
        error = self._error(capsys, tmp_path, query + flags, config)
        assert error == f"{flag} is not used with --model and --data, only with --features-a"

    @pytest.mark.parametrize("flags,config,flag", [
        (["--model", "m.json"], {}, "--model"),
        ([], {"model": "m.json"}, "--model"),
        (["--data", "d.json"], {}, "--data"),
        ([], {"data": "d.json"}, "--data"),
    ])
    def test_features_mode_refuses_a_model_flag(self, tmp_path, capsys, flags, config, flag):
        feats = tmp_path / "f.csv"
        feats.write_text("0,1\n1,0\n2,2\n")
        error = self._error(capsys, tmp_path, ["--features-a", str(feats), *flags], config)
        assert error == f"{flag} is not used with --features-a"


class TestErrorMapping:
    def test_cli_error_is_a_value_error(self):
        assert issubclass(cli.CliError, ValueError)

    def test_divergence_is_one_json_line(self, tmp_path, capsys, monkeypatch):
        def diverging(*args, **kwargs):
            raise alignment.DivergenceError("loss became non-finite at step 3")

        monkeypatch.setattr(alignment, "toy_train", diverging)
        error = _one_error(capsys, ["train-align", "--samples", "10", "--holdout", "4"], tmp_path / "a")
        assert error == "loss became non-finite at step 3"

    @pytest.mark.parametrize("steps", ["1", "40"])
    def test_overflow_is_one_json_line(self, tmp_path, capsys, recwarn, steps):
        """A learning rate that blows the weights up stops train-align before
        it writes a model, with no numpy warning."""
        error = _one_error(capsys, ["train-align", "--samples", "20", "--holdout", "8",
                                    "--lr", "1e300", "--steps", steps], tmp_path / "a")
        assert error.startswith("overflow encountered")
        assert [str(w.message) for w in recwarn] == []

    def test_tiny_bandwidth_is_not_an_overflow(self, synth_dir, tmp_path, capsys, recwarn):
        """A subnormal 2 sigma^2 overflows the kernel quotient to -inf, whose
        exp is the kernel value 0, so segment runs under the CLI's overflow
        check."""
        out = tmp_path / "seg"
        assert main(["segment", "--data", str(synth_dir), "--method", "cpd", "--bandwidth", "1e-160",
                     "--out", str(out), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "boundaries_cpd.json").exists()
        assert [str(w.message) for w in recwarn] == []


# command argv without --out, and the count flag whose bad value it takes;
# quantize --codes and segment --primitives have their own tests above
COUNT_FLAGS = [
    *((["train-align", "--samples", "10", "--holdout", "4", "--steps", "1"], flag)
      for flag in ("--samples", "--holdout", "--batch", "--d-token", "--d-embed", "--steps")),
    *((["quantize"], flag) for flag in ("--layers", "--iters")),
    *((["segment", "--method", "cluster", "--fit-library"], flag) for flag in ("--window", "--stride")),
    *((["decode"], flag) for flag in ("--length", "--iters", "--codes")),
    # the files do not exist: the flag is checked before any file is read
    *((["ground", "--model", "x.json", "--data", "y.json"], flag) for flag in ("--window", "--stride")),
]


class TestCountFlags:
    """A count below 1, given by flag or by --config, exits 1 with one JSON
    line naming the flag, before anything is written."""

    def _argv(self, argv, synth_dir, tmp_path):
        if argv[0] == "quantize":
            return argv + ["--data", str(synth_dir)]
        if argv[0] == "segment":
            return argv + ["--data", str(synth_dir), "--library", str(tmp_path / "lib" / "library.json")]
        return argv

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("argv,flag", COUNT_FLAGS, ids=[f"{a[0]}{f}" for a, f in COUNT_FLAGS])
    def test_flag(self, synth_dir, tmp_path, capsys, recwarn, argv, flag, value):
        error = _one_error(capsys, self._argv(argv, synth_dir, tmp_path) + [f"{flag}={value}"], tmp_path / "o")
        assert error == f"{flag} must be at least 1, got {value}"
        assert not (tmp_path / "lib").exists()
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("argv,flag", COUNT_FLAGS, ids=[f"{a[0]}{f}" for a, f in COUNT_FLAGS])
    def test_config(self, synth_dir, tmp_path, capsys, argv, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:].replace("-", "_"): 0}))
        if flag in argv:  # the flag would win over the config
            i = argv.index(flag)
            argv = argv[:i] + argv[i + 2:]
        error = _one_error(capsys, ["--config", str(cfg)] + self._argv(argv, synth_dir, tmp_path), tmp_path / "o")
        assert error == f"{flag} must be at least 1, got 0"
        assert not (tmp_path / "lib").exists()


class TestCountsBeyondTheData:
    """A count flag above what the corpus holds exits 1 with one JSON line
    naming the dataset, the count it has and the flag, and writes nothing,
    not even the library."""

    @pytest.mark.parametrize("argv,message", [
        (["quantize", "--codes", "500"], "40 latent vectors, fewer than --codes 500"),
        (["segment", "--method", "cluster", "--fit-library", "--primitives", "500"],
         "31 windows, fewer than --primitives 500"),
    ], ids=["codes", "primitives"])
    def test_names_the_flag_and_the_data(self, tmp_path, capsys, recwarn, argv, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_samples": 3, "dim": 2}))
        data = tmp_path / "data"
        assert main(["synth", "--spec", str(spec), "--out", str(data), "--quiet"]) == 0
        library = ["--library", str(tmp_path / "lib" / "library.json")] if argv[0] == "segment" else []
        error = _one_error(capsys, argv + ["--data", str(data), *library], tmp_path / "o")
        assert error == f"{data / 'dataset.jsonl'}: {message}"
        assert not (tmp_path / "lib").exists()
        assert [str(w.message) for w in recwarn] == []


class _FakeMallopt:
    """A C library's mallopt that records its calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


class TestFreedMemoryPolicy:
    """quantize and segment set glibc's mmap and trim thresholds once per
    process, unless the environment already tunes the allocator."""

    @pytest.fixture(autouse=True)
    def fresh(self, monkeypatch):
        for name in cli._MALLOC_ENV:
            monkeypatch.delenv(name, raising=False)
        cli._keep_freed_memory.cache_clear()
        yield
        cli._keep_freed_memory.cache_clear()

    def _patch(self, monkeypatch, lib):
        opened = []
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: opened.append(name) or lib)
        return opened

    def test_two_calls_across_two_corpus_commands(self, synth_dir, tmp_path, monkeypatch):
        lib = types.SimpleNamespace(mallopt=_FakeMallopt())
        opened = self._patch(monkeypatch, lib)
        assert main(["quantize", "--data", str(synth_dir), "--codes", "4", "--out", str(tmp_path / "q"),
                     "--quiet"]) == 0
        assert main(["segment", "--data", str(synth_dir), "--method", "cpd", "--out", str(tmp_path / "s"),
                     "--quiet"]) == 0
        assert opened == [None]
        assert lib.mallopt.calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_query_command_leaves_the_allocator(self, tmp_path, monkeypatch):
        opened = self._patch(monkeypatch, types.SimpleNamespace(mallopt=_FakeMallopt()))
        assert main(["decode", "--length", "4", "--iters", "2", "--out", str(tmp_path / "d"), "--quiet"]) == 0
        assert opened == []

    @pytest.mark.parametrize("name", cli._MALLOC_ENV)
    def test_environment_wins(self, monkeypatch, name):
        monkeypatch.setenv(name, "131072")
        lib = types.SimpleNamespace(mallopt=_FakeMallopt())
        opened = self._patch(monkeypatch, lib)
        cli._keep_freed_memory()
        assert opened == [] and lib.mallopt.calls == []

    def test_no_mallopt_is_silent(self, synth_dir, tmp_path, monkeypatch, capsys):
        self._patch(monkeypatch, object())
        assert main(["segment", "--data", str(synth_dir), "--method", "cpd", "--out", str(tmp_path / "s"),
                     "--quiet"]) == 0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
    def test_fewer_page_faults(self, tmp_path):
        """segment --method cpd on 4 sequences of 450 tokens, on one BLAS
        thread as CI and the benchmark run: each block of start rows reuses
        the last one's freed memory.  The faults of a second run in the same
        process are counted: the first run's count depends on the heap that
        imports and the paths leave, and moved about tenfold with them.
        The control run sets glibc's default thresholds (128 KiB) in the
        environment, where the pin leaves them and they stay fixed: glibc's
        dynamic rule, left free, kept these blocks or not as the lengths of
        the data and source paths moved the heap (2 or 761 faults, against
        0-4 pinned and about 2,000 at the fixed defaults)."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_samples": 4, "dim": 16, "segments_min": 5, "segments_max": 5,
                                    "tokens_per_segment_min": 90, "tokens_per_segment_max": 90}))
        data = tmp_path / "data"
        assert main(["synth", "--spec", str(spec), "--out", str(data), "--quiet"]) == 0
        probe = ("import resource, sys\n"
                 "from segalign import cli\n"
                 "argv = ['segment', '--data', sys.argv[1], '--method', 'cpd', '--out', sys.argv[2], '--quiet']\n"
                 "assert cli.main(argv) == 0\n"
                 "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                 "assert cli.main(argv) == 0\n"
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = {key: value for key, value in os.environ.items() if key not in cli._MALLOC_ENV}
        env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        defaults = {"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_TRIM_THRESHOLD_": "131072"}
        faults = {
            mode: int(subprocess.run([sys.executable, "-c", probe, str(data), str(tmp_path / mode)],
                                     env={**env, **extra}, capture_output=True, text=True, check=True).stdout)
            for mode, extra in (("on", {}), ("off", defaults))
        }
        assert (tmp_path / "on" / "boundaries_cpd.json").read_bytes() == \
               (tmp_path / "off" / "boundaries_cpd.json").read_bytes()
        assert faults["on"] < faults["off"] / 10, faults
