import errno
import os
import struct

import numpy as np
import pytest

from segalign.motion import (
    BadHeaderError,
    BadMagicError,
    MotionSequence,
    LatentSequence,
    DatasetRecord,
    MotionFormatError,
    NonFiniteValueError,
    SyntheticSpec,
    TrailingBytesError,
    TruncatedPayloadError,
    load_motion,
    project_latent,
    read_dataset,
    reconstruct_motion,
    save_motion,
    synth_motion,
    write_dataset,
)


class TestMotionIO:
    def test_single_value_round_trip(self, tmp_path):
        path = tmp_path / "m.sgmo"
        save_motion(MotionSequence(frames=np.array([[0.0]])), path)
        assert path.stat().st_size == 16
        loaded = load_motion(path)
        assert loaded.frames.shape == (1, 1)
        assert loaded.frames[0, 0] == 0.0

    def test_zero_matrix_layout(self, tmp_path):
        path = tmp_path / "m.sgmo"
        save_motion(MotionSequence(frames=np.zeros((2, 3))), path)
        blob = path.read_bytes()
        assert blob[:4] == b"SGMO"
        assert int.from_bytes(blob[4:8], "little") == 2
        assert int.from_bytes(blob[8:12], "little") == 3
        assert blob[12:] == b"\x00" * 24

    def test_random_round_trip_float32_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = rng.normal(size=(49, 263)).astype(np.float32)
        path = tmp_path / "m.sgmo"
        save_motion(MotionSequence(frames=frames), path)
        loaded = load_motion(path)
        np.testing.assert_array_equal(loaded.frames, frames)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.sgmo"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(BadMagicError):
            load_motion(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.sgmo"
        save_motion(MotionSequence(frames=np.zeros((2, 3))), path)
        path.write_bytes(path.read_bytes()[:12])
        with pytest.raises(TruncatedPayloadError):
            load_motion(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.sgmo"
        save_motion(MotionSequence(frames=np.ones((2, 3))), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TrailingBytesError):
            load_motion(path)

    @pytest.mark.parametrize("n, d", [(0, 3), (2, 0), (0, 0)])
    def test_empty_header_is_format_error(self, tmp_path, n, d):
        path = tmp_path / "m.sgmo"
        path.write_bytes(b"SGMO" + struct.pack("<II", n, d))
        with pytest.raises(BadHeaderError):
            load_motion(path)

    def test_nan_payload_rejected(self, tmp_path):
        path = tmp_path / "m.sgmo"
        save_motion(MotionSequence(frames=np.ones((1, 1))), path)
        blob = bytearray(path.read_bytes())
        blob[12:16] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(NonFiniteValueError):
            load_motion(path)

    def test_write_error_carries_path(self, tmp_path):
        (tmp_path / "not_a_dir").write_text("")
        bad = tmp_path / "not_a_dir" / "m.sgmo"
        with pytest.raises(Exception, match="not_a_dir"):
            save_motion(MotionSequence(frames=np.ones((1, 1))), bad)

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        """A write that fails part-way (a full disk) leaves the existing
        motion file as it was and no temporary file behind."""
        path = tmp_path / "m.sgmo"
        save_motion(MotionSequence(frames=np.ones((2, 3))), path)
        before = path.read_bytes()

        class FullDisk:
            def __init__(self, *args, **kwargs):
                self.fh = open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:7])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("segalign.atomic.open", FullDisk, raising=False)
        with pytest.raises(MotionFormatError, match="No space left"):
            save_motion(MotionSequence(frames=np.zeros((4, 3))), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.sgmo"]

    def test_written_file_has_the_permissions_of_a_plain_open(self, tmp_path):
        save_motion(MotionSequence(frames=np.ones((1, 1))), tmp_path / "m.sgmo")
        (tmp_path / "plain").write_bytes(b"")
        assert (tmp_path / "m.sgmo").stat().st_mode == (tmp_path / "plain").stat().st_mode


class TestSynthMotion:
    def test_zero_noise_exact_means(self):
        spec = SyntheticSpec(
            frames_per_regime=[3, 3],
            regime_means=[np.array([0.0]), np.array([5.0])],
            noise_std=0.0,
            seed=1,
        )
        m, bounds = synth_motion(spec)
        np.testing.assert_array_equal(m.frames.ravel(), [0, 0, 0, 5, 5, 5])
        assert bounds == [3]

    def test_single_regime_no_boundaries(self):
        spec = SyntheticSpec(frames_per_regime=[4], regime_means=[np.zeros(2)], seed=0)
        _, bounds = synth_motion(spec)
        assert bounds == []

    def test_deterministic(self):
        spec = SyntheticSpec(
            frames_per_regime=[5, 5], regime_means=[np.zeros(3), np.ones(3)], noise_std=0.5, seed=42,
        )
        m1, b1 = synth_motion(spec)
        m2, b2 = synth_motion(spec)
        np.testing.assert_array_equal(m1.frames, m2.frames)
        assert b1 == b2

    @pytest.mark.parametrize("frames,means,message", [
        pytest.param([], [], "at least one regime", id="no-regime"),
        pytest.param([3], [np.zeros(1), np.ones(1)], "one mean per regime", id="extra-mean"),
        pytest.param([3, 3], [np.zeros(1)], "one mean per regime", id="missing-mean"),
        pytest.param([3, 3], [np.zeros(2), np.ones(3)], "same dimension", id="mixed-dims"),
        pytest.param([3, 0], [np.zeros(2), np.ones(2)], "at least one frame", id="empty-regime"),
    ])
    def test_spec_validation(self, frames, means, message):
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(frames_per_regime=frames, regime_means=means, seed=0)


class TestLatentProjection:
    def test_mean_of_constant(self):
        m = MotionSequence(frames=np.full((8, 2), 3.5))
        v = project_latent(m, 4)
        assert v.length == 2
        np.testing.assert_allclose(v.vectors, 3.5)

    def test_arithmetic_mean(self):
        m = MotionSequence(frames=np.array([[1.0], [2.0], [3.0], [4.0]]))
        v = project_latent(m, 4)
        np.testing.assert_allclose(v.vectors, [[2.5]])

    def test_too_short_errors(self):
        m = MotionSequence(frames=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            project_latent(m, 4)

    def test_trailing_frames_dropped(self):
        m = MotionSequence(frames=np.arange(10, dtype=float).reshape(10, 1))
        v = project_latent(m, 4)
        assert v.length == 2

    def test_reconstruct_repeats(self):
        v = LatentSequence(vectors=np.array([[2.5]]))
        m = reconstruct_motion(v, 4)
        np.testing.assert_allclose(m.frames.ravel(), [2.5, 2.5, 2.5, 2.5])

    def test_reconstruct_order(self):
        v = LatentSequence(vectors=np.array([[1.0], [2.0]]))
        m = reconstruct_motion(v, 2)
        np.testing.assert_allclose(m.frames.ravel(), [1, 1, 2, 2])

    def test_project_reconstruct_identity_on_piecewise_constant(self):
        frames = np.repeat(np.array([[1.0], [7.0]]), 4, axis=0)
        m = MotionSequence(frames=frames)
        v = project_latent(m, 4)
        back = reconstruct_motion(v, 4)
        np.testing.assert_allclose(back.frames, frames)
        v2 = project_latent(back, 4)
        np.testing.assert_allclose(v2.vectors, v.vectors)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        records = [
            DatasetRecord(
                id="r0",
                raw_text="a person walks then runs",
                text_segments=["a person walks", "a person runs"],
                motion_path="motions/r0.sgmo",
                precomputed_embeddings=[[0.0, 1.0], [1.0, 0.0]],
            ),
            DatasetRecord(
                id="r1", raw_text="a person jumps",
                text_segments=["a person jumps"], motion_path="motions/r1.sgmo",
            ),
        ]
        path = tmp_path / "data.jsonl"
        write_dataset(records, path)
        loaded = read_dataset(path)
        assert [r.id for r in loaded] == ["r0", "r1"]
        assert loaded[0].precomputed_embeddings == [[0.0, 1.0], [1.0, 0.0]]
        assert loaded[1].precomputed_embeddings is None
        # byte-exact rewrite
        path2 = tmp_path / "data2.jsonl"
        write_dataset(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "data.jsonl"
        line = '{{"id": "{}", "text": "t", "segments": ["t"], "motion": "m.sgmo"}}\n'
        path.write_text(line.format("r0") + line.format("r1") + "\n" + line.format("r0"), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_dataset(path)
        assert str(err.value) == f"{path}:4: duplicate id 'r0' (first on line 1)"

    def test_mixed_embedding_dims_rejected(self):
        for rows in ([[1.0], [1.0, 2.0]], [[], []]):
            with pytest.raises(ValueError, match="embedding rows must be non-empty and of one length"):
                DatasetRecord(
                    id="bad", raw_text="x", text_segments=["x", "y"],
                    motion_path="p", precomputed_embeddings=rows,
                )
