"""Core motion data types, synthetic corpus generation, and binary file I/O.

A motion is a dense frame matrix (N frames x D pose dims).  The latent
projection / reconstruction pair stands in for a learned encoder/decoder:
block means downsample by an integer ratio, and reconstruction repeats each
latent vector.  Token index ``i`` therefore covers frames
``[i*ratio, (i+1)*ratio)``, which is the only property downstream code
relies on.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .atomic import write_atomic
from .jsonio import hex_rows, json_object, unhex_rows, write_jsonl

MAGIC = b"SGMO"

DEFAULT_DOWNSAMPLE_RATIO = 4


class MotionFormatError(ValueError):
    """Base class for motion-file format problems."""


class BadMagicError(MotionFormatError):
    pass


class BadHeaderError(MotionFormatError):
    """The header declares zero frames or zero dims."""


class TruncatedPayloadError(MotionFormatError):
    pass


class TrailingBytesError(MotionFormatError):
    """Bytes follow the payload the header declares."""


class NonFiniteValueError(MotionFormatError):
    pass


def _as_finite_matrix(arr, name: str) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float64) if np.asarray(arr).dtype != np.float32 else np.asarray(arr)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must be a non-empty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteValueError(f"{name} contains non-finite values")
    return a


@dataclass(frozen=True)
class MotionSequence:
    """Continuous motion, frame-major: frames[i] is the pose at frame i."""

    frames: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frames", _as_finite_matrix(self.frames, "frames"))

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class LatentSequence:
    """Downsampled latent vectors, one row per motion token."""

    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", _as_finite_matrix(self.vectors, "vectors"))

    @property
    def length(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass
class DatasetRecord:
    """One annotated sample: text, its ordered segments, a motion file, and
    optionally one embedding row per segment, which synth does not write:
    only a hand-written dataset carries them."""

    id: str
    raw_text: str
    text_segments: list[str]
    motion_path: str
    precomputed_embeddings: list[list[float]] | None = None

    def __post_init__(self):
        if len(self.text_segments) < 1:
            raise ValueError(f"record {self.id}: needs at least one text segment")
        if any(not s for s in self.text_segments):
            raise ValueError(f"record {self.id}: empty text segment")
        rows = self.precomputed_embeddings
        if rows is not None:
            if len({len(e) for e in rows}) > 1 or not all(rows):
                raise ValueError(f"record {self.id}: embedding rows must be non-empty and of one length")
            if len(rows) != len(self.text_segments):
                raise ValueError(f"record {self.id}: {len(rows)} embedding rows for {len(self.text_segments)} segments")


@dataclass(frozen=True)
class SyntheticSpec:
    """Piecewise-constant regimes plus Gaussian noise, with known boundaries:
    regime i holds ``regime_means[i]`` for ``frames_per_regime[i]`` frames."""

    frames_per_regime: list[int]
    regime_means: list[np.ndarray]
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.frames_per_regime or len(self.frames_per_regime) != len(self.regime_means):
            raise ValueError("need at least one regime, and one mean per regime")
        if any(f < 1 for f in self.frames_per_regime):
            raise ValueError("every regime needs at least one frame")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")
        if len({len(np.atleast_1d(m)) for m in self.regime_means}) != 1:
            raise ValueError("regime means must all have the same dimension")


def save_motion(m: MotionSequence, path) -> None:
    """Write a motion to the fixed little-endian binary format.

    Layout: magic "SGMO", uint32 N, uint32 D, then N*D float32 row-major.
    """
    frames = np.ascontiguousarray(m.frames, dtype="<f4")
    n, d = frames.shape
    try:
        write_atomic(path, MAGIC + struct.pack("<II", n, d) + frames.tobytes())
    except OSError as exc:
        raise MotionFormatError(f"cannot write motion file {path}: {exc}") from exc


def load_motion(path) -> MotionSequence:
    """Read a motion written by :func:`save_motion`.

    The file must be exactly the header plus the N*D floats it declares;
    anything else raises a :class:`MotionFormatError` subclass.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise MotionFormatError(f"cannot read motion file {path}: {exc}") from exc
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise BadMagicError(f"{path}: bad magic bytes (not a SGMO motion file)")
    n, d = struct.unpack_from("<II", blob, 4)
    if n == 0 or d == 0:
        raise BadHeaderError(f"{path}: header declares {n} frames x {d} dims")
    expected = 12 + 4 * n * d
    if len(blob) != expected:
        kind = TruncatedPayloadError if len(blob) < expected else TrailingBytesError
        raise kind(f"{path}: payload is {len(blob)} bytes, header declares {expected}")
    frames = np.frombuffer(blob, dtype="<f4", count=n * d, offset=12).reshape(n, d)
    if not np.all(np.isfinite(frames)):
        raise NonFiniteValueError(f"{path}: non-finite value in payload")
    return MotionSequence(frames=frames.copy())


def synth_motion(spec: SyntheticSpec) -> tuple[MotionSequence, list[int]]:
    """Generate a piecewise-constant-plus-noise motion with known boundaries.

    Returns the motion and the cumulative frame indices where regimes change
    (empty for a single regime).  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(spec.seed)
    chunks = []
    for count, mean in zip(spec.frames_per_regime, spec.regime_means):
        mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        # one draw at any std, so the rng stream position does not depend on
        # it; a zero std adds only zeros
        chunks.append(np.tile(mean, (count, 1)) + rng.normal(0.0, spec.noise_std, size=(count, mean.size)))
    frames = np.vstack(chunks)
    boundaries = list(np.cumsum(spec.frames_per_regime)[:-1].astype(int))
    return MotionSequence(frames=frames), boundaries


def project_latent(m: MotionSequence, ratio: int = DEFAULT_DOWNSAMPLE_RATIO) -> LatentSequence:
    """Block-mean downsample: latent i = mean of frames [i*ratio, (i+1)*ratio).

    Trailing ``N mod ratio`` frames are dropped.
    """
    if ratio < 1:
        raise ValueError("ratio must be a positive integer")
    n_frames = m.num_frames
    if n_frames < ratio:
        raise ValueError(f"motion has {n_frames} frames, fewer than ratio {ratio}")
    n = n_frames // ratio
    trimmed = m.frames[: n * ratio].reshape(n, ratio, m.dim)
    return LatentSequence(vectors=trimmed.mean(axis=1))


def reconstruct_motion(v: LatentSequence, ratio: int = DEFAULT_DOWNSAMPLE_RATIO) -> MotionSequence:
    """Repeat each latent vector ratio times: N = n * ratio."""
    if ratio < 1:
        raise ValueError("ratio must be a positive integer")
    return MotionSequence(frames=np.repeat(v.vectors, ratio, axis=0))


# --- dataset JSON-lines I/O -------------------------------------------------

def write_dataset(records: list[DatasetRecord], path) -> None:
    """Write the records to ``path``, one JSON line each: id, text,
    segments, motion[, embeddings], the embeddings as ``jsonio.hex_rows``."""

    def line(r: DatasetRecord) -> dict:
        obj = {"id": r.id, "text": r.raw_text, "segments": list(r.text_segments), "motion": r.motion_path}
        if r.precomputed_embeddings is not None:
            obj["embeddings"] = hex_rows(r.precomputed_embeddings)
        return obj

    write_jsonl(path, map(line, records))


def _list_of(value, kind) -> bool:
    return isinstance(value, list) and all(isinstance(v, kind) for v in value)


def _record_from_json(obj) -> DatasetRecord:
    json_object(obj, "id", "text", "segments", "motion")
    embeddings = obj.get("embeddings")
    for name, ok, kind in (
        ("id", isinstance(obj["id"], str), "a string"),
        ("text", isinstance(obj["text"], str), "a string"),
        ("segments", _list_of(obj["segments"], str), "a list of strings"),
        ("motion", isinstance(obj["motion"], str), "a string"),
    ):
        if not ok:
            raise ValueError(f"field {name!r} must be {kind}")
    if embeddings is not None:
        embeddings = unhex_rows(embeddings, None, "field 'embeddings'", None).tolist()
    return DatasetRecord(
        id=obj["id"],
        raw_text=obj["text"],
        text_segments=obj["segments"],
        motion_path=obj["motion"],
        precomputed_embeddings=embeddings,
    )


def read_dataset(path) -> list[DatasetRecord]:
    """The records of a dataset JSON-lines file, blank lines skipped; a bad
    line, or one whose id an earlier line took, is a ValueError that starts
    with ``<path>:<line number>: ``."""
    records = []
    first_line = {}  # id -> line number
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = _record_from_json(json.loads(line.decode("utf-8")))
            except ValueError as exc:  # json.JSONDecodeError and UnicodeDecodeError included
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            if record.id in first_line:
                raise ValueError(f"{path}:{line_no}: duplicate id {record.id!r} (first on line {first_line[record.id]})")
            first_line[record.id] = line_no
            records.append(record)
    return records
