"""Retrieval applications and evaluation metrics.

Motion grounding and motion-to-text retrieval operate in the shared
embedding space defined by the alignment aggregator.  The evaluation
metrics (R-Precision, MM-Dist, FID, Diversity, ISC/CV) follow the standard
text-to-motion protocol: pooled retrieval accuracy, paired feature distance,
Frechet distance between fitted Gaussians, and mean pairwise distance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .alignment import NORM_FLOOR, AggregatorParams, _unit_rows, cosine_matrix, embed_spans
from .rvq import sqdist
from .segmentation import extract_windows

DIVERSITY_PAIRS = 300
POOL_SIZE = 32

FID_EPS = 1e-6
FID_EIG_TOL = -1e-8


@dataclass
class EvalReport:
    metrics: dict[str, float] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        if not np.isfinite(value):
            raise ValueError(f"metric {name} is non-finite")
        self.metrics[name] = float(value)


def motion_grounding(
    text: np.ndarray, motion_tokens: np.ndarray, model: AggregatorParams, window_size: int = 5, stride: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """(best start (A,), similarities (A, n_windows)) of the (A, d_embed)
    text rows against each ``window_size`` window of the motion tokens, one
    every ``stride`` tokens; ties -> lowest start.  The windows are embedded
    and normalized once, and each text row takes its own one-row product:
    the bits of ``cosine_matrix(text[j][None], windows)[0]``."""
    if window_size < 1 or stride < 1:
        raise ValueError("window_size and stride must be >= 1")
    windows = extract_windows(motion_tokens, window_size, stride)
    unit_windows = _unit_rows(embed_spans(windows.reshape(len(windows), window_size, -1), model))
    sims = np.vstack([_unit_rows(t[None]) @ unit_windows.T for t in np.asarray(text, dtype=np.float64)])
    return sims.argmax(axis=1) * stride, sims


def m2t_retrieve(m_q: np.ndarray, candidates: np.ndarray) -> int:
    """Index of the candidate text embedding most similar to the query motion:
    the per-query reference tests check ``segalign retrieve`` against."""
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.ndim != 2 or candidates.shape[0] < 1:
        raise ValueError("need at least one candidate")
    sims = cosine_matrix(np.asarray(m_q, dtype=np.float64)[None, :], candidates)[0]
    return int(np.argmax(sims))


def isc_score(pairs) -> float:
    """Mean cosine similarity over (text segment, motion segment) pairs, in one
    pass.  The dots are one-row ``matmul``s, which round as the 1-D products
    in :func:`cosine_sim` do, so each similarity equals its, bit for bit."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no pairs")
    T, M = (np.array(side, dtype=np.float64) for side in zip(*pairs))
    if T.ndim != 2 or T.shape != M.shape:
        raise ValueError(f"dimension mismatch: {T.shape} vs {M.shape}")
    tt, mm, tm = ((A[:, None, :] @ B[:, :, None])[:, 0, 0] for A, B in ((T, T), (M, M), (T, M)))
    na, nb = np.sqrt(tt), np.sqrt(mm)
    floored = (na < NORM_FLOOR) | (nb < NORM_FLOOR)
    return float(np.mean(np.where(floored, 0.0, tm / np.where(floored, 1.0, na * nb))))


def isc_cv(isc_values) -> float:
    """Coefficient of variation: population std / mean of per-condition ISC."""
    vals = np.asarray(list(isc_values), dtype=np.float64)
    if vals.size == 0:
        raise ValueError("empty ISC list")
    mean = float(vals.mean())
    if mean == 0.0:
        raise ValueError("ISC mean is zero; CV undefined")
    return float(vals.std() / mean)


def r_precision(text_embs: np.ndarray, motion_embs: np.ndarray, topk: int = 1) -> float:
    """Pooled retrieval accuracy by Euclidean distance.

    Motions are ranked by squared distance (:func:`segalign.rvq.sqdist`,
    which orders the same as the distance) with a stable sort, so exact
    ties keep the lower index.

    Samples are chunked into pools of ``POOL_SIZE`` (drop-last); each text
    ranks the motions in its pool, and the fraction whose true pair lands in
    the top k is returned.  Fewer samples than one pool fall back to a single
    smaller pool, with a warning.
    """
    T = np.asarray(text_embs, dtype=np.float64)
    M = np.asarray(motion_embs, dtype=np.float64)
    if T.shape[0] != M.shape[0]:
        raise ValueError("text/motion count mismatch")
    n = T.shape[0]
    if n <= topk:
        raise ValueError(f"need more than topk={topk} samples")
    if n < POOL_SIZE:
        warnings.warn(
            f"only {n} samples; evaluating a single pool smaller than {POOL_SIZE}",
            RuntimeWarning,
        )
        pools = [np.arange(n)]
    else:
        pools = [np.arange(i, i + POOL_SIZE) for i in range(0, n - POOL_SIZE + 1, POOL_SIZE)]
    hits = 0
    total = 0
    for pool in pools:
        top = np.argsort(sqdist(T[pool], M[pool]), axis=1, kind="stable")[:, :topk]
        hits += int((top == np.arange(len(pool))[:, None]).any(axis=1).sum())
        total += len(pool)
    return hits / total


def mm_dist(text_embs: np.ndarray, motion_embs: np.ndarray) -> float:
    """Mean Euclidean distance between paired features."""
    T = np.asarray(text_embs, dtype=np.float64)
    M = np.asarray(motion_embs, dtype=np.float64)
    if T.shape != M.shape:
        raise ValueError(f"paired lists must have identical shapes, got {T.shape} and {M.shape}")
    return float(np.linalg.norm(T - M, axis=1).mean())


def diversity(motion_embs: np.ndarray, seed: int = 0) -> float:
    """Mean Euclidean distance over ``DIVERSITY_PAIRS`` seeded random pairs
    of distinct indices.

    Indices within a pair are distinct; pairs may repeat across draws.  The
    squared lengths are one stacked product of one-row ``matmul``s, which
    round as the 1-D product in ``np.linalg.norm`` does, and the distances
    are summed in draw order, so the mean equals that of a per-pair loop
    bit for bit.
    """
    M = np.asarray(motion_embs, dtype=np.float64)
    if M.shape[0] < 2:
        raise ValueError("need at least two embeddings")
    rng = np.random.default_rng(seed)
    pairs = np.array([rng.choice(M.shape[0], size=2, replace=False) for _ in range(DIVERSITY_PAIRS)])
    D = M[pairs[:, 0]] - M[pairs[:, 1]]
    total = 0.0
    for dist in np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0]).tolist():
        total += dist   # not sum(), which compensates its rounding on Python 3.12+
    return total / DIVERSITY_PAIRS


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    """Square root of a symmetric PSD matrix via eigendecomposition."""
    sym = (mat + mat.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    if np.any(vals < FID_EIG_TOL):
        raise ValueError(f"covariance is indefinite (min eigenvalue {vals.min():.3e})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def fid_from_stats(mu_a, cov_a, mu_b, cov_b) -> float:
    """Frechet distance between two Gaussians from their statistics:
    ||mu_a - mu_b||^2 + tr(Ca + Cb - 2 (Ca^1/2 Cb Ca^1/2)^1/2)."""
    mu_a = np.asarray(mu_a, dtype=np.float64)
    mu_b = np.asarray(mu_b, dtype=np.float64)
    cov_a = np.asarray(cov_a, dtype=np.float64)
    cov_b = np.asarray(cov_b, dtype=np.float64)
    root_a = _sym_sqrt(cov_a)
    inner = _sym_sqrt(root_a @ cov_b @ root_a)
    diff = mu_a - mu_b
    val = float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * np.trace(inner))
    return max(val, 0.0)


def fid(feats_a: np.ndarray, feats_b: np.ndarray) -> float:
    """FID between two feature sets via fitted Gaussians.

    Covariances get +FID_EPS*I regularization; desk-scale sample covariances
    are near-singular without it.
    """
    A = np.asarray(feats_a, dtype=np.float64)
    B = np.asarray(feats_b, dtype=np.float64)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise ValueError("non-finite features")
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError("feature sets must be 2-D with matching dimension")
    if min(len(A), len(B)) < 2:
        raise ValueError(f"fid needs at least 2 rows in each feature set, got {len(A)} and {len(B)}")
    d = A.shape[1]
    mu_a, mu_b = A.mean(axis=0), B.mean(axis=0)
    cov_a = np.cov(A, rowvar=False).reshape(d, d) + FID_EPS * np.eye(d)
    cov_b = np.cov(B, rowvar=False).reshape(d, d) + FID_EPS * np.eye(d)
    return fid_from_stats(mu_a, cov_a, mu_b, cov_b)
