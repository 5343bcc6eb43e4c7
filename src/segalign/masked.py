"""Masked-token generation protocol.

Training-time random masking, the masked-position negative-log-likelihood
loss, the cosine unmasking schedule, confidence-based iterative decoding with
a pluggable predictor, and the layer-by-layer residual decoding protocol.
Decoding is argmax only and takes no seed: ties go to the lowest code, then
to the lowest position, so decodes and traces are bit-stable.  Predictors
must return finite probability rows; a row with a NaN or infinite entry is
rejected like any other row that is not a distribution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .rvq import TokenSequence

MASK = -1

PROB_FLOOR = 1e-12
PROB_SUM_TOL = 1e-9


class PredictorContractError(ValueError):
    """A predictor returned something other than valid probability rows."""


class TokenPredictor(Protocol):
    """Behavioral contract: probability rows over the base codebook.

    ``predict(cond, tokens)`` takes the (L,) int64 tokens, ``MASK`` at the
    masked positions, and returns an (L, K) matrix whose masked-position
    rows are probability vectors: finite, nonnegative and summing to 1
    within 1e-9.

    ``iterative_decode`` passes each call a fresh copy of its tokens, so a
    predictor may keep (or scribble on) the array it is given without
    affecting the decode or the values a later call sees.
    """

    def predict(self, cond, tokens: np.ndarray) -> np.ndarray: ...


def mask_random(tokens: np.ndarray, ratio: float, seed: int) -> np.ndarray:
    """A copy of the tokens with ceil(ratio * L) uniformly chosen positions,
    seeded, set to MASK."""
    tokens = np.asarray(tokens, dtype=np.int64)
    length = tokens.shape[0]
    if length < 1:
        raise ValueError("empty token sequence")
    if not (0.0 < ratio <= 1.0):
        raise ValueError("ratio must lie in (0, 1]")
    count = math.ceil(ratio * length)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(length, size=count, replace=False)
    masked = tokens.copy()
    masked[chosen] = MASK
    return masked


def mask_loss(pred: np.ndarray, truth: np.ndarray, masked: np.ndarray) -> float:
    """Negative log-likelihood of the true tokens, summed in ascending order
    over the positions where ``masked`` holds MASK.

    Zero probabilities are floored at 1e-12 with a warning.
    """
    at = np.flatnonzero(np.asarray(masked) == MASK)
    probs = np.asarray(pred, dtype=np.float64)[at, np.asarray(truth, dtype=np.int64)[at]].tolist()
    if any(p < PROB_FLOOR for p in probs):
        warnings.warn("mask_loss: target probability floored at 1e-12", RuntimeWarning)
    return sum((-math.log(max(p, PROB_FLOOR)) for p in probs), 0.0)


def mask_count_schedule(total_iters: int, length: int) -> list[int]:
    """Masked-token counts [m_0, ..., m_T] under the cosine schedule: m_0 = L,
    m_T = 0, and in between floor(L * cos(pi t / 2T)), clamped to strictly
    decrease by at least one per iteration (never below zero)."""
    out = [length]
    for t in range(1, total_iters + 1):
        if t == total_iters:
            out.append(0)
        else:
            raw = math.floor(length * math.cos(math.pi * t / (2 * total_iters)))
            out.append(max(0, min(raw, out[-1] - 1)))
    return out


@dataclass(frozen=True)
class Schedule:
    total_iters: int

    def __post_init__(self):
        if self.total_iters < 1:
            raise ValueError("total_iters must be >= 1")


def _check_rows(rows: np.ndarray, positions) -> None:
    """Reject the first of ``rows``, the probability rows at ``positions``,
    in ``positions`` order, that is not finite, has a negative entry or does
    not sum to 1 within ``PROB_SUM_TOL``.  The test is written so that a NaN
    entry, which fails every comparison, fails it too.  A row holding both
    +inf and -inf sums to NaN, which is rejected without a warning."""
    with np.errstate(invalid="ignore"):
        ok = (rows >= 0).all(axis=1) & (np.abs(rows.sum(axis=1) - 1.0) <= PROB_SUM_TOL)
    if not ok.all():
        raise PredictorContractError(
            f"position {positions[ok.argmin()]}: probabilities must be nonnegative and sum to 1"
        )


def iterative_decode(
    cond,
    length: int,
    predictor: TokenPredictor,
    schedule: Schedule,
    trace: list | None = None,
) -> np.ndarray:
    """Confidence-based iterative unmasking from a fully masked sequence.

    At every iteration all masked positions are predicted and each takes its
    argmax token (ties toward the lowest code); the most confident
    predictions are committed so that exactly m_t positions remain masked.
    Committed tokens are never re-masked.  Confidence ties break toward the
    lowest position.  ``trace``, when given, receives one dict per iteration.
    """
    counts = mask_count_schedule(schedule.total_iters, length)
    tokens = np.full(length, MASK, dtype=np.int64)
    for t in range(1, schedule.total_iters + 1):
        masked = np.flatnonzero(tokens == MASK)
        if masked.size == 0:
            if trace is not None:
                trace.append({"iteration": t, "masked_count": 0, "fixed_indices": []})
            continue
        probs = np.asarray(predictor.predict(cond, tokens.copy()), dtype=np.float64)
        if probs.shape[0] != length:
            raise PredictorContractError("predictor returned wrong number of rows")
        rows = probs[masked]
        _check_rows(rows, masked)
        chosen = rows.argmax(axis=1)
        conf = rows[np.arange(masked.size), chosen]
        # confidence descending, index ascending on ties
        commit = np.lexsort((masked, -conf))[: masked.size - counts[t]]
        fixed = masked[commit]
        tokens[fixed] = chosen[commit]
        if trace is not None:
            trace.append(
                {"iteration": t, "masked_count": int(counts[t]), "fixed_indices": np.sort(fixed).tolist()}
            )
    if np.any(tokens == MASK):
        raise RuntimeError("decode finished with masked positions left")
    return tokens


def residual_decode(cond, base_tokens: np.ndarray, layer_predictors, num_residual_layers: int) -> TokenSequence:
    """Produce residual layers one at a time on top of the base tokens.

    ``layer_predictors[i-1]`` handles layer i and is called with
    (cond, layers_so_far) where layers_so_far is the (i, L) matrix of all
    preceding layers; it returns (L, K_i) probability rows.  One loop queries
    the layers in order 1..k, so layer i always sees exactly layers 0..i-1.
    """
    base = np.asarray(base_tokens, dtype=np.int64)
    if num_residual_layers < 0:
        raise ValueError("layer count must be nonnegative")
    if len(layer_predictors) < num_residual_layers:
        raise ValueError(
            f"need {num_residual_layers} layer predictors, got {len(layer_predictors)}"
        )
    layers = [base]
    for i in range(1, num_residual_layers + 1):
        so_far = np.stack(layers)
        probs = np.asarray(layer_predictors[i - 1](cond, so_far), dtype=np.float64)
        if probs.shape[0] != base.shape[0]:
            raise PredictorContractError(f"layer {i}: wrong number of rows")
        _check_rows(probs, np.arange(probs.shape[0]))
        layers.append(np.argmax(probs, axis=1).astype(np.int64))
    return TokenSequence(layers=np.stack(layers))


class OraclePredictor:
    """Always assigns probability 1 to a known target sequence.

    The one-hot rows are built from ``target`` once, at construction: every
    ``predict`` call returns that same read-only (L, K) array, so a caller
    that wants to edit it takes a copy, and a later change to ``target``
    does not reach it (build a new predictor instead)."""

    def __init__(self, target: np.ndarray, num_codes: int):
        self.target = np.asarray(target, dtype=np.int64)
        self.num_codes = num_codes
        self._probs = np.zeros((self.target.shape[0], num_codes))
        self._probs[np.arange(self.target.shape[0]), self.target] = 1.0
        self._probs.flags.writeable = False

    def predict(self, cond, tokens: np.ndarray) -> np.ndarray:
        return self._probs


class SoftmaxRegressionPredictor:
    """Tiny trainable predictor: shared softmax regression on condition features.

    Every position gets the same distribution, a bag-of-condition model; it
    exists so the end-to-end demo has something learnable, not for quality.
    """

    def __init__(self, feat_dim: int, num_codes: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.w = rng.normal(0.0, 0.01, size=(num_codes, feat_dim))
        self.b = np.zeros(num_codes)
        self.num_codes = num_codes

    def _probs(self, X: np.ndarray) -> np.ndarray:
        """The code distribution of each (S, F) condition row."""
        logits = X @ self.w.T + self.b
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        return e / e.sum(axis=1, keepdims=True)

    def predict(self, cond, tokens: np.ndarray) -> np.ndarray:
        return np.repeat(self._probs(np.asarray(cond, dtype=np.float64)[None]), len(tokens), axis=0)

    def _loss_and_grads(self, X: np.ndarray, N: np.ndarray):
        """(summed loss, dL/dw, dL/db) of the token cross-entropy over every
        token, given the (S, F) condition rows and the (S, K) count of each
        code in each sample's tokens; a probability is floored at 1e-12 in
        the loss only."""
        P = self._probs(X)
        loss = -(N * np.log(np.maximum(P, PROB_FLOOR))).sum()
        # each token of sample s adds P[s] - onehot(token)
        G = N.sum(axis=1, keepdims=True) * P - N
        return float(loss), G.T @ X, G.sum(axis=0)

    def fit(self, conds, token_seqs, steps: int = 200, lr: float = 0.5) -> list[float]:
        """Full-batch gradient descent on the token unigram cross-entropy
        given the condition, averaged over all tokens; returns the loss
        before each step."""
        X = np.asarray(list(conds), dtype=np.float64)
        seqs = [np.asarray(seq, dtype=np.int64) for seq in token_seqs]
        if X.shape != (len(seqs), self.w.shape[1]):
            raise ValueError(f"need one condition of {self.w.shape[1]} features per token sequence, got {X.shape}")
        if any(((seq < 0) | (seq >= self.num_codes)).any() for seq in seqs):
            raise ValueError(f"token outside [0, {self.num_codes})")
        N = np.array([np.bincount(seq, minlength=self.num_codes) for seq in seqs], dtype=np.float64)
        count = N.sum()
        if count == 0:
            raise ValueError("no tokens to fit")
        curve = []
        for _ in range(steps):
            loss, gw, gb = self._loss_and_grads(X, N)
            self.w -= lr * gw / count
            self.b -= lr * gb / count
            curve.append(loss / count)
        return curve
