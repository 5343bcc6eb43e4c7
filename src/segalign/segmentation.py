"""Partitioning a token sequence into contiguous segments.

Three segmenters share one contract: spans are half-open, cover [0, n), and
tie-breaks always prefer the lowest index so every method is deterministic
and comparable against the exhaustive oracle.

  * uniform: lengths differ by at most one, longer spans first;
  * kernel CPD: exact DP minimizing within-segment Gaussian-kernel cost;
  * clustering: windows scored against a k-means primitive library, exact DP
    over contiguous runs each assigned one primitive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .jsonio import json_object, numeric_array, positive_int
from .motion import LatentSequence
from .rvq import kmeans, sqdist

DEFAULT_WINDOW_SIZE = 4
DEFAULT_WINDOW_STRIDE = 1
DEFAULT_LIBRARY_SIZE = 64

BRUTE_FORCE_MAX_N = 16
BRUTE_FORCE_MAX_A = 4


@dataclass(frozen=True)
class SegmentBoundaries:
    """Ordered half-open (start, end) spans covering [0, n)."""

    spans: tuple[tuple[int, int], ...]

    def __post_init__(self):
        spans = tuple((int(s), int(e)) for s, e in self.spans)
        if not spans:
            raise ValueError("empty span list")
        if spans[0][0] != 0:
            raise ValueError("first span must start at 0")
        for (s, e), (s2, _) in zip(spans, spans[1:]):
            if e != s2:
                raise ValueError("spans must be contiguous")
        if any(e <= s for s, e in spans):
            raise ValueError("every span must be non-empty")
        object.__setattr__(self, "spans", spans)

    @property
    def length(self) -> int:
        return self.spans[-1][1]

    @property
    def num_segments(self) -> int:
        return len(self.spans)

    @property
    def cuts(self) -> tuple[int, ...]:
        """Interior cut points (excludes 0 and n)."""
        return tuple(e for _, e in self.spans[:-1])

    @classmethod
    def from_cuts(cls, n: int, cuts) -> "SegmentBoundaries":
        edges = [0, *sorted(int(c) for c in cuts), n]
        return cls(spans=tuple(zip(edges[:-1], edges[1:])))


@dataclass(frozen=True)
class PrimitiveLibrary:
    """Cluster centers of flattened motion windows (window_size * d each)."""

    centers: np.ndarray
    window_size: int
    stride: int

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] < 1:
            raise ValueError("library needs at least one center")
        if self.window_size < 1 or self.stride < 1:
            raise ValueError("window_size and stride must be >= 1")
        object.__setattr__(self, "centers", c)

    @property
    def size(self) -> int:
        return self.centers.shape[0]


@dataclass(frozen=True)
class CostMatrix:
    """Window-to-primitive cost matrix, Nw rows x Kp columns."""

    costs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.costs, dtype=np.float64)
        if c.ndim != 2:
            raise ValueError("cost matrix must be 2-D")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite cost entry")
        object.__setattr__(self, "costs", c)


def uniform_segment(n: int, num_segments: int) -> SegmentBoundaries:
    """Evenly distribute n tokens; the first n mod A spans get the extra token."""
    if num_segments < 1:
        raise ValueError("need at least one segment")
    if num_segments > n:
        raise ValueError(f"cannot split {n} tokens into {num_segments} segments")
    q, r = divmod(n, num_segments)
    spans = []
    start = 0
    for i in range(num_segments):
        length = q + 1 if i < r else q
        spans.append((start, start + length))
        start += length
    return SegmentBoundaries(spans=tuple(spans))


# --- exact DP over span costs ----------------------------------------------
#
# The DPs and the brute-force oracle fold span costs right to left (last
# span first) with the same float steps.  Kernel CPD reads a precomputed
# (n+1, n+1) table C, C[s, e] the cost of span [s, e) and +inf where e <= s:
# a step is C[s, e] + acc.  Clustering builds no table: over the (Kp, nw+1)
# prefix P of window costs, a step is min_p ((P[p, e] + acc) - P[p, s]).
# A step is monotone in acc, the cost of what follows, so the minimum over
# suffixes commutes with it and the objectives agree bit for bit.  The DPs
# end a span at the lowest end whose candidate equals the optimum, and the
# oracle keeps the first optimum of its lexicographic enumeration (strict
# <): the same cuts unless rounding lets a worse suffix give the same
# candidate, which no exact (integer) tie does.
#
# The kernel cost table and its DP work on blocks of start rows s0 <= s < s1,
# so their scratch arrays do not grow with the square of the table: a block
# holds at most ``_BLOCK`` elements (one row if a row alone is wider).  In
# every block the entries with e <= s lie in the leading corner, below its
# diagonal.  _BLOCK is 2^13 float64 values, 64 KiB: in a sweep of 2^12 to
# 2^16 on the corpus benchmarks, larger blocks ran at most about 6% faster
# and raised the peak RSS by 0.4 to 2 MB, smaller ones ran slower.

_BLOCK = 1 << 13


def _row_blocks(rows: int, width: int):
    """Consecutive (s0, s1) blocks covering range(rows <= width) for a table
    whose row s is needed from column s0 to ``width``: a block's temporary of
    (s1 - s0, width - s0) cells holds at most ``_BLOCK`` elements, or is a
    single row.  Blocks grow as rows shorten."""
    s0 = 0
    while s0 < rows:
        s1 = min(rows, s0 + max(1, _BLOCK // (width - s0)))
        yield s0, s1
        s0 = s1


def _dp_partition(C: np.ndarray, n: int, num_segments: int) -> tuple[list[int], float]:
    """Minimize sum of span costs over contiguous partitions into A spans.

    ``C`` is the (n+1, n+1) span-cost table described above.  Returns
    (interior cuts, objective).  Among optimal partitions, the
    lexicographically smallest cut sequence is returned.

    Each step takes the candidates of one block of starts at a time.  The
    block's columns e <= s0 hold +inf for all its rows, so they are left
    out: the picks are those of a scan over every end whenever C is finite
    above its diagonal and no candidate sum overflows.  Working memory
    beyond C: O(n * A) for the best costs and picks, plus one block of at
    most ``_BLOCK`` elements (one row if wider).
    """
    A = num_segments
    # best[s]: cost of splitting [s, n) into the current number of spans
    best = C[:n, n]
    choices = []
    for a in range(2, A + 1):
        # a spans over [s, n) need s <= n - a; the first span ends at e <= n-a+1
        rows, hi = n - a + 1, n - a + 2
        pick = np.empty(rows, dtype=np.intp)
        step_best = np.empty(rows)
        for s0, s1 in _row_blocks(rows, hi):
            cand = C[s0:s1, s0 + 1 : hi] + best[s0 + 1 : hi]
            p = cand.argmin(axis=1)
            step_best[s0:s1] = cand[np.arange(s1 - s0), p]
            pick[s0:s1] = p + (s0 + 1)
        best = step_best
        choices.append(pick)
    cuts = []
    s = 0
    for pick in reversed(choices):
        s = int(pick[s])
        cuts.append(s)
    return cuts, float(best[0])


def _enumerate_partitions(n: int, num_segments: int):
    """All interior-cut tuples, in lexicographic order."""
    return itertools.combinations(range(1, n), num_segments - 1)


def _brute_force_partition(span_step, n: int, num_segments: int) -> tuple[list[int], float]:
    best_cuts = None
    best_obj = np.inf
    for cuts in _enumerate_partitions(n, num_segments):
        edges = [0, *cuts, n]
        acc = -0.0   # the empty suffix: x + -0.0 is x for every float x, -0.0 included
        for s, e in reversed(list(zip(edges[:-1], edges[1:]))):
            acc = span_step(s, e, acc)
        if acc < best_obj:
            best_obj = acc
            best_cuts = list(cuts)
    return best_cuts, float(best_obj)


# --- kernel change-point detection -----------------------------------------

def gaussian_kernel_matrix(x: np.ndarray, bandwidth="median", out: np.ndarray | None = None) -> np.ndarray:
    """Pairwise Gaussian kernel k(a,b) = exp(-||a-b||^2 / (2 sigma^2)).

    bandwidth "median" uses the median pairwise distance (1 if it is 0).
    Distances come from :func:`sqdist`; the diagonal is set to exactly 0, so
    every k(a, a) is exactly 1.  ``out``, if given, is an (n, n) float64
    array or view that receives the kernel and is returned; every step after
    :func:`sqdist` works in place in it, so the values are the same bits.

    The median is found by selection, not by sorting: one ``np.partition``
    picks the one or two middle squared distances of the upper triangle
    (the lower of two is the largest value left of the upper), and sigma
    is the square root of the middle one, or the mean of the square roots of
    the two.  As sqrt is monotone and numpy's mean of two values is one add
    and one divide, sigma equals ``np.median`` of the upper-triangle
    distances bit for bit whenever no squared distance is NaN.  So a non-finite ``x`` raises
    ValueError: no kernel built from it is usable, and ``partition`` sorts
    NaN last, so selection could give a finite sigma where ``np.median``
    gave NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("kernel input contains non-finite values")
    sigma = fixed_bandwidth(bandwidth)
    sq = sqdist(x, x, out=out)
    np.fill_diagonal(sq, 0.0)
    if sigma is None:   # the median over the upper triangle, or 1 if it is 0 or there is none
        n = x.shape[0]
        sigma = (_median_distance(sq[~np.tri(n, dtype=bool)]) if n > 1 else 0.0) or 1.0
    np.negative(sq, out=sq)
    # a tiny bandwidth overflows the quotient to -inf, and exp(-inf) = 0 is
    # the kernel value; every finite quotient keeps its bits
    with np.errstate(over="ignore"):
        sq /= 2.0 * sigma * sigma
    return np.exp(sq, out=sq)


def fixed_bandwidth(bandwidth) -> float | None:
    """None for "median", else the bandwidth as a finite positive float
    whose 2 sigma^2 does not underflow to 0."""
    if bandwidth == "median":
        return None
    sigma = float(bandwidth)
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"bandwidth must be 'median' or a finite positive number, got {bandwidth!r}")
    if 2.0 * sigma * sigma == 0.0:
        raise ValueError(f"bandwidth {bandwidth!r} is too small: 2 * bandwidth^2 underflows to 0")
    return sigma


def _median_distance(v: np.ndarray) -> float:
    """``np.median(np.sqrt(v))`` of squared distances ``v``, by selection.

    Partitions ``v`` in place.
    """
    h = v.size // 2
    v.partition(h)
    if v.size % 2:
        return float(np.sqrt(v[h]))
    return float((np.sqrt(v[:h].max()) + np.sqrt(v[h])) / 2.0)


def kernel_span_cost(K: np.ndarray, s: int, e: int) -> float:
    """Within-segment kernel cost of the half-open span [s, e): the per-span
    reference tests check ``kernel_cost_table`` against."""
    block = K[s:e, s:e]
    return float(np.trace(block) - block.sum() / (e - s))


def kernel_cost_table(K: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """C[s, e] = within-segment kernel cost of [s, e), for all spans at once.

    K must be symmetric.  The block sums of K over [s, e) x [s, e) grow one
    column at a time: column j joining block [s, j) adds
    2 (P[j, j] - P[s, j]) + 2 K[s, j] - K[j, j], with P = cumsum(K, axis=0).
    Each cost then carries O(eps * n) rounding error (a 2-D cumulative sum
    gives O(eps * n^2)).  Costs are clamped at 0; entries with e <= s are +inf.

    The table is built one block of start rows at a time (``_row_blocks``).
    A block's increments for columns j >= s0 are zeroed where j < s, then
    one ``cumsum`` along the row adds them left to right, as a loop adding
    one column per step to a zero-initialised sum would.  Adding the
    leading zeros is exact, and a row's first increment, 2 K[s, s] - K[s, s],
    is never -0.0, so it equals 0.0 plus itself: every cost is the same
    float bit for bit.

    ``out``, if given, is an (n+1, n+1) float64 array that receives C and is
    returned.  Its ``[:n, :n]`` block may be K itself: a block's increments
    read its K rows before its C rows are written, and later blocks read
    only later rows, so C is built over K with the same bits.  Any other
    overlap of ``out`` and K is a ValueError.  Without ``out``, K is left
    untouched.  Working memory beyond K and C is P, n^2 float64 values,
    plus a few (rows, n - s0) temporaries of at most ``_BLOCK`` elements
    each (one row if n is larger): with ``out`` over K, two n^2 tables in
    all, about 1.6 GB at n = 10,000.
    """
    n = K.shape[0]
    C = np.empty((n + 1, n + 1)) if out is None else out
    if C.shape != (n + 1, n + 1) or C.dtype != np.float64:
        raise ValueError(f"out must be a ({n + 1}, {n + 1}) float64 array, got {C.shape} {C.dtype}")
    if np.may_share_memory(C, K) and (K.ctypes.data, K.strides) != (C.ctypes.data, C.strides):
        raise ValueError("out may share memory with K only as out[:n, :n]")
    diag = np.diag(K).copy()   # a view of K, which C overwrites
    diag_cum = np.concatenate([[0.0], np.cumsum(diag)])
    P = np.cumsum(K, axis=0)
    P_diag = np.diag(P)
    for s0, s1 in _row_blocks(n, n):
        b, w = s1 - s0, n - s0
        below = np.tri(b, k=-1, dtype=bool)   # j < s in the block's leading corner
        block = P_diag[s0:] - P[s0:s1, s0:]
        block += K[s0:s1, s0:]   # the last read of these K rows
        block *= 2.0
        block -= diag[s0:]
        np.copyto(block[:, :b], 0.0, where=below)
        np.cumsum(block, axis=1, out=block)   # block[s, j]: sum of K over [s, j+1)^2
        # span length j + 1 - s; below the diagonal, where the cost becomes
        # +inf, any nonzero divisor
        lengths = np.arange(1.0, w + 1.0) - np.arange(float(b))[:, None]
        np.maximum(lengths, 1.0, out=lengths)
        block /= lengths
        C[s0:s1, : s0 + 1] = np.inf
        cost = C[s0:s1, s0 + 1 :]
        np.subtract(diag_cum[s0 + 1 :], diag_cum[s0:s1, None], out=cost)
        cost -= block
        np.maximum(cost, 0.0, out=cost)
        np.copyto(cost[:, :b], np.inf, where=below)
    C[n] = np.inf
    return C


def kernel_cpd_segment(x: LatentSequence, num_segments: int, bandwidth="median") -> SegmentBoundaries:
    """Exact DP minimization of total within-segment kernel cost.

    Working memory is two n^2 float64 tables per sequence, about 1.6 GB at
    n = 10,000: one (n+1, n+1) buffer holds K in its leading block and then
    the cost table C built over it, and ``kernel_cost_table`` adds P.  The
    DP needs O(n * A) more.
    """
    n = x.length
    if num_segments < 1:
        raise ValueError("need at least one segment")
    if n < num_segments:
        raise ValueError(f"{n} tokens cannot form {num_segments} segments")
    fixed_bandwidth(bandwidth)   # checked even where there is nothing to cut
    if num_segments == 1:
        return SegmentBoundaries(spans=((0, n),))
    buf = np.empty((n + 1, n + 1))
    K = gaussian_kernel_matrix(x.vectors, bandwidth, out=buf[:n, :n])
    C = kernel_cost_table(K, out=buf)
    cuts, _ = _dp_partition(C, n, num_segments)
    return SegmentBoundaries.from_cuts(n, cuts)


# --- clustering-based segmentation -----------------------------------------

def extract_windows(x: np.ndarray, window_size: int, stride: int) -> np.ndarray:
    """Flattened sliding windows: row i covers tokens [i*stride, i*stride + w)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < window_size:
        raise ValueError(f"{n} tokens are fewer than the window size {window_size}")
    windows = np.lib.stride_tricks.sliding_window_view(x, (window_size, x.shape[1]))[::stride, 0]
    return windows.reshape(windows.shape[0], -1).copy()


def build_primitive_library(
    corpus: list[LatentSequence],
    window_size: int = DEFAULT_WINDOW_SIZE,
    stride: int = DEFAULT_WINDOW_STRIDE,
    num_primitives: int = DEFAULT_LIBRARY_SIZE,
    seed: int = 0,
    iters: int = 25,
) -> PrimitiveLibrary:
    """Cluster sliding windows from the corpus into a primitive library."""
    windows = [
        extract_windows(s.vectors, window_size, stride)
        for s in corpus
        if s.length >= window_size
    ]
    if not windows:
        raise ValueError("no sequence long enough for a single window")
    allw = np.vstack(windows)
    if allw.shape[0] < num_primitives:
        raise ValueError(f"only {allw.shape[0]} windows for Kp={num_primitives}")
    centers = kmeans(allw, num_primitives, seed=seed, iters=iters)
    return PrimitiveLibrary(centers=centers, window_size=window_size, stride=stride)


def window_cost_matrix(x: LatentSequence, lib: PrimitiveLibrary) -> CostMatrix:
    """Squared distance of each window to each primitive center."""
    windows = extract_windows(x.vectors, lib.window_size, lib.stride)
    return CostMatrix(costs=sqdist(windows, lib.centers))


def _run_prefix(costs: np.ndarray) -> np.ndarray:
    """(Kp, nw+1) prefix sums: prefix[:, e] - prefix[:, s] is the
    per-primitive cost sum of windows [s, e).  A non-finite total, the last
    column, is a ValueError: the DP's sums rely on it being finite."""
    prefix = np.zeros((costs.shape[1], costs.shape[0] + 1))
    with np.errstate(over="ignore", invalid="ignore"):   # refused just below
        np.cumsum(costs.T, axis=1, out=prefix[:, 1:])
    if not np.isfinite(prefix[:, -1]).all():
        raise ValueError(f"a primitive's total cost is beyond the float64 limit of {np.finfo(float).max:.6g}")
    return prefix


def segment_cost_matrix_dp(cost: CostMatrix, num_segments: int) -> tuple[list[int], list[int], float]:
    """DP over windows: returns (window cuts, per-run primitive, objective).

    best_a[s], the cost of windows [s, nw) in a runs, is min_p (M[p, s+1] -
    P[p, s]), where M[p, j] is the minimum of P[p, e] + best_{a-1}[e] over
    e >= j: one reversed running minimum per run count.  Each run's
    primitive is the cheapest over the run (lowest index on ties).  Working
    memory is P, one (Kp, nw) buffer and A rows of best costs.
    """
    nw = cost.costs.shape[0]
    if num_segments < 1 or num_segments > nw:
        raise ValueError(f"{nw} windows cannot form {num_segments} runs")
    P = _run_prefix(cost.costs)
    buf = np.empty((P.shape[0], nw))
    best = [np.subtract(P[:, nw:], P[:, :nw], out=buf).min(axis=0)]   # best[a - 1] is best_a
    for a in range(2, num_segments + 1):
        hi = nw - a + 2   # the first of a runs ends at e < hi
        M = np.add(P[:, 1:hi], best[-1][1:hi], out=buf[:, : hi - 1])
        np.minimum.accumulate(M[:, ::-1], axis=1, out=M[:, ::-1])   # M[:, s]: minimum over e > s
        M -= P[:, : hi - 1]
        best.append(M.min(axis=0))
    cuts = []
    s = 0
    for a in range(num_segments, 1, -1):   # each run ends at the lowest e that attains best_a[s]
        hi = nw - a + 2
        ends = np.add(P[:, s + 1 : hi], best[a - 2][s + 1 : hi], out=buf[:, : hi - s - 1])
        ends -= P[:, s : s + 1]
        s += 1 + int((ends == best[a - 1][s]).any(axis=0).argmax())
        cuts.append(s)
    edges = [0, *cuts, nw]
    assignments = [int((P[:, e] - P[:, s]).argmin()) for s, e in zip(edges[:-1], edges[1:])]
    return cuts, assignments, float(best[-1][0])


def cluster_dp_segment(x: LatentSequence, lib: PrimitiveLibrary, num_segments: int) -> SegmentBoundaries:
    """Segment by optimal contiguous assignment of windows to primitives.

    Window cut c maps back to token index c * stride; the final span always
    ends at the token count.
    """
    cost = window_cost_matrix(x, lib)
    window_cuts, _, _ = segment_cost_matrix_dp(cost, num_segments)
    token_cuts = [c * lib.stride for c in window_cuts]
    return SegmentBoundaries.from_cuts(x.length, token_cuts)


# --- exhaustive oracle ------------------------------------------------------

def brute_force_segment(costs, num_segments: int) -> SegmentBoundaries:
    """Exhaustive-enumeration oracle with the same tie rules as the DPs.

    ``costs`` is either a CostMatrix (clustering objective: every contiguous
    run of windows assigned its cheapest primitive) or a square kernel matrix
    (CPD objective).  Instances are capped at n <= 16, A <= 4.
    """
    cuts, _, n = _brute_force_solve(costs, num_segments)
    return SegmentBoundaries.from_cuts(n, cuts)


def brute_force_objective(costs, num_segments: int) -> float:
    """Objective value of the oracle's optimum (same enumeration and ties)."""
    _, obj, _ = _brute_force_solve(costs, num_segments)
    return obj


def _brute_force_span_cost(costs):
    """Fold step for enumeration, sharing the DP's arithmetic: (s, e, acc)
    gives the cost of span [s, e) followed by a suffix costing acc.

    For a CostMatrix, the step is min_p ((P[p, e] + acc) - P[p, s]) over the
    DP's prefix sums P, the minimum taken in Python; for a kernel matrix, it
    is C[s, e] + acc over the shared cost table.
    """
    if isinstance(costs, CostMatrix):
        n = costs.costs.shape[0]
        prefix = _run_prefix(costs.costs)

        def span_step(s, e, acc):   # Python's min keeps the first of equal values
            return min(((prefix[:, e] + acc) - prefix[:, s]).tolist())

        return span_step, n
    K = np.asarray(costs, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("kernel costs must be a square matrix")
    C = kernel_cost_table(K)
    return (lambda s, e, acc: C[s, e] + acc), K.shape[0]


def _brute_force_solve(costs, num_segments: int):
    span_step, n = _brute_force_span_cost(costs)
    if n > BRUTE_FORCE_MAX_N or num_segments > BRUTE_FORCE_MAX_A:
        raise ValueError(
            f"instance too large for enumeration (n={n} > {BRUTE_FORCE_MAX_N} "
            f"or A={num_segments} > {BRUTE_FORCE_MAX_A})"
        )
    if num_segments < 1 or num_segments > n:
        raise ValueError(f"cannot split {n} items into {num_segments} segments")
    cuts, obj = _brute_force_partition(span_step, n, num_segments)
    return cuts, obj, n


# --- evaluation -------------------------------------------------------------

def cut_errors(pred: SegmentBoundaries, truth: SegmentBoundaries) -> list[float]:
    """Per-cut absolute errors, for pooling across a corpus."""
    if pred.num_segments != truth.num_segments:
        raise ValueError(f"segment count mismatch: {pred.num_segments} vs {truth.num_segments}")
    return [abs(p - t) for p, t in zip(pred.cuts, truth.cuts)]


def seg_error_corpus(pairs) -> tuple[float, float]:
    """Mean and population std of |predicted cut - true cut| over the interior
    cuts of (pred, truth) pairs, matched in order; (0, 0) if there are none."""
    pooled = []
    for pred, truth in pairs:
        pooled.extend(cut_errors(pred, truth))
    if not pooled:
        return 0.0, 0.0
    arr = np.asarray(pooled, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def jittered_boundary_corpus(seed: int, n_sequences: int = 500) -> list[tuple[LatentSequence, SegmentBoundaries]]:
    """Synthetic evaluation corpus of 24-token, 4-dim sequences of 2 or 3
    regimes.  Regime boundaries sit near the uniform positions but jittered
    by up to 3 tokens; regime means are N(0, 1.1^2) and per-token noise
    N(0, 1.2^2).  Returns (sequence, true boundaries) pairs."""
    length, dim, jitter = 24, 4, 3
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_sequences):
        a = int(rng.integers(2, 4))
        cuts = []
        prev = 0
        for k in range(1, a):
            base = round(length * k / a)
            c = int(np.clip(base + rng.integers(-jitter, jitter + 1), prev + 1, length - 1))
            cuts.append(max(c, prev + 1))
            prev = cuts[-1]
        truth = SegmentBoundaries.from_cuts(length, cuts)
        means = rng.normal(0.0, 1.1, size=(a, dim))
        x = np.vstack(
            [
                means[i] + rng.normal(0.0, 1.2, size=(e - s, dim))
                for i, (s, e) in enumerate(truth.spans)
            ]
        )
        out.append((LatentSequence(vectors=x), truth))
    return out


def library_to_json(lib: PrimitiveLibrary) -> dict:
    return {
        "centers": lib.centers.tolist(),
        "window_size": lib.window_size,
        "stride": lib.stride,
    }


def library_from_json(obj) -> PrimitiveLibrary:
    """The library ``library_to_json`` wrote; anything else raises
    ValueError naming the field at fault."""
    json_object(obj, "centers", "window_size", "stride")
    window_size, stride = (positive_int(obj[key], key) for key in ("window_size", "stride"))
    centers = numeric_array(obj["centers"])
    if centers is None or centers.ndim != 2 or centers.size == 0 or not np.isfinite(centers).all():
        raise ValueError("field 'centers' must be a non-empty list of equal-length lists of finite numbers")
    return PrimitiveLibrary(centers=centers, window_size=window_size, stride=stride)


def boundaries_to_json(b: SegmentBoundaries) -> list[list[int]]:
    return [[s, e] for s, e in b.spans]


def boundaries_from_json(obj) -> SegmentBoundaries:
    """The boundaries ``boundaries_to_json`` wrote: [start, end] pairs of
    JSON ints that cover [0, n); anything else raises ValueError."""
    if not (isinstance(obj, list) and all(isinstance(p, list) and len(p) == 2 for p in obj)
            and all(type(v) is int for p in obj for v in p)):
        raise ValueError("expected a list of [start, end] pairs of integers")
    return SegmentBoundaries(spans=tuple(map(tuple, obj)))
