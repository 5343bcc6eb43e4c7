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
import math
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
        _check_finite_costs(c)
        object.__setattr__(self, "costs", c)


def _check_finite_costs(costs: np.ndarray) -> None:
    if not np.all(np.isfinite(costs)):
        raise ValueError("non-finite cost entry")


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
#
# A corpus is segmented in stacks: its records are grouped by token count
# and segment count, and every array from the kernel matrix on, and each DP
# step, carries a leading stack axis, so a corpus of short sequences costs a
# few numpy calls per stack rather than per sequence.  Each element sees the
# same float operations as alone, so a stack member gets the bits it gets
# alone.  Only BLAS products stay one per sequence: a product over several
# sequences' rows may round differently.  A stack holds as many records as
# fit one _BLOCK with their tables, (n+1)^2 elements each for kernel CPD and
# Kp (nw+1) for clustering, or one record if its tables alone are larger;
# then the row blocks split its tables.

_BLOCK = 1 << 13


def _row_blocks(rows: int, width: int, stack: int):
    """Consecutive (s0, s1) blocks covering range(rows <= width) for
    ``stack`` tables whose row s is needed from column s0 to ``width``: a
    block's temporary of (stack, s1 - s0, width - s0) cells holds at most
    ``_BLOCK`` elements, or is a single row of each table.  Blocks grow as
    rows shorten."""
    s0 = 0
    while s0 < rows:
        s1 = min(rows, s0 + max(1, _BLOCK // (stack * (width - s0))))
        yield s0, s1
        s0 = s1


def _dp_partition(C: np.ndarray, n: int, num_segments: int) -> tuple[list[list[int]], list[float]]:
    """Minimize sum of span costs over contiguous partitions into A spans.

    ``C`` is a stack (B, n+1, n+1) of the span-cost tables described above.
    Returns a list of B interior-cut lists and a list of B objectives; among
    optimal partitions, the lexicographically smallest cut sequence is
    returned.  Every step runs once over the stack, and each table gets the
    bits it gets alone.

    Each step takes the candidates of one block of starts at a time.  The
    block's columns e <= s0 hold +inf for all its rows, so they are left
    out: the picks are those of a scan over every end whenever C is finite
    above its diagonal and no candidate sum overflows.  Working memory
    beyond C: O(B * n * A) for the best costs and picks, plus one block of
    at most ``_BLOCK`` elements (one row of each table if wider).
    """
    A = num_segments
    member = np.arange(C.shape[0])[:, None]
    # best[b, s]: cost of splitting [s, n) into the current number of spans
    best = C[:, :n, n]
    choices = []
    for a in range(2, A + 1):
        # a spans over [s, n) need s <= n - a; the first span ends at e <= n-a+1
        rows, hi = n - a + 1, n - a + 2
        pick = np.empty((C.shape[0], rows), dtype=np.intp)
        for s0, s1 in _row_blocks(rows, hi, C.shape[0]):
            cand = C[:, s0:s1, s0 + 1 : hi] + best[:, None, s0 + 1 : hi]
            np.add(cand.argmin(axis=2), s0 + 1, out=pick[:, s0:s1])
        # the picked candidates, added again: the same sum of the same terms
        best = C[member, np.arange(rows), pick] + best[member, pick]
        choices.append(pick)
    cuts = np.zeros((C.shape[0], A), dtype=np.intp)   # column 0: every partition starts at 0
    for i, pick in enumerate(reversed(choices), 1):
        cuts[:, i] = pick[member[:, 0], cuts[:, i - 1]]
    return cuts[:, 1:].tolist(), best[:, 0].tolist()


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

def gaussian_kernel_matrix(x: np.ndarray, bandwidth="median") -> np.ndarray:
    """Pairwise Gaussian kernel k(a,b) = exp(-||a-b||^2 / (2 sigma^2)).

    bandwidth "median" uses the median pairwise distance (1 if it is 0).
    Distances come from :func:`sqdist`; the diagonal is set to exactly 0, so
    every k(a, a) is exactly 1.

    ``x`` may be a stack (B, n, d) of sequences of one length, giving
    (B, n, n).  The distances are one :func:`sqdist` per sequence, and every
    later step runs once over the stack, each sequence with its own median:
    every kernel is the bits it gets alone.

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
    return _kernel_into(np.empty(x.shape[:-1] + (x.shape[-2],)), x, bandwidth)


def _kernel_into(sq: np.ndarray, x: np.ndarray, bandwidth) -> np.ndarray:
    """:func:`gaussian_kernel_matrix` of ``x``, written into and returned as
    ``sq``, a (..., n, n) float64 array or view: every step after
    :func:`sqdist` works in place in it."""
    if not np.all(np.isfinite(x)):
        raise ValueError("kernel input contains non-finite values")
    sigma = fixed_bandwidth(bandwidth)
    n = x.shape[-2]
    for xb, sb in zip(x.reshape(-1, n, x.shape[-1]), sq.reshape(-1, n, n)):
        sqdist(xb, xb, out=sb)
    diag = np.arange(n)
    sq[..., diag, diag] = 0.0
    if sigma is None:   # the median over each upper triangle, or 1 if it is 0 or there is none
        # a mask of the full shape selects without index arrays, row after row
        upper = np.broadcast_to(~np.tri(n, dtype=bool), sq.shape)
        sigma = _median_distance(sq[upper].reshape(sq.shape[:-2] + (-1,))) if n > 1 else np.zeros(sq.shape[:-2])
        sigma = np.where(sigma == 0.0, 1.0, sigma)
    scale = np.asarray(2.0 * sigma * sigma)
    np.negative(sq, out=sq)
    # a tiny bandwidth overflows the quotient to -inf, and exp(-inf) = 0 is
    # the kernel value; every finite quotient keeps its bits
    with np.errstate(over="ignore"):
        sq /= scale[..., None, None]
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


def _median_distance(v: np.ndarray) -> np.ndarray:
    """``np.median(np.sqrt(v), axis=-1)`` of squared distances ``v``, by
    selection along the last axis.

    Partitions ``v`` in place.
    """
    m = v.shape[-1]
    h = m // 2
    v.partition(h, axis=-1)
    if m % 2:
        return np.sqrt(v[..., h])
    return (np.sqrt(v[..., :h].max(axis=-1)) + np.sqrt(v[..., h])) / 2.0


def kernel_span_cost(K: np.ndarray, s: int, e: int) -> float:
    """Within-segment kernel cost of the half-open span [s, e): the per-span
    reference tests check ``kernel_cost_table`` against."""
    block = K[s:e, s:e]
    return float(np.trace(block) - block.sum() / (e - s))


def kernel_cost_table(K: np.ndarray) -> np.ndarray:
    """C[s, e] = within-segment kernel cost of [s, e), for all spans at once.

    K must be symmetric, and is left untouched.  The block sums of K over
    [s, e) x [s, e) grow one column at a time: column j joining block [s, j)
    adds 2 (P[j, j] - P[s, j]) + 2 K[s, j] - K[j, j], with P = cumsum(K,
    axis=0).  Each cost then carries O(eps * n) rounding error (a 2-D
    cumulative sum gives O(eps * n^2)).  Costs are clamped at 0; entries with
    e <= s are +inf.

    The table is built one block of start rows at a time (``_row_blocks``).
    A block's increments for columns j >= s0 are zeroed where j < s, then
    one ``cumsum`` along the row adds them left to right, as a loop adding
    one column per step to a zero-initialised sum would.  Adding the
    leading zeros is exact, and a row's first increment, 2 K[s, s] - K[s, s],
    is never -0.0, so it equals 0.0 plus itself: every cost is the same
    float bit for bit.  Working memory beyond K and C is P, n^2 float64
    values, plus a few (rows, n - s0) temporaries of at most ``_BLOCK``
    elements each (one row if n is larger).

    K may be a stack (B, n, n), giving (B, n+1, n+1): every step runs once
    over the stack, with blocks of rows of all B tables within ``_BLOCK``,
    and each table is the bits it gets alone.
    """
    n = K.shape[-1]
    return _cost_table_into(np.empty(K.shape[:-2] + (n + 1, n + 1)), K)


def _cost_table_into(C: np.ndarray, K: np.ndarray) -> np.ndarray:
    """:func:`kernel_cost_table` of K, written into and returned as the
    (..., n+1, n+1) float64 array C.  K may be C's leading ``[..., :n, :n]``
    block: a block's increments read its K rows before its C rows are
    written, and later blocks read only later rows, so C is built over K
    with the same bits."""
    n = K.shape[-1]
    diag = np.diagonal(K, axis1=-2, axis2=-1).copy()   # a view of K, which C may overwrite
    diag_cum = np.zeros(K.shape[:-2] + (n + 1,))
    np.cumsum(diag, axis=-1, out=diag_cum[..., 1:])
    P = np.cumsum(K, axis=-2)
    P_diag = np.diagonal(P, axis1=-2, axis2=-1)[..., None, :]
    for s0, s1 in _row_blocks(n, n, math.prod(K.shape[:-2])):
        b, w = s1 - s0, n - s0
        below = np.tri(b, k=-1, dtype=bool)   # j < s in the block's leading corner
        block = P_diag[..., s0:] - P[..., s0:s1, s0:]
        block += K[..., s0:s1, s0:]   # the last read of these K rows
        block *= 2.0
        block -= diag[..., None, s0:]
        np.copyto(block[..., :b], 0.0, where=below)
        np.cumsum(block, axis=-1, out=block)   # block[s, j]: sum of K over [s, j+1)^2
        # span length j + 1 - s; below the diagonal, where the cost becomes
        # +inf, any nonzero divisor
        lengths = np.arange(1.0, w + 1.0) - np.arange(float(b))[:, None]
        np.maximum(lengths, 1.0, out=lengths)
        block /= lengths
        C[..., s0:s1, : s0 + 1] = np.inf
        cost = C[..., s0:s1, s0 + 1 :]
        np.subtract(diag_cum[..., None, s0 + 1 :], diag_cum[..., s0:s1, None], out=cost)
        cost -= block
        np.maximum(cost, 0.0, out=cost)
        np.copyto(cost[..., :b], np.inf, where=below)
    C[..., n, :] = np.inf
    return C


def kernel_cpd_segment(x: LatentSequence, num_segments: int, bandwidth="median") -> SegmentBoundaries:
    """Exact DP minimization of total within-segment kernel cost.

    Working memory is two n^2 float64 tables per sequence, about 1.6 GB at
    n = 10,000: one (n+1, n+1) buffer holds K in its leading block and then
    the cost table C built over it, and building C adds P.  The DP needs
    O(n * A) more.
    """
    return kernel_cpd_corpus([x], [num_segments], bandwidth)[0]


def _segment_stacks(xs, counts, cells, solve) -> list[SegmentBoundaries]:
    """The boundaries of each record ``xs[i]`` in ``counts[i]`` segments,
    in input order.  Records of one token count n and segment count A form a
    group, the groups taken in order of first appearance; each group is cut,
    in record order, into stacks of max(1, _BLOCK // cells(n)) records, the
    last what is left, and ``solve(stack, A)`` gives the boundaries of each
    record of a (B, n, d) stack.  A stack of one is a view, not a copy."""
    groups = {}
    for i, (x, a) in enumerate(zip(xs, counts, strict=True)):
        groups.setdefault((x.length, a), []).append(i)
    found = [None] * len(xs)
    for (n, a), ids in groups.items():
        size = max(1, _BLOCK // cells(n))
        for j in range(0, len(ids), size):
            part = ids[j : j + size]
            stack = np.stack([xs[i].vectors for i in part]) if len(part) > 1 else xs[part[0]].vectors[None]
            for i, b in zip(part, solve(stack, a)):
                found[i] = b
    return found


def kernel_cpd_corpus(xs: list[LatentSequence], counts: list[int], bandwidth="median") -> list[SegmentBoundaries]:
    """:func:`kernel_cpd_segment` of each sequence ``xs[i]``, of any length,
    in ``counts[i]`` segments, in input order.  Sequences of one length and
    segment count are segmented in stacks of max(1, _BLOCK // (n+1)^2), so a
    stack's two tables hold at most ``_BLOCK`` elements each, or are those of
    one sequence.  Every sequence gets the cuts it gets alone."""
    fixed_bandwidth(bandwidth)   # checked even where there is nothing to cut
    return _segment_stacks(xs, counts, lambda n: (n + 1) ** 2,
                           lambda x, a: _kernel_cpd_stack(x, a, bandwidth))


def _kernel_cpd_stack(x: np.ndarray, num_segments: int, bandwidth) -> list[SegmentBoundaries]:
    """The boundaries of each sequence of the (B, n, d) stack ``x``; its
    tables are freed on return, before the next stack's are allocated."""
    B, n = x.shape[:2]
    if num_segments < 1:
        raise ValueError("need at least one segment")
    if n < num_segments:
        raise ValueError(f"{n} tokens cannot form {num_segments} segments")
    if num_segments == 1:
        return [SegmentBoundaries(spans=((0, n),))] * B
    buf = np.empty((B, n + 1, n + 1))
    C = _cost_table_into(buf, _kernel_into(buf[:, :n, :n], x, bandwidth))
    return [SegmentBoundaries.from_cuts(n, cuts) for cuts in _dp_partition(C, n, num_segments)[0]]


# --- clustering-based segmentation -----------------------------------------

def extract_windows(x: np.ndarray, window_size: int, stride: int) -> np.ndarray:
    """Flattened sliding windows: row i covers tokens [i*stride, i*stride + w).

    A stack (B, n, d) of sequences gives (B, nw, w*d), one C-contiguous
    block of windows per sequence.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-2]
    if n < window_size:
        raise ValueError(f"{n} tokens are fewer than the window size {window_size}")
    windows = np.lib.stride_tricks.sliding_window_view(x, (window_size, x.shape[-1]), axis=(-2, -1))
    windows = windows[..., ::stride, 0, :, :]
    return windows.reshape(windows.shape[:-2] + (-1,)).copy()


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
    centers, _ = kmeans(allw, num_primitives, seed=seed, iters=iters)
    return PrimitiveLibrary(centers=centers, window_size=window_size, stride=stride)


def _window_costs(x: np.ndarray, lib: PrimitiveLibrary) -> np.ndarray:
    """(..., nw, Kp) window costs of (..., n, d) sequences: one
    :func:`sqdist` per sequence, whose windows are one contiguous block."""
    windows = extract_windows(x, lib.window_size, lib.stride)
    nw = windows.shape[-2]
    costs = np.empty(windows.shape[:-1] + (lib.size,))
    for w, c in zip(windows.reshape(-1, nw, windows.shape[-1]), costs.reshape(-1, nw, lib.size)):
        sqdist(w, lib.centers, out=c)
    return costs


def _run_prefix(costs: np.ndarray) -> np.ndarray:
    """(Kp, nw+1) prefix sums, or (B, Kp, nw+1) for a stack of costs:
    prefix[:, e] - prefix[:, s] is the per-primitive cost sum of windows
    [s, e).  A non-finite total, the last column, is a ValueError: the DP's
    sums rely on it being finite."""
    prefix = np.zeros(costs.shape[:-2] + (costs.shape[-1], costs.shape[-2] + 1))
    with np.errstate(over="ignore", invalid="ignore"):   # refused just below
        np.cumsum(np.swapaxes(costs, -1, -2), axis=-1, out=prefix[..., 1:])
    if not np.isfinite(prefix[..., -1]).all():
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
    cuts, assignments, objective = _cluster_dp(cost.costs[None], num_segments)
    return cuts[0], assignments[0], objective[0]


def _cluster_dp(costs: np.ndarray, num_segments: int) -> tuple[list, list, list]:
    """:func:`segment_cost_matrix_dp` of each (nw, Kp) matrix of the stack
    ``costs``: every step, the backtrack included, runs once over the stack,
    and each result is a list over the stack, every member the bits it gets
    alone.  A non-finite entry is refused, as :class:`CostMatrix` refuses it."""
    _check_finite_costs(costs)
    nw = costs.shape[1]
    if num_segments < 1 or num_segments > nw:
        raise ValueError(f"{nw} windows cannot form {num_segments} runs")
    P = _run_prefix(costs)
    member = np.arange(P.shape[0])
    buf = np.empty(P.shape[:2] + (nw,))
    best = [np.subtract(P[:, :, nw:], P[:, :, :nw], out=buf).min(axis=1)]   # best[a - 1] is best_a
    for a in range(2, num_segments + 1):
        hi = nw - a + 2   # the first of a runs ends at e < hi
        M = np.add(P[:, :, 1:hi], best[-1][:, None, 1:hi], out=buf[:, :, : hi - 1])
        np.minimum.accumulate(M[:, :, ::-1], axis=2, out=M[:, :, ::-1])   # M[b, :, s]: minimum over e > s
        M -= P[:, :, : hi - 1]
        best.append(M.min(axis=1))
    edges = np.zeros((P.shape[0], num_segments + 1), dtype=np.intp)
    edges[:, -1] = nw
    for i, a in enumerate(range(num_segments, 1, -1)):   # each run ends at the lowest e that attains best_a[s]
        hi = nw - a + 2
        s = edges[:, i]
        # every member's ends from the lowest start on; those at or before
        # the member's own start are masked out
        lo = int(s.min())
        ends = np.add(P[:, :, lo + 1 : hi], best[a - 2][:, None, lo + 1 : hi], out=buf[:, :, : hi - lo - 1])
        ends -= P[member, :, s][:, :, None]
        hit = (ends == best[a - 1][member, s][:, None, None]).any(axis=1)
        hit &= np.arange(lo + 1, hi) > s[:, None]
        edges[:, i + 1] = lo + 1 + hit.argmax(axis=1)
    runs = P[member[:, None], :, edges[:, 1:]] - P[member[:, None], :, edges[:, :-1]]   # (B, A, Kp)
    return edges[:, 1:-1].tolist(), runs.argmin(axis=2).tolist(), best[-1][:, 0].tolist()


def cluster_dp_segment(x: LatentSequence, lib: PrimitiveLibrary, num_segments: int) -> SegmentBoundaries:
    """Segment by optimal contiguous assignment of windows to primitives.

    Window cut c maps back to token index c * stride; the final span always
    ends at the token count.
    """
    return cluster_dp_corpus([x], lib, [num_segments])[0]


def cluster_dp_corpus(xs: list[LatentSequence], lib: PrimitiveLibrary, counts: list[int]) -> list[SegmentBoundaries]:
    """:func:`cluster_dp_segment` of each sequence ``xs[i]``, of any length,
    in ``counts[i]`` runs, in input order.  Sequences of one length and run
    count are segmented in stacks of max(1, _BLOCK // (Kp (nw+1))), so a
    stack's prefix sums hold at most ``_BLOCK`` elements, or are those of one
    sequence.  Every sequence gets the cuts it gets alone."""
    # Kp (nw+1) cells; with no window, extract_windows refuses the sequence
    return _segment_stacks(xs, counts, lambda n: lib.size * (max(0, (n - lib.window_size) // lib.stride + 1) + 1),
                           lambda x, a: _cluster_dp_stack(x, lib, a))


def _cluster_dp_stack(x: np.ndarray, lib: PrimitiveLibrary, num_segments: int) -> list[SegmentBoundaries]:
    """The boundaries of each sequence of the (B, n, d) stack ``x``."""
    return [SegmentBoundaries.from_cuts(x.shape[1], [c * lib.stride for c in window_cuts])
            for window_cuts in _cluster_dp(_window_costs(x, lib), num_segments)[0]]


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
