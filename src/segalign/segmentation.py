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

from .jsonio import hex_rows, json_object, positive_int, unhex_rows
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
# span first) with the same float steps.  For kernel CPD, with C[s, e] the
# cost of span [s, e) from ``kernel_cost_table`` (or the same numbers, which
# the DP forms block by block), a step is C[s, e] + acc.  Clustering builds
# no table: over the (Kp, nw+1) prefix P of window costs, a step is
# min_p ((P[p, e] + acc) - P[p, s]).  A step is monotone in acc, the cost of
# what follows, so the minimum over suffixes commutes with it and the
# objectives agree bit for bit.  The DPs end a span at the lowest end whose
# candidate equals the optimum, and the oracle keeps the first optimum of its
# lexicographic enumeration (strict <): the same cuts unless rounding lets a
# worse suffix give the same candidate, which no exact (integer) tie does.
#
# A corpus is segmented in stacks: its records are grouped by token count
# and segment count, and every array and each DP step carries a leading
# stack axis, so a corpus of short sequences costs a few numpy calls per
# stack rather than per sequence.  Each element sees the same float
# operations as alone, so a stack member gets the bits it gets alone.  Only
# BLAS products stay one per sequence: a product over several sequences'
# rows may round differently.  A stack holds as many records as fit one
# _BLOCK of 2^13 cells, or one record if it alone is larger: Kp (nw+1) per
# record for clustering, its prefix sums, and (n+1)^2 for kernel CPD, the
# span table it held before the sweep below, so its stacks stay the
# measured ones.  Scratch probes (ROADMAP item 13, tried and left) kept
# _BLOCK and cli._keep_freed_memory as they are: no glibc pin made
# corpus-long 14% slower; the pin in every command raised align-query's
# peak RSS, and one 2^15 budget for stacks and sweep blocks corpus-short's.

_BLOCK = 1 << 13


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
#
# Kernel CPD holds no n^2 table.  With V(s, e) half the sum of K over
# [s, e)^2, and V(e, e) = 0, the cost of span [s, e) is its trace minus
# V(s, e) / ((e - s) / 2), and
#
#     V(s, e) = V(s+1, e) + R(s, e),   R(s, e) = K[s, s] / 2 + sum of K[s, j] over s < j < e.
#
# One sweep runs over blocks of start rows s0 <= s < s1, from the last rows
# up (``_start_blocks``).  Per block it forms the kernel rows K[s, j >= s0]
# from x, one product per record; sums each row left to right (R, one
# cumsum); and adds the rows, from the block's last up, onto the carry row
# V(s1, .) (one cumsum down the reversed rows).  The exact DP then advances
# every segment count over the block's costs while they are in cache:
# best_a[s] = min over e > s of C[s, e] + best_{a-1}[e].  A block holds at
# most ``_START_BLOCK`` elements of each record (one row if a row alone is
# wider), so working memory is a few blocks plus O(n * A) for the DP.
# _START_BLOCK is 2^15 float64 values, 256 KiB: at n = 450, d = 16, A = 5 on
# one BLAS thread, 2^14 and 2^15 ran alike and fastest, 2^13 about 10%
# slower, and 2^16 and 2^17 15% and 30% slower.
#
# The median bandwidth needs no table either.  Its one or two middle
# squared distances are selected exactly (Floyd & Rivest, CACM 1975): a
# seeded sample of about m^(2/3) of the m = n (n-1) / 2 pairs gives two
# pivots either side of the middle ranks, and one pass over the same blocks
# counts the distances below and at each pivot and keeps those strictly
# between (ties at a pivot are counted, never kept), about 3 m^(2/3) of
# them, from which the middle values are selected.  A bracket that misses
# on a side widens that side and counts again.  The sample only places the
# pivots, so its bits do not matter.  A record whose sweep is one block
# partitions that block instead: the bracket would be everything.
#
# Every sum runs in one order whatever the blocks are: R along its row, V
# from the last row up, and the zeros that empty spans add are exact.  Only
# the products depend on the blocks, and gaussian_kernel_matrix and
# kernel_cost_table run on the same blocks as the sweep, which depend on n
# alone: kernel_cost_table(gaussian_kernel_matrix(x)) holds the sweep's
# costs bit for bit, the oracle folds over them, and a stack member gets
# the bits it gets alone.

_START_BLOCK = 1 << 15
_MEDIAN_SPREAD = 3.0


def _start_blocks(n: int):
    """Blocks (s0, s1) of start rows covering range(n), from the last rows
    up: s1 = n first.  A block's (s1 - s0, n - s0) rows hold at most
    ``_START_BLOCK`` elements, or are one row.  Blocks shrink as rows
    widen."""
    s1 = n
    while s1 > 0:
        m = n - s1   # rows = b gives b (b + m) elements
        b = max(1, (math.isqrt(m * m + 4 * _START_BLOCK) - m) // 2)
        s0 = max(0, s1 - b)
        yield s0, s1
        s1 = s0


def _distance_rows(x: np.ndarray, x_sq: np.ndarray, s0: int, s1: int) -> np.ndarray:
    """(B, s1 - s0, n - s0) squared distances from the rows s0 <= s < s1 of
    each (n, d) record of ``x`` to its rows j >= s0: one :func:`sqdist`
    per record, the diagonal set to exactly 0.  ``x_sq`` is (x * x).sum(-1)."""
    d2 = np.empty((x.shape[0], s1 - s0, x.shape[1] - s0))
    for xb, sq, rows in zip(x, x_sq, d2):
        sqdist(xb[s0:s1], xb[s0:], out=rows, a_sq=sq[s0:s1])
    diag = np.arange(s1 - s0)
    d2[:, diag, diag] = 0.0
    return d2


def _upper_rows(x: np.ndarray, x_sq: np.ndarray, s0: int, s1: int) -> np.ndarray:
    """(B, (s1 - s0) (n - s0)): the rows of :func:`_distance_rows`, each
    record's flattened, with the entries on and below each diagonal set to
    -inf, so that they sort and count first."""
    rows = _distance_rows(x, x_sq, s0, s1)
    np.copyto(rows[:, :, : s1 - s0], -np.inf, where=np.tri(s1 - s0, dtype=bool))
    return rows.reshape(x.shape[0], -1)


def _kernel_rows(x: np.ndarray, bandwidth):
    """Yield (s0, s1, K[:, s0:s1, s0:]) for each block of
    :func:`_start_blocks` over the (B, n, d) stack ``x``, each a new array.
    The median bandwidth is selected first, from the same blocks
    (:func:`_median_distance`)."""
    x = np.asarray(x, dtype=np.float64)   # float32 latents get the bits gaussian_kernel_matrix gets
    if not np.all(np.isfinite(x)):
        raise ValueError("kernel input contains non-finite values")
    sigma = fixed_bandwidth(bandwidth)
    x_sq = (x * x).sum(axis=-1)
    blocks = list(_start_blocks(x.shape[1]))
    if sigma is None:   # the median over each upper triangle, or 1 if it is 0 or there is none
        sigma = _median_distance(x, x_sq, blocks)
        sigma = np.where(sigma == 0.0, 1.0, sigma)
    scale = np.asarray(-2.0 * sigma * sigma)[..., None, None]
    for s0, s1 in blocks:
        d2 = _distance_rows(x, x_sq, s0, s1)
        # a tiny bandwidth overflows the quotient to -inf, and exp(-inf) = 0
        # is the kernel value; every finite quotient keeps its bits
        with np.errstate(over="ignore"):
            d2 /= scale
        yield s0, s1, np.exp(d2, out=d2)


def _span_costs(K: np.ndarray, s0: int, carry: np.ndarray, trace=None) -> np.ndarray:
    """The span costs of one block of start rows, in place of its kernel
    rows, and returned.

    ``K`` is a C-contiguous (B, b, w) array with K[:, i, c] = K[s0 + i,
    s0 + c], w = n - s0; on return K[:, i, c] is C[s0 + i, s0 + 1 + c],
    +inf where that span is empty, with costs clamped at 0.  Only K[s, j]
    with j >= s is read.  ``carry`` (B, n+1) holds V(s0 + b, e) and is left
    holding V(s0, e).  ``trace`` (B, n+1) holds the cumulative sums of the
    diagonal of K from 0; None means every K[s, s] is 1, whose trace over
    [s, e) is e - s."""
    B, b, w = K.shape
    K.reshape(B, -1)[:, :: w + 1] *= 0.5   # the diagonal: K[s, s] / 2
    below = np.tri(b, k=-1, dtype=bool)   # j < s, and empty spans e <= s
    corner = K[:, :, :b]
    np.copyto(corner, 0.0, where=below)
    K.cumsum(axis=2, out=K)   # R(s, e), 0 where e <= s
    K[:, -1] += carry[:, s0 + 1 :]
    np.cumsum(K[:, ::-1], axis=1, out=K[:, ::-1])   # V(s, e), from the last row up
    carry[:, s0 + 1 :] = K[:, 0]
    # span length e - s, row i of a Toeplitz view of one vector; below the
    # diagonal, where the cost becomes +inf, any nonzero divisor
    lengths = np.maximum(np.arange(2.0 - b, w + 1.0), 1.0)
    K /= _toeplitz(lengths * 0.5, b)
    span_trace = _toeplitz(lengths, b) if trace is None else trace[:, None, s0 + 1 :] - trace[:, s0 : s0 + b, None]
    np.subtract(span_trace, K, out=K)
    np.maximum(K, 0.0, out=K)
    np.copyto(corner, np.inf, where=below)
    return K


def _toeplitz(v: np.ndarray, b: int) -> np.ndarray:
    """The (b, v.size - b + 1) view of the 1-D array ``v`` whose row i
    starts at v[b - 1 - i]."""
    return np.ndarray((b, v.size - b + 1), v.dtype, v, (b - 1) * v.itemsize, (-v.itemsize, v.itemsize))


def gaussian_kernel_matrix(x: np.ndarray, bandwidth="median") -> np.ndarray:
    """Pairwise Gaussian kernel k(a,b) = exp(-||a-b||^2 / (2 sigma^2)).

    bandwidth "median" uses the median pairwise distance (1 if it is 0).
    The rows above the diagonal are those kernel CPD forms (the comment
    above): for each block of start rows, :func:`sqdist` of its rows to the
    rows from its first on, per sequence; the lower triangle is their
    mirror, so K is exactly symmetric, and the diagonal distances are set to
    exactly 0, so every k(a, a) is exactly 1.  ``x`` is one (n, d)
    sequence; any other shape is a ValueError.

    The median is found by selection, not by sorting, and without a table
    of the distances (the comment above): the one or two middle squared
    distances of the upper triangle are selected, counted between two
    pivots of a sample or, when the sweep is one block, by one
    ``np.partition`` of it, and sigma is the mean of the square roots of
    the two (of the one, twice).  As sqrt is monotone and numpy's mean of
    two values is one add and one divide, sigma equals ``np.median`` of the
    upper-triangle distances bit for bit whenever no squared distance is
    NaN.  So a non-finite ``x`` raises ValueError: no kernel built from it
    is usable, and selection orders NaN last, so it could give a finite
    sigma where ``np.median`` gave NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected one (n, d) sequence, got shape {x.shape}")
    n = x.shape[0]
    K = np.empty((n, n))
    for s0, s1, rows in _kernel_rows(x[None], bandwidth):
        K[s0:s1, s0:] = rows[0]
    np.copyto(K, K.T, where=np.tri(n, k=-1, dtype=bool))
    return K


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


def _median_distance(x: np.ndarray, x_sq: np.ndarray, blocks) -> np.ndarray:
    """``np.median`` of the square roots of the n (n-1) / 2 squared
    distances above the diagonal of each record of the (B, n, d) stack
    ``x``, 0 if there are none: (sqrt(u1) + sqrt(u2)) / 2 of the middle
    squared distances u1 <= u2 (u1 = u2 for an odd count), selected from
    the sweep's ``blocks`` as the comment above says."""
    B, n = x.shape[:2]
    if n < 2:
        return np.zeros(B)
    m = n * (n - 1) // 2
    low = sum((s1 - s0) * (n - s0) for s0, s1 in blocks) - m   # the -inf entries rank first
    ranks = (low + (m - 1) // 2, low + m // 2)
    if len(blocks) == 1:
        u1, u2 = _middle_values(_upper_rows(x, x_sq, 0, n), ranks)
    else:
        u1, u2 = np.array([_bracketed_middle(x[i : i + 1], x_sq[i : i + 1], blocks, ranks, low) for i in range(B)]).T
    return (np.sqrt(u1) + np.sqrt(u2)) / 2.0


def _middle_values(v: np.ndarray, ranks) -> tuple:
    """The values of the ranks r1 <= r2 <= r1 + 1 along the last axis of
    ``v``, which is partitioned in place: at r2, then the largest value left
    of r2 (a second kth would select again, about 3x slower)."""
    r1, r2 = ranks
    v.partition(r2, axis=-1)
    return (v[..., r2] if r1 == r2 else v[..., :r2].max(axis=-1)), v[..., r2]


def _bracketed_middle(x: np.ndarray, x_sq: np.ndarray, blocks, ranks, low: int) -> list:
    """The values of ``ranks`` among the block entries of the one record of
    the (1, n, d) stack ``x``, whose ``low`` -inf entries rank first.  The
    pivots lie ``_MEDIAN_SPREAD`` standard deviations of a sample rank
    either side of where the ranks fall in the sorted sample; a missed side
    doubles its reach until its pivot leaves the sample and is unbounded."""
    sample = np.sort(_pair_sample(x[0]))
    s = sample.size
    m = x.shape[1] * (x.shape[1] - 1) // 2
    centre = [(r - low) * s / m for r in ranks]   # where the ranks fall in the sample
    reach = [_MEDIAN_SPREAD * math.sqrt(s) / 2.0] * 2   # a sample rank's deviation is sqrt(s) / 2
    while True:
        i, j = math.floor(centre[0] - reach[0]), math.ceil(centre[1] + reach[1])
        lo = sample[i] if i >= 0 else -np.inf
        hi = sample[j] if j < s else np.inf
        counts = np.zeros(4, dtype=np.int64)   # entries < lo, <= lo, < hi, <= hi
        kept = []
        for s0, s1 in blocks:
            v = _upper_rows(x, x_sq, s0, s1)[0]
            up_to_lo, under_hi = v <= lo, v < hi
            counts += (np.count_nonzero(v < lo), np.count_nonzero(up_to_lo),
                       np.count_nonzero(under_hi), np.count_nonzero(v <= hi))
            kept.append(v[under_hi > up_to_lo])
        below, up_to_lo, under_hi, up_to_hi = counts.tolist()
        # past an unbounded hi only NaN is left, from distances that
        # overflow, and np.median is NaN
        missed = ranks[0] < below, ranks[1] >= up_to_hi and j < s
        if not any(missed):
            break
        reach = [max(2.0 * r, 1.0) if miss else r for r, miss in zip(reach, missed)]
    inside = [r - up_to_lo for r in ranks if up_to_lo <= r < under_hi]
    picks = iter(_middle_values(np.concatenate(kept), (inside[0], inside[-1])) if inside else ())
    return [lo if r < up_to_lo else next(picks) if r < under_hi else hi if r < up_to_hi else np.nan for r in ranks]


def _pair_sample(x: np.ndarray) -> np.ndarray:
    """Squared distances of about m^(2/3) distinct pairs of rows of the
    (n, d) record ``x``, m = n (n-1) / 2: rows k apart in one seeded
    shuffle, for k = 1, 2, ...  They only place the pivots of
    :func:`_bracketed_middle`, so their bits do not matter."""
    n = x.shape[0]
    y = x[np.random.default_rng(0).permutation(n)]
    rounds = min(n - 1, -(-math.ceil((n * (n - 1) // 2) ** (2 / 3)) // n))
    return np.concatenate([((y[k:] - y[:-k]) ** 2).sum(axis=1) for k in range(1, rounds + 1)])


def kernel_span_cost(K: np.ndarray, s: int, e: int) -> float:
    """Within-segment kernel cost of the half-open span [s, e): the per-span
    reference tests check ``kernel_cost_table`` against."""
    block = K[s:e, s:e]
    return float(np.trace(block) - block.sum() / (e - s))


def kernel_cost_table(K: np.ndarray) -> np.ndarray:
    """C[s, e] = within-segment kernel cost of [s, e), for all spans at once.

    K must be symmetric, and is left untouched; only its upper triangle and
    diagonal are read.  The costs are the sweep's (the comment above), made
    a block of start rows at a time, and carry O(eps * n) rounding error (a
    2-D cumulative sum gives O(eps * n^2)).  Costs are clamped at 0; entries
    with e <= s are +inf.  For K = gaussian_kernel_matrix(x), they are the
    bits kernel CPD uses.  K is one (n, n) matrix; any other shape is a
    ValueError.
    """
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected one (n, n) kernel matrix, got shape {K.shape}")
    n = K.shape[0]
    C = np.full((n + 1, n + 1), np.inf)
    carry = np.zeros((1, n + 1))
    trace = np.zeros((1, n + 1))
    np.cumsum(np.diagonal(K), out=trace[0, 1:])
    for s0, s1 in _start_blocks(n):
        C[s0:s1, s0 + 1 :] = _span_costs(K[None, s0:s1, s0:].astype(np.float64), s0, carry, trace)[0]
    return C


def kernel_cpd_segment(x: LatentSequence, num_segments: int, bandwidth="median") -> SegmentBoundaries:
    """Exact DP minimization of total within-segment kernel cost, holding
    no n^2 table (the comment above): under 8 MiB at n = 5,000 with a fixed
    bandwidth, and under 16 MiB with the median, whose selection keeps the
    pair sample and the distances between its pivots, about 1.3 MB."""
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
    segment count are segmented in stacks of max(1, _BLOCK // (n+1)^2), so
    only sequences whose sweep is one block share a stack.  Every sequence
    gets the cuts it gets alone."""
    fixed_bandwidth(bandwidth)   # checked even where there is nothing to cut
    return _segment_stacks(xs, counts, lambda n: (n + 1) ** 2,
                           lambda x, a: _kernel_cpd_stack(x, a, bandwidth))


def _kernel_cpd_stack(x: np.ndarray, num_segments: int, bandwidth) -> list[SegmentBoundaries]:
    """The boundaries of each sequence of the (B, n, d) stack ``x``."""
    B, n = x.shape[:2]
    if num_segments < 1:
        raise ValueError("need at least one segment")
    if n < num_segments:
        raise ValueError(f"{n} tokens cannot form {num_segments} segments")
    if num_segments == 1:
        return [SegmentBoundaries(spans=((0, n),))] * B
    return [SegmentBoundaries.from_cuts(n, cuts) for cuts in _cpd_sweep(x, num_segments, bandwidth)[0]]


def _cost_blocks(x: np.ndarray, bandwidth):
    """Yield (s0, s1, C) for each block of the sweep over the (B, n, d)
    stack ``x``, from the last rows up: C[b, i, c] is the cost of span
    [s0 + i, s0 + 1 + c) of sequence b, +inf where the span is empty, the
    bits ``kernel_cost_table(gaussian_kernel_matrix(x, bandwidth))`` holds."""
    carry = np.zeros((x.shape[0], x.shape[1] + 1))
    for s0, s1, K in _kernel_rows(x, bandwidth):
        yield s0, s1, _span_costs(K, s0, carry)


def _cpd_sweep(x: np.ndarray, num_segments: int, bandwidth) -> tuple[list[list[int]], list[float]]:
    """The exact DP of each sequence of the (B, n, d) stack ``x`` in
    ``num_segments`` spans, over the blocks of :func:`_cost_blocks`: a list
    of B interior-cut lists and a list of B objectives.  Among optimal
    partitions, the lexicographically smallest cut sequence is returned.

    best_a[s], the cost of [s, n) in a spans, is C[s, n] for a = 1, else the
    minimum over s < e <= n - a + 1 of C[s, e] + best_{a-1}[e], ending the
    first span at the lowest e that attains it.  A block's rows need
    best_{a-1} only of later rows, its own included, so each block advances
    a = 1, ..., A in turn."""
    B, n = x.shape[:2]
    A = num_segments
    best = np.full((A, B, n + 1), np.inf)   # best[a - 1][:, s] is best_a[s]
    picks = np.zeros((A - 1, B, n), dtype=np.intp)
    scratch = np.empty(B * max((s1 - s0) * (n - s0) for s0, s1 in _start_blocks(n)))
    for s0, s1, C in _cost_blocks(x, bandwidth):
        best[0, :, s0:s1] = C[:, :, -1]
        for a in range(2, A + 1):
            hi = n - a + 1   # a spans need s < hi; the first ends at e <= hi
            rows = min(s1, hi) - s0
            if rows <= 0:
                break
            # whole rows: best_{a-1}[e] is +inf for e > hi, and so is every
            # candidate past hi, which leaves the lowest minimum where it is
            cand = scratch[: B * rows * C.shape[2]].reshape(B, rows, C.shape[2])
            np.add(C[:, :rows], best[a - 2][:, None, s0 + 1 :], out=cand)
            pick = cand.argmin(axis=2)
            flat = cand.reshape(-1, cand.shape[2])   # the picked candidates, gathered
            best[a - 1, :, s0 : s0 + rows] = flat[np.arange(flat.shape[0]), pick.ravel()].reshape(pick.shape)
            np.add(pick, s0 + 1, out=picks[a - 2, :, s0 : s0 + rows])
    member = np.arange(B)
    cuts = np.zeros((B, A), dtype=np.intp)   # column 0: every partition starts at 0
    for i, a in enumerate(range(A, 1, -1)):
        cuts[:, i + 1] = picks[a - 2, member, cuts[:, i]]
    return cuts[:, 1:].tolist(), best[A - 1, :, 0].tolist()


# --- clustering-based segmentation -----------------------------------------

def extract_windows(x: np.ndarray, window_size: int, stride: int) -> np.ndarray:
    """Flattened sliding windows: row i covers tokens [i*stride, i*stride + w).

    A stack (B, n, d) of sequences gives (B, nw, w*d), one C-contiguous
    block of windows per sequence.
    """
    return _window_view(np.asarray(x, dtype=np.float64), window_size, stride).copy()


def _window_view(x: np.ndarray, window_size: int, stride: int) -> np.ndarray:
    """:func:`extract_windows` of ``x`` as a view of it, with its dtype."""
    n = x.shape[-2]
    if n < window_size:
        raise ValueError(f"{n} tokens are fewer than the window size {window_size}")
    windows = np.lib.stride_tricks.sliding_window_view(x, (window_size, x.shape[-1]), axis=(-2, -1))
    windows = windows[..., ::stride, 0, :, :]
    return windows.reshape(windows.shape[:-2] + (-1,))


def build_primitive_library(
    corpus: list[LatentSequence],
    window_size: int = DEFAULT_WINDOW_SIZE,
    stride: int = DEFAULT_WINDOW_STRIDE,
    num_primitives: int = DEFAULT_LIBRARY_SIZE,
    seed: int = 0,
    iters: int = 25,
) -> PrimitiveLibrary:
    """Cluster sliding windows from the corpus into a primitive library.
    The windows of every sequence are copied once, into one float64 matrix."""
    windows = [_window_view(s.vectors, window_size, stride) for s in corpus if s.length >= window_size]
    if not windows:
        raise ValueError("no sequence long enough for a single window")
    allw = np.concatenate(windows, dtype=np.float64)
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

    Window cut c maps back to token index c * stride + (window_size - 1) // 2,
    the centre of the first window of the new run; the final span always
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
    offset = (lib.window_size - 1) // 2
    return [SegmentBoundaries.from_cuts(x.shape[1], [c * lib.stride + offset for c in window_cuts])
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
    """The library as JSON, its centres as ``jsonio.hex_rows``."""
    return {
        "centers": hex_rows(lib.centers),
        "window_size": lib.window_size,
        "stride": lib.stride,
    }


def library_from_json(obj) -> PrimitiveLibrary:
    """The library ``library_to_json`` wrote; anything else raises
    ValueError naming the field at fault."""
    json_object(obj, "centers", "window_size", "stride")
    window_size, stride = (positive_int(obj[key], key) for key in ("window_size", "stride"))
    centers = unhex_rows(obj["centers"], None, "field 'centers'", "segment --fit-library")
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
