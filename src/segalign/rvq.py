"""Residual vector quantization of latent sequences.

A stack holds one base codebook plus k residual codebooks.  Quantizing a
vector picks the nearest base code, then each residual layer picks the code
nearest the remaining residual; the quantized value is the sum of the chosen
codes.  Codebooks are learned layer-wise with seeded k-means on the residuals
left by the preceding layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jsonio import hex_rows, json_object, unhex_rows
from .motion import LatentSequence

# Elements of one block of rows in sqdist and kmeans: the squares summed
# into norms, the norms added to the distances, the rows one seeding draw
# measures, and Lloyd's bin index.  At 2^14 (128 KiB) k-means ran as fast
# as with whole-array temporaries at the benchmark's shapes (one BLAS
# thread); 2^13 ran about 5% slower and 2^12 about 15%.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class Codebook:
    """K code vectors of dimension d, one per row."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        if e.ndim != 2 or e.shape[0] < 1:
            raise ValueError("codebook must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(e)):
            raise ValueError("codebook contains non-finite entries")
        object.__setattr__(self, "entries", e)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class CodebookStack:
    """Base codebook followed by residual codebooks, all sharing one dim."""

    books: tuple[Codebook, ...]

    def __post_init__(self):
        if len(self.books) < 1:
            raise ValueError("stack needs at least the base codebook")
        dims = {b.dim for b in self.books}
        if len(dims) != 1:
            raise ValueError(f"codebooks disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "books", tuple(self.books))

    @property
    def dim(self) -> int:
        return self.books[0].dim

    @property
    def num_layers(self) -> int:
        return len(self.books)


@dataclass(frozen=True)
class TokenSequence:
    """(k+1) x n integer matrix; row j indexes into codebook j."""

    layers: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.layers, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("token layers must be a 2-D integer matrix")
        if np.any(a < 0):
            raise ValueError("negative token index")
        object.__setattr__(self, "layers", a)

    @property
    def num_layers(self) -> int:
        return self.layers.shape[0]

    @property
    def length(self) -> int:
        return self.layers.shape[1]


def sqdist(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, a_sq: np.ndarray | None = None
) -> np.ndarray:
    """Squared Euclidean distances, (n, d) x (k, d) -> (n, k).

    Computed as ``-2 a.b^T + (||a||^2 + ||b||^2)`` with one BLAS matmul and
    clamped at 0.  The product is written into the result and scaled by -2
    in place; the norms are added one block of rows at a time.  So beyond
    the result, memory is the O(n + k) norms, one block of ``_BLOCK``
    elements and numpy's buffer for the broadcast add into it, at most as
    large: no (n, k) temporary and no (n, k, d) difference array is built.
    Only a non-C-contiguous ``a`` or ``b`` has its squares formed whole.
    The absolute rounding error of an entry is a small multiple of
    ``eps * (||a_i||^2 + ||b_j||^2)``, under 8x on random data.  So near-equal
    distances may order differently than under the difference form, and a
    distance that is exactly 0 may come out slightly positive.  On
    integer-valued data whose products and sums are exact in float64 the
    result equals the difference form exactly, so exact ties stay exact.

    ``out``, if given, is a float64 (n, k) array that receives the result
    and is returned; its prior contents are never read, so one buffer can
    serve many calls.  ``a_sq``, if given, is ``(a * a).sum(axis=1)``, so a
    caller that measures the same ``a`` against many ``b`` computes it once.
    Either way the values are the same bits.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a_sq is None:
        a_sq = _row_norms(a)
    b_sq = _row_norms(b)
    d2 = np.matmul(a, b.T, out=out)   # a @ a.T stays one symmetric BLAS product (syrk)
    d2 *= -2.0   # exact, and -2ab + s is the rounding of s - 2ab
    step = max(1, _BLOCK // max(d2.shape[1], 1))
    block = np.empty((min(step, d2.shape[0]), d2.shape[1]))
    for i in range(0, d2.shape[0], step):
        rows = d2[i : i + step]
        norms = block[: rows.shape[0]]
        norms[:] = a_sq[i : i + step, None]
        norms += b_sq
        rows += norms
        np.maximum(rows, 0.0, out=rows)
    return d2


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``(x * x).sum(axis=1)``, one block of rows at a time if ``x`` is
    C-contiguous: each row then sums alone, so the bits are the same."""
    step = max(1, _BLOCK // max(x.shape[1], 1))
    if x.shape[0] <= step or not x.flags.c_contiguous:
        return (x * x).sum(axis=1)
    sq = np.empty(x.shape[0])
    for i in range(0, x.shape[0], step):
        rows = x[i : i + step]
        sq[i : i + step] = (rows * rows).sum(axis=1)
    return sq


def _nearest(codes: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Index of the nearest code per vector under :func:`sqdist`.

    Exact ties go to the lowest index (``argmin`` keeps the first minimum).
    Memory is the O(n*k) distance matrix.
    """
    return np.argmin(sqdist(vectors, codes), axis=1)


def quantize(v: LatentSequence, stack: CodebookStack) -> tuple[TokenSequence, LatentSequence]:
    """Residual quantization: returns the layer tokens and the summed codes."""
    if v.dim != stack.dim:
        raise ValueError(f"latent dim {v.dim} != codebook dim {stack.dim}")
    residual = v.vectors.astype(np.float64).copy()
    quantized = np.zeros_like(residual)
    rows = []
    for book in stack.books:
        idx = _nearest(book.entries, residual)
        chosen = book.entries[idx]
        residual -= chosen
        quantized += chosen
        rows.append(idx)
    return TokenSequence(layers=np.stack(rows)), LatentSequence(vectors=quantized)


def dequantize(t: TokenSequence, stack: CodebookStack) -> LatentSequence:
    """Sum of the selected code per layer at each position."""
    if t.num_layers != stack.num_layers:
        raise ValueError(f"token sequence has {t.num_layers} layers, stack has {stack.num_layers}")
    out = np.zeros((t.length, stack.dim))
    for j, book in enumerate(stack.books):
        idx = t.layers[j]
        if np.any(idx >= book.size):
            raise ValueError(f"token out of range for layer {j} (K={book.size})")
        out += book.entries[idx]
    return LatentSequence(vectors=out)


def _seed_lower_bound(data: np.ndarray, data_sq: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per-row lower bound on ``np.square(data - c).sum(axis=1)``; :func:`kmeans` proves it."""
    d = c.size
    return (data_sq + c @ c) * (1.0 - (d + 2) * 1e-12) - (d + 3) * 2.0**-1022 - data @ (c + c)


def _seed_draw(rng: np.random.Generator, p: np.ndarray) -> int:
    """``rng.choice(len(p), p=p)`` by the steps it takes after validating p."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(), side="right")


def kmeans(data: np.ndarray, k: int, seed: int, iters: int = 25) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means with k-means++ init and at most ``iters`` iterations.

    Returns (centers, assignment), the index of each row's nearest center,
    which equals ``_nearest(centers, data)`` bit for bit (the same
    :func:`sqdist` of the same arrays).  At a fixed point it is the last
    iteration's assignment; a run that stops at ``iters`` makes one more
    assignment pass, to its final centers.

    Each iteration assigns every point to its nearest center by
    :func:`sqdist` (exact ties to the lowest index), then moves each center to
    the mean of its points, summed in row order per cluster.  Every cluster
    left empty is reseeded to the single point farthest from its assigned
    center under the pre-update distances, so the result is deterministic for
    a fixed seed.  Memory is the (n, k) distance buffer, a few n-vectors
    (norms, seeding distances, assignments) and a few blocks of ``_BLOCK``
    elements: the norms are summed, and each draw's rows measured, a block
    of rows at a time, and Lloyd's sums take a block of rows at a time with
    ``np.add.at``, which adds in row order.

    It stops at the fixed point, which gives the same centers: once an
    assignment repeats the previous one with no cluster empty, the centers
    were already computed from it without a reseed, and every further
    iteration would recompute the same means by the same arithmetic.

    Seeding keeps each row's squared distance d2 to its nearest center in the
    difference form ``np.square(x - c).sum()``, but measures only the rows
    whose bound L = (|x|^2 + |c|^2)(1 - r) - t - 2x.c, r = (d + 2)1e-12,
    t = (d + 3)2^-1022, is not >= d2 for the newest center c; elsewhere
    ``minimum`` would keep d2, and a gathered row sums as in a full pass, so
    no bit changes.  Proof: for A = |x|^2 + |c|^2 and u = 2^-53, both forms
    lie within 2(d + 2)uA of the exact distance (<= 2A) plus < 2d underflows
    of 2^-1075; rA tops 10^3 times their gap (and L's rounding), t the
    underflows.  A row with |x|^2 > max / 8 could overflow, so it stops pruning.
    """
    data = np.asarray(data, dtype=np.float64)
    n, d = data.shape
    if not 1 <= k <= n:
        raise ValueError(f"k-means needs 1 <= k <= {n}, the number of points, got k={k}")
    if not np.isfinite(data).all():
        raise ValueError("k-means input contains non-finite values")
    rng = np.random.default_rng(seed)
    data_sq = _row_norms(data)
    prune = data_sq.max() <= np.finfo(np.float64).max / 8
    step = max(1, _BLOCK // max(d, 1))   # rows of one block

    # k-means++ initialization
    centers = np.empty((k, d))
    c = centers[0] = data[rng.integers(n)]
    d2 = np.full(n, np.inf)   # so the first center measures every row
    for j in range(1, k):
        near = np.flatnonzero(~(_seed_lower_bound(data, data_sq, c) >= d2)) if prune else np.arange(n)
        for i in range(0, near.size, step):
            rows = near[i : i + step]
            diff = data[rows]
            diff -= c
            d2[rows] = np.minimum(d2[rows], np.square(diff, out=diff).sum(axis=1))
        total = d2.sum()
        if not total < np.inf:
            raise ValueError("k-means++ distance total is not finite")
        c = centers[j] = data[rng.integers(n) if total <= 0 else _seed_draw(rng, d2 / total)]

    bins = np.arange(d)
    prev = None
    dist = np.empty((n, k))
    for _ in range(iters):
        sqdist(data, centers, out=dist, a_sq=data_sq)
        assign = np.argmin(dist, axis=1)
        counts = np.bincount(assign, minlength=k)
        filled = counts > 0
        if filled.all() and prev is not None and np.array_equal(assign, prev):
            return centers, assign
        prev = assign
        # bin (cluster, dim) receives its points in row order
        sums = np.zeros(k * d)
        for i in range(0, n, step):
            np.add.at(sums, (assign[i : i + step, None] * d + bins).ravel(), data[i : i + step].ravel())
        sums = sums.reshape(k, d)
        centers[filled] = sums[filled] / counts[filled, None]
        if not filled.all():
            centers[~filled] = data[np.argmax(dist.min(axis=1))]
    sqdist(data, centers, out=dist, a_sq=data_sq)
    return centers, np.argmin(dist, axis=1)


def train_codebooks(
    data: np.ndarray,
    layers: int,
    codes_per_layer: int,
    seed: int = 0,
    iters: int = 25,
) -> CodebookStack:
    """Layer-wise k-means on the (n, d) rows of ``data``: layer 0 fits the
    data, layer j fits what layers < j leave behind."""
    return train_and_tokenize(data, layers, codes_per_layer, seed, iters)[0]


def train_and_tokenize(
    data: np.ndarray,
    layers: int,
    codes_per_layer: int,
    seed: int = 0,
    iters: int = 25,
) -> tuple[CodebookStack, TokenSequence]:
    """:func:`train_codebooks`, with the tokens of ``data``'s rows.

    Each layer's tokens are its k-means assignment, the nearest codes to
    the residual it fitted.  So the tokens, and each residual, are those
    :func:`quantize` gives the rows, bit for bit.
    """
    residual = np.array(data, dtype=np.float64)
    if residual.shape[0] < codes_per_layer:
        raise ValueError(f"insufficient data: {residual.shape[0]} vectors for K={codes_per_layer}")
    books = []
    rows = []
    for j in range(layers):
        centers, idx = kmeans(residual, codes_per_layer, seed=seed + j, iters=iters)
        book = Codebook(entries=centers)
        residual = residual - book.entries[idx]
        books.append(book)
        rows.append(idx)
    return CodebookStack(books=tuple(books)), TokenSequence(layers=np.stack(rows))


def reconstruction_error(data: np.ndarray, stack: CodebookStack) -> float:
    """Mean squared Euclidean distance between the (n, d) rows of ``data``
    and their quantization."""
    s = LatentSequence(vectors=np.asarray(data, dtype=np.float64))
    return quantization_mse([(s, quantize(s, stack)[1])])


def quantization_mse(pairs) -> float:
    """Mean squared Euclidean distance over (latents, quantized latents) pairs.

    Each pair's squared error is summed in float64, then the pairs in order.
    """
    total = 0.0
    count = 0
    for s, q in pairs:
        total += float(((s.vectors - q.vectors) ** 2).sum())
        count += s.length
    return total / count


def truncate_stack(stack: CodebookStack, num_layers: int) -> CodebookStack:
    """Keep only the first ``num_layers`` codebooks."""
    if not (1 <= num_layers <= stack.num_layers):
        raise ValueError("num_layers out of range")
    return CodebookStack(books=stack.books[:num_layers])


def stack_to_json(stack: CodebookStack) -> dict:
    """The stack as JSON, each codebook's entries as ``jsonio.hex_rows``."""
    return {"books": [hex_rows(b.entries) for b in stack.books]}


def stack_from_json(obj) -> CodebookStack:
    """The stack ``stack_to_json`` wrote, each book as wide as the first;
    anything else raises ValueError naming the field or the book at fault."""
    json_object(obj, "books")
    if not isinstance(obj["books"], list) or not obj["books"]:
        raise ValueError("field 'books' must be a non-empty list of codebooks")
    books = [unhex_rows(obj["books"][0], None, "books[0]", "quantize")]
    books += [unhex_rows(b, books[0].shape[1], f"books[{j}]", "quantize") for j, b in enumerate(obj["books"][1:], 1)]
    return CodebookStack(books=tuple(map(Codebook, books)))
