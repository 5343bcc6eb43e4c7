"""Fine-grained contrastive text-motion alignment.

Motion tokens inside a segment span are aggregated (mean + max pooled, then
a small MLP) into a segment embedding in the text embedding space, in one
batched aggregator pass over all spans.  Three symmetric InfoNCE losses are
one kernel call on the stacked block and differ only in the negatives:
per-sample (the default; a group mask keeps them in the same sample),
batch-level and global sequence-level (batch negatives over one
whole-sequence pair per sample).  Their gradients are hand-derived so they
can be audited against finite differences.  A toy SGD loop demonstrates the
mechanism end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .jsonio import hex_rows, json_object, unhex_rows

NORM_FLOOR = 1e-12

DEFAULT_TEMPERATURE = 0.1


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


@dataclass(frozen=True)
class AlignmentConfig:
    temperature: float = DEFAULT_TEMPERATURE
    batch_size: int = 32

    def __post_init__(self):
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be a finite positive number, got {self.temperature!r}")


@dataclass
class SegmentEmbeddings:
    """Paired text / motion segment embeddings, ragged across samples.

    ``text[i]`` and ``motion[i]`` are (A_i, d_e) matrices; row j of each is a
    matched pair.  The lists are ragged, not padded, so there is no padding
    slot that could act as a negative.
    """

    text: list[np.ndarray]
    motion: list[np.ndarray]

    def __post_init__(self):
        if len(self.text) != len(self.motion):
            raise ValueError("text and motion sample counts differ")
        self.text = [np.asarray(t, dtype=np.float64) for t in self.text]
        self.motion = [np.asarray(m, dtype=np.float64) for m in self.motion]
        for i, (t, m) in enumerate(zip(self.text, self.motion)):
            if t.shape != m.shape:
                raise ValueError(f"sample {i}: text shape {t.shape} != motion shape {m.shape}")
            if t.ndim != 2 or t.shape[0] < 1:
                raise ValueError(f"sample {i}: expected (A_i, d_e) matrices")


# --- similarity -------------------------------------------------------------

def cosine_sim(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity with norms floored at 1e-12; underflow gives 0.  The
    per-pair reference tests check ``cosine_matrix`` and ``isc_score`` against."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < NORM_FLOOR or nb < NORM_FLOOR:
        return 0.0
    return float(a @ b / (na * nb))


def _unit_rows(X: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """Row-normalize; rows with norm under the floor become zero rows.
    ``norms``, when given, are X's (n, 1) row norms."""
    if norms is None:
        norms = np.linalg.norm(X, axis=1, keepdims=True)
    return np.where(norms < NORM_FLOOR, 0.0, X / np.maximum(norms, NORM_FLOOR))


def cosine_matrix(T: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities: rows index T, columns index M."""
    return _unit_rows(np.asarray(T, dtype=np.float64)) @ _unit_rows(np.asarray(M, dtype=np.float64)).T


# --- aggregation ------------------------------------------------------------

@dataclass
class AggregatorParams:
    """Two-layer MLP over concat(mean, max) of a token span."""

    w1: np.ndarray  # (h, 2*d_token)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (d_embed, h)
    b2: np.ndarray  # (d_embed,)

    def __post_init__(self):
        for name in ("w1", "b1", "w2", "b2"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            setattr(self, name, arr)
        if self.w1.shape[0] != self.b1.shape[0] or self.w2.shape[1] != self.w1.shape[0]:
            raise ValueError("inconsistent aggregator shapes")
        if self.w2.shape[0] != self.b2.shape[0]:
            raise ValueError("inconsistent aggregator shapes")

    @classmethod
    def init(cls, d_token: int, d_embed: int, seed: int = 0) -> "AggregatorParams":
        """Seeded uniform init in +-1/sqrt(fan_in), with 2*d_token hidden units."""
        h = 2 * d_token   # both layers have fan-in h
        lim = 1.0 / np.sqrt(h)
        rng = np.random.default_rng(seed)
        return cls(
            w1=rng.uniform(-lim, lim, size=(h, h)),
            b1=rng.uniform(-lim, lim, size=h),
            w2=rng.uniform(-lim, lim, size=(d_embed, h)),
            b2=rng.uniform(-lim, lim, size=d_embed),
        )

    def copy(self) -> "AggregatorParams":
        return AggregatorParams(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())


@dataclass
class AggregatorGrads:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def _pool(spans) -> np.ndarray:
    """(N, 2*d_token) concat(mean, max) of N spans, pooled with ``reduceat``
    over their concatenation.  It has no parameters, so training pools once."""
    lengths = np.array(list(map(len, spans)))
    if lengths.min() < 1:
        # reduceat would silently return the start row for an empty span
        raise ValueError(f"span {int(lengths.argmin())} is empty")
    X = np.concatenate(spans, axis=0, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("spans must be (m, d) matrices")
    starts = np.cumsum(lengths) - lengths
    return np.hstack([np.add.reduceat(X, starts) / lengths[:, None], np.maximum.reduceat(X, starts)])


def _mlp_forward(feat: np.ndarray, p: AggregatorParams):
    """(N, d_embed) MLP outputs for N pooled rows, and the backward cache."""
    h_pre = feat @ p.w1.T + p.b1
    h = np.maximum(h_pre, 0.0)
    return h @ p.w2.T + p.b2, (feat, h_pre, h)


def embed_spans(spans, params: AggregatorParams) -> np.ndarray:
    """Segment embeddings (N, d_embed) of N token spans of any lengths >= 1."""
    return _mlp_forward(_pool(spans), params)[0]


def aggregate_mean_max(span: np.ndarray, p: AggregatorParams) -> np.ndarray:
    """MLP(concat(mean(span), max(span))) -> segment embedding."""
    return embed_spans([span], p)[0]


def _agg_backward(cache, p: AggregatorParams, G: np.ndarray) -> AggregatorGrads:
    """Parameter gradients given G, the (N, d_embed) gradients of the outputs."""
    feat, h_pre, h = cache
    g_pre = (G @ p.w2) * (h_pre > 0.0)
    return AggregatorGrads(w1=g_pre.T @ feat, b1=g_pre.sum(axis=0), w2=G.T @ h, b2=G.sum(axis=0))


# --- contrastive losses -----------------------------------------------------

def _softmax(z: np.ndarray, axis: int, where) -> np.ndarray:
    """Softmax over the entries ``where`` selects; the others come out 0, as
    they would from a -inf logit, without computing their exp."""
    z = z - z.max(axis=axis, keepdims=True, where=where, initial=-np.inf)
    e = np.exp(z, out=np.zeros_like(z), where=where)
    return e / e.sum(axis=axis, keepdims=True)


def _info_nce(T: np.ndarray, M: np.ndarray, tau: float, denom: int, groups=None):
    """(loss, dL/dM): symmetric InfoNCE over paired rows, summed and divided
    by ``denom``; the negatives are the other rows of the block, or of the
    same group given ``groups``.  Floored motion rows get a zero gradient."""
    norms = np.linalg.norm(M, axis=1, keepdims=True)
    Ut = _unit_rows(T)
    Um = _unit_rows(M, norms)
    S = (Ut @ Um.T) / tau
    same = True if groups is None else groups[:, None] == groups[None, :]
    p_row = _softmax(S, 1, same)     # t2m: softmax over motion rows
    p_col = _softmax(S, 0, same)     # m2t: softmax over text rows
    diag = np.arange(T.shape[0])
    d_row = p_row[diag, diag]
    d_col = p_col[diag, diag]
    loss = (-np.log(d_row).sum() - np.log(d_col).sum()) / denom

    # (p_row - I) + (p_col - I), with the identity touching only the diagonal
    G = p_row + p_col
    G[diag, diag] = (d_row - 1.0) + (d_col - 1.0)
    G /= denom * tau
    # d sim(j,k) / d Um[k] = Ut[j]  ->  dL/dUm = G^T Ut
    g_um = G.T @ Ut
    # through row normalization: dL/dm = (I - u u^T) g_u / ||m||
    radial = np.sum(Um * g_um, axis=1, keepdims=True)
    g_m = np.where(norms < NORM_FLOOR, 0.0, (g_um - radial * Um) / np.maximum(norms, NORM_FLOOR))
    return float(loss), g_m


def _groups(variant: str, sizes):
    """The negatives of a loss variant, as :func:`_info_nce` takes them: the
    sample index of each stacked row for "sample" (each sample has
    ``sizes[i]`` rows), None (the whole block) for "batch"."""
    if variant == "sample":
        return np.repeat(np.arange(len(sizes)), sizes)
    if variant == "batch":
        return None
    raise ValueError(f"unknown loss variant {variant!r}")


def _stacked_loss(e: SegmentEmbeddings, cfg: AlignmentConfig, variant: str) -> float:
    """One kernel call on the stacked pairs of ``e``."""
    sizes = list(map(len, e.text))
    T, M = np.vstack(e.text), np.vstack(e.motion)
    return _info_nce(T, M, cfg.temperature, 2 * sum(sizes), _groups(variant, sizes))[0]


def loss_per_sample(e: SegmentEmbeddings, cfg: AlignmentConfig) -> float:
    """Symmetric InfoNCE where negatives come only from the same sample.

    Normalized by the number of valid (sample, segment) pairs, so padding
    never influences the loss scale.
    """
    return _stacked_loss(e, cfg, "sample")


def loss_batch(e: SegmentEmbeddings, cfg: AlignmentConfig) -> float:
    """As loss_per_sample, but negatives range over every segment in the batch."""
    return _stacked_loss(e, cfg, "batch")


def loss_global(text_embs, motion_embs, cfg: AlignmentConfig) -> float:
    """Symmetric InfoNCE over whole-sequence embeddings (B x B)."""
    T = np.asarray(text_embs, dtype=np.float64)
    M = np.asarray(motion_embs, dtype=np.float64)
    if T.shape[0] != M.shape[0]:
        raise ValueError("text and motion lists differ in length")
    return _info_nce(T, M, cfg.temperature, 2 * T.shape[0])[0]


# --- gradients through the aggregator ---------------------------------------

def _stack_text(text, sizes, d_embed: int) -> np.ndarray:
    """All samples' text rows stacked, once sample i is checked to be a
    (sizes[i], d_embed) matrix with at least one row."""
    if len(text) != len(sizes):
        raise ValueError("text and motion sample counts differ")
    text = [np.asarray(t, dtype=np.float64) for t in text]
    for i, (t, a) in enumerate(zip(text, sizes)):
        if a < 1 or t.shape != (a, d_embed):
            raise ValueError(f"sample {i}: text shape {t.shape} != motion shape {(a, d_embed)}")
    return np.vstack(text)


def _pooled_step(T: np.ndarray, feat: np.ndarray, groups, params: AggregatorParams, cfg: AlignmentConfig):
    """(loss, AggregatorGrads, dL/dM) of InfoNCE between the text rows ``T``
    and the aggregator outputs M of the pooled spans ``feat``, paired row by
    row; ``groups`` as in :func:`_info_nce`."""
    out, cache = _mlp_forward(feat, params)
    loss, g = _info_nce(T, out, cfg.temperature, 2 * T.shape[0], groups)
    return loss, _agg_backward(cache, params, g), g


def grad_alignment(
    text: list[np.ndarray],
    spans: list[list[np.ndarray]],
    params: AggregatorParams,
    cfg: AlignmentConfig,
    variant: str = "sample",
):
    """Loss and analytic gradients of the alignment loss composed with the
    mean-max aggregator.

    ``spans[i][j]`` is the token span feeding motion segment j of sample i.
    ``variant`` is "sample" (negatives within each sample) or "batch"
    (negatives across the batch; with one segment per sample this is the
    global whole-sequence loss, as :func:`toy_train` trains it).
    Returns (loss, AggregatorGrads, per-sample motion-embedding gradients).
    """
    sizes = list(map(len, spans))
    groups = _groups(variant, sizes)
    feat = _pool(list(chain.from_iterable(spans)))
    T = _stack_text(text, sizes, params.w2.shape[0])
    loss, pgrads, g = _pooled_step(T, feat, groups, params, cfg)
    return loss, pgrads, np.split(g, np.cumsum(sizes)[:-1])


# --- toy training loop ------------------------------------------------------

@dataclass
class ToySample:
    """One training sample: text segment embeddings plus matched token spans."""

    text: np.ndarray                 # (A, d_embed)
    spans: list[np.ndarray] = field(default_factory=list)  # A spans of (m_j, d_token)

    def __post_init__(self):
        if self.text.shape[0] != len(self.spans):
            raise ValueError("one span per text segment required")


def unit_blocks(samples: list[ToySample], params: AggregatorParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each sample's unit-norm (text rows, motion embeddings), from one
    embed_spans call over all spans of the split and one row normalization
    of each side."""
    cuts = np.cumsum([len(s.spans) for s in samples])[:-1]
    Ut = _unit_rows(np.vstack([s.text for s in samples]))
    Um = _unit_rows(embed_spans([span for s in samples for span in s.spans], params))
    return list(zip(np.split(Ut, cuts), np.split(Um, cuts)))


def make_separable_dataset(
    n_samples: int,
    d_token: int = 8,
    d_embed: int = 16,
    seg_choices=(2, 3),
    tokens_per_segment: int = 4,
    seed: int = 0,
    map_seed: int | None = None,
) -> list[ToySample]:
    """Motion token spans are linear images of their paired text embeddings
    plus Gaussian noise of std 0.05, so an aggregator that inverts the map
    solves the task.

    ``map_seed`` fixes the hidden linear map; give train and held-out splits
    the same map_seed (but different seeds) so they share one task.
    """
    rng = np.random.default_rng(seed)
    map_rng = np.random.default_rng(seed if map_seed is None else map_seed)
    w_true = map_rng.normal(size=(d_token, d_embed)) / np.sqrt(d_embed)
    samples = []
    for _ in range(n_samples):
        a = int(seg_choices[rng.integers(0, len(seg_choices))])   # the one draw rng.choice makes, at less cost
        text = rng.normal(size=(a, d_embed))
        text /= np.linalg.norm(text, axis=1, keepdims=True)
        spans = []
        for j in range(a):
            base = w_true @ text[j]
            tokens = base[None, :] + rng.normal(0.0, 0.05, size=(tokens_per_segment, d_token))
            spans.append(tokens)
        samples.append(ToySample(text=text, spans=spans))
    return samples


def retrieval_top1(samples: list[ToySample], params: AggregatorParams) -> float:
    """Intra-sample segment retrieval accuracy: does each text segment's
    nearest motion segment (cosine) come from its own pair?"""
    hits = 0
    total = 0
    for Ut, Um in unit_blocks(samples, params):
        hits += int((np.argmax(Ut @ Um.T, axis=1) == np.arange(Ut.shape[0])).sum())
        total += Ut.shape[0]
    return hits / total


def toy_train(
    dataset: list[ToySample],
    cfg: AlignmentConfig,
    steps: int = 500,
    lr: float = 0.5,
    seed: int = 0,
    params: AggregatorParams | None = None,
    variant: str = "sample",
) -> tuple[AggregatorParams, list[float]]:
    """Seeded minibatch SGD on the alignment loss through the
    aggregator, running :func:`grad_alignment`'s step on rows gathered from
    spans pooled once.  ``variant`` is "sample" or "batch" as there, or
    "global": each sample becomes one whole-sequence pair, its mean text row
    against its spans concatenated, trained with batch negatives.

    A zero ``lr`` leaves the parameters untouched.  Returns the trained
    parameters and the per-step loss curve.  Raises DivergenceError if the
    loss goes non-finite.
    """
    if not dataset:
        raise ValueError("empty dataset")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if not np.isfinite(lr):
        raise ValueError(f"lr must be a finite number, got {lr!r}")
    if variant == "global":
        dataset = [ToySample(text=s.text.mean(axis=0, keepdims=True), spans=[np.vstack(s.spans)]) for s in dataset]
        variant = "batch"
    d_token = dataset[0].spans[0].shape[1]
    d_embed = dataset[0].text.shape[1]
    if params is None:
        params = AggregatorParams.init(d_token, d_embed, seed=seed)
    else:
        params = params.copy()
    # pooling has no parameters: pool every span once, and let each step
    # gather its batch's rows in the order concatenating the batch gives
    counts = np.array([len(s.spans) for s in dataset])
    offsets = np.cumsum(counts) - counts
    feat = _pool([span for s in dataset for span in s.spans])
    T = _stack_text([s.text for s in dataset], counts, params.w2.shape[0])
    rng = np.random.default_rng(seed)
    curve = []
    order = np.arange(len(dataset))
    pos = len(dataset)
    for _ in range(steps):
        if pos + cfg.batch_size > len(order):
            rng.shuffle(order)
            pos = 0
        batch = order[pos : pos + cfg.batch_size]
        pos += cfg.batch_size
        sizes = counts[batch]
        rows = np.repeat(offsets[batch] - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())
        loss, pgrads, _ = _pooled_step(T[rows], feat[rows], _groups(variant, sizes), params, cfg)
        if not np.isfinite(loss):
            raise DivergenceError(f"loss became non-finite at step {len(curve)}")
        params.w1 -= lr * pgrads.w1
        params.b1 -= lr * pgrads.b1
        params.w2 -= lr * pgrads.w2
        params.b2 -= lr * pgrads.b2
        curve.append(loss)
    return params, curve


# --- parameter serialization ------------------------------------------------

def params_to_json(p: AggregatorParams) -> dict:
    """The weights as JSON: ``w1`` and ``w2`` as ``jsonio.hex_rows``, ``b1``
    and ``b2`` as one hex row each."""
    return {
        "w1": hex_rows(p.w1),
        "b1": hex_rows(p.b1[None])[0],
        "w2": hex_rows(p.w2),
        "b2": hex_rows(p.b2[None])[0],
    }


def params_from_json(obj) -> AggregatorParams:
    """The inverse of ``params_to_json``.  A top level that is not an
    object, or a weight that is missing, not hex rows or of a width that
    does not fit the others, is a ValueError naming it; weights of decimal
    float lists are the older encoding, refused naming train-align."""
    json_object(obj, "w1", "b1", "w2", "b2")
    w1 = unhex_rows(obj["w1"], None, "weight 'w1'", "train-align")
    b1 = unhex_rows([obj["b1"]], len(w1), "weight 'b1'", "train-align")[0]
    w2 = unhex_rows(obj["w2"], len(w1), "weight 'w2'", "train-align")
    b2 = unhex_rows([obj["b2"]], len(w2), "weight 'b2'", "train-align")[0]
    return AggregatorParams(w1=w1, b1=b1, w2=w2, b2=b2)
