"""Run the retrieval-style evaluation metrics on a trained alignment.

Computes intra-segment consistency (ISC), pooled R-Precision, MM-Dist,
Diversity, and FID over the held-out embeddings of the toy alignment task,
and shows ISC degrading when segment boundaries are deliberately shifted.
"""

import numpy as np

from segalign.alignment import (
    AlignmentConfig,
    aggregate_mean_max,
    embed_spans,
    make_separable_dataset,
    toy_train,
)
from segalign.metrics import diversity, fid, isc_score, mm_dist, r_precision

cfg = AlignmentConfig(batch_size=8)
train = make_separable_dataset(200, seed=100, map_seed=7)
holdout = make_separable_dataset(50, seed=200, map_seed=7)
params, _ = toy_train(train, cfg, steps=400, lr=0.5, seed=3)

pairs, text_rows, motion_rows = [], [], []
for sample in holdout:
    M = embed_spans(sample.spans, params)
    for j in range(M.shape[0]):
        pairs.append((sample.text[j], M[j]))
        text_rows.append(sample.text[j])
        motion_rows.append(M[j])
T, M = np.vstack(text_rows), np.vstack(motion_rows)
print(f"{len(pairs)} (text, motion) segment pairs from {len(holdout)} held-out samples\n")

print(f"ISC (mean paired cosine):   {isc_score(pairs):.4f}")
for k in (1, 2, 3):
    print(f"R-Precision top-{k}:          {r_precision(T, M, topk=k):.4f}")
print(f"MM-Dist:                    {mm_dist(T, M):.4f}")
print(f"Diversity (300 pairs):      {diversity(M, seed=0):.4f}")
print(f"FID(text, motion):          {fid(T, M):.4f}")
print(f"FID(motion, motion):        {fid(M, M):.2e}  (identical sets)")

# ISC is sensitive to the segmentation: shift every boundary by two tokens
shifted = []
for sample in holdout:
    tokens = np.vstack(sample.spans)
    cuts = list(np.cumsum([sp.shape[0] for sp in sample.spans])[:-1])
    cuts = [min(max(c + 2, 1), tokens.shape[0] - 1) for c in cuts]
    edges = [0, *cuts, tokens.shape[0]]
    for j, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        shifted.append((sample.text[j], aggregate_mean_max(tokens[a:b], params)))
print(f"\nISC with boundaries shifted by +2 tokens: {isc_score(shifted):.4f} "
      f"(matched: {isc_score(pairs):.4f})")
