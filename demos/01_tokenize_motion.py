"""Walk a motion from raw frames to residual tokens and back.

Generates a piecewise-constant synthetic motion, projects it to latent
tokens, trains a small residual-quantizer stack on a corpus of similar
motions, and shows how reconstruction error falls as residual layers are
added.
"""

import numpy as np

from segalign.motion import (
    LatentSequence,
    SyntheticSpec,
    project_latent,
    reconstruct_motion,
    synth_motion,
)
from segalign.rvq import (
    dequantize,
    quantize,
    reconstruction_error,
    train_codebooks,
    truncate_stack,
)

rng = np.random.default_rng(0)

# a corpus of two-regime motions: 32 tokens each after 4x downsampling
corpus = []
for i in range(40):
    spec = SyntheticSpec(
        frames_per_regime=[64, 64],
        regime_means=[rng.normal(0, 2, size=6) for _ in range(2)],
        noise_std=0.3,
        seed=i,
    )
    m, _ = synth_motion(spec)
    corpus.append(project_latent(m, ratio=4))

print(f"corpus: {len(corpus)} sequences of {corpus[0].length} tokens, dim {corpus[0].dim}")

# the trainer takes one (n, d) array: every sequence's latent rows, stacked
vectors = np.vstack([seq.vectors for seq in corpus])
stack = train_codebooks(vectors, layers=4, codes_per_layer=32, seed=0)
print(f"trained stack: {stack.num_layers} codebooks of {stack.books[0].size} codes")

print("\nreconstruction error by quantizer depth:")
for depth in range(1, stack.num_layers + 1):
    err = reconstruction_error(vectors, truncate_stack(stack, depth))
    print(f"  {depth} layer(s): {err:.5f}")

# round-trip one sequence through tokens
seq = corpus[0]
tokens, quantized = quantize(seq, stack)
print(f"\ntoken matrix shape: {tokens.layers.shape} (layers x positions)")
print(f"first 8 base tokens:     {tokens.layers[0, :8]}")
print(f"first 8 residual tokens: {tokens.layers[1, :8]}")

assert np.array_equal(dequantize(tokens, stack).vectors, quantized.vectors)
back = reconstruct_motion(LatentSequence(vectors=quantized.vectors), ratio=4)
frame_err = np.abs(back.frames - reconstruct_motion(seq, 4).frames).mean()
print(f"mean |frame error| after the full round trip: {frame_err:.4f}")
