"""Segment-aligned text-to-motion toolkit.

Desk-scale machinery for residual vector quantization of motion latents,
motion segmentation (uniform / kernel change-point / clustering DP),
fine-grained contrastive text-motion alignment, masked-token iterative
decoding, and retrieval-style evaluation metrics.
"""

__version__ = "0.1.0"
