"""Segment-aligned text-to-motion toolkit.

Desk-scale machinery for residual vector quantization of motion latents,
motion segmentation (uniform / kernel change-point / clustering DP),
fine-grained contrastive text-motion alignment, masked-token iterative
decoding, and retrieval-style evaluation metrics.
"""

from .motion import (
    MotionSequence,
    LatentSequence,
    DatasetRecord,
    SyntheticSpec,
    save_motion,
    load_motion,
    synth_motion,
    project_latent,
    reconstruct_motion,
)
from .textseg import (
    TextSegmentSet,
    LlmEndpointConfig,
    parse_segment_string,
    llm_decompose,
    fallback_decompose,
)
from .rvq import (
    Codebook,
    CodebookStack,
    TokenSequence,
    quantize,
    dequantize,
    train_codebooks,
    reconstruction_error,
)
from .segmentation import (
    SegmentBoundaries,
    PrimitiveLibrary,
    CostMatrix,
    uniform_segment,
    kernel_cpd_segment,
    build_primitive_library,
    cluster_dp_segment,
    brute_force_segment,
)
from .alignment import (
    AlignmentConfig,
    AggregatorParams,
    SegmentEmbeddings,
    cosine_sim,
    embed_spans,
    aggregate_mean_max,
    loss_per_sample,
    loss_batch,
    loss_global,
    grad_alignment,
    toy_train,
)
from .masked import (
    Schedule,
    mask_random,
    mask_loss,
    iterative_decode,
    residual_decode,
)
from .metrics import (
    EvalReport,
    motion_grounding,
    m2t_retrieve,
    isc_score,
    isc_cv,
    r_precision,
    mm_dist,
    diversity,
    fid,
)

__version__ = "0.1.0"
