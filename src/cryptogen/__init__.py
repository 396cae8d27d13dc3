"""Secure autoregressive transformer generation kernels over an
instrumented SIMD-ciphertext emulation.

Heterogeneous packing (outer for batched prefilling, compacted inner for
token-by-token decoding), CT x PT and CT x CT kernels, an encrypted KV
cache with lazy noise refresh, MPC-emulated nonlinearities, and closed-form
operation-count models — all verified against a plaintext fixed-point
oracle.
"""

from .backend import (
    BackendParams,
    Context,
    DecryptionFailure,
    NoiseBudgetExhausted,
    NoiseCosts,
    OpCounter,
    ParameterError,
    Plaintext,
    SlotCiphertext,
    default_plain_modulus,
)
from .encodings import (
    Encoding,
    EncodingKind,
    PackedMatrix,
    decode,
    encode,
    load_matrix,
    pack_token_inner,
    save_matrix,
    tile_token,
)
from .linear_kernels import cpmm_outer_diagonal, cpvm_inner_diagonal, cpvm_plaintexts, fold_sum
from .arcc import (
    ScoreVector,
    arcc_inner_inner,
    arcc_inner_outer,
    attention_step,
    broadcast_slot,
    compact_scores,
    prefill_attention,
)
from .kv_cache import (
    KVCache,
    RefreshEvent,
    append_token,
    cache_stats,
    init_cache,
    load_cache,
    maybe_refresh,
    save_cache,
)
from .fixedpoint import FixedPointParams
from .nonlinear import (
    MpcChannel,
    attention_softmax,
    he_to_shares,
    refresh,
    shares_to_he,
    truncate,
)
from .model import (
    GenerationState,
    Model,
    ModelConfig,
    bolt_reference_generate,
    decode_step,
    generate,
    generate_toy_model,
    load_model,
    oracle_generate,
    prefill,
    save_model,
    toy_config,
)
from .costmodel import (
    predict_attention_costs,
    predict_costs,
    reported_only,
    validate_against_counts,
)

__version__ = "0.1.0"
