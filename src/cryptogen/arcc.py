"""Ciphertext-ciphertext attention kernels over the heterogeneous cache.

Two complementary CTxCT modes:

  inner-inner   scalar-broadcast accumulation: each coefficient slot is
                masked out, rotated to slot 0, duplicated across the slot
                range, and multiplied against one outer-packed column.
                Used for query x prefill-keys.

  inner-outer   dot-product folding reduction: one SIMD multiplication per
                stored ciphertext followed by a log-depth rotate-and-add
                fold.  Used for query x generated-keys and weights x
                prefill-values.

Weights x generated-values takes neither: the softmax weights are already
in the share domain, so each is duplicated across its d2-wide block there
and re-encrypted as one coefficient ciphertext per cache ciphertext (one
CTxCT mult each, then a fold over the blocks).

Slot reductions and broadcasts inside the decode path always run at full
slot width so per-step rotation counts do not depend on the prefill length.

Softmax, the 1/sqrt(d2) scaling, and the causal mask all run in the
MPC-emulation domain as one ``nonlinear.attention_softmax`` call per
attention, which charges its rounds; score segments are concatenated in
that domain as well (client-side reassembly), never by ciphertext slot
surgery.
"""

from __future__ import annotations

import numpy as np

from .backend import Context, ParameterError, SlotCiphertext
from .encodings import EncodingKind, PackedMatrix, next_pow2, tile_token
from .fixedpoint import FixedPointParams
from .kv_cache import KVCache
from .linear_kernels import fold_sum
from .nonlinear import MpcChannel, attention_softmax, he_to_shares, shares_to_he, truncate

__all__ = [
    "arcc_inner_inner",
    "arcc_inner_outer",
    "attention_step",
    "broadcast_slot",
    "prefill_attention",
]


def broadcast_slot(
    a: SlotCiphertext, j: int, width: int, ctx: Context
) -> SlotCiphertext:
    """Copy slot j into slots 0..width-1: one-hot mask, rotate to slot 0,
    then ceil(log2 width) rotate-and-add duplications (1 + ceil(log2 width)
    rotations total; the doublings may overfill up to next_pow2(width))."""
    n = ctx.params.n_slots
    if not 0 <= j < n or not 1 <= width <= n:
        raise ParameterError(f"slot {j} / width {width} out of range for {n} slots")
    return ctx.fold(ctx.rotate(ctx.mult_plain(a, ctx.block_mask(j, 1)), j), -1, width)


def arcc_inner_inner(coeffs: SlotCiphertext, basis: PackedMatrix, ctx: Context) -> SlotCiphertext:
    """Weighted sum of stored columns: sum_j coeffs[j] * column_j.

    The basis is outer-packed (one column per ciphertext): L broadcasts
    and L CTxCT mults, scores contiguous in slots 0..rows-1.
    """
    n = ctx.params.n_slots
    kind = basis.encoding.kind
    if kind is not EncodingKind.OUTER:
        raise ParameterError(f"inner-inner does not accept a {kind} basis")
    if not basis.parts:
        raise ParameterError("empty basis")
    return ctx.sum(
        ctx.mult_cipher(broadcast_slot(coeffs, j, n, ctx), part)
        for j, part in enumerate(basis.parts)
    )


def arcc_inner_outer(v: SlotCiphertext, rows: PackedMatrix, ctx: Context) -> list:
    """Per-row dot products <v, row_r>, one score per block boundary.

    The rows are compacted (B per ciphertext): v is tiled across the
    blocks, then one SIMD multiplication per cache ciphertext plus a
    log2(d) fold.  Returns one ciphertext per cache ciphertext: row r's
    score sits at slot (r mod B)*d of part r // B.
    """
    kind = rows.encoding.kind
    if kind is not EncodingKind.INNER_COMPACTED:
        raise ParameterError(f"inner-outer does not accept a {kind} row set")
    if rows.encoding.rows == 0:
        raise ParameterError("empty row set")
    d = rows.encoding.cols
    vt = tile_token(v, d, rows.encoding.block, ctx)
    return [fold_sum(ctx.mult_cipher(vt, part), d, ctx) for part in rows.parts]


# ----------------------------------------------------------------------
# attention
# ----------------------------------------------------------------------


def _dot_into_slot(
    weights_ct: SlotCiphertext,
    column_ct: SlotCiphertext,
    slot: int,
    ctx: Context,
) -> SlotCiphertext:
    """<weights, column> placed at one slot: SIMD mult, full fold, mask."""
    prod = ctx.mult_cipher(weights_ct, column_ct)
    total = fold_sum(prod, ctx.params.n_slots, ctx)
    return ctx.mult_plain(total, ctx.block_mask(slot, 1))


def prefill_attention(
    Q: PackedMatrix,
    K: PackedMatrix,
    V: PackedMatrix,
    fp: FixedPointParams,
    ctx: Context,
    mpc: MpcChannel,
) -> PackedMatrix:
    """Batched attention over outer-packed projections.

    Score diagonals come from outer-outer CTxCT products against rotated
    key columns; softmax (with the additive causal mask) runs on shares;
    the weight rows return encrypted and aggregate the values with
    dot-product reductions.  Output is outer-packed at scale f.
    """
    for name, P in (("Q", Q), ("K", K), ("V", V)):
        if P.encoding.kind is not EncodingKind.OUTER:
            raise ParameterError(f"{name} must be an outer packing")
    if not (Q.encoding == K.encoding == V.encoding):
        raise ParameterError("Q, K, V disagree on dimensions")
    m, d2 = Q.encoding.rows, Q.encoding.cols
    n = ctx.params.n_slots
    w = next_pow2(m)

    # each key column tiled to period w, so rotations stay inside a period
    k_cols = [tile_token(col, w, n // w, ctx) for col in K.parts]

    # client role: diagonal r holds score (i, (i + r) mod w) at slot i
    diagonals = []
    for r in range(w):
        acc = ctx.sum(
            ctx.mult_cipher(Q.parts[c], ctx.rotate(k_cols[c], r) if r else k_cols[c])
            for c in range(d2)
        )
        diagonals.append(he_to_shares([acc], ctx, mpc, m)[0])
    # scattered in one assignment; columns m..w-1 hold the wrapped padding
    S = np.empty((m, w), dtype=np.int64)
    rows = np.arange(m)
    S[rows, (rows + np.arange(w)[:, None]) % w] = diagonals

    A = attention_softmax(S[:, :m], d2, fp, ctx, mpc)
    a_rows = shares_to_he(A, ctx, mpc)

    # each output column is rescaled before the next one is summed
    cols = (ctx.sum(_dot_into_slot(a_rows[i], V.parts[c], i, ctx) for i in range(m)) for c in range(d2))
    return PackedMatrix(Q.encoding, truncate(cols, m, fp, ctx, mpc))


def attention_step(
    q: SlotCiphertext,
    cache: KVCache,
    fp: FixedPointParams,
    ctx: Context,
    mpc: MpcChannel,
) -> SlotCiphertext:
    """One decode-step attention over the heterogeneous cache.

    Prefill scores via inner-inner broadcasts, generated scores via
    inner-outer folding; segments concatenate in the share domain, softmax
    runs there, and the weights return split per segment for value
    aggregation.  Output is inner-packed, length d2, scale f.
    """
    m, t, d2 = cache.m, cache.t_auto, cache.d2
    n = ctx.params.n_slots
    if m + t == 0:
        raise ParameterError("attention over an empty cache")

    pieces = []
    if m > 0:
        scores = arcc_inner_inner(q, cache.prefill_K, ctx)
        pieces.append(he_to_shares([scores], ctx, mpc, m)[0])
    if t > 0:
        # B * d2 = n: generated score r sits at slot r*d2 of the parts laid
        # end to end
        scores = arcc_inner_outer(q, cache.auto_K, ctx)
        pieces.append(he_to_shares(scores, ctx, mpc).reshape(-1)[: t * d2 : d2])
    a = attention_softmax(np.concatenate(pieces), d2, fp, ctx, mpc)

    halves = []
    if m > 0:
        (a_pref,) = shares_to_he(a[None, :m], ctx, mpc)
        halves.append(
            ctx.sum(
                _dot_into_slot(a_pref, cache.prefill_V.parts[c], c, ctx)
                for c in range(d2)
            )
        )
    if t > 0:
        # B * d2 = n: generated weight r covers slots r*d2.. of the whole
        # segment, so row q of `coeffs` is the coefficient vector of part q
        parts = cache.auto_V.parts
        coeffs = np.zeros(len(parts) * n, dtype=np.int64)
        coeffs[: t * d2] = np.repeat(a[m:], d2)
        acc = ctx.sum(map(ctx.mult_cipher, shares_to_he(coeffs.reshape(-1, n), ctx, mpc), parts))
        halves.append(ctx.fold(acc, d2, n))
    return truncate([ctx.sum(halves)], d2, fp, ctx, mpc)[0]
