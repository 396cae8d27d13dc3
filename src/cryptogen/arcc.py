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
MPC-emulation domain, which charges their rounds: one
``nonlinear.attention_softmax`` call per head on the prompt pass, and per
decode step one for all heads of a layer, whose every share-domain stage
is one grouped call of head-channel groups.  Score segments are
concatenated in that domain (client-side reassembly), never by ciphertext
slot surgery.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .backend import Context, ParameterError, SlotCiphertext
from .encodings import EncodingKind, PackedMatrix, next_pow2, tile_token
from .fixedpoint import FixedPointParams
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
    """Batched attention of one head over outer-packed projections.

    Score diagonals come from outer-outer CTxCT products against rotated
    key columns and go to the share domain in one grouped conversion;
    softmax (with the additive causal mask) runs on shares; the weight
    rows return encrypted and aggregate the values with dot-product
    reductions.  Output is outer-packed at scale f.
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

    # client role: diagonal r holds score (i, (i + r) mod w) at slot i; all w are one group
    diagonals = [
        ctx.sum(ctx.mult_cipher(Q.parts[c], ctx.rotate(k_cols[c], r) if r else k_cols[c]) for c in range(d2))
        for r in range(w)
    ]
    # scattered in one assignment; columns m..w-1 hold the wrapped padding
    S = np.empty((m, w), dtype=np.int64)
    rows = np.arange(m)
    S[rows, (rows + np.arange(w)[:, None]) % w] = he_to_shares([(diagonals, mpc)], ctx, m)

    A = attention_softmax([(S[:, :m], mpc)], 0, d2, fp, ctx)
    a_rows = shares_to_he([(A, mpc)], ctx)
    cols = [ctx.sum(_dot_into_slot(a_rows[i], V.parts[c], i, ctx) for i in range(m)) for c in range(d2)]
    return PackedMatrix(Q.encoding, truncate([(cols, mpc)], m, fp, ctx))


def attention_step(qs: list, caches: list, fp: FixedPointParams, ctx: Context, chans: list) -> list:
    """One decode-step attention for a layer's heads: query qs[i] over
    caches[i] (all of one m, t_auto and d2) on channel chans[i].

    Prefill scores via inner-inner broadcasts and generated scores via
    inner-outer folding for every head, then one conversion of them all (a
    head's two segments are one group on its channel), one heads x (m + t)
    softmax, one conversion of all prefill weights and value coefficients,
    value aggregation and one truncate: one inner-packed ciphertext per
    head, length d2, scale f."""
    m, t, d2 = caches[0].m, caches[0].t_auto, caches[0].d2
    n = ctx.params.n_slots
    if any((kv.m, kv.t_auto, kv.d2) != (m, t, d2) for kv in caches):
        raise ParameterError("the heads' caches disagree on m, t_auto or d2")
    if m + t == 0:
        raise ParameterError("attention over an empty cache")

    groups = []
    for q, kv, ch in zip(qs, caches, chans):
        prefill = [arcc_inner_inner(q, kv.prefill_K, ctx)] if m else []
        groups.append((prefill + (arcc_inner_outer(q, kv.auto_K, ctx) if t else []), ch))
    # a head's row: its prefill scores in slots 0..m-1 of its first n, then,
    # as B * d2 = n, generated score r at slot r*d2 of its parts laid end to end
    V = he_to_shares(groups, ctx).reshape(len(qs), -1)
    S = np.concatenate((V[:, :m], V[:, n if m else 0 :][:, : t * d2 : d2]), axis=1)
    A = attention_softmax([(S[i : i + 1], ch) for i, ch in enumerate(chans)], m + t - 1, d2, fp, ctx)

    # generated weight r covers slots r*d2.. of the segment, so row q of a
    # head's coefficients is the coefficient vector of its part q
    P = len(caches[0].auto_V.parts)
    coeffs = np.zeros((len(qs), P * n), dtype=np.int64)
    coeffs[:, : t * d2] = np.repeat(A[:, m:], d2, axis=1)
    # a head's prefill weights, then its coefficients; an empty segment drops out
    groups = [(r, ch) for a, c, ch in zip(A, coeffs, chans) for r in (a[None, :m], c.reshape(P, n)) if r.size]
    weights = iter(shares_to_he(groups, ctx))

    outs = []
    for kv in caches:
        halves = []
        if m > 0:
            a_pref = next(weights)
            halves.append(ctx.sum(_dot_into_slot(a_pref, kv.prefill_V.parts[c], c, ctx) for c in range(d2)))
        if t > 0:
            acc = ctx.sum(map(ctx.mult_cipher, islice(weights, P), kv.auto_V.parts))
            halves.append(ctx.fold(acc, d2, n))
        outs.append(ctx.sum(halves))
    return truncate([([o], ch) for o, ch in zip(outs, chans)], d2, fp, ctx)
