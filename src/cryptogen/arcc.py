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
MPC-emulation domain, which charges their rounds.  Both phases take a
layer's heads in one pass with one output truncate; a decode step
converts and scores every head in one grouped call per stage, the prompt
pass head by head (a head's are w diagonals, m x m scores and m rows).
Score segments are concatenated in that domain (client-side reassembly),
never by ciphertext slot surgery.
"""

from __future__ import annotations

from itertools import chain, islice

import numpy as np

from .backend import Context, ParameterError, SlotCiphertext
from .encodings import EncodingKind, PackedMatrix, next_pow2, tile_token
from .fixedpoint import FixedPointParams
from .linear_kernels import fold_sum
from .nonlinear import attention_softmax, he_to_shares, shares_to_he, truncate

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


def prefill_attention(Qs: list, Ks: list, Vs: list, fp: FixedPointParams, ctx: Context, chans: list) -> list:
    """Batched attention of a layer's heads over outer-packed projections:
    head i's Qs[i], Ks[i], Vs[i] (all of one encoding) on channel chans[i].

    A head's score diagonals come from outer-outer CTxCT products against
    rotated key columns and go to the share domain, where the softmax
    (with the additive causal mask) runs; its weight rows come back and
    aggregate its values with dot-product reductions.  All but the one
    truncate of every head's outputs runs head by head on the head's
    channel, so one head's w diagonals, m x m scores and m weight rows are
    held at a time.  Returns one outer-packed matrix per head, at scale f.
    """
    if not len(Qs) == len(Ks) == len(Vs) == len(chans) > 0:
        raise ParameterError("expected one Q, K, V and channel for each of at least one head")
    enc = Qs[0].encoding
    if enc.kind is not EncodingKind.OUTER or any(P.encoding != enc for P in chain(Qs, Ks, Vs)):
        raise ParameterError("the heads' Q, K and V must be outer packings of one shape")
    H, m, d2 = len(chans), enc.rows, enc.cols
    n = ctx.params.n_slots
    w, rows = next_pow2(m), np.arange(m)

    def attend(Q, K, V, ch):
        # each key column tiled to period w, so rotations stay inside a period
        k_cols = [tile_token(col, w, n // w, ctx) for col in K.parts]
        # client role: diagonal r holds score (i, (i + r) mod w) at slot i
        diagonals = [
            ctx.sum(ctx.mult_cipher(Q.parts[c], ctx.rotate(k_cols[c], r) if r else k_cols[c]) for c in range(d2))
            for r in range(w)
        ]
        # scattered in one assignment; columns m..w-1 hold the wrapped padding
        S = np.empty((m, w), dtype=np.int64)
        S[rows, (rows + np.arange(w)[:, None]) % w] = he_to_shares([(diagonals, ch)], ctx, m)
        a_rows = shares_to_he([(attention_softmax([(S[:, :m], ch)], d2, fp, ctx), ch)], ctx)
        return [ctx.sum(_dot_into_slot(a_rows[i], V.parts[c], i, ctx) for i in range(m)) for c in range(d2)]

    cols = truncate([(attend(*qkv, ch), ch) for *qkv, ch in zip(Qs, Ks, Vs, chans)], m, fp, ctx)
    return [PackedMatrix(enc, cols[h * d2 : (h + 1) * d2]) for h in range(H)]


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
    # a head's rows: its prefill scores in slots 0..m-1 of the first if m > 0,
    # then its generated parts, score r in the first slot of compacted row r
    auto = caches[0].auto_K
    V = he_to_shares(groups, ctx).reshape(len(qs), -1, n)
    S = np.concatenate((V[:, 0, :m], auto.unpack(V[:, 1 if m else 0 :])[..., 0]), axis=1)
    A = attention_softmax([(S[i : i + 1], ch) for i, ch in enumerate(chans)], d2, fp, ctx)

    # generated weight r fills compacted row r, so a head's coefficients
    # are one vector per auto part
    coeffs = auto.pack(np.repeat(A[:, m:, None], d2, axis=2))
    # a head's prefill weights, then its coefficients; an empty segment drops out
    groups = [(r, ch) for a, c, ch in zip(A, coeffs, chans) for r in (a[None, :m], c) if r.size]
    weights = iter(shares_to_he(groups, ctx))

    outs = []
    for kv in caches:
        halves = []
        if m > 0:
            a_pref = next(weights)
            halves.append(ctx.sum(_dot_into_slot(a_pref, kv.prefill_V.parts[c], c, ctx) for c in range(d2)))
        if t > 0:
            acc = ctx.sum(map(ctx.mult_cipher, islice(weights, len(kv.auto_V.parts)), kv.auto_V.parts))
            halves.append(ctx.fold(acc, d2, n))
        outs.append(ctx.sum(halves))
    return truncate([([o], ch) for o, ch in zip(outs, chans)], d2, fp, ctx)
