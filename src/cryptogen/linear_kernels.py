"""CT x PT linear layers: batch CPMM for prefilling, per-token CPVM for
decoding, and ``fold_sum``, the block sum the attention kernels use.

The CPMM takes the plaintext weights as a dense d1 x d2 integer matrix
(signed or residues) and encodes the per-group vectors of each output
column with one ``Context.plains`` call, which reduces them mod p.  The
CPVM takes only its wd2 generalized diagonals as ``cpvm_plaintexts``
encodes them, so a caller that multiplies by the same weights every
decode step (the server holds them) encodes them once; they take wd2 * n
words per matrix, wd2 = next_pow2(d2).  The CPMM internally stacks
floor(n / next_pow2(m)) activation columns into each working ciphertext so
its plaintext-multiplication count follows m*d1*d2/n.  It needs
zero-padded input columns (slots m.. zero, as ``encode`` and every share
round trip leave them) and leaves cyclic copies of period next_pow2(m) in
its output columns, so its output goes through the share domain before
another CPMM reads it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .backend import Context, ParameterError, SlotCiphertext, as_int64
from .encodings import Encoding, EncodingKind, PackedMatrix, next_pow2

__all__ = [
    "CpvmPlaintexts",
    "cpmm_outer_diagonal",
    "cpvm_inner_diagonal",
    "cpvm_plaintexts",
    "fold_sum",
]


def fold_sum(a: SlotCiphertext, block: int, ctx: Context) -> SlotCiphertext:
    """Sum every contiguous `block`-wide block into its first slot.

    log2(block) rotations and log2(block) additions; block must be a power
    of two dividing the slot count.  Slot i ends up holding the cyclic sum
    a[i] + ... + a[i+block-1]; only block-start slots are meaningful.
    """
    n = ctx.params.n_slots
    if block < 1 or block > n or block & (block - 1) or n % block:
        raise ParameterError(f"block {block} must be a power of two dividing {n}")
    return ctx.fold(a, 1, block)


def _weights(W) -> np.ndarray:
    """Plaintext weights as a non-empty d1 x d2 int64 matrix."""
    W = as_int64(W)
    if W.ndim != 2 or W.size == 0:
        raise ParameterError(f"weights must be a non-empty integer matrix, got shape {W.shape}")
    return W


def cpmm_outer_diagonal(X: PackedMatrix, W, ctx: Context) -> PackedMatrix:
    """Prefill matrix product: outer-packed X (m x d1) times plaintext
    W (d1 x d2), returning outer-packed X.W (m x d2).

    Column ciphertexts are stacked floor(n/next_pow2(m)) to a working
    ciphertext, each working ciphertext is multiplied by one per-output-
    column plaintext, and the stacked blocks are folded back onto block 0.
    The input columns must be zero from slot m on (a nonzero slot would
    leak into the stacked block after it); output columns are replicated
    with period next_pow2(m).
    """
    if X.encoding.kind is not EncodingKind.OUTER:
        raise ParameterError("cpmm expects an outer-packed activation")
    Wv = _weights(W)
    m, d1 = X.encoding.rows, X.encoding.cols
    if d1 != Wv.shape[0]:
        raise ParameterError(f"dimension mismatch: X is {m}x{d1}, W is {Wv.shape}")
    d2 = Wv.shape[1]
    n = ctx.params.n_slots
    w = next_pow2(m)
    if w > n:
        raise ParameterError(f"{m} rows do not fit {n} slots")
    group = n // w  # columns stacked per working ciphertext

    starts = range(0, d1, group)
    work = [
        ctx.sum(
            ctx.rotate(X.parts[g + u], -(u * w)) if u else X.parts[g]
            for u in range(min(group, d1 - g))
        )
        for g in starts
    ]

    # the plaintext of (group g, column c) holds W[g+u, c] in slots
    # u*w .. u*w+m-1 of each stacked block u and zero elsewhere; one
    # (groups, n) matrix of plaintexts per column keeps the extra memory at
    # the size of the working ciphertexts
    Wg = np.zeros((len(work) * group, d2), dtype=np.int64)
    Wg[:d1] = Wv
    Wg = Wg.reshape(len(work), group, d2)
    in_block = np.arange(w) < m

    def column_plaintexts(c: int) -> list:
        return ctx.plains((Wg[:, :, c, None] * in_block).reshape(len(work), n))

    parts = [
        ctx.sum(
            ctx.fold(ctx.mult_plain(wct, pt), w, n)
            for wct, pt in zip(work, column_plaintexts(c))
        )
        for c in range(d2)
    ]

    return PackedMatrix(Encoding(EncodingKind.OUTER, m, d2), parts)


class CpvmPlaintexts(NamedTuple):
    """The encoded generalized diagonals of a d1 x d2 CPVM weight matrix."""

    shape: tuple  # (d1, d2) of the weight matrix
    period: int  # wp = max(next_pow2(d1), next_pow2(d2))
    diagonals: list  # next_pow2(d2) Plaintexts, diagonal k at index k


def cpvm_plaintexts(W, ctx: Context) -> CpvmPlaintexts:
    """Encode the generalized diagonals of plaintext W (d1 x d2) for
    ``cpvm_inner_diagonal``: wd2 = next_pow2(d2) plaintexts of n slots,
    built in one wd2 x n matrix and encoded with one ``plains`` call, with
    no second copy of that matrix."""
    Wv = _weights(W)
    d1, d2 = Wv.shape
    n = ctx.params.n_slots
    wd1, wd2 = next_pow2(d1), next_pow2(d2)
    wp = max(wd1, wd2)
    if wp > n:
        raise ParameterError(f"operand width {wp} exceeds {n} slots")

    # generalized diagonal k holds W[(j + k) mod wp, j mod wd2] in slot
    # j < wp, zero outside W: one gather per diagonal from W zero-padded
    # to wp x wd2
    Wpad = np.zeros((wp, wd2), dtype=np.int64)
    Wpad[:d1, :d2] = Wv
    j = np.arange(wp)
    rows, cols = np.tile(j, 2), j % wd2  # rows[k + j] == (j + k) mod wp
    D = np.zeros((wd2, n), dtype=np.int64)
    for k, diagonal in enumerate(D):
        diagonal[:wp] = Wpad[rows[k : k + wp], cols]
    return CpvmPlaintexts((d1, d2), wp, ctx.plains(D))


def cpvm_inner_diagonal(x: SlotCiphertext, W: CpvmPlaintexts, ctx: Context) -> SlotCiphertext:
    """Decode-phase vector product: inner-packed x (length d1) times
    plaintext W (d1 x d2), returning x.W in slots 0..d2-1.

    W is the ``cpvm_plaintexts`` of the weight matrix, encoded under ctx's
    params; anything else raises ParameterError before any op.
    Halevi-Shoup style evaluation over generalized diagonals of period
    wp = max(next_pow2(d1), next_pow2(d2)) with a single cyclic extension
    of x, next_pow2(d2) plaintext multiplications, and a log-depth fold.
    Cost is independent of any prefix length; slots beyond next_pow2(d2)
    may hold fold residue.
    """
    if not isinstance(W, CpvmPlaintexts):
        raise ParameterError(f"expected the CpvmPlaintexts of a weight matrix, got {type(W).__name__}")
    wp, diagonals = W.period, W.diagonals
    params = diagonals[0].params
    if params is not ctx.params and params != ctx.params:
        raise ParameterError("CPVM plaintexts were encoded under other parameters")
    n = ctx.params.n_slots

    x_ext = x if wp == n else ctx.add(x, ctx.rotate(x, -wp))
    acc = ctx.sum(
        ctx.mult_plain(ctx.rotate(x_ext, k) if k else x_ext, pt)
        for k, pt in enumerate(diagonals)
    )
    return ctx.fold(acc, len(diagonals), wp)
