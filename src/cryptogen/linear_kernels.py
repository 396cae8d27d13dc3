"""CT x PT linear layers: batch CPMM for prefilling, per-token CPVM for
decoding, and ``fold_sum``, the block sum the attention kernels use.

Both kernels take the plaintext weights as a dense d1 x d2 integer matrix
(signed or residues; reduced mod p here) and an encrypted activation
operand, and each builds the plaintext vectors its own algorithm
multiplies by: per-(group, column) vectors for the CPMM, generalized
diagonals for the CPVM.  The CPMM internally stacks
floor(n / next_pow2(m)) activation columns into each working ciphertext so
its plaintext-multiplication count follows m*d1*d2/n.  It needs
zero-padded input columns (slots m.. zero, as ``encode`` and every share
round trip leave them) and leaves cyclic copies of period next_pow2(m) in
its output columns, so its output goes through the share domain before
another CPMM reads it.
"""

from __future__ import annotations

import numpy as np

from .backend import Context, ParameterError, SlotCiphertext
from .encodings import Encoding, EncodingKind, PackedMatrix, next_pow2

__all__ = ["cpmm_outer_diagonal", "cpvm_inner_diagonal", "fold_sum"]


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


def _weights(W, ctx: Context) -> np.ndarray:
    """Plaintext weights as a non-empty d1 x d2 matrix over Z_p."""
    W = np.asarray(W)
    if W.ndim != 2 or W.size == 0 or not np.issubdtype(W.dtype, np.integer):
        raise ParameterError(
            f"weights must be a non-empty integer matrix, got {W.dtype} of shape {W.shape}"
        )
    return np.mod(W.astype(np.int64, copy=False), ctx.params.plain_modulus)


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
    Wv = _weights(W, ctx)
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
    # (groups, n) array per column keeps the extra memory at the size of
    # the working ciphertexts
    Wg = np.zeros((len(work) * group, d2), dtype=np.int64)
    Wg[:d1] = Wv
    Wg = Wg.reshape(len(work), group, d2)
    in_block = np.arange(w) < m

    def column_weights(c: int) -> np.ndarray:
        return (Wg[:, :, c, None] * in_block).reshape(len(work), n)

    parts = [
        ctx.sum(
            ctx.fold(ctx.mult_plain(wct, pt), w, n)
            for wct, pt in zip(work, column_weights(c))
        )
        for c in range(d2)
    ]

    return PackedMatrix(Encoding(EncodingKind.OUTER, m, d2), parts)


def cpvm_inner_diagonal(x: SlotCiphertext, W, ctx: Context) -> SlotCiphertext:
    """Decode-phase vector product: inner-packed x (length d1) times
    plaintext W (d1 x d2), returning x.W in slots 0..d2-1.

    Halevi-Shoup style evaluation over generalized diagonals of period
    wp = max(next_pow2(d1), next_pow2(d2)) with a single cyclic extension
    of x, next_pow2(d2) plaintext multiplications, and a log-depth fold.
    Cost is independent of any prefix length; slots beyond next_pow2(d2)
    may hold fold residue.
    """
    Wv = _weights(W, ctx)
    d1, d2 = Wv.shape
    n = ctx.params.n_slots
    wd1, wd2 = next_pow2(d1), next_pow2(d2)
    wp = max(wd1, wd2)
    if wp > n:
        raise ParameterError(f"operand width {wp} exceeds {n} slots")

    x_ext = x if wp == n else ctx.add(x, ctx.rotate(x, -wp))

    # generalized diagonal k holds W[(j + k) mod wp, j mod wd2] in slot
    # j < wp, zero outside W: one gather from W zero-padded to wp x wd2,
    # built as the product needs it so the extra memory stays at one
    # ciphertext
    Wpad = np.zeros((wp, wd2), dtype=np.int64)
    Wpad[:d1, :d2] = Wv
    j = np.arange(wp)
    rows, cols = np.tile(j, 2), j % wd2  # rows[k + j] == (j + k) mod wp

    def diagonal(k: int) -> np.ndarray:
        pt = np.zeros(n, dtype=np.int64)
        pt[:wp] = Wpad[rows[k : k + wp], cols]
        return pt

    acc = ctx.sum(
        ctx.mult_plain(ctx.rotate(x_ext, k) if k else x_ext, diagonal(k))
        for k in range(wd2)
    )
    return ctx.fold(acc, wd2, wp)
