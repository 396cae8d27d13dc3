"""Single-process two-role emulation of the MPC side, and the one module
that sizes and charges MPC traffic.

HE ciphertexts convert to additive shares by server-side masking; the
client evaluates the shared fixed-point function on the values the shares
add up to and re-shares the result under a fresh mask, so each share in
isolation stays uniform.  There is one conversion each way, over a list:
``he_to_shares`` takes k ciphertexts to a k x length array of signed
values, ``shares_to_he`` takes a k x L array back to a list of k
ciphertexts.  Both spend all their HE ops during the call.  The masks and
share arithmetic of the whole list are one numpy pass, while every HE op
is still one ``Context`` call per ciphertext, in list order; a single
ciphertext is a list of one.  A channel object is a mask source
plus two tallies.  It draws the share masks: blocks of ``MASK_BLOCK``
uniform words from its own generator, handed out as read-only slices,
each word once.  It counts the bytes and rounds the real protocol would
move in ``bytes_sent`` and ``rounds``, which depend only on shapes, never
on values; it keeps no per-transfer record.  Each protocol also charges
the bytes of its transfers to ``ctx.counter.mpc_bytes`` of the context it
runs on, so every call's counter delta carries its traffic.

Byte model, as the pipeline charges it (elements are modulus-bit words,
integer-divided into bytes):

  he_to_shares          n_slots words, one round, per ciphertext
  shares_to_he          n_slots words, one round, per ciphertext
  refresh               one of each: 2n words in 2 rounds
  truncate              its two conversions, plus 3 trips of L words,
                        per ciphertext of L values
  attention_softmax     3 + RECIPROCAL_ITERS trips over all the scores:
                        one call per decode query, and one per head on the
                        prompt pass, whose m x m scores it takes row-wise
  LayerNorm, GELU       no rounds: evaluated on the shared values between
                        the two ciphertext transfers around them

Three known gaps (ROADMAP item 5): 2 of truncate's 3 trips are entry/exit
transfers that its own two conversions already charge;
LayerNorm/GELU charge none of their protocol rounds; and the FFN outputs
are rescaled on the shared values (``fp_truncate`` in ``model._layer``'s
round trips) with no trips, while wq/wk/wv/wo and the attention outputs
charge truncate's 3.
"""

from __future__ import annotations

import numpy as np

from .backend import Context, ParameterError, SlotCiphertext, as_int64
from .fixedpoint import (
    RECIPROCAL_ITERS,
    FixedPointParams,
    attention_weights,
    causal_attention_weights,
    fp_truncate,
)

__all__ = [
    "MASK_BLOCK",
    "MpcChannel",
    "attention_softmax",
    "he_to_shares",
    "refresh",
    "shares_to_he",
    "truncate",
]


# words of mask drawn per generator call; a longer mask is drawn whole
MASK_BLOCK = 4096


class MpcChannel:
    """The mask RNG plus the ``bytes_sent``/``rounds`` tallies of one serial
    conversation.  Only the protocols of this module call ``transfer``.
    ``transcript`` is always empty; it is kept for the benchmark harness
    alone, which identifies each channel's list when it pickles call
    arguments.  Slotted, as ``Context`` is (see its layout note): every
    conversion calls ``sample_mask`` and ``transfer``."""

    __slots__ = ("p", "word_bits", "bytes_sent", "rounds", "rng", "transcript", "_masks", "_used")

    def __init__(self, p: int, seed=0):
        self.p = p
        self.word_bits = p.bit_length()
        self.bytes_sent = 0
        self.rounds = 0
        self.rng = np.random.default_rng(seed)  # an int or a SeedSequence
        self.transcript: list = []  # stays empty; one list per channel, told apart by id
        self._masks = np.empty(0, dtype=np.int64)  # the current block
        self._used = 0  # words of it handed out

    def vector_bytes(self, elements: int) -> int:
        return elements * self.word_bits // 8

    def transfer(self, elements: int, trips: int = 1) -> int:
        """Tally ``trips`` rounds of ``elements`` words; returns the bytes."""
        nbytes = trips * self.vector_bytes(elements)
        self.bytes_sent += nbytes
        self.rounds += trips
        return nbytes

    def sample_mask(self, length: int) -> np.ndarray:
        """``length`` uniform words of Z_p, read-only, never handed out
        before: the next words of the current block, or of a fresh block
        of max(length, MASK_BLOCK) words when too few are left."""
        start = self._used
        if start + length > self._masks.shape[0]:
            self._masks = self.rng.integers(0, self.p, size=max(length, MASK_BLOCK), dtype=np.int64)
            start = 0
        self._used = start + length
        mask = self._masks[start : start + length]
        mask.setflags(False)
        return mask


def he_to_shares(cts, ctx: Context, ch: MpcChannel, length: int | None = None) -> np.ndarray:
    """Server masks each ciphertext of a list and ships it; the client
    decrypts its share.  Returns the signed values of their slots
    0..length-1, as a k x length array.

    The k masks are one draw of k*n words, negated and encoded in one
    ``plains`` call; each ciphertext is then masked and decrypted in list
    order, one n-word transfer each.
    """
    n = ctx.params.n_slots
    length = n if length is None else length
    if not 0 < length <= n:
        raise ParameterError(f"share length {length} out of range")
    p = ctx.params.plain_modulus
    r = ch.sample_mask(len(cts) * n).reshape(-1, n)
    # share + r + half, reduced mod p, less half: the signed value, p odd
    half = p // 2
    values = r[:, :length] + half
    for i, (ct, neg) in enumerate(zip(cts, ctx.plains(-r))):
        values[i] += ctx.decrypt(ctx.add_plain(ct, neg))[:length]
    ctx.counter.mpc_bytes += ch.transfer(n, trips=len(cts))
    np.remainder(values, ctx.modulus, values)
    values -= half
    return values


def shares_to_he(rows, ctx: Context, ch: MpcChannel) -> list:
    """Share each row of a k x L integer matrix (signed or residues; any
    other input raises ParameterError, as in ``as_int64``) and return its
    k ciphertexts: the client encrypts its share, the server adds its own.
    Each decrypts to its row in slots 0..L-1 (zeros beyond) and carries a
    fresh noise budget.

    The k*L mask words are one draw and both shares of every row are
    encoded in one ``plains`` call; each row is then encrypted and
    unmasked in row order, one n-word transfer each.
    """
    secret = as_int64(rows)
    n = ctx.params.n_slots
    if secret.ndim != 2 or secret.shape[1] > n:
        raise ParameterError(f"expected a matrix of at most {n} columns, got shape {secret.shape}")
    k, length = secret.shape
    r = ch.sample_mask(k * length).reshape(k, length)
    shares = np.zeros((2 * k, n), dtype=np.int64)
    np.subtract(secret % ctx.modulus, r, out=shares[:k, :length])  # in (-p, p): no int64 wrap
    shares[k:, :length] = r
    encoded = ctx.plains(shares)
    out = [ctx.add_plain(ctx.encrypt(client), server) for client, server in zip(encoded[:k], encoded[k:])]
    ctx.counter.mpc_bytes += ch.transfer(n, trips=k)
    return out


def refresh(ct: SlotCiphertext, ctx: Context, ch: MpcChannel) -> SlotCiphertext:
    """A fresh encryption of the ciphertext's slots: the server masks it
    with r, the client decrypts its share and re-encrypts it, the server
    adds r back.  Four HE ops, one n-word transfer each way, n mask words;
    -r and r are encoded in one ``plains`` call."""
    r = ch.sample_mask(ctx.params.n_slots)
    neg, pos = ctx.plains(np.stack((-r, r)))
    share = ctx.decrypt(ctx.add_plain(ct, neg))
    out = ctx.add_plain(ctx.encrypt(ctx.plains(share[None])[0]), pos)
    ctx.counter.mpc_bytes += ch.transfer(r.shape[0], trips=2)
    return out


def truncate(cts, length: int, fp: FixedPointParams, ctx: Context, ch: MpcChannel) -> list:
    """Fixed-point rescale of ciphertexts: slots 0..length-1 of each are
    converted to shares, floor-divided by 2^f and shared back (zeros
    beyond), at 3 trips of ``length`` words besides the two conversions.

    Each round trip finishes before the next ciphertext is drawn from
    ``cts``, so the ops a generator spends making one interleave with the
    round trips as in a hand-written loop.
    """
    out = []
    for ct in cts:
        values = fp_truncate(he_to_shares([ct], ctx, ch, length), fp.f)
        ctx.counter.mpc_bytes += ch.transfer(length, trips=3)
        out += shares_to_he(values, ctx, ch)
    return out


def attention_softmax(
    scores_2f: np.ndarray, d2: int, fp: FixedPointParams, ctx: Context, ch: MpcChannel
) -> np.ndarray:
    """Scale-f softmax weights of scale-2f attention scores.

    A score vector (one decode query) takes ``attention_weights``; an
    m x m matrix (the prompt pass, row i the query at position i) takes
    one ``causal_attention_weights`` call, row-wise.  Either way the
    protocol is 3 + RECIPROCAL_ITERS trips over all the scores.  Anything
    but a non-empty vector or matrix, or d2 < 1, raises ParameterError
    before a transfer is charged.
    """
    S = as_int64(scores_2f)
    if S.ndim not in (1, 2) or S.size == 0:
        raise ParameterError(f"expected a non-empty score vector or matrix, got shape {S.shape}")
    if d2 < 1:
        raise ParameterError(f"head width d2 must be positive, got {d2}")
    out = attention_weights(S, d2, fp) if S.ndim == 1 else causal_attention_weights(S, 0, d2, fp)
    ctx.counter.mpc_bytes += ch.transfer(S.size, trips=3 + RECIPROCAL_ITERS)
    return out
