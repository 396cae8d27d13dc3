"""Single-process two-role emulation of the MPC side, and the one module
that sizes and charges MPC traffic.

HE ciphertexts convert to additive shares by server-side masking; the
client evaluates the shared fixed-point function on the values the shares
add up to and re-shares the result under a fresh mask, so each share in
isolation stays uniform.  ``he_to_shares`` takes ciphertexts to a k x
length array of signed values, ``shares_to_he`` takes k x L arrays back
to ciphertexts.  ``roundtrip`` joins them when the exit has the entry's
rows: ``truncate``, ``refresh`` and the layer's LayerNorm, GELU and FFN
rescale; attention's two share passes and the prompt pass's last-row
read change the row count, so they call the two directly.

Each protocol is one pass over groups of (ciphertexts or rows, channel),
so a layer stage converts every head's items in one call.  One draw rule
holds per group and direction: a group of k ciphertexts draws one entry
block of k*n mask words, a group of rows one exit block of its rows'
words, each from its own channel (a channel may own several groups) in
group order, and is charged its own bytes and rounds there.  The masks and
share arithmetic of the whole pass are one numpy pass, while every HE op
is still one ``Context`` call per ciphertext, in group order, all spent
during the call.  A channel object is a mask source plus two tallies.  It
draws the share masks: blocks of ``MASK_BLOCK`` uniform words from its
own generator, handed out as read-only slices, each word once.  It counts
the bytes and rounds the real protocol would move in ``bytes_sent`` and
``rounds``, which depend only on shapes, never on values; it keeps no
per-transfer record.  Each protocol also charges the bytes of its
transfers to ``ctx.counter.mpc_bytes`` of the context it runs on, so
every call's counter delta carries its traffic.

Byte model, as the pipeline charges it (elements are modulus-bit words,
integer-divided into bytes):

  he_to_shares          n_slots words, one round, per ciphertext
  shares_to_he          n_slots words, one round, per ciphertext
  refresh               one of each: 2n words in 2 rounds
  truncate              its two conversions, plus 3 trips of L words,
                        per ciphertext of L values
  attention_softmax     3 + RECIPROCAL_ITERS trips over a group's scores:
                        one head's m x m scores on the prompt pass, its
                        one row in a decode step
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

from itertools import accumulate

import numpy as np

from .backend import Context, ParameterError, as_int64
from .fixedpoint import RECIPROCAL_ITERS, FixedPointParams, causal_attention_weights, fp_truncate

__all__ = [
    "MASK_BLOCK",
    "MpcChannel",
    "attention_softmax",
    "he_to_shares",
    "refresh",
    "roundtrip",
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
            self._masks.setflags(False)  # and so every slice of it
            start = 0
        mask, self._used = self._masks[start : start + length], start + length
        if self._used == self._masks.shape[0]:  # spent: only the callers' slices keep it alive
            self._masks, self._used = np.empty(0, dtype=np.int64), 0
        return mask


def _charge(groups, ctx: Context, words: int, trips: int = 1) -> None:
    """Charge each group's channel and the context ``trips`` transfers of ``words`` per item."""
    for items, ch in groups:
        ctx.counter.mpc_bytes += ch.transfer(words, trips=trips * len(items))


def he_to_shares(groups, ctx: Context, length: int | None = None) -> np.ndarray:
    """Server masks each ciphertext of (ciphertexts, channel) groups and
    ships it; the client decrypts its share.  Returns the signed values of
    slots 0..length-1 of every ciphertext, group after group, as one
    K x length array.  A group of k draws k*n mask words in one draw and is
    charged one n-word transfer per ciphertext.
    """
    n = ctx.params.n_slots
    length = n if length is None else length
    if not 0 < length <= n:
        raise ParameterError(f"share length {length} out of range")
    groups = [(list(cts), ch) for cts, ch in groups]
    masks = [ch.sample_mask(len(cts) * n) for cts, ch in groups] or [np.empty(0, dtype=np.int64)]
    r = (masks[0] if len(masks) == 1 else np.concatenate(masks)).reshape(-1, n)  # one group's block uncopied
    # each decrypted vector is copied into its row and dropped at once
    flat = (ct for cts, _ in groups for ct in cts)
    shares = (ctx.decrypt(ctx.add_plain(ct, neg))[:length] for ct, neg in zip(flat, ctx.plains(-r)))
    values = np.fromiter(shares, dtype=(np.int64, length), count=len(r))
    # share + r + half, reduced mod p, less half: the signed value, p odd
    half = ctx.params.plain_modulus // 2
    values = (values + r[:, :length] + half) % ctx.modulus - half
    _charge(groups, ctx, n)
    return values


def shares_to_he(groups, ctx: Context) -> list:
    """Share each row of the k x L integer matrices of (rows, channel)
    groups (signed or residues; any other input raises ParameterError, as
    in ``as_int64``) and return their ciphertexts, group after group: the
    client encrypts its share secret - r, the server adds r.  Each decrypts
    to its row in slots 0..L-1 (zeros beyond) and carries a fresh noise
    budget.  A group draws k*L mask words in one draw and is charged one
    n-word transfer per row; groups may differ in L.
    """
    n = ctx.params.n_slots
    groups = [(as_int64(rows), ch) for rows, ch in groups]
    for rows, _ in groups:
        if rows.ndim != 2 or rows.shape[1] > n:
            raise ParameterError(f"expected a matrix of at most {n} columns, got shape {rows.shape}")
    k = sum(len(rows) for rows, _ in groups)
    shares = np.zeros((2 * k, n), dtype=np.int64)  # the client's k rows, then the server's
    for (rows, ch), j in zip(groups, accumulate(len(rows) for rows, _ in groups)):
        i, width, r = j - len(rows), rows.shape[1], ch.sample_mask(rows.size).reshape(rows.shape)
        np.subtract(rows % ctx.modulus, r, out=shares[i:j, :width])  # in (-p, p): no int64 wrap
        shares[k + i : k + j, :width] = r
    encoded = ctx.plains(shares)
    out = [ctx.add_plain(ctx.encrypt(client), server) for client, server in zip(encoded[:k], encoded[k:])]
    _charge(groups, ctx, n)
    return out


def roundtrip(groups, length: int, fn, ctx: Context) -> list:
    """The client round trip of (ciphertexts, channel) groups: one
    ``he_to_shares`` of slots 0..length-1 of every ciphertext, ``fn`` on
    the K x length signed values, one ``shares_to_he`` of each group's rows
    of its K-row result on that group's channel.  A result of another row
    count raises ParameterError before any exit op or draw.
    """
    groups = [(list(cts), ch) for cts, ch in groups]
    if not groups:  # an empty pass: no set-up, no plaintext
        return []
    values = he_to_shares(groups, ctx, length)
    out = as_int64(fn(values))
    if out.shape[:1] != values.shape[:1]:
        raise ParameterError(f"fn must return {len(values)} rows, got shape {out.shape}")
    ends = accumulate(len(cts) for cts, _ in groups)
    return shares_to_he([(out[j - len(cts) : j], ch) for (cts, ch), j in zip(groups, ends)], ctx)


def refresh(groups, ctx: Context) -> list:
    """A fresh encryption of the ciphertexts of (ciphertexts, channel)
    groups: the identity ``roundtrip`` over all n slots, four HE ops and
    2n mask words per ciphertext."""
    return roundtrip(groups, ctx.params.n_slots, lambda values: values, ctx)


def truncate(groups, length: int, fp: FixedPointParams, ctx: Context) -> list:
    """Fixed-point rescale of the ciphertexts of (ciphertexts, channel)
    groups: the ``roundtrip`` of slots 0..length-1 through ``fp_truncate``
    (floor division by 2^f; zeros beyond), charged 3 trips of ``length``
    words per ciphertext besides its two conversions."""
    groups = [(list(cts), ch) for cts, ch in groups]
    out = roundtrip(groups, length, lambda values: fp_truncate(values, fp.f), ctx)
    _charge(groups, ctx, length, 3)
    return out


def attention_softmax(groups, d2: int, fp: FixedPointParams, ctx: Context) -> np.ndarray:
    """Scale-f softmax weights of the scale-2f scores of (score rows,
    channel) groups, group after group: matrices of one shape, r rows over
    c keys, whose row j is query position c - r + j (the prompt's m x m
    from 0, a decode row at m + t - 1), scored in one
    ``causal_attention_weights`` call on their stack.  Anything but
    non-empty matrices of one shape with r <= c, or d2 < 1, raises
    ParameterError before a transfer is charged.
    """
    groups = [(as_int64(rows), ch) for rows, ch in groups]
    if not groups:
        raise ParameterError("expected at least one score matrix, got an empty pass")
    for rows, _ in groups:
        if rows.ndim != 2 or rows.size == 0 or rows.shape != groups[0][0].shape:
            raise ParameterError(f"expected non-empty score matrices of one shape, got shape {rows.shape}")
    r, c = groups[0][0].shape
    if r > c:
        raise ParameterError(f"{r} query rows over {c} keys: more queries than keys")
    if d2 < 1:
        raise ParameterError(f"head width d2 must be positive, got {d2}")
    out = causal_attention_weights(np.stack([rows for rows, _ in groups]), c - r, d2, fp)
    for rows, ch in groups:
        ctx.counter.mpc_bytes += ch.transfer(rows.size, trips=3 + RECIPROCAL_ITERS)
    return out.reshape(-1, c)
