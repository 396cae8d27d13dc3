"""Single-process two-role emulation of the MPC side, and the one module
that sizes and charges MPC traffic.

HE ciphertexts convert to additive shares by server-side masking; the
client evaluates the shared fixed-point function on the reconstruction
and re-shares it under a fresh mask, so each share in isolation stays
uniform.  A list of ciphertexts (a cache segment's score parts, a
slab's columns) converts in one call of a batch form, ``he_to_values``
out and ``values_to_he`` in: the masks and share arithmetic of the whole
list are one numpy pass, while every HE op is still one ``Context`` call
per ciphertext, in the order the single-ciphertext pair would spend
them.  A channel object is a mask source plus two tallies.  It draws
the share masks: blocks of ``MASK_BLOCK`` uniform words from its own
generator, handed out as read-only slices, each word once.  It counts the
bytes and rounds the real protocol would move in ``bytes_sent`` and
``rounds``, which depend only on shapes, never on values; it keeps no
per-transfer record.  Each protocol also charges the bytes of its
transfers to ``ctx.counter.mpc_bytes`` of the context it runs on, so
every call's counter delta carries its traffic.

Byte model, as the pipeline charges it (elements are modulus-bit words,
integer-divided into bytes):

  ciphertext transfer   n_slots words, one round, each way
                        (``he_to_shares``, ``shares_to_he``), also per
                        ciphertext of the batch forms; a KV-cache
                        refresh is one of each, 2n words in 2 rounds
  truncate              3 trips of L words on L values
  attention_softmax     3 + RECIPROCAL_ITERS trips over all the scores
  LayerNorm, GELU       no rounds: evaluated on the reconstruction between
                        the two ciphertext transfers around them

Three known gaps (ROADMAP item 5): 2 of truncate's 3 trips are entry/exit
transfers that the ciphertext transfers around every call already charge;
LayerNorm/GELU charge none of their protocol rounds; and the FFN outputs
are rescaled on the reconstruction (``fp_truncate`` in ``model._layer``'s
round trips) with no trips, while wq/wk/wv/wo and the attention outputs
charge truncate's 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import Context, ParameterError, SlotCiphertext
from .fixedpoint import (
    RECIPROCAL_ITERS,
    FixedPointParams,
    attention_weights,
    causal_attention_weights,
    fp_truncate,
    from_signed,
    to_signed,
)

__all__ = [
    "FixedPointParams",
    "MASK_BLOCK",
    "MpcChannel",
    "SharePair",
    "attention_softmax",
    "he_to_shares",
    "he_to_values",
    "reconstruct",
    "share_vector",
    "shares_to_he",
    "truncate",
    "values_to_he",
]


# words of mask drawn per generator call; a longer mask is drawn whole
MASK_BLOCK = 4096


@dataclass
class SharePair:
    """Additive shares in Z_p held by the client and server roles."""

    client: np.ndarray
    server: np.ndarray
    p: int
    length: int

    def __post_init__(self):
        if self.client.shape != (self.length,) or self.server.shape != (self.length,):
            raise ParameterError("share arrays must match the declared length")


class MpcChannel:
    """The mask RNG plus the ``bytes_sent``/``rounds`` tallies of one serial
    conversation.  Only the protocols of this module call ``transfer``.
    ``transcript`` is always empty; it is kept for the benchmark harness
    alone, which identifies each channel's list when it pickles call
    arguments."""

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


def reconstruct(s: SharePair) -> np.ndarray:
    """Signed plaintext values of a share pair."""
    return to_signed((s.client + s.server) % s.p, s.p)


def share_vector(values, ch: MpcChannel) -> SharePair:
    """Split plaintext values (signed or residues) under a fresh mask."""
    secret = from_signed(values, ch.p)
    r = ch.sample_mask(secret.shape[0])
    client = (secret - r) % ch.p
    return SharePair(client, r, ch.p, secret.shape[0])


def he_to_shares(
    ct: SlotCiphertext, ctx: Context, ch: MpcChannel, length: int | None = None
) -> SharePair:
    """Server masks the ciphertext and ships it; client decrypts its share."""
    n = ctx.params.n_slots
    length = n if length is None else length
    if not 0 < length <= n:
        raise ParameterError(f"share length {length} out of range")
    p = ctx.params.plain_modulus
    r = ch.sample_mask(n)
    masked = ctx.add_plain(ct, p - r)  # -r, reduced by the encoder
    client_full = ctx.decrypt(masked)
    ctx.counter.mpc_bytes += ch.transfer(n)
    return SharePair(client_full[:length], r[:length], p, length)


def shares_to_he(s: SharePair, ctx: Context, ch: MpcChannel) -> SlotCiphertext:
    """Client encrypts its share; server homomorphically adds its own.

    The result decrypts to the reconstruction in slots 0..length-1 (zeros
    beyond) and carries a fresh noise budget.
    """
    out = ctx.add_plain(ctx.encrypt(ctx.plain_from_dense(s.client)), ctx.plain_from_dense(s.server))
    ctx.counter.mpc_bytes += ch.transfer(ctx.params.n_slots)
    return out


def he_to_values(cts, ctx: Context, ch: MpcChannel, length: int | None = None) -> np.ndarray:
    """``he_to_shares`` then ``reconstruct`` of each ciphertext of a list:
    the signed values of their slots 0..length-1, as a k x length array.

    The k masks are one draw of k*n words, negated and encoded in one
    ``plains`` call; each ciphertext is then masked and decrypted in list
    order, and charged one n-word transfer, as ``he_to_shares`` would.
    """
    n = ctx.params.n_slots
    length = n if length is None else length
    if not 0 < length <= n:
        raise ParameterError(f"share length {length} out of range")
    p = ctx.params.plain_modulus
    r = ch.sample_mask(len(cts) * n).reshape(-1, n)
    client = np.empty((len(cts), length), dtype=np.int64)
    for i, (ct, neg) in enumerate(zip(cts, ctx.plains(p - r))):
        client[i] = ctx.decrypt(ctx.add_plain(ct, neg))[:length]
        ctx.counter.mpc_bytes += ch.transfer(n)
    client += r[:, :length]
    return to_signed(client % p, p)


def values_to_he(rows, ctx: Context, ch: MpcChannel):
    """``share_vector`` then ``shares_to_he`` of each row of a k x L matrix
    of values (signed or residues), as an iterator of k ciphertexts.

    The rows are shared at the call, under one draw of k*L mask words,
    and both shares of every row are encoded in one ``plains`` call.  The
    HE ops are spent lazily: each ciphertext is encrypted, unmasked and
    charged one n-word transfer only when the iterator yields it, so a
    consumer's own ops interleave with them as with ``shares_to_he``.
    """
    secret = from_signed(rows, ch.p)
    n = ctx.params.n_slots
    if secret.ndim != 2 or secret.shape[1] > n:
        raise ParameterError(f"expected a matrix of at most {n} columns, got shape {secret.shape}")
    k, length = secret.shape
    r = ch.sample_mask(k * length).reshape(k, length)
    shares = np.zeros((2 * k, n), dtype=np.int64)
    shares[:k, :length] = secret - r  # reduced mod p by plains
    shares[k:, :length] = r
    encoded = ctx.plains(shares)

    def ciphertexts():
        for client, server in zip(encoded[:k], encoded[k:]):
            ct = ctx.add_plain(ctx.encrypt(client), server)
            ctx.counter.mpc_bytes += ch.transfer(n)
            yield ct

    return ciphertexts()


def truncate(s: SharePair, fp: FixedPointParams, ctx: Context, ch: MpcChannel) -> SharePair:
    """Fixed-point rescale: reconstruction is floor-divided by 2^f."""
    out = fp_truncate(reconstruct(s), fp.f)
    ctx.counter.mpc_bytes += ch.transfer(s.length, trips=1 + 2)
    return share_vector(out, ch)


def attention_softmax(
    scores_2f: np.ndarray, d2: int, fp: FixedPointParams, ctx: Context, ch: MpcChannel
) -> np.ndarray:
    """Scale-f softmax weights of scale-2f attention scores.

    A score vector (one decode query) takes ``attention_weights``; an
    m x m matrix (the prompt pass) takes ``causal_attention_weights`` row
    by row.  Either way the protocol is 3 + RECIPROCAL_ITERS trips over
    all the scores.
    """
    S = np.asarray(scores_2f, dtype=np.int64)
    if S.ndim == 1:
        out = attention_weights(S, d2, fp)
    else:
        out = np.stack([causal_attention_weights(row, i, d2, fp) for i, row in enumerate(S)])
    ctx.counter.mpc_bytes += ch.transfer(S.size, trips=3 + RECIPROCAL_ITERS)
    return out
