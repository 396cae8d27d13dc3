"""Single-process two-role emulation of the MPC side, and the one module
that sizes and charges MPC traffic.

HE ciphertexts convert to additive shares by server-side masking; the
client evaluates the shared fixed-point function on the reconstruction
and re-shares it under a fresh mask, so each share in isolation stays
uniform.  A channel object tallies the bytes and rounds the real protocol
would move; the tallies depend only on shapes, never on values.  It also
draws the share masks: blocks of ``MASK_BLOCK`` uniform words from its own
generator, handed out as read-only slices, each word once.  Each protocol
charges the bytes of its transfers to ``ctx.counter.mpc_bytes`` of the
context it runs on, so every call's counter delta carries its traffic.

Byte model, as the pipeline charges it (elements are modulus-bit words,
integer-divided into bytes):

  ciphertext transfer   n_slots words, one round, each way
                        (``he_to_shares``, ``shares_to_he``); a KV-cache
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

import json
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
    "reconstruct",
    "share_vector",
    "shares_to_he",
    "truncate",
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
    """Byte/round accounting plus the mask RNG for one serial conversation.
    Only the protocols of this module call ``transfer``."""

    def __init__(self, p: int, seed=0):
        self.p = p
        self.word_bits = p.bit_length()
        self.bytes_sent = 0
        self.rounds = 0
        self.rng = np.random.default_rng(seed)  # an int or a SeedSequence
        self.transcript: list = []
        self._masks = np.empty(0, dtype=np.int64)  # the current block
        self._used = 0  # words of it handed out

    def vector_bytes(self, elements: int) -> int:
        return elements * self.word_bits // 8

    def transfer(self, op: str, elements: int, trips: int = 1) -> int:
        """Tally ``trips`` rounds of ``elements`` words; returns the bytes."""
        nbytes = trips * self.vector_bytes(elements)
        self.bytes_sent += nbytes
        self.rounds += trips
        self.transcript.append({"op": op, "elements": elements, "trips": trips, "bytes": nbytes})
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

    def transcript_json(self) -> str:
        return json.dumps(
            {"bytes_sent": self.bytes_sent, "rounds": self.rounds, "log": self.transcript},
            indent=2,
        )


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
    ctx.counter.mpc_bytes += ch.transfer("he_to_shares", n)
    return SharePair(client_full[:length], r[:length], p, length)


def shares_to_he(s: SharePair, ctx: Context, ch: MpcChannel) -> SlotCiphertext:
    """Client encrypts its share; server homomorphically adds its own.

    The result decrypts to the reconstruction in slots 0..length-1 (zeros
    beyond) and carries a fresh noise budget.
    """
    n = ctx.params.n_slots
    if s.length > n:
        raise ParameterError("vector longer than slot count")
    shares = np.zeros((2, n), dtype=np.int64)
    shares[0, : s.length] = s.client
    shares[1, : s.length] = s.server
    client, server = ctx.plains(shares)
    out = ctx.add_plain(ctx.encrypt(client), server)
    ctx.counter.mpc_bytes += ch.transfer("shares_to_he", n)
    return out


def truncate(s: SharePair, fp: FixedPointParams, ctx: Context, ch: MpcChannel) -> SharePair:
    """Fixed-point rescale: reconstruction is floor-divided by 2^f."""
    out = fp_truncate(reconstruct(s), fp.f)
    ctx.counter.mpc_bytes += ch.transfer("truncate", s.length, trips=1 + 2)
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
    ctx.counter.mpc_bytes += ch.transfer("softmax", S.size, trips=3 + RECIPROCAL_ITERS)
    return out
