"""Single-process two-role emulation of the MPC side.

HE ciphertexts convert to additive shares by server-side masking; protocols
reconstruct, evaluate the shared fixed-point function, and re-share under a
fresh mask, so each share in isolation stays uniform.  A channel object
tallies the bytes and rounds the real protocol would move; the tallies
depend only on shapes, never on values.

Byte model (elements are modulus-bit words, integer-divided into bytes):
ciphertext transfers cost n_slots words; a protocol on L values costs its
entry and exit transfers (2L words) plus a per-protocol number of L-word
interaction rounds: gelu 2, truncate 1, softmax 3 + reciprocal iterations,
layernorm 5.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .backend import Context, ParameterError, SlotCiphertext
from .fixedpoint import (
    RECIPROCAL_ITERS,
    FixedPointParams,
    fp_gelu,
    fp_layernorm,
    fp_softmax,
    fp_truncate,
    from_signed,
    to_signed,
)

__all__ = [
    "FixedPointParams",
    "MpcChannel",
    "SharePair",
    "he_to_shares",
    "mpc_gelu",
    "mpc_layernorm",
    "mpc_softmax",
    "reconstruct",
    "share_vector",
    "shares_to_he",
    "truncate",
]


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
    """Byte/round accounting plus the mask RNG for one serial conversation."""

    def __init__(self, p: int, seed=0):
        self.p = p
        self.word_bits = p.bit_length()
        self.bytes_sent = 0
        self.rounds = 0
        if isinstance(seed, np.random.SeedSequence):
            self.rng = np.random.default_rng(seed)
        else:
            self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.transcript: list = []

    def vector_bytes(self, elements: int) -> int:
        return elements * self.word_bits // 8

    def transfer(self, op: str, elements: int, trips: int = 1) -> None:
        nbytes = trips * self.vector_bytes(elements)
        self.bytes_sent += nbytes
        self.rounds += trips
        self.transcript.append({"op": op, "elements": elements, "trips": trips, "bytes": nbytes})

    def sample_mask(self, length: int) -> np.ndarray:
        return self.rng.integers(0, self.p, size=length, dtype=np.int64)

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
    masked = ctx.add_plain(ct, (p - r) % p)
    client_full = ctx.decrypt(masked)
    ch.transfer("he_to_shares", n)
    return SharePair(client_full[:length].copy(), r[:length].copy(), p, length)


def shares_to_he(s: SharePair, ctx: Context, ch: MpcChannel) -> SlotCiphertext:
    """Client encrypts its share; server homomorphically adds its own.

    The result decrypts to the reconstruction in slots 0..length-1 (zeros
    beyond) and carries a fresh noise budget.
    """
    enc = ctx.encrypt(ctx.plain_from_dense(s.client))
    out = ctx.add_plain(enc, ctx.plain_from_dense(s.server))
    ch.transfer("shares_to_he", ctx.params.n_slots)
    return out


def truncate(s: SharePair, fp: FixedPointParams, ch: MpcChannel) -> SharePair:
    """Fixed-point rescale: reconstruction is floor-divided by 2^f."""
    out = fp_truncate(reconstruct(s), fp.f)
    ch.transfer("truncate", s.length, trips=1 + 2)
    return share_vector(out, ch)


def mpc_gelu(s: SharePair, fp: FixedPointParams, ch: MpcChannel) -> SharePair:
    """GELU: frozen quartic inside [-3.2, 3.2] (two multiplication rounds),
    exact linear/zero passthrough outside, negative side by symmetry."""
    out = fp_gelu(reconstruct(s), fp)
    ch.transfer("gelu", s.length, trips=2 + 2)
    return share_vector(out, ch)


def mpc_softmax(s: SharePair, fp: FixedPointParams, ch: MpcChannel) -> SharePair:
    """Integer-only softmax over the shared scores (scale f in, scale f out)."""
    if s.length < 1:
        raise ParameterError("softmax needs at least one score")
    out = fp_softmax(reconstruct(s), fp)
    ch.transfer("softmax", s.length, trips=3 + RECIPROCAL_ITERS + 2)
    return share_vector(out, ch)


def mpc_layernorm(
    s: SharePair, gain, bias, fp: FixedPointParams, ch: MpcChannel
) -> SharePair:
    """LayerNorm with plaintext gain/bias (already scale-f integers)."""
    out = fp_layernorm(reconstruct(s), gain, bias, fp)
    ch.transfer("layernorm", s.length, trips=5 + 2)
    return share_vector(out, ch)
