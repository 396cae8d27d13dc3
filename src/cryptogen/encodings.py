"""Matrix/vector packing into SIMD slot vectors.

Three layouts of encrypted matrices:

  outer           one matrix column per ciphertext, values in slots 0..m-1
  inner           one matrix row per ciphertext, values in slots 0..d-1
  inner_compacted rows packed B = ceil(n/d) per ciphertext in d-wide blocks

Plaintext weights are not packed here: the linear kernels take them as
dense matrices and build the plaintext vectors their algorithms need.

Unused slots are zero.  Kernels may additionally produce ciphertexts whose
padding carries cyclic copies of the payload (tracked via
``PackedMatrix.slot_period``); ``decode`` only ever reads the payload slots
so both paddings decode identically.

Also houses the matrix file formats: JSON arrays and a flat binary format
(little-endian 64-bit words, row-major, 8-word header: magic, m, d, p).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .backend import Context, ParameterError, SlotCiphertext

__all__ = [
    "Encoding",
    "EncodingKind",
    "PackedMatrix",
    "decode",
    "encode",
    "load_matrix",
    "next_pow2",
    "pack_token_inner",
    "save_matrix",
    "tile_token",
]

MATRIX_MAGIC = int.from_bytes(b"CGMATRIX", "little")


def next_pow2(x: int) -> int:
    return 1 if x <= 1 else 1 << (x - 1).bit_length()


class EncodingKind(Enum):
    OUTER = "outer"
    INNER = "inner"
    INNER_COMPACTED = "inner_compacted"


@dataclass(frozen=True)
class Encoding:
    kind: EncodingKind
    rows: int
    cols: int
    block: int | None = None  # block capacity B, inner_compacted only

    def __post_init__(self):
        if self.rows < 0 or self.cols <= 0:
            raise ParameterError(f"bad encoding dims {self.rows}x{self.cols}")
        if self.kind is EncodingKind.INNER_COMPACTED and not self.block:
            raise ParameterError("inner_compacted encoding needs a block capacity")


@dataclass
class PackedMatrix:
    """An encrypted matrix realized as an ordered list of ciphertexts.

    ``slot_period`` records cyclic-copy padding produced by kernels (None
    means canonical zero padding).
    """

    encoding: Encoding
    parts: list
    slot_period: int | None = None

    @property
    def rows(self) -> int:
        return self.encoding.rows

    @property
    def cols(self) -> int:
        return self.encoding.cols


def block_capacity(n_slots: int, d: int) -> int:
    """Rows per ciphertext for d-wide blocks: B = ceil(n/d)."""
    if d <= 0 or d > n_slots:
        raise ParameterError(f"block width {d} does not fit {n_slots} slots")
    if n_slots % d != 0:
        raise ParameterError(
            f"block width {d} must divide the slot count {n_slots}"
        )
    return -(-n_slots // d)


def encode(A, kind: EncodingKind, ctx: Context) -> PackedMatrix:
    """Pack a matrix over Z_p into encrypted slot vectors under the given layout."""
    A = np.mod(np.asarray(A, dtype=np.int64), ctx.params.plain_modulus)
    if A.ndim != 2:
        raise ParameterError(f"expected a matrix, got shape {A.shape}")
    m, d = A.shape
    n = ctx.params.n_slots
    parts = []
    if kind is EncodingKind.OUTER:
        if m > n:
            raise ParameterError(f"outer packing needs rows {m} <= n_slots {n}")
        for j in range(d):
            vec = np.zeros(n, dtype=np.int64)
            vec[:m] = A[:, j]
            parts.append(ctx.encrypt(vec))
        enc = Encoding(EncodingKind.OUTER, m, d)
    elif kind is EncodingKind.INNER:
        if d > n:
            raise ParameterError(f"inner packing needs cols {d} <= n_slots {n}")
        for i in range(m):
            vec = np.zeros(n, dtype=np.int64)
            vec[:d] = A[i]
            parts.append(ctx.encrypt(vec))
        enc = Encoding(EncodingKind.INNER, m, d)
    elif kind is EncodingKind.INNER_COMPACTED:
        B = block_capacity(n, d)
        for q in range(-(-m // B) if m else 0):
            vec = np.zeros(n, dtype=np.int64)
            for b in range(min(B, m - q * B)):
                vec[b * d : b * d + d] = A[q * B + b]
            parts.append(ctx.encrypt(vec))
        enc = Encoding(EncodingKind.INNER_COMPACTED, m, d, block=B)
    else:
        raise ParameterError(f"unknown encoding kind {kind}")
    return PackedMatrix(enc, parts)


def decode(P: PackedMatrix, ctx: Context) -> np.ndarray:
    """Exact inverse of encode; reads only payload slots."""
    m, d = P.encoding.rows, P.encoding.cols
    A = np.zeros((m, d), dtype=np.int64)
    kind = P.encoding.kind
    if kind is EncodingKind.OUTER:
        for j in range(d):
            A[:, j] = ctx.decrypt(P.parts[j])[:m]
    elif kind is EncodingKind.INNER:
        for i in range(m):
            A[i] = ctx.decrypt(P.parts[i])[:d]
    elif kind is EncodingKind.INNER_COMPACTED:
        B = P.encoding.block
        for q in range(len(P.parts)):
            vals = ctx.decrypt(P.parts[q])
            for b in range(min(B, m - q * B)):
                A[q * B + b] = vals[b * d : b * d + d]
    else:
        raise ParameterError(f"unknown encoding kind {kind}")
    return A


def pack_token_inner(x, ctx: Context) -> SlotCiphertext:
    """Encrypt one row vector into slots 0..d-1 (inner layout)."""
    x = np.asarray(x, dtype=np.int64)
    if x.ndim != 1 or x.shape[0] > ctx.params.n_slots:
        raise ParameterError(
            f"token of length {x.shape} does not fit {ctx.params.n_slots} slots"
        )
    return ctx.encrypt(ctx.plain_from_dense(x))


def tile_token(x_ct: SlotCiphertext, d: int, B: int, ctx: Context) -> SlotCiphertext:
    """Replicate a d-wide payload into B contiguous blocks.

    ceil(log2 B) rotate-and-add doublings; the payload must be zero outside
    slots 0..d-1 and next_pow2(B)*d must fit the slot count so no doubling
    wraps.
    """
    n = ctx.params.n_slots
    if B < 1 or d < 1 or B * d > n:
        raise ParameterError(f"cannot tile {B} blocks of width {d} into {n} slots")
    if next_pow2(B) * d > n:
        raise ParameterError(
            f"replication of {B} blocks rounds up to {next_pow2(B)}, "
            f"which would wrap in {n} slots"
        )
    return ctx.fold(x_ct, -d, B * d)


# ----------------------------------------------------------------------
# matrix files
# ----------------------------------------------------------------------


def save_matrix(path, A, p: int, fmt: str = "bin") -> None:
    """Write a Z_p matrix as JSON or the flat binary format."""
    A = np.asarray(A, dtype=np.int64)
    path = Path(path)
    if fmt == "json":
        path.write_text(
            json.dumps({"m": A.shape[0], "d": A.shape[1], "p": p, "data": A.tolist()})
        )
        return
    if fmt != "bin":
        raise ParameterError(f"unknown matrix format {fmt!r}")
    m, d = A.shape
    header = struct.pack("<8Q", MATRIX_MAGIC, m, d, p, 0, 0, 0, 0)
    body = A.astype("<u8").tobytes(order="C")
    path.write_bytes(header + body)


def load_matrix(path) -> tuple[np.ndarray, int]:
    """Read a matrix written by save_matrix; returns (matrix, modulus)."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:1] == b"{":
        d = json.loads(raw.decode())
        return np.asarray(d["data"], dtype=np.int64), int(d["p"])
    if len(raw) < 64:
        raise ParameterError(f"{path}: truncated matrix file")
    magic, m, dcols, p, *_ = struct.unpack("<8Q", raw[:64])
    if magic != MATRIX_MAGIC:
        raise ParameterError(f"{path}: bad magic {magic:#x}")
    body = np.frombuffer(raw[64:], dtype="<u8")
    if body.shape[0] != m * dcols:
        raise ParameterError(f"{path}: expected {m * dcols} words, got {body.shape[0]}")
    return body.astype(np.int64).reshape(m, dcols), int(p)
