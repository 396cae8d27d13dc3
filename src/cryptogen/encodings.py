"""Matrix/vector packing into SIMD slot vectors.

Three layouts of encrypted matrices:

  outer           one matrix column per ciphertext, values in slots 0..m-1
  inner           one matrix row per ciphertext, values in slots 0..d-1
  inner_compacted rows packed B = n/d per ciphertext in d-wide blocks

Plaintext weights are not packed here: the linear kernels take them as
dense matrices and build the plaintext vectors their algorithms need.

Each layout is one geometry: a payload vector (a column if outer-packed,
a row otherwise) is ``width`` slots wide and ``per_part`` of them sit side
by side in each ciphertext, so ``encode`` and ``decode`` are one loop over
payload vectors.  ``encode`` leaves every slot outside the payload zero.
Kernel outputs may carry other values there (the CPMM leaves cyclic copies
of period next_pow2(m)); ``decode`` reads only the payload slots, so any
padding decodes identically.

Also houses the flat binary matrix file format (little-endian 64-bit
words, row-major, 8-word header: magic, m, d, p).
"""

from __future__ import annotations

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
        if not isinstance(self.kind, EncodingKind):
            raise ParameterError(f"unknown encoding kind {self.kind}")
        if self.rows < 0 or self.cols <= 0:
            raise ParameterError(f"bad encoding dims {self.rows}x{self.cols}")
        if self.kind is EncodingKind.INNER_COMPACTED and not self.block:
            raise ParameterError("inner_compacted encoding needs a block capacity")


@dataclass
class PackedMatrix:
    """An encrypted matrix realized as an ordered list of ciphertexts."""

    encoding: Encoding
    parts: list

    @property
    def rows(self) -> int:
        return self.encoding.rows

    @property
    def cols(self) -> int:
        return self.encoding.cols

    @property
    def width(self) -> int:
        """Slots per payload vector: rows if outer-packed, cols otherwise."""
        return self.rows if self.encoding.kind is EncodingKind.OUTER else self.cols

    @property
    def per_part(self) -> int:
        """Payload vectors per ciphertext: the block capacity if compacted."""
        return self.encoding.block or 1

    def payloads(self, M: np.ndarray) -> np.ndarray:
        """A rows x cols array as its payload vectors (its columns if
        outer-packed, its rows otherwise), and back: the map is its own
        inverse and returns a view."""
        return M.T if self.encoding.kind is EncodingKind.OUTER else M


def block_capacity(n_slots: int, d: int) -> int:
    """Rows per ciphertext for d-wide blocks: B = n/d, with d dividing n."""
    if d <= 0 or d > n_slots:
        raise ParameterError(f"block width {d} does not fit {n_slots} slots")
    if n_slots % d != 0:
        raise ParameterError(
            f"block width {d} must divide the slot count {n_slots}"
        )
    return n_slots // d


def encode(A, kind: EncodingKind, ctx: Context) -> PackedMatrix:
    """Pack a matrix over Z_p into encrypted slot vectors under the given
    layout: one ``encrypt`` per ciphertext, zero outside the payload."""
    A = np.asarray(A, dtype=np.int64)
    if A.ndim != 2:
        raise ParameterError(f"expected a matrix, got shape {A.shape}")
    m, d = A.shape
    n = ctx.params.n_slots
    block = block_capacity(n, d) if kind is EncodingKind.INNER_COMPACTED else None
    P = PackedMatrix(Encoding(kind, m, d, block=block), [])
    if P.width > n:
        raise ParameterError(f"{kind.value} packing needs width {P.width} <= n_slots {n}")
    vectors, B = P.payloads(A), P.per_part
    plain = np.zeros((-(-len(vectors) // B), n), dtype=np.int64)
    for q, vec in enumerate(plain):
        payload = vectors[q * B : (q + 1) * B].ravel()
        vec[: payload.size] = payload
    P.parts.extend(ctx.encrypt(pt) for pt in ctx.plains(plain))
    return P


def decode(P: PackedMatrix, ctx: Context) -> np.ndarray:
    """Exact inverse of encode; reads only payload slots."""
    A = np.zeros((P.rows, P.cols), dtype=np.int64)
    vectors, B = P.payloads(A), P.per_part  # a view: filling it fills A
    for q, part in enumerate(P.parts):
        payload = vectors[q * B : (q + 1) * B]
        payload[...] = ctx.decrypt(part)[: payload.size].reshape(payload.shape)
    return A


def pack_token_inner(x, ctx: Context) -> SlotCiphertext:
    """Encrypt one integer row vector into slots 0..d-1 (inner layout);
    any other input raises ParameterError, as in ``plain_from_dense``."""
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


def save_matrix(path, A, p: int) -> None:
    """Write a Z_p matrix in the flat binary format."""
    A = np.asarray(A, dtype=np.int64)
    m, d = A.shape
    header = struct.pack("<8Q", MATRIX_MAGIC, m, d, p, 0, 0, 0, 0)
    body = A.astype("<u8").tobytes(order="C")
    Path(path).write_bytes(header + body)


def load_matrix(path) -> tuple[np.ndarray, int]:
    """Read a matrix written by save_matrix; returns (matrix, modulus)."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 64:
        raise ParameterError(f"{path}: truncated matrix file")
    magic, m, dcols, p, *_ = struct.unpack("<8Q", raw[:64])
    if magic != MATRIX_MAGIC:
        raise ParameterError(f"{path}: bad magic {magic:#x}")
    body = np.frombuffer(raw[64:], dtype="<u8")
    if body.shape[0] != m * dcols:
        raise ParameterError(f"{path}: expected {m * dcols} words, got {body.shape[0]}")
    return body.astype(np.int64).reshape(m, dcols), int(p)
