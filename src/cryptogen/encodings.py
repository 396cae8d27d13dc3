"""Matrix/vector packing into SIMD slot vectors.

Three layouts of encrypted matrices:

  outer           one matrix column per ciphertext, values in slots 0..m-1
  inner           one matrix row per ciphertext, values in slots 0..d-1
  inner_compacted rows packed B = n/d per ciphertext in d-wide blocks

Plaintext weights are not packed here: the linear kernels take them as
dense matrices and build the plaintext vectors their algorithms need.

Each layout is one slot map: ``per_part`` payload vectors (columns if
outer-packed, rows otherwise) of ``width`` slots side by side from slot 0
of each ciphertext.  ``PackedMatrix.pack``/``unpack`` carry a matrix, with
any leading axes, to and from one slot row per ciphertext for every
share-domain caller, ``encode``/``decode`` included.  ``pack`` zeroes every
slot outside the payload; kernel outputs may carry other values there (the
CPMM's cyclic copies), and ``unpack`` reads only the payload slots.

Also houses the flat binary matrix file format (little-endian 64-bit
words, row-major, 8-word header: magic, m, d, p).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .backend import Context, ParameterError, SlotCiphertext, as_int64

__all__ = [
    "Encoding",
    "EncodingKind",
    "PackedMatrix",
    "decode",
    "encode",
    "load_matrix",
    "next_pow2",
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

    def pack(self, M: np.ndarray) -> np.ndarray:
        """A (..., rows, cols) array as (..., parts, per_part * width): row
        q holds part q's payload vectors side by side from slot 0, zero
        where no vector falls.  With one payload per part it is a
        read-only view of M (its transpose if outer-packed)."""
        V = np.swapaxes(M, -1, -2) if self.encoding.kind is EncodingKind.OUTER else M
        B = self.per_part
        if B == 1:
            V = V.view()
            V.setflags(write=False)
            return V
        *lead, k, w = V.shape
        S = np.zeros((*lead, -(-k // B) * B, w), dtype=V.dtype)
        S[..., :k, :] = V
        return S.reshape(*lead, S.shape[-2] // B, B * w)

    def unpack(self, S: np.ndarray) -> np.ndarray:
        """The inverse of ``pack``: a (..., parts, L) array of slot rows,
        L at least per_part * width, as the (..., rows, cols) matrix its
        payload slots hold; no other slot is read."""
        B, w = self.per_part, self.width
        outer = self.encoding.kind is EncodingKind.OUTER
        *lead, parts, _ = S.shape
        V = S[..., : B * w].reshape(*lead, parts * B, w)[..., : self.cols if outer else self.rows, :]
        return np.swapaxes(V, -1, -2) if outer else V


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
    """Pack an integer matrix, reduced mod p, into encrypted slot vectors
    under the given layout: one ``encrypt`` per ciphertext, zero outside
    the payload.  Any other input raises ParameterError, as in ``as_int64``."""
    A = as_int64(A)
    if A.ndim != 2:
        raise ParameterError(f"expected a matrix, got shape {A.shape}")
    m, d = A.shape
    n = ctx.params.n_slots
    block = block_capacity(n, d) if kind is EncodingKind.INNER_COMPACTED else None
    P = PackedMatrix(Encoding(kind, m, d, block=block), [])
    if P.width > n:
        raise ParameterError(f"{kind.value} packing needs width {P.width} <= n_slots {n}")
    P.parts.extend(ctx.encrypt(pt) for pt in ctx.plains(P.pack(A)))
    return P


def decode(P: PackedMatrix, ctx: Context) -> np.ndarray:
    """Exact inverse of encode; reads only payload slots."""
    n = ctx.params.n_slots
    return P.unpack(np.fromiter(map(ctx.decrypt, P.parts), dtype=(np.int64, n), count=len(P.parts)))


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
    """Write an integer matrix, exact in int64 (``as_int64``), in the flat binary format."""
    A = as_int64(A)
    m, d = A.shape
    header = struct.pack("<8Q", MATRIX_MAGIC, m, d, p, 0, 0, 0, 0)
    body = A.astype("<u8").tobytes(order="C")
    Path(path).write_bytes(header + body)


def load_matrix(path) -> tuple[np.ndarray, int]:
    """Read a matrix written by save_matrix; returns (matrix, modulus)."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:  # missing, a directory, or unreadable
        raise ParameterError(f"{path}: cannot read the matrix file ({e.strerror})") from e
    if len(raw) < 64:
        raise ParameterError(f"{path}: truncated matrix file")
    magic, m, dcols, p, *_ = struct.unpack("<8Q", raw[:64])
    if magic != MATRIX_MAGIC:
        raise ParameterError(f"{path}: bad magic {magic:#x}")
    body = np.frombuffer(raw[64:], dtype="<u8")
    if body.shape[0] != m * dcols:
        raise ParameterError(f"{path}: expected {m * dcols} words, got {body.shape[0]}")
    return body.astype(np.int64).reshape(m, dcols), int(p)
