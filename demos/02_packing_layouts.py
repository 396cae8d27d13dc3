#!/usr/bin/env python3
"""The three packing layouts of encrypted matrices, side by side.

outer            one column per ciphertext  (batch-parallel prefilling)
inner            one row per ciphertext     (token-at-a-time decoding)
inner_compacted  rows packed B = n/d per ciphertext (the generated cache)

Plaintext weights have no layout of their own: the linear kernels take them
as dense matrices (see 03_linear_kernels.py).

Also shows the bit-exact matrix file format used for weights and cache
snapshots.
"""

import tempfile
from pathlib import Path

import numpy as np

from cryptogen.backend import BackendParams, Context
from cryptogen.encodings import EncodingKind, decode, encode, load_matrix, save_matrix

ctx = Context(BackendParams(n_slots=8, plain_modulus=17), seed=0)
A = np.array([[1, 2], [3, 4], [5, 6]])
print("matrix:\n", A)

for kind in EncodingKind:
    P = encode(A, kind, ctx)
    print(f"\n{kind.value}: {len(P.parts)} ciphertext(s)")
    for i, part in enumerate(P.parts):
        print(f"  part {i}: {ctx.decrypt(part).tolist()}")
    assert (decode(P, ctx) == A).all()

# compacted rows: ceil(r/B) ciphertexts hold r rows
for r in (1, 3, 4, 5):
    M = np.arange(2 * r).reshape(r, 2)
    packed = encode(M, EncodingKind.INNER_COMPACTED, ctx)
    print(f"rows={r}: B={packed.per_part} -> {len(packed.parts)} cache ciphertext(s)")

with tempfile.TemporaryDirectory() as d:
    path = Path(d) / "weights.bin"
    save_matrix(path, A, p=17)
    back, p = load_matrix(path)
    print(f"\nbinary roundtrip: p={p}, header+payload = {path.stat().st_size} bytes")
    assert (back == A).all()
