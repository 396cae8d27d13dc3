#!/usr/bin/env python3
"""The two CT x CT attention kernels over a heterogeneous cache.

inner-inner: broadcast one query feature across the slots (mask, rotate,
log-depth duplication) and multiply against an outer-packed column -- used
against prefill keys, whose transpose behaves inner-packed.

inner-outer: one SIMD multiply against a compacted cache ciphertext plus a
log-depth folding reduction -- used against generated keys, whose transpose
behaves outer-packed.  Count the CT x CT mults: compaction makes them per
cache ciphertext, not per token.  Each score lands at the start of its
row's d2-wide block, and is read from there, as decode attention reads it.
"""

import numpy as np

from cryptogen.arcc import arcc_inner_inner, arcc_inner_outer, broadcast_slot
from cryptogen.backend import BackendParams, Context, default_plain_modulus
from cryptogen.encodings import EncodingKind, encode

ctx = Context(BackendParams(n_slots=64, plain_modulus=default_plain_modulus(64, 26)), seed=0)
p = ctx.params.plain_modulus
rng = np.random.default_rng(1)

# broadcast: the slot-duplication primitive behind inner-inner
a = ctx.encrypt(ctx.plains([[7, 9, 4]])[0])
start = ctx.counter.snapshot()
b = broadcast_slot(a, 1, 8, ctx)
print(f"broadcast slot 1 -> {ctx.decrypt(b)[:8].tolist()} "
      f"({ctx.counter.delta(start)['rotate']} rotations)")

# inner-inner: q . K^T against outer-packed keys
d2, m = 4, 6
q = rng.integers(0, p, d2)
K = rng.integers(0, p, (m, d2))
qc = ctx.encrypt(ctx.plains([q])[0])
scores = ctx.decrypt(arcc_inner_inner(qc, encode(K, EncodingKind.OUTER, ctx), ctx))[:m]
print("inner-inner scores:", scores.tolist())
assert (scores == (K @ q) % p).all()

# inner-outer: q . K^T against the compacted generated segment
t = 21  # tokens in the generated segment -> ceil(21/16) = 2 cache ciphertexts
K_auto = rng.integers(0, p, (t, d2))
packed = encode(K_auto, EncodingKind.INNER_COMPACTED, ctx)
start = ctx.counter.snapshot()
parts = arcc_inner_outer(qc, packed, ctx)
d = ctx.counter.delta(start)
print(f"inner-outer over {t} cached tokens: {d['mult_cipher']} CTxCT mults "
      f"({len(packed.parts)} cache ciphertexts, B={packed.per_part}), {d['rotate']} rotations")

# row r's score sits at slot r*d2 of the parts laid end to end
scores = np.concatenate([ctx.decrypt(part) for part in parts])[: t * d2 : d2]
assert (scores == (K_auto @ q) % p).all()
print("scores read from block starts 0, 4, 8, ...:", scores[:6].tolist(), "...")
