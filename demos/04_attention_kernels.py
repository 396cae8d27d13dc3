#!/usr/bin/env python3
"""The two CT x CT attention kernels over a heterogeneous cache.

inner-inner: broadcast one query feature across the slots (mask, rotate,
log-depth duplication) and multiply against an outer-packed column -- used
against prefill keys, whose transpose behaves inner-packed.

inner-outer: one SIMD multiply against a compacted cache ciphertext plus a
log-depth folding reduction -- used against generated keys, whose transpose
behaves outer-packed.  Count the CT x CT mults: compaction makes them per
cache ciphertext, not per token.
"""

import numpy as np

from cryptogen.arcc import arcc_inner_inner, arcc_inner_outer, broadcast_slot, compact_scores
from cryptogen.backend import BackendParams, Context, default_plain_modulus
from cryptogen.encodings import EncodingKind, encode, pack_token_inner

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
sv = arcc_inner_inner(pack_token_inner(q, ctx), encode(K, EncodingKind.OUTER, ctx), ctx)
print("inner-inner scores:", ctx.decrypt(sv.ct)[:m].tolist())
assert (ctx.decrypt(sv.ct)[:m] == (K @ q) % p).all()

# inner-outer: q . K^T against the compacted generated segment
t = 21  # tokens in the generated segment -> ceil(21/16) = 2 cache ciphertexts
K_auto = rng.integers(0, p, (t, d2))
packed = encode(K_auto, EncodingKind.INNER_COMPACTED, ctx)
start = ctx.counter.snapshot()
sv = arcc_inner_outer(pack_token_inner(q, ctx), packed, ctx)
d = ctx.counter.delta(start)
print(f"inner-outer over {t} cached tokens: {d['mult_cipher']} CTxCT mults "
      f"({len(packed.parts)} cache ciphertexts, B={packed.per_part}), {d['rotate']} rotations")

flat = compact_scores(sv, ctx)
assert (ctx.decrypt(flat.ct)[:t] == (K_auto @ q) % p).all()
print("scores compacted to contiguous slots:", ctx.decrypt(flat.ct)[:6].tolist(), "...")
