#!/usr/bin/env python3
"""CT x PT linear layers and why their costs differ by phase.

The prefill kernel (CPMM) takes the plaintext weights as a dense matrix
and multiplies a batch of outer-packed activation columns by them; it
internally stacks columns so its plaintext-mult count follows m*d1*d2/n.
The decode kernel (CPVM) takes the weights' generalized diagonals, which
``cpvm_plaintexts`` encodes once, and projects one inner-packed token with
a per-call cost that is independent of how long the prompt was.  Both
reduce with the rotate-and-accumulate folding sum.
"""

import numpy as np

from cryptogen.backend import BackendParams, Context, default_plain_modulus
from cryptogen.encodings import EncodingKind, decode, encode
from cryptogen.linear_kernels import cpmm_outer_diagonal, cpvm_inner_diagonal, cpvm_plaintexts, fold_sum

ctx = Context(BackendParams(n_slots=64, plain_modulus=default_plain_modulus(64, 26)), seed=0)
p = ctx.params.plain_modulus
rng = np.random.default_rng(0)

# folding sum: log2(block) rotations collapse a block into its first slot
v = ctx.encrypt(ctx.plains([[1, 2, 3, 4, 5, 6, 7, 8]])[0])
start = ctx.counter.snapshot()
folded = fold_sum(v, 8, ctx)
print(f"fold_sum(8): slot0 = {ctx.decrypt(folded)[0]} with "
      f"{ctx.counter.delta(start)['rotate']} rotations")

# CPMM: the prefill workhorse
X = rng.integers(0, p, (8, 16))
W = rng.integers(0, p, (16, 4))
Xp = encode(X, EncodingKind.OUTER, ctx)
start = ctx.counter.snapshot()
Y = cpmm_outer_diagonal(Xp, W, ctx)
d = ctx.counter.delta(start)
assert (decode(Y, ctx) == (X @ W) % p).all()
print(f"CPMM 8x16 @ 16x4 (n=64): mult_plain={d['mult_plain']} rotate={d['rotate']}")

# mult count scales with the batch: m doubles -> work doubles
for m in (4, 8, 16):
    Xp = encode(rng.integers(0, p, (m, 16)), EncodingKind.OUTER, ctx)
    start = ctx.counter.snapshot()
    cpmm_outer_diagonal(Xp, W, ctx)
    print(f"  m={m:2d}: mult_plain={ctx.counter.delta(start)['mult_plain']}")

# CPVM: one token, prompt-independent cost
x = rng.integers(0, p, 16)
xc = ctx.encrypt(ctx.plains([x])[0])
Wd = cpvm_plaintexts(W, ctx)  # the server encodes its diagonals once
start = ctx.counter.snapshot()
y = cpvm_inner_diagonal(xc, Wd, ctx)
d = ctx.counter.delta(start)
assert (ctx.decrypt(y)[:4] == (x @ W) % p).all()
print(f"CPVM 16 -> 4: mult_plain={d['mult_plain']} rotate={d['rotate']} "
      "(no batch dimension anywhere in the call)")
