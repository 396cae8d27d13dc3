#!/usr/bin/env python3
"""Tour of the instrumented SIMD backend.

A ciphertext here is an n-slot vector over Z_p with a noise-budget ledger
attached.  One homomorphic op acts on all slots at once; every op is
tallied and charges its configured budget cost.  The emulation is exact,
so you can watch both the values and the ledger.
"""

import numpy as np

from cryptogen.backend import BackendParams, Context, DecryptionFailure

params = BackendParams(n_slots=16, plain_modulus=12289)  # 12289 = 1 mod 32
ctx = Context(params, seed=0)
print(f"context: n={params.n_slots} p={params.plain_modulus} budget={params.initial_noise_budget}")

# operands are encoded once into plaintexts, then encrypted
pa, pb = ctx.plains([np.arange(16), np.arange(16)[::-1]])
a, b = ctx.encrypt(pa), ctx.encrypt(pb)
print("a      :", ctx.decrypt(a)[:8], "... budget", a.noise_budget)

# slot-wise arithmetic
s = ctx.add(a, b)
prod = ctx.mult_cipher(a, b)
print("a+b    :", ctx.decrypt(s)[:8], "budget", s.noise_budget)
print("a*b    :", ctx.decrypt(prod)[:8], "budget", prod.noise_budget)

# cyclic rotation: one op moves every slot
r = ctx.rotate(a, 3)
print("rot(3) :", ctx.decrypt(r)[:8], "budget", r.noise_budget)

# the ledger is the whole noise story: drive a ciphertext into the ground
dead = prod
while dead.noise_budget >= params.noise_costs.mult_cipher:
    dead = ctx.mult_cipher(dead, b)
print("worn-out budget:", dead.noise_budget)
# each rotation costs its budget too: wear the rest down to exactly zero
spent = 0
while dead.noise_budget:
    dead = ctx.rotate(dead, 1)
    spent += 1
print(f"after {spent} rotations:", dead.noise_budget)
try:
    ctx.decrypt(dead)
except DecryptionFailure as e:
    print("decrypting at zero budget ->", e)

print("\noperation counters:")
for k, v in ctx.counter.as_dict().items():
    if v:
        print(f"  {k:12s} {v}")
