#!/usr/bin/env python3
"""Life of the encrypted KV cache: slot-aware appends, the compaction law,
and lazy noise refresh.

Appends rotate the incoming token to its block, mask it, and add it into
the newest cache ciphertext, so a fresh ciphertext opens only every B
tokens.  Refresh is the client-assisted mask/decrypt/re-encrypt round trip,
triggered only when a budget sinks to the threshold; here a stress cost
profile makes that happen quickly so you can watch it.  Each refresh is
counted on the op counter and logged at INFO by ``cryptogen.kv_cache``;
the demo turns that logger on to show the records.
"""

import logging

import numpy as np

from cryptogen.backend import BackendParams, Context, NoiseCosts, default_plain_modulus
from cryptogen.encodings import decode
from cryptogen.kv_cache import append_token, cache_stats, init_cache, maybe_refresh
from cryptogen.nonlinear import MpcChannel

logging.basicConfig(level=logging.INFO, format="  %(message)s")
p = default_plain_modulus(16, 20)
ctx = Context(BackendParams(n_slots=16, plain_modulus=p), seed=0)
d2 = 4

cache = init_cache(None, None, ctx, d2=d2)
print(f"B = n/d2 = {cache.B}")
for t in range(9):
    tok = ctx.encrypt(ctx.plains([np.full(d2, t + 1)])[0])
    cache = append_token(cache, tok, tok, ctx)
    s = cache_stats(cache)
    print(f"  append {t}: t_auto={s['t_auto']:2d} auto ciphertexts={s['auto_ct_count']}"
          f" (= ceil({s['t_auto']}/{cache.B}))")
print("decoded rows:", decode(cache.auto_K, ctx)[:, 0].tolist())

# stress profile: additions cost budget, so full blocks sink to the threshold
stress = BackendParams(
    n_slots=16, plain_modulus=p, noise_costs=NoiseCosts(add=15), initial_noise_budget=100
)
ctx = Context(stress, seed=0)
ch = MpcChannel(p, seed=0)
cache = init_cache(None, None, ctx, d2=d2)
print(f"\nstress run (add costs 15 bits, threshold {stress.refresh_threshold}); refresh records:")
for t in range(10):
    (cache,) = maybe_refresh([(cache, ch)], ctx)
    tok = ctx.encrypt(ctx.plains([np.full(d2, t + 1)])[0])
    cache = append_token(cache, tok, tok, ctx)
    budgets = [part.noise_budget for part in cache.auto_K.parts]
    print(f"  step {t}: K budgets {budgets} refreshes so far {ctx.counter.refresh_events}")

print("channel moved", ch.bytes_sent, "bytes in", ch.rounds, "rounds")
assert (decode(cache.auto_K, ctx)[:, 0] == np.arange(1, 11)).all()
