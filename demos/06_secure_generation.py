#!/usr/bin/env python3
"""End-to-end secure generation on the bundled toy model, checked
token-by-token against the plaintext fixed-point oracle.

Prefill runs batched (outer packing + CPMM + outer-outer attention);
decoding runs token-at-a-time (CPVM projections, heterogeneous-cache
attention, lazy refresh checks).  Nonlinearities round-trip through the
share domain.  The oracle runs the identical fixed-point arithmetic with
no encryption, so matching tokens mean the whole encrypted pipeline is
value-exact.
"""

import numpy as np

from cryptogen.backend import BackendParams, Context, default_plain_modulus
from cryptogen.model import generate, generate_toy_model, oracle_generate, toy_config

cfg = toy_config()
model = generate_toy_model(cfg, seed=0)
p = default_plain_modulus(64, 26)
ctx = Context(BackendParams(n_slots=64, plain_modulus=p), seed=0)

prompt = [3, 14, 15, 9, 26, 5, 35, 41]
k = 16
print(f"model: {cfg.layers} layers, d1={cfg.d1}, {cfg.heads} heads, vocab {cfg.vocab}")
print(f"backend: n={ctx.params.n_slots} slots, p={p}")
print("prompt:", prompt)

tokens, report = generate(model, prompt, k, ctx)
oracle = oracle_generate(model, prompt, k, p)
print("encrypted:", tokens)
print("oracle   :", oracle)
print("token-exact match:", tokens == oracle)

pre = report["prefill"]["counters"]
print(f"\nprefill: {pre['mult_plain']} CTxPT mults, {pre['mult_cipher']} CTxCT mults, "
      f"{report['prefill']['mpc_bytes']} MPC bytes")

print("\nper-step decode profile:")
print("step  ctpt  ctct  rotate  fresh  cache_cts  mpc_bytes")
for s in report["steps"][:6]:
    c = s["counters"]
    print(f"{s['step']:4d}  {c['mult_plain']:4d}  {c['mult_cipher']:4d}  {c['rotate']:6d}"
          f"  {c['encrypt']:5d}  {s['cache_auto_cts']:9d}  {s['mpc_bytes']:9d}")
print("...")

ctct = [s["counters"]["mult_cipher"] for s in report["steps"]]
print(f"\nCTxCT per step stays flat while the cache grows: {ctct[:8]} ...")
print(f"totals: {report['totals']['mult_plain']} CTxPT, {report['totals']['mult_cipher']} CTxCT, "
      f"{report['totals']['mpc_bytes']} MPC bytes")
