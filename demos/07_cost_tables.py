#!/usr/bin/env python3
"""Closed-form cost tables and validation against an instrumented run.

Each table cell evaluates its formula at the requested dimensions; at the
reference dimensions the published constants are attached, and any cell the
formula does not reproduce is carried as reported-only with both numbers.
The validator then checks a real run report against the exact decode cost
laws at every step: CTxCT products 2*layers*heads*(d2 + ceil(t/B)), a
constant CTxPT count, and ceil(t/B) generated-cache ciphertexts.  Nothing is
fitted: a law that fails names the steps where it fails.
"""

import numpy as np

from cryptogen.backend import BackendParams, Context, default_plain_modulus
from cryptogen.costmodel import (
    predict_costs,
    render_markdown,
    reported_only,
    table1_rows,
    table2_rows,
    validate_against_counts,
)
from cryptogen.model import generate, generate_toy_model, toy_config

print("CT x PT complexity at the reference dimensions:\n")
print(render_markdown(table1_rows()))

flagged = reported_only()
print(f"{len(flagged)} cells are reported-only; the first few:")
for f in flagged[:4]:
    print(f"  {f['method']:9s} {f['stage']:7s} {f['metric']:4s}: "
          f"reported {f['reported']} vs formula {f['formula']}")

print("\nattention asymptotics:\n")
print(render_markdown(table2_rows()))

print("\ncustom dimensions work too (no constants attached off-reference):")
t = predict_costs("CryptoGen", "prefill", m=32, d1=128, d2=16, n=512, k=4)
print(f"  m=32 d1=128 d2=16 n=512: mult={t.mult.render()} ct={t.ct.render()}")

print("\nvalidating an instrumented run against the exact laws:")
model = generate_toy_model(toy_config(), seed=0)
p = default_plain_modulus(512, 26)
ctx = Context(BackendParams(n_slots=512, plain_modulus=p), seed=0)
_, report = generate(model, [5], 16, ctx)
result = validate_against_counts(report)
for check in result["checks"]:
    flag = "ok " if check["passed"] else "FAIL"
    print(f"  [{flag}] {check['name']}: predicted {check['predicted']}, "
          f"measured {check['measured']}")
print("all checks passed:", result["passed"])
