"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured values (visible via -rA or on failure).

Every tolerance is pinned here, not deferred: token streams and counter
laws are exact; growth orders carry the stated regression bands; the
nonlinear approximations carry their stated error budgets.
"""

import math
import time

import numpy as np
import pytest

from cryptogen.arcc import arcc_inner_inner, arcc_inner_outer
from cryptogen.backend import (
    BackendParams,
    Context,
    DecryptionFailure,
    NoiseCosts,
    default_plain_modulus,
)
from cryptogen.costmodel import predict_costs, reported_only
from cryptogen.encodings import EncodingKind, decode, encode
from cryptogen.fixedpoint import FixedPointParams, fp_encode, fp_gelu, fp_softmax, fp_decode
from cryptogen.kv_cache import append_token, cache_stats, init_cache, maybe_refresh
from cryptogen.linear_kernels import cpmm_outer_diagonal, cpvm_inner_diagonal, cpvm_plaintexts
from cryptogen.model import (
    ModelConfig,
    bolt_reference_generate,
    decode_step,
    generate,
    generate_toy_model,
    oracle_generate,
    prefill,
    toy_config,
)
from cryptogen.nonlinear import MpcChannel
from growth_fits import loglog_exponent, quadratic_coefficient

P64 = default_plain_modulus(64, 26)
HE_COUNTERS = ("mult_plain", "mult_cipher", "rotate", "add", "add_plain", "encrypt", "decrypt")


def _row(x, ctx):
    """One integer row, encrypted into slots 0..len(x)-1 (inner layout)."""
    return ctx.encrypt(ctx.plains([x])[0])


def _announce(n, detail):
    print(f"ACCEPTANCE {n}: PASS ({detail})")


def test_criterion_1_oracle_token_exactness():
    """Toy model, prompt 8, k=16: encrypted tokens == oracle, 20 seeds."""
    t0 = time.time()
    cfg = toy_config()
    for seed in range(20):
        model = generate_toy_model(cfg, seed=seed)
        prompt = [int(t) for t in np.random.default_rng(1000 + seed).integers(0, cfg.vocab, 8)]
        ctx = Context(BackendParams(n_slots=64, plain_modulus=P64), seed=seed)
        tokens, _ = generate(model, prompt, 16, ctx, seed=seed)
        want = oracle_generate(model, prompt, 16, P64)
        assert tokens == want, f"seed {seed}: {tokens} != {want}"
    elapsed = time.time() - t0
    assert elapsed < 60
    _announce(1, f"20 seeds token-exact in {elapsed:.1f}s")


def test_criterion_2_kernel_oracle_equivalence():
    """CPMM, CPVM, inner-inner, inner-outer: 200 random instances each."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    ctx = Context(BackendParams(n_slots=64, plain_modulus=P64), seed=0)
    p = P64
    for _ in range(200):
        m, d1, d2 = (int(v) for v in rng.integers(1, 17, 3))
        X = rng.integers(0, p, (m, d1))
        W = rng.integers(0, p, (d1, d2))
        Y = cpmm_outer_diagonal(encode(X, EncodingKind.OUTER, ctx), W, ctx)
        assert (decode(Y, ctx) == (X @ W) % p).all()

        x = rng.integers(0, p, d1)
        y = ctx.decrypt(cpvm_inner_diagonal(_row(x, ctx), cpvm_plaintexts(W, ctx), ctx))[:d2]
        assert (y == (x @ W) % p).all()

        R, L = (int(v) for v in rng.integers(1, 17, 2))
        q = rng.integers(0, p, L)
        K = rng.integers(0, p, (R, L))
        scores = arcc_inner_inner(_row(q, ctx), encode(K, EncodingKind.OUTER, ctx), ctx)
        assert (ctx.decrypt(scores)[:R] == (K @ q) % p).all()

        d = int(2 ** rng.integers(0, 5))
        R2 = int(rng.integers(1, 17))
        M = rng.integers(0, p, (R2, d))
        v = rng.integers(0, p, d)
        parts = arcc_inner_outer(_row(v, ctx), encode(M, EncodingKind.INNER_COMPACTED, ctx), ctx)
        # row r's score at slot r*d of the parts laid end to end, as attention_step reads it
        scores = np.concatenate([ctx.decrypt(part) for part in parts])[: R2 * d : d]
        assert (scores == (M @ v) % p).all()
    elapsed = time.time() - t0
    assert elapsed < 30
    _announce(2, f"4 kernels x 200 instances exact in {elapsed:.1f}s")


def test_criterion_3_table1_formula_cells():
    """Formula-backed complexity cells reproduce; the instrumented CPMM
    does exactly 768 plaintext multiplications per projection."""
    t0 = time.time()
    gazelle = predict_costs("Gazelle", "prefill").mult
    assert gazelle.formula_value == 98304 and gazelle.reproduced
    for method in ("IRON", "BOLT", "CryptoGen"):
        cell = predict_costs(method, "prefill").mult
        assert cell.formula_value == 768 and cell.reproduced, method
    ct = predict_costs("CryptoGen", "prefill").ct
    assert ct.formula_value == 12 and ct.reproduced

    flagged = {(f["method"], f["stage"], f["metric"]) for f in reported_only()}
    for method in ("Gazelle", "IRON", "BOLT", "THOR", "CryptoGen"):
        for stage in ("prefill", "gen", "total"):
            triple = predict_costs(method, stage)
            for metric in ("mult", "rot", "ct"):
                cell = getattr(triple, metric)
                if cell.reproduced is False:
                    assert (method, stage, metric) in flagged

    ctx = Context(BackendParams(), seed=0)  # n=8192, p ~ 2^29
    rng = np.random.default_rng(0)
    W = rng.integers(0, 100, (768, 64))
    measured = {}
    for m in (32, 64, 128):
        X = encode(rng.integers(0, 100, (m, 768)), EncodingKind.OUTER, ctx)
        start = ctx.counter.snapshot()
        cpmm_outer_diagonal(X, W, ctx)
        measured[m] = ctx.counter.delta(start)["mult_plain"]
        assert measured[m] == m * 768 * 64 // 8192, measured
    assert measured[128] == 768
    elapsed = time.time() - t0
    assert elapsed < 300
    _announce(
        3,
        f"formula cells exact, instrumented CPMM mult_plain={measured[128]} "
        f"(slope {measured[32]}/{measured[64]}/{measured[128]} over m=32/64/128) in {elapsed:.1f}s",
    )


def test_criterion_4_linear_vs_quadratic_scaling():
    """Cumulative CTxCT over k in {8,16,32,64}: cached decode fits exponent
    1.0 +- 0.1; the stateless recompute reference fits 2.0 +- 0.2."""
    t0 = time.time()
    model = generate_toy_model(toy_config(), seed=0)
    p512 = default_plain_modulus(512, 26)
    params = BackendParams(n_slots=512, plain_modulus=p512)
    prompt = [5]
    ks = [8, 16, 32, 64]

    ctx = Context(params, seed=0)
    _, report = generate(model, prompt, 64, ctx)
    cum = np.cumsum([s["counters"]["mult_cipher"] for s in report["steps"]])
    cg_exp = loglog_exponent(ks, [int(cum[k - 1]) for k in ks])
    assert abs(cg_exp - 1.0) <= 0.1, cg_exp
    c2 = quadratic_coefficient(np.arange(1, 65), cum)
    assert abs(c2) < 1e-6, c2

    ctx = Context(params, seed=0)
    btok, breport = bolt_reference_generate(model, prompt, 64, ctx)
    bcum = np.cumsum([s["counters"]["mult_cipher"] for s in breport["steps"]])
    bolt_exp = loglog_exponent(ks, [int(bcum[k - 1]) for k in ks])
    assert abs(bolt_exp - 2.0) <= 0.2, bolt_exp
    elapsed = time.time() - t0
    assert elapsed < 600
    _announce(4, f"exponents: cached {cg_exp:.3f}, stateless {bolt_exp:.3f} in {elapsed:.0f}s")


def test_criterion_5_decode_cost_prefix_independence():
    """Per-step decode HE counters are identical across prefill lengths."""
    t0 = time.time()
    model = generate_toy_model(toy_config(), seed=0)
    per_m = {}
    for m in (16, 32, 64):
        ctx = Context(BackendParams(n_slots=64, plain_modulus=P64), seed=0)
        prompt = [int(t) for t in np.random.default_rng(m).integers(0, 64, m)]
        _, report = generate(model, prompt, 6, ctx)
        per_m[m] = [{k: s["counters"][k] for k in HE_COUNTERS} for s in report["steps"]]
    assert per_m[16] == per_m[32] == per_m[64]
    elapsed = time.time() - t0
    assert elapsed < 120
    _announce(5, f"exact HE-counter equality across m=16/32/64 in {elapsed:.1f}s")


@pytest.mark.parametrize(
    "n_slots,d2,min_bits",
    [(8192, 64, 29), (64, 8, 26)],
    ids=["n8192_d64", "n64_d8"],
)
def test_criterion_6_cache_compaction_law(n_slots, d2, min_bits):
    """Auto-segment ciphertext count is exactly ceil(k/B)."""
    t0 = time.time()
    p = default_plain_modulus(n_slots, min_bits)
    ctx = Context(BackendParams(n_slots=n_slots, plain_modulus=p), seed=0)
    B = n_slots // d2
    cache = init_cache(None, None, ctx, d2=d2)
    assert cache.B == B
    targets = sorted({1, B - 1, B, B + 1, 2 * B + 5})
    k = 0
    for target in targets:
        while k < target:
            tok = _row(np.full(d2, (k % 97) + 1), ctx)
            cache = append_token(cache, tok, tok, ctx)
            k += 1
        stats = cache_stats(cache)
        assert stats["auto_ct_count"] == -(-target // B), (target, stats)
    elapsed = time.time() - t0
    assert elapsed < 120
    _announce(6, f"ceil(k/B) exact at n={n_slots}, B={B}, k up to {targets[-1]} in {elapsed:.1f}s")


def test_criterion_7_refresh_liveness_and_transparency(refreshes):
    """512 decode steps never hit a dead ciphertext; forced refreshes change
    nothing; under stress costs, refreshes fire exactly at crossings."""
    t0 = time.time()
    cfg = ModelConfig(layers=1, d1=8, heads=2, ffn_dim=8, vocab=16, max_seq=530, f=6)
    model = generate_toy_model(cfg, seed=0)
    p = default_plain_modulus(64, 22)
    params = BackendParams(n_slots=64, plain_modulus=p)

    ctx = Context(params, seed=0)
    try:
        tokens, report = generate(model, [1, 2, 3], 512, ctx)
    except DecryptionFailure as e:  # pragma: no cover - would fail the criterion
        pytest.fail(f"decryption failed during 512-step generation: {e}")
    assert len(tokens) == 512
    assert sum(s["refresh_events"] for s in report["steps"]) == 0  # healthy budgets stay lazy

    # forced mid-run refresh leaves the remaining stream unchanged
    ctx_a = Context(params, seed=1)
    state_a = prefill(model, [1, 2, 3], ctx_a)
    plain_run = []
    for _ in range(24):
        tok, state_a = decode_step(model, state_a, ctx_a)
        plain_run.append(tok)
    ctx_b = Context(params, seed=1)
    state_b = prefill(model, [1, 2, 3], ctx_b)
    events_before = ctx_b.counter.refresh_events
    forced_run = []
    ch = MpcChannel(p, seed=99)
    for step in range(24):
        if step == 12:
            state_b.caches = [
                [maybe_refresh([(c, ch)], ctx_b, force=True)[0] for c in row]
                for row in state_b.caches
            ]
        tok, state_b = decode_step(model, state_b, ctx_b)
        forced_run.append(tok)
    assert forced_run == plain_run
    refreshed_parts = ctx_b.counter.refresh_events - events_before
    assert refreshed_parts > 0 and len(refreshes()) == refreshed_parts

    # stress ledger: refreshes fire exactly when budgets cross the threshold
    stress = BackendParams(
        n_slots=16,
        plain_modulus=default_plain_modulus(16, 20),
        noise_costs=NoiseCosts(add=15),
        initial_noise_budget=100,
    )
    sctx = Context(stress, seed=0)
    sch = MpcChannel(stress.plain_modulus, seed=0)
    cache = init_cache(None, None, sctx, d2=4)
    observed = []
    for t in range(16):
        cache = maybe_refresh([(cache, sch)], sctx)[0]
        tok = _row(np.full(4, t + 1), sctx)
        cache = append_token(cache, tok, tok, sctx)
        observed.append(sctx.counter.refresh_events)
    init, thr, costs, B = (
        stress.initial_noise_budget,
        stress.refresh_threshold,
        stress.noise_costs,
        4,
    )
    budgets, events, expected = {}, 0, []
    for t in range(16):
        for key, b in list(budgets.items()):
            if b <= thr:
                budgets[key] = init
                events += 1
        pos = t % B
        token_budget = init - costs.mult_plain - (costs.rotate if pos else 0)
        for seg in ("K", "V"):
            key = (seg, t // B)
            base = init if pos == 0 else budgets[key]
            budgets[key] = min(base, token_budget) - costs.add
        expected.append(events)
    assert observed == expected and observed[-1] > 0
    stress_events = refreshes()[refreshed_parts:]
    assert len(stress_events) == observed[-1]
    for ev in stress_events:
        assert ev["budget"] <= thr

    elapsed = time.time() - t0
    assert elapsed < 300
    _announce(7, f"512 live steps, transparent forced refresh, ledger-exact stress events in {elapsed:.0f}s")


def test_criterion_8_nonlinear_approximation_quality():
    """GELU: <= 1e-2 on a 1e5 grid, exact passthrough outside; softmax sums
    to one within L*2^-f and matches reference argmax on 1000 vectors."""
    t0 = time.time()
    fp = FixedPointParams(11, default_plain_modulus(8192, 29))

    xs = np.linspace(-3.2, 3.2, 100_000)
    got = fp_decode(fp_gelu(fp_encode(xs, fp), fp), fp)
    ref = xs * 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2)) for v in xs]))
    gelu_err = float(np.max(np.abs(got - ref)))
    assert gelu_err <= 1e-2, gelu_err
    outside = np.array([3.25, 5.0, 100.0, -3.25, -5.0, -100.0])
    out = fp_decode(fp_gelu(fp_encode(outside, fp), fp), fp)
    assert (out == [3.25, 5.0, 100.0, 0.0, 0.0, 0.0]).all()

    rng = np.random.default_rng(8)
    argmax_gap = 2.0 ** -(fp.f - 4)
    checked = 0
    for _ in range(1000):
        L = int(rng.integers(2, 65))
        s = rng.uniform(-10.0, 10.0, L)
        top2 = np.sort(s)[-2:]
        if top2[1] - top2[0] <= argmax_gap:
            s[np.argmax(s)] += 2 * argmax_gap
        out = fp_softmax(fp_encode(s, fp), fp)
        assert (out >= 0).all()
        assert abs(int(out.sum()) - fp.scale) <= L
        assert int(np.argmax(out)) == int(np.argmax(s))
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    _announce(
        8, f"GELU max err {gelu_err:.4f}, softmax sum/argmax on {checked} vectors in {elapsed:.1f}s"
    )
