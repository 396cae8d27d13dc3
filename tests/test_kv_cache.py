import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cryptogen.backend import (
    BackendParams,
    Context,
    NoiseCosts,
    ParameterError,
    default_plain_modulus,
)
from cryptogen.encodings import EncodingKind, PackedMatrix, decode, encode, save_matrix
from cryptogen.kv_cache import (
    KVCache,
    append_token,
    cache_stats,
    init_cache,
    load_cache,
    maybe_refresh,
    save_cache,
)
from cryptogen.nonlinear import MpcChannel
from conftest import with_budget


def _ctx(n=16, p=None, **kw):
    p = p or default_plain_modulus(n, 20)
    return Context(BackendParams(n_slots=n, plain_modulus=p, **kw), seed=0)


def _empty(ctx, d2):
    return init_cache(None, None, ctx, d2=d2)


def _tok(ctx, vals):
    return ctx.encrypt(ctx.plains([np.mod(np.asarray(vals), ctx.params.plain_modulus)])[0])


def test_block_capacity_formula():
    ctx = Context(BackendParams(), seed=0)
    assert init_cache(None, None, ctx, d2=64).B == 128
    ctx8 = _ctx(8)
    assert init_cache(None, None, ctx8, d2=2).B == 4


def test_init_cache_refuses_a_prefill_of_no_rows():
    """A cache with no prompt rows has one form, (None, None) with d2 and
    no ciphertext: 0-row prefill K/V are refused before any op."""
    ctx = _ctx(64)
    P = encode(np.zeros((0, 8), dtype=np.int64), EncodingKind.OUTER, ctx)
    before = ctx.counter.snapshot()
    with pytest.raises(ParameterError, match="no rows"):
        init_cache(P, P, ctx)
    assert not any(ctx.counter.delta(before).values())
    assert cache_stats(init_cache(None, None, ctx, d2=8))["ct_count"] == 0


def _malformed(ctx):
    """Forms no cache may take, as KVCache arguments, each with the words
    of its refusal: the prefill pair, then the auto pair."""
    P0, P3, P4, narrow = (
        encode(np.zeros((m, d), dtype=np.int64), EncodingKind.OUTER, ctx) for m, d in ((0, 8), (3, 8), (4, 8), (3, 4))
    )
    auto = _empty(ctx, 8).auto_K
    grown = append_token(_empty(ctx, 8), _tok(ctx, [1] * 8), _tok(ctx, [2] * 8), ctx).auto_K
    inner = encode(np.zeros((3, 8), dtype=np.int64), EncodingKind.INNER, ctx)
    short = PackedMatrix(P3.encoding, P3.parts[:-1])
    return {
        "zero-row prefill": ((P0, P0, auto, auto), "no rows"),
        "K and V of other rows": ((P3, P4, auto, auto), "not one outer packing"),
        "K without V": ((P3, None, auto, auto), "both be present or both absent"),
        "inner prefill": ((inner, inner, auto, auto), "not one outer packing"),
        "prefill of another width": ((narrow, narrow, auto, auto), "one part per column at the cache's width 8"),
        "prefill part missing": ((P3, short, auto, auto), "one part per column"),
        "auto rows without parts": ((None, None, PackedMatrix(grown.encoding, []), grown), "parts each"),
        "auto K and V of other rows": ((None, None, auto, grown), "not one compacted encoding"),
        "outer auto": ((None, None, P3, P3), "not one compacted encoding"),
    }


@pytest.mark.parametrize(
    "form",
    [
        "zero-row prefill",
        "K and V of other rows",
        "K without V",
        "inner prefill",
        "prefill of another width",
        "prefill part missing",
        "auto rows without parts",
        "auto K and V of other rows",
        "outer auto",
    ],
)
def test_kv_cache_refuses_a_malformed_form_at_construction(form):
    """A cache holds its one form whoever builds it: each malformed one is
    refused when it is made, before any op, so no kernel runs over it and
    save_cache never writes a part of it."""
    ctx = _ctx(64)
    args, message = _malformed(ctx)[form]
    before = ctx.counter.snapshot()
    with pytest.raises(ParameterError, match=message):
        KVCache(*args)
    assert not any(ctx.counter.delta(before).values())


def test_first_append_opens_fresh_ciphertext():
    ctx = _ctx()
    cache = _empty(ctx, 4)
    assert cache_stats(cache)["auto_ct_count"] == 0
    cache = append_token(cache, _tok(ctx, [1, 2, 3, 4]), _tok(ctx, [5, 6, 7, 8]), ctx)
    assert cache_stats(cache)["auto_ct_count"] == 1
    assert (ctx.decrypt(cache.auto_K.parts[0])[:4] == [1, 2, 3, 4]).all()


def test_append_position_and_second_ciphertext():
    ctx = _ctx()  # n=16, d2=4 -> B=4
    cache = _empty(ctx, 4)
    for t in range(5):
        cache = append_token(cache, _tok(ctx, [t, t, t, t]), _tok(ctx, [t, 0, 0, 0]), ctx)
    assert cache_stats(cache)["auto_ct_count"] == 2  # ceil(5/4)
    # token 4 (0-based) sits at block 0 of the second ciphertext
    assert (ctx.decrypt(cache.auto_K.parts[1])[:4] == 4).all()
    # token 1 went to slot offset (1 mod 4) * 4 = 4
    assert (ctx.decrypt(cache.auto_K.parts[0])[4:8] == 1).all()


def test_append_op_counts():
    ctx = _ctx()
    cache = _empty(ctx, 4)
    k, v = _tok(ctx, [1, 2, 3, 4]), _tok(ctx, [5, 6, 7, 8])
    start = ctx.counter.snapshot()
    cache = append_token(cache, k, v, ctx)
    d = ctx.counter.delta(start)
    # pos = 0: no rotation; fresh ciphertexts for K and V
    assert (d["mult_plain"], d["add"], d["rotate"], d["encrypt"]) == (2, 2, 0, 2)
    k2, v2 = _tok(ctx, [9, 9, 9, 9]), _tok(ctx, [8, 8, 8, 8])
    start = ctx.counter.snapshot()
    cache = append_token(cache, k2, v2, ctx)
    d = ctx.counter.delta(start)
    # pos != 0: one pre-rotation per segment, no fresh ciphertext
    assert (d["mult_plain"], d["add"], d["rotate"], d["encrypt"]) == (2, 2, 2, 0)


def test_value_transparency_random_interleaving(rng):
    ctx = _ctx()
    ch = MpcChannel(ctx.params.plain_modulus, seed=4)
    d2 = 4
    cache = _empty(ctx, d2)
    rows = []
    for t in range(11):
        kr = rng.integers(0, ctx.params.plain_modulus, d2)
        rows.append(kr)
        cache = append_token(cache, _tok(ctx, kr), _tok(ctx, kr[::-1].copy()), ctx)
        if t % 3 == 2:
            cache = maybe_refresh([(cache, ch)], ctx, force=True)[0]
    K = decode(cache.auto_K, ctx)
    V = decode(cache.auto_V, ctx)
    assert (K == np.stack(rows)).all()
    assert (V == np.stack(rows)[:, ::-1]).all()


@pytest.mark.parametrize("k", [1, 3, 4, 5, 13])
def test_compaction_law(k):
    ctx = _ctx()  # B = 4
    cache = _empty(ctx, 4)
    for t in range(k):
        cache = append_token(cache, _tok(ctx, [t] * 4), _tok(ctx, [t] * 4), ctx)
    stats = cache_stats(cache)
    assert stats["auto_ct_count"] == -(-k // 4)
    assert stats["t_auto"] == k


def test_refresh_noop_when_healthy(refreshes):
    ctx = _ctx()
    ch = MpcChannel(ctx.params.plain_modulus, seed=0)
    cache = _empty(ctx, 4)
    cache = append_token(cache, _tok(ctx, [1, 2, 3, 4]), _tok(ctx, [1, 1, 1, 1]), ctx)
    out = maybe_refresh([(cache, ch)], ctx)[0]
    assert out is cache
    assert ctx.counter.refresh_events == 0 and not refreshes()


def test_refresh_restores_budget_and_values(refreshes):
    ctx = _ctx()
    ch = MpcChannel(ctx.params.plain_modulus, seed=0)
    cache = _empty(ctx, 4)
    cache = append_token(cache, _tok(ctx, [1, 2, 3, 4]), _tok(ctx, [9, 9, 9, 9]), ctx)
    # drain one part to just under the threshold
    weak = with_budget(cache.auto_K.parts[0], 50)
    cache.auto_K.parts[0] = weak
    before_vals = weak.slots.copy()
    before = ctx.counter.snapshot()
    out = maybe_refresh([(cache, ch)], ctx)[0]
    part = out.auto_K.parts[0]
    assert part.noise_budget == ctx.params.initial_noise_budget
    assert (part.slots == before_vals).all()
    delta = ctx.counter.delta(before)
    assert delta["refresh_events"] == 1 and len(refreshes()) == 1
    assert out.auto_V is cache.auto_V  # a segment with no part due is kept
    [ev] = refreshes()
    assert (ev["segment"], ev["part"], ev["id"], ev["t_auto"]) == ("auto_K", 0, weak.id, 1)
    assert not ev["forced"]
    assert ev["budget"] == 50 <= ev["threshold"] == ctx.params.refresh_threshold
    assert ev["bytes"] == 2 * ch.vector_bytes(ctx.params.n_slots)
    assert delta["mpc_bytes"] == ev["bytes"] == ch.bytes_sent
    # untouched parts keep their ids
    assert out.auto_V.parts[0].id == cache.auto_V.parts[0].id


def test_refresh_is_attention_invisible(rng, refreshes):
    from cryptogen.arcc import attention_step
    from cryptogen.fixedpoint import FixedPointParams, fp_encode

    p = default_plain_modulus(64, 26)
    fp = FixedPointParams(8, p)
    ctx = Context(BackendParams(n_slots=64, plain_modulus=p), seed=0)
    ch = MpcChannel(p, seed=0)
    d2 = 4
    cache = _empty(ctx, d2)
    for t in range(5):
        kv = np.mod(fp_encode(rng.uniform(-1, 1, d2), fp), p)
        cache = append_token(cache, _tok(ctx, kv), _tok(ctx, kv), ctx)
    q = _tok(ctx, fp_encode(rng.uniform(-1, 1, d2), fp))
    out1 = ctx.decrypt(attention_step([q], [cache], fp, ctx, [MpcChannel(p, seed=1)])[0])
    before = ctx.counter.refresh_events
    refreshed = maybe_refresh([(cache, ch)], ctx, force=True)[0]
    parts = sum(len(seg.parts) for _, seg in cache.segments())
    assert ctx.counter.refresh_events - before == len(refreshes()) == parts == 2
    assert all(ev["forced"] for ev in refreshes())
    out2 = ctx.decrypt(attention_step([q], [refreshed], fp, ctx, [MpcChannel(p, seed=2)])[0])
    assert (out1 == out2).all()


def test_refresh_masking_is_uniform():
    """Client-visible masked values: chi-square against uniform bins."""
    ctx = _ctx()
    p = ctx.params.plain_modulus
    fixed = _tok(ctx, [3, 1, 4, 1])
    counts = np.zeros(16)
    samples = 0
    for seed in range(64):
        ch = MpcChannel(p, seed=seed)
        cache = _empty(ctx, 4)
        cache = append_token(cache, fixed, fixed, ctx)
        weak = with_budget(cache.auto_K.parts[0], 10)
        cache.auto_K.parts[0] = weak
        decrypts_before = ctx.counter.decrypt
        maybe_refresh([(cache, ch)], ctx)[0]
        assert ctx.counter.decrypt == decrypts_before + 1
        # reproduce the client view: masked = value - r
        r = MpcChannel(p, seed=seed).sample_mask(16)
        masked = (weak.slots - r) % p
        counts += np.bincount((masked * 16 // p).astype(int), minlength=16)[:16]
        samples += 16
    expected = samples / 16
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 60  # df=15; generous bound, deterministic seeds


def test_refresh_count_matches_ledger_simulation(refreshes):
    """Stress costs make budgets cross the threshold; a plain ledger
    simulation predicts exactly which appends trigger refreshes."""
    costs = NoiseCosts(add=15)
    p = default_plain_modulus(16, 20)
    params = BackendParams(
        n_slots=16, plain_modulus=p, noise_costs=costs, initial_noise_budget=100
    )
    ctx = Context(params, seed=0)
    ch = MpcChannel(p, seed=0)
    cache = _empty(ctx, 4)
    B, steps = 4, 14
    observed = []
    for t in range(steps):
        cache = maybe_refresh([(cache, ch)], ctx)[0]
        tok = _tok(ctx, [t] * 4)
        cache = append_token(cache, tok, tok, ctx)
        observed.append(ctx.counter.refresh_events)

    # independent ledger simulation of the same loop
    init, thr = params.initial_noise_budget, params.refresh_threshold
    token_budget = init - costs.mult_plain  # fresh token, mask only (pos 0 case adds rotate)
    budgets = {}
    events = 0
    expected = []
    for t in range(steps):
        for key, b in list(budgets.items()):
            if b <= thr:
                budgets[key] = init  # refreshed (add_plain costs 0)
                events += 1
        pos = t % B
        tb = token_budget - (costs.rotate if pos else 0)
        for seg in ("K", "V"):
            key = (seg, t // B)
            if pos == 0:
                budgets[key] = min(init, tb) - costs.add
            else:
                budgets[key] = min(budgets[key], tb) - costs.add
        expected.append(events)
    assert observed == expected
    assert observed[-1] > 0  # the stress profile does trigger refreshes
    assert len(refreshes()) == observed[-1]
    for ev in refreshes():
        assert ev["budget"] <= thr and not ev["forced"]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    costs=st.builds(
        NoiseCosts, mult_plain=st.integers(0, 20), rotate=st.integers(0, 10), add=st.integers(0, 20)
    ),
    threshold=st.integers(20, 90),
    forces=st.lists(st.booleans(), min_size=1, max_size=12),
)
def test_each_counted_refresh_logs_one_record(caplog, refreshes, costs, threshold, forces):
    """Over stress costs and forced and lazy calls, every refresh the
    counter counts logs exactly one INFO record, for the part that was due,
    and the record says forced exactly when its budget was above the
    threshold."""
    caplog.clear()  # each example reports its own records
    p = default_plain_modulus(16, 20)
    params = BackendParams(
        n_slots=16, plain_modulus=p, noise_costs=costs, initial_noise_budget=100, refresh_threshold=threshold
    )
    ctx = Context(params, seed=0)
    ch = MpcChannel(p, seed=0)
    Kp = encode(np.ones((2, 4), dtype=np.int64), EncodingKind.OUTER, ctx)
    cache = init_cache(Kp, Kp, ctx)
    for t, force in enumerate(forces):
        budgets = {(name, i): part.noise_budget for name, seg in cache.segments() for i, part in enumerate(seg.parts)}
        due = {key for key, b in budgets.items() if force or b <= threshold}
        events, seen = ctx.counter.refresh_events, len(refreshes())
        cache = maybe_refresh([(cache, ch)], ctx, force=force)[0]
        new = refreshes()[seen:]
        assert len(new) == ctx.counter.refresh_events - events == len(due)
        assert {(ev["segment"], ev["part"]) for ev in new} == due
        for ev in new:
            assert ev["budget"] == budgets[(ev["segment"], ev["part"])]
            assert ev["forced"] == (ev["budget"] > threshold) and ev["threshold"] == threshold
            assert ev["t_auto"] == t
        tok = _tok(ctx, [t] * 4)
        cache = append_token(cache, tok, tok, ctx)


def test_stats_monotone_and_prefill_counts(rng):
    ctx = _ctx()
    p = ctx.params.plain_modulus
    Kp = encode(rng.integers(0, p, (3, 4)), EncodingKind.OUTER, ctx)
    Vp = encode(rng.integers(0, p, (3, 4)), EncodingKind.OUTER, ctx)
    cache = init_cache(Kp, Vp, ctx)
    stats = cache_stats(cache)
    assert stats["ct_count"] == len(Kp.parts)
    assert ctx.counter.refresh_events == 0
    prev = stats
    for t in range(6):
        cache = append_token(cache, _tok(ctx, [t] * 4), _tok(ctx, [t] * 4), ctx)
        cur = cache_stats(cache)
        assert cur["t_auto"] == prev["t_auto"] + 1
        assert cur["ct_count"] >= prev["ct_count"]
        prev = cur


def test_cache_checkpoint_roundtrip(tmp_path, rng):
    from cryptogen.arcc import attention_step
    from cryptogen.fixedpoint import FixedPointParams, fp_encode

    p = default_plain_modulus(64, 26)
    fp = FixedPointParams(8, p)
    ctx = Context(BackendParams(n_slots=64, plain_modulus=p), seed=0)
    d2 = 4
    Kp = encode(np.mod(fp_encode(rng.uniform(-1, 1, (2, d2)), fp), p), EncodingKind.OUTER, ctx)
    Vp = encode(np.mod(fp_encode(rng.uniform(-1, 1, (2, d2)), fp), p), EncodingKind.OUTER, ctx)
    cache = init_cache(Kp, Vp, ctx)
    for t in range(3):
        kv = np.mod(fp_encode(rng.uniform(-1, 1, d2), fp), p)
        cache = append_token(cache, _tok(ctx, kv), _tok(ctx, kv), ctx)
    save_cache(cache, tmp_path / "snap", ctx)
    loaded = load_cache(tmp_path / "snap", ctx)
    assert cache_stats(loaded) == cache_stats(cache)
    q = _tok(ctx, fp_encode(rng.uniform(-1, 1, d2), fp))
    a = ctx.decrypt(attention_step([q], [cache], fp, ctx, [MpcChannel(p, seed=5)])[0])
    b = ctx.decrypt(attention_step([q], [loaded], fp, ctx, [MpcChannel(p, seed=6)])[0])
    assert (a == b).all()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.update(B=4), r"field B is 4, expected 8$"),
        (lambda m: m.pop("d2"), None),
        (lambda m: m["segments"].pop("auto_V"), None),
        (lambda m: m["segments"]["auto_K"].pop("rows"), None),
        (lambda m: m["segments"]["auto_K"].update(rows=9, parts=2), None),
        (lambda m: m["segments"]["auto_V"].update(parts=2), None),
        (lambda m: m["segments"]["prefill_K"].update(parts=3), None),
        (lambda m: m["segments"].pop("prefill_V"), None),
        (lambda m: m.update(m=3), None),
        (lambda m: m.update(t_auto=9), None),
        (lambda m: m["segments"]["auto_K"].update(budgets=5), "budgets"),
        (lambda m: m.update(d2="8"), "integers"),
        (lambda m: m["segments"].update(auto_K=5), "auto_K is not a JSON object"),
    ],
    ids=[
        "B", "missing_d2", "missing_segment", "missing_rows", "auto_rows",
        "auto_parts", "prefill_parts", "half_prefill", "m", "t_auto", "budgets_int", "d2_str", "segment_int",
    ],
)
def test_load_cache_rejects_tampered_manifest(tmp_path, edit, message):
    """A snapshot whose bookkeeping disagrees with its layout never loads:
    a wrong B or t_auto would make the next append write at a wrong offset."""
    ctx = Context(BackendParams(n_slots=64, plain_modulus=default_plain_modulus(64, 26)), seed=0)
    d2 = 8
    Kp = encode(np.ones((2, d2), dtype=np.int64), EncodingKind.OUTER, ctx)
    cache = init_cache(Kp, Kp, ctx)
    for _ in range(5):
        cache = append_token(cache, _tok(ctx, range(d2)), _tok(ctx, range(d2)), ctx)
    save_cache(cache, tmp_path, ctx)
    assert cache_stats(load_cache(tmp_path, ctx)) == cache_stats(cache)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    edit(manifest)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ParameterError, match=message):
        load_cache(tmp_path, ctx)


def test_save_cache_counts_no_op_and_refuses_a_dead_part(tmp_path):
    """A snapshot writes each part's slots without decrypting, so saving
    leaves the op counter as it was; a part with no budget left, or one
    under other params, is refused before any file is written."""
    ctx = Context(BackendParams(n_slots=64, plain_modulus=default_plain_modulus(64, 26)), seed=0)
    d2 = 8
    Kp = encode(np.ones((2, d2), dtype=np.int64), EncodingKind.OUTER, ctx)
    cache = init_cache(Kp, Kp, ctx)
    for _ in range(5):
        cache = append_token(cache, _tok(ctx, range(d2)), _tok(ctx, range(d2)), ctx)
    before = ctx.counter.snapshot()
    save_cache(cache, tmp_path / "snap", ctx)
    assert not any(ctx.counter.delta(before).values())
    loaded = load_cache(tmp_path / "snap", ctx)
    for (_, seg), (_, got) in zip(cache.segments(), loaded.segments()):
        assert all((a.slots == b.slots).all() for a, b in zip(got.parts, seg.parts))

    dead = dataclasses.replace(cache.prefill_V, parts=list(cache.prefill_V.parts))
    dead.parts[3] = with_budget(dead.parts[3], 0)
    with pytest.raises(ParameterError, match="prefill_V part 3 "):
        save_cache(dataclasses.replace(cache, prefill_V=dead), tmp_path / "dead", ctx)
    other = Context(BackendParams(n_slots=64, plain_modulus=default_plain_modulus(64, 24)), seed=0)
    with pytest.raises(ParameterError, match="prefill_K part 0 "):
        save_cache(cache, tmp_path / "dead", other)
    assert not (tmp_path / "dead").exists()


def test_load_cache_reads_snapshot_with_slot_period_key(tmp_path):
    """Older snapshots carry ``"slot_period": null`` in every segment's
    metadata; they still load, to the same values and budgets."""
    ctx = Context(BackendParams(n_slots=64, plain_modulus=default_plain_modulus(64, 26)), seed=0)
    d2 = 8
    Kp = encode(np.arange(2 * d2).reshape(2, d2), EncodingKind.OUTER, ctx)
    cache = init_cache(Kp, Kp, ctx)
    for _ in range(3):
        cache = append_token(cache, _tok(ctx, range(d2)), _tok(ctx, range(d2)), ctx)
    save_cache(cache, tmp_path, ctx)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for meta in manifest["segments"].values():
        meta["slot_period"] = None
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    loaded = load_cache(tmp_path, ctx)
    assert cache_stats(loaded) == cache_stats(cache)
    for (_, seg), (_, got) in zip(cache.segments(), loaded.segments()):
        assert got.encoding == seg.encoding
        assert [c.noise_budget for c in got.parts] == [c.noise_budget for c in seg.parts]
        assert all((a.slots == b.slots).all() for a, b in zip(got.parts, seg.parts))


def test_load_cache_reads_a_zero_row_prefill_snapshot_as_no_prefill(tmp_path):
    """Older versions saved an m = 0 cache with two empty prefill segments
    of d2 encrypted zero parts each; such a snapshot loads as the cache
    with no prefill, to the same auto slots and budgets."""
    ctx = _ctx(64)
    d2, n, p = 8, 64, ctx.params.plain_modulus
    cache = _empty(ctx, d2)
    for t in range(3):
        cache = append_token(cache, _tok(ctx, [t] * d2), _tok(ctx, [t] * d2), ctx)
    save_cache(cache, tmp_path, ctx)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["m"] == 0 and set(manifest["segments"]) == {"auto_K", "auto_V"}
    for name in ("prefill_K", "prefill_V"):
        manifest["segments"][name] = {"rows": 0, "parts": d2, "budgets": [ctx.params.initial_noise_budget] * d2}
        for i in range(d2):
            save_matrix(tmp_path / f"{name}_{i}.bin", np.zeros((1, n), dtype=np.int64), p)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    loaded = load_cache(tmp_path, ctx)
    assert loaded.prefill_K is None and loaded.prefill_V is None
    assert cache_stats(loaded) == cache_stats(cache) and cache_stats(loaded)["ct_count"] == 1
    for (_, seg), (_, got) in zip(cache.segments(), loaded.segments(), strict=True):
        assert [c.noise_budget for c in got.parts] == [c.noise_budget for c in seg.parts]
        assert all((a.slots == b.slots).all() for a, b in zip(got.parts, seg.parts))


@pytest.mark.parametrize("budget", [10**9, -5, 7.5], ids=["huge", "negative", "fractional"])
def test_load_cache_rejects_impossible_budgets(tmp_path, budget):
    """A budget outside [1, initial_noise_budget] or not an integer would
    bypass the noise ledger (a huge one is never refreshed) or fail later,
    inside maybe_refresh; it is refused at load."""
    ctx = Context(BackendParams(n_slots=64, plain_modulus=default_plain_modulus(64, 26)), seed=0)
    d2 = 8
    Kp = encode(np.ones((2, d2), dtype=np.int64), EncodingKind.OUTER, ctx)
    cache = init_cache(Kp, Kp, ctx)
    for _ in range(3):
        cache = append_token(cache, _tok(ctx, range(d2)), _tok(ctx, range(d2)), ctx)
    save_cache(cache, tmp_path, ctx)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["segments"]["auto_K"]["budgets"][0] = budget
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ParameterError, match="budgets"):
        load_cache(tmp_path, ctx)


def _snapshot(tmp_path):
    """A context and a cache of a 2-row prefill and 5 tokens at d2=8, n=64,
    saved to tmp_path."""
    ctx = Context(BackendParams(n_slots=64, plain_modulus=default_plain_modulus(64, 26)), seed=0)
    Kp = encode(np.arange(16).reshape(2, 8), EncodingKind.OUTER, ctx)
    cache = init_cache(Kp, Kp, ctx)
    for _ in range(5):
        cache = append_token(cache, _tok(ctx, range(8)), _tok(ctx, range(8)), ctx)
    save_cache(cache, tmp_path, ctx)
    return ctx, cache


PARENT_EVENT = {
    "step": 5, "segment": "auto_K", "part_index": 0, "part_id": 17,
    "budget_before": 50, "mpc_bytes": 1024, "forced": False,
}


@pytest.mark.parametrize(
    "log",
    [[PARENT_EVENT], [], 5, None, [{"step": "x", "mpc_bytes": "lots"}]],
    ids=["events", "empty", "int", "null", "malformed"],
)
def test_load_cache_ignores_a_refresh_log_key(tmp_path, log):
    """Snapshots written before refreshes were logged carry a
    ``refresh_log`` list; well-formed or not, it is ignored, and the
    snapshot loads to the same slots and budgets."""
    ctx, cache = _snapshot(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["refresh_log"] = log
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    loaded = load_cache(tmp_path, ctx)
    assert cache_stats(loaded) == cache_stats(cache)
    for (_, seg), (_, got) in zip(cache.segments(), loaded.segments(), strict=True):
        assert got.encoding == seg.encoding
        assert [c.noise_budget for c in got.parts] == [c.noise_budget for c in seg.parts]
        assert all((a.slots == b.slots).all() for a, b in zip(got.parts, seg.parts))


@pytest.mark.parametrize(
    "tamper",
    [
        lambda slots, p: (slots[None], 12_345),
        lambda slots, p: ((slots + p)[None], p),
        lambda slots, p: (slots[None][:0], p),
        lambda slots, p: (np.stack([slots, slots]), p),
    ],
    ids=["modulus", "word_above_p", "no_rows", "two_rows"],
)
def test_load_cache_rejects_a_tampered_part_file(tmp_path, tamper):
    """A part file under another modulus, with a word outside [0, p), or
    not exactly one row of n words is refused, naming the file, before any
    ciphertext is issued."""
    ctx, cache = _snapshot(tmp_path)
    p = ctx.params.plain_modulus
    file = tmp_path / "auto_V_0.bin"
    save_matrix(file, *tamper(cache.auto_V.parts[0].slots, p))
    probe = ctx.load_ciphertext(np.zeros(64, dtype=np.int64), 1).id
    with pytest.raises(ParameterError, match=r"auto_V_0\.bin: expected one row of 64 words in \[0, "):
        load_cache(tmp_path, ctx)
    assert ctx.load_ciphertext(np.zeros(64, dtype=np.int64), 1).id == probe + 1


@pytest.mark.parametrize(
    "damage", [lambda f: f.unlink(), lambda f: f.unlink() or f.mkdir()], ids=["missing", "directory"]
)
def test_load_cache_refuses_an_unreadable_part_file(tmp_path, damage):
    """A part file that is gone, or is a directory, is refused naming the
    file, like a malformed one, before any ciphertext is issued."""
    ctx, _ = _snapshot(tmp_path)
    damage(tmp_path / "auto_K_0.bin")
    probe = ctx.load_ciphertext(np.zeros(64, dtype=np.int64), 1).id
    with pytest.raises(ParameterError, match=r"auto_K_0\.bin: cannot read the matrix file"):
        load_cache(tmp_path, ctx)
    assert ctx.load_ciphertext(np.zeros(64, dtype=np.int64), 1).id == probe + 1


@pytest.mark.parametrize(
    "damage",
    [lambda f: f.write_text("{not json"), lambda f: f.unlink()],
    ids=["not_json", "missing"],
)
def test_load_cache_refuses_an_unreadable_manifest(tmp_path, damage):
    """A manifest.json that is not JSON, or none at all, raises
    ParameterError naming the snapshot directory before any ciphertext is
    issued."""
    ctx, _ = _snapshot(tmp_path)
    damage(tmp_path / "manifest.json")
    probe = ctx.load_ciphertext(np.zeros(64, dtype=np.int64), 1).id
    with pytest.raises(ParameterError, match=f"^{re.escape(str(tmp_path))}: no readable manifest.json"):
        load_cache(tmp_path, ctx)
    assert ctx.load_ciphertext(np.zeros(64, dtype=np.int64), 1).id == probe + 1
