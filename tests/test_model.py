import copy
import dataclasses
import gc
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptogen.backend import BackendParams, ParameterError, default_plain_modulus, new_context
from cryptogen.model import (
    ModelConfig,
    bolt_reference_generate,
    decode_step,
    generate,
    generate_toy_model,
    load_model,
    oracle_generate,
    prefill,
    save_model,
    toy_config,
)
from cryptogen import model as model_mod
from cryptogen.nonlinear import MpcChannel

P64 = default_plain_modulus(64, 26)
PARAMS_TOY = Path(__file__).resolve().parents[1] / "configs" / "params_toy.json"


def _ctx(seed=0, n=64):
    p = P64 if n == 64 else default_plain_modulus(n, 26)
    return new_context(BackendParams(n_slots=n, plain_modulus=p), seed=seed)


@pytest.fixture(scope="module")
def toy():
    return generate_toy_model(toy_config(), seed=0)


def test_config_validation():
    with pytest.raises(ParameterError):
        ModelConfig(layers=2, d1=30, heads=4, ffn_dim=64, vocab=64, max_seq=32)
    cfg = toy_config()
    assert cfg.d2 == 8 and cfg.d1 == cfg.heads * cfg.d2


def test_model_save_load_byte_identical(tmp_path, toy):
    save_model(toy, tmp_path / "m1")
    again = load_model(tmp_path / "m1")
    for name, mat in toy.weights.items():
        assert (again.weights[name] == mat).all()
    save_model(again, tmp_path / "m2")
    for f1 in sorted((tmp_path / "m1").iterdir()):
        f2 = tmp_path / "m2" / f1.name
        assert f1.read_bytes() == f2.read_bytes()


def test_load_model_schema_errors(tmp_path, toy):
    with pytest.raises(ParameterError):
        load_model(tmp_path / "missing")
    save_model(toy, tmp_path / "m")
    manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
    manifest["weights"].pop("unembed")
    (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ParameterError):
        load_model(tmp_path / "m")
    save_model(toy, tmp_path / "m3")
    (tmp_path / "m3" / "unembed.bin").write_bytes(b"\x00" * 80)
    with pytest.raises(ParameterError):
        load_model(tmp_path / "m3")


def test_oracle_is_deterministic(toy):
    a = oracle_generate(toy, [1, 2, 3], 6, P64)
    b = oracle_generate(toy, [1, 2, 3], 6, P64)
    assert a == b


def test_generate_matches_oracle(toy):
    prompt = [3, 14, 15, 9, 26, 5]
    want = oracle_generate(toy, prompt, 10, P64)
    tokens, report = generate(toy, prompt, 10, _ctx())
    assert tokens == want
    assert len(report["steps"]) == 10
    assert report["totals"]["mult_cipher"] > 0


def test_generate_k0_prefill_only(toy):
    tokens, report = generate(toy, [1, 2, 3, 4], 0, _ctx())
    assert tokens == []
    assert report["steps"] == []
    assert report["prefill"]["counters"]["mult_plain"] > 0


def test_cpmm_inputs_are_zero_padded(toy, monkeypatch):
    """The CPMM stacks input columns side by side, so a nonzero slot from
    ``rows`` on would leak into the next stacked block.  Every input the
    pipeline hands it is zero there: its cyclic-copy outputs always pass
    through the share domain before another CPMM reads them."""
    import cryptogen.model as model_mod

    cpmm = model_mod.cpmm_outer_diagonal
    inputs = []

    def spy(X, W, ctx):
        inputs.append(X)
        return cpmm(X, W, ctx)

    monkeypatch.setattr(model_mod, "cpmm_outer_diagonal", spy)
    for m in (5, 8):
        generate(toy, list(range(1, m + 1)), 1, _ctx())
    assert len(inputs) == 2 * 2 * (3 * 4 + 3)  # runs x layers x (q/k/v per head, wo, w1, w2)
    assert not any(part.slots[X.rows :].any() for X in inputs for part in X.parts)


def test_decode_step_increments_cache(toy):
    ctx = _ctx()
    state = prefill(toy, [5, 6, 7], ctx)
    assert state.caches[0][0].t_auto == 0
    token, state2 = decode_step(toy, state, ctx)
    assert state2.caches[0][0].t_auto == 1
    assert 0 <= token < toy.config.vocab


def test_prefill_counters_scale_with_prompt(toy):
    counts = {}
    for m in (4, 8, 16):
        ctx = _ctx()
        prefill(toy, list(range(m)), ctx)
        counts[m] = ctx.counter.mult_plain
    # close to proportional: doubling the prompt roughly doubles the work
    r1 = counts[8] / counts[4]
    r2 = counts[16] / counts[8]
    assert 1.6 <= r1 <= 2.4 and 1.6 <= r2 <= 2.4


def test_threaded_execution_identical(toy):
    prompt = [9, 8, 7, 6]
    t_serial, rep_serial = generate(toy, prompt, 4, _ctx(), threads=1)
    t_par, rep_par = generate(toy, prompt, 4, _ctx(), threads=4)
    assert t_serial == t_par
    assert rep_serial["totals"] == rep_par["totals"]
    for a, b in zip(rep_serial["steps"], rep_par["steps"]):
        assert a["counters"] == b["counters"]


def test_cpvm_plaintexts_follow_their_model():
    """The CPVM plaintexts a model keeps are its own: two toy models of
    different weight seeds, each built, used and dropped in turn with a
    collection in between, generate the tokens of their own oracle."""
    prompt = [3, 1, 4, 1]
    streams = []
    for seed in (1, 2):
        model = generate_toy_model(toy_config(), seed=seed)
        tokens, _ = generate(model, prompt, 4, _ctx())
        assert tokens == oracle_generate(model, prompt, 4, P64)
        streams.append(tokens)
        del model
        gc.collect()
    assert streams[0] != streams[1]


def test_model_weights_are_read_only(tmp_path, toy):
    save_model(toy, tmp_path)
    for model in (toy, load_model(tmp_path), copy.deepcopy(toy), pickle.loads(pickle.dumps(toy))):
        for name, W in model.weights.items():
            with pytest.raises(ValueError):
                W[(0,) * W.ndim] = 1


def test_decoding_encodes_each_weight_once(monkeypatch):
    """The first decode step encodes the CPVM diagonals of every weight
    (one matrix per head for wq/wk/wv); later steps and runs under the same
    params reuse them, and other params get their own."""
    model = generate_toy_model(toy_config(), seed=0)
    c = model.config
    built = []
    real = model_mod.cpvm_plaintexts
    monkeypatch.setattr(model_mod, "cpvm_plaintexts", lambda W, ctx: built.append(W.shape) or real(W, ctx))
    tokens, _ = generate(model, [5, 6], 3, _ctx())
    assert len(built) == c.layers * (3 * c.heads + 3) + 1
    built.clear()
    assert generate(model, [5, 6], 3, _ctx(seed=1))[0] == tokens
    assert built == []
    params = BackendParams(n_slots=64, plain_modulus=P64, refresh_threshold=59)
    assert generate(model, [5, 6], 3, new_context(params))[0] == tokens
    assert len(built) == c.layers * (3 * c.heads + 3) + 1


def test_generate_mpc_bytes_add_up_across_runs(toy):
    """MPC bytes accumulate in the op counter like every other tally, and
    each counter delta carries its own phase's bytes."""
    ctx = _ctx()
    _, first = generate(toy, [1, 2, 3], 3, ctx)
    _, second = generate(toy, [1, 2, 3], 3, ctx)
    for rep in (first, second):
        assert rep["prefill"]["counters"]["mpc_bytes"] == rep["prefill"]["mpc_bytes"] > 0
        for s in rep["steps"]:
            assert s["counters"]["mpc_bytes"] == s["mpc_bytes"] > 0
    run_bytes = first["prefill"]["mpc_bytes"] + sum(s["mpc_bytes"] for s in first["steps"])
    assert first["totals"]["mpc_bytes"] == run_bytes
    assert second["totals"]["rotate"] == 2 * first["totals"]["rotate"]
    assert second["totals"]["mpc_bytes"] == 2 * run_bytes


def test_default_channels_never_reuse_masks(toy, monkeypatch):
    """Without explicit channels, consecutive calls draw fresh share masks."""
    masks = []
    sample = MpcChannel.sample_mask

    def spy(self, length):
        out = sample(self, length)
        masks.append(out.tobytes())
        return out

    monkeypatch.setattr(MpcChannel, "sample_mask", spy)
    ctx = _ctx()
    state = prefill(toy, [1, 2, 3], ctx)
    per_step = []
    for _ in range(2):
        masks.clear()
        _, state = decode_step(toy, state, ctx)
        per_step.append(list(masks))
    assert len(per_step[0]) == len(per_step[1]) > 0
    assert not set(per_step[0]) & set(per_step[1])


def test_generate_calls_keep_the_replay_conventions(toy, monkeypatch):
    """generate calls prefill and decode_step with the model plus exactly
    four positional arguments (input, context, channels, threads) and no
    keywords, and leaves each channel with its own empty ``transcript``
    list: replaying a call from its pickled arguments relies on both."""
    calls = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            calls.append((fn.__name__, args, kwargs))
            return fn(*args, **kwargs)

        return wrapped

    for name in ("prefill", "decode_step"):
        monkeypatch.setattr(model_mod, name, spy(getattr(model_mod, name)))
    ctx = _ctx()
    generate(toy, [1, 2, 3], 2, ctx)
    assert [name for name, _, _ in calls] == ["prefill", "decode_step", "decode_step"]
    chans = calls[0][1][3]
    for _, args, kwargs in calls:
        assert len(args) == 5 and kwargs == {}
        assert args[0] is toy and args[2] is ctx and args[3] is chans and args[4] == 1
    transcripts = [ch.transcript for ch in chans.values()]
    assert all(type(t) is list and not t for t in transcripts)
    assert len({id(t) for t in transcripts}) == len(transcripts)


def _explicit_channels(config, p):
    chans = {(l, h): MpcChannel(p, l * config.heads + h) for l in range(config.layers) for h in range(config.heads)}
    chans["common"] = MpcChannel(p, config.layers * config.heads)
    return chans


def test_direct_calls_charge_their_mpc_bytes(toy):
    """A prefill or decode step called on its own charges the bytes its
    channels moved; on the golden prompt (test_golden_counts) these are the
    prefill's and first step's pinned figures."""
    params = BackendParams.from_json(PARAMS_TOY.read_text())
    ctx = new_context(params, seed=0)
    chans = _explicit_channels(toy.config, params.plain_modulus)
    charged = []
    for call in (
        lambda: prefill(toy, [3, 14, 15, 9, 26], ctx, chans),
        lambda: decode_step(toy, state, ctx, chans)[1],
    ):
        before, sent = ctx.counter.snapshot(), sum(ch.bytes_sent for ch in chans.values())
        state = call()
        moved = sum(ch.bytes_sent for ch in chans.values()) - sent
        assert ctx.counter.delta(before)["mpc_bytes"] == moved
        charged.append(moved)
    assert charged == [326_136, 29_416]


def test_channels_over_another_modulus_rejected_before_any_op(toy):
    """Channels built for another plaintext modulus would share and
    reconstruct in the wrong ring; prefill and decode_step name the
    offending channel and spend nothing."""
    params = BackendParams.from_json(PARAMS_TOY.read_text())
    p = params.plain_modulus
    other = default_plain_modulus(64, 27)
    ctx = new_context(params, seed=0)
    bad = {**_explicit_channels(toy.config, p), "common": MpcChannel(other, 0)}
    with pytest.raises(ParameterError, match="'common'"):
        prefill(toy, [1, 2, 3], ctx, bad)
    assert not any(ctx.counter.as_dict().values())

    state = prefill(toy, [1, 2, 3], ctx, _explicit_channels(toy.config, p))
    before = ctx.counter.snapshot()
    bad = {**_explicit_channels(toy.config, p), (1, 2): MpcChannel(other, 0)}
    with pytest.raises(ParameterError, match="\\(1, 2\\)"):
        decode_step(toy, state, ctx, bad)
    assert not any(ctx.counter.delta(before).values())


@settings(max_examples=12, deadline=None)
@given(
    layers=st.integers(1, 2),
    heads=st.integers(1, 2),
    d1=st.sampled_from([4, 8]),
    m=st.integers(1, 6),
    k=st.integers(0, 4),
    threshold=st.sampled_from([60, 170]),
)
def test_every_call_charges_exactly_its_transfers(layers, heads, d1, m, k, threshold):
    """Driven call by call, each prefill and decode step's counter delta
    carries exactly the bytes its channel transfers returned, and a thread
    pool over the heads charges the same counters as serial execution."""
    config = ModelConfig(layers=layers, d1=d1, heads=heads, ffn_dim=8, vocab=16, max_seq=12)
    model = generate_toy_model(config, seed=0)
    params = BackendParams.from_json(PARAMS_TOY.read_text())
    params = dataclasses.replace(params, refresh_threshold=threshold)
    prompt = [(5 * i + 3) % config.vocab for i in range(m)]
    moved = []
    transfer = MpcChannel.transfer

    def spy(ch, *args, **kwargs):
        nbytes = transfer(ch, *args, **kwargs)
        moved.append(nbytes)
        return nbytes

    def run(threads):
        ctx = new_context(params, seed=0)
        calls = [lambda: (None, prefill(model, prompt, ctx, None, threads))]
        calls += [lambda: decode_step(model, state, ctx, None, threads)] * k
        tokens, counters = [], []
        for call in calls:
            moved.clear()
            before = ctx.counter.snapshot()
            token, state = call()
            delta = ctx.counter.delta(before)
            assert delta["mpc_bytes"] == sum(moved) > 0
            tokens.append(token)
            counters.append(delta)
        return tokens, counters

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MpcChannel, "transfer", spy)
        assert run(1) == run(2)


def test_bolt_reference_same_tokens_more_work(toy):
    prompt = [2, 4]
    ctx_a = _ctx()
    tokens, report = generate(toy, prompt, 4, ctx_a)
    ctx_b = _ctx()
    btok, breport = bolt_reference_generate(toy, prompt, 4, ctx_b)
    assert btok == tokens
    cg = [s["counters"]["mult_cipher"] for s in report["steps"]]
    bolt = [s["counters"]["mult_cipher"] for s in breport["steps"]]
    # stateless recompute grows per step; the cached path stays flat here
    assert bolt[-1] > bolt[0]
    assert cg[-1] == cg[0]


def test_bolt_reference_charges_mpc_bytes(toy):
    """Each stateless step charges its prefill pass's share traffic."""
    _, report = generate(toy, [1, 2, 3], 0, _ctx())
    _, bolt = bolt_reference_generate(toy, [1, 2, 3], 2, _ctx())
    per_step = [s["counters"]["mpc_bytes"] for s in bolt["steps"]]
    assert per_step[0] == report["prefill"]["mpc_bytes"] > 0
    assert per_step[1] > per_step[0]
    assert bolt["totals"]["mpc_bytes"] == sum(per_step)


def test_bolt_reference_rejects_overlong_runs_before_any_op():
    """Like generate, the stateless baseline rejects prompt + k > max_seq
    up front instead of dying mid-generation."""
    cfg = ModelConfig(layers=1, d1=8, heads=2, ffn_dim=8, vocab=16, max_seq=6)
    model = generate_toy_model(cfg, seed=0)
    for k in (4, 6):
        ctx = _ctx()
        with pytest.raises(ParameterError, match="prompt \\+ generation exceeds max_seq"):
            bolt_reference_generate(model, [1, 2, 3], k, ctx)
        assert not any(ctx.counter.as_dict().values())
    tokens, _ = generate(model, [1, 2, 3], 3, _ctx())
    assert bolt_reference_generate(model, [1, 2, 3], 3, _ctx())[0] == tokens


def test_generation_bounds(toy):
    with pytest.raises(ParameterError):
        generate(toy, list(range(200)), 1, _ctx())
    with pytest.raises(ParameterError):
        oracle_generate(toy, [1], 1000, P64)
    # a negative token count is rejected before any op, not run as k = 0
    for run in (generate, bolt_reference_generate):
        ctx = _ctx()
        with pytest.raises(ParameterError):
            run(toy, [1, 2], -1, ctx)
        assert not any(ctx.counter.as_dict().values())
    with pytest.raises(ParameterError):
        oracle_generate(toy, [1, 2], -1, P64)


def test_fixed_point_headroom_rejected_before_any_op():
    """A scale that leaves no product headroom under the modulus
    (2^(2f+6) >= p) is rejected before the prompt is encrypted."""
    model = generate_toy_model(ModelConfig(**{**toy_config().as_dict(), "f": 11}), seed=0)
    runs = {
        "generate": lambda ctx: generate(model, [1, 2], 1, ctx),
        "bolt_reference_generate": lambda ctx: bolt_reference_generate(model, [1, 2], 1, ctx),
        "prefill": lambda ctx: prefill(model, [1, 2], ctx),
    }
    for name, run in runs.items():
        ctx = _ctx()
        with pytest.raises(ParameterError, match="headroom"):
            run(ctx)
        assert not any(ctx.counter.as_dict().values()), name


def _float_reference_logits(model, prompt):
    """Same pipeline in float64 (same polynomial GELU, real softmax):
    differences from the integer oracle come from quantization alone."""
    from cryptogen.fixedpoint import GELU_CLIP, _G_C1, _G_C2, _G_C3, _G_C4

    c = model.config
    s = float(1 << c.f)
    w = {k: v / s for k, v in model.weights.items()}

    def gelu(x):
        ax = np.minimum(np.abs(x), GELU_CLIP)
        g = _G_C4 * ax**4 + _G_C3 * ax**3 + _G_C2 * ax**2 + _G_C1 * ax
        inner = np.where(x >= 0, g, x + g)
        return np.where(np.abs(x) > GELU_CLIP, np.maximum(x, 0.0), inner)

    def ln(x, g, b):
        return g * (x - x.mean()) / np.sqrt(x.var()) + b

    X = np.stack([w["tok_emb"][t] + w["pos_emb"][i] for i, t in enumerate(prompt)])
    m = len(prompt)
    for l in range(c.layers):
        pre = f"layer{l}."
        heads = []
        for h in range(c.heads):
            sl = slice(h * c.d2, (h + 1) * c.d2)
            Q, K, V = (X @ w[pre + nm][:, sl] for nm in ("wq", "wk", "wv"))
            S = Q @ K.T / np.sqrt(c.d2)
            S += np.triu(np.full((m, m), -64.0), 1)
            A = np.exp(S - S.max(axis=1, keepdims=True))
            A /= A.sum(axis=1, keepdims=True)
            heads.append(A @ V)
        attn = np.concatenate(heads, axis=1) @ w[pre + "wo"]
        X = np.stack([ln(X[i] + attn[i], w[pre + "ln1_g"], w[pre + "ln1_b"]) for i in range(m)])
        H = gelu(X @ w[pre + "w1"] + w[pre + "b1"])
        X = np.stack(
            [ln(X[i] + (H @ w[pre + "w2"])[i] + w[pre + "b2"], w[pre + "ln2_g"], w[pre + "ln2_b"]) for i in range(m)]
        )
    return X[-1] @ w["unembed"]


def test_oracle_drift_vs_float_reference(toy):
    """The integer oracle tracks a float reference of the same pipeline;
    the gap is quantization-sized, measured and bounded here."""
    from cryptogen.fixedpoint import FixedPointParams, fp_truncate
    from cryptogen.model import _embed, _modmul, _oracle_block, _OracleCache

    prompt = [3, 14, 15, 9, 26, 5, 35, 41]
    cfg = toy.config
    caches = [[_OracleCache() for _ in range(cfg.heads)] for _ in range(cfg.layers)]
    fp = FixedPointParams(cfg.f, P64)
    X = np.stack([_embed(toy, t, i) for i, t in enumerate(prompt)])
    for l in range(cfg.layers):
        X = _oracle_block(toy, l, X, fp, P64, caches, causal_rows=True)
    logits_int = fp_truncate(_modmul(X[-1:], toy.weights["unembed"], P64)[0], fp.f)

    ref = _float_reference_logits(toy, prompt)
    drift = float(np.max(np.abs(logits_int / (1 << cfg.f) - ref)))
    print(f"max logit drift vs float reference: {drift:.4f}")
    assert drift < 0.5  # quantization-scale, not structural, divergence
    assert int(np.argmax(logits_int)) == int(np.argmax(ref))
