import copy
import dataclasses
import gc
import importlib.util
import json
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from cryptogen.backend import BackendParams, Context, ParameterError, default_plain_modulus
from cryptogen.encodings import save_matrix
from cryptogen.model import (
    ModelConfig,
    bolt_reference_generate,
    decode_step,
    generate,
    generate_toy_model,
    load_model,
    oracle_generate,
    plan,
    prefill,
    save_model,
    toy_config,
)
from cryptogen import model as model_mod
from cryptogen.nonlinear import MpcChannel
from conftest import src_env

P64 = default_plain_modulus(64, 26)
ROOT = Path(__file__).resolve().parents[1]
PARAMS_TOY = ROOT / "configs" / "params_toy.json"


def _ctx(seed=0, n=64):
    p = P64 if n == 64 else default_plain_modulus(n, 26)
    return Context(BackendParams(n_slots=n, plain_modulus=p), seed=seed)


@pytest.fixture(scope="module")
def toy():
    return generate_toy_model(toy_config(), seed=0)


def test_config_validation():
    with pytest.raises(ParameterError):
        ModelConfig(layers=2, d1=30, heads=4, ffn_dim=64, vocab=64, max_seq=32)
    cfg = toy_config()
    assert cfg.d2 == 8 and cfg.d1 == cfg.heads * cfg.d2


def test_config_rejects_a_single_feature():
    """d1 = 1 leaves LayerNorm one value to normalize; it is refused in the
    config, where the oracle could not run it either."""
    with pytest.raises(ParameterError, match="LayerNorm"):
        ModelConfig(layers=1, d1=1, heads=1, ffn_dim=8, vocab=16, max_seq=8)
    ModelConfig(layers=1, d1=2, heads=1, ffn_dim=8, vocab=16, max_seq=8)


@pytest.mark.parametrize("f", [0, -1])
def test_config_rejects_nonpositive_f(f):
    """f = 0 leaves no fraction bits and f < 0 a negative shift: both are
    refused with the dimensions, before a weight is drawn."""
    with pytest.raises(ParameterError, match="f must be positive"):
        ModelConfig(layers=1, d1=8, heads=2, ffn_dim=8, vocab=8, max_seq=8, f=f)


def test_load_model_names_a_weight_file_of_the_wrong_size(tmp_path, toy):
    save_model(toy, tmp_path / "m")
    save_matrix(tmp_path / "m" / "tok_emb.bin", np.ones((1, 16), dtype=np.int64), p=0)
    with pytest.raises(ParameterError, match=r"tok_emb\.bin: 16 words do not fill tok_emb's shape \(64, 32\)"):
        load_model(tmp_path / "m")


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
    (tmp_path / "m3" / "unembed.bin").unlink()
    with pytest.raises(ParameterError, match=r"unembed\.bin: cannot read the matrix file"):
        load_model(tmp_path / "m3")
    # a weight rewritten as residues under a modulus would load as weights up to p - 1
    save_model(toy, tmp_path / "m4")
    p = 67_109_633
    save_matrix(tmp_path / "m4" / "layer0_wq.bin", np.mod(toy.weights["layer0.wq"], p), p=p)
    with pytest.raises(ParameterError, match=r"layer0_wq\.bin: header modulus 67109633, not the p = 0"):
        load_model(tmp_path / "m4")


@pytest.mark.parametrize("outside", ["../b/unembed.bin", "absolute"])
def test_load_model_reads_only_files_in_its_directory(tmp_path, toy, outside, monkeypatch):
    """A weight file named by a path, relative past the model directory or
    absolute, is refused naming the weight, before any weight file is read."""
    save_model(toy, tmp_path / "a")
    save_model(toy, tmp_path / "b")
    file = str(tmp_path / "b" / "unembed.bin") if outside == "absolute" else outside
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    manifest["weights"]["unembed"]["file"] = file
    (tmp_path / "a" / "manifest.json").write_text(json.dumps(manifest))
    read = []
    monkeypatch.setattr(model_mod, "load_matrix", lambda path: read.append(path))
    with pytest.raises(ParameterError, match=re.escape(f'field weights.unembed.file is "{file}", expected "unembed.bin"')):
        load_model(tmp_path / "a")
    assert not read


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda w: w.pop("unembed"), r"weight 'unembed': shape absent, config spec \(32, 64\)"),
        (
            lambda w: w.update({"layer0.wq": np.zeros((3, 3), dtype=np.int64)}),
            r"weight 'layer0.wq': shape \(3, 3\), config spec \(32, 32\)",
        ),
        (
            lambda w: w.update({"layer2.wq": np.zeros((32, 32), dtype=np.int64)}),
            r"weight 'layer2.wq': shape \(32, 32\), config spec absent",
        ),
    ],
    ids=["missing", "misshapen", "unnamed"],
)
def test_model_refuses_weights_its_config_does_not_give(tmp_path, toy, edit, message):
    """A model's weights are its config's names and shapes, checked when it
    is made, so save_model never writes a directory load_model refuses."""
    weights = dict(toy.weights)
    edit(weights)
    with pytest.raises(ParameterError, match=message):
        save_model(model_mod.Model(toy.config, weights), tmp_path / "m")
    assert not (tmp_path / "m").exists()


def _oracle_blocks(model, prompt, cuts):
    """The prompt fed through the oracle's layers in the blocks that the cut
    points make; returns the per-head (K, V) caches and the last row's logits."""
    from cryptogen.fixedpoint import FixedPointParams, fp_truncate
    from cryptogen.model import _embed, _modmul, _oracle_block

    c = model.config
    fp = FixedPointParams(c.f, P64)
    caches = [[([], []) for _ in range(c.heads)] for _ in range(c.layers)]
    for a, b in zip([0, *cuts], [*cuts, len(prompt)]):
        X = np.stack([_embed(model, t, i) for i, t in enumerate(prompt[a:b], a)])
        for l in range(c.layers):
            X = _oracle_block(model, l, X, fp, P64, caches)
    return caches, fp_truncate(_modmul(X[-1:], model.weights["unembed"], P64)[0], fp.f)


@settings(max_examples=100, deadline=None)
@given(
    prompt=st.lists(st.integers(0, 63), min_size=1, max_size=20),
    cut=st.one_of(st.just(True), st.lists(st.booleans(), min_size=19, max_size=19)),
)
def test_oracle_layer_takes_a_block_at_any_position(toy, prompt, cut):
    """Any split of a prompt into blocks, token by token included, leaves
    the one-block run's per-head K/V and last-row logits: each row's query
    position comes from the cache it extends."""
    cuts = [i for i in range(1, len(prompt)) if cut is True or cut[i - 1]]
    event(f"{len(cuts) + 1} blocks")
    whole, logits = _oracle_blocks(toy, prompt, [])
    split, split_logits = _oracle_blocks(toy, prompt, cuts)
    assert (split_logits == logits).all()
    for heads, split_heads in zip(whole, split, strict=True):
        for kv, split_kv in zip(heads, split_heads, strict=True):
            for rows, split_rows in zip(kv, split_kv, strict=True):
                assert np.array_equal(np.asarray(split_rows), np.asarray(rows))


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


def test_generate_matches_oracle_at_the_largest_modulus(toy):
    """The largest admissible p for n=64 (2,147,483,137, just below 2^31)
    leaves int64 the least headroom: there a product of two operands of
    bound 2 would already wrap."""
    p = 2_147_483_137
    prompt = [3, 14, 15, 9, 26]
    want = oracle_generate(toy, prompt, 6, p)
    tokens, _ = generate(toy, prompt, 6, Context(BackendParams(n_slots=64, plain_modulus=p), seed=0))
    assert tokens == want == [7, 55, 60, 28, 0, 45]


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
    assert generate(model, [5, 6], 3, Context(params))[0] == tokens
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


def test_decode_step_on_a_pickled_copy_matches_the_live_call(toy):
    """(state, ctx, chans) pickled as one object, as a replay keeps a
    call's arguments, give the live call's token, logits and counter delta
    when decode_step runs on the unpickled copy."""
    ctx = _ctx()
    chans = _explicit_channels(toy.config, ctx.params.plain_modulus)
    state = prefill(toy, [4, 8, 15, 16], ctx, chans)
    twin = pickle.loads(pickle.dumps((state, ctx, chans)))
    results = []
    for s, c, ch in ((state, ctx, chans), twin):
        before = c.counter.snapshot()
        token, after = decode_step(toy, s, c, ch)
        results.append((token, after.next_logits, c.counter.delta(before)))
    (token, logits, delta), (twin_token, twin_logits, twin_delta) = results
    assert twin_token == token and (twin_logits == logits).all() and twin_delta == delta
    assert delta["mult_cipher"] > 0 and delta["mpc_bytes"] > 0


def test_bare_package_import_binds_what_the_benchmark_reads():
    """A fresh ``import cryptogen`` binds every ``cg.<module>.<name>`` the
    benchmark harness in perfbench/ reads off the package, and every
    function its tracer wraps.  It runs in its own interpreter, because
    the imports of this process have already bound the submodules."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = {f"{mod}.{name}" for mod, fns in tracer.SPAN_FUNCTIONS.items() for name in fns}
    for path in (ROOT / "perfbench").glob("*.py"):
        names.update(re.findall(r"\bcg\.(\w+\.\w+)", path.read_text()))
    assert {"backend.Context", "model.generate", "nonlinear.MpcChannel"} <= names
    code = f"import operator, cryptogen; operator.attrgetter(*{sorted(names)!r})(cryptogen)"
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize(
    "call",
    [
        lambda model, prompt: oracle_generate(model, prompt, 0, P64),
        lambda model, prompt: prefill(model, prompt, _ctx()),
        lambda model, prompt: generate(model, prompt, 0, _ctx()),
        lambda model, prompt: bolt_reference_generate(model, prompt, 1, _ctx()),
    ],
    ids=["oracle_generate", "prefill", "generate", "bolt_reference_generate"],
)
def test_prompt_length_rule_is_shared(call):
    """Every entry point takes a prompt of 1 to max_seq tokens and rejects
    an empty or overlong one with the same ParameterError."""
    model = generate_toy_model(ModelConfig(layers=1, d1=8, heads=2, ffn_dim=8, vocab=16, max_seq=4), seed=0)
    with pytest.raises(ParameterError, match="empty prompt"):
        call(model, [])
    with pytest.raises(ParameterError, match="exceeds max_seq"):
        call(model, [1] * 5)


def test_every_tally_is_one_wrapped_call(toy, monkeypatch):
    """Each op the counter tallies is one call of its ``Context`` method and
    each MPC byte comes back from one ``MpcChannel.transfer``, so wrappers
    installed on the classes (as a tracing harness installs them) see the
    report's totals exactly, refreshes and multi-part cache segments included."""
    seen = dict.fromkeys(("mult_plain", "mult_cipher", "rotate", "add", "add_plain", "encrypt", "decrypt"), 0)
    seen["mpc_bytes"] = 0

    def tally(name, fn):
        def wrapped(self, *args, **kwargs):
            out = fn(self, *args, **kwargs)
            seen[name] += out if name == "mpc_bytes" else 1
            return out

        return wrapped

    for op in seen:
        if op != "mpc_bytes":
            monkeypatch.setattr(Context, op, tally(op, getattr(Context, op)))
    monkeypatch.setattr(MpcChannel, "transfer", tally("mpc_bytes", MpcChannel.transfer))
    params = dataclasses.replace(BackendParams.from_json(PARAMS_TOY.read_text()), refresh_threshold=170)
    _, report = generate(toy, [1, 2, 3], 10, Context(params, seed=0))
    assert report["totals"]["refresh_events"] > 0
    assert seen == {name: report["totals"][name] for name in seen}


def _explicit_channels(config, p):
    chans = {(l, h): MpcChannel(p, l * config.heads + h) for l in range(config.layers) for h in range(config.heads)}
    chans["common"] = MpcChannel(p, config.layers * config.heads)
    return chans


def test_direct_calls_charge_their_mpc_bytes(toy):
    """A prefill or decode step called on its own charges the bytes its
    channels moved; on the golden prompt (test_golden_counts) these are the
    prefill's and first step's pinned figures."""
    params = BackendParams.from_json(PARAMS_TOY.read_text())
    ctx = Context(params, seed=0)
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
    """Channels built for another plaintext modulus would share and open
    values in the wrong ring; prefill and decode_step name the offending
    channel and spend nothing."""
    params = BackendParams.from_json(PARAMS_TOY.read_text())
    p = params.plain_modulus
    other = default_plain_modulus(64, 27)
    ctx = Context(params, seed=0)
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


def test_missing_channels_rejected_before_any_op(toy):
    """A channel map without a (layer, head) key or without "common" is
    rejected by prefill and decode_step before any op, naming every key
    it lacks."""
    params = BackendParams.from_json(PARAMS_TOY.read_text())
    p = params.plain_modulus
    ctx = Context(params, seed=0)
    chans = _explicit_channels(toy.config, p)
    bad = {key: ch for key, ch in chans.items() if key not in ((0, 1), (1, 3))}
    with pytest.raises(ParameterError, match="\\(0, 1\\), \\(1, 3\\)"):
        prefill(toy, [1, 2, 3], ctx, bad)
    assert not any(ctx.counter.as_dict().values())

    state = prefill(toy, [1, 2, 3], ctx, chans)
    before = ctx.counter.snapshot()
    bad = {key: ch for key, ch in chans.items() if key != "common"}
    with pytest.raises(ParameterError, match="'common'"):
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
    carries exactly the bytes its channel transfers returned."""
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

    ctx = Context(params, seed=0)

    def charged(fn, *args):
        moved.clear()
        before = ctx.counter.snapshot()
        out = fn(model, *args, ctx)
        assert ctx.counter.delta(before)["mpc_bytes"] == sum(moved) > 0
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MpcChannel, "transfer", spy)
        state = charged(prefill, prompt)
        for _ in range(k):
            _, state = charged(decode_step, state)


def test_threads_other_than_one_is_refused_before_any_op(toy, monkeypatch):
    """threads has one legal value, 1: prefill and decode_step refuse 2
    before any HE op is counted or any share mask is drawn."""
    ctx = _ctx()
    state = prefill(toy, [1, 2, 3], ctx)
    drawn = []
    monkeypatch.setattr(MpcChannel, "sample_mask", lambda self, length: drawn.append(length))
    before = ctx.counter.snapshot()
    with pytest.raises(ParameterError, match="threads"):
        prefill(toy, [1, 2, 3], ctx, None, 2)
    with pytest.raises(ParameterError, match="threads"):
        decode_step(toy, state, ctx, None, 2)
    assert not any(ctx.counter.delta(before).values()) and not drawn


@pytest.mark.parametrize("d1, heads", [(12, 4), (6, 1)], ids=["d2=3", "d2=6"])
def test_head_width_that_does_not_divide_n_is_refused_before_any_op(d1, heads, monkeypatch):
    """A head width d2 that does not divide the slot count cannot tile the
    cache blocks; both entry points refuse it in prefill's preamble, before
    any HE op is counted or any share mask is drawn."""
    model = generate_toy_model(ModelConfig(layers=1, d1=d1, heads=heads, ffn_dim=8, vocab=16, max_seq=8), seed=0)
    drawn = []
    monkeypatch.setattr(MpcChannel, "sample_mask", lambda self, length: drawn.append(length))
    for run, k in ((generate, 2), (bolt_reference_generate, 2), (bolt_reference_generate, 0)):
        ctx = _ctx()
        with pytest.raises(ParameterError, match=f"block width {d1 // heads} must divide the slot count 64"):
            run(model, [1, 2, 3], k, ctx)
        assert not any(ctx.counter.as_dict().values()) and not drawn, (run.__name__, k)


def _narrow(**dims):
    """A one-layer model at d1=8, 2 heads, ffn 8, vocab 16, max_seq 32,
    with ``dims`` replaced."""
    base = dict(layers=1, d1=8, heads=2, ffn_dim=8, vocab=16, max_seq=32)
    return generate_toy_model(ModelConfig(**{**base, **dims}), seed=0)


def _oracle(model, prompt, k, ctx):
    """oracle_generate under the context's modulus, called as a pipeline run is."""
    return oracle_generate(model, prompt, k, ctx.params.plain_modulus)


@pytest.mark.parametrize(
    "dims, n, run, prompt, k, message",
    [
        (dict(vocab=64), 16, generate, [1, 2, 3], 2, "vocab = 64 exceeds the 16 slots"),
        (dict(vocab=64), 16, bolt_reference_generate, [1, 2, 3], 2, "vocab = 64 exceeds the 16 slots"),
        (dict(vocab=64), 16, bolt_reference_generate, [1, 2, 3], 0, "vocab = 64 exceeds the 16 slots"),
        (dict(d1=64, heads=16), 32, generate, [1, 2, 3], 2, "d1 = 64 exceeds the 32 slots"),
        (dict(d1=64, heads=16), 32, bolt_reference_generate, [1, 2, 3], 2, "d1 = 64 exceeds the 32 slots"),
        (dict(ffn_dim=64), 32, generate, [1, 2, 3], 1, "ffn_dim = 64 exceeds the 32 slots"),
        (dict(), 16, bolt_reference_generate, list(range(10)), 8, "prefix = 17 exceeds the 16 slots"),
        # past 2^(2f+1) keys the Newton reciprocal of a row total goes wrong,
        # in the oracle as in the pipeline (40 equal scores at f = 2 weigh
        # -3,367 each); the stateless baseline's last prefill spans m + k - 1
        (dict(f=1), 64, generate, [1, 2, 3], 2, re.escape("m + k = 5 keys exceed 2^(2f) = 4 at f = 1")),
        (dict(f=2, max_seq=48), 64, generate, list(range(8)), 40, re.escape("m + k = 48 keys exceed 2^(2f) = 16")),
        (dict(f=2, max_seq=48), 64, _oracle, list(range(8)), 40, re.escape("m + k = 48 keys exceed 2^(2f) = 16")),
        (dict(f=2), 64, bolt_reference_generate, list(range(8)), 10, re.escape("m + k = 17 keys exceed 2^(2f) = 16")),
        (dict(f=3, max_seq=65), 64, generate, [1] * 65, 0, re.escape("m + k = 65 keys exceed 2^(2f) = 64 at f = 3")),
        (dict(f=5, max_seq=1025), 64, generate, [1] * 1025, 0, re.escape("m + k = 1025 keys exceed 2^(2f) = 1024")),
    ],
    ids=[
        "vocab", "vocab_bolt", "vocab_bolt_k0", "d1", "d1_bolt", "ffn", "bolt_prefix",
        "softmax_f1", "softmax_f2", "softmax_f2_oracle", "softmax_f2_bolt", "softmax_f3_prompt", "softmax_f5_prompt",
    ],
)
def test_width_wider_than_n_is_refused_before_any_op(dims, n, run, prompt, k, message, monkeypatch):
    """A token row (d1), logit row (vocab), decode FFN row (ffn_dim) or
    stateless prefix wider than the slot count is refused, naming the
    dimension and the slot count, and so is a softmax row of more than
    2^(2f) keys, naming that rule, before any HE op is counted or any
    share mask is drawn."""
    model = _narrow(**dims)
    drawn = []
    monkeypatch.setattr(MpcChannel, "sample_mask", lambda self, length: drawn.append(length))
    ctx = _ctx(n=n)
    with pytest.raises(ParameterError, match=message):
        run(model, prompt, k, ctx)
    assert not any(ctx.counter.as_dict().values()) and not drawn


def test_decode_step_refuses_ffn_wider_than_n_before_any_op(monkeypatch):
    """decode_step refuses ffn_dim > n on its own, before its refresh check
    or any HE op, even given a state whose prefill ran."""
    model = _narrow(ffn_dim=64)
    ctx = _ctx(n=32)
    state = prefill(model, [1, 2, 3], ctx)
    drawn = []
    monkeypatch.setattr(MpcChannel, "sample_mask", lambda self, length: drawn.append(length))
    before = ctx.counter.snapshot()
    with pytest.raises(ParameterError, match="ffn_dim = 64 exceeds the 32 slots"):
        decode_step(model, state, ctx)
    assert not any(ctx.counter.delta(before).values()) and not drawn


def test_decode_step_past_max_seq_is_refused_before_any_op(monkeypatch):
    """A state already at position max_seq has no room for another token:
    decode_step refuses it, naming max_seq, before its refresh check or any
    HE op."""
    model = generate_toy_model(ModelConfig(layers=1, d1=8, heads=2, ffn_dim=8, vocab=16, max_seq=4), seed=0)
    ctx = _ctx()
    _, state = decode_step(model, prefill(model, [1, 2, 3], ctx), ctx)
    assert state.caches[0][0].m + state.caches[0][0].t_auto == 4
    drawn = []
    monkeypatch.setattr(MpcChannel, "sample_mask", lambda self, length: drawn.append(length))
    before = ctx.counter.snapshot()
    with pytest.raises(ParameterError, match="max_seq"):
        decode_step(model, state, ctx)
    assert not any(ctx.counter.delta(before).values()) and not drawn


@pytest.mark.parametrize("case", ["other_params", "fewer_layers", "fewer_heads", "other_head_width"])
def test_decode_step_refuses_a_state_it_cannot_run_before_any_op(monkeypatch, toy, case):
    """A toy state prefilled under the toy params, run on a context at a
    2^27 modulus, or a state whose caches do not match the model's layers,
    heads or head width, is refused with ParameterError before the refresh
    check, any HE op or any mask draw."""
    ctx = _ctx()
    state = prefill(toy, [1, 2, 3], ctx)
    if case == "other_params":
        ctx = Context(BackendParams(n_slots=64, plain_modulus=default_plain_modulus(64, 27)), seed=0)
    elif case == "fewer_layers":
        state = dataclasses.replace(state, caches=state.caches[:1])
    elif case == "fewer_heads":
        state = dataclasses.replace(state, caches=[row[:-1] for row in state.caches])
    else:
        wide = generate_toy_model(dataclasses.replace(toy_config(), heads=2), seed=0)
        state = prefill(wide, [1, 2, 3], ctx)
    drawn = []
    monkeypatch.setattr(MpcChannel, "sample_mask", lambda self, length: drawn.append(length))
    before = ctx.counter.snapshot()
    with pytest.raises(ParameterError):
        decode_step(toy, state, ctx)
    assert not any(ctx.counter.delta(before).values()) and not drawn


def test_ffn_wider_than_n_runs_where_no_cpvm_spans_it():
    """Prefill runs the FFN as a CPMM, never a CPVM over ffn_dim, so with
    ffn 64 at n=32 the prefill-only runs stay token-exact."""
    model = _narrow(ffn_dim=64)
    p = _ctx(n=32).params.plain_modulus
    want = oracle_generate(model, [1, 2, 3], 4, p)
    assert bolt_reference_generate(model, [1, 2, 3], 4, _ctx(n=32))[0] == want
    assert generate(model, [1, 2, 3], 0, _ctx(n=32))[0] == []
    assert int(np.argmax(prefill(model, [1, 2, 3], _ctx(n=32)).next_logits)) == want[0]


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
        "bolt_reference_generate k=0": lambda ctx: bolt_reference_generate(model, [1, 2], 0, ctx),
        "prefill": lambda ctx: prefill(model, [1, 2], ctx),
    }
    for name, run in runs.items():
        ctx = _ctx()
        with pytest.raises(ParameterError, match="headroom"):
            run(ctx)
        assert not any(ctx.counter.as_dict().values()), name


_ENTRY_POINTS = {
    "prefill": lambda model, prompt, k, ctx: prefill(model, prompt, ctx),
    "generate": lambda model, prompt, k, ctx: generate(model, prompt, k, ctx),
    "bolt_reference_generate": lambda model, prompt, k, ctx: bolt_reference_generate(model, prompt, k, ctx),
    "oracle_generate": lambda model, prompt, k, ctx: oracle_generate(model, prompt, k, ctx.params.plain_modulus),
}
_NOT_INTEGERS = [
    *(
        pytest.param(run, [1, 2, 3], k, f"k must be an integer, got {re.escape(repr(k))}", id=f"{run}-k={k!r}")
        for run in ("generate", "bolt_reference_generate", "oracle_generate")
        for k in (2.0, 1.5, np.float64(2), "2", None, True)
    ),
    *(
        pytest.param(run, [1, token, 3], 2, f"token {token!r} is not an integer", id=f"{run}-token={token!r}")
        for run in _ENTRY_POINTS
        for token in (2.0, True)
    ),
    # k=0: the reference runs no prefill, yet checks the prompt as generate does
    *(
        pytest.param(run, prompt, 0, message, id=f"{run}-k=0-prompt={prompt!r}")
        for run in ("generate", "bolt_reference_generate")
        for prompt, message in (
            ([999], "token 999 out of vocabulary"),
            ([-1], "token -1 out of vocabulary"),
            ([1, 2.0], "token 2.0 is not an integer"),
            ([True], "token True is not an integer"),
        )
    ),
]


@pytest.mark.parametrize("run, prompt, k, message", _NOT_INTEGERS)
def test_non_integer_k_or_token_is_refused_before_any_op(toy, run, prompt, k, message, monkeypatch):
    """k and every prompt token must be a Python or numpy integer, and not a
    bool; anything else is refused, naming the value, before any HE op is
    counted or any share mask is drawn (where a float k once ran the whole
    prefill and a float token indexed the embedding)."""
    drawn = []
    monkeypatch.setattr(MpcChannel, "sample_mask", lambda self, length: drawn.append(length))
    ctx = _ctx()
    with pytest.raises(ParameterError, match=message):
        _ENTRY_POINTS[run](toy, prompt, k, ctx)
    assert not any(ctx.counter.as_dict().values()) and not drawn


def test_decode_step_past_the_reciprocal_range_is_refused_before_any_op(monkeypatch):
    """At f = 1 a 4-token prompt fills the 2^(2f) keys its softmax rows may
    hold; decode_step refuses the fifth key, naming the rule, before its
    refresh check or any HE op."""
    model = generate_toy_model(ModelConfig(layers=1, d1=8, heads=2, ffn_dim=8, vocab=16, max_seq=8, f=1), seed=0)
    ctx = _ctx()
    state = prefill(model, [1, 2, 3, 4], ctx)
    drawn = []
    monkeypatch.setattr(MpcChannel, "sample_mask", lambda self, length: drawn.append(length))
    before = ctx.counter.snapshot()
    with pytest.raises(ParameterError, match=re.escape("m + k = 5 keys exceed 2^(2f) = 4")):
        decode_step(model, state, ctx)
    assert not any(ctx.counter.delta(before).values()) and not drawn


@settings(max_examples=200, deadline=None)
@given(
    layers=st.integers(1, 2),
    heads=st.integers(1, 4),
    # weighted toward shapes that fit, so that about a third of the draws generate
    d2=st.sampled_from([1, 2, 2, 4, 4, 8, 16, 3, 5]),
    ffn_dim=st.one_of(st.integers(1, 24), st.integers(1, 80)),
    vocab=st.one_of(st.integers(1, 24), st.integers(1, 80)),
    f=st.sampled_from([6, 8, 8, 8, 11]),
    n=st.sampled_from([64, 64, 64, 32, 16, 8]),
    bits=st.sampled_from([23, 26, 29]),
    m=st.integers(1, 10),
    k=st.integers(0, 3),
    spare=st.sampled_from([0, 1, 1, 1, -1]),
    integer=st.sampled_from([int, np.int64]),
)
def test_every_run_generates_token_exact_or_is_refused_before_any_op(
    layers, heads, d2, ffn_dim, vocab, f, n, bits, m, k, spare, integer
):
    """Any config and backend either generate oracle-exact tokens or are
    refused with a ParameterError before any HE op is counted or any share
    mask is drawn; generate refuses exactly when ``plan`` does."""
    assume(heads * d2 >= 2)
    config = ModelConfig(
        layers=layers, d1=heads * d2, heads=heads, ffn_dim=ffn_dim, vocab=vocab, max_seq=max(m + k + spare, 1), f=f
    )
    model = generate_toy_model(config, seed=0)
    params = BackendParams(n_slots=n, plain_modulus=default_plain_modulus(n, bits))
    prompt = [integer((5 * i + 3) % vocab) for i in range(m)]
    k = integer(k)
    try:
        plan(config, params, m, k)
        planned = True
    except ParameterError:
        planned = False
    try:
        want = oracle_generate(model, prompt, k, params.plain_modulus)
    except ParameterError:
        want = None

    drawn = []
    sample = MpcChannel.sample_mask

    def spy(self, length):
        drawn.append(length)
        return sample(self, length)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MpcChannel, "sample_mask", spy)
        for run in (generate, bolt_reference_generate):
            drawn.clear()
            ctx = Context(params, seed=0)
            try:
                tokens = run(model, prompt, k, ctx)[0]
            except ParameterError:
                tokens = None
                assert not any(ctx.counter.as_dict().values()) and not drawn, run.__name__
            else:
                assert tokens == want, run.__name__
            if run is generate:
                assert (tokens is not None) == planned
            event(f"{run.__name__} {'refused' if tokens is None else 'token-exact'}")


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
    from cryptogen.model import _embed, _modmul, _oracle_block

    prompt = [3, 14, 15, 9, 26, 5, 35, 41]
    cfg = toy.config
    caches = [[([], []) for _ in range(cfg.heads)] for _ in range(cfg.layers)]
    fp = FixedPointParams(cfg.f, P64)
    X = np.stack([_embed(toy, t, i) for i, t in enumerate(prompt)])
    for l in range(cfg.layers):
        X = _oracle_block(toy, l, X, fp, P64, caches)
    logits_int = fp_truncate(_modmul(X[-1:], toy.weights["unembed"], P64)[0], fp.f)

    ref = _float_reference_logits(toy, prompt)
    drift = float(np.max(np.abs(logits_int / (1 << cfg.f) - ref)))
    print(f"max logit drift vs float reference: {drift:.4f}")
    assert drift < 0.5  # quantization-scale, not structural, divergence
    assert int(np.argmax(logits_int)) == int(np.argmax(ref))
