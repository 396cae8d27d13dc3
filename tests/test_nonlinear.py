import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptogen.backend import BackendParams, ParameterError, default_plain_modulus, new_context
from cryptogen.fixedpoint import (
    RECIPROCAL_ITERS,
    FixedPointParams,
    attention_weights,
    causal_attention_weights,
    fp_encode,
    fp_decode,
    fp_gelu,
    fp_layernorm,
    fp_softmax,
    fp_truncate,
)
from cryptogen.nonlinear import (
    MASK_BLOCK,
    MpcChannel,
    SharePair,
    attention_softmax,
    he_to_shares,
    reconstruct,
    share_vector,
    shares_to_he,
    truncate,
)
from cryptogen.model import generate, generate_toy_model, toy_config

PARAMS_TOY = Path(__file__).resolve().parents[1] / "configs" / "params_toy.json"
P_BIG = default_plain_modulus(8192, 29)
FP = FixedPointParams(11, P_BIG)


def _ctx():
    """A context to charge protocol bytes to; the protocols here read only its counter."""
    return new_context(BackendParams(n_slots=16, plain_modulus=P_BIG))


def _share(values, fp, ch):
    secret = np.mod(fp_encode(values, fp), ch.p)
    r = ch.sample_mask(len(secret))
    return SharePair((secret - r) % ch.p, r, ch.p, len(secret))


def _scores(values, fp):
    """Signed attention scores at scale 2f."""
    return fp_encode(values, fp) << fp.f


def _gelu_ref(x):
    return np.array([v * 0.5 * (1 + math.erf(v / math.sqrt(2))) for v in np.atleast_1d(x)])


def test_fixed_point_params_headroom():
    with pytest.raises(ParameterError):
        FixedPointParams(14, P_BIG)  # 2^(2f+6) >= p
    assert FixedPointParams(11, P_BIG).scale == 2048


def test_he_share_roundtrip(ctx16):
    ch = MpcChannel(ctx16.params.plain_modulus, seed=3)
    v = np.arange(16)
    ct = ctx16.encrypt(v)
    sp = he_to_shares(ct, ctx16, ch)
    assert (np.mod(sp.client + sp.server, sp.p) == v).all()
    back = shares_to_he(sp, ctx16, ch)
    assert (ctx16.decrypt(back) == v).all()
    assert back.noise_budget == ctx16.params.initial_noise_budget


def test_shares_differ_across_seeds_same_secret(ctx16):
    v = np.arange(16)
    clients = []
    for seed in (1, 2):
        ch = MpcChannel(ctx16.params.plain_modulus, seed=seed)
        sp = he_to_shares(ctx16.encrypt(v), ctx16, ch)
        clients.append(sp.client.copy())
        assert (np.mod(sp.client + sp.server, sp.p) == v).all()
    assert (clients[0] != clients[1]).any()


def test_zero_secret_shares_are_negations(ctx16):
    ch = MpcChannel(ctx16.params.plain_modulus, seed=0)
    sp = he_to_shares(ctx16.encrypt(ctx16.zeros()), ctx16, ch)
    assert (np.mod(sp.client + sp.server, sp.p) == 0).all()
    assert (sp.client == (sp.p - sp.server) % sp.p).all()


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(
        st.one_of(st.integers(1, 80), st.integers(MASK_BLOCK - 80, 3 * MASK_BLOCK)), min_size=1, max_size=12
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_pooled_masks_never_reuse_a_word(lengths, seed):
    """Masks of any length sequence, also longer than a block, are
    read-only words of [0, p) that share no memory with each other; a
    channel of another seed draws other masks."""
    p = P_BIG
    ch, other = MpcChannel(p, seed), MpcChannel(p, seed + 1)
    masks = [ch.sample_mask(n) for n in lengths]
    for mask, n in zip(masks, lengths):
        assert mask.shape == (n,) and mask.dtype == np.int64
        assert not mask.flags.writeable
        assert 0 <= mask.min() and mask.max() < p
    for i, a in enumerate(masks):
        assert not any(np.shares_memory(a, b) for b in masks[i + 1 :])
    assert (np.concatenate(masks) != np.concatenate([other.sample_mask(n) for n in lengths])).any()


def test_channel_bytes_per_direction(ctx16):
    ch = MpcChannel(ctx16.params.plain_modulus, seed=0)
    ct = ctx16.encrypt(ctx16.zeros())
    per_ct = ch.vector_bytes(ctx16.params.n_slots)
    before = ctx16.counter.snapshot()
    sp = he_to_shares(ct, ctx16, ch)
    assert ch.bytes_sent == per_ct
    shares_to_he(sp, ctx16, ch)
    assert ch.bytes_sent == 2 * per_ct
    assert ch.rounds == 2
    assert ctx16.counter.delta(before)["mpc_bytes"] == ch.bytes_sent


def test_truncate_examples():
    ch, ctx = MpcChannel(P_BIG, seed=0), _ctx()
    one = fp_encode(1.0, FP)
    sq = SharePair(
        np.array([int(one) * int(one) % P_BIG]), np.array([0]), P_BIG, 1
    )
    out = reconstruct(truncate(sq, FP, ctx, ch))
    assert out[0] == one

    half = fp_encode(0.5, FP)
    sq = SharePair(np.array([int(half) ** 2 % P_BIG]), np.array([0]), P_BIG, 1)
    got = reconstruct(truncate(sq, FP, ctx, ch))[0]
    assert abs(got - fp_encode(0.25, FP)) <= 1

    zero = SharePair(np.array([0]), np.array([0]), P_BIG, 1)
    assert reconstruct(truncate(zero, FP, ctx, ch))[0] == 0
    assert ctx.counter.mpc_bytes == ch.bytes_sent == 3 * 3 * ch.vector_bytes(1)


def test_gelu_point_values():
    out = fp_gelu(fp_encode([0.0, 10.0, -10.0, 1.0], FP), FP)
    vals = fp_decode(out, FP)
    assert vals[0] == 0.0
    assert vals[1] == 10.0
    assert vals[2] == 0.0
    assert abs(vals[3] - 0.8413) <= max(2.0 ** -FP.f, 1e-2)


def test_gelu_grid_error_and_outside():
    xs = np.linspace(-3.2, 3.2, 2001)
    got = fp_decode(fp_gelu(fp_encode(xs, FP), FP), FP)
    assert np.max(np.abs(got - _gelu_ref(xs))) <= 1e-2
    big = np.array([3.5, 7.0, -3.5, -7.0])
    out = fp_decode(fp_gelu(fp_encode(big, FP), FP), FP)
    assert (out == [3.5, 7.0, 0.0, 0.0]).all()


def test_softmax_singleton_and_uniform():
    one = fp_softmax(fp_encode([2.5], FP), FP)
    assert one[0] == FP.scale
    uni = fp_decode(fp_softmax(fp_encode([0.3] * 4, FP), FP), FP)
    assert len(set(uni.tolist())) == 1
    assert abs(uni.sum() - 1.0) <= 4 * 2.0 ** -FP.f


def test_softmax_reference_values():
    out = fp_decode(fp_softmax(fp_encode([2.0, 1.0, 0.0], FP), FP), FP)
    ref = np.array([0.6652, 0.2447, 0.0900])
    assert np.max(np.abs(out - ref)) <= 4 * 2.0 ** -FP.f


def test_softmax_sum_and_argmax_properties(rng):
    for _ in range(100):
        L = int(rng.integers(2, 48))
        s = rng.uniform(-8, 8, L)
        out = fp_softmax(fp_encode(s, FP), FP)
        assert (out >= 0).all()
        assert abs(int(out.sum()) - FP.scale) <= L
        gap = np.diff(np.sort(s))[-1] if L > 1 else 1.0
        top2 = np.sort(s)[-2:]
        if top2[1] - top2[0] > 2.0 ** -(FP.f - 4):
            assert int(np.argmax(out)) == int(np.argmax(s))


def test_layernorm_cases():
    gain = fp_encode(np.ones(4), FP)
    bias = fp_encode(np.array([0.5, -0.5, 0.25, 0.0]), FP)
    const = fp_layernorm(fp_encode([2.0] * 4, FP), gain, bias, FP)
    assert (const == bias).all()

    g2 = fp_encode(np.ones(2), FP)
    b2 = fp_encode(np.zeros(2), FP)
    out = fp_decode(fp_layernorm(fp_encode([1.0, -1.0], FP), g2, b2, FP), FP)
    assert np.max(np.abs(out - [1.0, -1.0])) <= 2.0 ** -(FP.f - 2)


def test_layernorm_statistics(rng):
    d = 64
    gain = fp_encode(np.full(d, 1.5), FP)
    bias = fp_encode(np.full(d, 0.25), FP)
    x = fp_encode(rng.normal(0, 2.0, d), FP)
    out = fp_decode(fp_layernorm(x, gain, bias, FP), FP)
    assert abs(out.mean() - 0.25) <= 2.0 ** -(FP.f - 2)
    assert abs(out.var() - 1.5 ** 2) <= 0.05


def test_protocol_bytes_depend_only_on_shape(rng):
    totals = []
    for seed in (0, 1):
        ch, ctx = MpcChannel(P_BIG, seed=seed), _ctx()
        vals = rng.uniform(-2, 2, 16)
        truncate(_share(vals, FP, ch), FP, ctx, ch)
        attention_softmax(_scores(vals, FP), 8, FP, ctx, ch)
        attention_softmax(_scores(vals, FP).reshape(4, 4), 8, FP, ctx, ch)
        totals.append((ch.bytes_sent, ch.rounds, ctx.counter.mpc_bytes))
    assert totals[0] == totals[1]


def test_share_completeness_on_protocol_boundaries(rng):
    """Each protocol's output equals the fixed-point function of the
    reconstruction of its shared input."""
    ch, ctx = MpcChannel(P_BIG, seed=9), _ctx()
    vals = rng.uniform(-3, 3, 8)
    sp = _share(vals, FP, ch)
    assert (reconstruct(truncate(sp, FP, ctx, ch)) == fp_truncate(fp_encode(vals, FP), FP.f)).all()
    scores = _scores(vals, FP)
    sp = share_vector(scores, ch)
    assert (attention_softmax(reconstruct(sp), 8, FP, ctx, ch) == attention_weights(scores, 8, FP)).all()


def test_attention_softmax_matches_fixedpoint_and_charges_all_scores(rng):
    trips = 3 + RECIPROCAL_ITERS
    vec = _scores(rng.uniform(-3, 3, 5), FP)
    ch, ctx = MpcChannel(P_BIG, seed=0), _ctx()
    assert (attention_softmax(vec, 8, FP, ctx, ch) == attention_weights(vec, 8, FP)).all()
    assert (ch.bytes_sent, ch.rounds) == (trips * ch.vector_bytes(vec.size), trips)
    assert ctx.counter.mpc_bytes == ch.bytes_sent

    S = _scores(rng.uniform(-3, 3, 16), FP).reshape(4, 4)
    ch, ctx = MpcChannel(P_BIG, seed=0), _ctx()
    A = attention_softmax(S, 8, FP, ctx, ch)
    assert A.shape == (4, 4)
    for i in range(4):
        assert (A[i] == causal_attention_weights(S[i], i, 8, FP)).all()
    assert (ch.bytes_sent, ch.rounds) == (trips * ch.vector_bytes(S.size), trips)
    assert ctx.counter.mpc_bytes == ch.bytes_sent


def test_only_nonlinear_charges_mpc_traffic(monkeypatch):
    """Every channel transfer of a toy generation whose cache refreshes
    every step is made by a protocol of the nonlinear module."""
    callers = set()
    transfer = MpcChannel.transfer

    def spy(ch, *args, **kwargs):
        callers.add(sys._getframe(1).f_globals["__name__"])
        return transfer(ch, *args, **kwargs)

    monkeypatch.setattr(MpcChannel, "transfer", spy)
    params = dataclasses.replace(BackendParams.from_json(PARAMS_TOY.read_text()), refresh_threshold=170)
    _, report = generate(generate_toy_model(toy_config(), seed=0), [3, 14, 15, 9, 26], 2, new_context(params, seed=0))
    assert report["totals"]["refresh_events"] > 0
    assert callers == {"cryptogen.nonlinear"}
