import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptogen.arcc import (
    arcc_inner_inner,
    arcc_inner_outer,
    attention_step,
    broadcast_slot,
    prefill_attention,
)
from cryptogen.backend import BackendParams, Context, ParameterError, SlotCiphertext, default_plain_modulus
from cryptogen.encodings import EncodingKind, decode, encode
from cryptogen.fixedpoint import (
    RECIPROCAL_ITERS,
    FixedPointParams,
    fp_encode,
    fp_softmax,
    fp_truncate,
    to_signed,
)
from cryptogen.kv_cache import append_token, init_cache
from cryptogen.nonlinear import MpcChannel
from conftest import op_digest_tool


def _row(x, ctx):
    """One integer row, encrypted into slots 0..len(x)-1 (inner layout)."""
    return ctx.encrypt(ctx.plains([x])[0])


def _block_scores(parts, d, rows, ctx):
    """Block-aligned scores read as ``attention_step`` reads them: the
    parts decrypted end to end, then every d-th slot from slot 0."""
    return np.concatenate([ctx.decrypt(part) for part in parts])[: rows * d : d]


def test_broadcast_examples(ctx16):
    a = ctx16.encrypt(ctx16.plains([[7, 9]])[0])
    w1 = broadcast_slot(a, 1, 1, ctx16)
    vals = ctx16.decrypt(w1)
    assert vals[0] == 9 and not vals[1:].any()

    full = broadcast_slot(a, 1, 4, ctx16)
    assert (ctx16.decrypt(full)[:4] == 9).all()

    start = ctx16.counter.snapshot()
    broadcast_slot(a, 0, 16, ctx16)
    assert ctx16.counter.delta(start)["rotate"] == 1 + 4


def test_inner_inner_identity_keys(ctx16):
    q = _row([5, 9], ctx16)
    K = encode(np.eye(2, dtype=np.int64), EncodingKind.OUTER, ctx16)
    scores = arcc_inner_inner(q, K, ctx16)
    assert isinstance(scores, SlotCiphertext)
    assert (ctx16.decrypt(scores)[:2] == [5, 9]).all()


def test_inner_inner_hand_example(ctx16):
    q = _row([1, 2], ctx16)
    K = encode(np.array([[1, 2], [3, 4]]), EncodingKind.OUTER, ctx16)
    assert (ctx16.decrypt(arcc_inner_inner(q, K, ctx16))[:2] == [5, 11]).all()


def test_inner_inner_zero_coeffs(ctx16, rng):
    q = _row([0, 0, 0], ctx16)
    K = encode(rng.integers(0, 97, (4, 3)), EncodingKind.OUTER, ctx16)
    assert not ctx16.decrypt(arcc_inner_inner(q, K, ctx16)).any()


def test_inner_inner_random_oracle(ctx64, rng):
    p = ctx64.params.plain_modulus
    for _ in range(25):
        R, L = (int(v) for v in rng.integers(1, 13, 2))
        q = rng.integers(0, p, L)
        K = rng.integers(0, p, (R, L))
        scores = arcc_inner_inner(_row(q, ctx64), encode(K, EncodingKind.OUTER, ctx64), ctx64)
        assert (ctx64.decrypt(scores)[:R] == (K @ q) % p).all()


def test_inner_kernels_reject_other_layouts(ctx16):
    q = _row([1, 2], ctx16)
    M = np.array([[1, 2], [3, 4]])
    with pytest.raises(ParameterError):
        arcc_inner_inner(q, encode(M, EncodingKind.INNER_COMPACTED, ctx16), ctx16)
    with pytest.raises(ParameterError):
        arcc_inner_outer(q, encode(M, EncodingKind.INNER, ctx16), ctx16)


def test_inner_outer_hand_examples(ctx16):
    """Row r's score sits at slot (r mod B)*d of part r // B: with d=2,
    the second row's score is at slot 2."""
    v = _row([1, 1], ctx16)
    rows = encode(np.array([[2, 3], [4, 5]]), EncodingKind.INNER_COMPACTED, ctx16)
    scores = arcc_inner_outer(v, rows, ctx16)
    assert len(scores) == 1
    assert (ctx16.decrypt(scores[0])[[0, 2]] == [5, 9]).all()

    e0 = _row([1, 0], ctx16)
    scores = arcc_inner_outer(e0, rows, ctx16)
    assert (_block_scores(scores, 2, 2, ctx16) == [2, 4]).all()


def test_inner_outer_random_oracle(ctx64, rng):
    p = ctx64.params.plain_modulus
    for _ in range(15):
        d = int(2 ** rng.integers(0, 4))
        R = int(rng.integers(1, 20))
        M = rng.integers(0, p, (R, d))
        v = rng.integers(0, p, d)
        rows = encode(M, EncodingKind.INNER_COMPACTED, ctx64)
        scores = arcc_inner_outer(_row(v, ctx64), rows, ctx64)
        assert (_block_scores(scores, d, R, ctx64) == (M @ v) % p).all()


def test_inner_outer_compacted_mult_count():
    """R=300 rows at B=128 cost ceil(300/128)=3 CTxCT mults, not 300."""
    params = BackendParams()
    ctx = Context(params, seed=0)
    rng = np.random.default_rng(1)
    M = rng.integers(0, 97, (300, 64))
    Mp = encode(M, EncodingKind.INNER_COMPACTED, ctx)
    v = rng.integers(0, 97, 64)
    start = ctx.counter.snapshot()
    scores = arcc_inner_outer(_row(v, ctx), Mp, ctx)
    assert ctx.counter.delta(start)["mult_cipher"] == 3
    assert len(scores) == 3
    assert (_block_scores(scores, 64, 300, ctx) == (M @ v) % ctx.params.plain_modulus).all()


P64 = default_plain_modulus(64, 26)


def _fp_ctx(seed=0):
    return Context(BackendParams(n_slots=64, plain_modulus=P64), seed=seed)


FP = FixedPointParams(8, P64)


def _oracle_attention_step(q, Ks, Vs, fp, p):
    s = to_signed(np.mod(np.asarray(Ks) @ q, p), p)
    s1 = fp_truncate(s, fp.f)
    s2 = (s1 * fp.quantize(1.0 / np.sqrt(len(q)))) >> fp.f
    a = fp_softmax(s2, fp)
    o = to_signed(np.mod(a @ np.asarray(Vs), p), p)
    return fp_truncate(o, fp.f)


def _cache_from_rows(Ks, Vs, split, ctx, d2):
    """Cache with rows [:split] as prefill segment and the rest appended."""
    if split:
        Kp = encode(np.mod(Ks[:split], ctx.params.plain_modulus), EncodingKind.OUTER, ctx)
        Vp = encode(np.mod(Vs[:split], ctx.params.plain_modulus), EncodingKind.OUTER, ctx)
        cache = init_cache(Kp, Vp, ctx)
    else:
        cache = init_cache(None, None, ctx, d2=d2)
    for kr, vr in zip(Ks[split:], Vs[split:]):
        kc = _row(np.mod(kr, ctx.params.plain_modulus), ctx)
        vc = _row(np.mod(vr, ctx.params.plain_modulus), ctx)
        cache = append_token(cache, kc, vc, ctx)
    return cache


def test_attention_step_single_token():
    ctx = _fp_ctx()
    ch = MpcChannel(P64, seed=0)
    v = fp_encode([0.5, -0.25, 1.0, 0.125], FP)
    k = fp_encode([0.3, 0.1, -0.2, 0.4], FP)
    cache = _cache_from_rows(np.array([k]), np.array([v]), 0, ctx, 4)
    q = _row(np.mod(fp_encode([1.0, 0.2, -0.3, 0.6], FP), P64), ctx)
    out = to_signed(ctx.decrypt(attention_step([q], [cache], FP, ctx, [ch])[0])[:4], P64)
    # softmax of a single score is exactly one, so the output is v
    assert (out == v).all()


@pytest.mark.parametrize(
    "d2, t, split",
    [(4, 3, 0), (4, 3, 1), (4, 3, 2), (4, 3, 3), (16, 6, 0), (16, 8, 2)],
    ids=["0", "1", "2", "3", "seam_split0", "seam_split2"],
)
def test_attention_step_matches_oracle_any_segmentation(d2, t, split, rng):
    """t rows, the first ``split`` of them prefill; at d2=16 (B=4) the six
    generated rows span two cache parts, so the stride read of the
    generated scores crosses a part boundary."""
    ctx = _fp_ctx(seed=split)
    ch = MpcChannel(P64, seed=split)
    Ks = fp_encode(rng.uniform(-1, 1, (t, d2)), FP)
    Vs = fp_encode(rng.uniform(-1, 1, (t, d2)), FP)
    qv = fp_encode(rng.uniform(-1, 1, d2), FP)
    cache = _cache_from_rows(Ks, Vs, split, ctx, d2)
    assert len(cache.auto_K.parts) == -(-(t - split) * d2 // 64)
    q = _row(np.mod(qv, P64), ctx)
    got = to_signed(ctx.decrypt(attention_step([q], [cache], FP, ctx, [ch])[0])[:d2], P64)
    want = _oracle_attention_step(qv, Ks, Vs, FP, P64)
    assert (got == want).all(), f"split={split}: {got} vs {want}"


def test_attention_step_rotation_count_prefix_independent(rng):
    d2 = 4
    deltas, softmax = {}, {}
    for m in (2, 4, 8):
        ctx = _fp_ctx(seed=1)
        ch = MpcChannel(P64, seed=1)
        Ks = fp_encode(rng.uniform(-1, 1, (m + 1, d2)), FP)
        Vs = fp_encode(rng.uniform(-1, 1, (m + 1, d2)), FP)
        cache = _cache_from_rows(Ks, Vs, m, ctx, d2)
        q = _row(np.mod(fp_encode(rng.uniform(-1, 1, d2), FP), P64), ctx)
        start = ctx.counter.snapshot()
        attention_step([q], [cache], FP, ctx, [ch])[0]
        deltas[m] = ctx.counter.delta(start)
        softmax[m] = (3 + RECIPROCAL_ITERS) * ch.vector_bytes(m + 1)  # over the m + 1 scores
    he_ops = ("mult_plain", "mult_cipher", "rotate", "add", "add_plain", "encrypt", "decrypt")
    he = {m: {k: d[k] for k in he_ops} for m, d in deltas.items()}
    assert he[2] == he[4] == he[8]
    # the bytes move with the prefix by the softmax charge only
    assert len({d["mpc_bytes"] - softmax[m] for m, d in deltas.items()}) == 1
    assert len({d["mpc_bytes"] for d in deltas.values()}) == 3


def test_prefill_attention_single_row(rng):
    ctx = _fp_ctx()
    ch = MpcChannel(P64, seed=0)
    d2 = 4
    Q = fp_encode(rng.uniform(-1, 1, (1, d2)), FP)
    K = fp_encode(rng.uniform(-1, 1, (1, d2)), FP)
    V = fp_encode(rng.uniform(-1, 1, (1, d2)), FP)
    (out,) = prefill_attention(
        [encode(np.mod(Q, P64), EncodingKind.OUTER, ctx)],
        [encode(np.mod(K, P64), EncodingKind.OUTER, ctx)],
        [encode(np.mod(V, P64), EncodingKind.OUTER, ctx)],
        FP,
        ctx,
        [ch],
    )
    got = to_signed(decode(out, ctx), P64)
    assert (got == V).all()


def _oracle_prefill_attention(Q, K, V, fp, p):
    from cryptogen.fixedpoint import causal_attention_weights

    m, d2 = Q.shape
    O = np.zeros((m, d2), dtype=np.int64)
    for i in range(m):
        s = to_signed(np.mod(Q[i] @ K.T, p), p)
        a = causal_attention_weights(s, i, d2, fp)
        O[i] = fp_truncate(to_signed(np.mod(a @ V, p), p), fp.f)
    return O


@pytest.mark.parametrize("m", [2, 3, 5])
def test_prefill_attention_matches_oracle(m, rng):
    ctx = _fp_ctx(seed=m)
    ch = MpcChannel(P64, seed=m)
    d2 = 4
    Q = fp_encode(rng.uniform(-1, 1, (m, d2)), FP)
    K = fp_encode(rng.uniform(-1, 1, (m, d2)), FP)
    V = fp_encode(rng.uniform(-1, 1, (m, d2)), FP)
    (out,) = prefill_attention(
        [encode(np.mod(Q, P64), EncodingKind.OUTER, ctx)],
        [encode(np.mod(K, P64), EncodingKind.OUTER, ctx)],
        [encode(np.mod(V, P64), EncodingKind.OUTER, ctx)],
        FP,
        ctx,
        [ch],
    )
    got = to_signed(decode(out, ctx), P64)
    assert (got == _oracle_prefill_attention(Q, K, V, FP, P64)).all()


@settings(max_examples=25, deadline=None)
@given(
    heads=st.integers(1, 4),
    m=st.integers(1, 9),
    d2=st.sampled_from([1, 2, 4, 8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_prefill_attention_over_heads_equals_one_call_per_head(heads, m, d2, seed):
    """One ``prefill_attention`` call over H heads, each on its own channel,
    returns what H one-head calls return: the same decrypted outputs, the
    same mask words in the same draw sizes and order on each channel, the
    same bytes and rounds per channel, the same counter delta and the same
    op graph (dataflow digest).  m runs across powers of two, so most
    prompts leave wrapped padding diagonals (m < w)."""
    tool = op_digest_tool()
    rng = np.random.default_rng(seed)
    Q, K, V = fp_encode(rng.uniform(-1, 1, (3, heads, m, d2)), FP)

    def run(attend):
        ctx = _fp_ctx(seed=1)
        chans = [MpcChannel(P64, seed=seed + h) for h in range(heads)]
        drawn = {id(ch): [] for ch in chans}
        sample = MpcChannel.sample_mask

        def spied(ch, size):
            mask = sample(ch, size)
            drawn[id(ch)].append(mask.copy())
            return mask

        with tool.OpDigest().installed(Context) as spy:
            MpcChannel.sample_mask = spied
            try:
                packed = [[encode(np.mod(X, P64), EncodingKind.OUTER, ctx) for X in XS] for XS in (Q, K, V)]
                outs = attend(*packed, ctx, chans)
            finally:
                MpcChannel.sample_mask = sample
        words = [[w.tolist() for w in drawn[id(ch)]] for ch in chans]
        tallies = [(ch.bytes_sent, ch.rounds) for ch in chans]
        counters, dataflow = ctx.counter.as_dict(), spy.dataflow_hexdigest()
        return [to_signed(decode(O, ctx), P64).tolist() for O in outs], words, tallies, counters, dataflow

    got = run(lambda Qs, Ks, Vs, ctx, chans: prefill_attention(Qs, Ks, Vs, FP, ctx, chans))
    one_each = run(
        lambda Qs, Ks, Vs, ctx, chans: [
            prefill_attention([q], [k], [v], FP, ctx, [ch])[0] for q, k, v, ch in zip(Qs, Ks, Vs, chans)
        ]
    )
    assert got == one_each
    assert len(got[0]) == heads and np.shape(got[0][0]) == (m, d2)


@pytest.mark.parametrize("n, m", [(2048, 16), (256, 256)], ids=["diagonals", "softmax"])
def test_prefill_attention_holds_one_head_of_scores_at_a_time(n, m):
    """The prompt pass runs each head's scores, softmax and weights in
    turn, so the traced peak of a call over 8 heads stays near one head's:
    a head's w score diagonals and their w x n masks (which dominate at
    m << n), its m x m softmax arrays (at m = n) and its m weight rows are
    dropped before the next head's are made.  All heads' at once would
    hold 8 times as many."""
    d2 = 2
    p = default_plain_modulus(n, 26)
    fp, rng = FixedPointParams(8, p), np.random.default_rng(0)

    def peak(heads):
        ctx = Context(BackendParams(n_slots=n, plain_modulus=p))
        X = fp_encode(rng.uniform(-1, 1, (3, heads, m, d2)), fp)
        Qs, Ks, Vs = ([encode(np.mod(M, p), EncodingKind.OUTER, ctx) for M in XS] for XS in X)
        chans = [MpcChannel(p, seed=h) for h in range(heads)]
        tracemalloc.start()
        try:
            prefill_attention(Qs, Ks, Vs, fp, ctx, chans)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8) < 2.5 * peak(1)


def test_prefill_causal_mask_annihilates_future(rng):
    """Masked positions carry exactly zero softmax weight."""
    from cryptogen.fixedpoint import causal_attention_weights

    s = fp_encode(rng.uniform(-2, 2, 6), FP)
    a = causal_attention_weights(s, 2, 4, FP)
    assert not a[3:].any()
    assert a[:3].sum() > 0
