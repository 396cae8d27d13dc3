import dataclasses
import gc
import math
import sys
import weakref
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptogen.backend import (
    BackendParams,
    Context,
    ParameterError,
    default_plain_modulus,
)
from cryptogen import fixedpoint
from cryptogen.fixedpoint import (
    CAUSAL_MASK_EXPONENT,
    RECIPROCAL_ITERS,
    FixedPointParams,
    attention_weights,
    causal_attention_weights,
    fp_encode,
    fp_decode,
    fp_gelu,
    fp_layernorm,
    fp_reciprocal,
    fp_softmax,
    fp_truncate,
    to_signed,
)
from cryptogen.nonlinear import (
    MASK_BLOCK,
    MpcChannel,
    attention_softmax,
    he_to_shares,
    refresh,
    roundtrip,
    shares_to_he,
    truncate,
)
from cryptogen.model import generate, generate_toy_model, toy_config
from conftest import op_digest_tool, plaintext

PARAMS_TOY = Path(__file__).resolve().parents[1] / "configs" / "params_toy.json"


P_BIG = default_plain_modulus(8192, 29)
FP = FixedPointParams(11, P_BIG)


def _ctx():
    """A 16-slot context at P_BIG for the protocols to run on."""
    return Context(BackendParams(n_slots=16, plain_modulus=P_BIG))


def _scores(values, fp):
    """Signed attention scores at scale 2f."""
    return fp_encode(values, fp) << fp.f


def _gelu_ref(x):
    return np.array([v * 0.5 * (1 + math.erf(v / math.sqrt(2))) for v in np.atleast_1d(x)])


# the counted Context operations and how many leading arguments are ciphertexts
CT_OPERANDS = {"encrypt": 0, "decrypt": 1, "add": 2, "add_plain": 1, "mult_plain": 1, "mult_cipher": 2, "rotate": 1}
P16 = default_plain_modulus(16, 20)


@contextmanager
def _spied():
    """Record every counted op as (op, operand ids renumbered in order of
    first appearance), every mask a channel hands out and every vector the
    client decrypts, while installed."""
    log, masks, opened, ids = [], [], [], {}
    orig = {op: getattr(Context, op) for op in CT_OPERANDS}
    sample = MpcChannel.sample_mask

    def spy(op, fn):
        def wrapped(self, *args, **kwargs):
            ins = tuple(ids.setdefault(ct.id, len(ids)) for ct in args[: CT_OPERANDS[op]])
            out = fn(self, *args, **kwargs)
            log.append((op, ins))
            if op == "decrypt":
                opened.append(out.copy())
            return out

        return wrapped

    def sampled(ch, length):
        out = sample(ch, length)
        masks.append(out)
        return out

    for op, fn in orig.items():
        setattr(Context, op, spy(op, fn))
    MpcChannel.sample_mask = sampled
    try:
        yield log, masks, opened
    finally:
        for op, fn in orig.items():
            setattr(Context, op, fn)
        MpcChannel.sample_mask = sample


def test_fixed_point_params_headroom():
    with pytest.raises(ParameterError):
        FixedPointParams(14, P_BIG)  # 2^(2f+6) >= p
    with pytest.raises(ParameterError, match="2\\^31"):
        FixedPointParams(20, (1 << 47) + 1)  # room for 2^(2f+6), not for int64 products
    assert FixedPointParams(11, P_BIG).scale == 2048


def test_he_share_roundtrip(ctx16):
    ch = MpcChannel(ctx16.params.plain_modulus, seed=3)
    v = np.arange(16)
    vals = he_to_shares([([ctx16.encrypt(plaintext(ctx16, v)), ctx16.encrypt(plaintext(ctx16, v[::-1]))], ch)], ctx16)
    assert (vals == [v, v[::-1]]).all()
    back = shares_to_he([(vals, ch)], ctx16)
    assert [list(ctx16.decrypt(ct)) for ct in back] == [list(v), list(v[::-1])]
    assert all(ct.noise_budget == ctx16.params.initial_noise_budget for ct in back)
    assert (he_to_shares([([back[0]], ch)], ctx16, 5) == v[:5]).all()


def test_shares_to_he_reduces_before_masking_near_int64_min():
    """secret - r would wrap in int64 for a secret near -2^63; the shared
    row must still decrypt to the secret mod p."""
    p = 97
    ctx = Context(BackendParams(n_slots=4, plain_modulus=p))
    low = np.iinfo(np.int64).min
    (ct,) = shares_to_he([([[low, low + 1, low + 96, -1]], MpcChannel(p, seed=0))], ctx)
    assert list(ctx.decrypt(ct)) == [low % p, (low + 1) % p, (low + 96) % p, p - 1] == [18, 19, 17, 96]


def test_shares_differ_across_seeds_same_secret(ctx16):
    """The client decrypts a masked share: neither the slots nor the share
    another channel seed gives for the same ciphertext."""
    v = np.arange(16)
    ct = ctx16.encrypt(plaintext(ctx16, v))
    with _spied() as (_, _, seen):
        for seed in (1, 2):
            assert (he_to_shares([([ct], MpcChannel(ctx16.params.plain_modulus, seed=seed))], ctx16) == v).all()
    assert len(seen) == 2
    assert (seen[0] != v).any() and (seen[1] != v).any()
    assert (seen[0] != seen[1]).any()


def test_zero_secret_shares_are_negations(ctx16):
    """For a zero secret the client's share is p - r of the server's mask r."""
    p = ctx16.params.plain_modulus
    ch = MpcChannel(p, seed=0)
    with _spied() as (_, masks, seen):
        assert not he_to_shares([([ctx16.encrypt(plaintext(ctx16, np.zeros(16, dtype=np.int64)))], ch)], ctx16).any()
    (share,), (r,) = seen, masks
    assert (share == (p - r) % p).all()


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


def test_a_spent_mask_block_is_freed_with_its_last_slice():
    """A draw that hands out a block's last word drops the channel's
    reference to it, so the block lives only as long as the caller's slice;
    the next draw opens a fresh block, as it would have anyway."""
    p = P_BIG
    ch = MpcChannel(p, seed=7)
    mask = ch.sample_mask(3 * MASK_BLOCK)
    block = weakref.ref(mask.base)
    rng = np.random.default_rng(7)
    assert (mask == rng.integers(0, p, size=3 * MASK_BLOCK, dtype=np.int64)).all()
    del mask
    gc.collect()
    assert block() is None
    assert (ch.sample_mask(5) == rng.integers(0, p, size=MASK_BLOCK, dtype=np.int64)[:5]).all()


def test_channel_bytes_per_direction(ctx16):
    ch = MpcChannel(ctx16.params.plain_modulus, seed=0)
    ct = ctx16.encrypt(plaintext(ctx16, np.zeros(16, dtype=np.int64)))
    per_ct = ch.vector_bytes(ctx16.params.n_slots)
    before = ctx16.counter.snapshot()
    vals = he_to_shares([([ct, ct, ct], ch)], ctx16, 4)
    assert (ch.bytes_sent, ch.rounds) == (3 * per_ct, 3)
    shares_to_he([(vals[:2], ch)], ctx16)
    assert (ch.bytes_sent, ch.rounds) == (5 * per_ct, 5)
    assert ctx16.counter.delta(before)["mpc_bytes"] == ch.bytes_sent


_rows = st.integers(1, 6).flatmap(
    lambda k: st.lists(st.lists(st.integers(0, P16 - 1), min_size=16, max_size=16), min_size=k, max_size=k)
)


@settings(max_examples=40, deadline=None)
@given(slots=_rows, length=st.integers(1, 16), prefix=st.integers(0, MASK_BLOCK))
def test_conversions_spend_per_ciphertext_ops_in_list_order(slots, length, prefix):
    """he_to_shares masks and decrypts each ciphertext in list order under
    one draw of k*n mask words; shares_to_he draws k*L words and encrypts
    and unmasks each row in row order, all during the call, and returns
    the list.  ``prefix`` places the masks anywhere in a block."""
    ctx = Context(BackendParams(n_slots=16, plain_modulus=P16), seed=1)
    ch = MpcChannel(P16, seed=2)
    cts = [ctx.encrypt(plaintext(ctx, v)) for v in slots]
    k = len(cts)
    ch.sample_mask(prefix)
    with _spied() as (log, masks, _):
        vals = he_to_shares([(cts, ch)], ctx, length)
        # ciphertext i masked into 2i+1, which is decrypted
        assert log == [rec for i in range(k) for rec in (("add_plain", (2 * i,)), ("decrypt", (2 * i + 1,)))]
        assert (vals == to_signed(np.array(slots)[:, :length], P16)).all()
        log.clear()
        back = shares_to_he([(vals, ch)], ctx)
        # row i encrypted into 2k+i, which is unmasked
        assert log == [rec for i in range(k) for rec in (("encrypt", ()), ("add_plain", (2 * k + i,)))]
    assert type(back) is list and len(back) == k
    assert [m.size for m in masks] == [k * 16, k * length]
    assert not np.shares_memory(masks[0], masks[1])
    padded = np.zeros((k, 16), dtype=np.int64)
    padded[:, :length] = np.array(slots)[:, :length]
    assert (np.array([ct.slots for ct in back]) == padded).all()
    assert ch.rounds == 2 * k and ch.bytes_sent == 2 * k * ch.vector_bytes(16)


# One channel's conversions as they ran one call per group, before the
# grouped forms: the per-group reference the grouped conversions are checked
# against.


def _one_he_to_shares(cts, ctx, ch, length):
    n, p = ctx.params.n_slots, ctx.params.plain_modulus
    r = ch.sample_mask(len(cts) * n).reshape(-1, n)
    half = p // 2
    values = r[:, :length] + half
    for i, (ct, neg) in enumerate(zip(cts, ctx.plains(-r))):
        values[i] += ctx.decrypt(ctx.add_plain(ct, neg))[:length]
    ctx.counter.mpc_bytes += ch.transfer(n, trips=len(cts))
    np.remainder(values, ctx.modulus, values)
    return values - half


def _one_shares_to_he(rows, ctx, ch):
    secret = np.asarray(rows, dtype=np.int64)
    (k, length), n = secret.shape, ctx.params.n_slots
    r = ch.sample_mask(k * length).reshape(k, length)
    shares = np.zeros((2 * k, n), dtype=np.int64)
    np.subtract(secret % ctx.modulus, r, out=shares[:k, :length])
    shares[k:, :length] = r
    encoded = ctx.plains(shares)
    out = [ctx.add_plain(ctx.encrypt(client), server) for client, server in zip(encoded[:k], encoded[k:])]
    ctx.counter.mpc_bytes += ch.transfer(n, trips=k)
    return out


def _composed(fn, trips=0, width=None):
    """The client round trip spelled out: ``he_to_shares`` of the groups'
    slots 0..width-1 (the drawn length if width is None), fn, one
    ``shares_to_he`` of each group's rows on its channel, then ``trips``
    transfers of that many words per ciphertext."""

    def run(pairs, ctx, length):
        w = width or length
        values = fn(he_to_shares(pairs, ctx, w))
        ends = np.cumsum([len(cts) for cts, _ in pairs])
        out = shares_to_he([(values[j - len(cts) : j], ch) for (cts, ch), j in zip(pairs, ends)], ctx)
        for cts, ch in pairs:
            ctx.counter.mpc_bytes += ch.transfer(w, trips=trips * len(cts))
        return out

    return run


def _reversed(values):
    return values[:, ::-1] * 3


_FP16 = FixedPointParams(4, P16)
# protocol -> (grouped pass, reference), both called as (groups, ctx, length)
_GROUPED = {
    "he_to_shares": (
        he_to_shares,
        lambda pairs, ctx, length: np.concatenate([_one_he_to_shares(cts, ctx, ch, length) for cts, ch in pairs]),
    ),
    "shares_to_he": (
        lambda pairs, ctx, length: shares_to_he(pairs, ctx),
        lambda pairs, ctx, length: [ct for rows, ch in pairs for ct in _one_shares_to_he(rows, ctx, ch)],
    ),
    "truncate": (
        lambda pairs, ctx, length: truncate(pairs, length, _FP16, ctx),
        _composed(lambda values: fp_truncate(values, _FP16.f), trips=3),
    ),
    "refresh": (lambda pairs, ctx, length: refresh(pairs, ctx), _composed(lambda values: values, width=16)),
    "roundtrip": (lambda pairs, ctx, length: roundtrip(pairs, length, _reversed, ctx), _composed(_reversed)),
}


@settings(max_examples=60, deadline=None)
@given(
    protocol=st.sampled_from(sorted(_GROUPED)),
    # (channel, ciphertexts or rows, row length): channels repeat within a pass
    groups=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3), st.integers(1, 16)), min_size=1, max_size=6),
    length=st.integers(1, 16),
    prefixes=st.lists(st.integers(0, MASK_BLOCK), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_grouped_pass_equals_one_call_per_group(protocol, groups, length, prefixes, seed):
    """A grouped conversion returns exactly what one call per group
    returns, and truncate, refresh and roundtrip exactly what
    ``he_to_shares`` -> fn -> ``shares_to_he`` on the same groups returns:
    the same values or output slots and budgets, the same mask words in
    the same sizes and order on each channel, the same bytes and rounds per
    channel, the same counter deltas and the same op graph (dataflow
    digest).  A round trip's group of k draws one entry block of k*n words
    and one exit block of its rows' words.  The prefixes place each
    channel's masks anywhere in a block; shares_to_he's groups differ in
    row length."""
    grouped, reference = _GROUPED[protocol]
    tool = op_digest_tool()
    rng = np.random.default_rng(seed)
    rows = [rng.integers(-P16, P16, (k, width)) for _, k, width in groups]

    def run(protocol_fn):
        ctx = Context(BackendParams(n_slots=16, plain_modulus=P16), seed=1)
        chans = [MpcChannel(P16, seed=seed + i) for i in range(3)]
        for ch, prefix in zip(chans, prefixes):
            ch.sample_mask(prefix)
        drawn = {id(ch): [] for ch in chans}
        sample = MpcChannel.sample_mask

        def spied(ch, size):
            mask = sample(ch, size)
            drawn[id(ch)].append(mask.copy())
            return mask

        with tool.OpDigest().installed(Context) as spy:
            MpcChannel.sample_mask = spied
            try:
                if protocol == "shares_to_he":
                    items = rows
                else:
                    items = [[ctx.encrypt(pt) for pt in ctx.plains(np.mod(r, P16))] for r in rows]
                out = protocol_fn([(item, chans[c]) for item, (c, _, _) in zip(items, groups)], ctx, length)
            finally:
                MpcChannel.sample_mask = sample
        if protocol != "he_to_shares":
            out = [(ct.slots.tolist(), ct.noise_budget) for ct in out]
        else:
            out = out.tolist()
        tallies = [(ch.bytes_sent, ch.rounds) for ch in chans]
        words = [[m.tolist() for m in drawn[id(ch)]] for ch in chans]
        return out, words, tallies, ctx.counter.as_dict(), spy.ops, spy.dataflow_hexdigest()

    got = run(grouped)
    assert got == run(reference)
    if protocol in ("truncate", "refresh", "roundtrip"):
        exit_width = 16 if protocol == "refresh" else length
        for c, words in enumerate(got[1]):
            ks = [k for ch, k, _ in groups if ch == c]
            assert [len(w) for w in words] == [k * 16 for k in ks] + [k * exit_width for k in ks]


def test_round_trips_of_an_empty_pass_are_empty_and_charge_nothing(ctx16, monkeypatch):
    """An empty pass returns at once: no op, draw or charge, and no
    plaintext encoded either (``maybe_refresh`` runs one on every decode
    step with no part due)."""
    plains, encoded = Context.plains, []
    monkeypatch.setattr(Context, "plains", lambda self, rows: encoded.append(len(rows)) or plains(self, rows))
    with _spied() as (log, masks, _):
        assert roundtrip([], 16, lambda values: values, ctx16) == []
        assert truncate([], 4, FixedPointParams(4, ctx16.params.plain_modulus), ctx16) == []
        assert refresh([], ctx16) == []
    assert log == [] and masks == [] and encoded == []
    assert not any(ctx16.counter.as_dict().values())


@pytest.mark.parametrize(
    "fn", [lambda V: V[:1], lambda V: np.concatenate([V, V]), lambda V: V[0]], ids=["fewer", "more", "1d"]
)
def test_roundtrip_refuses_a_result_of_another_row_count_before_any_exit(fn, ctx16):
    """fn must return one row per ciphertext: otherwise ParameterError after
    the entry conversion, before any exit op, mask draw or transfer."""
    n = ctx16.params.n_slots
    ch = MpcChannel(ctx16.params.plain_modulus, seed=0)
    cts = [ctx16.encrypt(pt) for pt in ctx16.plains(np.arange(2 * n).reshape(2, n))]
    with _spied() as (log, masks, _):
        with pytest.raises(ParameterError, match="must return 2 rows"):
            roundtrip([(cts, ch)], n, fn, ctx16)
    assert [op for op, _ in log] == ["add_plain", "decrypt"] * 2
    assert [m.size for m in masks] == [2 * n]
    assert (ch.rounds, ch.bytes_sent) == (2, 2 * ch.vector_bytes(n))


def test_batch_forms_reject_bad_shapes(ctx16):
    ch = MpcChannel(ctx16.params.plain_modulus, seed=0)
    ct = ctx16.encrypt(plaintext(ctx16, np.zeros(16, dtype=np.int64)))
    before = ctx16.counter.snapshot()
    for length in (0, 17):
        with pytest.raises(ParameterError, match="out of range"):
            he_to_shares([([ct], ch)], ctx16, length)
    for rows in (np.zeros(4, dtype=np.int64), np.zeros((2, 17), dtype=np.int64)):
        with pytest.raises(ParameterError, match="16 columns"):
            shares_to_he([(rows, ch)], ctx16)
    assert not any(ctx16.counter.delta(before).values()) and ch.bytes_sent == 0


def test_refresh_resets_the_budget_at_four_ops(ctx16):
    """A refresh keeps the slots, restores the full budget and spends four
    HE ops, one n-word transfer each way, an n-word entry mask and a fresh
    n-word exit mask."""
    p, n = ctx16.params.plain_modulus, ctx16.params.n_slots
    ch = MpcChannel(p, seed=4)
    v = np.arange(n) * 7 % p
    ct = ctx16.mult_plain(ctx16.encrypt(plaintext(ctx16, v)), plaintext(ctx16, np.ones(n, dtype=np.int64)))
    assert ct.noise_budget < ctx16.params.initial_noise_budget
    before = ctx16.counter.snapshot()
    with _spied() as (log, masks, _):
        (out,) = refresh([([ct], ch)], ctx16)
    assert [op for op, _ in log] == ["add_plain", "decrypt", "encrypt", "add_plain"]
    assert [m.size for m in masks] == [n, n]
    assert (ctx16.decrypt(out) == v).all()
    assert out.noise_budget == ctx16.params.initial_noise_budget - ctx16.params.noise_costs.add_plain
    assert (ch.rounds, ch.bytes_sent) == (2, 2 * ch.vector_bytes(n))
    assert ctx16.counter.delta(before)["mpc_bytes"] == ch.bytes_sent


def test_truncate_examples():
    """Truncation rescales each ciphertext's values between its two
    conversions, at 3 trips of L words per ciphertext besides them.  It
    draws one entry block of 3n words, then one exit block of 3 words, and
    runs every entry's HE ops before every exit's."""
    ch, ctx = MpcChannel(P_BIG, seed=0), _ctx()
    one, half = fp_encode(1.0, FP), fp_encode(0.5, FP)
    pts = ctx.plains([[int(one) ** 2], [int(half) ** 2], [0]])
    with _spied() as (log, masks, _):
        out = truncate([((ctx.encrypt(pt) for pt in pts), ch)], 1, FP, ctx)
    got = [int(to_signed(ctx.decrypt(ct), P_BIG)[0]) for ct in out]
    assert got[0] == one and abs(got[1] - fp_encode(0.25, FP)) <= 1 and got[2] == 0
    assert [op for op, _ in log] == ["encrypt"] * 3 + ["add_plain", "decrypt"] * 3 + ["encrypt", "add_plain"] * 3
    assert [m.size for m in masks] == [48, 3]
    conversions = 3 * 2 * ch.vector_bytes(16)
    assert ctx.counter.mpc_bytes == ch.bytes_sent == conversions + 3 * 3 * ch.vector_bytes(1)
    assert ch.rounds == 3 * 2 + 9


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


_P_REF = 536903681  # the reference plain modulus (n = 8192)


def _round_div(a: int, d: int) -> int:
    """Round-to-nearest integer division, ties away from zero."""
    return (2 * a + d) // (2 * d) if a >= 0 else -((-2 * a + d) // (2 * d))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_layernorm_is_exact_on_in_range_rows(data):
    """At the reference p and f=8, fp_layernorm of any row of 2 to 768
    entries in +-p//2, a drawn share of them at the extremes +-p//2, equals
    the same steps in Python ints: the sum of squares, up to
    768 * (p-1)^2 > 2^63, is exact."""
    half = _P_REF // 2
    d = data.draw(st.one_of(st.integers(2, 768), st.just(768)), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="values seed"))
    share = data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]), label="share at the extremes")

    def row():
        v = rng.integers(-half, half, d, endpoint=True)
        at_edge = rng.random(d) < share
        v[at_edge] = rng.choice([-half, half], int(at_edge.sum()))
        return v

    x, gain, bias = row(), row(), row()
    f = 8
    mu = _round_div(sum(x.tolist()), d)
    c = [v - mu for v in x.tolist()]
    var = _round_div(sum(v * v for v in c), d)
    if var == 0:
        want = bias.tolist()
    else:
        inv_std = fixedpoint._fp_inv_sqrt(var, f)
        want = [((g * ((v * inv_std) >> f)) >> f) + b for v, g, b in zip(c, gain.tolist(), bias.tolist())]
    assert fp_layernorm(x, gain, bias, FixedPointParams(f, _P_REF)).tolist() == want


def test_protocol_bytes_depend_only_on_shape(rng):
    totals = []
    for seed in (0, 1):
        ch, ctx = MpcChannel(P_BIG, seed=seed), _ctx()
        vals = rng.uniform(-2, 2, 16)
        truncate([([ctx.encrypt(pt) for pt in ctx.plains(fp_encode(vals, FP).reshape(2, 8))], ch)], 8, FP, ctx)
        attention_softmax([(_scores(vals, FP)[None], ch)], 8, FP, ctx)
        attention_softmax([(_scores(vals, FP).reshape(4, 4), ch)], 8, FP, ctx)
        totals.append((ch.bytes_sent, ch.rounds, ctx.counter.mpc_bytes))
    assert totals[0] == totals[1]


def test_share_completeness_on_protocol_boundaries(rng):
    """Values converted out of HE, run through a protocol and converted
    back decrypt to the fixed-point function of the encrypted input."""
    ctx = Context(BackendParams(n_slots=16, plain_modulus=P_BIG), seed=0)
    ch = MpcChannel(P_BIG, seed=9)
    vals = rng.uniform(-3, 3, 8)
    scores = _scores(vals, FP)
    x, s = [ctx.encrypt(pt) for pt in ctx.plains([fp_encode(vals, FP), scores])]
    (out,) = truncate([([x], ch)], 8, FP, ctx)
    s = he_to_shares([([s], ch)], ctx, 8)
    assert (to_signed(ctx.decrypt(out), P_BIG)[:8] == fp_truncate(fp_encode(vals, FP), FP.f)).all()
    assert (attention_softmax([(s, ch)], 8, FP, ctx)[0] == attention_weights(scores, 8, FP)).all()


def test_attention_softmax_matches_fixedpoint_and_charges_all_scores(rng):
    trips = 3 + RECIPROCAL_ITERS
    vec = _scores(rng.uniform(-3, 3, 5), FP)
    ch, ctx = MpcChannel(P_BIG, seed=0), _ctx()
    assert (attention_softmax([(vec[None], ch)], 8, FP, ctx)[0] == attention_weights(vec, 8, FP)).all()
    assert (ch.bytes_sent, ch.rounds) == (trips * ch.vector_bytes(vec.size), trips)
    assert ctx.counter.mpc_bytes == ch.bytes_sent

    S = _scores(rng.uniform(-3, 3, 16), FP).reshape(4, 4)
    ch, ctx = MpcChannel(P_BIG, seed=0), _ctx()
    A = attention_softmax([(S, ch)], 8, FP, ctx)
    assert A.shape == (4, 4)
    for i in range(4):
        assert (A[i] == causal_attention_weights(S[i], i, 8, FP)).all()
    assert (ch.bytes_sent, ch.rounds) == (trips * ch.vector_bytes(S.size), trips)
    assert ctx.counter.mpc_bytes == ch.bytes_sent


@pytest.mark.parametrize(
    "scores, d2, message",
    [
        (np.zeros((2, 3, 3), dtype=np.int64), 8, "shape \\(2, 3, 3\\)"),
        (np.zeros((0, 0), dtype=np.int64), 8, "shape \\(0, 0\\)"),
        (np.zeros((3, 0), dtype=np.int64), 8, "shape \\(3, 0\\)"),
        (np.zeros(0, dtype=np.int64), 8, "shape \\(0,\\)"),
        (np.int64(5), 8, "shape \\(\\)"),
        (np.zeros((1, 4), dtype=np.int64), 0, "d2 must be positive, got 0"),
        (np.zeros((2, 2), dtype=np.int64), -1, "d2 must be positive, got -1"),
        (None, 8, "at least one score matrix"),
        ([np.zeros((2, 4), dtype=np.int64), np.zeros((1, 4), dtype=np.int64)], 8, "one shape, got shape \\(1, 4\\)"),
        (np.zeros((3, 2), dtype=np.int64), 8, "3 query rows over 2 keys"),
    ],
    ids=["3d", "0x0", "3x0", "empty", "0d", "d2=0", "d2=-1", "no-groups", "unequal-shapes", "rows>keys"],
)
def test_attention_softmax_refuses_what_it_cannot_mean_before_any_transfer(scores, d2, message):
    """Only non-empty score matrices of one shape, with no more query rows
    than keys, and a positive head width have a softmax; anything else, a
    pass of no groups included (scores None), raises ParameterError and
    charges no byte or round.  A list of scores is a pass of one group each."""
    ch, ctx = MpcChannel(P_BIG, seed=0), _ctx()
    groups = [] if scores is None else [(rows, ch) for rows in (scores if isinstance(scores, list) else [scores])]
    with pytest.raises(ParameterError, match=message):
        attention_softmax(groups, d2, FP, ctx)
    assert (ch.bytes_sent, ch.rounds, ctx.counter.mpc_bytes) == (0, 0, 0)


@pytest.mark.parametrize("r, c", [(4, 4), (1, 6), (3, 7)], ids=["prompt", "decode", "chunk"])
def test_attention_softmax_reads_query_positions_off_the_score_shape(r, c, rng):
    """Row j of every group's r x c matrix is query position c - r + j: a
    prompt's m x m from query 0, a decode row at its last key, a chunk's
    r < c rows after c - r earlier keys, each group from its own first
    query; every channel is charged its own group's scores."""
    trips = 3 + RECIPROCAL_ITERS
    chans, ctx = [MpcChannel(P_BIG, seed=i) for i in range(3)], _ctx()
    S = [_scores(rng.uniform(-3, 3, (r, c)), FP) for _ in chans]
    A = attention_softmax(list(zip(S, chans)), 8, FP, ctx)
    assert A.shape == (len(chans) * r, c)
    for g, scores in enumerate(S):
        for j, row in enumerate(scores):
            assert (A[g * r + j] == causal_attention_weights(row, c - r + j, 8, FP)).all()
            assert not A[g * r + j, c - r + j + 1 :].any() and A[g * r + j].sum() > 0
    assert all((ch.bytes_sent, ch.rounds) == (trips * ch.vector_bytes(r * c), trips) for ch in chans)
    assert ctx.counter.mpc_bytes == sum(ch.bytes_sent for ch in chans)


# The row-wise softmax checked against the one-row-at-a-time arithmetic it
# replaced, written out here in Python integers so it shares no code with it.


def _ref_reciprocal(s: int, fp) -> int:
    q = 2 * fp.f
    y = 1 << max(0, fp.f + q - int(s).bit_length())
    for _ in range(RECIPROCAL_ITERS):
        t = (s * y) >> fp.f
        y = (y * ((1 << (q + 1)) - t)) >> q
    return y


def _ref_softmax(s, fp) -> np.ndarray:
    f = fp.f
    if s.shape[0] == 1:
        return np.array([fp.scale], dtype=np.int64)
    inv_ln2 = fp.quantize(1.0 / math.log(2.0))
    ln2 = fp.quantize(math.log(2.0))
    c2, c1, c0 = (fp.quantize(c) for c in (fixedpoint._E_C2, fixedpoint._E_C1, fixedpoint._E_C0))
    x = s - s.max()
    z = ((-x) * inv_ln2) >> (2 * f)
    r = x + z * ln2
    er = np.maximum(((c2 * ((r * r) >> f)) >> f) + ((c1 * r) >> f) + c0, 0)
    e = er >> np.minimum(z, 48)
    rec = _ref_reciprocal(int(e.sum()), fp)
    return (e * rec + (1 << (2 * f - 1))) >> (2 * f)


def _ref_causal_row(row_2f, query: int, d2: int, fp) -> np.ndarray:
    s2 = ((row_2f >> fp.f) * fp.quantize(1.0 / math.sqrt(d2))) >> fp.f
    mask = np.zeros_like(s2)
    mask[query + 1 :] = -(1 << (fp.f + CAUSAL_MASK_EXPONENT))
    return _ref_softmax(s2 + mask, fp)


def _fp(f: int) -> FixedPointParams:
    """Scale f over a modulus with room for it: f = 12 needs p > 2^30."""
    return FixedPointParams(f, default_plain_modulus(64, 30) if f == 12 else P_BIG)


@settings(max_examples=150, deadline=None)
@given(
    f=st.integers(6, 12),
    rows=st.integers(1, 40),
    keys=st.integers(1, 64),
    row_index=st.integers(0, 64),
    bits=st.integers(0, 28),
    d2=st.sampled_from([1, 2, 3, 4, 8, 64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_causal_weights_of_a_matrix_equal_the_per_row_reference(f, rows, keys, row_index, bits, d2, seed):
    """Row j of a rows x keys score matrix is the query at row_index + j:
    the one row-wise call equals the per-row reference bit for bit, whether
    a row's causal mask covers some keys or none, and a vector is the
    one-row case."""
    fp = _fp(f)
    scores = np.random.default_rng(seed).integers(-(1 << bits), (1 << bits) + 1, size=(rows, keys))
    want = np.stack([_ref_causal_row(row, row_index + j, d2, fp) for j, row in enumerate(scores)])
    got = causal_attention_weights(scores, row_index, d2, fp)
    assert got.dtype == np.int64 and got.shape == (rows, keys)
    assert (got == want).all()
    assert (causal_attention_weights(scores[-1], row_index + rows - 1, d2, fp) == want[-1]).all()
    assert (fp_softmax(scores[0] >> f, fp) == _ref_softmax(scores[0] >> f, fp)).all()
    assert (attention_weights(scores[0], d2, fp) == _ref_causal_row(scores[0], keys - 1, d2, fp)).all()


@settings(max_examples=100, deadline=None)
@given(f=st.integers(1, 5), data=st.data(), equal=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_softmax_rows_up_to_the_planned_length_are_weights(f, data, equal, seed):
    """A row of L <= 2^(2f) scores, the most ``model.plan`` lets a run
    score, gives weights in [0, 2^f] that sum to 2^f within L; equal
    scores make the largest row total."""
    fp = FixedPointParams(f, P_BIG)
    L = data.draw(st.integers(1, 1 << (2 * f)))
    rng = np.random.default_rng(seed)
    scores = np.full(L, rng.integers(-(1 << 20), 1 << 20)) if equal else rng.integers(-(1 << 20), 1 << 20, L)
    w = fp_softmax(scores, fp)
    assert ((w >= 0) & (w <= fp.scale)).all()
    assert abs(int(w.sum()) - fp.scale) <= L


@settings(max_examples=150, deadline=None)
@given(f=st.integers(6, 12), data=st.data())
def test_reciprocal_of_an_array_equals_its_scalar_form(f, data):
    """Elementwise over any shape, for positive inputs up to 2^(3f) (a
    softmax total is at most L * 2^f); a non-positive entry is refused."""
    fp = _fp(f)
    totals = data.draw(st.lists(st.integers(1, 1 << (3 * f)), min_size=1, max_size=40))
    y, q = fp_reciprocal(np.array(totals)[:, None], fp)
    assert q == 2 * f and y.dtype == np.int64 and y.shape == (len(totals), 1)
    assert y[:, 0].tolist() == [_ref_reciprocal(s, fp) for s in totals]
    for bad in (0, -1):
        with pytest.raises(ParameterError, match="positive"):
            fp_reciprocal(np.array([*totals, bad]), fp)


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
    _, report = generate(generate_toy_model(toy_config(), seed=0), [3, 14, 15, 9, 26], 2, Context(params, seed=0))
    assert report["totals"]["refresh_events"] > 0
    assert callers == {"cryptogen.nonlinear"}


# every fixed-point entry that takes integers, fed one length-8 vector
_LN_X = np.arange(8, dtype=np.int64) * 300
_ONES, _ZEROS = np.full(8, FP.scale, dtype=np.int64), np.zeros(8, dtype=np.int64)
_INTEGER_ENTRIES = {
    "to_signed": lambda v: to_signed(v, P_BIG),
    "fp_truncate": lambda v: fp_truncate(v, 2),
    "fp_gelu": lambda v: fp_gelu(v, FP),
    "fp_softmax": lambda v: fp_softmax(v, FP),
    "causal_attention_weights": lambda v: causal_attention_weights(v, 3, 8, FP),
    "fp_layernorm.x": lambda v: fp_layernorm(v, _ONES, _ZEROS, FP),
    "fp_layernorm.gain": lambda v: fp_layernorm(_LN_X, v, _ZEROS, FP),
    "fp_layernorm.bias": lambda v: fp_layernorm(_LN_X, _ONES, v, FP),
    "attention_softmax": lambda v: attention_softmax([(v[None], MpcChannel(P_BIG, 0))], 8, FP, _ctx()),
}


@pytest.mark.parametrize("entry", sorted(_INTEGER_ENTRIES))
def test_fixed_point_inputs_take_the_one_integer_rule(entry, monkeypatch):
    """Every integer input of the fixed-point functions goes through
    ``as_int64``: floats, which int64 would truncate (1.7 -> 1), and uint64
    values from 2^63 on, which it would wrap, raise ParameterError; an
    int64 array is used as is, never copied."""
    call = _INTEGER_ENTRIES[entry]
    with pytest.raises(ParameterError, match="expected integers"):
        call(np.array([1.7, -2.9, 96.9, 0.0, 1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ParameterError, match="2\\^63"):
        call(np.full(8, 2**64 - 1, dtype=np.uint64))
    passed = []

    def spy(module):
        as_int64 = module.as_int64

        def checked(values):
            out = as_int64(values)
            passed.append(out is values)
            return out

        monkeypatch.setattr(module, "as_int64", checked)

    spy(sys.modules["cryptogen.fixedpoint"])
    spy(sys.modules["cryptogen.nonlinear"])
    v = np.arange(8, dtype=np.int64) * 500
    call(v)
    assert passed and all(passed)
