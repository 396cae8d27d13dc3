import copy
import dataclasses
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptogen.backend import (
    LAZY_PRODUCT_HEADROOM,
    BackendParams,
    Context,
    DecryptionFailure,
    NoiseBudgetExhausted,
    NoiseCosts,
    OpCounter,
    ParameterError,
    Plaintext,
    SlotCiphertext,
    as_int64,
    default_plain_modulus,
    is_prime,
)
from cryptogen.encodings import EncodingKind, encode
from cryptogen.linear_kernels import cpmm_outer_diagonal, cpvm_inner_diagonal, cpvm_plaintexts
from cryptogen.nonlinear import MpcChannel, shares_to_he
from conftest import plaintext, with_budget


def test_default_modulus_matches_batching_constraint():
    p = default_plain_modulus(8192, 29)
    assert p >= 1 << 29
    assert is_prime(p)
    assert p % 16384 == 1
    # it is the smallest such prime
    for cand in range((1 << 29) + 1, p, 16384):
        assert not is_prime(cand)


def test_default_params_valid_context():
    ctx = Context(BackendParams(), seed=0)
    assert ctx.params.n_slots == 8192
    assert ctx.counter.as_dict()["encrypt"] == 0


def test_small_valid_modulus():
    # 97 is prime and 97 = 1 mod 32
    ctx = Context(BackendParams(n_slots=16, plain_modulus=97), seed=0)
    assert ctx.params.plain_modulus == 97


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_slots": 12, "plain_modulus": 97},  # not a power of two
        {"n_slots": 16, "plain_modulus": 91},  # 7 * 13
        {"n_slots": 16, "plain_modulus": 101},  # wrong congruence
        {"n_slots": 16, "plain_modulus": 97, "refresh_threshold": 500},
        {"n_slots": 16, "plain_modulus": 97, "noise_costs": NoiseCosts(rotate=-1)},
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ParameterError):
        BackendParams(**kwargs)


def test_encrypt_decrypt_roundtrip(ctx16):
    v = np.arange(1, 17)
    ct = ctx16.encrypt(plaintext(ctx16, v))
    assert ct.noise_budget == ctx16.params.initial_noise_budget
    assert (ctx16.decrypt(ct) == v).all()
    zero = ctx16.encrypt(plaintext(ctx16, np.zeros(16, dtype=np.int64)))
    assert not ctx16.decrypt(zero).any()


def test_add_identity_and_values(ctx16):
    a = ctx16.encrypt(ctx16.plains([[1, 2]])[0])
    b = ctx16.encrypt(ctx16.plains([[3, 4]])[0])
    z = ctx16.encrypt(plaintext(ctx16, np.zeros(16, dtype=np.int64)))
    assert (ctx16.decrypt(ctx16.add(a, z)) == ctx16.decrypt(a)).all()
    assert (ctx16.decrypt(ctx16.add(a, b))[:2] == [4, 6]).all()


def test_add_modular_wraparound(ctx16):
    p = ctx16.params.plain_modulus
    a = ctx16.encrypt(ctx16.plains([[p - 1, 0]])[0])
    b = ctx16.encrypt(ctx16.plains([[2, 0]])[0])
    assert (ctx16.decrypt(ctx16.add(a, b))[:2] == [1, 0]).all()


def test_mult_plain(ctx16):
    a = ctx16.encrypt(ctx16.plains([[3, 5]])[0])
    ones = np.ones(16, dtype=np.int64)
    assert (ctx16.decrypt(ctx16.mult_plain(a, plaintext(ctx16, ones))) == ctx16.decrypt(a)).all()
    assert not ctx16.decrypt(ctx16.mult_plain(a, plaintext(ctx16, np.zeros(16, dtype=np.int64)))).any()
    two = ctx16.plains([[2, 2]])[0]
    assert (ctx16.decrypt(ctx16.mult_plain(a, two))[:2] == [6, 10]).all()


def test_mult_cipher_values_and_budget(ctx16):
    a = ctx16.encrypt(ctx16.plains([[2, 3]])[0])
    b = ctx16.encrypt(ctx16.plains([[4, 5]])[0])
    prod = ctx16.mult_cipher(a, b)
    assert (ctx16.decrypt(prod)[:2] == [8, 15]).all()
    assert prod.noise_budget == ctx16.params.initial_noise_budget - 40
    ones = ctx16.encrypt(plaintext(ctx16, np.ones(16, dtype=np.int64)))
    again = ctx16.mult_cipher(a, ones)
    assert (ctx16.decrypt(again) == ctx16.decrypt(a)).all()


def test_rotate_semantics(ctx16):
    ctx4 = Context(BackendParams(n_slots=4, plain_modulus=17), seed=0)
    full = ctx4.encrypt(plaintext(ctx4, [1, 2, 3, 4]))
    assert (ctx4.decrypt(ctx4.rotate(full, 1)) == [2, 3, 4, 1]).all()
    a = ctx16.encrypt(ctx16.plains([[1, 2, 3, 4]])[0])
    # rotate by 0 keeps values but still counts
    before = ctx16.counter.rotate
    r0 = ctx16.rotate(a, 0)
    assert ctx16.counter.rotate == before + 1
    assert (ctx16.decrypt(r0) == ctx16.decrypt(a)).all()
    # inverse rotation restores values
    back = ctx16.rotate(ctx16.rotate(a, 5), 16 - 5)
    assert (ctx16.decrypt(back) == ctx16.decrypt(a)).all()


def test_rotate_composes_additively(ctx16, rng):
    a = ctx16.encrypt(plaintext(ctx16, rng.integers(0, 97, 16)))
    for _ in range(10):
        i, j = rng.integers(-20, 20, 2)
        two = ctx16.rotate(ctx16.rotate(a, int(i)), int(j))
        one = ctx16.rotate(a, int(i + j))
        assert (two.slots == one.slots).all()


# one modulus for every n <= 1024: p = 1 (mod 2048) is 1 mod 2n for all of them
_P1024 = default_plain_modulus(1024, 20)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rotate_property(data):
    """rotate(a, k) is np.roll(slots, -k) for any k, in a fresh read-only
    array, for exactly one counted rotation and its noise cost."""
    n = data.draw(st.sampled_from([1 << e for e in range(1, 11)]), label="n")
    k = data.draw(
        st.one_of(st.integers(-3 * n, 3 * n), st.sampled_from([j * n for j in range(-3, 4)])),
        label="k",
    )
    ctx = Context(BackendParams(n_slots=n, plain_modulus=_P1024), seed=0)
    slots = np.asarray(data.draw(st.lists(st.integers(0, _P1024 - 1), min_size=n, max_size=n)))
    a = ctx.encrypt(plaintext(ctx, slots))
    before = ctx.counter.snapshot()
    out = ctx.rotate(a, k)
    assert (out.slots == np.roll(slots, -k)).all()
    assert not out.slots.flags.writeable
    assert not np.shares_memory(out.slots, a.slots)
    assert ctx.counter.delta(before) == {**OpCounter().as_dict(), "rotate": 1}
    assert out.noise_budget == a.noise_budget - ctx.params.noise_costs.rotate


@pytest.mark.parametrize("n", [2, 64, 512, 1024, 8192])
def test_rotate_forms_match_roll(n):
    """Both forms of rotate, the index gather up to ROTATE_GATHER_MAX_SLOTS
    slots and the two slices above it, equal np.roll for every k in
    [-n, 2n) (a fixed sample at n=8192), each in a fresh read-only array."""
    ctx = Context(BackendParams(n_slots=n), seed=0)  # p = 1 mod 16384
    slots = np.random.default_rng(n).integers(0, ctx.params.plain_modulus, n)
    a = ctx.encrypt(plaintext(ctx, slots))
    if n <= 1024:
        ks = range(-n, 2 * n)
    else:
        ks = [-n, -n + 1, -1, 0, 1, 2, 63, 512, 513, 1024, n // 2, n - 1, n, n + 1, 2 * n - 1]
    for k in ks:
        out = ctx.rotate(a, k)
        assert (out.slots == np.roll(slots, -k)).all()
        assert not out.slots.flags.writeable
        assert not np.shares_memory(out.slots, a.slots)


def test_check_accepts_equal_params_and_rejects_unequal():
    """Ciphertexts pass between contexts whose params are equal, even as
    distinct objects; unequal params raise before any op is counted."""
    params = BackendParams(n_slots=16, plain_modulus=default_plain_modulus(16, 20))
    ctx = Context(params, seed=0)
    twin = Context(BackendParams.from_json(params.to_json()), seed=1)
    assert twin.params is not params and twin.params == params
    a, b = ctx.encrypt(plaintext(ctx, np.arange(16))), twin.encrypt(plaintext(twin, np.arange(16) + 1))
    assert (ctx.decrypt(ctx.add(a, b)) == 2 * np.arange(16) + 1).all()
    assert (ctx.decrypt(ctx.mult_cipher(b, a)) == np.arange(16) * (np.arange(16) + 1)).all()

    other = Context(dataclasses.replace(params, refresh_threshold=params.refresh_threshold + 1), seed=2)
    c = other.encrypt(plaintext(other, np.arange(16)))
    before = ctx.counter.snapshot()
    for op in (lambda: ctx.add(a, c), lambda: ctx.mult_cipher(c, a), lambda: ctx.rotate(c, 1)):
        with pytest.raises(ParameterError, match="incompatible context"):
            op()
    assert ctx.counter.delta(before) == OpCounter().as_dict()


_OPS = ("encrypt", "decrypt", "add", "add_plain", "mult_plain", "mult_cipher", "rotate")
_P16 = default_plain_modulus(16, 20)


@pytest.mark.parametrize("op", _OPS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_op_contract(op, data):
    """The contract of each counted op under random noise costs and operand
    budgets.  The result's budget is min(operand budgets) - cost and it
    takes the next id.  An op that would go below zero raises
    NoiseBudgetExhausted, and a ciphertext of an incompatible context raises
    ParameterError in any operand position; neither moves the counter or
    the next id."""
    costs = NoiseCosts(**{f.name: data.draw(st.integers(0, 64), label=f.name) for f in dataclasses.fields(NoiseCosts)})
    params = BackendParams(n_slots=16, plain_modulus=_P16, noise_costs=costs)
    ctx = Context(params, seed=0)
    other = Context(dataclasses.replace(params, refresh_threshold=params.refresh_threshold + 1), seed=1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="values seed"))
    x, y = rng.integers(0, _P16, 16), rng.integers(0, _P16, 16)
    budgets = [data.draw(st.integers(0, params.initial_noise_budget), label=f"budget {i}") for i in range(2)]
    k = data.draw(st.integers(-40, 40), label="k")
    # op -> (call, number of ciphertext operands, noise cost, expected slots)
    p = _P16
    spec = {
        "encrypt": (lambda: ctx.encrypt(plaintext(ctx, y)), 0, 0, y),
        "decrypt": (lambda a: ctx.decrypt(a), 1, None, x),
        "add": (lambda a, b: ctx.add(a, b), 2, costs.add, (x + y) % p),
        "add_plain": (lambda a: ctx.add_plain(a, plaintext(ctx, y)), 1, costs.add_plain, (x + y) % p),
        "mult_plain": (lambda a: ctx.mult_plain(a, plaintext(ctx, y)), 1, costs.mult_plain, x * y % p),
        "mult_cipher": (lambda a, b: ctx.mult_cipher(a, b), 2, costs.mult_cipher, x * y % p),
        "rotate": (lambda a: ctx.rotate(a, k), 1, costs.rotate, np.roll(x, -k)),
    }
    call, n_operands, cost, want = spec[op]
    operands = [with_budget(ctx.encrypt(plaintext(ctx, v)), bud) for v, bud in zip((x, y), budgets)][:n_operands]
    foreign = data.draw(st.sampled_from([None, *range(n_operands)]), label="foreign position")
    if foreign is not None:
        operands[foreign] = with_budget(other.encrypt(plaintext(other, x)), budgets[foreign])
    next_id = ctx.encrypt(plaintext(ctx, x)).id + 1
    before = ctx.counter.snapshot()
    nothing = OpCounter().as_dict()

    def untouched():
        assert ctx.counter.delta(before) == nothing
        assert ctx.encrypt(plaintext(ctx, x)).id == next_id

    if foreign is not None:
        with pytest.raises(ParameterError, match="incompatible context"):
            call(*operands)
        return untouched()
    if op == "decrypt":
        if budgets[0] <= 0:
            with pytest.raises(DecryptionFailure):
                call(*operands)
            return untouched()
        assert (call(*operands) == want).all()
        assert ctx.counter.delta(before) == {**nothing, "decrypt": 1}
        assert ctx.encrypt(plaintext(ctx, x)).id == next_id
        return
    budget = min((ct.noise_budget for ct in operands), default=params.initial_noise_budget)
    if budget < cost:
        with pytest.raises(NoiseBudgetExhausted) as exc:
            call(*operands)
        assert str(exc.value) == f"operation needs {cost} bits but only {budget} remain"
        return untouched()
    out = call(*operands)
    assert out.noise_budget == budget - cost
    assert out.id == next_id
    assert out.params is params
    assert (out.slots == want).all()
    assert ctx.counter.delta(before) == {**nothing, op: 1}
    assert ctx.encrypt(plaintext(ctx, x)).id == next_id + 1


_PLAIN_OPS = {
    "encrypt": lambda ctx, a, v: ctx.encrypt(v),
    "add_plain": lambda ctx, a, v: ctx.add_plain(a, v),
    "mult_plain": lambda ctx, a, v: ctx.mult_plain(a, v),
}


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_plain_encodes_or_rejects(data):
    """ctx.plains of one signed, unreduced, short, too long, matrix or
    ciphertext row either raises ParameterError or gives its residues mod
    p, zero-padded to n, in a fresh read-only int64 array, without moving
    the counter."""
    ctx = Context(BackendParams(n_slots=16, plain_modulus=_P16), seed=0)
    kind = data.draw(st.sampled_from(["list", "array", "ciphertext", "matrix"]), label="kind")
    length = data.draw(st.sampled_from([16, 16, 0, 1, 15, 17, 32]), label="length")
    vals = data.draw(st.lists(st.integers(-(2**62), 2**62), min_size=length, max_size=length), label="values")
    v = {
        "list": vals,
        "array": np.array(vals, dtype=np.int64),
        "ciphertext": ctx.encrypt(plaintext(ctx, np.arange(16))),
        "matrix": np.array(vals, dtype=np.int64).reshape(1, -1),
    }[kind]
    before = ctx.counter.snapshot()
    if kind in ("ciphertext", "matrix") or length > 16:
        with pytest.raises(ParameterError):
            ctx.plains([v])
    else:
        (pt,) = ctx.plains([v])
        assert type(pt) is Plaintext and pt.params is ctx.params
        assert pt.slots.dtype == np.int64 and not pt.slots.flags.writeable
        assert pt.slots.tolist() == [x % _P16 for x in vals] + [0] * (16 - length)
        assert not np.shares_memory(pt.slots, v)
    assert ctx.counter.delta(before) == OpCounter().as_dict()


@pytest.mark.parametrize(
    "method, value",
    [
        ("plains", [[1.5] * 16]),
        ("plains", np.full((1, 16), 2.0)),
        ("plains", np.ones((1, 16), dtype=bool)),
        ("encrypt", [1.5] * 16),
        ("plains", [[1.5, 2.5]]),
        ("plains", [[True, False]]),
        ("plains", 5),
        ("plains", np.ones((2, 2, 2), dtype=np.int64)),
        ("plains", [list(range(17))]),
        ("plains", [[1, 2], [3]]),
        ("plains", lambda ctx: ctx.encrypt(ctx.plains([[1, 2]])[0])),
        ("plains", lambda ctx: ctx.plains([[1], [2]])),
        ("as_int64", [[1, 2], [3]]),
        ("encode", [[1.7, 2.9]]),
        ("shares_to_he", [[1.9, -2.5]]),
    ],
    ids=[
        "float_list",
        "float_array",
        "bool",
        "encrypt_float",
        "dense_float",
        "dense_bool",
        "dense_scalar",
        "dense_matrix",
        "dense_too_wide",
        "dense_ragged",
        "dense_ciphertext",
        "dense_plaintexts",
        "as_int64_ragged",
        "encode_float",
        "shares_float",
    ],
)
def test_plain_rejects_what_plains_rejects(ctx16, method, value):
    """plains (of short rows), encode and shares_to_he take the rule of
    ``as_int64``: integers, never truncated from floats; a float, bool,
    scalar or wrong-rank input, ragged rows, a ciphertext or a list of
    plaintexts, or a row wider than the slot count, raises ParameterError
    (not numpy's ValueError) without moving the counter.  encrypt takes no
    raw vector at all."""
    if callable(value):  # an operand made under the context
        value = value(ctx16)
    call = {
        "as_int64": as_int64,
        "encode": lambda v: encode(v, EncodingKind.OUTER, ctx16),
        "shares_to_he": lambda v: shares_to_he([(v, MpcChannel(ctx16.params.plain_modulus, 0))], ctx16),
    }.get(method) or getattr(ctx16, method)
    before = ctx16.counter.snapshot()
    with pytest.raises(ParameterError):
        call(value)
    assert ctx16.counter.delta(before) == OpCounter().as_dict()


# each takes a context, an outer-packed 4 x 4 activation and a 4 x 4 input
_UINT64_ENTRIES = {
    "load_ciphertext": lambda ctx, X, W: ctx.load_ciphertext(W.ravel(), 1),
    "plains": lambda ctx, X, W: ctx.plains(W.reshape(1, 16)),
    "plains_short_rows": lambda ctx, X, W: ctx.plains(W),
    "encode": lambda ctx, X, W: encode(W, EncodingKind.OUTER, ctx),
    "shares_to_he": lambda ctx, X, W: shares_to_he([(W, MpcChannel(97, 0))], ctx),
    "cpvm_weights": lambda ctx, X, W: cpvm_plaintexts(W, ctx),
    "cpmm_weights": lambda ctx, X, W: cpmm_outer_diagonal(X, W, ctx),
}


@pytest.mark.parametrize("entry", sorted(_UINT64_ENTRIES))
def test_uint64_input_is_exact_or_rejected(entry):
    """uint64 input below 2^63 is taken; from 2^63 on, where a cast to
    int64 wraps (2^64 - 1 would encode as -1, 96 mod 97, not 60), every
    way into a plaintext raises ParameterError before any op."""
    ctx = Context(BackendParams(n_slots=16, plain_modulus=97))
    X = encode(np.eye(4, dtype=np.int64), EncodingKind.OUTER, ctx)
    _UINT64_ENTRIES[entry](ctx, X, np.full((4, 4), 2**63 - 1, dtype=np.uint64))
    before = ctx.counter.snapshot()
    with pytest.raises(ParameterError, match="2\\^63"):
        _UINT64_ENTRIES[entry](ctx, X, np.full((4, 4), 2**64 - 1, dtype=np.uint64))
    assert ctx.counter.delta(before) == OpCounter().as_dict()


@pytest.mark.parametrize("op", sorted(_PLAIN_OPS))
def test_foreign_plaintext_rejected(op):
    """A Plaintext of a context with other params raises ParameterError in
    every plaintext position, before any count or id moves; one of a
    context with equal params is accepted."""
    params = BackendParams(n_slots=16, plain_modulus=_P16)
    ctx = Context(params, seed=0)
    other = Context(dataclasses.replace(params, refresh_threshold=params.refresh_threshold + 1), seed=1)
    twin = Context(BackendParams.from_json(params.to_json()), seed=2)
    call = _PLAIN_OPS[op]
    a = ctx.encrypt(plaintext(ctx, np.arange(16)))
    next_id = ctx.encrypt(plaintext(ctx, np.arange(16))).id + 1
    before = ctx.counter.snapshot()
    with pytest.raises(ParameterError, match="plaintext belongs to an incompatible context"):
        call(ctx, a, plaintext(other, np.arange(16)))
    assert ctx.counter.delta(before) == OpCounter().as_dict()
    assert ctx.encrypt(plaintext(ctx, np.arange(16))).id == next_id
    call(ctx, a, plaintext(twin, np.arange(16)))


_PLAINTEXT_POSITIONS = {
    **_PLAIN_OPS,
    "cpvm_inner_diagonal": lambda ctx, a, v: cpvm_inner_diagonal(a, v, ctx),
}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_plaintext_positions_take_only_encoded_operands(data):
    """encrypt, add_plain, mult_plain and cpvm_inner_diagonal take only an
    operand encoded under the context (a Plaintext of ``plains``, the
    ``cpvm_plaintexts`` of a weight matrix).  An int64 vector, a list, a
    ciphertext, a Plaintext made under other params or a dense weight
    matrix raises ParameterError, before the counter, the ciphertext
    operand's budget or the context's next id moves."""
    op = data.draw(st.sampled_from(sorted(_PLAINTEXT_POSITIONS)), label="op")
    kind = data.draw(
        st.sampled_from(["int64 vector", "list", "ciphertext", "foreign plaintext", "dense weights"]), label="operand"
    )
    params = BackendParams(n_slots=16, plain_modulus=_P16)
    ctx = Context(params, seed=0)
    other = Context(dataclasses.replace(params, refresh_threshold=params.refresh_threshold + 1), seed=1)
    values = data.draw(st.lists(st.integers(-_P16, _P16), min_size=16, max_size=16), label="values")
    budget = data.draw(st.integers(0, params.initial_noise_budget), label="budget")
    a = with_budget(ctx.encrypt(plaintext(ctx, values)), budget)
    operand = {
        "int64 vector": np.array(values, dtype=np.int64),
        "list": values,
        "ciphertext": a,
        "foreign plaintext": plaintext(other, values),
        "dense weights": np.array(values, dtype=np.int64).reshape(4, 4),
    }[kind]
    probe = plaintext(ctx, values)
    next_id = ctx.encrypt(probe).id + 1
    before = ctx.counter.snapshot()
    with pytest.raises(ParameterError):
        _PLAINTEXT_POSITIONS[op](ctx, a, operand)
    assert ctx.counter.delta(before) == OpCounter().as_dict()
    assert a.noise_budget == budget
    assert ctx.encrypt(probe).id == next_id


def test_plains_reduces_a_matrix_once_and_wraps_its_rows(ctx16):
    """plains reduces an int64 matrix in place and hands out read-only
    views of its rows; any other input is copied first; a wrong shape
    raises."""
    p = ctx16.params.plain_modulus
    M = np.arange(-48, 48, dtype=np.int64).reshape(6, 16) * (p // 3)
    want = np.mod(M, p)
    pts = ctx16.plains(M)
    assert len(pts) == 6 and all(type(pt) is Plaintext for pt in pts)
    assert (M == want).all() and not M.flags.writeable
    assert all(np.shares_memory(pt.slots, M) and (pt.slots == row).all() for pt, row in zip(pts, want))
    rows = want.tolist()
    assert [pt.slots.tolist() for pt in ctx16.plains(rows)] == rows
    for bad in (np.zeros(16, dtype=np.int64), np.zeros((2, 17), dtype=np.int64), np.zeros((2, 16))):
        with pytest.raises(ParameterError):
            ctx16.plains(bad)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_plains_zero_pads_short_rows(data):
    """plains of a k x L matrix, L <= n, of signed or uint64 values equals
    plains of the same rows zero-padded to n, spending no op and drawing
    no mask; a matrix of more than n columns raises ParameterError."""
    ctx = Context(BackendParams(n_slots=16, plain_modulus=_P16), seed=0)
    k, length = data.draw(st.integers(0, 4), label="k"), data.draw(st.integers(0, 20), label="L")
    dtype, lo = data.draw(st.sampled_from([(np.int64, -(2**63)), (np.uint64, 0)]), label="dtype")
    rows = data.draw(st.lists(st.lists(st.integers(lo, 2**63 - 1), min_size=length, max_size=length), min_size=k, max_size=k))
    M = np.array(rows, dtype=dtype).reshape(k, length)
    padded = np.zeros((k, max(length, 16)), dtype=dtype)
    padded[:, :length] = M
    before = ctx.counter.snapshot()
    with mock.patch.object(MpcChannel, "sample_mask", side_effect=AssertionError("plains drew a mask")):
        if length > 16:
            with pytest.raises(ParameterError):
                ctx.plains(M)
        else:
            got, want = ctx.plains(M), ctx.plains(padded)
            assert all(type(pt) is Plaintext and not pt.slots.flags.writeable for pt in got)
            assert [pt.slots.tolist() for pt in got] == [pt.slots.tolist() for pt in want]
            assert [pt.slots.tolist() for pt in got] == [[x % _P16 for x in row] + [0] * (16 - length) for row in rows]
    assert ctx.counter.delta(before) == OpCounter().as_dict()


@pytest.mark.parametrize("budget", [10**6, 0, -5, 1.5, True], ids=["huge", "zero", "negative", "fractional", "bool"])
def test_load_ciphertext_rejects_impossible_budgets(ctx16, budget):
    """A budget other than an int in [1, initial_noise_budget] raises
    ParameterError before an id is issued; both ends of the range load."""
    next_id = ctx16.encrypt(plaintext(ctx16, np.arange(16))).id + 1
    with pytest.raises(ParameterError, match="budget"):
        ctx16.load_ciphertext(np.arange(16), budget)
    top = ctx16.params.initial_noise_budget
    cts = [ctx16.load_ciphertext(np.arange(16), b) for b in (1, top)]
    assert [(ct.id, ct.noise_budget) for ct in cts] == [(next_id, 1), (next_id + 1, top)]


@pytest.mark.parametrize(
    "roundtrip", [lambda pt: pickle.loads(pickle.dumps(pt)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_plaintext_is_made_only_by_the_context(ctx16, roundtrip):
    """The class cannot be called; a copy is an equal, read-only Plaintext."""
    with pytest.raises(TypeError):
        Plaintext((np.zeros(16, dtype=np.int64), ctx16.params))
    pt = plaintext(ctx16, np.arange(16) - 8)
    b = roundtrip(pt)
    assert type(b) is Plaintext and b.params == ctx16.params
    assert (b.slots == pt.slots).all() and not b.slots.flags.writeable
    with pytest.raises(AttributeError):
        b.slots = None


def test_block_mask_is_encoded_once_per_context_family(ctx16):
    mask = ctx16.block_mask(3, 2)
    assert mask.slots.tolist() == [0, 0, 0, 1, 1] + [0] * 11
    assert ctx16.block_mask(3, 2) is mask
    for start, width in ((-1, 1), (15, 2), (0, 0), (0, 17)):
        with pytest.raises(ParameterError):
            ctx16.block_mask(start, width)


def test_budget_exhaustion_and_decrypt_failure(ctx16):
    params = ctx16.params
    a = ctx16.encrypt(ctx16.plains([[1]])[0])
    # spend the budget down to below one multiplication
    a = with_budget(a, 39)
    with pytest.raises(NoiseBudgetExhausted):
        ctx16.mult_cipher(a, a)
    dead = with_budget(a, 0)
    with pytest.raises(DecryptionFailure):
        ctx16.decrypt(dead)
    # budget may land exactly on zero without erroring
    b = with_budget(ctx16.encrypt(plaintext(ctx16, np.zeros(16, dtype=np.int64))), params.noise_costs.mult_plain)
    out = ctx16.mult_plain(b, plaintext(ctx16, np.ones(16, dtype=np.int64)))
    assert out.noise_budget == 0


def test_budget_is_min_of_inputs_minus_cost(ctx16):
    a = with_budget(ctx16.encrypt(plaintext(ctx16, np.zeros(16, dtype=np.int64))), 100)
    b = with_budget(ctx16.encrypt(plaintext(ctx16, np.zeros(16, dtype=np.int64))), 80)
    assert ctx16.add(a, b).noise_budget == 80
    assert ctx16.mult_cipher(a, b).noise_budget == 40


def test_counters_match_invocations(ctx16, rng):
    tally = {"mult_plain": 0, "mult_cipher": 0, "rotate": 0, "add": 0, "add_plain": 0}
    a = ctx16.encrypt(plaintext(ctx16, rng.integers(0, 97, 16)))
    b = ctx16.encrypt(plaintext(ctx16, rng.integers(0, 97, 16)))
    start = ctx16.counter.snapshot()
    for _ in range(100):
        op = rng.choice(list(tally))
        if op == "mult_plain":
            a = ctx16.mult_plain(a, plaintext(ctx16, np.ones(16, dtype=np.int64)))
        elif op == "mult_cipher":
            a = with_budget(ctx16.mult_cipher(a, b), 190)
        elif op == "rotate":
            a = ctx16.rotate(a, 3)
        elif op == "add":
            a = ctx16.add(a, b)
        else:
            a = ctx16.add_plain(a, plaintext(ctx16, np.zeros(16, dtype=np.int64)))
        a = with_budget(a, 190)
        tally[op] += 1
    delta = ctx16.counter.delta(start)
    for op, want in tally.items():
        assert delta[op] == want


def test_emulation_matches_plain_arithmetic(ctx16, rng):
    """Any op sequence decrypts to the same sequence applied over Z_p."""
    p = ctx16.params.plain_modulus
    ct = ctx16.encrypt(plaintext(ctx16, rng.integers(0, p, 16)))
    ref = ctx16.decrypt(ct).copy()
    other = rng.integers(0, p, 16)
    oct_ = ctx16.encrypt(plaintext(ctx16, other))
    for _ in range(200):
        op = rng.integers(0, 5)
        if op == 0:
            ct = ctx16.add(ct, oct_)
            ref = (ref + other) % p
        elif op == 1:
            v = rng.integers(0, p, 16)
            ct = ctx16.add_plain(ct, plaintext(ctx16, v))
            ref = (ref + v) % p
        elif op == 2:
            v = rng.integers(0, p, 16)
            ct = ctx16.mult_plain(ct, plaintext(ctx16, v))
            ref = (ref * v) % p
        elif op == 3:
            ct = ctx16.mult_cipher(ct, oct_)
            ref = (ref * other) % p
        else:
            k = int(rng.integers(0, 16))
            ct = ctx16.rotate(ct, k)
            ref = np.roll(ref, -k)
        ct = with_budget(ct, 190)
    assert (ctx16.decrypt(ct) == ref).all()


_CONTEXT_COPIES = {
    "pickle": lambda ctx: pickle.loads(pickle.dumps(ctx)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", sorted(_CONTEXT_COPIES))
def test_context_copies_keep_a_read_only_modulus(ctx16, how):
    """An unpickled or copied context rebuilds its modulus from params,
    read-only like the original's, shares the rotate index table of its
    process, and continues from the original's counter and next id."""
    ctx16.encrypt(plaintext(ctx16, np.arange(16)))
    b = _CONTEXT_COPIES[how](ctx16)
    assert not b.modulus.flags.writeable and b.modulus == b.params.plain_modulus
    assert b._rotation is ctx16._rotation is not None
    with pytest.raises(ValueError):
        b.modulus[()] = 7
    assert b.counter == ctx16.counter and b.params == ctx16.params
    a = b.encrypt(plaintext(b, np.arange(16)))
    assert a.id == ctx16.encrypt(plaintext(ctx16, np.arange(16))).id
    assert (b.decrypt(b.mult_plain(a, plaintext(b, np.full(16, 3)))) == 3 * np.arange(16)).all()


def _fixed_layout_objects(ctx):
    ch = MpcChannel(ctx.params.plain_modulus, seed=0)
    ch.sample_mask(3)
    return {
        "context": ctx,
        "unpickled context": pickle.loads(pickle.dumps(ctx)),
        "counter": ctx.counter,
        "unpickled counter": pickle.loads(pickle.dumps(ctx.counter)),
        "channel": ch,
        "unpickled channel": pickle.loads(pickle.dumps(ch)),
    }


@pytest.mark.parametrize(
    "name", ["context", "unpickled context", "counter", "unpickled counter", "channel", "unpickled channel"]
)
def test_op_path_objects_have_a_fixed_layout(ctx16, name):
    """Context, OpCounter and MpcChannel, fresh or unpickled, have
    no __dict__, and an unknown attribute cannot be assigned."""
    obj = _fixed_layout_objects(ctx16)[name]
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


def test_unpickled_channel_continues_its_mask_stream():
    ch = MpcChannel(97, seed=5)
    ch.sample_mask(3)
    ch.transfer(16)
    twin = pickle.loads(pickle.dumps(ch))
    assert (twin.bytes_sent, twin.rounds, twin.transcript) == (ch.bytes_sent, ch.rounds, [])
    assert (twin.sample_mask(5000) == ch.sample_mask(5000)).all()


def test_ciphertexts_are_immutable(ctx16):
    ct = ctx16.encrypt(ctx16.plains([[1, 2]])[0])
    with pytest.raises(ValueError):
        ct.slots[0] = 5


@pytest.mark.parametrize(
    "roundtrip", [lambda ct: pickle.loads(pickle.dumps(ct)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_ciphertext_copies_stay_immutable(ctx16, roundtrip):
    """An unpickled or deep-copied ciphertext keeps its values, budget, id
    and params, and is as read-only as the original."""
    ct = with_budget(ctx16.encrypt(plaintext(ctx16, np.arange(16))), 77)
    b = roundtrip(ct)
    assert type(b) is SlotCiphertext
    assert (b.slots == np.arange(16)).all()
    assert (b.noise_budget, b.id, b.params, b.n_slots) == (77, ct.id, ctx16.params, 16)
    assert not b.slots.flags.writeable
    with pytest.raises(ValueError):
        b.slots[0] = 99
    for c in (ct, b):
        for name in ("slots", "noise_budget", "id", "params", "n_slots"):
            with pytest.raises(AttributeError):
                setattr(c, name, None)


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("op", ["encrypt", "add_plain", "mult_plain"])
def test_ciphertext_rejected_as_plaintext(op, n):
    """A ciphertext where a plaintext vector belongs is a ParameterError
    naming the misuse, also when n equals the number of ciphertext fields."""
    ctx = Context(BackendParams(n_slots=n, plain_modulus=_P16), seed=0)
    a = ctx.encrypt(plaintext(ctx, np.arange(n)))
    call = {"encrypt": lambda: ctx.encrypt(a), "add_plain": lambda: ctx.add_plain(a, a), "mult_plain": lambda: ctx.mult_plain(a, a)}[op]
    before = ctx.counter.snapshot()
    with pytest.raises(ParameterError, match="SlotCiphertext was passed where a plaintext"):
        call()
    assert ctx.counter.delta(before) == OpCounter().as_dict()


def test_context_params_is_read_only(ctx16):
    """The hot ops read the modulus and costs once, so params cannot be
    rebound under them."""
    with pytest.raises(AttributeError):
        ctx16.params = BackendParams(n_slots=16, plain_modulus=97)


def test_params_json_roundtrip():
    params = BackendParams(n_slots=16, plain_modulus=97, refresh_threshold=50)
    again = BackendParams.from_json(params.to_json())
    assert again == params


# the toy and reference moduli and the largest prime below 2^31 that is
# 1 mod 128, all admissible at n=64
_P_TOY, _P_REF, _P_LARGEST = 67109633, 536903681, 2_147_483_137
_INT64_MAX = 2**63 - 1


def _caps(p: int) -> tuple:
    """(largest bound of a sum, largest product of two operand bounds)."""
    return _INT64_MAX // p - 1, _INT64_MAX // p**2


def _product_bound(p: int, ka: int, kb: int) -> int:
    """The bound of a product of operands at bounds ka and kb (a plaintext
    counts 1): past the product cap the operand of the larger bound is
    reduced, then the other if still needed; the product keeps its
    bound ka * kb * p while LAZY_PRODUCT_HEADROOM such products fit the
    add cap, and is reduced to bound 1 otherwise."""
    add_cap, mult_cap = _caps(p)
    if ka * kb > mult_cap:
        ka, kb = min(ka, kb), 1
        if ka > mult_cap:
            ka = 1
    k = ka * kb * p
    return k if k * LAZY_PRODUCT_HEADROOM <= add_cap else 1


@st.composite
def _bounded_operands(draw):
    """A context at a drawn modulus, two ciphertexts at drawn bounds near
    both caps and one plaintext, every raw slot at its largest value
    bound * p - 1 but one drawn slot anywhere in [0, bound * p)."""
    p = draw(st.sampled_from(
        [default_plain_modulus(64, 20), _P_TOY, _P_REF, default_plain_modulus(64, 30), _P_LARGEST]
    ))
    n = 64
    ctx = Context(BackendParams(n_slots=n, plain_modulus=p), seed=0)
    add_cap, mult_cap = _caps(p)
    lazy = add_cap // LAZY_PRODUCT_HEADROOM // p  # largest ka * kb of a lazy product
    near = st.sampled_from(
        sorted({1, 2, 3, lazy, lazy + 1, mult_cap, mult_cap + 1, add_cap // 2, add_cap - 1, add_cap} - {0})
    )

    def operand(tag):
        bound = draw(near, label=f"bound {tag}")
        raw = np.full(n, bound * p - 1, dtype=np.int64)
        raw[draw(st.integers(0, n - 1))] = draw(st.integers(0, bound * p - 1))
        return SlotCiphertext(raw, 100, draw(st.integers(0, 10**6)), ctx.params, bound)

    a, b = operand("a"), operand("b")
    v = np.full(n, p - 1, dtype=np.int64)
    v[0] = draw(st.integers(0, p - 1))
    return ctx, a, b, plaintext(ctx, v)


def _residues(ct) -> list:
    """The reference value of a ciphertext: its raw slots mod p, in Python ints."""
    p = ct.params.plain_modulus
    return [int(x) % p for x in ct[0]]


def _assert_reduced_view(ct) -> None:
    """The raw slots keep the bound invariant; ``slots`` and ``decrypt``
    give the residues, ``slots`` read-only."""
    p = ct.params.plain_modulus
    assert 1 <= ct.bound <= _caps(p)[0]
    assert all(0 <= int(x) < ct.bound * p for x in ct[0])
    assert not ct[0].flags.writeable and not ct.slots.flags.writeable
    assert ct.slots.tolist() == _residues(ct)


@settings(max_examples=200, deadline=None)
@given(_bounded_operands(), st.integers(-70, 70))
def test_lazy_reduction_matches_integer_reference_near_both_caps(case, k):
    """Every op on operands at bounds around the add cap ((2^63 - 1) // p - 1),
    the product cap ((2^63 - 1) // p^2) and the largest bound product of
    a lazy product, with every slot at its largest raw value, equals
    Python-int arithmetic mod p, and its result keeps the bound invariant:
    no int64 value wraps, from a 2^20 modulus up to the largest admissible
    one.  A product's bound is the one the lazy-product rule gives, so
    from p ~ 2^29 on every product is reduced."""
    ctx, a, b, v = case
    p = ctx.params.plain_modulus
    ra, rb, rv = _residues(a), _residues(b), [int(x) for x in v.slots]
    want = {
        "add": [(x + y) % p for x, y in zip(ra, rb)],
        "add_plain": [(x + y) % p for x, y in zip(ra, rv)],
        "mult_plain": [x * y % p for x, y in zip(ra, rv)],
        "mult_cipher": [x * y % p for x, y in zip(ra, rb)],
        "rotate": ra[k % 64 :] + ra[: k % 64],
    }
    got = {
        "add": ctx.add(a, b),
        "add_plain": ctx.add_plain(a, v),
        "mult_plain": ctx.mult_plain(a, v),
        "mult_cipher": ctx.mult_cipher(a, b),
        "rotate": ctx.rotate(a, k),
    }
    for op, ct in got.items():
        _assert_reduced_view(ct)
        assert ct.slots.tolist() == want[op], op
        plain = ctx.decrypt(ct)
        assert plain.tolist() == want[op] and plain.flags.writeable, op
    assert got["mult_plain"].bound == _product_bound(p, a.bound, 1)
    assert got["mult_cipher"].bound == _product_bound(p, a.bound, b.bound)
    if p > 2**29:
        assert got["mult_plain"].bound == got["mult_cipher"].bound == 1
    assert got["rotate"].bound == a.bound
    for ct in (a, b):
        _assert_reduced_view(ct)
        assert ctx.decrypt(ct).tolist() == _residues(ct)
    # the sum's bound carries into a further sum and into products
    s = got["add"]
    twice = ctx.add(s, s)
    _assert_reduced_view(twice)
    assert twice.slots.tolist() == [2 * x % p for x in want["add"]]
    assert ctx.mult_cipher(s, twice).slots.tolist() == [2 * x * x % p for x in want["add"]]
    assert ctx.mult_plain(twice, v).slots.tolist() == [2 * x * y % p for x, y in zip(want["add"], rv)]
    # a possibly lazy product carries its bound into the next product
    mp, mc = got["mult_plain"], got["mult_cipher"]
    for ct, want_slots, bound in [
        (ctx.mult_cipher(mp, mc), [x * y % p for x, y in zip(want["mult_plain"], want["mult_cipher"])],
         _product_bound(p, mp.bound, mc.bound)),
        (ctx.mult_plain(mc, v), [x * y % p for x, y in zip(want["mult_cipher"], rv)], _product_bound(p, mc.bound, 1)),
    ]:
        _assert_reduced_view(ct)
        assert ct.slots.tolist() == want_slots and ct.bound == bound


@pytest.mark.parametrize(
    "roundtrip", [lambda ct: pickle.loads(pickle.dumps(ct)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_ciphertext_copies_keep_the_bound(roundtrip):
    ctx = Context(BackendParams(n_slots=64, plain_modulus=_P_LARGEST), seed=0)
    raw = np.full(64, 3 * _P_LARGEST - 1, dtype=np.int64)
    ct = SlotCiphertext(raw, 50, 7, ctx.params, 3)
    b = roundtrip(ct)
    assert type(b) is SlotCiphertext and b.bound == 3 and (b[0] == raw).all()
    assert b.slots.tolist() == [_P_LARGEST - 1] * 64 and not b.slots.flags.writeable
    assert ctx.decrypt(b).tolist() == [_P_LARGEST - 1] * 64
    assert with_budget(b, 9).bound == 3
