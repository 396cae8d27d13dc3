import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cryptogen.backend import BackendParams, Context, ParameterError, default_plain_modulus
from cryptogen.encodings import EncodingKind, decode, encode
from cryptogen.linear_kernels import cpmm_outer_diagonal, cpvm_inner_diagonal, cpvm_plaintexts, fold_sum
from conftest import plaintext


def _row(x, ctx):
    """One integer row, encrypted into slots 0..len(x)-1 (inner layout)."""
    return ctx.encrypt(ctx.plains([x])[0])


def test_fold_sum_block1_is_identity(ctx16):
    ct = ctx16.encrypt(ctx16.plains([[5, 6]])[0])
    start = ctx16.counter.snapshot()
    out = fold_sum(ct, 1, ctx16)
    assert ctx16.counter.delta(start)["rotate"] == 0
    assert (ctx16.decrypt(out) == ctx16.decrypt(ct)).all()


def test_fold_sum_examples(ctx16):
    ct = ctx16.encrypt(ctx16.plains([[1, 2, 3, 4]])[0])
    start = ctx16.counter.snapshot()
    out = fold_sum(ct, 4, ctx16)
    d = ctx16.counter.delta(start)
    assert d["rotate"] == 2 and d["add"] == 2
    assert ctx16.decrypt(out)[0] == 10

    ct = ctx16.encrypt(ctx16.plains([[1, 1, 1, 1, 2, 2, 2, 2]])[0])
    out = fold_sum(ct, 4, ctx16)
    vals = ctx16.decrypt(out)
    assert vals[0] == 4 and vals[4] == 8


def test_fold_sum_per_block_oracle(ctx16, rng):
    p = ctx16.params.plain_modulus
    v = rng.integers(0, p, 16)
    out = ctx16.decrypt(fold_sum(ctx16.encrypt(plaintext(ctx16, v)), 8, ctx16))
    for b in range(2):
        assert out[8 * b] == v[8 * b : 8 * b + 8].sum() % p


def test_fold_sum_rejects_bad_block(ctx16):
    ct = ctx16.encrypt(plaintext(ctx16, np.zeros(16, dtype=np.int64)))
    for bad in (3, 32, 0):
        with pytest.raises(ParameterError):
            fold_sum(ct, bad, ctx16)


def test_cpmm_identity_weights(ctx16, rng):
    X = rng.integers(0, 97, (3, 4))
    Y = cpmm_outer_diagonal(encode(X, EncodingKind.OUTER, ctx16), np.eye(4, dtype=np.int64), ctx16)
    assert (decode(Y, ctx16) == X).all()


def test_cpmm_hand_example(ctx16):
    X = np.array([[1, 2], [3, 4]])
    W = np.array([[5, 6], [7, 8]])
    Y = cpmm_outer_diagonal(encode(X, EncodingKind.OUTER, ctx16), W, ctx16)
    assert (decode(Y, ctx16) == [[19, 22], [43, 50]]).all()


def test_cpmm_random_oracle(ctx64, rng):
    p = ctx64.params.plain_modulus
    for _ in range(30):
        m, d1, d2 = (int(v) for v in rng.integers(1, 17, 3))
        X = rng.integers(0, p, (m, d1))
        W = rng.integers(0, p, (d1, d2))
        Y = cpmm_outer_diagonal(encode(X, EncodingKind.OUTER, ctx64), W, ctx64)
        assert (decode(Y, ctx64) == (X @ W) % p).all()


def test_cpmm_mult_count_scales_with_m(ctx64, rng):
    """mult_plain per call follows ceil(d1 / (n/next_pow2(m))) * d2."""
    d1, d2, n = 16, 4, 64
    counts = {}
    for m in (4, 8, 16):
        X = rng.integers(0, 97, (m, d1))
        W = rng.integers(0, 97, (d1, d2))
        Xp = encode(X, EncodingKind.OUTER, ctx64)
        start = ctx64.counter.snapshot()
        cpmm_outer_diagonal(Xp, W, ctx64)
        counts[m] = ctx64.counter.delta(start)["mult_plain"]
        assert counts[m] == -(-d1 // (n // m)) * d2
    assert counts[8] == 2 * counts[4]
    assert counts[16] == 2 * counts[8]


def test_cpmm_rejects_mismatched_dims(ctx16, rng):
    X = encode(rng.integers(0, 97, (2, 3)), EncodingKind.OUTER, ctx16)
    W = rng.integers(0, 97, (4, 2))
    with pytest.raises(ParameterError):
        cpmm_outer_diagonal(X, W, ctx16)


def test_cpmm_accepts_more_weight_rows_than_slots(ctx16, rng):
    """d1 is bounded by the activation's column count, not by n_slots."""
    p = ctx16.params.plain_modulus
    X = rng.integers(0, p, (2, 20))
    W = rng.integers(-p + 1, p, (20, 3))
    Y = cpmm_outer_diagonal(encode(X, EncodingKind.OUTER, ctx16), W, ctx16)
    assert (decode(Y, ctx16) == (X @ W) % p).all()


@pytest.mark.parametrize(
    "W",
    [np.arange(4), np.zeros((0, 2), dtype=np.int64), np.zeros((4, 0), dtype=np.int64), np.ones((4, 2))],
    ids=["1d", "no_rows", "no_cols", "float"],
)
def test_kernels_reject_malformed_weights(ctx16, W):
    """Only a non-empty 2-D integer matrix is a weight; rejected before any op."""
    X = encode(np.ones((2, 4), dtype=np.int64), EncodingKind.OUTER, ctx16)
    start = ctx16.counter.snapshot()
    with pytest.raises(ParameterError):
        cpmm_outer_diagonal(X, W, ctx16)
    with pytest.raises(ParameterError):
        cpvm_plaintexts(W, ctx16)
    assert not any(ctx16.counter.delta(start).values())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernels_match_signed_matmul_mod_p(p16, p64, data):
    """Signed weights (the model's scale-f integers) reduce mod p in both kernels."""
    n, p = data.draw(st.sampled_from([(16, p16), (64, p64)]), label="n, p")
    m, d1, d2 = (data.draw(st.integers(1, 16), label=name) for name in ("m", "d1", "d2"))
    W = data.draw(hnp.arrays(np.int64, (d1, d2), elements=st.integers(-p + 1, p - 1)), label="W")
    W[data.draw(st.integers(0, d1 - 1)), data.draw(st.integers(0, d2 - 1))] = data.draw(
        st.integers(-p + 1, -1), label="negative entry"
    )
    X = data.draw(hnp.arrays(np.int64, (m, d1), elements=st.integers(0, p - 1)), label="X")
    ctx = Context(BackendParams(n_slots=n, plain_modulus=p), seed=0)
    want = (X @ W) % p
    assert (decode(cpmm_outer_diagonal(encode(X, EncodingKind.OUTER, ctx), W, ctx), ctx) == want).all()
    y = ctx.decrypt(cpvm_inner_diagonal(_row(X[-1], ctx), cpvm_plaintexts(W, ctx), ctx))[:d2]
    assert (y == want[-1]).all()


def test_cpvm_identity(ctx16):
    x = np.array([9, 4, 7, 1])
    y = cpvm_inner_diagonal(_row(x, ctx16), cpvm_plaintexts(np.eye(4, dtype=np.int64), ctx16), ctx16)
    assert (ctx16.decrypt(y)[:4] == x).all()


def test_cpvm_hand_example(ctx16):
    y = cpvm_inner_diagonal(_row([1, 2], ctx16), cpvm_plaintexts(np.array([[5, 6], [7, 8]]), ctx16), ctx16)
    assert (ctx16.decrypt(y)[:2] == [19, 22]).all()


def test_cpvm_random_oracle(ctx64, rng):
    p = ctx64.params.plain_modulus
    for _ in range(30):
        d1, d2 = (int(v) for v in rng.integers(1, 17, 2))
        x = rng.integers(0, p, d1)
        W = rng.integers(0, p, (d1, d2))
        y = cpvm_inner_diagonal(_row(x, ctx64), cpvm_plaintexts(W, ctx64), ctx64)
        assert (ctx64.decrypt(y)[:d2] == (x @ W) % p).all()


def test_cpvm_cost_depends_only_on_dims(ctx64, rng):
    """Identical counter deltas for repeated calls: no hidden length input."""
    W = rng.integers(0, 97, (8, 4))
    deltas = []
    for _ in range(3):
        x = _row(rng.integers(0, 97, 8), ctx64)
        start = ctx64.counter.snapshot()
        cpvm_inner_diagonal(x, cpvm_plaintexts(W, ctx64), ctx64)
        deltas.append(ctx64.counter.delta(start))
    assert deltas[0] == deltas[1] == deltas[2]


def test_cpvm_rotation_growth_logarithmic(rng):
    """Doubling d1 adds at most one rotation (fold depth grows by one)."""
    p = default_plain_modulus(512, 26)
    ctx = Context(BackendParams(n_slots=512, plain_modulus=p), seed=0)
    d2 = 8
    rots = {}
    for d1 in (64, 128, 256, 512):
        xv = rng.integers(0, p, d1)
        x = _row(xv, ctx)
        W = rng.integers(0, p, (d1, d2))
        start = ctx.counter.snapshot()
        y = cpvm_inner_diagonal(x, cpvm_plaintexts(W, ctx), ctx)
        rots[d1] = ctx.counter.delta(start)["rotate"]
        assert (ctx.decrypt(y)[:d2] == (xv @ W) % p).all()
    for lo, hi in ((64, 128), (128, 256), (256, 512)):
        assert 0 <= rots[hi] - rots[lo] <= 1


def test_cpvm_single_output_ciphertext(ctx64, rng):
    x = _row(rng.integers(0, 97, 8), ctx64)
    W = rng.integers(0, 97, (8, 4))
    y = cpvm_inner_diagonal(x, cpvm_plaintexts(W, ctx64), ctx64)
    assert y.n_slots == 64  # one ciphertext carries the whole projection


def test_cpvm_mult_count_is_padded_output_width(ctx64, rng):
    for d2, want in ((4, 4), (5, 8), (8, 8)):
        x = _row(rng.integers(0, 97, 8), ctx64)
        W = rng.integers(0, 97, (8, d2))
        start = ctx64.counter.snapshot()
        cpvm_inner_diagonal(x, cpvm_plaintexts(W, ctx64), ctx64)
        assert ctx64.counter.delta(start)["mult_plain"] == want
