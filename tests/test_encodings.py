import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cryptogen.backend import BackendParams, Context, ParameterError, default_plain_modulus
from cryptogen.encodings import (
    Encoding,
    EncodingKind,
    PackedMatrix,
    decode,
    encode,
    load_matrix,
    next_pow2,
    save_matrix,
    tile_token,
    MATRIX_MAGIC,
)


def test_outer_identity_example(ctx16):
    P = encode(np.eye(2, dtype=np.int64), EncodingKind.OUTER, ctx16)
    assert (ctx16.decrypt(P.parts[0])[:4] == [1, 0, 0, 0]).all()
    assert (ctx16.decrypt(P.parts[1])[:4] == [0, 1, 0, 0]).all()


def test_inner_example(ctx16):
    P = encode([[1, 2], [3, 4]], EncodingKind.INNER, ctx16)
    assert (ctx16.decrypt(P.parts[0])[:3] == [1, 2, 0]).all()
    assert (ctx16.decrypt(P.parts[1])[:3] == [3, 4, 0]).all()


_CTX = {
    n: Context(BackendParams(n_slots=n, plain_modulus=default_plain_modulus(n, 20)))
    for n in (16, 64)
}


@pytest.mark.parametrize("kind", list(EncodingKind))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_roundtrip_all_kinds(kind, data):
    """decode(encode(A)) == A mod p with one encrypt per part, ceil(m/B)
    parts (B = 1 unless compacted; d parts if outer) and zero slots outside
    the payload, for every kind, m in 0..8 and every d that fits n; A
    itself is left as it was."""
    n = data.draw(st.sampled_from(sorted(_CTX)), label="n")
    ctx = _CTX[n]
    p = ctx.params.plain_modulus
    m = data.draw(st.integers(0, 8), label="m")
    if kind is EncodingKind.INNER_COMPACTED:
        d = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]), label="d")
    else:
        d = data.draw(st.integers(1, n), label="d")
    A = data.draw(hnp.arrays(np.int64, (m, d), elements=st.integers(-p, 2 * p)), label="A")
    given = A.copy()
    start = ctx.counter.snapshot()
    P = encode(A, kind, ctx)
    assert ctx.counter.delta(start)["encrypt"] == len(P.parts)
    assert (A == given).all()  # the caller's matrix is not reduced in place
    B = n // d if kind is EncodingKind.INNER_COMPACTED else 1
    assert len(P.parts) == (d if kind is EncodingKind.OUTER else -(-m // B))
    # payload slots of each part: the columns (outer) or B d-wide rows (inner)
    for q, part in enumerate(P.parts):
        filled = m if kind is EncodingKind.OUTER else min(B, m - q * B) * d
        assert not ctx.decrypt(part)[filled:].any()
    assert (decode(P, ctx) == np.mod(A, p)).all()


@pytest.mark.parametrize("kind", list(EncodingKind))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_pack_unpack_all_kinds(kind, data):
    """pack lays a matrix, with or without a leading axis of 0-3 heads, out
    as ceil(vectors / per_part) slot rows of per_part * width slots, zero
    outside the payload; unpack inverts it and reads no other slot; a
    compacted row r is flat slots r*d..r*d+d-1 of the rows laid end to end.
    Covers m = 0 and the zero-part pack of an empty compacted matrix."""
    n = data.draw(st.sampled_from([16, 64]), label="n")
    m = data.draw(st.integers(0, 8), label="m")
    compacted, outer = kind is EncodingKind.INNER_COMPACTED, kind is EncodingKind.OUTER
    if compacted:
        d = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]), label="d")
    else:
        d = data.draw(st.integers(1, n), label="d")
    lead = data.draw(st.sampled_from([(), (0,), (1,), (2,), (3,)]), label="heads")
    P = PackedMatrix(Encoding(kind, m, d, block=n // d if compacted else None), [])
    M = data.draw(hnp.arrays(np.int64, (*lead, m, d), elements=st.integers(-(2**40), 2**40)), label="M")

    S = P.pack(M)
    B, width, vectors = (n // d if compacted else 1), (m if outer else d), (d if outer else m)
    parts = -(-vectors // B)
    assert S.shape == (*lead, parts, B * width)
    payload = np.zeros((parts * B, width), dtype=bool)
    payload[:vectors] = True
    payload = payload.reshape(parts, B * width)
    assert not S[..., ~payload].any()
    assert (P.unpack(S) == M).all() and P.unpack(S).shape == M.shape
    if B == 1:
        assert not S.flags.writeable and (M.size == 0 or np.shares_memory(S, M))

    junk = data.draw(hnp.arrays(np.int64, (*lead, parts, n), elements=st.integers(1, 99)), label="junk")
    junk[..., : B * width] = np.where(payload, S, junk[..., : B * width])
    assert (P.unpack(junk) == M).all()

    if compacted:
        flat = S.reshape(*lead, parts * n)
        for r in range(m):
            assert (flat[..., r * d : r * d + d] == M[..., r, :]).all()


def test_inner_compacted_block_layout():
    from cryptogen.backend import BackendParams, Context

    ctx = Context(BackendParams(n_slots=8, plain_modulus=17), seed=0)
    A = np.array([[1, 2], [3, 4], [5, 6]])
    P = encode(A, EncodingKind.INNER_COMPACTED, ctx)
    assert P.encoding.block == 4
    assert len(P.parts) == 1
    vals = ctx.decrypt(P.parts[0])
    # rows at blocks [0..1], [2..3], [4..5]
    assert (vals == [1, 2, 3, 4, 5, 6, 0, 0]).all()
    assert (decode(P, ctx) == A).all()


def test_inner_compacted_ct_count(ctx16, rng):
    B = 16 // 4
    for r in (1, 3, 4, 5, 9):
        A = rng.integers(0, 97, (r, 4))
        P = encode(A, EncodingKind.INNER_COMPACTED, ctx16)
        assert len(P.parts) == -(-r // B)


def test_transpose_duality(ctx16, rng):
    """Outer(A) and Inner(A^T) produce identical slot vectors."""
    A = rng.integers(0, 97, (5, 3))
    P_outer = encode(A, EncodingKind.OUTER, ctx16)
    P_inner = encode(A.T, EncodingKind.INNER, ctx16)
    for a, b in zip(P_outer.parts, P_inner.parts):
        assert (ctx16.decrypt(a) == ctx16.decrypt(b)).all()


def test_tile_token(ctx16):
    ct = ctx16.encrypt(ctx16.plains([[1, 2]])[0])
    same = tile_token(ct, 2, 1, ctx16)
    assert (ctx16.decrypt(same) == ctx16.decrypt(ct)).all()
    tiled = tile_token(ct, 2, 8, ctx16)
    assert (ctx16.decrypt(tiled) == [1, 2] * 8).all()
    # rotation count is ceil(log2 B)
    start = ctx16.counter.snapshot()
    tile_token(ctx16.encrypt(ctx16.plains([[5, 6]])[0]), 2, 8, ctx16)
    assert ctx16.counter.delta(start)["rotate"] == 3


def test_dimension_errors(ctx16):
    with pytest.raises(ParameterError):
        encode(np.zeros((17, 2)), EncodingKind.OUTER, ctx16)
    with pytest.raises(ParameterError):
        encode(np.zeros((2, 17)), EncodingKind.INNER, ctx16)
    with pytest.raises(ParameterError):
        tile_token(ctx16.encrypt(ctx16.plains([[1]])[0]), 5, 4, ctx16)


def test_matrix_file_roundtrips(tmp_path, rng):
    A = rng.integers(0, 1000, (3, 5))
    path = tmp_path / "m.bin"
    save_matrix(path, A, p=97)
    B, p = load_matrix(path)
    assert p == 97 and (B == A).all()


def test_matrix_binary_layout(tmp_path):
    """Bit-exact little-endian layout: 8-word header then row-major words."""
    path = tmp_path / "m.bin"
    save_matrix(path, np.array([[1, 2], [3, 4]]), p=17)
    raw = path.read_bytes()
    assert len(raw) == 64 + 4 * 8
    words = np.frombuffer(raw, dtype="<u8")
    assert words[0] == MATRIX_MAGIC
    assert (words[1:4] == [2, 2, 17]).all()
    assert (words[8:] == [1, 2, 3, 4]).all()


def test_matrix_file_errors(tmp_path):
    # values int64 cannot hold exactly are refused, not truncated or wrapped
    for A in (np.array([[1.7, -2.9]]), np.array([[2**64 - 1]], dtype=np.uint64)):
        with pytest.raises(ParameterError):
            save_matrix(tmp_path / "inexact.bin", A, p=97)
    assert not (tmp_path / "inexact.bin").exists()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00" * 16)
    with pytest.raises(ParameterError):
        load_matrix(bad)
    wrong_magic = tmp_path / "magic.bin"
    wrong_magic.write_bytes(b"\x01" * 64)
    with pytest.raises(ParameterError):
        load_matrix(wrong_magic)
    # a file that cannot be read is refused the same way, naming it
    (tmp_path / "dir.bin").mkdir()
    for unreadable in ("missing.bin", "dir.bin"):
        with pytest.raises(ParameterError, match=f"{unreadable}: cannot read the matrix file"):
            load_matrix(tmp_path / unreadable)


def test_next_pow2():
    assert [next_pow2(x) for x in (1, 2, 3, 5, 8, 9)] == [1, 2, 4, 8, 8, 16]
