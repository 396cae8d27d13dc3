"""Toy decoder-only transformer wired through every kernel, plus the
plaintext fixed-point oracle it is verified against.

Weights are stored as signed scale-f integers in read-only arrays, so a
model is independent of the backend modulus; the linear kernels reduce
them mod p.  A model keeps the CPVM plaintexts of each weight it has
multiplied by during decoding, per backend parameters, and reuses them
for every later token, as a server holding the weights would; a bias is
encoded per call, in either phase.  The encrypted pipeline and the oracle
share the arithmetic in ``fixedpoint`` (one implementation of truncation,
GELU, softmax, layernorm), which is what makes token-exact equivalence
checkable.

Decoding is greedy; the argmax runs client-side on decrypted logits.  A
model directory's manifest is the config and its ``_weight_table``, which
``save_model`` writes and ``load_model`` requires.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .arcc import attention_step, prefill_attention
from .backend import BackendParams, Context, ParameterError
from .encodings import Encoding, EncodingKind, PackedMatrix, block_capacity, encode, load_matrix, save_matrix
from .fixedpoint import (
    FixedPointParams,
    causal_attention_weights,
    fp_gelu,
    fp_layernorm,
    fp_truncate,
    to_signed,
)
from .kv_cache import _check_layout, append_token, cache_stats, init_cache, maybe_refresh
from .linear_kernels import CpvmPlaintexts, cpmm_outer_diagonal, cpvm_inner_diagonal, cpvm_plaintexts
from .nonlinear import MpcChannel, he_to_shares, roundtrip, shares_to_he, truncate

__all__ = [
    "GenerationState",
    "Model",
    "ModelConfig",
    "bolt_reference_generate",
    "decode_step",
    "generate",
    "generate_toy_model",
    "load_model",
    "oracle_generate",
    "plan",
    "prefill",
    "save_model",
    "toy_config",
]


@dataclass(frozen=True)
class ModelConfig:
    layers: int
    d1: int
    heads: int
    ffn_dim: int
    vocab: int
    max_seq: int
    f: int = 8  # fraction bits of the fixed-point embedding

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if type(v) is not int:
                raise ParameterError(f"{f.name} must be an int, got {v!r}")
        if min(self.layers, self.d1, self.heads, self.ffn_dim, self.vocab, self.max_seq, self.f) < 1:
            raise ParameterError("all model dimensions and f must be positive")
        if self.d1 % self.heads:
            raise ParameterError(f"d1 ={self.d1} must be divisible by heads ={self.heads}")
        if self.d1 < 2:
            raise ParameterError(f"d1 ={self.d1}: LayerNorm needs at least two features")

    @property
    def d2(self) -> int:
        return self.d1 // self.heads

    def as_dict(self) -> dict:
        return asdict(self)


def toy_config() -> ModelConfig:
    """The bundled toy fixture: 2 layers, d1=32, 4 heads, vocab 64."""
    return ModelConfig(layers=2, d1=32, heads=4, ffn_dim=64, vocab=64, max_seq=160, f=8)


@dataclass
class Model:
    """A model's config and weights, the names and shapes of its
    ``_weight_spec``.  The arrays are made read-only, so the plaintexts
    memoized from them can never go stale; a copy or an unpickled model
    is made the same way, with no memo."""

    config: ModelConfig
    weights: dict  # name -> signed int64 array at scale f

    def __post_init__(self):
        want = {name: shape for name, (shape, _, _) in _weight_spec(self.config).items()}
        have = {name: W.shape for name, W in self.weights.items()}
        if have != want:
            name = next(name for name in [*want, *have] if have.get(name) != want.get(name))
            got, spec = have.get(name, "absent"), want.get(name, "absent")
            raise ParameterError(f"weight {name!r}: shape {got}, config spec {spec}")
        for W in self.weights.values():
            W.setflags(False)
        # (weight name, head or None, BackendParams) -> CpvmPlaintexts
        self._cpvm: dict = {}

    def __getstate__(self):
        return {"config": self.config, "weights": self.weights}

    def __setstate__(self, state):
        self.__init__(**state)

    def weight(self, name: str, head: int | None = None) -> np.ndarray:
        """Weight ``name``, or head ``head``'s d2 columns of it."""
        W = self.weights[name]
        d2 = self.config.d2
        return W if head is None else W[:, head * d2 : (head + 1) * d2]

    def cpvm_weights(self, name: str, head: int | None, ctx: Context) -> CpvmPlaintexts:
        """The CPVM plaintexts of ``weight(name, head)`` under ctx's
        params, encoded on first use and kept for every later call."""
        key = (name, head, ctx.params)
        prepared = self._cpvm.get(key)
        if prepared is None:
            prepared = self._cpvm[key] = cpvm_plaintexts(self.weight(name, head), ctx)
        return prepared


def _weight_spec(c: ModelConfig) -> dict:
    """Every weight in draw order: name -> (shape, mean, std) of its normal."""
    vec, gain = ((c.d1,), 0.0, 0.05), ((c.d1,), 1.0, 0.05)
    layer = {
        **dict.fromkeys(("wq", "wk", "wv", "wo"), ((c.d1, c.d1), 0.0, 0.9 / np.sqrt(c.d1))),
        "w1": ((c.d1, c.ffn_dim), 0.0, 1.0 / np.sqrt(c.d1)),
        "w2": ((c.ffn_dim, c.d1), 0.0, 1.0 / np.sqrt(c.ffn_dim)),
        "b1": ((c.ffn_dim,), 0.0, 0.05),
        "b2": vec,
        "ln1_g": gain,
        "ln1_b": vec,
        "ln2_g": gain,
        "ln2_b": vec,
    }
    return {
        "tok_emb": ((c.vocab, c.d1), 0.0, 0.8),
        "pos_emb": ((c.max_seq, c.d1), 0.0, 0.8),
        **{f"layer{l}.{k}": v for l in range(c.layers) for k, v in layer.items()},
        # untied unembedding keeps greedy streams from locking onto one token
        "unembed": ((c.d1, c.vocab), 0.0, 0.6),
    }


def generate_toy_model(config: ModelConfig, seed: int = 0) -> Model:
    """Deterministic random weights, quantized to scale-f integers."""
    rng = np.random.default_rng(np.random.SeedSequence([0xC0DE, seed]))
    return Model(
        config,
        {
            name: np.round(rng.normal(mean, std, shape) * (1 << config.f)).astype(np.int64)
            for name, (shape, mean, std) in _weight_spec(config).items()
        },
    )


def _weight_table(c: ModelConfig) -> dict:
    """The weights of a model directory's manifest: every weight's file,
    a bare name in the directory, and shape."""
    return {
        name: {"file": name.replace(".", "_") + ".bin", "shape": list(shape)}
        for name, (shape, _, _) in _weight_spec(c).items()
    }


def save_model(model: Model, path) -> None:
    """Manifest JSON (the config and its ``_weight_table``) plus one binary
    matrix file per weight (p=0 marks signed fixed-point payloads)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    table = _weight_table(model.config)
    for name, entry in table.items():
        W = model.weights[name]
        save_matrix(path / entry["file"], W.reshape(-1, W.shape[-1]), p=0)
    manifest = {"config": model.config.as_dict(), "weights": table}
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def load_model(path) -> Model:
    """Load a saved model directory.  Its manifest's weights must be the
    ``_weight_table`` of its config, checked before any weight file is
    read, so only files in the directory are read; each file must then
    hold its weight's words under the p = 0 marker ``save_model`` writes."""
    path = Path(path)
    try:
        manifest = json.loads((path / "manifest.json").read_text())
        config = ModelConfig(**manifest["config"])
    except (OSError, KeyError, TypeError, ValueError) as e:  # no manifest, not JSON, or no config
        raise ParameterError(f"{path}: no readable manifest.json with a config ({e!r})") from e
    table = _weight_table(config)
    _check_layout(manifest, {"weights": table}, f"{path}: manifest")
    weights = {}
    for name, entry in table.items():
        file, shape = path / entry["file"], tuple(entry["shape"])
        mat, modulus = load_matrix(file)
        if modulus != 0:
            raise ParameterError(f"{file}: header modulus {modulus}, not the p = 0 of signed weights")
        if mat.size != np.prod(shape):
            raise ParameterError(f"{file}: {mat.size} words do not fill {name}'s shape {shape}")
        weights[name] = mat.reshape(shape)
    return Model(config, weights)


# ----------------------------------------------------------------------
# shared pipeline arithmetic
# ----------------------------------------------------------------------


def _is_int(v) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _embed(model: Model, token: int, position: int) -> np.ndarray:
    if not _is_int(token):
        raise ParameterError(f"token {token!r} is not an integer")
    if not 0 <= token < model.config.vocab:
        raise ParameterError(f"token {token} out of vocabulary")
    return model.weights["tok_emb"][token] + model.weights["pos_emb"][position]


def _modmul(x: np.ndarray, W: np.ndarray, p: int) -> np.ndarray:
    """Signed matmul with the same mod-p wrap semantics as the backend."""
    return to_signed(np.mod(x.astype(np.int64) @ W.astype(np.int64), p), p)


@dataclass
class GenerationState:
    caches: list  # [layer][head] -> KVCache
    next_logits: np.ndarray


# ----------------------------------------------------------------------
# oracle (plaintext fixed point, identical arithmetic)
# ----------------------------------------------------------------------


def _oracle_block(model, l, X, fp, p, caches):
    """One layer on the r x d1 rows X that follow the positions held in
    caches[l], a (K, V) pair of row lists per head, which gain the rows.
    Row i is scored at query position len(K) - r + i, one
    ``causal_attention_weights`` call per row per head, as the encrypted
    softmax reads a row's position off its scores."""
    c = model.config
    prefix = f"layer{l}."
    W = {name.removeprefix(prefix): w for name, w in model.weights.items() if name.startswith(prefix)}
    r = X.shape[0]
    heads_out = []
    for h, (Kc, Vc) in enumerate(caches[l]):
        Q, K, V = (
            fp_truncate(_modmul(X, model.weight(prefix + name, h), p), fp.f) for name in ("wq", "wk", "wv")
        )
        Kc.extend(K)
        Vc.extend(V)
        Kall, Vall = np.asarray(Kc), np.asarray(Vc)
        O = np.zeros((r, c.d2), dtype=np.int64)
        for i in range(r):
            s = to_signed(np.mod(Q[i] @ Kall.T, p), p)
            a = causal_attention_weights(s, len(Kall) - r + i, c.d2, fp)
            O[i] = fp_truncate(to_signed(np.mod(a @ Vall, p), p), fp.f)
        heads_out.append(O)
    attn = fp_truncate(_modmul(np.concatenate(heads_out, axis=1), W["wo"], p), fp.f)
    X = np.stack([fp_layernorm(X[i] + attn[i], W["ln1_g"], W["ln1_b"], fp) for i in range(r)])
    h1 = _modmul(X, W["w1"], p) + (W["b1"] << fp.f)
    hact = fp_gelu(fp_truncate(h1, fp.f), fp)
    h2 = fp_truncate(_modmul(hact, W["w2"], p) + (W["b2"] << fp.f), fp.f)
    return np.stack([fp_layernorm(X[i] + h2[i], W["ln2_g"], W["ln2_b"], fp) for i in range(r)])


def oracle_generate(model: Model, prompt: list, k: int, p: int) -> list:
    """Greedy generation in plain fixed-point arithmetic, ground truth for
    every equivalence test: the prompt's rows, then each chosen token's."""
    c = model.config
    fp = _check_arithmetic(c, p, len(prompt), k)
    caches = [[([], []) for _ in range(c.heads)] for _ in range(c.layers)]
    seq, fed = list(prompt), 0
    while True:
        X = np.stack([_embed(model, t, i) for i, t in enumerate(seq[fed:], fed)])
        for l in range(c.layers):
            X = _oracle_block(model, l, X, fp, p, caches)
        fed = len(seq)
        if fed == len(prompt) + k:
            return seq[len(prompt) :]
        logits = fp_truncate(_modmul(X[-1:], model.weights["unembed"], p)[0], fp.f)
        seq.append(int(np.argmax(logits)))


# ----------------------------------------------------------------------
# encrypted pipeline
# ----------------------------------------------------------------------
#
# A slab is an encrypted rows x cols PackedMatrix: prefill works on the
# m x d prompt slab outer-packed (one ciphertext per column, m payload
# slots), decode on a 1 x d token inner-packed (one ciphertext, d payload
# slots).  The layer body below is written once over slabs; a stage
# supplies the three steps that depend on the packing (linear, attend,
# concat), and the rest, bias adds and round trips alike, reaches the
# slab's slots through its ``pack``/``unpack``.


def _inner_row(ct, cols: int) -> PackedMatrix:
    return PackedMatrix(Encoding(EncodingKind.INNER, 1, cols), [ct])


def _truncated(P: PackedMatrix, fp, ctx, mpc) -> PackedMatrix:
    return PackedMatrix(P.encoding, truncate([(P.parts, mpc)], P.width, fp, ctx))


def _roundtrip(P: PackedMatrix, fn, ctx, mpc) -> PackedMatrix:
    """The slab's ``roundtrip`` through fn (rows x cols array of signed
    scale-f ints -> same shape, row-wise)."""
    parts = roundtrip([(P.parts, mpc)], P.width, lambda V: P.pack(fn(P.unpack(V))), ctx)
    return PackedMatrix(P.encoding, parts)


def _add_bias(P: PackedMatrix, model: Model, name: str, ctx) -> PackedMatrix:
    """Add bias row ``name``, at scale 2f, to every row of the slab: one
    plaintext per part, every part's encoded per call in one ``plains``
    call."""
    bias = model.weights[name] << model.config.f
    rows = ctx.plains(P.pack(np.broadcast_to(bias, (P.rows, P.cols))))
    return PackedMatrix(P.encoding, [ctx.add_plain(part, v) for part, v in zip(P.parts, rows)])


def _add(A: PackedMatrix, B: PackedMatrix, ctx) -> PackedMatrix:
    return PackedMatrix(A.encoding, [ctx.add(a, b) for a, b in zip(A.parts, B.parts)])


def _layernorm_rows(model: Model, l: int, name: str, fp):
    gain, bias = model.weights[f"layer{l}.{name}_g"], model.weights[f"layer{l}.{name}_b"]
    return lambda M: np.stack([fp_layernorm(row, gain, bias, fp) for row in M])


class _Prefill:
    """Prompt slab, outer-packed: CPMM projections, the outer-packed K/V it
    leaves behind as each head's cache, and one outer-outer attention over
    all heads."""

    @staticmethod
    def linear(X, model, name, head, ctx):
        return cpmm_outer_diagonal(X, model.weight(name, head), ctx)

    @staticmethod
    def attend(caches, q, k, v, fp, ctx, chs):
        caches[:] = [init_cache(kh, vh, ctx) for kh, vh in zip(k, v)]
        return prefill_attention(q, k, v, fp, ctx, chs)

    @staticmethod
    def concat(heads, ctx):
        parts = [part for O in heads for part in O.parts]
        return PackedMatrix(replace(heads[0].encoding, cols=len(parts)), parts)


class _Decode:
    """One token, inner-packed: CPVM projections, cache appends, and one
    attention over the heterogeneous caches of all heads;
    heads concatenate by rotation."""

    @staticmethod
    def linear(x, model, name, head, ctx):
        W = model.cpvm_weights(name, head, ctx)
        return _inner_row(cpvm_inner_diagonal(x.parts[0], W, ctx), W.shape[1])

    @staticmethod
    def attend(caches, q, k, v, fp, ctx, chs):
        caches[:] = [append_token(kv, kh.parts[0], vh.parts[0], ctx) for kv, kh, vh in zip(caches, k, v)]
        outs = attention_step([x.parts[0] for x in q], caches, fp, ctx, chs)
        return [_inner_row(o, q[0].cols) for o in outs]

    @staticmethod
    def concat(heads, ctx):
        d = heads[0].cols
        o = ctx.sum(ctx.rotate(O.parts[0], -(h * d)) if h else O.parts[0] for h, O in enumerate(heads))
        return _inner_row(o, d * len(heads))


def _channels(ctx: Context, c: ModelConfig, chans=None, root=None) -> dict:
    """``chans``, checked to hold every (layer, head) key and "common", each
    over the context's modulus.  Without them, one channel per key, seeded
    from ``root``, or from a fresh child of the context's seed when it is
    None."""
    p = ctx.params.plain_modulus
    keys = [(l, h) for l in range(c.layers) for h in range(c.heads)] + ["common"]
    if chans is None:
        kids = (root or ctx.spawn_seed()).spawn(len(keys))
        chans = {key: MpcChannel(p, kid) for key, kid in zip(keys, kids)}
    missing = [key for key in keys if key not in chans]
    if missing:
        raise ParameterError(f"no MPC channel for {', '.join(map(repr, missing))}")
    for key, ch in chans.items():
        if ch.p != p:
            raise ParameterError(f"MPC channel {key!r} is over modulus {ch.p}, the context over {p}")
    return chans


def _charged(ctx, fn, *args):
    """Call fn(*args); returns its result and the op counter delta, which
    carries the MPC bytes the protocols charged."""
    before = ctx.counter.snapshot()
    return fn(*args), ctx.counter.delta(before)


def _check_length(c: ModelConfig, m: int, k: int) -> None:
    """A prompt of m >= 1 tokens and an integer k >= 0 after it fit max_seq."""
    if not _is_int(k):
        raise ParameterError(f"k must be an integer, got {k!r}")
    if k < 0:
        raise ParameterError(f"cannot generate {k} tokens")
    if m < 1:
        raise ParameterError("empty prompt")
    if m + k > c.max_seq:
        raise ParameterError("prompt + generation exceeds max_seq")


def _check_arithmetic(c: ModelConfig, p: int, m: int, k: int) -> FixedPointParams:
    """The rules of a run with an m-token prompt and k decode steps that no
    slot count enters: the length rule, product headroom under modulus p and
    softmax rows of at most 2^(2f) keys.  Returns the run's FixedPointParams."""
    _check_length(c, m, k)
    fp = FixedPointParams(c.f, p)
    keys = 1 << 2 * c.f
    if m + k > keys:
        raise ParameterError(
            f"softmax rows of m + k = {m + k} keys exceed 2^(2f) = {keys} at f = {c.f}, "
            "the row length the Newton reciprocal is exact for"
        )
    return fp


def plan(c: ModelConfig, params: BackendParams, m: int, k: int) -> FixedPointParams:
    """Checks, before any op, every setup rule of a run with an m-token prompt
    and k decode steps: ``_check_arithmetic``'s, a head width the cache blocks
    tile, and no packed row or column, nor a CPVM over one (the decode FFN's
    when k >= 1), wider than n.  Returns the run's FixedPointParams."""
    fp = _check_arithmetic(c, params.plain_modulus, m, k)
    n = params.n_slots
    block_capacity(n, c.d2)
    for name, width in (("prefix", m), ("d1", c.d1), ("vocab", c.vocab), ("ffn_dim", c.ffn_dim if k else 0)):
        if width > n:
            raise ParameterError(f"{name} = {width} exceeds the {n} slots")
    return fp


def _check_state(c: ModelConfig, state: GenerationState, params: BackendParams) -> None:
    """A state decode_step can run under params: c.layers x c.heads caches
    of width d2 whose ciphertexts were made under params.  One part per
    segment is checked, as every part of a state comes from the context
    that made it."""
    if [[kv.d2 for kv in row] for row in state.caches] != [[c.d2] * c.heads] * c.layers:
        raise ParameterError(f"the state's caches are not {c.layers} x {c.heads} caches of width {c.d2}")
    parts = [seg.parts[0] for row in state.caches for kv in row for _, seg in kv.segments() if seg.parts]
    if any(part.params is not params and part.params != params for part in parts):
        raise ParameterError("the state's ciphertexts were made under other parameters")


def _heads(model: Model, l: int, X: PackedMatrix, stage, caches, fp, ctx, chans) -> list:
    """Layer l's attention over all heads in one pass, stage by stage, head
    h on channel (l, h): projections, one truncate of all q/k/v, attention.
    Returns the outputs; the rest is dropped before the layer goes on."""
    heads = range(model.config.heads)
    chs = [chans[(l, h)] for h in heads]
    proj = [[stage.linear(X, model, f"layer{l}.{name}", h, ctx) for name in ("wq", "wk", "wv")] for h in heads]
    groups = [([ct for P in qkv for ct in P.parts], ch) for qkv, ch in zip(proj, chs)]
    cts = iter(truncate(groups, proj[0][0].width, fp, ctx))
    q, k, v = zip(*[[PackedMatrix(P.encoding, list(islice(cts, len(P.parts)))) for P in qkv] for qkv in proj])
    return stage.attend(caches[l], q, k, v, fp, ctx, chs)


def _layer(model: Model, l: int, X: PackedMatrix, stage, caches, fp, ctx, chans):
    """One transformer layer on slab X through the stage's three steps:
    one ``_heads`` pass, then wo, LN1, the FFN (its biases added by
    ``_add_bias``) and LN2 on the common channel.  Replaces caches[l] with
    the stage's per-head caches."""
    O = stage.concat(_heads(model, l, X, stage, caches, fp, ctx, chans), ctx)

    ch = chans["common"]

    def dense(X, name):
        return stage.linear(X, model, f"layer{l}.{name}", None, ctx)

    attn = _truncated(dense(O, "wo"), fp, ctx, ch)
    X = _roundtrip(_add(X, attn, ctx), _layernorm_rows(model, l, "ln1", fp), ctx, ch)
    H = _add_bias(dense(X, "w1"), model, f"layer{l}.b1", ctx)
    H = _roundtrip(H, lambda M: fp_gelu(fp_truncate(M, fp.f), fp), ctx, ch)
    H = _add_bias(dense(H, "w2"), model, f"layer{l}.b2", ctx)
    H = _roundtrip(H, lambda M: fp_truncate(M, fp.f), ctx, ch)
    return _roundtrip(_add(X, H, ctx), _layernorm_rows(model, l, "ln2", fp), ctx, ch)


def _logits(model: Model, x_ct, ctx: Context) -> np.ndarray:
    """Client-side logits from an inner-packed final hidden state."""
    p = ctx.params.plain_modulus
    logits_ct = cpvm_inner_diagonal(x_ct, model.cpvm_weights("unembed", None, ctx), ctx)
    return fp_truncate(to_signed(ctx.decrypt(logits_ct), p)[: model.config.vocab], model.config.f)


def prefill(model: Model, prompt: list, ctx: Context, chans=None, threads: int = 1):
    """Batched prompt pass: outer-diagonal CPMM projections, outer-outer
    attention, MPC nonlinears; leaves outer-packed K/V caches behind.
    Without chans, fresh channels are seeded from the context.  threads
    must be 1: heads run in order on one context, and it stays only as the
    positional slot perfbench's replay passes back (ROADMAP item 7)."""
    if threads != 1:
        raise ParameterError(f"threads must be 1, got {threads!r}")
    c = model.config
    fp = plan(c, ctx.params, len(prompt), 0)
    chans = _channels(ctx, c, chans)
    m = len(prompt)

    X = np.stack([_embed(model, t, i) for i, t in enumerate(prompt)])
    X = encode(X, EncodingKind.OUTER, ctx)
    caches = [[None] * c.heads for _ in range(c.layers)]
    for l in range(c.layers):
        X = _layer(model, l, X, _Prefill, caches, fp, ctx, chans)

    # last-position logits via the decode-side kernel
    ch = chans["common"]
    last = X.unpack(he_to_shares([(X.parts, ch)], ctx, m))[m - 1]
    (x_last,) = shares_to_he([(last[None], ch)], ctx)
    return GenerationState(caches=caches, next_logits=_logits(model, x_last, ctx))


def decode_step(model: Model, state: GenerationState, ctx: Context, chans=None, threads: int = 1):
    """Select the next token greedily, then run one single-token pass:
    CPVM projections, refresh check, cache append, heterogeneous attention.
    Without chans, fresh channels are seeded from the context; threads
    must be 1, as in ``prefill``."""
    if threads != 1:
        raise ParameterError(f"threads must be 1, got {threads!r}")
    c = model.config
    _check_state(c, state, ctx.params)
    cache = state.caches[0][0]  # its prompt length and appended tokens place this step in its run
    fp = plan(c, ctx.params, cache.m, cache.t_auto + 1)
    chans = _channels(ctx, c, chans)
    token = int(np.argmax(state.next_logits))
    pos = cache.m + cache.t_auto

    pairs = [(kv, chans[l, h]) for l, kvs in enumerate(state.caches) for h, kv in enumerate(kvs)]
    fresh = iter(maybe_refresh(pairs, ctx))  # every cache in one pass, before this step's appends
    caches = [[next(fresh) for _ in row] for row in state.caches]

    X = encode(_embed(model, token, pos)[None, :], EncodingKind.INNER, ctx)
    for l in range(c.layers):
        X = _layer(model, l, X, _Decode, caches, fp, ctx, chans)

    return token, GenerationState(caches=caches, next_logits=_logits(model, X.parts[0], ctx))


def generate(model: Model, prompt: list, k: int, ctx: Context, seed: int = 0):
    """Encrypted prefill + k greedy decode steps; returns (tokens, report).
    Each call passes threads=1 positionally, as a replay expects."""
    c = model.config
    plan(c, ctx.params, len(prompt), k)
    chans = _channels(ctx, c, root=np.random.SeedSequence([0x707, seed]))
    state, prefill_counters = _charged(ctx, prefill, model, prompt, ctx, chans, 1)

    steps = []
    tokens = []
    for _ in range(k):
        # maybe_refresh counts each event it fires on the counter
        (token, state), counters = _charged(ctx, decode_step, model, state, ctx, chans, 1)
        tokens.append(token)
        stats = cache_stats(state.caches[0][0])
        steps.append(
            {
                "step": len(tokens),
                "token": token,
                "counters": counters,
                "mpc_bytes": counters["mpc_bytes"],
                "refresh_events": counters["refresh_events"],
                "cache_auto_cts": stats["auto_ct_count"],
                "cache_cts": stats["ct_count"],
            }
        )

    report = {
        "config": c.as_dict(),
        "prompt_len": len(prompt),
        "generated": k,
        "backend": {
            "n_slots": ctx.params.n_slots,
            "plain_modulus": ctx.params.plain_modulus,
        },
        "prefill": {"counters": prefill_counters, "mpc_bytes": prefill_counters["mpc_bytes"]},
        "steps": steps,
        "totals": ctx.counter.as_dict(),
    }
    return tokens, report


def bolt_reference_generate(model: Model, prompt: list, k: int, ctx: Context, seed: int = 0):
    """Stateless baseline: reprocess the full prefix with the prefill
    kernels at every step (no KV reuse).  Same tokens, quadratic cost."""
    c = model.config
    _check_length(c, len(prompt), k)
    plan(c, ctx.params, len(prompt) + max(k - 1, 0), 0)  # its widest prefill; no CPVM spans ffn_dim
    for i, token in enumerate(prompt):  # the token rule, which k = 0 reaches through no prefill
        _embed(model, token, i)
    chans = _channels(ctx, c, root=np.random.SeedSequence([0x707, seed]))
    tokens = []
    steps = []
    seq = list(prompt)
    for _ in range(k):
        state, counters = _charged(ctx, prefill, model, seq, ctx, chans)
        token = int(np.argmax(state.next_logits))
        tokens.append(token)
        seq.append(token)
        steps.append({"step": len(tokens), "token": token, "counters": counters})
    return tokens, {"steps": steps, "totals": ctx.counter.as_dict()}
