"""Heterogeneous encrypted KV cache.

The prefill segment keeps keys/values outer-packed (one feature column per
ciphertext); generated tokens are appended into compacted inner-packed
ciphertexts holding B = n/d2 tokens each.  Appends are slot-aware:
the incoming token is rotated to its block, masked, and added, so a fresh
ciphertext is opened only every B tokens.

A cache is its four segments, in one form that every construction checks:
its geometry (d2, B, the prompt length m and the generated count t_auto) is
read off their encodings, never stored beside them.  A snapshot's manifest
is the ``_layout`` that d2, m and t_auto give, which ``save_cache`` writes
and ``load_cache`` requires, plus each part's budget.

Noise is handled lazily: before each decode step, every part of every cache
whose budget has fallen to the refresh threshold is re-encrypted in one
``nonlinear.refresh`` pass (server subtracts a random mask r, client decrypts
its share and re-shares the value under a fresh mask), restoring a full budget
without revealing the payload.  Each refreshed part is counted on the op
counter and logged at INFO on ``cryptogen.kv_cache`` with its share of the
pass's charged bytes; the cache keeps no record.

Cache values are immutable; append and refresh return new cache objects.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path

from .backend import BackendParams, Context, ParameterError, SlotCiphertext
from .encodings import (
    Encoding,
    EncodingKind,
    PackedMatrix,
    block_capacity,
    load_matrix,
    save_matrix,
)
from .nonlinear import refresh

__all__ = [
    "KVCache",
    "append_token",
    "cache_stats",
    "init_cache",
    "load_cache",
    "maybe_refresh",
    "save_cache",
]


log = logging.getLogger(__name__)
SEGMENTS = ("prefill_K", "prefill_V", "auto_K", "auto_V")  # the KVCache fields


@dataclass(frozen=True)
class KVCache:
    prefill_K: PackedMatrix | None
    prefill_V: PackedMatrix | None
    auto_K: PackedMatrix
    auto_V: PackedMatrix

    def __post_init__(self):
        """The one form of a cache, checked on every construction (each
        ``replace`` too) by encoding compares and part counts alone."""
        auto, K, V = self.auto_K.encoding, self.prefill_K, self.prefill_V
        if auto.kind is not EncodingKind.INNER_COMPACTED or self.auto_V.encoding != auto:
            raise ParameterError(f"auto K {auto} and V {self.auto_V.encoding} are not one compacted encoding")
        if not len(self.auto_K.parts) == len(self.auto_V.parts) == -(-auto.rows // auto.block):
            raise ParameterError(f"auto K and V do not hold ceil({auto.rows}/{auto.block}) parts each")
        if (K is None) != (V is None):
            raise ParameterError("prefill K and V must both be present or both absent")
        if K is not None and (K.encoding.kind is not EncodingKind.OUTER or V.encoding != K.encoding):
            raise ParameterError(f"prefill K {K.encoding} and V {V.encoding} are not one outer packing")
        if K is not None and K.rows == 0:
            raise ParameterError("prefill K and V hold no rows: pass None, None and d2 for a cache with no prefill")
        if K is not None and not len(K.parts) == len(V.parts) == K.cols == auto.cols:
            raise ParameterError(f"prefill K and V are not one part per column at the cache's width {auto.cols}")

    @property
    def d2(self) -> int:
        return self.auto_K.cols

    @property
    def B(self) -> int:
        return self.auto_K.per_part

    @property
    def m(self) -> int:
        return self.prefill_K.rows if self.prefill_K is not None else 0

    @property
    def t_auto(self) -> int:
        return self.auto_K.rows

    def segments(self):
        return [(name, getattr(self, name)) for name in SEGMENTS if getattr(self, name) is not None]


def init_cache(
    K_pref: PackedMatrix | None,
    V_pref: PackedMatrix | None,
    ctx: Context,
    d2: int | None = None,
) -> KVCache:
    """Start a cache from outer-packed prefill projections of at least one
    row, or from none at width d2: the width sets B = n/d2, and ``KVCache``
    checks the rest."""
    if d2 is None:
        if K_pref is None:
            raise ParameterError("a cache with no prefill needs an explicit d2")
        d2 = K_pref.cols
    auto = Encoding(EncodingKind.INNER_COMPACTED, 0, d2, block=block_capacity(ctx.params.n_slots, d2))
    return KVCache(K_pref, V_pref, PackedMatrix(auto, []), PackedMatrix(auto, []))


def _append_one(
    seg: PackedMatrix, token: SlotCiphertext, pos: int, mask, ctx: Context, fresh: bool
) -> PackedMatrix:
    rotated = ctx.rotate(token, -pos) if pos else token
    ct_new = ctx.mult_plain(rotated, mask)
    parts = list(seg.parts)
    if fresh:
        parts.append(ctx.add(ctx.encrypt(ctx.plains([[0]])[0]), ct_new))
    else:
        parts[-1] = ctx.add(parts[-1], ct_new)
    enc = replace(seg.encoding, rows=seg.encoding.rows + 1)
    return PackedMatrix(enc, parts)


def append_token(
    cache: KVCache, k_new: SlotCiphertext, v_new: SlotCiphertext, ctx: Context
) -> KVCache:
    """Write one generated token at slot offset (t_auto mod B) * d2.

    Exactly 2 mult_plain + 2 add (K and V); one rotation each when the
    offset is nonzero; a fresh ciphertext opens only when t_auto mod B = 0.
    """
    b = cache.t_auto % cache.B
    pos = b * cache.d2
    fresh = b == 0
    mask = ctx.block_mask(pos, cache.d2)
    auto_K = _append_one(cache.auto_K, k_new, pos, mask, ctx, fresh)
    auto_V = _append_one(cache.auto_V, v_new, pos, mask, ctx, fresh)
    return replace(cache, auto_K=auto_K, auto_V=auto_V)


def maybe_refresh(caches, ctx: Context, force: bool = False) -> list:
    """Round-trip every part at or below the refresh threshold (all parts
    when forced) of the caches of (cache, channel) pairs, in one
    ``refresh`` pass: each cache's due parts are one group on its channel,
    in segment and part order.  Decoded values are unchanged; budgets reset
    to full.  Returns the caches in order, one with no such part as is."""
    threshold = ctx.params.refresh_threshold
    due = [
        [(name, i, part) for name, seg in cache.segments() for i, part in enumerate(seg.parts)
         if force or part.noise_budget <= threshold]
        for cache, _ in caches
    ]
    groups = [([part for *_, part in parts], ch) for parts, (_, ch) in zip(due, caches) if parts]
    before = ctx.counter.mpc_bytes
    fresh = iter(refresh(groups, ctx))
    part_bytes = (ctx.counter.mpc_bytes - before) // max(1, sum(map(len, due)))  # every part costs the same
    out = []
    for (cache, _), parts in zip(caches, due):
        segments = {name: list(getattr(cache, name).parts) for name, *_ in parts}
        for name, i, part in parts:
            segments[name][i] = next(fresh)
            ctx.counter.refresh_events += 1
            log.info(
                "refresh t_auto=%d segment=%s part=%d id=%d budget=%d threshold=%d bytes=%d forced=%s",
                cache.t_auto, name, i, part.id, part.noise_budget, threshold,
                part_bytes, part.noise_budget > threshold,
            )
        fields = {name: PackedMatrix(getattr(cache, name).encoding, new) for name, new in segments.items()}
        out.append(replace(cache, **fields) if parts else cache)
    return out


def cache_stats(cache: KVCache) -> dict:
    """Per-side ciphertext counts and the cache geometry (K side; V mirrors)."""
    prefill_cts = len(cache.prefill_K.parts) if cache.prefill_K is not None else 0
    return {
        "ct_count": prefill_cts + len(cache.auto_K.parts),
        "prefill_ct_count": prefill_cts,
        "auto_ct_count": len(cache.auto_K.parts),
        "m": cache.m,
        "t_auto": cache.t_auto,
        "B": cache.B,
    }


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------


def _layout(d2: int, m: int, t_auto: int, params: BackendParams) -> dict:
    """The manifest ``save_cache`` writes, less the budgets, for a cache of
    width d2, t_auto appended tokens and an m-row prefill (segments iff
    m > 0): one outer-packed column per prefill part, B rows per auto part."""
    B = block_capacity(params.n_slots, d2)
    segments = {name: {"rows": m, "parts": d2} for name in SEGMENTS[:2] if m}
    segments |= {name: {"rows": t_auto, "parts": -(-t_auto // B)} for name in SEGMENTS[2:]}
    return {
        "d2": d2,
        "B": B,
        "m": m,
        "t_auto": t_auto,
        "n_slots": params.n_slots,
        "p": params.plain_modulus,
        "segments": segments,
    }


def _check_layout(stored, want, where: str, field: str = "") -> None:
    """Raise ParameterError naming the first field of ``want``, a JSON
    object, that ``stored`` lacks or holds another value in.  Keys of
    ``stored`` that ``want`` lacks are not compared."""
    if isinstance(want, dict):
        if not isinstance(stored, dict):
            raise ParameterError(f"{where} field {field} is not a JSON object")
        for key, value in want.items():
            name = f"{field}.{key}" if field else key
            if key not in stored:
                raise ParameterError(f"{where} field {name} is missing")
            _check_layout(stored[key], value, where, name)
    elif json.dumps(stored) != json.dumps(want):
        raise ParameterError(f"{where} field {field} is {json.dumps(stored)}, expected {json.dumps(want)}")


def save_cache(cache: KVCache, path, ctx: Context) -> None:
    """Snapshot parts (binary matrix format) plus a JSON manifest, the
    cache's ``_layout`` with each segment's budgets.  The slots are written
    as they are, with no decryption and no op counted; a part of other
    params, or whose budget has run out, is refused before any file is
    written."""
    for name, seg in cache.segments():
        for i, part in enumerate(seg.parts):
            if part.params != ctx.params:
                raise ParameterError(f"cache {name} part {i} is under other parameters than the context")
            if part.noise_budget < 1:
                raise ParameterError(f"cache {name} part {i} has noise budget {part.noise_budget}, below 1")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = _layout(cache.d2, cache.m, cache.t_auto, ctx.params)
    for name, seg in cache.segments():
        for i, part in enumerate(seg.parts):
            save_matrix(path / f"{name}_{i}.bin", part.slots.reshape(1, -1), ctx.params.plain_modulus)
        manifest["segments"][name]["budgets"] = [part.noise_budget for part in seg.parts]
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_cache(path, ctx: Context) -> KVCache:
    """Restore a snapshot written by ``save_cache``: its manifest must be the
    ``_layout`` of its own d2, m and t_auto (integers >= 0) with a budget in
    [1, initial budget] per part, and each part file one row of n words in
    [0, p), or ParameterError is raised before any ciphertext is issued.
    Keys the layout does not name, such as older snapshots' refresh records
    or their empty prefill segments at m = 0, are ignored."""
    path = Path(path)
    try:
        manifest = json.loads((path / "manifest.json").read_text())
    except (OSError, ValueError) as e:  # no manifest, or one that is not JSON
        raise ParameterError(f"{path}: no readable manifest.json ({e})") from e
    if type(manifest) is not dict:
        raise ParameterError(f"{path}: cache snapshot manifest is not a JSON object")
    d2, m, t_auto = geometry = [manifest.get(k) for k in ("d2", "m", "t_auto")]
    if any(type(v) is not int or v < 0 for v in geometry):
        raise ParameterError(f"{path}: cache snapshot d2, m and t_auto {geometry} are not all integers >= 0")
    layout = _layout(d2, m, t_auto, ctx.params)
    _check_layout(manifest, layout, f"{path}: cache snapshot")
    segments = manifest["segments"]
    top = ctx.params.initial_noise_budget
    for name, meta in layout["segments"].items():
        budgets = segments[name].get("budgets")
        if type(budgets) is not list or len(budgets) != meta["parts"] or not all(
            type(b) is int and 1 <= b <= top for b in budgets
        ):
            raise ParameterError(
                f"{path}: cache snapshot {name} budgets {budgets} are not {meta['parts']} integers in [1, {top}]"
            )
    n, p = ctx.params.n_slots, ctx.params.plain_modulus

    def read(name: str, i: int):
        file = path / f"{name}_{i}.bin"
        vals, modulus = load_matrix(file)
        if modulus != p or vals.shape != (1, n) or not ((vals >= 0) & (vals < p)).all():
            raise ParameterError(
                f"{file}: expected one row of {n} words in [0, {p}) under modulus {p}, "
                f"got a {vals.shape} matrix under modulus {modulus}"
            )
        return vals[0]

    slots = {name: [read(name, i) for i in range(meta["parts"])] for name, meta in layout["segments"].items()}
    auto = Encoding(EncodingKind.INNER_COMPACTED, t_auto, d2, block=layout["B"])
    loaded = dict.fromkeys(SEGMENTS)
    for name, vals in slots.items():
        enc = auto if name in SEGMENTS[2:] else Encoding(EncodingKind.OUTER, m, d2)
        loaded[name] = PackedMatrix(enc, [ctx.load_ciphertext(v, b) for v, b in zip(vals, segments[name]["budgets"])])
    return KVCache(**loaded)
