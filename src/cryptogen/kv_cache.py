"""Heterogeneous encrypted KV cache.

The prefill segment keeps keys/values outer-packed (one feature column per
ciphertext); generated tokens are appended into compacted inner-packed
ciphertexts holding B = n/d2 tokens each.  Appends are slot-aware:
the incoming token is rotated to its block, masked, and added, so a fresh
ciphertext is opened only every B tokens.

A cache is its four segments: its geometry (d2, B, the prompt length m and
the generated count t_auto) is read off their encodings, never stored
beside them.

Noise is handled lazily: before each decode step, any part whose budget has
fallen to the refresh threshold is re-encrypted by ``nonlinear.refresh``
(server subtracts a random mask r, client decrypts its share and
re-encrypts it, server adds r back), which restores a full budget without
revealing the payload.  Each refreshed part is counted on the op counter
and logged at INFO on ``cryptogen.kv_cache``; the cache keeps no record.

Cache values are immutable; append and refresh return new cache objects.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path

from .backend import Context, ParameterError, SlotCiphertext
from .encodings import (
    Encoding,
    EncodingKind,
    PackedMatrix,
    block_capacity,
    load_matrix,
    save_matrix,
)
from .nonlinear import MpcChannel, refresh

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


def _empty_auto(d2: int, B: int) -> PackedMatrix:
    enc = Encoding(EncodingKind.INNER_COMPACTED, 0, d2, block=B)
    return PackedMatrix(enc, [])


def init_cache(
    K_pref: PackedMatrix | None,
    V_pref: PackedMatrix | None,
    ctx: Context,
    d2: int | None = None,
) -> KVCache:
    """Start a cache from outer-packed prefill projections (or empty)."""
    if (K_pref is None) != (V_pref is None):
        raise ParameterError("prefill K and V must both be present or both absent")
    if K_pref is not None:
        if K_pref.encoding.kind is not EncodingKind.OUTER:
            raise ParameterError("prefill segments must be outer packings")
        if K_pref.encoding != V_pref.encoding:
            raise ParameterError(
                f"prefill K {K_pref.encoding} and V {V_pref.encoding} disagree"
            )
        if d2 is not None and d2 != K_pref.cols:
            raise ParameterError(f"d2 {d2} does not match prefill width {K_pref.cols}")
        d2 = K_pref.cols
    elif d2 is None:
        raise ParameterError("an empty cache needs an explicit d2")
    B = block_capacity(ctx.params.n_slots, d2)
    return KVCache(K_pref, V_pref, _empty_auto(d2, B), _empty_auto(d2, B))


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


def maybe_refresh(
    cache: KVCache, ctx: Context, ch: MpcChannel, force: bool = False
) -> KVCache:
    """Round-trip every part at or below the refresh threshold (all parts
    when forced).  Decoded values are unchanged; budgets reset to full.
    A cache with no such part is returned as is."""
    threshold = ctx.params.refresh_threshold

    def due(part) -> bool:
        return force or part.noise_budget <= threshold

    stale = [(name, seg) for name, seg in cache.segments() if any(map(due, seg.parts))]
    if not stale:
        return cache
    segments = {}
    for name, seg in stale:
        parts = list(seg.parts)
        for i, part in enumerate(parts):
            if due(part):
                sent = ctx.counter.mpc_bytes
                parts[i] = refresh(part, ctx, ch)
                ctx.counter.refresh_events += 1
                log.info(
                    "refresh t_auto=%d segment=%s part=%d id=%d budget=%d threshold=%d bytes=%d forced=%s",
                    cache.t_auto, name, i, part.id, part.noise_budget, threshold,
                    ctx.counter.mpc_bytes - sent, part.noise_budget > threshold,
                )
        segments[name] = PackedMatrix(seg.encoding, parts)
    return replace(cache, **segments)


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


def save_cache(cache: KVCache, path, ctx: Context) -> None:
    """Snapshot parts (binary matrix format) plus a JSON manifest.  The
    slots are written as they are, with no decryption and no op counted; a
    part of other params, or whose budget has run out, is refused before
    any file is written."""
    for name, seg in cache.segments():
        for i, part in enumerate(seg.parts):
            if part.params != ctx.params:
                raise ParameterError(f"cache {name} part {i} is under other parameters than the context")
            if part.noise_budget < 1:
                raise ParameterError(f"cache {name} part {i} has noise budget {part.noise_budget}, below 1")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "d2": cache.d2,
        "B": cache.B,
        "m": cache.m,
        "t_auto": cache.t_auto,
        "n_slots": ctx.params.n_slots,
        "p": ctx.params.plain_modulus,
        "segments": {},
    }
    for name, seg in cache.segments():
        for i, part in enumerate(seg.parts):
            save_matrix(path / f"{name}_{i}.bin", part.slots.reshape(1, -1), ctx.params.plain_modulus)
        manifest["segments"][name] = {
            "rows": seg.encoding.rows,
            "parts": len(seg.parts),
            "budgets": [part.noise_budget for part in seg.parts],
        }
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2))


def _check_manifest(manifest: dict, ctx: Context) -> None:
    """Reject a snapshot whose bookkeeping disagrees with the layout that
    ``append_token`` and the attention kernels assume."""

    def need(d: dict, keys, where: str) -> None:
        if type(d) is not dict:
            raise ParameterError(f"cache snapshot {where} is not a JSON object")
        missing = [k for k in keys if k not in d]
        if missing:
            raise ParameterError(f"cache snapshot {where} lacks {missing}")

    need(manifest, ("d2", "B", "m", "t_auto", "n_slots", "p", "segments"), "manifest")
    if manifest["n_slots"] != ctx.params.n_slots or manifest["p"] != ctx.params.plain_modulus:
        raise ParameterError("cache snapshot was taken under different parameters")
    d2, B, m, t_auto = (manifest[k] for k in ("d2", "B", "m", "t_auto"))
    if any(type(v) is not int for v in (d2, B, m, t_auto)):
        raise ParameterError(f"cache snapshot d2, B, m and t_auto {(d2, B, m, t_auto)} are not all integers")
    if B != block_capacity(ctx.params.n_slots, d2):
        raise ParameterError(
            f"cache snapshot block capacity {B} is not {ctx.params.n_slots}/{d2}"
        )
    segments = manifest["segments"]
    need(segments, ("auto_K", "auto_V"), "segments")
    prefill = [name for name in ("prefill_K", "prefill_V") if name in segments]
    if len(prefill) == 1 or (not prefill and m != 0):
        raise ParameterError(f"cache snapshot has prefill segments {prefill} but m={m}")
    for name in prefill + ["auto_K", "auto_V"]:
        meta = segments[name]
        need(meta, ("rows", "parts", "budgets"), name)
        # prefill: one outer-packed column per part; auto: B rows per part
        rows, parts = (m, d2) if name in prefill else (t_auto, -(-t_auto // B))
        if type(meta["budgets"]) is not list:
            raise ParameterError(f"cache snapshot {name} budgets is not a list")
        got = (meta["rows"], meta["parts"], len(meta["budgets"]))
        if got != (rows, parts, parts):
            raise ParameterError(
                f"cache snapshot {name} has (rows, parts, budgets) {got}, "
                f"expected {(rows, parts, parts)}"
            )
        # save_cache refuses a part whose budget is below 1
        top = ctx.params.initial_noise_budget
        bad = [b for b in meta["budgets"] if type(b) is not int or not 1 <= b <= top]
        if bad:
            raise ParameterError(f"cache snapshot {name} has budgets {bad} outside [1, {top}]")


def load_cache(path, ctx: Context) -> KVCache:
    """Restore a snapshot written by ``save_cache``.  A missing manifest,
    one that is not JSON or does not match its own layout, or a part file
    that is not one row of n words in [0, p) under the context's p, raises
    ParameterError before any ciphertext is issued.  Keys it does not read,
    such as the refresh records older snapshots carry, are ignored."""
    path = Path(path)
    try:
        manifest = json.loads((path / "manifest.json").read_text())
    except (OSError, ValueError) as e:  # no manifest, or one that is not JSON
        raise ParameterError(f"{path}: no readable manifest.json ({e})") from e
    _check_manifest(manifest, ctx)
    d2, B, segments = manifest["d2"], manifest["B"], manifest["segments"]
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

    present = [name for name in SEGMENTS if name in segments]
    slots = {name: [read(name, i) for i in range(segments[name]["parts"])] for name in present}
    kinds = {"prefill": (EncodingKind.OUTER, None), "auto": (EncodingKind.INNER_COMPACTED, B)}
    loaded = dict.fromkeys(SEGMENTS)
    for name, vals in slots.items():
        meta, (kind, block) = segments[name], kinds[name.split("_")[0]]
        parts = [ctx.load_ciphertext(v, budget) for v, budget in zip(vals, meta["budgets"])]
        loaded[name] = PackedMatrix(Encoding(kind, meta["rows"], d2, block=block), parts)
    return KVCache(**loaded)
