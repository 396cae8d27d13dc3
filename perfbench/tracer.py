"""Spans around calls into the library, installed from outside it.

The tracer rebinds each listed public function in every ``cryptogen``
module that holds it, because ``model`` and ``arcc`` import kernels by name
(``from .linear_kernels import cpvm_inner_diagonal``): patching only the
defining module would miss those calls.

Two kinds of probe:

* span functions record (request, span id, parent id, name, start, end) in
  memory, and a per-name count and self time (duration minus the time
  covered by child probes);
* leaf probes -- the seven counted ``Context`` operations and
  ``MpcChannel.transfer`` -- are too frequent to keep as spans (about
  750k per request), so they keep only a count and total time, which is
  charged to the enclosing span as child time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import time

SPAN_FUNCTIONS = {
    "model": ("generate", "prefill", "decode_step"),
    "encodings": ("encode", "decode", "tile_token"),
    "linear_kernels": ("cpvm_inner_diagonal", "cpmm_outer_diagonal", "fold_sum"),
    "arcc": (
        "prefill_attention",
        "attention_step",
        "arcc_inner_inner",
        "arcc_inner_outer",
        "broadcast_slot",
    ),
    "kv_cache": ("append_token", "maybe_refresh"),
    "nonlinear": ("he_to_shares", "shares_to_he", "truncate"),
    "fixedpoint": ("attention_weights", "causal_attention_weights", "fp_layernorm", "fp_gelu"),
}


class Tracer:
    def __init__(self, cg, backend_ops):
        self._cg = cg
        self._backend_ops = backend_ops
        self._undo = []
        self._clock = time.perf_counter
        self._ids = itertools.count(1)
        self._stack = [[0, 0.0]]  # [span id, child time]; id 0 is the request root
        self.request = None
        self.spans = []
        self.stats = {}  # name -> [count, self seconds]
        self.mpc = [0, 0]  # bytes, rounds seen by MpcChannel.transfer

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self):
        cg = self._cg
        for mod_name, names in SPAN_FUNCTIONS.items():
            mod = importlib.import_module(f"cryptogen.{mod_name}")
            for name in names:
                self._rebind(getattr(mod, name), self._span(f"{mod_name}.{name}", getattr(mod, name)))
        ctx_cls = cg.backend.Context
        for op in self._backend_ops:
            self._set(ctx_cls, op, self._leaf(f"backend.{op}", getattr(ctx_cls, op)))
        self._set(cg.nonlinear.MpcChannel, "transfer", self._transfer(cg.nonlinear.MpcChannel.transfer))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Replace every module-level binding of ``original`` in the package."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cryptogen" or mod_name.startswith("cryptogen.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------

    def _span(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack, spans, ids, clock = self._stack, self.spans, self._ids, self._clock

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent[1] += t1 - t0
                stats[0] += 1
                stats[1] += t1 - t0 - frame[1]
                spans.append((self.request, frame[0], parent[0], name, t0, t1))

        return probe

    def _leaf(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack, clock = self._stack, self._clock

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack[-1][1] += dt
                stats[0] += 1
                stats[1] += dt

        return probe

    def _transfer(self, fn):
        mpc = self.mpc
        leaf = self._leaf("nonlinear.MpcChannel.transfer", fn)

        @functools.wraps(fn)
        def probe(ch, *args, **kwargs):
            bytes_before, rounds_before = ch.bytes_sent, ch.rounds
            try:
                return leaf(ch, *args, **kwargs)
            finally:
                mpc[0] += ch.bytes_sent - bytes_before
                mpc[1] += ch.rounds - rounds_before

        return probe

    # ------------------------------------------------------------------
    # per-request state and output
    # ------------------------------------------------------------------

    def begin_request(self, request_id):
        """Zero the per-name tallies; spans accumulate across requests."""
        self.request = request_id
        for s in self.stats.values():
            s[0], s[1] = 0, 0.0
        self.mpc[0] = self.mpc[1] = 0
        self._stack[0][1] = 0.0

    def tallies(self) -> dict:
        """name -> (count, self seconds) for the current request."""
        return {name: (s[0], s[1]) for name, s in self.stats.items()}

    def write_spans(self, path):
        """Spans as gzipped JSON: [request, id, parent, name, start_s, end_s]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(
                {
                    "fields": ["request", "id", "parent", "name", "start_s", "end_s"],
                    "spans": [list(s) for s in self.spans],
                },
                fh,
            )
