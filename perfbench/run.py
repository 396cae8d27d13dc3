#!/usr/bin/env python3
"""Closed-loop benchmark of encrypted generation through ``cryptogen.model.generate``.

One client, one request at a time, threads=1.  A run of ``--seconds S``
first sends one reference request of the workload: set up (toy model,
``BackendParams`` from ``configs/``, fresh ``Context``), ``generate`` k
tokens, then check the tokens against ``oracle_generate`` and the HE op
counts against the seed baseline.  While it runs, a copy of the inputs of
each ``prefill`` and ``decode_step`` call is kept.  The run then replays
those calls, a number of times that depends on S only, in an order
shuffled by the seed.  Each replay must return the reference call's token,
logits and op counts.  Every timed call is cut into segments of
``MARK_EVERY`` HE ops, and each segment's time is scaled by a host-speed
probe taken next to it (see ``end_to_end`` and perfbench/README.md).

    python3 perfbench/run.py --workload decode_long --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` sends
(untraced, traced) pairs of requests, without replays or probes, and
prints the per-layer metrics, including the tracing overhead (traced minus
untraced ``generate`` wall time).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics": {name:
{"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import pickle
import random
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import workloads
from tracer import SPAN_FUNCTIONS, Tracer

E2E_UNITS = {
    "setup_s": "s",
    "ttft_s": "s",
    "decode_step_ms_p50": "ms",
    "decode_step_ms_p90": "ms",
    "tokens_per_s": "1/s",
    "us_per_he_op": "us",
    "peak_rss_mb": "MB",
    "prefill_he_ops": "count",
    "decode_he_ops_per_token": "count",
    "mpc_bytes_per_token": "B",
}


# every timed call takes a mark, with a host probe, at each MARK_EVERY-th HE
# op (about 0.4 ms of work at n=64)
MARK_EVERY = 32
# the run replays the prefill, with a set-up before it, this many times as
# often as each decode step: a prefill costs only a few decode steps, and
# ttft_s and setup_s rest on these samples alone
PREFILL_FACTOR = 4
# a probe time at this quantile of the run's probes is the host's fast state
FAST_QUANTILE = 0.001

_PROBE_X = np.arange(64, dtype=np.int64)


def host_probe():
    """A fixed piece of small-vector modular arithmetic, about the size of
    one HE op at n=64; its time gauges the host's speed at that moment."""
    x = _PROBE_X
    for _ in range(8):
        x = np.mod(x * 3 + 1, 65537)


class OpMarks:
    """Marks inside timed calls.  While installed, every ``MARK_EVERY``-th
    call of the counted ``Context`` operations takes a timed ``host_probe``.
    A call runs the same op sequence each time it is replayed, so the
    segment between two marks covers the same work each time."""

    def __init__(self, ctx_cls, ops):
        self._cls, self._ops = ctx_cls, ops
        self._starts, self._ends = [], []
        self._n = [0]

    def _mark(self):
        t = time.perf_counter()
        host_probe()
        self._starts.append(t)
        self._ends.append(time.perf_counter())

    def _probe(self, fn):
        n, mark = self._n, self._mark

        def probe(*args, **kwargs):
            n[0] += 1
            if not n[0] % MARK_EVERY:
                mark()
            return fn(*args, **kwargs)

        return probe

    def __enter__(self):
        self._orig = {op: getattr(self._cls, op) for op in self._ops}
        for op, fn in self._orig.items():
            setattr(self._cls, op, self._probe(fn))
        return self

    def __exit__(self, *exc):
        for op, fn in self._orig.items():
            setattr(self._cls, op, fn)

    def timed(self, fn, *args):
        """``fn(*args)`` and its sample: wall time ``s``, the times of its
        ``segs`` and the mean of the two ``probes`` around each segment."""
        # start from an empty young generation, so that the cyclic
        # collector runs at the same points of the call each time
        gc.collect()
        gc.freeze()
        self._n[0] = 0
        self._starts.clear()
        self._ends.clear()
        self._mark()
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        self._mark()
        starts, ends = np.array(self._starts), np.array(self._ends)
        probes = ends - starts
        ends[0], starts[-1] = t0, t1
        sample = {"s": t1 - t0, "segs": starts[1:] - ends[:-1], "probes": (probes[:-1] + probes[1:]) / 2}
        return result, sample


@dataclass
class Call:
    """One ``prefill`` or ``decode_step`` call of the reference request."""

    name: str
    model: object
    inputs: int  # ``CallStore`` key of the arguments after ``model``
    token: int | None  # decode_step's token
    logits: np.ndarray  # the next-token logits it left behind
    counts: dict  # its OpCounter delta
    samples: list  # timing samples: the reference call's, then its replays'


class _Pickler(pickle.Pickler):
    def persistent_id(self, obj):
        if id(obj) in self.transcripts:
            return "transcript"
        if type(obj) is self.params_cls:
            self.shared[id(obj)] = obj
            return id(obj)
        return None


class _Unpickler(pickle.Unpickler):
    def persistent_load(self, pid):
        return [] if pid == "transcript" else self.shared[pid]


class CallStore:
    """Call arguments kept for replay, pickled to an anonymous temporary
    file under perfbench/out/, so that they add nothing to the run's peak
    RSS; each load is a private copy.  ``BackendParams`` (immutable) is
    kept by reference, and every MPC channel's transcript is stored as an
    empty list: the library only appends to a transcript and never reads
    it, so a replayed call does the same work."""

    def __init__(self, params_cls):
        out = workloads.ROOT / "perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        self._file = tempfile.TemporaryFile(dir=out)
        self._params_cls = params_cls
        self._shared = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()

    def put(self, args, chans) -> int:
        """Store ``args``; returns the key to ``get`` them with."""
        offset = self._file.seek(0, 2)
        pickler = _Pickler(self._file, pickle.HIGHEST_PROTOCOL)
        pickler.transcripts = {id(ch.transcript) for ch in chans.values()}
        pickler.params_cls, pickler.shared = self._params_cls, self._shared
        pickler.dump(args)
        return offset

    def get(self, key: int):
        self._file.seek(key)
        unpickler = _Unpickler(self._file)
        unpickler.shared = self._shared
        return unpickler.load()


class Recorder:
    """Wall time of each ``prefill`` and ``decode_step`` that ``generate``
    calls.  With ``marks`` and a ``store``, each call is timed through the
    marks and a ``Call`` record of it is kept for replay; its arguments are
    stored before the clock starts."""

    def __init__(self, model_mod, marks=None, store=None):
        self._mod = model_mod
        self._marks = marks
        self._store = store
        self.times = {"prefill": [], "decode_step": []}
        self.calls = []

    def _timed(self, name, fn):
        def timed(model, *args):
            if self._marks is None:
                t0 = time.perf_counter()
                out = fn(model, *args)
                self.times[name].append(time.perf_counter() - t0)
                return out
            ctx = args[1]
            inputs = self._store.put(args, args[2])
            before = ctx.counter.snapshot()
            out, sample = self._marks.timed(fn, model, *args)
            self.times[name].append(sample["s"])
            token, state = out if name == "decode_step" else (None, out)
            self.calls.append(
                Call(name, model, inputs, token, state.next_logits.copy(), ctx.counter.delta(before), [sample])
            )
            return out

        return timed

    def __enter__(self):
        self._orig = (self._mod.prefill, self._mod.decode_step)
        self._mod.prefill = self._timed("prefill", self._orig[0])
        self._mod.decode_step = self._timed("decode_step", self._orig[1])
        return self

    def __exit__(self, *exc):
        self._mod.prefill, self._mod.decode_step = self._orig


def run_request(cg, wl, seed, index, tracer=None, marks=None, store=None) -> dict:
    """One request of the workload's k tokens; returns its timings and
    counts, or a ``failure`` string.  With ``marks`` and a ``store``, its
    set-up and calls are timed through the marks, and ``calls`` holds the
    ``Call`` records of its prefill and decode steps."""
    k = wl.k
    inp = workloads.request_inputs(wl, seed, index, cg.model.toy_config().vocab)
    out = {"traced": tracer is not None, "failure": None, "ctx_seed": inp.ctx_seed}
    if marks is None:
        model, params, ctx = workloads.setup(cg, wl, inp.ctx_seed)
    else:
        (model, params, ctx), sample = marks.timed(workloads.setup, cg, wl, inp.ctx_seed)
        out["setup_samples"] = [sample]
    errors = (cg.backend.NoiseBudgetExhausted, cg.backend.DecryptionFailure, cg.backend.ParameterError)
    if tracer is not None:
        tracer.begin_request(index)
    try:
        # the tracer goes on first, so the phase timings include its cost
        with tracer or contextlib.nullcontext(), Recorder(cg.model, marks, store) as timer:
            t0 = time.perf_counter()
            tokens, report = cg.model.generate(model, inp.prompt, k, ctx, seed=inp.gen_seed)
            out["generate_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        expected = cg.model.oracle_generate(model, inp.prompt, k, params.plain_modulus)
        out["oracle_s"] = time.perf_counter() - t0
    except errors as e:
        out["failure"] = f"{type(e).__name__}: {e}"
        return out

    ops = {op: report["totals"][op] for op in workloads.HE_OPS}
    prefill_ops = sum(report["prefill"]["counters"][op] for op in workloads.HE_OPS)
    # steps[i]["counters"]["mpc_bytes"] is always 0; the per-step key is not.
    mpc_bytes = report["prefill"]["mpc_bytes"] + sum(s["mpc_bytes"] for s in report["steps"])
    d2 = model.config.d2
    block = params.n_slots // d2
    auto_cts = report["steps"][-1]["cache_auto_cts"]
    out.update(
        tokens=tokens,
        prefill_s=timer.times["prefill"][0],
        step_s=timer.times["decode_step"],
        ops=ops,
        he_ops=sum(ops.values()),
        prefill_he_ops=prefill_ops,
        mpc_bytes=mpc_bytes,
        refresh_events=report["totals"]["refresh_events"],
        auto_cts=auto_cts,
        slot_utilization=k * d2 / (auto_cts * params.n_slots),
        calls=timer.calls,
    )

    problems = []
    if tokens != expected:
        problems.append("tokens differ from oracle_generate")
    if prefill_ops != wl.he_ops_prefill:
        problems.append(f"{prefill_ops} HE ops in prefill, baseline {wl.he_ops_prefill}")
    if out["he_ops"] != wl.he_ops_total:
        problems.append(f"{out['he_ops']} HE ops, baseline {wl.he_ops_total}")
    if out["refresh_events"] != wl.refresh_events:
        problems.append(f"{out['refresh_events']} refresh events, baseline {wl.refresh_events}")
    if auto_cts != math.ceil(k / block):
        problems.append(f"{auto_cts} auto ciphertexts, ceil(t/B) = {math.ceil(k / block)}")
    if tracer is not None:
        out["tallies"] = tracer.tallies()
        out["mpc_traced"] = tuple(tracer.mpc)
        traced_ops = {op: out["tallies"][f"backend.{op}"][0] for op in workloads.HE_OPS}
        if traced_ops != ops:
            problems.append(f"traced backend counts {traced_ops} != OpCounter {ops}")
        if tracer.mpc[0] != mpc_bytes:
            problems.append(f"traced MPC bytes {tracer.mpc[0]} != report {mpc_bytes}")
    if problems:
        out["failure"] = "; ".join(problems)
    return out


def repeats(wl, seconds: float) -> int:
    """Replays of each decode step in a run of ``seconds``: the passes over
    the k steps that fit in it at the workload's nominal request time, less
    the reference request, at least one.  The count depends on ``seconds``
    only, never on how fast the code or the host is, so that every commit
    takes its medians over the same number of samples."""
    return max(1, int(seconds // wl.request_s) - 1)


def replay(cg, wl, ref, index: int, marks: OpMarks, store: CallStore):
    """Run call ``index`` of the reference request once more, on a private
    copy of its arguments from ``store``, and add the timing sample to its ``Call``; index 0,
    the prefill, gets a fresh set-up first, whose sample goes to
    ``ref["setup_samples"]``.  Returns a failure string, or None if the
    call returned the reference token, logits and op counts."""
    call = ref["calls"][index]
    errors = (cg.backend.NoiseBudgetExhausted, cg.backend.DecryptionFailure, cg.backend.ParameterError)
    try:
        if call.name == "prefill":
            (model, _, ctx), setup = marks.timed(workloads.setup, cg, wl, ref["ctx_seed"])
            prompt, _, chans, threads = store.get(call.inputs)
            args = (prompt, ctx, chans, threads)
        else:
            model, args = call.model, store.get(call.inputs)
            ctx = args[1]
        before = ctx.counter.snapshot()
        result, sample = marks.timed(getattr(cg.model, call.name), model, *args)
    except errors as e:
        return f"{call.name} {index}: {type(e).__name__}: {e}"
    token, state = result if call.name == "decode_step" else (None, result)
    if token != call.token or not np.array_equal(state.next_logits, call.logits):
        return f"{call.name} {index}: output differs from the reference request"
    if ctx.counter.delta(before) != call.counts:
        return f"{call.name} {index}: op counts differ from the reference request"
    call.samples.append(sample)
    if call.name == "prefill":
        ref["setup_samples"].append(setup)
    return None


def run(cg, wl, seed: int, seconds: float, trace: bool):
    """Returns (request results, replay failures, tracer).  Without
    ``trace`` there is one request, the reference, which also holds the
    samples of its replays."""
    if trace:
        tracer = Tracer(cg, workloads.HE_OPS)
        results = []
        for _ in range(max(1, int(seconds // wl.request_s) // 2)):
            for traced in (False, True):
                results.append(run_request(cg, wl, seed, len(results), tracer if traced else None))
        return results, [], tracer

    with OpMarks(cg.backend.Context, workloads.HE_OPS) as marks, CallStore(cg.backend.BackendParams) as store:
        ref = run_request(cg, wl, seed, 0, marks=marks, store=store)
        ref["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if ref["failure"]:
            return [ref], [], None
        r = repeats(wl, seconds)
        units = [0] * (PREFILL_FACTOR * r) + [i for i in range(1, wl.k + 1) for _ in range(r)]
        random.Random(seed).shuffle(units)
        ref["replays"] = len(units)
        failures = [f for f in (replay(cg, wl, ref, i, marks, store) for i in units) if f]
    return [ref], failures, None


def host_state(ref) -> dict:
    """The run's probe times: its fast state (the ``FAST_QUANTILE``), the
    median, and the share of probes within 1.2x of the fast state."""
    samples = [s for c in ref["calls"] for s in c.samples] + ref["setup_samples"]
    probes = np.concatenate([s["probes"] for s in samples])
    fast = float(np.quantile(probes, FAST_QUANTILE))
    return {
        "fast_probe_s": fast,
        "median_probe_s": float(np.median(probes)),
        "fast_share": float(np.mean(probes < 1.2 * fast)),
        "probes": len(probes),
    }


def call_time(samples, fast_probe: float) -> float:
    """Time of a call from its samples: over its segments, the sum of the
    median over samples of the segment time scaled by ``fast_probe`` over
    the probe time around it."""
    segs = np.array([s["segs"] for s in samples])
    probes = np.array([s["probes"] for s in samples])
    return float(np.median(segs * (fast_probe / probes), axis=0).sum())


def end_to_end(wl, ref) -> dict:
    """Metric name -> (value, sample count).

    Contention on the shared host slows work down by up to about 2x, in
    spells of milliseconds to minutes, and the same fixed probe slows down
    with it.  So every segment of every timed call is scaled by the
    run's fast-state probe time (its ``FAST_QUANTILE``) over the probe
    time around it: what the segment would have taken on the host's fast
    state.  Op costs do not depend on values, so each replay of a call
    repeats the same work segment by segment; a call's time is
    ``call_time`` over the reference call and its replays.  ``ttft_s`` is
    that time for the prefill, the decode p50 and p90 are taken over the
    profile of the k steps' times, and ``tokens_per_s`` and
    ``us_per_he_op`` over the prefill plus the k steps.  ``setup_s`` is
    the same for the set-ups before the prefills.
    """
    calls = ref["calls"]
    fast_probe = host_state(ref)["fast_probe_s"]
    ttft = call_time(calls[0].samples, fast_probe)
    steps = [call_time(c.samples, fast_probe) for c in calls[1:]]
    busy = ttft + sum(steps)
    n_prefill = len(calls[0].samples)
    n_steps = sum(len(c.samples) for c in calls[1:])
    return {
        "setup_s": (call_time(ref["setup_samples"], fast_probe), len(ref["setup_samples"])),
        "ttft_s": (ttft, n_prefill),
        "decode_step_ms_p50": (1e3 * statistics.median(steps), n_steps),
        "decode_step_ms_p90": (1e3 * statistics.quantiles(steps, n=10)[8], n_steps),
        "tokens_per_s": (wl.k / busy, n_prefill + n_steps),
        "us_per_he_op": (1e6 * busy / ref["he_ops"], n_prefill + n_steps),
        "peak_rss_mb": (ref["peak_rss_mb"], 1),
        # exact counts of the reference request; replays repeat them exactly
        "prefill_he_ops": (ref["prefill_he_ops"], 1),
        "decode_he_ops_per_token": ((ref["he_ops"] - ref["prefill_he_ops"]) / wl.k, 1),
        "mpc_bytes_per_token": (ref["mpc_bytes"] / wl.k, 1),
    }


def per_layer_units() -> dict:
    """Per-layer metric name -> unit, in report order."""
    units = {}
    for op in workloads.HE_OPS:
        units[f"backend.{op}.count"] = "count"
        units[f"backend.{op}.s"] = "s"
    units["backend.us_per_op"] = "us"
    for mod, names in SPAN_FUNCTIONS.items():
        for name in names:
            units[f"{mod}.{name}.count"] = "count"
            units[f"{mod}.{name}.s"] = "s"
    units.update(
        {
            "model.oracle_generate.s": "s",
            "kv_cache.refresh_events": "count",
            "kv_cache.auto_cts": "count",
            "kv_cache.slot_utilization": "ratio",
            "nonlinear.mpc_bytes": "B",
            "nonlinear.mpc_rounds": "count",
            "trace.overhead_s": "s",
            "trace.overhead_pct": "%",
        }
    )
    return units


def per_layer(ok) -> dict:
    """Metric name -> (value, sample count), from the run's least disturbed
    (fastest) traced request.  The tracing overhead compares it with the
    fastest untraced request of the same run."""
    traced = [r for r in ok if r["traced"]]
    plain_s = min(r["generate_s"] for r in ok if not r["traced"])
    best = min(traced, key=lambda r: r["generate_s"])
    n = len(traced)
    vals = {}
    for name, (count, secs) in best["tallies"].items():
        vals[f"{name}.count"] = (count, n)
        vals[f"{name}.s"] = (secs, n)
    ops = [best["tallies"][f"backend.{op}"] for op in workloads.HE_OPS]
    vals["backend.us_per_op"] = (1e6 * sum(s for _, s in ops) / sum(c for c, _ in ops), n)
    vals["model.oracle_generate.s"] = (best["oracle_s"], n)
    vals["kv_cache.refresh_events"] = (best["refresh_events"], n)
    vals["kv_cache.auto_cts"] = (best["auto_cts"], n)
    vals["kv_cache.slot_utilization"] = (best["slot_utilization"], n)
    vals["nonlinear.mpc_bytes"] = (best["mpc_traced"][0], n)
    vals["nonlinear.mpc_rounds"] = (best["mpc_traced"][1], n)
    overhead = best["generate_s"] - plain_s
    vals["trace.overhead_s"] = (overhead, len(ok))
    vals["trace.overhead_pct"] = (100 * overhead / plain_s, len(ok))
    return vals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cg = workloads.import_library()
    wl = workloads.WORKLOADS[args.workload]
    results, replay_failures, tracer = run(cg, wl, args.seed, args.seconds, bool(args.trace))

    for i, r in enumerate(results):
        if r["failure"]:
            print(f"request {i} failed: {r['failure']}", file=sys.stderr)
        else:
            print(
                f"request {i}{' traced' if r['traced'] else ''}: generate {r['generate_s']:.3f} s, "
                f"prefill {r['prefill_s']:.3f} s, decode step p50 "
                f"{1e3 * statistics.median(r['step_s']):.2f} ms, oracle {r['oracle_s']:.3f} s"
            )
    for f in replay_failures:
        print(f"replay failed: {f}", file=sys.stderr)
    replays = results[0].get("replays", 0)
    failed = len(replay_failures) + sum(1 for r in results if r["failure"])
    metrics = {}
    if not failed:
        if args.trace:
            values, units = per_layer(results), per_layer_units()
            tracer.write_spans(workloads.ROOT / "perfbench" / "out" / f"spans-{wl.name}-seed{args.seed}.json.gz")
        else:
            values, units = end_to_end(wl, results[0]), E2E_UNITS
            host = host_state(results[0])
            print(
                f"replays: {replays}; host probe: fast {1e6 * host['fast_probe_s']:.2f} us, "
                f"median {1e6 * host['median_probe_s']:.2f} us, {host['fast_share']:.0%} of "
                f"{host['probes']} probes within 1.2x of fast"
            )
        for name, unit in units.items():
            value, n = values[name]
            print(f"{wl.name:14s} {name:44s} {value:14.6g} {unit:6s} n={n}")
            metrics[name] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(results) + replays,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
