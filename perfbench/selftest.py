#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the library).

    python3 perfbench/selftest.py                      # BENCHMARK.json workloads, ~2 min
    python3 perfbench/selftest.py --workloads prefill_wide

* seeds: the same workload seed gives identical tokens and counts; another
  seed gives other inputs but identical HE counts (costs do not depend on
  values); ``generate`` receives only the generated prompt, k, a fresh
  Context and the generate seed; the gate rejects a wrong HE op baseline;
* trace completeness: a traced request's ``backend.*.count`` equals the
  OpCounter totals and the wrapped ``MpcChannel.transfer`` bytes equal the
  report's (``run_request`` fails the request otherwise); spans form one
  tree per request, and self times add up to the ``generate`` span;
* replays: a reference request timed through ``OpMarks`` passes the gate;
  a replayed prefill or decode step, on a private copy of its inputs,
  returns the reference token, logits and op counts, and leaves the kept
  copy as it was; every sample of a call has the same segments; a replay
  whose reference counts are off by one fails;
* metric names: the names and units ``run.py`` prints are the ones
  ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import run
import workloads
from tracer import Tracer

COUNT_KEYS = ("ops", "he_ops", "prefill_he_ops", "mpc_bytes", "refresh_events", "auto_cts")


class Checks:
    def __init__(self):
        self.failed = 0

    def check(self, ok: bool, what: str):
        print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
        self.failed += not ok


def capture_generate(cg, calls):
    """Record what each ``generate`` call receives; returns an undo callable."""
    original = cg.model.generate

    def spy(model, prompt, k, ctx, *args, **kwargs):
        calls.append(
            {
                "weights": model.weights,
                "prompt": list(prompt),
                "k": k,
                "params": ctx.params,
                "fresh_counter": not any(ctx.counter.as_dict().values()),
                "extra": (args, kwargs),
            }
        )
        return original(model, prompt, k, ctx, *args, **kwargs)

    cg.model.generate = spy

    def undo():
        cg.model.generate = original

    return undo


def seed_checks(cg, wl, c: Checks):
    calls = []
    undo = capture_generate(cg, calls)
    try:
        a = run.run_request(cg, wl, 11, 0)
        b = run.run_request(cg, wl, 11, 0)
        other = run.run_request(cg, wl, 12, 0)
    finally:
        undo()
    c.check(not (a["failure"] or b["failure"] or other["failure"]), f"{wl.name}: requests pass the gate")
    if a["failure"] or b["failure"] or other["failure"]:
        return
    c.check(a["tokens"] == b["tokens"], f"{wl.name}: same seed, same tokens")
    c.check(all(a[k] == b[k] for k in COUNT_KEYS), f"{wl.name}: same seed, same counts")
    c.check(all(a[k] == other[k] for k in COUNT_KEYS), f"{wl.name}: other seed, same HE counts")

    vocab = cg.model.toy_config().vocab
    inputs = [workloads.request_inputs(wl, s, 0, vocab) for s in (11, 11, 12)]
    c.check(inputs[0].prompt != inputs[2].prompt, f"{wl.name}: other seed, other prompt")
    toy = cg.model.generate_toy_model(cg.model.toy_config(), seed=0).weights
    params = workloads.setup(cg, wl, 0)[1]
    received_only_inputs = len(calls) == 3 and all(
        call["prompt"] == inp.prompt
        and call["k"] == wl.k
        and call["extra"] == ((), {"seed": inp.gen_seed})
        and call["fresh_counter"]
        and call["params"] == params
        and call["weights"].keys() == toy.keys()
        and all((call["weights"][n] == toy[n]).all() for n in toy)
        for call, inp in zip(calls, inputs)
    )
    c.check(received_only_inputs, f"{wl.name}: generate gets only the toy model, prompt, k, fresh Context, seed")

    wrong = dataclasses.replace(wl, he_ops_total=wl.he_ops_total + 1)
    c.check(run.run_request(cg, wrong, 11, 0)["failure"] is not None, f"{wl.name}: the gate rejects a wrong baseline")


def trace_checks(cg, wl, c: Checks):
    tracer = Tracer(cg, workloads.HE_OPS)
    r = run.run_request(cg, wl, 13, 1, tracer)
    c.check(r["failure"] is None, f"{wl.name}: traced counts equal OpCounter and MPC bytes ({r['failure']})")
    if r["failure"]:
        return
    ids = {s[1] for s in tracer.spans}
    c.check(
        all(s[0] == 1 for s in tracer.spans) and all(s[2] == 0 or s[2] in ids for s in tracer.spans),
        f"{wl.name}: spans share the request id and form one tree",
    )
    roots = [s for s in tracer.spans if s[2] == 0]
    root_s = sum(s[5] - s[4] for s in roots)
    self_s = sum(secs for _, secs in r["tallies"].values())
    c.check(
        [s[3] for s in roots] == ["model.generate"] and math.isclose(self_s, root_s, rel_tol=1e-6),
        f"{wl.name}: self times sum to the generate span ({self_s:.4f} s vs {root_s:.4f} s)",
    )
    c.check(
        all(secs >= -1e-9 for _, secs in r["tallies"].values()),
        f"{wl.name}: no negative self time",
    )


def replay_checks(cg, wl, c: Checks):
    with run.OpMarks(cg.backend.Context, workloads.HE_OPS) as marks, run.CallStore(cg.backend.BackendParams) as store:
        ref = run.run_request(cg, wl, 14, 0, marks=marks, store=store)
        c.check(
            ref["failure"] is None and len(ref["calls"]) == wl.k + 1,
            f"{wl.name}: a marked reference request passes the gate and keeps k + 1 calls ({ref['failure']})",
        )
        if ref["failure"]:
            return
        indices = (0, 1, wl.k // 2, wl.k)
        failures = [run.replay(cg, wl, ref, i, marks, store) for i in indices for _ in range(2)]
        c.check(
            not any(failures),
            f"{wl.name}: replays of calls {indices}, twice each, match the reference ({[f for f in failures if f]})",
        )
        samples = [ref["calls"][i].samples for i in indices] + [ref["setup_samples"]]
        c.check(
            all(len(ss) == 3 and len({len(s["segs"]) for s in ss}) == 1 for ss in samples),
            f"{wl.name}: each replayed call has 3 samples with the same segments",
        )
        c.check(
            all(0 < s["segs"].sum() <= s["s"] and (s["probes"] > 0).all() for ss in samples for s in ss),
            f"{wl.name}: segments lie within the call and probes are timed",
        )
        call = ref["calls"][wl.k]
        call.counts = dict(call.counts, rotate=call.counts["rotate"] + 1)
        c.check(run.replay(cg, wl, ref, wl.k, marks, store) is not None, f"{wl.name}: a replay with wrong reference counts fails")


def name_checks(c: Checks):
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    c.check(declared_e2e == run.E2E_UNITS, "BENCHMARK.json end_to_end matches run.py")
    c.check(declared_layer == run.per_layer_units(), "BENCHMARK.json per_layer matches run.py")
    c.check(
        {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS),
        "BENCHMARK.json workloads are defined in workloads.py",
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args(argv)
    cg = workloads.import_library()
    c = Checks()
    name_checks(c)
    for name in args.workloads.split(","):
        wl = workloads.WORKLOADS[name]
        seed_checks(cg, wl, c)
        trace_checks(cg, wl, c)
        replay_checks(cg, wl, c)
    print(f"{c.failed} failed")
    return 1 if c.failed else 0


if __name__ == "__main__":
    sys.exit(main())
