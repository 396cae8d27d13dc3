#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/suite.py                       # every workload, seeds 1..10
    python3 perfbench/suite.py --workloads prefill_wide --seeds 5 --trace 1

Each (workload, seed) runs ``BENCHMARK.json``'s command in a fresh process,
one at a time.  For every metric the table gives its unit, the number of
runs, the median, the quartiles from ``statistics.quantiles(values, n=4)``,
the spread (q3 - q1) / median and, for end-to-end metrics, the bound from
``BENCHMARK.json``.  A spread
above a third of its bound is marked ``!``, above the bound ``!!``.  The
raw results go to ``perfbench/out/suite-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 1..N")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    exit_code = 0
    for wl in args.workloads.split(","):
        runs = raw[wl] = []
        for seed in range(1, args.seeds + 1):
            cmd = spec["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result.update(seed=seed, wall_s=wall, log=lines[:-1])
            runs.append(result)
            print(
                f"{wl} seed {seed}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} wall={wall:.1f}s",
                flush=True,
            )
            if not result["correct"]:
                exit_code = 1

        print(
            f"\n{wl:14s} {'metric':44s} {'unit':6s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
            f"{'spread':>7s} {'bound':>6s}"
        )
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and spread > bound:
                mark = "!!"
            elif bound is not None and spread > bound / 3:
                mark = "!"
            print(
                f"{wl:14s} {name:44s} {runs[0]['metrics'][name]['unit']:6s} {len(values):3d} "
                f"{med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
                f"{'' if bound is None else bound:>6} {mark}"
            )
        print(flush=True)

    out = ROOT / "perfbench" / "out" / f"suite-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    print(f"raw results: {out.relative_to(ROOT)}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
