#!/usr/bin/env python3
"""Run and tabulate alternating parent/change pairs of the benchmark.

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 [--first-seed 1]

PARENT and CHANGE are two checkouts of the repository.  Pair i (from 1)
runs the command of ``BENCHMARK.json`` (``python3 perfbench/run.py``)
with ``--workload W --seed F+i-1 --seconds S`` once in each tree, the
parent first in odd pairs and the change first in even ones, for every
workload W of CHANGE's ``BENCHMARK.json``, F being ``--first-seed``
(default 1) and S the file's ``run_seconds``.  A gain found on the seeds
used while a change was written can so be confirmed on seeds that were
not.  Each run's last line of standard output is its JSON result.

As each run ends, a progress line on standard error gives its workload,
seed, side, correctness and the value of every end-to-end metric it
reports, so one slow run can be told from a steady difference.

For every workload and end-to-end metric the tool prints each side's
median [q1, q3], the change of the median in %, the pairs the change won
in the metric's ``better`` direction, whether the gain rule holds (the
change wins at least nine pairs in ten and its median differs from the
parent's by more than the parent's interquartile range) and whether the
no-regression rule holds (the change's median is not worse than the
parent's by more than the metric's ``bound``, a fraction of the parent's
median).  Where the parent's interquartile range is wider than that
bound, the runs spread too widely to tell, and the no-regression column
reads ``unresolved`` unless every change run is better than every parent
run.  A run that reports ``correct: false`` or ``failed > 0``, or
that gives no result, is printed instead of its workload's table, and
the tool exits 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(tree: Path, command: list, workload: str, seed: int, seconds) -> dict:
    """One benchmark run in ``tree``; its JSON result, or a failed record
    when the run exits nonzero or prints no JSON."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode or not isinstance(result, dict):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"correct": False, "failed": 1, "metrics": {}, "error": f"exit {proc.returncode}: {tail[0]}"}
    return result


def run_pairs(parent: Path, change: Path, pairs: int, bench: dict, first_seed: int = 1) -> dict:
    """workload -> {"parent": [result, ...], "change": [result, ...]}, in
    pair order; pair i (from 1) runs seed first_seed + i - 1."""
    trees = dict(zip(SIDES, (parent, change)))
    runs = {}
    for w in bench["workloads"]:
        name = w["name"]
        runs[name] = {side: [] for side in SIDES}
        for i in range(pairs):
            seed = first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                r = run_once(trees[side], bench["command"], name, seed, bench["run_seconds"])
                runs[name][side].append(r)
                print(format_progress(name, seed, side, r, bench["end_to_end"]), file=sys.stderr, flush=True)
    return runs


def format_progress(workload: str, seed: int, side: str, result: dict, end_to_end: list) -> str:
    """One run's progress line: its correctness and the value of each
    end-to-end metric it reports, so a single slow run stands out among
    the pairs."""
    metrics = result.get("metrics", {})
    values = " ".join(
        f"{m['name']}={metrics[m['name']]['value']:.6g}" for m in end_to_end if m["name"] in metrics
    )
    line = f"{workload} seed {seed} {side}: correct={result.get('correct')} failed={result.get('failed')}"
    return f"{line} {values}" if values else line


def bad_runs(runs: dict) -> list:
    """(workload, side, pair index, result) of every run that is not
    correct or reports failed operations."""
    return [
        (w, side, i, r)
        for w, by_side in runs.items()
        for side in SIDES
        for i, r in enumerate(by_side[side])
        if r.get("correct") is not True or r.get("failed", 1) > 0
    ]


def _quartiles(values) -> tuple:
    q1, med, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(med), float(q1), float(q3)


def summarize(parent_runs: list, change_runs: list, end_to_end: list) -> list:
    """One row per end-to-end metric over paired runs (pair i is
    ``parent_runs[i]`` and ``change_runs[i]``): each side's median and
    quartiles, the change in %, the pairs won, the two rules and whether
    the no-regression rule is resolved."""
    rows = []
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in parent_runs]
        c = [r["metrics"][name]["value"] for r in change_runs]
        (pm, pq1, pq3), (cm, cq1, cq3) = _quartiles(p), _quartiles(c)
        wins = sum(cv < pv if lower else cv > pv for pv, cv in zip(p, c))
        improved = cm < pm if lower else cm > pm
        limit = pm * (1 + m["bound"]) if lower else pm * (1 - m["bound"])
        all_better = max(c) < min(p) if lower else min(c) > max(p)
        rows.append({
            "metric": name,
            "unit": m["unit"],
            "parent": (pm, pq1, pq3),
            "change": (cm, cq1, cq3),
            "pct": 100 * (cm - pm) / pm if pm else None,
            "wins": wins,
            "pairs": len(p),
            "gain": improved and 10 * wins >= 9 * len(p) and abs(cm - pm) > pq3 - pq1,
            "no_regression": cm <= limit if lower else cm >= limit,
            "resolved": pq3 - pq1 <= m["bound"] * abs(pm) or all_better,
        })
    return rows


def format_table(workload: str, rows: list) -> str:
    """A markdown table of ``summarize`` rows."""

    def cell(stats) -> str:
        med, q1, q3 = stats
        return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

    out = [
        workload,
        "",
        "| metric | parent median [q1, q3] | change median [q1, q3] | change | pairs won | gain rule | no regression |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        pct = "n/a" if r["pct"] is None else f"{r['pct']:+.1f}%"
        verdict = ("yes" if r["no_regression"] else "NO") if r["resolved"] else "unresolved"
        out.append(
            f"| `{r['metric']}` ({r['unit']}) | {cell(r['parent'])} | {cell(r['change'])} | {pct} "
            f"| {r['wins']}/{r['pairs']} | {'yes' if r['gain'] else 'no'} "
            f"| {verdict} |"
        )
    return "\n".join(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--pairs", type=int, required=True, help="number of alternating pairs per workload")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first pair (default 1)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    runs = run_pairs(args.parent.resolve(), args.change.resolve(), args.pairs, bench, args.first_seed)
    bad = bad_runs(runs)
    for w, side, i, r in bad:
        print(f"{w} pair {i + 1} {side}: correct={r.get('correct')} failed={r.get('failed')} {r.get('error', '')}")
    for w, by_side in runs.items():
        if all(b[0] != w for b in bad):
            print(format_table(w, summarize(by_side["parent"], by_side["change"], bench["end_to_end"])))
            print()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
