"""The summary of tools/bench_pairs.py on fixed, synthetic results; no
benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "step_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "tokens_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "ops", "unit": "count", "better": "lower", "bound": 0.01},
]


def _run(step_ms, tokens_per_s, ops, correct=True, failed=0):
    values = {"step_ms": step_ms, "tokens_per_s": tokens_per_s, "ops": ops}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in END_TO_END}
    return {"correct": correct, "attempted": 1, "failed": failed, "metrics": metrics}


def _rows(parent, change):
    return {r["metric"]: r for r in bench_pairs.summarize(parent, change, END_TO_END)}


def test_summary_counts_wins_in_each_direction_and_applies_both_rules():
    # parent step_ms 10..19 (IQR 4.5); the change is 3 ms faster in nine
    # pairs and 1 ms slower in the last; tokens_per_s is the inverse story
    parent = [_run(10 + i, 100 + i, 500) for i in range(10)]
    change = [_run(7 + i, 103 + i, 500) for i in range(9)] + [_run(20, 108, 500)]
    rows = _rows(parent, change)
    step = rows["step_ms"]
    assert step["parent"] == (14.5, 12.25, 16.75)
    assert step["change"] == (11.5, 9.25, 13.75)
    assert step["wins"] == 9 and step["pairs"] == 10
    assert step["pct"] == pytest.approx(100 * (11.5 - 14.5) / 14.5)
    # a 3 ms gain is below the parent's 4.5 ms IQR: no gain, no regression
    assert not step["gain"] and step["no_regression"]
    tps = rows["tokens_per_s"]
    assert tps["wins"] == 9 and tps["no_regression"] and not tps["gain"]
    # an unchanged count wins no pair and does not regress
    assert rows["ops"]["wins"] == 0 and not rows["ops"]["gain"] and rows["ops"]["no_regression"]


def test_gain_needs_nine_wins_and_a_median_shift_beyond_the_iqr():
    parent = [_run(10 + 0.1 * i, 100, 500) for i in range(10)]  # IQR 0.45
    ten = [_run(9 + 0.1 * i, 100, 500) for i in range(10)]
    assert _rows(parent, ten)["step_ms"]["gain"]
    eight = ten[:8] + [_run(11, 100, 500), _run(11, 100, 500)]
    assert _rows(parent, eight)["step_ms"]["wins"] == 8
    assert not _rows(parent, eight)["step_ms"]["gain"]
    # a slower change never counts as a gain, however consistent
    slower = [_run(11 + 0.1 * i, 100, 500) for i in range(10)]
    assert not _rows(parent, slower)["step_ms"]["gain"]


def test_no_regression_rule_is_the_bound_on_the_parent_median():
    parent = [_run(10, 100, 500) for _ in range(4)]
    rows = _rows(parent, [_run(12.5, 75, 505) for _ in range(4)])
    assert rows["step_ms"]["no_regression"] and rows["tokens_per_s"]["no_regression"]
    assert rows["ops"]["no_regression"]
    rows = _rows(parent, [_run(12.6, 74, 506) for _ in range(4)])
    assert not rows["step_ms"]["no_regression"] and not rows["tokens_per_s"]["no_regression"]
    assert not rows["ops"]["no_regression"]


def test_no_regression_is_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # parent step_ms IQR 4.5 over a median of 14.5 (31%) against a 25% bound
    parent = [_run(10 + i, 100, 500) for i in range(10)]
    same = [_run(10 + i, 100, 500) for i in reversed(range(10))]
    worse = [_run(11 + i, 100, 500) for i in range(10)]
    better = [_run(9.5 - 0.1 * i, 100, 500) for i in range(10)]  # each run below the parent's 10
    for change, resolved in ((same, False), (worse, False), (better, True)):
        rows = _rows(parent, change)
        assert rows["step_ms"]["resolved"] is resolved
        assert rows["tokens_per_s"]["resolved"] and rows["ops"]["resolved"]  # no spread
        verdict = bench_pairs.format_table("w", list(rows.values())).splitlines()[4].split("|")[-2].strip()
        assert verdict == ("yes" if resolved else "unresolved")
    # a spread inside the bound is resolved either way
    narrow = [_run(14 + 0.1 * i, 100, 500) for i in range(10)]  # IQR 0.45 over 14.45
    assert _rows(narrow, worse)["step_ms"]["resolved"]
    table = bench_pairs.format_table("w", bench_pairs.summarize(narrow, [_run(20, 100, 500)] * 10, END_TO_END))
    assert table.splitlines()[4].endswith("| NO |")


def test_incorrect_or_failed_runs_are_reported():
    good = _run(10, 100, 500)
    runs = {
        "w1": {"parent": [good, good], "change": [good, _run(10, 100, 500, correct=False)]},
        "w2": {"parent": [_run(10, 100, 500, failed=2), good], "change": [good, good]},
        "w3": {"parent": [good], "change": [good]},
    }
    bad = bench_pairs.bad_runs(runs)
    assert [(w, side, i) for w, side, i, _ in bad] == [("w1", "change", 1), ("w2", "parent", 0)]


def test_table_has_one_line_per_metric():
    rows = bench_pairs.summarize([_run(10, 100, 500)], [_run(9, 110, 500)], END_TO_END)
    table = bench_pairs.format_table("w", rows)
    lines = table.splitlines()
    assert len(lines) == 4 + len(END_TO_END)
    assert "| `step_ms` (ms) | 10 [10, 10] | 9 [9, 9] | -10.0% | 1/1 |" in lines[4]


def test_progress_line_shows_each_end_to_end_value():
    line = bench_pairs.format_progress("w", 3, "change", _run(12.345678, 81.25, 30561), END_TO_END)
    assert line == "w seed 3 change: correct=True failed=0 step_ms=12.3457 tokens_per_s=81.25 ops=30561"
    # a failed run has no metrics: the line stops after its status
    failed = {"correct": False, "failed": 1, "metrics": {}, "error": "exit 1: boom"}
    assert bench_pairs.format_progress("w", 1, "parent", failed, END_TO_END) == "w seed 1 parent: correct=False failed=1"


def test_first_seed_offsets_every_pair_and_keeps_the_alternation(tmp_path, monkeypatch, capsys):
    """Pair i runs seed first_seed + i - 1, parent first in odd pairs; the
    default first seed is 1."""
    bench = {"command": ["run"], "run_seconds": 5, "workloads": [{"name": "w"}], "end_to_end": END_TO_END}
    for tree in ("parent", "change"):
        (tmp_path / tree).mkdir()
        (tmp_path / tree / "BENCHMARK.json").write_text(json.dumps(bench))
    calls = []

    def fake(tree, command, workload, seed, seconds):
        calls.append((tree.name, seed))
        return _run(10, 100, 500)

    monkeypatch.setattr(bench_pairs, "run_once", fake)
    trees = [str(tmp_path / "parent"), str(tmp_path / "change")]
    assert bench_pairs.main([*trees, "--pairs", "3", "--first-seed", "11"]) == 0
    assert calls == [
        ("parent", 11), ("change", 11), ("change", 12), ("parent", 12), ("parent", 13), ("change", 13),
    ]
    assert "w seed 12 change" in capsys.readouterr().err
    calls.clear()
    assert bench_pairs.main([*trees, "--pairs", "2"]) == 0
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
