import dataclasses
from pathlib import Path

import pytest

from cryptogen.backend import BackendParams, Context
from cryptogen.costmodel import (
    METHODS,
    predict_costs,
    reported_only,
    table1_rows,
    table2_rows,
    render_csv,
    render_markdown,
    validate_against_counts,
)
from cryptogen.model import generate, generate_toy_model, toy_config

PARAMS_TOY = Path(__file__).resolve().parents[1] / "configs" / "params_toy.json"


def test_reference_formula_cells():
    assert predict_costs("Gazelle", "prefill").mult.formula_value == 98304
    for method in ("IRON", "BOLT", "CryptoGen"):
        cell = predict_costs(method, "prefill").mult
        assert cell.formula_value == 768 and cell.reproduced
    ct = predict_costs("CryptoGen", "prefill").ct
    assert ct.formula_value == 12 and ct.reproduced
    assert predict_costs("CryptoGen", "gen").ct.formula_value == 5
    assert predict_costs("IRON", "prefill").rot.formula_value == 0


def test_reported_only_cells_are_flagged():
    flagged = {(f["method"], f["stage"], f["metric"]): f for f in reported_only()}
    # the known divergent constants surface, never silently pass
    assert flagged[("BOLT", "prefill", "ct")]["formula"] == 13
    assert flagged[("BOLT", "prefill", "ct")]["reported"] == 12
    assert flagged[("THOR", "prefill", "mult")]["reported"] == 9908
    assert flagged[("CryptoGen", "gen", "rot")]["reported"] == 25
    assert flagged[("Gazelle", "prefill", "rot")]["reported"] == 96768
    assert ("IRON", "prefill", "mult") not in flagged
    assert ("CryptoGen", "prefill", "ct") not in flagged


def test_every_cell_reproduced_or_flagged():
    flagged = {(f["method"], f["stage"], f["metric"]) for f in reported_only()}
    for method in METHODS:
        for stage in ("prefill", "gen", "total"):
            t = predict_costs(method, stage)
            for metric in ("mult", "rot", "ct"):
                cell = getattr(t, metric)
                if cell.reproduced is False:
                    assert (method, stage, metric) in flagged
                else:
                    assert (method, stage, metric) not in flagged


def test_prediction_is_pure():
    a = predict_costs("BOLT", "total", m=64, d1=256, d2=32, n=2048, k=3)
    b = predict_costs("BOLT", "total", m=64, d1=256, d2=32, n=2048, k=3)
    assert a == b


def test_totals_are_stage_sums():
    for method in METHODS:
        pre = predict_costs(method, "prefill", m=32, d1=128, d2=16, n=512, k=4)
        gen = predict_costs(method, "gen", m=32, d1=128, d2=16, n=512, k=4)
        tot = predict_costs(method, "total", m=32, d1=128, d2=16, n=512, k=4)
        for metric in ("mult", "rot", "ct"):
            assert (
                getattr(tot, metric).formula_value
                == getattr(pre, metric).formula_value + getattr(gen, metric).formula_value
            )


def test_off_reference_dims_have_no_reported_constants():
    t = predict_costs("THOR", "prefill", m=16, d1=64, d2=8, n=128, k=2)
    assert t.mult.reported is None and t.mult.reproduced is None


def test_unknown_method_and_stage():
    with pytest.raises(ValueError, match="Gazelle"):
        predict_costs("SEAL", "prefill")
    with pytest.raises(ValueError):
        predict_costs("BOLT", "warmup")


def test_attention_orders():
    rows = {row.pop("method"): row for row in table2_rows()}
    assert set(rows) == {"BOLT", "THOR", "CryptoGen"}
    assert rows["CryptoGen"] == {
        "prefill_rotation": "O(d)",
        "prefill_ctct": "O(m^2)",
        "gen_rotation": "O(log d)",
        "gen_ctct": "O(k)",
    }
    assert rows["BOLT"]["gen_ctct"] == "O(k^2)"


def test_table_rendering():
    md = render_markdown(table1_rows())
    assert "CryptoGen" in md and "reported; formula" in md
    csv = render_csv(table2_rows())
    assert "O(k^2)" in csv and csv.splitlines()[0].startswith("method")


def _synthetic_report(steps, d1=32, heads=4, layers=2, n_slots=64):
    """A generate-shaped report whose counts obey every decode law (d2=8, B=8)."""
    d2 = d1 // heads
    B = n_slots // d2
    return {
        "steps": [
            {
                "step": t,
                "counters": {"mult_cipher": 2 * layers * heads * (d2 + -(-t // B)), "mult_plain": 656},
                "cache_auto_cts": -(-t // B),
            }
            for t in range(1, steps + 1)
        ],
        "backend": {"n_slots": n_slots},
        "config": {"d1": d1, "heads": heads, "layers": layers},
    }


def test_validate_against_counts_synthetic():
    report = _synthetic_report(16)
    assert [s["counters"]["mult_cipher"] for s in report["steps"]][7:9] == [144, 160]
    out = validate_against_counts(report)
    assert out["passed"]
    assert all(c["measured"] == "exact" for c in out["checks"])
    assert [c["name"] for c in out["checks"]] == [
        "per_step_ctct",
        "per_step_ctpt_constant",
        "cache_compaction_law",
    ]

    report["steps"][15]["cache_auto_cts"] = 99
    report["steps"][8]["counters"]["mult_cipher"] = 144  # step 9 opens a second ciphertext
    report["steps"][3]["counters"]["mult_plain"] += 1
    report["steps"][11]["counters"]["mult_plain"] += 1
    out = validate_against_counts(report)
    assert not out["passed"]
    checks = {c["name"]: c for c in out["checks"]}
    assert checks["per_step_ctct"]["measured"] == "fails at steps [9]"
    assert checks["per_step_ctpt_constant"]["measured"] == "fails at steps [4, 12]"
    assert checks["cache_compaction_law"]["measured"] == "fails at steps [16]"
    assert not any(c["passed"] for c in out["checks"])


def test_validate_against_counts_needs_a_step():
    assert validate_against_counts(_synthetic_report(1))["passed"]
    with pytest.raises(ValueError, match="no decode steps"):
        validate_against_counts(_synthetic_report(0))


@pytest.mark.parametrize("threshold", [None, 170], ids=["no_refresh", "refresh_170"])
def test_generate_reports_obey_the_exact_laws_past_one_cache_ciphertext(threshold):
    """Toy model at n=64 (B=8): 64 steps fill eight generated-cache
    ciphertexts, where a log-log fit of the cumulative CTxCT count reads
    1.10, and threshold 170 refreshes every appended part."""
    params = BackendParams.from_json(PARAMS_TOY.read_text())
    if threshold is not None:
        params = dataclasses.replace(params, refresh_threshold=threshold)
    _, report = generate(generate_toy_model(toy_config(), seed=0), [3, 14, 15], 64, Context(params, seed=0))
    assert report["steps"][-1]["cache_auto_cts"] == 8
    assert threshold is None or sum(s["refresh_events"] for s in report["steps"]) > 0
    out = validate_against_counts(report)
    assert out["passed"], out["checks"]
