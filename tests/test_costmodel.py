import numpy as np
import pytest

from cryptogen.costmodel import (
    METHODS,
    loglog_exponent,
    predict_attention_costs,
    predict_costs,
    quadratic_coefficient,
    reported_only,
    table1_rows,
    table2_rows,
    render_csv,
    render_markdown,
    validate_against_counts,
)


def test_reference_formula_cells():
    assert predict_costs("Gazelle", "prefill").mult.value == 98304
    for method in ("IRON", "BOLT", "CryptoGen"):
        cell = predict_costs(method, "prefill").mult
        assert cell.formula_value == 768 and cell.reproduced
    ct = predict_costs("CryptoGen", "prefill").ct
    assert ct.formula_value == 12 and ct.reproduced
    assert predict_costs("CryptoGen", "gen").ct.formula_value == 5
    assert predict_costs("IRON", "prefill").rot.value == 0


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
    with pytest.raises(ValueError):
        predict_attention_costs("Gazelle", "gen")


def test_attention_orders():
    assert predict_attention_costs("CryptoGen", "gen") == {
        "rotation_order": "log d",
        "ctct_order": "k",
    }
    assert predict_attention_costs("BOLT", "gen")["ctct_order"] == "k^2"
    assert predict_attention_costs("CryptoGen", "prefill")["ctct_order"] == "m^2"


def test_regression_helpers():
    ks = np.array([8, 16, 32, 64])
    assert abs(loglog_exponent(ks, 3 * ks**2) - 2.0) < 1e-9
    assert abs(loglog_exponent(ks, 5 * ks) - 1.0) < 1e-9
    assert abs(quadratic_coefficient(ks, 7 * ks + 3)) < 1e-9


def test_table_rendering():
    md = render_markdown(table1_rows())
    assert "CryptoGen" in md and "reported; formula" in md
    csv = render_csv(table2_rows())
    assert "O(k^2)" in csv and csv.splitlines()[0].startswith("method")


def test_validate_against_counts_synthetic():
    B = 8
    steps = []
    for step in range(1, 17):
        steps.append(
            {
                "step": step,
                "counters": {"mult_cipher": 18, "mult_plain": 650},
                "cache_auto_cts": -(-step // B),
            }
        )
    report = {
        "steps": steps,
        "backend": {"n_slots": 64},
        "config": {"d1": 32, "heads": 4},
    }
    out = validate_against_counts(report)
    assert out["passed"]
    steps[-1]["cache_auto_cts"] = 99
    out = validate_against_counts(report)
    assert not out["passed"]
    names = {c["name"]: c["passed"] for c in out["checks"]}
    assert names["cache_compaction_law"] is False
