"""tools/op_digest.py's verdict on fixed run results; no run is digested."""

import pytest

from conftest import op_digest_tool

# digest_run's tuple, in its order, by the pinned Shape field each one is
RUN_FIELDS = ("digest", "tokens", "ops", "mpc_bytes", "dataflow", "blind", "masks")


@pytest.mark.parametrize("field", [None, *RUN_FIELDS])
def test_op_digest_exits_1_when_any_one_pinned_value_differs(monkeypatch, capsys, field):
    """With digest_run stubbed to give the pinned values of decode_long, the
    tool prints six checks, all yes, and exits 0; with any one field changed
    it prints that check no and exits 1."""
    tool = op_digest_tool()
    shape = tool.SHAPES["decode_long"]
    assert set(RUN_FIELDS) == set(tool.Shape._fields) - {"model", "params", "threshold", "prompt", "k"}
    run = {name: getattr(shape, name) for name in RUN_FIELDS}
    if field is not None:
        run[field] = "other"
    monkeypatch.setattr(tool, "digest_run", lambda *args: tuple(run[name] for name in RUN_FIELDS))
    assert tool.main(["--shape", "decode_long"]) == (0 if field is None else 1)
    checks = [line for line in capsys.readouterr().out.splitlines() if line.startswith("matches pinned")]
    assert len(checks) == 6
    assert sum(line.endswith(": yes") for line in checks) == 6 - (field is not None)
    assert sum(": no (want " in line for line in checks) == (field is not None)
