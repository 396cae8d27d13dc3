import json
import subprocess
import sys
from pathlib import Path

import pytest

from cryptogen.model import generate_toy_model, save_model, toy_config

PARAMS_TOY = Path(__file__).resolve().parents[1] / "configs" / "params_toy.json"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "cryptogen", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


def test_verify_passes_and_is_byte_stable(tmp_path):
    a = run_cli("verify", "--seed", "7", "--out", str(tmp_path / "a.json"))
    b = run_cli("verify", "--seed", "7", "--out", str(tmp_path / "b.json"))
    assert a.returncode == 0 and b.returncode == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    summary = json.loads((tmp_path / "a.json").read_text())
    assert summary["passed"] is True
    assert {c["name"] for c in summary["checks"]} >= {
        "oracle_token_exactness",
        "kernel_oracle_equivalence",
    }


def test_verify_model_dir_roundtrip(tmp_path):
    save_model(generate_toy_model(toy_config(), seed=3), tmp_path / "model")
    out = run_cli("verify", "--model", str(tmp_path / "model"), "--seed", "1")
    assert out.returncode == 0, out.stderr


def test_verify_corrupted_model_exits_nonzero(tmp_path):
    mdir = tmp_path / "model"
    save_model(generate_toy_model(toy_config(), seed=0), mdir)
    (mdir / "manifest.json").write_text("{not json")
    out = run_cli("verify", "--model", str(mdir))
    assert out.returncode == 2
    assert "error" in out.stderr.lower()


def _malformed_params(edit):
    def write(tmp_path):
        d = json.loads(PARAMS_TOY.read_text())
        path = tmp_path / "params.json"
        path.write_text(json.dumps(edit(d)))
        return ["bench", "--params", str(path), "--prefill", "2", "--gen", "1", "--out", str(tmp_path / "b")]

    return write


def _model_entry_without_file(tmp_path):
    mdir = tmp_path / "model"
    save_model(generate_toy_model(toy_config(), seed=0), mdir)
    manifest = json.loads((mdir / "manifest.json").read_text())
    del manifest["weights"]["unembed"]["file"]
    (mdir / "manifest.json").write_text(json.dumps(manifest))
    return ["verify", "--model", str(mdir)]


def _model_with_float_dimension(tmp_path):
    mdir = tmp_path / "model"
    save_model(generate_toy_model(toy_config(), seed=0), mdir)
    manifest = json.loads((mdir / "manifest.json").read_text())
    manifest["config"]["d1"] = 32.0
    (mdir / "manifest.json").write_text(json.dumps(manifest))
    return ["verify", "--model", str(mdir)]


@pytest.mark.parametrize(
    "make_args",
    [
        _malformed_params(lambda d: {**d, "n_slot": 64}),
        _malformed_params(lambda d: {**d, "noise_costs": {**d["noise_costs"], "rotat": 2}}),
        _malformed_params(lambda d: []),
        _malformed_params(lambda d: {**d, "n_slots": "64"}),
        _model_entry_without_file,
        _model_with_float_dimension,
    ],
    ids=[
        "unknown_key", "unknown_noise_cost", "top_level_list", "string_n_slots", "weight_without_file",
        "float_model_dimension",
    ],
)
def test_malformed_input_files_are_config_errors(tmp_path, make_args):
    out = run_cli(*make_args(tmp_path))
    assert out.returncode == 2, out.stderr
    assert "error:" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "gen_args", [["--gen", "-3"], ["--sweep", "--gen", "0"]], ids=["negative_gen", "sweep_gen_0"]
)
def test_bench_rejects_bad_gen_before_any_run(tmp_path, gen_args):
    out = run_cli("bench", "--prefill", "2", *gen_args, "--out", str(tmp_path / "b"))
    assert out.returncode == 2, out.stderr
    assert "error:" in out.stderr
    assert "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1, out.stderr
    assert not list(tmp_path.glob("*.csv"))


def test_bench_csv_columns_and_compaction(tmp_path):
    out = run_cli("bench", "--prefill", "4", "--gen", "8", "--out", str(tmp_path / "b"))
    assert out.returncode == 0, out.stderr
    lines = (tmp_path / "b.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == [
        "step",
        "mult_plain",
        "mult_cipher",
        "rotate",
        "fresh_ct",
        "mpc_bytes",
        "refresh_events",
        "cache_cts",
    ]
    B = 8  # n=64, d2=8
    for row in lines[1:]:
        vals = dict(zip(header, (int(v) for v in row.split(","))))
        assert vals["cache_cts"] == -(-vals["step"] // B)
        assert vals["mpc_bytes"] > 0


def test_bench_sweep_reports_m_independence(tmp_path):
    out = run_cli(
        "bench", "--sweep", "--prefill", "4", "--gen", "4", "--out", str(tmp_path / "s")
    )
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout)
    assert summary["decode_cost_constant_in_m"] is True
    assert set(summary["k_sweep"]) == {"8", "16", "32", "64"} or set(
        summary["k_sweep"]
    ) == {8, 16, 32, 64}
    for k in (8, 16, 32, 64):
        assert Path(f"{tmp_path/'s'}_k{k}.csv").exists()


def test_costs_outputs_tables(tmp_path):
    out = run_cli("costs", "--out", str(tmp_path / "costs"))
    assert out.returncode == 0
    for name in ("table1.md", "table1.csv", "table2.md", "table2.csv", "reported_only.json"):
        assert (tmp_path / "costs" / name).exists()
    flagged = json.loads((tmp_path / "costs" / "reported_only.json").read_text())
    assert any(f["method"] == "THOR" and f["metric"] == "mult" for f in flagged)
    assert "98304" in (tmp_path / "costs" / "table1.md").read_text()


def test_costs_bad_dims_usage_error(tmp_path):
    out = run_cli("costs", "--dims", "1,2,3", "--out", str(tmp_path / "x"))
    assert out.returncode == 2


def test_custom_dims_consistent(tmp_path):
    out = run_cli("costs", "--dims", "16,64,8,128,2", "--out", str(tmp_path / "c"))
    assert out.returncode == 0
    table = (tmp_path / "c" / "table1.csv").read_text()
    assert "reported" not in table  # constants only apply at reference dims


def test_verify_refresh_check_fails_on_a_corrupting_refresh(monkeypatch):
    """The refresh_transparency check compares the logits that decoding
    from refreshed caches returns, so a refresh that changes the cached
    values fails it."""
    import dataclasses

    import numpy as np

    from cryptogen import cli
    from cryptogen.backend import BackendParams
    from cryptogen.encodings import PackedMatrix
    from cryptogen.kv_cache import maybe_refresh

    def corrupting(cache, ctx, ch, force=False):
        out = maybe_refresh(cache, ctx, ch, force=force)
        if not force:
            return out
        bump = ctx.plain(np.full(ctx.params.n_slots, 12345))
        return dataclasses.replace(
            out,
            **{
                name: PackedMatrix(seg.encoding, [ctx.add_plain(part, bump) for part in seg.parts])
                for name, seg in out.segments()
            },
        )

    monkeypatch.setattr(cli, "maybe_refresh", corrupting)
    params = BackendParams.from_json(PARAMS_TOY.read_text())
    summary = cli.run_verification(generate_toy_model(toy_config(), seed=0), params, seed=3)
    checks = {c["name"]: c for c in summary["checks"]}
    assert checks["oracle_token_exactness"]["passed"]
    assert not checks["refresh_transparency"]["passed"]
    assert not summary["passed"]
