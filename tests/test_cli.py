import json
import subprocess
import sys
from pathlib import Path

import pytest

from cryptogen.model import generate_toy_model, save_model, toy_config
from conftest import plaintext, src_env

PARAMS_TOY = Path(__file__).resolve().parents[1] / "configs" / "params_toy.json"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "cryptogen", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=src_env(),
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
    out = run_cli("bench", "--prefill", "4", "--gen", "12", "--out", str(tmp_path / "b"))
    assert out.returncode == 0, out.stderr
    validation = json.loads(out.stdout)["validation"]
    assert validation["passed"] is True
    assert [c["measured"] for c in validation["checks"]] == ["exact"] * 3
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
    assert all(run["laws_hold"] for run in [*summary["k_sweep"].values(), *summary["m_sweep"].values()])
    for k in (8, 16, 32, 64):
        assert Path(f"{tmp_path/'s'}_k{k}.csv").exists()


@pytest.mark.parametrize("sweep", [[], ["--sweep"]], ids=["single", "sweep"])
def test_bench_exits_1_when_a_law_fails(tmp_path, monkeypatch, capsys, sweep):
    """A run whose report breaks the CTxCT law at step 3 fails bench."""
    from cryptogen import cli

    def generate_one_extra_product(*args, **kwargs):
        tokens, report = cli_generate(*args, **kwargs)
        report["steps"][2]["counters"]["mult_cipher"] += 1
        return tokens, report

    cli_generate = cli.generate
    monkeypatch.setattr(cli, "generate", generate_one_extra_product)
    assert cli.main(["bench", "--prefill", "2", "--gen", "3", *sweep, "--out", str(tmp_path / "b")]) == 1
    summary = json.loads(capsys.readouterr().out)
    if sweep:
        runs = [*summary["k_sweep"].values(), *summary["m_sweep"].values()]
        assert not any(run["laws_hold"] for run in runs)
    else:
        checks = {c["name"]: c for c in summary["validation"]["checks"]}
        assert checks["per_step_ctct"]["measured"] == "fails at steps [3]"
        assert checks["cache_compaction_law"]["passed"]


def test_bench_sweep_exits_1_when_one_decode_count_moves_with_m(tmp_path, monkeypatch, capsys):
    """Decode cost constant in m means every HE counter at every step: an
    m=32 run whose step 2 has one rotation more fails the sweep, though
    each run's own laws hold."""
    from cryptogen import cli

    def generate_one_extra_rotation(model, prompt, *args, **kwargs):
        tokens, report = cli_generate(model, prompt, *args, **kwargs)
        if len(prompt) == 32:
            report["steps"][1]["counters"]["rotate"] += 1
        return tokens, report

    cli_generate = cli.generate
    monkeypatch.setattr(cli, "generate", generate_one_extra_rotation)
    assert cli.main(["bench", "--sweep", "--prefill", "2", "--gen", "2", "--out", str(tmp_path / "b")]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["decode_cost_constant_in_m"] is False
    assert all(run["laws_hold"] for run in [*summary["k_sweep"].values(), *summary["m_sweep"].values()])


def test_unknown_log_level_is_a_usage_error(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "cryptogen", "costs", "--out", str(tmp_path / "c")],
        capture_output=True,
        text=True,
        env={**src_env(), "CRYPTOGEN_LOG": "foo"},
        timeout=600,
    )
    assert out.returncode == 2
    assert out.stderr.startswith("error: CRYPTOGEN_LOG:") and len(out.stderr.splitlines()) == 1, out.stderr
    assert "'FOO'" in out.stderr
    assert not (tmp_path / "c").exists()


def test_info_log_level_shows_refreshes_and_leaves_stdout_alone():
    """CRYPTOGEN_LOG=INFO prints one record per refreshed cache part on
    stderr (verify forces a refresh of every cache); the report on stdout
    is byte-identical to a run at the default level."""
    env = {k: v for k, v in src_env().items() if k != "CRYPTOGEN_LOG"}
    runs = {
        level: subprocess.run(
            [sys.executable, "-m", "cryptogen", "verify", "--seed", "7"],
            capture_output=True,
            text=True,
            env={**env, "CRYPTOGEN_LOG": level} if level else env,
            timeout=600,
        )
        for level in (None, "INFO")
    }
    assert all(run.returncode == 0 for run in runs.values())
    assert runs["INFO"].stdout == runs[None].stdout and json.loads(runs["INFO"].stdout)["passed"]
    assert runs[None].stderr == ""
    records = runs["INFO"].stderr.splitlines()
    assert records and all(r.startswith("INFO:cryptogen.kv_cache:refresh t_auto=0 ") for r in records)
    assert all(r.endswith(" forced=True") for r in records)


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

    def corrupting(caches, ctx, force=False):
        out = maybe_refresh(caches, ctx, force=force)
        if not force:
            return out
        bump = plaintext(ctx, np.full(ctx.params.n_slots, 12345))
        return [
            dataclasses.replace(
                cache,
                **{
                    name: PackedMatrix(seg.encoding, [ctx.add_plain(part, bump) for part in seg.parts])
                    for name, seg in cache.segments()
                },
            )
            for cache in out
        ]

    monkeypatch.setattr(cli, "maybe_refresh", corrupting)
    params = BackendParams.from_json(PARAMS_TOY.read_text())
    summary = cli.run_verification(generate_toy_model(toy_config(), seed=0), params, seed=3)
    checks = {c["name"]: c for c in summary["checks"]}
    assert checks["oracle_token_exactness"]["passed"]
    assert not checks["refresh_transparency"]["passed"]
    assert not summary["passed"]
