"""Command-line front door: verification suites, generation benchmarks,
and cost-table reproduction.

Exit codes: 0 pass, 1 assertion failure, 2 usage/config error.  All
commands are deterministic under --seed; reports are byte-stable given the
same seed and configuration.  Set CRYPTOGEN_LOG to adjust log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .backend import BackendParams, Context, ParameterError, default_plain_modulus
from .costmodel import (
    REFERENCE_DIMS,
    decode_prefix_independent,
    render_csv,
    render_markdown,
    reported_only,
    table1_rows,
    table2_rows,
    validate_against_counts,
)
from .encodings import EncodingKind, decode, encode
from .kv_cache import maybe_refresh
from .linear_kernels import cpmm_outer_diagonal, cpvm_inner_diagonal, cpvm_plaintexts
from .model import (
    decode_step,
    generate,
    generate_toy_model,
    load_model,
    oracle_generate,
    prefill,
    toy_config,
)
from .nonlinear import MpcChannel


def _load_params(path: str | None) -> BackendParams:
    """Parameters from a JSON file, or the toy n=64 parameters without one."""
    if path is None:
        return BackendParams(n_slots=64, plain_modulus=default_plain_modulus(64, 26))
    return BackendParams.from_json(Path(path).read_text())


def _get_model(args):
    if args.model:
        return load_model(args.model)
    return generate_toy_model(toy_config(), seed=0)


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def run_verification(model, params: BackendParams, seed: int) -> dict:
    """Oracle-equivalence and invariant checks; deterministic given seed."""
    checks = []

    def check(name, passed, detail=""):
        checks.append({"name": name, "passed": bool(passed), "detail": str(detail)})

    rng = np.random.default_rng(np.random.SeedSequence([0x5EED, seed]))
    p = params.plain_modulus
    cfg = model.config

    # kernel oracle spot checks
    ctx = Context(params, seed=seed)
    ok = True
    for _ in range(20):
        m = int(rng.integers(1, 9))
        d1 = int(rng.integers(1, 9))
        d2 = int(rng.integers(1, 9))
        X = rng.integers(0, p, (m, d1))
        W = rng.integers(0, p, (d1, d2))
        Y = cpmm_outer_diagonal(encode(X, EncodingKind.OUTER, ctx), W, ctx)
        ok &= bool((decode(Y, ctx) == (X @ W) % p).all())
        x = rng.integers(0, p, d1)
        xe = ctx.encrypt(ctx.plains([x])[0])
        y = ctx.decrypt(cpvm_inner_diagonal(xe, cpvm_plaintexts(W, ctx), ctx))[:d2]
        ok &= bool((y == (x @ W) % p).all())
    check("kernel_oracle_equivalence", ok)

    # oracle lockstep generation
    prompt = [int(t) for t in rng.integers(0, cfg.vocab, 8)]
    ctx = Context(params, seed=seed)
    tokens, report = generate(model, prompt, 8, ctx, seed=seed)
    want = oracle_generate(model, prompt, 8, p)
    check("oracle_token_exactness", tokens == want, f"got {tokens} want {want}")

    # the exact decode cost laws on the run report
    for law in validate_against_counts(report)["checks"]:
        check(law["name"], law["passed"], law["measured"])

    # prefix independence of per-step HE counters
    reports = []
    for m in (4, 8):
        ctx = Context(params, seed=seed)
        pm = [int(t) for t in rng.integers(0, cfg.vocab, m)]
        reports.append(generate(model, pm, 3, ctx, seed=seed)[1])
    check("decode_prefix_independence", decode_prefix_independent(reports))

    # forced refresh transparency
    ctx = Context(params, seed=seed)
    state = prefill(model, prompt, ctx)
    ch = MpcChannel(p, seed)
    fresh = maybe_refresh([(cache, ch) for row in state.caches for cache in row], ctx, force=True)
    refreshed = [fresh[i : i + cfg.heads] for i in range(0, len(fresh), cfg.heads)]
    _, base = decode_step(model, state, ctx)
    _, fresh = decode_step(model, replace(state, caches=refreshed), ctx)
    t1, t2 = (int(np.argmax(s.next_logits)) for s in (base, fresh))
    check("refresh_transparency", np.array_equal(base.next_logits, fresh.next_logits), f"{t1} vs {t2}")

    passed = all(c["passed"] for c in checks)
    return {"seed": seed, "passed": passed, "checks": checks}


def cmd_verify(args) -> int:
    params = _load_params(args.params)
    model = _get_model(args)
    summary = run_verification(model, params, args.seed)
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if summary["passed"] else 1


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------

_CSV_COLS = (
    "step",
    "mult_plain",
    "mult_cipher",
    "rotate",
    "fresh_ct",
    "mpc_bytes",
    "refresh_events",
    "cache_cts",
)


def _report_csv(report: dict) -> str:
    lines = [",".join(_CSV_COLS)]
    for s in report["steps"]:
        c = s["counters"]
        lines.append(
            ",".join(
                str(v)
                for v in (
                    s["step"],
                    c["mult_plain"],
                    c["mult_cipher"],
                    c["rotate"],
                    c["encrypt"],
                    s["mpc_bytes"],
                    s["refresh_events"],
                    s["cache_auto_cts"],
                )
            )
        )
    return "\n".join(lines) + "\n"


def _bench_run(model, params, m, k, seed, csv_path: Path) -> dict:
    """Generate k tokens from a seeded m-token prompt and write the per-step CSV."""
    ctx = Context(params, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence([0xB3, seed]))
    prompt = [int(t) for t in rng.integers(0, model.config.vocab, m)]
    _, report = generate(model, prompt, k, ctx, seed=seed)
    csv_path.write_text(_report_csv(report))
    return report


def cmd_bench(args) -> int:
    if args.sweep and args.gen < 1:
        raise ParameterError(f"--sweep needs --gen >= 1 for its m sweep, got {args.gen}")
    params = _load_params(args.params)
    model = _get_model(args)
    out = Path(args.out or "bench")
    out.parent.mkdir(parents=True, exist_ok=True)

    if not args.sweep:
        csv_path = out.with_suffix(".csv")
        report = _bench_run(model, params, args.prefill, args.gen, args.seed, csv_path)
        validation = validate_against_counts(report) if args.gen >= 1 else None
        summary = {"csv": str(csv_path), "validation": validation}
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0 if validation is None or validation["passed"] else 1

    summary = {"k_sweep": {}, "m_sweep": {}}
    for k in (8, 16, 32, 64):
        path = Path(f"{out}_k{k}.csv")
        report = _bench_run(model, params, args.prefill, k, args.seed, path)
        summary["k_sweep"][k] = {"csv": str(path), "laws_hold": validate_against_counts(report)["passed"]}
    reports = []
    for m in (16, 32, 64):
        path = Path(f"{out}_m{m}.csv")
        report = _bench_run(model, params, m, args.gen, args.seed, path)
        reports.append(report)
        summary["m_sweep"][m] = {
            "csv": str(path),
            "step1_mult_plain": report["steps"][0]["counters"]["mult_plain"],
            "step1_rotate": report["steps"][0]["counters"]["rotate"],
            "laws_hold": validate_against_counts(report)["passed"],
        }
    summary["decode_cost_constant_in_m"] = decode_prefix_independent(reports)
    print(json.dumps(summary, indent=2, sort_keys=True))
    runs = [*summary["k_sweep"].values(), *summary["m_sweep"].values()]
    return 0 if summary["decode_cost_constant_in_m"] and all(r["laws_hold"] for r in runs) else 1


# ----------------------------------------------------------------------
# costs
# ----------------------------------------------------------------------


def cmd_costs(args) -> int:
    dims = dict(REFERENCE_DIMS)
    if args.dims:
        parts = args.dims.split(",")
        if len(parts) != 5:
            raise ParameterError("--dims expects m,d1,d2,n,k")
        for key, raw in zip(("m", "d1", "d2", "n", "k"), parts):
            dims[key] = int(raw)
    rows1 = table1_rows(**dims)
    rows2 = table2_rows()
    flagged = reported_only(**dims)

    outdir = Path(args.out or "costs_out")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "table1.md").write_text(render_markdown(rows1))
    (outdir / "table1.csv").write_text(render_csv(rows1))
    (outdir / "table2.md").write_text(render_markdown(rows2))
    (outdir / "table2.csv").write_text(render_csv(rows2))
    (outdir / "reported_only.json").write_text(json.dumps(flagged, indent=2))

    print(render_markdown(rows1))
    print(render_markdown(rows2))
    print(f"reported-only cells: {len(flagged)} (see {outdir/'reported_only.json'})")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cryptogen",
        description="Secure autoregressive generation kernels: verify, bench, cost tables.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run oracle-equivalence and invariant suites")
    v.add_argument("--model", help="model directory (default: bundled toy model)")
    v.add_argument("--params", help="backend parameter JSON file")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", help="write the JSON summary here instead of stdout")
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("bench", help="instrumented generation sweeps (CSV per step)")
    b.add_argument("--model", help="model directory (default: bundled toy model)")
    b.add_argument("--params", help="backend parameter JSON file")
    b.add_argument("--prefill", type=int, default=8, metavar="M")
    b.add_argument("--gen", type=int, default=16, metavar="K")
    b.add_argument("--sweep", action="store_true", help="sweep k and m grids")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", help="output file stem (default: bench)")
    b.set_defaults(fn=cmd_bench)

    cst = sub.add_parser("costs", help="reproduce the complexity tables")
    cst.add_argument("--dims", help="m,d1,d2,n,k (default: reference dims)")
    cst.add_argument("--out", help="output directory (default: costs_out)")
    cst.set_defaults(fn=cmd_costs)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        try:
            logging.basicConfig(level=os.environ.get("CRYPTOGEN_LOG", "WARNING").upper())
        except ValueError as e:  # an unknown level
            raise ParameterError(f"CRYPTOGEN_LOG: {e}") from e
        return args.fn(args)
    except (ParameterError, OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
