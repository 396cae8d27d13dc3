"""Workload definitions, request inputs and the seed baseline.

Every workload runs the bundled toy model (``toy_config()``, weights seed 0)
through ``cryptogen.model.generate``.  The workload seed and the request
index derive the prompt tokens, the ``Context`` seed and the ``generate``
seed; nothing else reaches the library.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# "HE ops" as the benchmark counts them; refresh events and MPC bytes are
# tallied by the same OpCounter but are not homomorphic operations.
HE_OPS = ("mult_plain", "mult_cipher", "rotate", "add", "add_plain", "encrypt", "decrypt")


def import_library():
    """Import ``cryptogen`` from this checkout's ``src``; refuse any other copy."""
    pkg = ROOT / "src" / "cryptogen"
    if not (pkg / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        raise SystemExit(f"perfbench: no library sources at {pkg}; run inside a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import cryptogen

    if Path(cryptogen.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported {cryptogen.__file__}, expected {pkg}")
    return cryptogen


@dataclass(frozen=True)
class Workload:
    name: str
    params_file: str
    prompt_len: int
    k: int
    refresh_threshold: int | None
    # nominal seconds of one request (set-up, generate, oracle) of the seed
    # code on the reference host; fixes the replays per run, see run.repeats
    request_s: float
    # seed baseline: value-independent, identical on every seed
    he_ops_total: int
    he_ops_prefill: int
    refresh_events: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "decode_long",
            "configs/params_toy.json",
            prompt_len=8,
            k=144,
            refresh_threshold=None,
            request_s=10,
            he_ops_total=743_073,
            he_ops_prefill=30_561,
            refresh_events=0,
        ),
        # Not in BENCHMARK.json.  Its prefill alone takes about 10 s, so the
        # nine prefill samples the other workloads get do not fit in a run
        # within the time budget.  Run it by hand with
        # ``suite.py --workloads prefill_wide``.
        Workload(
            "prefill_wide",
            "configs/params_reference.json",
            prompt_len=128,
            k=16,
            refresh_threshold=None,
            request_s=15,
            he_ops_total=374_279,
            he_ops_prefill=276_839,
            refresh_events=0,
        ),
        Workload(
            "refresh_churn",
            "configs/params_toy.json",
            prompt_len=32,
            k=112,
            refresh_threshold=170,
            request_s=10,
            he_ops_total=612_129,
            he_ops_prefill=74_145,
            refresh_events=1_776,
        ),
    )
}


@dataclass(frozen=True)
class RequestInputs:
    prompt: list
    ctx_seed: int
    gen_seed: int


def request_inputs(wl: Workload, seed: int, index: int, vocab: int) -> RequestInputs:
    """Deterministic inputs of request ``index`` in a run with workload ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    prompt = [int(t) for t in rng.integers(0, vocab, wl.prompt_len)]
    ctx_seed, gen_seed = (int(s) for s in rng.integers(0, 2**31, 2))
    return RequestInputs(prompt, ctx_seed, gen_seed)


def setup(cg, wl: Workload, ctx_seed: int):
    """Everything before the first ``prefill``: model, params, fresh Context.

    A fresh Context per request also sidesteps ``generate`` assigning (not
    adding to) ``ctx.counter.mpc_bytes``.  Returns (model, params, ctx).
    """
    model = cg.model.generate_toy_model(cg.model.toy_config(), seed=0)
    params = cg.backend.BackendParams.from_json((ROOT / wl.params_file).read_text())
    if wl.refresh_threshold is not None:
        params = dataclasses.replace(params, refresh_threshold=wl.refresh_threshold)
    ctx = cg.backend.Context(params, seed=ctx_seed)
    return model, params, ctx
