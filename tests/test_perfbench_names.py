"""The library names the benchmark's tracer wraps exist, and the tracer
sees every counted op and transfer byte of a run, so a refactor that
renames or removes one, or batches several counted ops into one call,
fails here, not only in the benchmark's own self-test.  Reads
``perfbench/tracer.py`` and ``perfbench/workloads.py``; runs no
benchmark."""

import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import cryptogen
from cryptogen.backend import BackendParams, Context
from cryptogen.model import generate, generate_toy_model, toy_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


TRACER = _load("tracer")
SPAN_FUNCTIONS = TRACER.SPAN_FUNCTIONS
HE_OPS = _load("workloads").HE_OPS


@pytest.mark.parametrize("module", sorted(SPAN_FUNCTIONS))
def test_every_span_function_is_a_function_of_its_module(module):
    mod = importlib.import_module(f"cryptogen.{module}")
    for name in SPAN_FUNCTIONS[module]:
        fn = getattr(mod, name, None)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, f"cryptogen.{module}.{name}"


def test_every_counted_op_is_a_context_method():
    for op in HE_OPS:
        assert inspect.isfunction(vars(Context).get(op)), f"Context.{op}"


def test_traced_generate_tallies_every_counted_op_and_transfer_byte():
    """The tracer, installed on a small generation whose caches refresh,
    sees one ``backend.<op>`` call per op the OpCounter counts and as many
    transfer bytes as the report charges: an HE op batched into one call
    for several counted ops would fail here."""
    params = BackendParams.from_json((PERFBENCH.parent / "configs" / "params_toy.json").read_text())
    params = dataclasses.replace(params, refresh_threshold=170)
    model = generate_toy_model(toy_config(), seed=0)
    tracer = TRACER.Tracer(cryptogen, HE_OPS)
    tracer.begin_request(0)
    with tracer:
        _, report = generate(model, [3, 14, 15, 9, 26], 3, Context(params, seed=0), seed=0)
    tallies = tracer.tallies()
    assert report["totals"]["refresh_events"] > 0
    assert {op: tallies[f"backend.{op}"][0] for op in HE_OPS} == {op: report["totals"][op] for op in HE_OPS}
    charged = report["prefill"]["mpc_bytes"] + sum(step["mpc_bytes"] for step in report["steps"])
    assert tracer.mpc[0] == charged == report["totals"]["mpc_bytes"] > 0
    assert tallies["model.decode_step"][0] == 3 and tallies["kv_cache.maybe_refresh"][0] == 3
