"""The library names the benchmark's tracer wraps exist, so a refactor
that renames or removes one fails here, not only in the benchmark's own
self-test.  Reads ``perfbench/tracer.py`` and ``perfbench/workloads.py``;
runs no benchmark."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from cryptogen.backend import Context

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


SPAN_FUNCTIONS = _load("tracer").SPAN_FUNCTIONS
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
