import importlib.util
import logging
import os
from pathlib import Path

import numpy as np
import pytest

from cryptogen.backend import BackendParams, Context, SlotCiphertext, default_plain_modulus

ROOT = Path(__file__).resolve().parents[1]


def src_env() -> dict:
    """A copy of os.environ with the checkout's src/ first on PYTHONPATH,
    so a child python finds cryptogen without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def op_digest_tool():
    """tools/op_digest.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("op_digest", ROOT / "tools" / "op_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture(scope="session")
def p16():
    return default_plain_modulus(16, 20)


@pytest.fixture(scope="session")
def p64():
    return default_plain_modulus(64, 26)


@pytest.fixture
def ctx16(p16):
    return Context(BackendParams(n_slots=16, plain_modulus=p16), seed=1)


@pytest.fixture
def ctx64(p64):
    return Context(BackendParams(n_slots=64, plain_modulus=p64), seed=1)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def refreshes(caplog):
    """Captures ``cryptogen.kv_cache`` at INFO; calling the fixture returns
    the refresh records logged so far, each as its key=value fields (ints,
    a segment name, and forced as a bool)."""
    caplog.set_level(logging.INFO, logger="cryptogen.kv_cache")

    def records():
        out = []
        for record in caplog.records:
            if record.name == "cryptogen.kv_cache" and record.getMessage().startswith("refresh "):
                assert record.levelno == logging.INFO
                fields = dict(kv.split("=") for kv in record.getMessage().split()[1:])
                ints = {k: int(v) for k, v in fields.items() if k not in ("segment", "forced")}
                out.append({**fields, **ints, "forced": {"True": True, "False": False}[fields["forced"]]})
        return out

    return records


def plaintext(ctx, v):
    """The Plaintext of one integer vector of at most n slots under ctx,
    zero-padded to n: the one way these tests encode a raw operand."""
    return ctx.plains([v])[0]


def with_budget(ct, budget: int):
    """A copy of ct (same slots, id, params and bound) at another noise
    budget.  Not an HE operation: a test forges the budget it needs."""
    return SlotCiphertext(ct[0], budget, ct.id, ct.params, ct.bound)
