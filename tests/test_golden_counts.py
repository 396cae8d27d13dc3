"""Absolute operation counts of a small end-to-end generation, pinned.

The toy model on ``configs/params_toy.json`` (n=64, B=8) generates 10
tokens from a 5-token prompt, so the generated-token cache opens its second
ciphertext at step 9.  The second run raises the refresh threshold to 170,
which makes lazy refresh fire on every generated-cache part from step 2.
A change in how many operations of any kind a kernel spends moves at least
one of these numbers.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from cryptogen.backend import BackendParams, Context
from cryptogen.model import generate, generate_toy_model, oracle_generate, toy_config

PARAMS_TOY = Path(__file__).resolve().parents[1] / "configs" / "params_toy.json"
PROMPT = [3, 14, 15, 9, 26]
TOKENS = [7, 55, 60, 28, 0, 45, 11, 63, 11, 63]
STEP_KEYS = (
    "mult_plain", "mult_cipher", "rotate", "add", "add_plain", "encrypt", "decrypt", "refresh_events",
)

PREFILL_COUNTERS = {
    "mult_plain": 2432,
    "mult_cipher": 832,
    "rotate": 9663,
    "add": 11647,
    "add_plain": 1609,
    "encrypt": 713,
    "decrypt": 737,
    "refresh_events": 0,
}
PREFILL_MPC_BYTES = 326136

# per step: (STEP_KEYS counts, mpc_bytes)
STEPS = {
    None: [
        ((656, 144, 1467, 1543, 120, 75, 59, 0), 29416),
        ((656, 144, 1483, 1543, 120, 59, 59, 0), 29584),
        ((656, 144, 1483, 1543, 120, 59, 59, 0), 29808),
        ((656, 144, 1483, 1543, 120, 59, 59, 0), 29976),
        ((656, 144, 1483, 1543, 120, 59, 59, 0), 30144),
        ((656, 144, 1483, 1543, 120, 59, 59, 0), 30368),
        ((656, 144, 1483, 1543, 120, 59, 59, 0), 30536),
        ((656, 144, 1483, 1543, 120, 59, 59, 0), 30704),
        ((656, 160, 1491, 1575, 136, 83, 67, 0), 34384),
        ((656, 160, 1507, 1575, 136, 67, 67, 0), 34552),
    ],
    170: [
        ((656, 144, 1467, 1543, 120, 75, 59, 0), 29416),
        ((656, 144, 1483, 1543, 152, 75, 75, 16), 36496),
        ((656, 144, 1483, 1543, 152, 75, 75, 16), 36720),
        ((656, 144, 1483, 1543, 152, 75, 75, 16), 36888),
        ((656, 144, 1483, 1543, 152, 75, 75, 16), 37056),
        ((656, 144, 1483, 1543, 152, 75, 75, 16), 37280),
        ((656, 144, 1483, 1543, 152, 75, 75, 16), 37448),
        ((656, 144, 1483, 1543, 152, 75, 75, 16), 37616),
        ((656, 160, 1491, 1575, 168, 99, 83, 16), 41296),
        ((656, 160, 1507, 1575, 168, 83, 83, 16), 41464),
    ],
}


@pytest.mark.parametrize("threshold", [None, 170])
def test_golden_pipeline_counts(threshold):
    params = BackendParams.from_json(PARAMS_TOY.read_text())
    if threshold is not None:
        params = dataclasses.replace(params, refresh_threshold=threshold)
    model = generate_toy_model(toy_config(), seed=0)
    tokens, report = generate(model, PROMPT, len(TOKENS), Context(params, seed=0), seed=0)

    assert tokens == TOKENS
    prefill = report["prefill"]
    assert {k: prefill["counters"][k] for k in STEP_KEYS} == PREFILL_COUNTERS
    assert prefill["mpc_bytes"] == PREFILL_MPC_BYTES
    got = [(tuple(s["counters"][k] for k in STEP_KEYS), s["mpc_bytes"]) for s in report["steps"]]
    assert got == STEPS[threshold]
    assert [s["refresh_events"] for s in report["steps"]] == [c[-1] for c, _ in STEPS[threshold]]

# sha256 of every counted op (name, operand ids, result id, result budget),
# ids renumbered by first appearance (``tools/op_digest.py``), and the op
# count: a change in which ciphertexts an operation reads or writes, or in
# the noise it spends, moves the digest even where the counts above hold
OP_SEQUENCE = {
    None: ("3073d3ad5ef27ba51246892cecf9ad4ae94fcbf32ac23a459ba75e0e930b8897", 68481),
    170: ("b89580b8613d7a9b31bc65fbaafb37e4021d7185f4838db51dc5e09b82b25385", 69057),
}


def _digest_tool():
    spec = importlib.util.spec_from_file_location("op_digest", PARAMS_TOY.parents[1] / "tools" / "op_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _toy_params(threshold):
    params = BackendParams.from_json(PARAMS_TOY.read_text())
    if threshold is not None:
        params = dataclasses.replace(params, refresh_threshold=threshold)
    return params


@pytest.mark.parametrize("threshold", [None, 170])
def test_golden_op_sequence(threshold):
    model = generate_toy_model(toy_config(), seed=0)
    digest, tokens, ops = _digest_tool().op_digest(model, PROMPT, len(TOKENS), _toy_params(threshold))
    assert tokens == TOKENS
    assert (digest, ops) == OP_SEQUENCE[threshold]


# sha256 of every mask word the channels hand out (int64 bytes in draw
# order, ``tools/op_digest.py``), the number of draws and of words: a change
# that moves, adds or drops a mask word moves it
MASK_STREAM = {
    None: ("e76f36c9dae6d21f98d8eb58f2ff182d45fc9d11b5eccde75484b8efd9ab7baf", 1890, 101624),
    170: ("e168cdfa248d9d7d224b8b8d87b164acbc95909c9a9a7d7f56471d437d6adba2", 2034, 110840),
}


@pytest.mark.parametrize("threshold", [None, 170])
def test_golden_mask_stream(threshold):
    model = generate_toy_model(toy_config(), seed=0)
    *_, masks = _digest_tool().digest_run(model, PROMPT, len(TOKENS), _toy_params(threshold))
    assert masks == MASK_STREAM[threshold]


# the toy model at the reference modulus (n=8192, p = 536,903,681), where
# every product is reduced and the rotations slice: 43,301 HE ops
PARAMS_REFERENCE = PARAMS_TOY.parent / "params_reference.json"
REFERENCE_TOTALS = {
    "mult_plain": 2736,
    "mult_cipher": 944,
    "rotate": 17682,
    "add": 18230,
    "add_plain": 1929,
    "encrypt": 898,
    "decrypt": 882,
    "refresh_events": 0,
    "mpc_bytes": 53024256,
}


def test_golden_counts_at_the_reference_modulus():
    params = BackendParams.from_json(PARAMS_REFERENCE.read_text())
    model = generate_toy_model(toy_config(), seed=0)
    prompt = PROMPT[:4]
    tokens, report = generate(model, prompt, 3, Context(params, seed=0), seed=0)
    assert tokens == oracle_generate(model, prompt, 3, params.plain_modulus) == [45, 11, 63]
    assert report["totals"] == REFERENCE_TOTALS
