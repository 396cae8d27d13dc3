"""Absolute operation counts of a small end-to-end generation, pinned.

The toy model on ``configs/params_toy.json`` (n=64, B=8) generates 10
tokens from a 5-token prompt, so the generated-token cache opens its second
ciphertext at step 9.  The second run raises the refresh threshold to 170,
which makes lazy refresh fire on every generated-cache part from step 2.
A change in how many operations of any kind a kernel spends moves at least
one of these numbers.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import cryptogen.model as model_module
from cryptogen.backend import BackendParams, Context
from cryptogen.model import generate, generate_toy_model, oracle_generate, toy_config
from cryptogen.nonlinear import MpcChannel, refresh
from conftest import op_digest_tool

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
# the noise it spends, moves the digest even where the counts above hold.
# Re-pinned when each layer stage got one share-domain pass over its heads:
# every head's projections, scores, weights and outputs are made before the
# one conversion of that stage, and a conversion's ops run entries first,
# then exits, a reorder the dataflow digest below does not see.  Re-pinned
# again when the prompt pass took all heads in one attention pass: every
# head's prompt-pass projections and outputs are made before the one
# truncate of their stage, while each head's scores, softmax and weights
# run head by head
OP_SEQUENCE = {
    None: ("c7ec457c2df815dee3c2b519e41faed9f3a5a54ed0e4e1710471d08d7ecf2c86", 68481),
    170: ("fa6099155733946a5ab0d69125d5c4643b1ec6f2422deedc25b712eaf37189a1", 69057),
}

# the dataflow digest of the same runs (``tools/op_digest.py``): the sorted
# labels of every op, each hashing its operands' labels, so it moves with
# the op graph but not with the order independent ops are called in.
# Re-pinned when every client function became one round trip whose groups
# draw one entry and one exit mask block: a label hashes a plaintext's slots,
# and a conversion's plaintexts hold mask words.  The share-blind dataflow
# digest, which labels those plaintexts by their slot count, did not move
OP_DATAFLOW = {
    None: "47df3d7a88f522ea73eb82f86414bd288832bc49be663168ae85dc630318734c",
    170: "4526530b720f28c92d85a8b25f92be8d1f26a3c95db1959df9ec7d9bc8a70bd9",
}


def _toy_params(threshold):
    params = BackendParams.from_json(PARAMS_TOY.read_text())
    if threshold is not None:
        params = dataclasses.replace(params, refresh_threshold=threshold)
    return params


@pytest.mark.parametrize("threshold", [None, 170])
def test_golden_op_sequence(threshold):
    model = generate_toy_model(toy_config(), seed=0)
    digest, tokens, ops, _, dataflow, *_ = op_digest_tool().digest_run(model, PROMPT, len(TOKENS), _toy_params(threshold))
    assert tokens == TOKENS
    assert (digest, ops) == OP_SEQUENCE[threshold]
    assert dataflow == OP_DATAFLOW[threshold]


def test_dataflow_digest_sees_the_op_graph_not_the_call_order():
    """Two independent ops called in either order give the same dataflow
    digest and different ordered digests; swapping the operands of one
    mult_cipher moves the dataflow digest."""
    tool = op_digest_tool()

    def digests(rotate_first, swap=False):
        ctx = Context(_toy_params(None), seed=0)
        with tool.OpDigest().installed(Context) as spy:
            a_pt, b_pt, w = ctx.plains([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
            a, b = ctx.encrypt(a_pt), ctx.encrypt(b_pt)
            if rotate_first:
                r = ctx.rotate(a, 1)
                m = ctx.mult_plain(b, w)
            else:
                m = ctx.mult_plain(b, w)
                r = ctx.rotate(a, 1)
            ctx.decrypt(ctx.mult_cipher(m, r) if swap else ctx.mult_cipher(r, m))
        return spy.hexdigest(), spy.dataflow_hexdigest()

    ordered, dataflow = digests(True)
    reordered, reordered_dataflow = digests(False)
    assert reordered_dataflow == dataflow and reordered != ordered
    assert digests(True, swap=True)[1] != dataflow


def test_share_blind_digest_ignores_only_the_mask_words_of_conversions():
    """A refresh under channels of two seeds gives two dataflow digests and
    one share-blind digest; the plaintext encrypted outside ``nonlinear``
    is still labelled by its slots there."""
    tool = op_digest_tool()

    def digests(seed, value):
        ctx = Context(_toy_params(None), seed=0)
        with tool.OpDigest().installed(Context) as spy:
            (pt,) = ctx.plains([[value]])
            refresh([([ctx.encrypt(pt)], MpcChannel(ctx.params.plain_modulus, seed))], ctx)
        return spy.dataflow_hexdigest(), spy.dataflow_hexdigest(blind=True)

    dataflow, blind = digests(0, 1)
    other_dataflow, other_blind = digests(1, 1)
    assert other_dataflow != dataflow and other_blind == blind
    assert digests(0, 2)[1] != blind


# per channel, sha256 of every mask word it hands out (int64 bytes in its
# own draw order, ``tools/op_digest.py``); the sha256 of those digests,
# sorted, with the number of draws and of words over all channels: a change
# that moves, adds or drops a mask word on any channel moves it, and one
# that only interleaves the channels' draws differently does not.
# Re-pinned with the dataflow digests: each group now draws one entry block
# and one exit block, and refresh draws a fresh exit mask (n more words per
# refreshed part)
MASK_STREAM = {
    None: ("f1e672c193d95bed89f75f23e82ce7915c24378b8757902abce6c5d1db1f7c68", 830, 101624),
    170: ("67ca158a0c01608f63bd163bedce3687057836fd97f71457149d3602fb11bdb2", 974, 120056),
}

# (bytes_sent, rounds) of each channel after the run: every head's channel
# alike, and the common channel.  The total ``mpc_bytes`` would not see one
# head's bytes charged to another head's channel.
HEAD_TALLY = {None: (51230, 494), 170: (59006, 530)}
COMMON_TALLY = (225768, 1253)


@pytest.mark.parametrize("threshold", [None, 170])
def test_golden_mask_stream(threshold, monkeypatch):
    made = []
    channels = model_module._channels
    monkeypatch.setattr(model_module, "_channels", lambda *a, **kw: made.append(channels(*a, **kw)) or made[-1])
    model = generate_toy_model(toy_config(), seed=0)
    *_, masks = op_digest_tool().digest_run(model, PROMPT, len(TOKENS), _toy_params(threshold))
    assert masks == MASK_STREAM[threshold]
    chans = made[0]  # generate's; prefill and decode_step check and return it
    c = toy_config()
    want = {(l, h): HEAD_TALLY[threshold] for l in range(c.layers) for h in range(c.heads)} | {"common": COMMON_TALLY}
    assert {key: (ch.bytes_sent, ch.rounds) for key, ch in chans.items()} == want


def test_mask_fingerprint_sees_each_channel_order_not_the_interleaving():
    """Swapping two draws of one channel moves the fingerprint; the same
    draws per channel with the channels interleaved otherwise do not."""
    tool = op_digest_tool()

    class Scripted:
        """A channel that hands out the masks it was given, in order."""

        def __init__(self, *masks):
            self.masks = [np.array(m, dtype=np.int64) for m in masks]

        def sample_mask(self, length):
            return self.masks.pop(0)

    def fingerprint(a, b, order):
        chans = [Scripted(*a), Scripted(*b)]
        with tool.MaskStream().installed(Scripted) as masks:
            for i in order:
                chans[i].sample_mask(None)
        return masks.fingerprint()

    a, b = ([1, 2], [3]), ([4, 5, 6], [7])
    base = fingerprint(a, b, [0, 1, 0, 1])
    assert fingerprint(a, b, [1, 1, 0, 0]) == base
    assert fingerprint(a[::-1], b, [0, 1, 0, 1]) != base
    assert base[1:] == (4, 7)


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
