#!/usr/bin/env python3
"""Fingerprint the homomorphic operations of one ``generate`` run, twice.

Every call of the seven counted ``Context`` operations (encrypt, decrypt,
add, add_plain, mult_plain, mult_cipher, rotate) is recorded.  Two digests
are computed from the records:

* The ordered digest pins the operations and the order they are called
  in.  It is the sha256 of one record per op, (op name, operand
  ciphertext ids, result id, result noise budget), in call order; decrypt
  has no result ciphertext and records ``None`` for both.  Ciphertext ids
  are renumbered in order of first appearance, so the digest does not
  depend on how many contexts the process created before the run.
* The dataflow digest pins the dependency graph of the operations, not
  their order.  Each result ciphertext gets a label: the sha256 of the op
  name, its ciphertext operands' labels in operand order, its rotation
  amount (mod n) or the sha256 of its plaintext operand's slots, and its
  result noise budget.  A decrypt's label hashes its operand's label.  The
  digest is the sha256 of all labels, sorted, so every order of the same
  graph gives the same value.
* The share-blind dataflow digest is the dataflow digest with every
  plaintext that ``Context.plains`` made inside ``cryptogen/nonlinear.py``
  labelled by its slot count instead of its slots.  Those plaintexts hold
  share masks, so it sees the op graph of a run and not which mask words
  its conversions drew, and it holds when a change moves mask words but
  no op.

All three are printed next to the tokens, the operation count and the run's
total MPC bytes (``mpc_bytes`` of the op counter).  A further sha256
covers the mask streams: each channel's masks, as int64 bytes in that
channel's own draw order, are hashed apart, and the stream fingerprint is
the sha256 of the sorted per-channel digests, with the total number of
draws and of words.  A channel's words are the protocol; how the draws of
different channels interleave is not.  All of them are compared with the
values pinned for the shape: the script exits 1 when any of them differs.  Neither op digest covers ciphertext
slot values, so the pinned tokens are the check that the values still
decode to the same generation.

A change that keeps the dataflow digest computes the same operations on
the same operands and spends the same noise; if it moves the ordered
digest, it only reordered independent operations, and it says why when it
re-pins it.  The mask stream is the check that it moved no mask word.

    python3 tools/op_digest.py --shape decode_long     # n=64, prompt 8, k=144
    python3 tools/op_digest.py --shape refresh_churn   # threshold 170, prompt 32, k=112
    python3 tools/op_digest.py --shape paper1          # n=8192, one paper-width layer, k=2

The toy shapes run the toy model on ``configs/params_toy.json``, with the
first 8 or 32 tokens that ``numpy.random.default_rng(1)`` draws over its
vocabulary as the prompt.  ``paper1`` runs one layer at the paper's width
(d1=768, 12 heads, ffn 3072, vocab 64, weights drawn with seed 0) on
``configs/params_reference.json`` (n=8192, p = 536,903,681) with prompt
[1, 2, 3, 4]: the one pinned pipeline that reaches the sliced rotation
above 512 slots and the reduction caps of the reference modulus (about
20 s on a 2-core x86-64 host).  The ``Context`` and the ``generate`` seed
are 0.  Run from a checkout: ``src/`` is put on the path.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# the counted operations and how many of their leading arguments are ciphertexts
CT_OPERANDS = {"encrypt": 0, "decrypt": 1, "add": 2, "add_plain": 1, "mult_plain": 1, "mult_cipher": 2, "rotate": 1}

TOY_PROMPT = (30, 32, 48, 60, 2, 9, 52, 60, 15, 19, 55, 27, 17, 52, 16, 26,
              41, 35, 5, 1, 55, 48, 53, 34, 52, 21, 28, 50, 7, 19, 7, 29)
PAPER1_MODEL = {"layers": 1, "d1": 768, "heads": 12, "ffn_dim": 3072, "vocab": 64, "max_seq": 16, "f": 8}


class Shape(NamedTuple):
    model: dict | None  # ModelConfig fields, or None for toy_config(); generate_toy_model weights, seed 0
    params: str  # file under configs/
    threshold: int | None  # refresh threshold in place of the file's
    prompt: tuple
    k: int  # tokens generated
    # pinned: op sequence sha256, op count, tokens, MPC bytes, dataflow
    # sha256, the mask streams (sha256 of the per-channel digests, draws,
    # words) and the share-blind dataflow sha256
    digest: str
    ops: int
    tokens: list
    mpc_bytes: int
    dataflow: str
    masks: tuple
    blind: str


# The ordered digests were last re-pinned when the prompt pass took all of
# a layer's heads in one attention pass: every head's prompt-pass
# projections and outputs are made before the one truncate of their
# stage, while each head's scores, softmax and weights run head by head.
# The dataflow digests and mask streams held.
SHAPES = {
    "decode_long": Shape(
        None, "params_toy.json", None, TOY_PROMPT[:8], 144,
        "39764197dcde7ae1143de11804d38809f258ec1b53f1498d6040847704d8629c", 743_073,
        [
            28, 9, 15, 12, 58, 27, 27, 27, 27, 27, 27, 27, 27, 27, 27, 26, 63, 34, 58, 27, 27, 27, 15, 12,
            10, 55, 27, 27, 27, 55, 11, 63, 23, 44, 58, 27, 27, 27, 27, 27, 27, 55, 55, 12, 58, 27, 55, 47,
            11, 63, 55, 27, 27, 27, 55, 57, 27, 55, 27, 27, 55, 11, 58, 27, 41, 15, 12, 44, 28, 63, 34, 63,
            55, 11, 63, 12, 9, 4, 55, 27, 55, 52, 27, 27, 27, 27, 27, 27, 27, 27, 3, 43, 58, 63, 27, 27,
            27, 27, 55, 10, 55, 11, 63, 34, 63, 52, 58, 33, 58, 58, 48, 55, 27, 27, 27, 55, 27, 55, 27, 55,
            55, 27, 27, 55, 27, 58, 27, 27, 27, 55, 43, 58, 27, 55, 27, 27, 55, 63, 12, 58, 58, 27, 44, 33,
        ],
        10_841_400,
        "838418c0b56445c0155d4248281ebc1d28a98fcc8999bf3b40cef955125ec4c9",
        ("d9be6127b556d5bc41a1a77942f2510f1dd3d2296ff0e75fd36e926488d29ce5", 11_014, 2_015_776),
        "3ec4dfb4b11c3984371507963660a89ad2266c8061f3b1b74609bf5db9c97dd1",
    ),
    "refresh_churn": Shape(
        None, "params_toy.json", 170, TOY_PROMPT, 112,
        "c2e3ae3407dcad27ea31fc16246292c69db389e1ee64b6197ba89f675d5cd864", 612_129,
        [
            55, 27, 27, 27, 27, 55, 11, 63, 29, 56, 60, 44, 9, 46, 12, 14, 49, 60, 26, 12, 58, 27, 55, 47,
            11, 63, 57, 27, 27, 27, 55, 11, 63, 55, 27, 27, 55, 11, 63, 34, 58, 27, 27, 27, 55, 27, 27, 27,
            55, 11, 63, 12, 9, 4, 55, 27, 55, 11, 36, 15, 27, 27, 27, 27, 27, 27, 3, 43, 58, 63, 27, 27,
            27, 27, 55, 10, 55, 11, 63, 34, 63, 52, 58, 33, 58, 58, 27, 34, 63, 27, 27, 55, 27, 55, 27, 55,
            55, 27, 27, 55, 27, 58, 27, 27, 27, 55, 43, 58, 27, 55, 27, 27,
        ],
        9_014_392,
        "097d2dc9327b64e7568701f1dbecf8644c7c8c8098959564d20c30c533f33c5b",
        ("29dca381ae30b12a935b8253d37f7c6f69ab5e15dfbc7b77f579b668f9b4a98f", 10_358, 1_634_336),
        "431fb86710868e2ed40ae259de3b8264d14ae2e2a0c359ce2b0939756ece85dc",
    ),
    "paper1": Shape(
        PAPER1_MODEL, "params_reference.json", None, (1, 2, 3, 4), 2,
        "7a005397152ac3d135afbe367d492055fc0f3d0d7e1b971e9db3deabbda625bc", 544_491,
        [49, 39],
        602_533_200,
        "1a4e9e7e0bec3b2183eb4112c080ba1dd5b0c6bd8252dcc670ad93dc2bbde083",
        ("f65be8864098ba3c68b8236d8060d593b2d30232bb9d347d550617b142bb45b9", 272, 83_696_672),
        "7f5d4b8dc94b39b9d03329d2fb8e35b230028e26cc1073419c6cbc6f9c5346c8",
    ),
}


class OpDigest:
    """The ordered, the dataflow and the share-blind dataflow digest of the
    counted ops seen while installed.  Every ciphertext operand must come
    from an op seen while installed, as in a run on a fresh context."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self._ids: dict[int, int] = {}
        # ciphertext id -> label, and every op's label, decrypts included:
        # one pair for the dataflow digest, one for the share-blind one
        self._graphs = (({}, []), ({}, []))
        self._masked: dict[int, object] = {}  # id -> plaintext made in nonlinear, held until used
        self.ops = 0

    def _rename(self, ct_id: int) -> int:
        return self._ids.setdefault(ct_id, len(self._ids))

    def record(self, op: str, args, result) -> None:
        operands = args[: CT_OPERANDS[op]]
        ins = tuple(self._rename(ct.id) for ct in operands)
        if op == "decrypt":
            out = (None, None)
        else:
            out = (self._rename(result.id), result.noise_budget)
        self._hash.update(repr((op, ins) + out).encode() + b"\n")
        self.ops += 1

        arg = blind = b""
        if op == "rotate":
            arg = blind = b"by %d" % (args[1] % operands[0].n_slots)
        elif op in ("encrypt", "add_plain", "mult_plain"):
            pt = args[-1]
            arg = blind = hashlib.sha256(pt.slots).digest()
            if self._masked.pop(id(pt), None) is not None:
                blind = b"%d slots" % pt.slots.size
        for (labels, nodes), extra in zip(self._graphs, (arg, blind)):
            node = hashlib.sha256(op.encode())
            for ct in operands:
                node.update(labels[ct.id])
            node.update(extra)
            if op != "decrypt":
                node.update(b"budget %d" % result.noise_budget)
                labels[result.id] = node.digest()
            nodes.append(node.digest())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    def dataflow_hexdigest(self, blind: bool = False) -> str:
        """sha256 of the sorted labels: the same for every order of the
        same dependency graph; share-blind if ``blind``."""
        _, nodes = self._graphs[blind]
        return hashlib.sha256(b"".join(sorted(nodes))).hexdigest()

    @contextmanager
    def installed(self, ctx_cls):
        """Wrap the counted operations and ``plains`` of ``ctx_cls`` (every
        instance) for the duration of the block."""
        orig = {op: getattr(ctx_cls, op) for op in (*CT_OPERANDS, "plains")}

        def spy(op, fn):
            def wrapped(self_, *args):
                out = fn(self_, *args)
                self.record(op, args, out)
                return out

            return wrapped

        def plains(self_, rows):
            out = orig["plains"](self_, rows)
            if sys._getframe(1).f_globals.get("__name__") == "cryptogen.nonlinear":
                self._masked.update((id(pt), pt) for pt in out)
            return out

        for op in CT_OPERANDS:
            setattr(ctx_cls, op, spy(op, orig[op]))
        ctx_cls.plains = plains
        try:
            yield self
        finally:
            for op, fn in orig.items():
                setattr(ctx_cls, op, fn)


class MaskStream:
    """Per channel, a sha256 over the int64 bytes of every mask it hands out
    while installed, in its own draw order; plus the number of draws and of
    words over all channels."""

    def __init__(self):
        self._hashes = {}  # channel -> its sha256; the key keeps the channel alive
        self.draws = 0
        self.words = 0

    def fingerprint(self) -> tuple:
        """(sha256 of the sorted per-channel digests, draws, words)."""
        digests = sorted(h.digest() for h in self._hashes.values())
        return hashlib.sha256(b"".join(digests)).hexdigest(), self.draws, self.words

    @contextmanager
    def installed(self, ch_cls):
        sample = ch_cls.sample_mask

        def wrapped(ch, length):
            mask = sample(ch, length)
            self._hashes.setdefault(ch, hashlib.sha256()).update(mask.tobytes())
            self.draws += 1
            self.words += mask.size
            return mask

        ch_cls.sample_mask = wrapped
        try:
            yield self
        finally:
            ch_cls.sample_mask = sample


def digest_run(model, prompt, k: int, params):
    """(ordered digest, tokens, op count, MPC bytes, dataflow digest,
    share-blind dataflow digest, mask stream fingerprint) of ``generate``
    on a fresh Context."""
    from cryptogen.backend import Context
    from cryptogen.model import generate
    from cryptogen.nonlinear import MpcChannel

    spy, masks = OpDigest(), MaskStream()
    with spy.installed(Context), masks.installed(MpcChannel):
        tokens, report = generate(model, prompt, k, Context(params, seed=0), seed=0)
    mpc_bytes = report["totals"]["mpc_bytes"]
    dataflow, blind = spy.dataflow_hexdigest(), spy.dataflow_hexdigest(blind=True)
    return spy.hexdigest(), tokens, spy.ops, mpc_bytes, dataflow, blind, masks.fingerprint()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--shape", choices=sorted(SHAPES), required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from cryptogen.backend import BackendParams
    from cryptogen.model import ModelConfig, generate_toy_model, toy_config

    shape = SHAPES[args.shape]
    params = BackendParams.from_json((ROOT / "configs" / shape.params).read_text())
    if shape.threshold is not None:
        params = dataclasses.replace(params, refresh_threshold=shape.threshold)
    config = toy_config() if shape.model is None else ModelConfig(**shape.model)
    model = generate_toy_model(config, seed=0)
    digest, tokens, ops, mpc_bytes, dataflow, blind, masks = digest_run(model, list(shape.prompt), shape.k, params)
    print(f"shape {args.shape}  ops {ops}  mpc_bytes {mpc_bytes}")
    print(f"tokens {tokens}")
    print(f"sha256 {digest}")
    print(f"dataflow sha256 {dataflow}")
    print(f"share-blind dataflow sha256 {blind}")
    print(f"mask stream sha256 {masks[0]}  draws {masks[1]}  words {masks[2]}")
    match = (digest, ops) == (shape.digest, shape.ops)
    print(f"matches pinned digest: {'yes' if match else f'no (want {shape.digest}, {shape.ops} ops)'}")
    same_dataflow = dataflow == shape.dataflow
    print(f"matches pinned dataflow digest: {'yes' if same_dataflow else f'no (want {shape.dataflow})'}")
    same_tokens = tokens == shape.tokens
    print(f"matches pinned tokens: {'yes' if same_tokens else f'no (want {shape.tokens})'}")
    same_bytes = mpc_bytes == shape.mpc_bytes
    print(f"matches pinned MPC bytes: {'yes' if same_bytes else f'no (want {shape.mpc_bytes})'}")
    same_masks = masks == shape.masks
    print(f"matches pinned mask stream: {'yes' if same_masks else f'no (want {shape.masks})'}")
    same_blind = blind == shape.blind
    print(f"matches pinned share-blind digest: {'yes' if same_blind else f'no (want {shape.blind})'}")
    return 0 if match and same_dataflow and same_tokens and same_bytes and same_masks and same_blind else 1


if __name__ == "__main__":
    sys.exit(main())
