"""Instrumented SIMD-ciphertext emulation over Z_p.

Exact slot-wise arithmetic with cyclic rotation, a linear noise-budget
ledger, and per-operation counting.  The emulation computes the true slot
values at every step (nothing is hidden), so every kernel built on top can
be verified against plain modular arithmetic.  Not cryptographically
secure, and not meant to be: it is the measurement substrate.

Noise is modelled as a bit ledger: every ciphertext starts with a fixed
budget and each operation subtracts a configured cost.  Decryption of a
ciphertext whose budget has reached zero raises, mirroring the correctness
failure of a real scheme.

A ciphertext is a ``SlotCiphertext``, a read-only 5-tuple ``(slots,
noise_budget, id, params, bound)`` with named fields.  Its raw slots are
reduced lazily (Harvey, J. Symb. Comp. 2014): they lie in [0, bound * p)
and are reduced mod p only where an operation needs residues; ``decrypt``
and the ``slots`` property give residues, ``encrypt`` and
``load_ciphertext`` give bound 1.  ``add`` and ``add_plain`` return the
plain sum, whose bound is the sum of the operands' bounds (a plaintext
counts 1), and ``rotate`` passes the bound through.  A sum whose bound
would pass the add cap (2^63 - 1) // p - 1 reduces its operands first and
has bound 2.  A product of operand bounds ka and kb has bound ka * kb * p.
When ka * kb passes the product cap (2^63 - 1) // p^2 (2,047 at p ~ 2^26,
31 at p ~ 2^29, 2 at p ~ 2^31), the operand of the larger bound is
reduced first and the other only if the product still could wrap.  The
product stays unreduced while ``LAZY_PRODUCT_HEADROOM`` products of its
bound still sum under the add cap, which leaves room for the sums and
folds after it, and is reduced in place to bound 1 otherwise: at
p ~ 2^26 a product of operand bounds up to 31 stays lazy (the CPVM, mask
and cache-append products), from p ~ 2^29 on every product is reduced.
Every reduction divides by p held as a 0-d int64 array
(``Context.modulus``).  The op sequence, ids, budgets and counts do not
depend on the bounds.

A plaintext operand is a ``Plaintext``, a read-only 2-tuple ``(slots,
params)`` whose slots are n residues mod p; only ``Context.plains`` makes
one, zero-padding rows shorter than n, so a plaintext that is used many
times (a weight diagonal, a mask) is checked and reduced once, when it is
made.  The plaintext positions of the operations (``encrypt``,
``add_plain``, ``mult_plain``) take only a ``Plaintext`` of the context's
params and refuse any other operand, a raw vector included, with
ParameterError before the op counts.

A ``Context`` issues every ciphertext and counts every operation on it;
the seven counted operations are ``Context`` methods, looked up on the
class at each call, so a tool can wrap them there.  At small slot counts
the Python cost of each operation, not the slot arithmetic, sets the run
time, which is why both records are plain tuples and five operations
(``add``, ``rotate``, ``mult_plain``, ``add_plain``, ``mult_cipher``) do
their checks inline.  ``rotate`` gathers through a per-shift index table
shared by every context of its n up to ``ROTATE_GATHER_MAX_SLOTS`` slots,
and concatenates two slices above.  The objects an op reads on every call
have a fixed layout: ``Context`` and ``MpcChannel`` declare ``__slots__``
and ``OpCounter`` is a slotted dataclass, so a copied or unpickled one
loads its fields as fast as a fresh one (the note at ``Context``).
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import asdict, dataclass, field, fields
from operator import itemgetter

import numpy as np

__all__ = [
    "BackendParams",
    "Context",
    "DecryptionFailure",
    "NoiseBudgetExhausted",
    "NoiseCosts",
    "OpCounter",
    "ParameterError",
    "Plaintext",
    "SlotCiphertext",
    "as_int64",
    "default_plain_modulus",
    "is_prime",
]

# int64 products must not wrap: (p-1)^2 < 2^63 requires p < 2^31.5; we keep
# a power-of-two margin.
MAX_PLAIN_MODULUS = 1 << 31

# rotate gathers through an index table up to this slot count and slices
# above it.  µs per rotation by n//3, concat of two slices vs one gather
# (median of 21 timeit loops of 5000, int64 slots, numpy 2.4.6, Python
# 3.11, 2-vCPU x86-64 host):
#   n       64    256   512   1024  2048  8192
#   concat  1.98  1.97  1.95  2.08  2.40  4.42
#   gather  0.70  1.11  1.76  2.69  4.69  14.6
ROTATE_GATHER_MAX_SLOTS = 512

# the lazy-product headroom of the module docstring.  At 16, 64 and 256
# alike, toy decode steps (n=64, p ~ 2^26) took 2-3% less time than with
# every product reduced (in-process A/B of 100 interleaved steps, 2-core
# x86-64 host).
LAZY_PRODUCT_HEADROOM = 64


class ParameterError(ValueError):
    """Backend parameters violate an invariant."""


class NoiseBudgetExhausted(RuntimeError):
    """An operation would drive a ciphertext's noise budget below zero."""


class DecryptionFailure(RuntimeError):
    """Decryption attempted on a ciphertext with no budget left."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def default_plain_modulus(n_slots: int, min_bits: int = 29) -> int:
    """Smallest prime >= 2^min_bits with p = 1 (mod 2*n_slots)."""
    step = 2 * n_slots
    start = 1 << min_bits
    c = start - (start % step) + 1
    if c < start:
        c += step
    while not is_prime(c):
        c += step
    return c


@dataclass(frozen=True)
class NoiseCosts:
    """Budget (bits) consumed per homomorphic operation."""

    mult_plain: int = 20
    mult_cipher: int = 40
    rotate: int = 2
    add: int = 0
    add_plain: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BackendParams:
    """Emulation parameters: slot count, plaintext modulus, noise ledger."""

    n_slots: int = 8192
    plain_modulus: int = 536903681  # smallest prime >= 2^29 with p = 1 mod 2n
    initial_noise_budget: int = 190
    noise_costs: NoiseCosts = field(default_factory=NoiseCosts)
    refresh_threshold: int = 60

    def __post_init__(self):
        costs = self.noise_costs.as_dict()
        ints = [(f.name, getattr(self, f.name)) for f in fields(self) if f.name != "noise_costs"]
        for name, v in ints + [(f"noise_costs.{k}", v) for k, v in costs.items()]:
            if type(v) is not int:
                raise ParameterError(f"{name} must be an int, got {v!r}")
        n, p = self.n_slots, self.plain_modulus
        if n < 2 or n & (n - 1):
            raise ParameterError(f"n_slots must be a power of two >= 2, got {n}")
        if not is_prime(p):
            raise ParameterError(f"plain_modulus {p} is not prime")
        if p % (2 * n) != 1:
            raise ParameterError(
                f"plain_modulus {p} must be 1 mod 2*n_slots (= {2 * n})"
            )
        if p >= MAX_PLAIN_MODULUS:
            raise ParameterError(
                f"plain_modulus {p} exceeds the int64-safe emulation bound 2^31"
            )
        if any(v < 0 for v in costs.values()):
            raise ParameterError(f"noise costs must be >= 0, got {costs}")
        if not 0 <= self.refresh_threshold < self.initial_noise_budget:
            raise ParameterError(
                "refresh_threshold must lie in [0, initial_noise_budget)"
            )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BackendParams":
        """Parse ``to_json`` output; omitted keys take their defaults."""
        d = json.loads(text)
        _check_keys(d, cls, "backend parameters")
        costs = d.pop("noise_costs", {})
        _check_keys(costs, NoiseCosts, "noise_costs")
        return cls(noise_costs=NoiseCosts(**costs), **d)


def _check_keys(d, cls, what: str) -> None:
    """``d`` must be a JSON object whose keys are fields of ``cls``."""
    if not isinstance(d, dict):
        raise ParameterError(f"{what} must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ParameterError(f"unknown {what} key(s) {unknown}")


@dataclass(slots=True)
class OpCounter:
    """Monotone operation tallies."""

    mult_plain: int = 0
    mult_cipher: int = 0
    rotate: int = 0
    add: int = 0
    add_plain: int = 0
    encrypt: int = 0
    decrypt: int = 0
    refresh_events: int = 0
    mpc_bytes: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    def snapshot(self) -> "OpCounter":
        return OpCounter(**self.as_dict())

    def delta(self, since: "OpCounter") -> dict:
        return {k: v - getattr(since, k) for k, v in self.as_dict().items()}


class SlotCiphertext(tuple):
    """An n-slot vector over Z_p with a noise budget: a read-only 5-tuple
    ``(slots, noise_budget, id, params, bound)`` with named fields.

    The tuple's first item holds the raw slot values, with
    ``0 <= raw < bound * p`` (lazy reduction, see the module docstring);
    the ``slots`` property gives them reduced mod p.

    The raw array is made read-only on construction, and pickle and copy
    rebuild a ciphertext through ``__new__`` with its bound, so an
    unpickled or copied ciphertext is read-only too.  Fields cannot be
    assigned.  A tuple because every operation builds one, and a tuple is
    the cheapest immutable record to build.
    """

    __slots__ = ()

    def __new__(cls, slots: np.ndarray, noise_budget: int, id: int, params: BackendParams, bound: int):
        slots.setflags(False)
        return tuple.__new__(cls, (slots, noise_budget, id, params, bound))

    def __getnewargs__(self):
        return tuple(self)

    @property
    def slots(self) -> np.ndarray:
        """The slot values reduced mod p, a read-only int64 array."""
        raw, bound = self[0], self[4]
        if bound == 1:
            return raw
        reduced = raw % self[3].plain_modulus
        reduced.setflags(False)
        return reduced

    noise_budget = property(itemgetter(1), doc="Noise budget left, in bits.")
    id = property(itemgetter(2), doc="Unique among the ciphertexts of its Context.")
    params = property(itemgetter(3), doc="The BackendParams of the Context that made it.")
    bound = property(itemgetter(4), doc="The raw slots lie in [0, bound * p).")

    @property
    def n_slots(self) -> int:
        return self[3].n_slots


class Plaintext(tuple):
    """An encoded plaintext operand: a read-only 2-tuple ``(slots,
    params)`` with named fields, whose slots are a read-only int64 array
    of ``params.n_slots`` residues mod ``params.plain_modulus``.

    Made only by ``Context.plains``; calling the class raises
    ``TypeError``.  Pickle and copy rebuild the same record,
    read-only.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        raise TypeError("a Plaintext is made by Context.plains")

    def __reduce__(self):
        return _plaintext, tuple(self)

    slots = property(itemgetter(0), doc="The reduced slot values, a read-only int64 array.")
    params = property(itemgetter(1), doc="The BackendParams of the Context that made it.")


_context_uid = itertools.count()
_new_tuple = tuple.__new__
_INT64 = np.dtype(np.int64)
_INCOMPATIBLE = "ciphertext belongs to an incompatible context"
_INCOMPATIBLE_PLAIN = "plaintext belongs to an incompatible context"
_NOT_PLAIN = "a %s was passed where a plaintext is expected: encode it with Context.plains"


def as_int64(values) -> np.ndarray:
    """An integer array as int64, every value kept exactly: an int64 array
    is returned as is, an empty one (``[[]]`` reads as float) is taken.
    Floats, bools and objects, unsigned values from 2^63 on (int64 would
    wrap them) and what numpy cannot read as one rectangular array
    (ragged rows, a ciphertext, a list of plaintexts) raise ParameterError."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise ParameterError(f"expected an integer array, got {type(values).__name__}") from None
    if arr.dtype is _INT64:
        return arr
    if arr.size and arr.dtype.kind not in "iu":
        raise ParameterError(f"expected integers, got {arr.dtype} of shape {arr.shape}")
    if arr.dtype.itemsize == 8 and arr.dtype.kind == "u" and arr.size and arr.max() >= 2**63:
        raise ParameterError("unsigned values from 2^63 on do not fit int64: reduce them mod p first")
    return arr.astype(np.int64)


@functools.cache
def _rotation_table(n: int) -> tuple:
    """The rotate index table of every n-slot context, built on first use:
    the gather index of each shift k, k..k+n-1 mod n, as read-only views of
    one doubled arange."""
    doubled = np.tile(np.arange(n), 2)
    doubled.setflags(False)
    return tuple(doubled[k : k + n] for k in range(n))


def _plaintext(slots: np.ndarray, params: BackendParams) -> Plaintext:
    slots.setflags(False)
    return _new_tuple(Plaintext, (slots, params))


class Context:
    """Owns the op counter, the seed sequence, and ciphertext identity."""

    # A fixed layout, because every op reads six to nine of these fields.
    # On CPython 3.11 an instance whose __dict__ is read or built whole, as
    # copy and pickle do, loads attributes 2-3x slower: four self.x loads
    # took 50-87 ns fresh, 93-250 ns copied or unpickled and 74-82 ns with
    # __slots__ (timeit, Python 3.11.7, 2-core x86-64 host).  A subclass
    # must declare its own __slots__, empty if it adds no field, or it gets
    # a __dict__ back.
    __slots__ = (
        "_params", "_p", "_n", "_add_cost", "_add_plain_cost", "_rotate_cost",
        "_mult_plain_cost", "_mult_cipher_cost", "_add_cap", "_mult_cap",
        "_lazy_cap", "_modulus", "_rotation",
        "counter", "_seed_seq", "_next_id", "_masks",
    )

    def __init__(self, params: BackendParams, seed=0):
        seed_seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        # _masks: (start, width) -> Plaintext
        self.__setstate__((params, OpCounter(), seed_seq, next(_context_uid) * 1_000_000_000, {}))

    def __getstate__(self):
        """The fields pickle and copy keep; the rest derive from params."""
        return self._params, self.counter, self._seed_seq, self._next_id, self._masks

    def __setstate__(self, state):
        params, self.counter, self._seed_seq, self._next_id, self._masks = state
        self._params = params
        # read once for the hot ops; params is frozen and read-only here
        self._p = params.plain_modulus
        self._n = params.n_slots
        costs = params.noise_costs
        self._add_cost, self._add_plain_cost = costs.add, costs.add_plain
        self._rotate_cost, self._mult_plain_cost = costs.rotate, costs.mult_plain
        self._mult_cipher_cost = costs.mult_cipher
        # the add and product caps of the module docstring, and the largest
        # product of operand bounds whose product stays unreduced
        self._add_cap = (2**63 - 1) // self._p - 1
        self._mult_cap = (2**63 - 1) // self._p**2
        self._lazy_cap = self._add_cap // LAZY_PRODUCT_HEADROOM // self._p
        # every reduction divides by p as a 0-d int64 array, which numpy
        # takes faster than a Python int (0.6-0.7 against 1.0 µs at n=64,
        # numpy 2.4.6, 2-core x86-64 host)
        self._modulus = np.array(self._p, dtype=np.int64)
        self._modulus.setflags(False)
        # None above the crossover, where rotate slices
        self._rotation = _rotation_table(self._n) if self._n <= ROTATE_GATHER_MAX_SLOTS else None

    @property
    def params(self) -> BackendParams:
        """The parameters every ciphertext of this context is checked against."""
        return self._params

    @property
    def modulus(self) -> np.ndarray:
        """The plain modulus p as a read-only 0-d int64 array, the divisor
        of every reduction mod p."""
        return self._modulus

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def plains(self, rows) -> list:
        """Encode the rows of a k x L integer matrix, L <= n, each
        zero-padded to n slots and reduced mod p in one numpy call; one
        ``Plaintext`` per row, each a view of its row.

        A writable k x n int64 array is reduced in place and made
        read-only, so a matrix built for this call is never copied; any
        other input is converted to a fresh int64 array first, as
        ``as_int64`` takes it.
        """
        M = as_int64(rows)
        n = self._n
        if M.ndim != 2 or M.shape[1] > n:
            raise ParameterError(f"expected an integer matrix of at most {n} columns, got shape {M.shape}")
        if M.shape[1] < n:
            padded = np.zeros((M.shape[0], n), dtype=np.int64)
            padded[:, : M.shape[1]] = M
            M = padded
        elif not M.flags.writeable:
            M = M.copy()
        np.remainder(M, self._modulus, M)
        M.setflags(False)
        params = self._params
        return [_new_tuple(Plaintext, (row, params)) for row in M]

    def block_mask(self, start: int, width: int) -> Plaintext:
        """The plaintext with ones in slots start..start+width-1 and zero
        elsewhere (a one-hot mask at width 1), encoded on first use and
        kept for this context."""
        mask = self._masks.get((start, width))
        if mask is None:
            if not 0 <= start < start + width <= self._n:
                raise ParameterError(f"mask of {width} slots from slot {start} does not fit {self._n} slots")
            mask = self._masks[start, width] = self.plains([[0] * start + [1] * width])[0]
        return mask

    def spawn_seed(self) -> np.random.SeedSequence:
        """A fresh child of this context's seed sequence (never repeats)."""
        return self._seed_seq.spawn(1)[0]

    def _emit(self, slots: np.ndarray, budget: int) -> SlotCiphertext:
        # slots: a Plaintext's, read-only already
        ct = _new_tuple(SlotCiphertext, (slots, budget, self._next_id, self._params, 1))
        self._next_id += 1
        return ct

    # ------------------------------------------------------------------
    # operations
    #
    # add, rotate and mult_plain are nine in ten of all ops, add_plain
    # masks every share conversion and mult_cipher is every CT x CT
    # product, so each of them does the params check, the budget spend,
    # the count and the build of its result inline (the same steps as
    # decrypt's check and _emit).
    # ------------------------------------------------------------------

    def encrypt(self, pt: Plaintext) -> SlotCiphertext:
        if type(pt) is not Plaintext:
            raise ParameterError(_NOT_PLAIN % type(pt).__name__)
        slots, params = pt
        if params is not self._params and params != self._params:
            raise ParameterError(_INCOMPATIBLE_PLAIN)
        self.counter.encrypt += 1
        return self._emit(slots, self._params.initial_noise_budget)

    def decrypt(self, ct: SlotCiphertext) -> np.ndarray:
        """The slot values reduced mod p, in a fresh writable array."""
        if ct[3] is not self._params and ct[3] != self._params:
            raise ParameterError(_INCOMPATIBLE)
        if ct.noise_budget <= 0:
            raise DecryptionFailure(
                "noise budget exhausted: decryption would be incorrect"
            )
        self.counter.decrypt += 1
        raw = ct[0]
        return raw % self._modulus if ct[4] > 1 else raw.copy()

    def add(self, a: SlotCiphertext, b: SlotCiphertext) -> SlotCiphertext:
        sa, ba, _, pa, ka = a
        sb, bb, _, pb, kb = b
        params = self._params
        if pa is not params and pa != params or pb is not params and pb != params:
            raise ParameterError(_INCOMPATIBLE)
        have, cost = ba if ba < bb else bb, self._add_cost
        if have < cost:
            raise NoiseBudgetExhausted(f"operation needs {cost} bits but only {have} remain")
        self.counter.add += 1
        bound = ka + kb
        if bound > self._add_cap:
            p = self._modulus
            slots, bound = sa % p + sb % p, 2
        else:
            slots = sa + sb
        slots.setflags(False)
        ct = _new_tuple(SlotCiphertext, (slots, have - cost, self._next_id, params, bound))
        self._next_id += 1
        return ct

    def add_plain(self, a: SlotCiphertext, pt: Plaintext) -> SlotCiphertext:
        sa, have, _, pa, ka = a
        params = self._params
        if pa is not params and pa != params:
            raise ParameterError(_INCOMPATIBLE)
        if type(pt) is not Plaintext:
            raise ParameterError(_NOT_PLAIN % type(pt).__name__)
        v, pv = pt
        if pv is not params and pv != params:
            raise ParameterError(_INCOMPATIBLE_PLAIN)
        cost = self._add_plain_cost
        if have < cost:
            raise NoiseBudgetExhausted(f"operation needs {cost} bits but only {have} remain")
        self.counter.add_plain += 1
        bound = ka + 1
        if bound > self._add_cap:
            slots, bound = sa % self._modulus + v, 2
        else:
            slots = sa + v
        slots.setflags(False)
        ct = _new_tuple(SlotCiphertext, (slots, have - cost, self._next_id, params, bound))
        self._next_id += 1
        return ct

    def mult_plain(self, a: SlotCiphertext, pt: Plaintext) -> SlotCiphertext:
        sa, have, _, pa, ka = a
        params = self._params
        if pa is not params and pa != params:
            raise ParameterError(_INCOMPATIBLE)
        if type(pt) is not Plaintext:
            raise ParameterError(_NOT_PLAIN % type(pt).__name__)
        v, pv = pt
        if pv is not params and pv != params:
            raise ParameterError(_INCOMPATIBLE_PLAIN)
        cost = self._mult_plain_cost
        if have < cost:
            raise NoiseBudgetExhausted(f"operation needs {cost} bits but only {have} remain")
        self.counter.mult_plain += 1
        if ka > self._mult_cap:
            sa, ka = sa % self._modulus, 1
        slots = sa * v
        if ka > self._lazy_cap:
            np.remainder(slots, self._modulus, slots)
            bound = 1
        else:
            bound = ka * self._p
        slots.setflags(False)
        ct = _new_tuple(SlotCiphertext, (slots, have - cost, self._next_id, params, bound))
        self._next_id += 1
        return ct

    def mult_cipher(self, a: SlotCiphertext, b: SlotCiphertext) -> SlotCiphertext:
        sa, ba, _, pa, ka = a
        sb, bb, _, pb, kb = b
        params = self._params
        if pa is not params and pa != params or pb is not params and pb != params:
            raise ParameterError(_INCOMPATIBLE)
        have, cost = ba if ba < bb else bb, self._mult_cipher_cost
        if have < cost:
            raise NoiseBudgetExhausted(f"operation needs {cost} bits but only {have} remain")
        self.counter.mult_cipher += 1
        k = ka * kb
        if k > self._mult_cap:
            # reduce the operand of the larger bound, the other only if
            # the product could still wrap
            if ka < kb:
                sa, sb, ka, kb = sb, sa, kb, ka
            sa, k = sa % self._modulus, kb
            if k > self._mult_cap:
                sb, k = sb % self._modulus, 1
        slots = sa * sb
        if k > self._lazy_cap:
            np.remainder(slots, self._modulus, slots)
            bound = 1
        else:
            bound = k * self._p
        slots.setflags(False)
        ct = _new_tuple(SlotCiphertext, (slots, have - cost, self._next_id, params, bound))
        self._next_id += 1
        return ct

    def rotate(self, a: SlotCiphertext, k: int) -> SlotCiphertext:
        """Cyclic left shift by k slots (k may be negative or >= n).

        The result's slots are a fresh array (also for k = 0 mod n) that
        shares no memory with ``a``: up to ``ROTATE_GATHER_MAX_SLOTS``
        slots one gather of ``a``'s slots through the index array of
        shift k, above it the concatenation of two slices, whichever
        is faster at that n.
        """
        s, have, _, pa, bound = a
        params = self._params
        if pa is not params and pa != params:
            raise ParameterError(_INCOMPATIBLE)
        cost = self._rotate_cost
        if have < cost:
            raise NoiseBudgetExhausted(f"operation needs {cost} bits but only {have} remain")
        self.counter.rotate += 1
        k %= self._n
        idx = self._rotation
        slots = np.concatenate((s[k:], s[:k])) if idx is None else s[idx[k]]
        slots.setflags(False)
        ct = _new_tuple(SlotCiphertext, (slots, have - cost, self._next_id, params, bound))
        self._next_id += 1
        return ct

    def load_ciphertext(self, values, budget: int) -> SlotCiphertext:
        """Rehydrate a serialized ciphertext, n integer slots encoded by
        ``plains``; not counted as an operation.  Another length, or a
        budget other than an int in [1, initial_noise_budget], raises
        ParameterError."""
        top = self._params.initial_noise_budget
        if type(budget) is not int or not 1 <= budget <= top:
            raise ParameterError(f"ciphertext budget {budget!r} is not an int in [1, {top}]")
        v = as_int64(values)
        if v.shape != (self._n,):
            raise ParameterError(f"expected an integer vector of length {self._n}, got shape {v.shape}")
        return self._emit(self.plains([v])[0][0], budget)

    # ------------------------------------------------------------------
    # composites (every step is one of the counted operations above)
    # ------------------------------------------------------------------

    def fold(self, a: SlotCiphertext, stride: int, stop: int) -> SlotCiphertext:
        """Rotate-and-add doubling: a = a + rotate(a, s) for s = stride,
        2*stride, 4*stride, ... while |s| < stop; ceil(log2(stop/|stride|))
        rotations and as many additions (Halevi-Shoup totalSums/replicate).

        A positive stride folds: slot i ends up holding the cyclic sum
        a[i] + a[i+stride] + ... over next_pow2(stop/stride) terms.  A
        negative stride replicates: a payload in slots 0..|stride|-1 (zero
        elsewhere) is copied into that many |stride|-wide blocks from slot 0.
        """
        if stride == 0:
            raise ParameterError("fold stride must be nonzero")
        s = stride
        while abs(s) < stop:
            a = self.add(a, self.rotate(a, s))
            s *= 2
        return a

    def sum(self, cts) -> SlotCiphertext:
        """Left fold of ``add`` over an iterable of ciphertexts.

        The iterable is consumed lazily: each term is produced only after
        the previous addition, so a generator of terms that spend
        operations holds one term at a time and interleaves its operations
        with the additions as a hand-written accumulator loop would.  That
        order moves only the ordered digest of ``tools/op_digest.py``, not
        its dataflow digest.
        """
        it = iter(cts)
        acc = next(it, None)
        if acc is None:
            raise ParameterError("sum of no ciphertexts")
        for ct in it:
            acc = self.add(acc, ct)
        return acc
