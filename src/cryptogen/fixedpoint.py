"""Fixed-point arithmetic shared by the MPC-side protocols and the
plaintext reference pipeline.

Reals are encoded as round(v * 2^f) in Z_p with values >= p/2 standing for
negatives.  Every function here operates on signed int64 numpy arrays (or
Python ints) and is exactly deterministic, so the encrypted pipeline and
the plaintext oracle share one implementation of each nonlinear step.
Integer inputs are taken as ``backend.as_int64`` takes them (floats and
uint64 values from 2^63 on raise ParameterError); only ``fp_encode`` and
``fp_decode`` take reals.

The softmax and its reciprocal work row-wise over the last axis of an
int64 array (a vector is one row), so a decode step scores every head's
row, and the prompt pass a head's whole m x m matrix, in one
``causal_attention_weights`` call; the oracle calls it one row at a time,
row i of a block of r at query position len(K) - r + i in the cache the
block extends, so token-exact tests cross-check the two.

Polynomial coefficients below were produced by tools/fit_nonlinear_coeffs.py
and are frozen; rerun the script to regenerate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .backend import MAX_PLAIN_MODULUS, ParameterError, as_int64

__all__ = [
    "CAUSAL_MASK_EXPONENT",
    "FixedPointParams",
    "GELU_CLIP",
    "RECIPROCAL_ITERS",
    "attention_weights",
    "causal_attention_weights",
    "fp_encode",
    "fp_decode",
    "fp_gelu",
    "fp_layernorm",
    "fp_reciprocal",
    "fp_softmax",
    "fp_truncate",
    "to_signed",
]

# GELU quartic on [0, 3.2] with zero intercept (so GELU(0) is exactly 0),
# evaluated in two squaring rounds as c4*(x^2 + beta*x)^2 + c2p*x^2 + c1*x.
# Max |err| 2.1e-3 in floats.
GELU_CLIP = 3.2
_G_C4 = 0.0203101927
_G_C3 = -0.1792823041
_G_C2 = 0.5309976652
_G_C1 = 0.4701539873
_G_BETA = _G_C3 / (2.0 * _G_C4)
_G_C2P = _G_C2 - _G_C4 * _G_BETA * _G_BETA

# exp(r) quadratic on the softmax residual range (-ln2, 0], fit padded to
# [-0.72, 0.02].  Max |err| 2.5e-3 in floats.
_E_C2 = 0.3558034634
_E_C1 = 0.9634474169
_E_C0 = 0.9982613301

_Z_SHIFT_CAP = 48  # int64-safe right-shift bound; payloads are far smaller

RECIPROCAL_ITERS = 4  # Newton steps of the softmax reciprocal


@dataclass(frozen=True)
class FixedPointParams:
    """Scale exponent and modulus of the signed fixed-point embedding."""

    f: int
    p: int

    def __post_init__(self):
        if self.f < 1:
            raise ParameterError("fraction bits must be positive")
        if (1 << (2 * self.f + 6)) >= self.p:
            raise ParameterError(
                f"need 2^(2f+6) < p for product headroom; f={self.f} p={self.p}"
            )
        if self.p >= MAX_PLAIN_MODULUS:
            raise ParameterError(f"p = {self.p} exceeds the int64-safe bound 2^31")

    @property
    def scale(self) -> int:
        return 1 << self.f

    def quantize(self, v: float) -> int:
        return _quantize(v, self.f)


def _quantize(v: float, f: int) -> int:
    return int(round(v * (1 << f)))


@functools.cache
def _softmax_constants(f: int) -> tuple:
    """fp_softmax's 1/ln2, ln2 and exp quadratic c2, c1, c0 at scale f."""
    return tuple(_quantize(v, f) for v in (1.0 / math.log(2.0), math.log(2.0), _E_C2, _E_C1, _E_C0))


@functools.cache
def _gelu_constants(f: int) -> tuple:
    """fp_gelu's clip and quartic c4, beta, c2', c1 at scale f."""
    return tuple(_quantize(v, f) for v in (GELU_CLIP, _G_C4, _G_BETA, _G_C2P, _G_C1))


@functools.cache
def _inv_sqrt_width(d2: int, f: int) -> int:
    """The attention rescale 1/sqrt(d2) at scale f."""
    return _quantize(1.0 / math.sqrt(d2), f)


def to_signed(v, p: int):
    """Map Z_p residues to signed representatives in (-p/2, p/2]."""
    v = as_int64(v)
    return np.where(v > p // 2, v - p, v)


def fp_encode(x, fp: FixedPointParams) -> np.ndarray:
    """Reals -> signed fixed-point integers (not reduced mod p)."""
    return np.round(np.asarray(x, dtype=np.float64) * fp.scale).astype(np.int64)


def fp_decode(v, fp: FixedPointParams) -> np.ndarray:
    return np.asarray(v, dtype=np.float64) / fp.scale


def fp_truncate(v, f: int):
    """Floor-divide signed values by 2^f (arithmetic shift)."""
    return as_int64(v) >> f


def fp_gelu(x, fp: FixedPointParams) -> np.ndarray:
    """GELU on signed scale-f integers: quartic inside [-3.2, 3.2] via two
    squarings, exact passthrough/zero outside, negative side by symmetry
    GELU(x) = x + GELU(-x)."""
    f = fp.f
    x = as_int64(x)
    clip, c4, beta, c2p, c1 = _gelu_constants(f)

    ax = np.minimum(np.abs(x), clip)
    m1 = (ax * ax) >> f
    u = m1 + ((beta * ax) >> f)
    m2 = (u * u) >> f
    g = ((c4 * m2) >> f) + ((c2p * m1) >> f) + ((c1 * ax) >> f)
    inside = np.where(x >= 0, g, x + g)
    outside = np.where(x > 0, x, 0)
    return np.where(np.abs(x) > clip, outside, inside)


def fp_reciprocal(s, fp: FixedPointParams) -> tuple[np.ndarray, int]:
    """Newton reciprocal of positive scale-f integers, elementwise.

    Returns (y, q) with q = 2f and y ~ 2^(f+q)/s, i.e. a scale-q encoding
    of 1/s_real, after RECIPROCAL_ITERS steps.  The initial guess comes
    from the bit length of s (always a lower bound, so the iteration
    converges from below).
    """
    s = as_int64(s)
    if (s <= 0).any():
        raise ParameterError("reciprocal needs a positive input")
    return _newton_reciprocal(s, fp.f), 2 * fp.f


def _newton_reciprocal(s, f: int):
    """fp_reciprocal's y for positive int64 s, taken unchecked."""
    q = 2 * f
    bits = np.frexp(s)[1]  # the bit length: s < 2^53 converts exactly
    y = np.int64(1) << np.maximum(0, f + q - bits)
    # Inside int64: FixedPointParams keeps 2^(2f+6) < p < 2^31, so f <= 12; for
    # 1 <= s <= 2^(3f) (a softmax total is at most L*2^f) the iterate stays at or
    # below 2^(3f), so 0 <= t < 2^(2f+1) and y*(2^(2f+1) - t) <= 2^(5f+1) <= 2^61.
    # A row of more than 2^(2f) keys can pass 2^(3f); model.plan refuses one.
    for _ in range(RECIPROCAL_ITERS):
        t = (s * y) >> f
        y = (y * ((1 << (q + 1)) - t)) >> q
    return y


def fp_softmax(s, fp: FixedPointParams) -> np.ndarray:
    """Integer-only softmax on signed scale-f scores, row-wise over the last axis.

    After max subtraction each score is decomposed as (-ln2)*z + r with
    integer z and residual r in (-ln2, 0]; exp(r) comes from the frozen
    quadratic and is shifted right by z.  The final division uses the
    Newton reciprocal of the row total.  Output is scale f, rows summing to 2^f within L LSBs.
    """
    f = fp.f
    s = as_int64(s)
    L = s.shape[-1]
    if L == 0:
        raise ParameterError("softmax needs at least one score")
    if L == 1:
        return np.full(s.shape, fp.scale, dtype=np.int64)
    inv_ln2, ln2, c2, c1, c0 = _softmax_constants(f)

    x = s - s.max(axis=-1, keepdims=True)
    z = ((-x) * inv_ln2) >> (2 * f)
    r = x + z * ln2
    er = ((c2 * ((r * r) >> f)) >> f) + ((c1 * r) >> f) + c0
    er = np.maximum(er, 0)
    e = er >> np.minimum(z, _Z_SHIFT_CAP)
    # each row total holds its max's exp(0) = c0 > 0; a vector's is a scalar
    rec = _newton_reciprocal(e.sum(axis=-1), f)
    return (e * rec[..., None] + (1 << (2 * f - 1))) >> (2 * f)


def _fp_inv_sqrt(var: int, f: int) -> int:
    """Newton inverse square root: var at scale 2f -> 1/sigma at scale f.

    Seeded from the integer square root (a pure bit-length power of two can
    start up to sqrt(2) off, which three iterations cannot always repair to
    the advertised tolerance); three iterations polish the seed.
    """
    y = (1 << (2 * f)) // max(math.isqrt(var), 1)
    three = 3 << f
    for _ in range(3):
        t1 = (var * y) >> (2 * f)
        t2 = (t1 * y) >> f
        y = (y * (three - t2)) >> (f + 1)
    return y


def _round_div(a: int, d: int) -> int:
    """Round-to-nearest signed integer division (ties away from zero)."""
    if a >= 0:
        return (2 * a + d) // (2 * d)
    return -((2 * (-a) + d) // (2 * d))


CAUSAL_MASK_EXPONENT = 6  # additive mask -2^(f+6): annihilated after softmax


def attention_weights(scores_2f, d2: int, fp: FixedPointParams) -> np.ndarray:
    """Scale-2f raw scores -> softmax weights at scale f: the last query's
    case of causal_attention_weights, whose mask then covers no key."""
    s = as_int64(scores_2f)
    return causal_attention_weights(s, s.shape[-1] - 1, d2, fp)


def causal_attention_weights(
    rows_2f, row_index: int, d2: int, fp: FixedPointParams
) -> np.ndarray:
    """Scale-2f raw scores -> softmax weights at scale f, on scores whose
    row j along axis -2 is query position row_index + j (a vector is row
    row_index; each leading index is a matrix of its own): rescale,
    multiply by the quantized 1/sqrt(d2), add the causal mask to the keys
    past each row's query (their weight underflows to exactly zero),
    softmax."""
    s1 = fp_truncate(rows_2f, fp.f)
    s2 = (s1 * _inv_sqrt_width(d2, fp.f)) >> fp.f
    query = row_index + np.arange(s2.shape[-2])[:, None] if s2.ndim >= 2 else row_index
    mask = np.where(np.arange(s2.shape[-1]) > query, -(1 << (fp.f + CAUSAL_MASK_EXPONENT)), 0)
    return fp_softmax(s2 + mask, fp)


def fp_layernorm(x, gain, bias, fp: FixedPointParams) -> np.ndarray:
    """LayerNorm on signed scale-f integers with Newton inverse-sqrt.

    Zero variance falls back to the bias (gamma * 0 + beta).
    """
    f = fp.f
    x, gain, bias = as_int64(x), as_int64(gain), as_int64(bias)
    d = x.shape[0]
    if d < 2:
        raise ParameterError("layernorm needs at least two values")
    mu = _round_div(int(x.sum()), d)
    c = x - mu
    var = _round_div(sum(v * v for v in c.tolist()), d)  # scale 2f; in Python ints, as d * p^2 passes 2^63
    if var == 0:
        return bias.copy()
    inv_std = _fp_inv_sqrt(var, f)
    normed = (c * inv_std) >> f
    return ((gain * normed) >> f) + bias
