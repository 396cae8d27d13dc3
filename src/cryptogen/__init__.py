"""Secure autoregressive transformer generation kernels over an
instrumented SIMD-ciphertext emulation.

Heterogeneous packing (outer for batched prefilling, compacted inner for
token-by-token decoding), CT x PT and CT x CT kernels, an encrypted KV
cache with lazy noise refresh, MPC-emulated nonlinearities, and closed-form
operation-count models — all verified against a plaintext fixed-point
oracle.
"""

from . import arcc, backend, costmodel, encodings, fixedpoint, kv_cache, linear_kernels, model, nonlinear

__version__ = "0.1.0"
