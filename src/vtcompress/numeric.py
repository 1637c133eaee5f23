"""Dense float64 kernels shared by every other module.

All functions are pure and use deterministic accumulation orders, so repeated
runs on the same inputs are bit-identical. Performance is deliberately traded
for reproducibility: every matrix product on an output path, the numpy
training step's included, goes through ``matmul``, which adds the K products
of each output element one after another in ascending k, exactly like the
scalar loop ``acc = 0.0; acc += a[i,k]*b[k,j]``.

``matmul`` has two backends that write the same bits. The first product of a
process loads a compiled C kernel (:mod:`vtcompress._kernel`), building it
into the package's ``__pycache__`` if needed; it keeps tiles of outputs in
vector registers while k runs, or runs the plain scalar loop, and either
way adds each element's products one at a time in ascending k from 0.0,
with no fused multiply-add. The same compiled module holds
the selector training run (:meth:`vtcompress._kernel.Kernel.train`, one
stateless call), the vision stage's routing pass and the layout passes of
reports and training logs, reached through the same loader,
:func:`_product_kernel`. When the kernel cannot be
built or loaded, ``matmul`` silently runs one numpy layout instead: one
rank-1 update per k, from zero, in the same order. Never use ``np.sum``,
``np.add.reduce``, ``np.einsum``, ``np.dot`` or ``@`` for a product that
reaches an output: depending on layout and length they switch to pairwise
summation or BLAS, whose order varies with the build and thread count.

Every softmax exponentiates through the library's own ``exp``, not numpy's,
whose bits change with the SIMD code numpy dispatches on the CPU. It is
Tang's table-driven exponential (ACM TOMS 15(2), 1989) in IEEE-exact
``+ - *`` only, within 1 ulp of ``math.exp``. The compiled passes run it
as ``vtc_exp``; :func:`softmax` always runs :func:`_exp_numpy`, and so never
asks for the kernel. Both apply the same operations in the same order, so
they write the same bits, and those bits do not depend on the CPU.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "as_tensor",
    "matmul",
    "softmax",
    "stable_sort_desc",
    "finite_diff_grad",
]


def as_tensor(values) -> np.ndarray:
    """Return ``values`` as a C-contiguous float64 array, rejecting non-finite data."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("tensor contains non-finite values")
    return arr


def matmul(a, b) -> np.ndarray:
    """Matrix product with sequential k-order accumulation.

    Bit-identical to the naive triple loop ``acc += a[i,k]*b[k,j]`` with k
    ascending, which keeps downstream reports reproducible and lets tests
    compare against a brute-force oracle exactly. The compiled kernel runs
    it when it loads; otherwise numpy adds one rank-1 update per k, from
    zero. The result is always a fresh C-contiguous array.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    out = np.empty((a.shape[0], b.shape[1]))
    kernel = _product_kernel()
    return _k_loop(a, b, out) if kernel is None else kernel(a, b, out)


@functools.cache
def _product_kernel():
    """The compiled kernel, loaded on the first product or training run;
    ``None`` when it cannot be built or loaded, and the numpy layout and the
    numpy training step run instead."""
    from . import _kernel

    return _kernel.load(Path(__file__).parent / "__pycache__")


def _k_loop(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The numpy layout: one rank-1 update of ``out`` per k, from zero."""
    out.fill(0.0)
    for k in range(a.shape[1]):
        out += a[:, k, np.newaxis] * b[np.newaxis, k, :]
    return out


def softmax(x, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``: ``x`` minus its maximum, the
    library's exponential :func:`_exp_numpy` and the division by the sum."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.size == 0:
        raise ValueError("softmax of an empty input")
    if not np.isfinite(x).all():
        raise ValueError("softmax input contains non-finite values")
    e = _exp_numpy(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _tang_constants() -> dict:
    """The exponential's constants, from Python integers at 120 bits:
    ``hi[j] + lo[j]`` is 2^(j/32), ``l1 + l2`` is ln(2)/32 with ``l1``'s 37
    significant bits (so ``n * l1`` is exact for |n| < 2^16), ``inv`` is
    32/ln(2) and ``poly`` holds 1/k! for k = 2..6."""
    bits = 120
    one = 1 << bits
    root = 1 << (32 * bits + 1)
    for _ in range(5):
        root = math.isqrt(root)  # 2^(1/32), scaled by 2^bits and rounded down
    hi, lo, power = [], [], one
    for _ in range(32):
        head = power / one
        num, den = head.as_integer_ratio()
        hi.append(head)
        lo.append((power - num * (one // den)) / one)
        power = power * root >> bits
    ln2 = sum((one << 8) // (k << k) for k in range(1, bits + 9)) >> 8  # sum of 1 / (k 2^k)
    cut = ln2.bit_length() - 37
    top = ln2 >> cut << cut  # the top 37 bits
    return {"hi": tuple(hi), "lo": tuple(lo), "l1": math.ldexp(top >> cut, cut - bits - 5),
            "l2": (ln2 - top) / (one << 5), "inv": 32 / math.log(2), "shift": 1.5 * 2.0**52,
            "poly": tuple(1 / math.factorial(k) for k in range(2, 7))}


EXP_CONSTANTS = _tang_constants()
_EXP_HI, _EXP_LO = np.array(EXP_CONSTANTS["hi"]), np.array(EXP_CONSTANTS["lo"])


def _exp_numpy(x: np.ndarray) -> np.ndarray:
    """e**x of a float64 array in place (returned), by Tang's algorithm; the
    bits of the compiled ``vtc_exp``, which applies the same operations.

    ``n = round(x * 32/ln2)`` comes from the low bits of ``x * inv + 1.5 * 2^52``;
    ``r = (x - n * l1) - n * l2`` (the first difference is exact) and
    ``p = r + r^2 (1/2 + r (1/6 + ... r / 720))``. With ``j = n mod 32`` and
    ``m = (n - j) / 32``, the result is ``hi[j] + (lo[j] + hi[j] * p)`` times
    2^(m + K), which is exact, then times 2^-K, which rounds once, also to a
    subnormal: K is 60 where n < -16384 (m < -512), -60 where n > 16384, else
    0. NaN, x < -746 (0.0) and x > 710 (infinity) are selected last."""
    c = EXP_CONSTANTS
    c2, c3, c4, c5, c6 = c["poly"]
    with np.errstate(over="ignore", invalid="ignore"):
        t = x * c["inv"] + c["shift"]
        nb = t.view(np.uint64) - np.float64(c["shift"]).view(np.uint64)
        n = t - c["shift"]
        r = (x - n * c["l1"]) - n * c["l2"]
        p = r + r * r * (c2 + r * (c3 + r * (c4 + r * (c5 + r * c6))))
        j = nb & np.uint64(31)
        hi = _EXP_HI[j]
        y = hi + (_EXP_LO[j] + hi * p)
        big = (n > 16384).astype(np.int64) - (n < -16384)
        up = ((nb - j) << np.uint64(47)) + ((1023 - 60 * big).astype(np.uint64) << np.uint64(52))
        down = (1023 + 60 * big).astype(np.uint64) << np.uint64(52)
        y = y * up.view(np.float64) * down.view(np.float64)
    y[x > 710.0] = np.inf
    y[x < -746.0] = 0.0
    nan = np.isnan(x)
    y[nan] = x[nan]
    x[...] = y
    return x


def stable_sort_desc(values) -> np.ndarray:
    """Indices sorting ``values`` descending; ties keep their original order."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("stable_sort_desc expects a 1-d vector")
    if v.size and not np.isfinite(v).all():
        raise ValueError("cannot sort non-finite values")
    return np.argsort(-v, kind="stable")


def finite_diff_grad(f: Callable[[np.ndarray], float], x) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array.

    Per-coordinate step is ``1e-5 * max(1, |x_i|)``. Used as the independent
    oracle for analytic gradients; never call it from a gradient it verifies.
    """
    x = np.array(x, dtype=np.float64, copy=True)
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        h = 1e-5 * max(1.0, abs(orig))
        flat_x[i] = orig + h
        up = float(f(x))
        flat_x[i] = orig - h
        down = float(f(x))
        flat_x[i] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise ValueError(f"objective returned a non-finite value near coordinate {i}")
        flat_g[i] = (up - down) / (2.0 * h)
    return grad
