"""Dense float64 kernels shared by every other module.

All functions are pure and use deterministic accumulation orders, so repeated
runs on the same inputs are bit-identical. Performance is deliberately traded
for reproducibility: every matrix product on an output path, the numpy
training step's included, goes through ``matmul``, which adds the K products
of each output element one after another in ascending k, exactly like the
scalar loop ``acc = 0.0; acc += a[i,k]*b[k,j]``.

``matmul`` has two backends that write the same bits. The first product of a
process loads a compiled C kernel (:mod:`vtcompress._kernel`), building it
into the package's ``__pycache__`` if needed; it runs the scalar loop itself
in the same order, with no fused multiply-add. The same compiled module holds
the selector training step (:class:`vtcompress._kernel.Step`), reached
through the same loader, :func:`_product_kernel`. When the kernel cannot be
built or loaded, ``matmul`` silently runs one numpy layout instead: one
rank-1 update per k, from zero, in the same order. Never use ``np.sum``,
``np.add.reduce``, ``np.einsum``, ``np.dot`` or ``@`` for a product that
reaches an output: depending on layout and length they switch to pairwise
summation or BLAS, whose order varies with the build and thread count.
"""

from __future__ import annotations

import functools
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
    """The compiled kernel, loaded on the first product or prepared training
    batch; ``None`` when it cannot be built or loaded, and the numpy layout
    and the numpy training step run instead."""
    from . import _kernel

    return _kernel.load(Path(__file__).parent / "__pycache__")


def _k_loop(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The numpy layout: one rank-1 update of ``out`` per k, from zero."""
    out.fill(0.0)
    for k in range(a.shape[1]):
        out += a[:, k, np.newaxis] * b[np.newaxis, k, :]
    return out


def softmax(x, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis`` (max-subtraction before exp)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.size == 0:
        raise ValueError("softmax of an empty input")
    if not np.isfinite(x).all():
        raise ValueError("softmax input contains non-finite values")
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def stable_sort_desc(values) -> np.ndarray:
    """Indices sorting ``values`` descending; ties keep their original order."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("stable_sort_desc expects a 1-d vector")
    if v.size and not np.isfinite(v).all():
        raise ValueError("cannot sort non-finite values")
    return np.argsort(-v, kind="stable")


def finite_diff_grad(f: Callable[[np.ndarray], float], x, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array.

    Per-coordinate step is ``step * max(1, |x_i|)``. Used as the independent
    oracle for analytic gradients; never call it from a gradient it verifies.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.array(x, dtype=np.float64, copy=True)
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        h = step * max(1.0, abs(orig))
        flat_x[i] = orig + h
        up = float(f(x))
        flat_x[i] = orig - h
        down = float(f(x))
        flat_x[i] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise ValueError(f"objective returned a non-finite value near coordinate {i}")
        flat_g[i] = (up - down) / (2.0 * h)
    return grad
