"""Dense float64 kernels shared by every other module.

All functions are pure and use deterministic accumulation orders, so repeated
runs on the same inputs are bit-identical. Performance is deliberately traded
for reproducibility: every matrix product on an output path goes through
``matmul``, which adds the K products of each output element one after another
in ascending k, exactly like the scalar loop ``acc = 0.0; acc += a[i,k]*b[k,j]``.

``matmul`` has two backends that write the same bits. The first product of a
process loads a compiled C kernel (:mod:`vtcompress._kernel`), building it
into the package's ``__pycache__`` if needed; it runs the scalar loop itself
in the same order, with no fused multiply-add. The same compiled module holds
the selector training step (:class:`vtcompress._kernel.Step`), reached
through the same loader, :func:`_product_kernel`. When the kernel cannot be
built or loaded, ``matmul`` silently uses two numpy layouts, picked from the
output shape alone. A narrow output (``M*N <= 256``) forms all products in an
``(M, N, K+1)`` slab whose first k-plane is ``0.0`` and reduces it with
``np.add.accumulate`` along k. ``accumulate`` is defined as the running sum
``r[k] = r[k-1] + x[k]``, so it is sequential by construction, and the zero
plane reproduces the loop's ``0.0 + p0`` (a ``-0.0`` product becomes
``+0.0``). A wider output keeps one elementwise rank-1 update per k.
:class:`FixedProduct` keeps these layouts' buffers for the numpy training
step, which multiplies operands of one shape many times. Never use
``np.sum``, ``np.add.reduce``, ``np.einsum``, ``np.dot`` or ``@`` for a product
that reaches an output: depending on layout and length they switch to pairwise
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
    "FixedProduct",
    "softmax",
    "max_pool",
    "stable_sort_desc",
    "finite_diff_grad",
]


def as_tensor(values) -> np.ndarray:
    """Return ``values`` as a C-contiguous float64 array, rejecting non-finite data."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("tensor contains non-finite values")
    return arr


# Outputs with at most this many elements take the accumulate layout. On a
# 2-vCPU x86 host with numpy 2.4 it beat the per-k loop 2-16x for outputs of
# at most 256 elements and K >= 16 (36x36 @ 36x3: 162 -> 39 us; 1x36 @ 36x4:
# 126 -> 9 us), because the loop's cost there is interpreter overhead per k.
# The loop won from about 400 elements at K = 16. The threshold depends on the
# output shape alone: with large K the slab was as fast as the loop or faster
# (16x16, K = 576: 2.4 vs 3.0 ms; K = 1024: 4.4 vs 4.4 ms; 1x4, K = 32768:
# 0.7 vs 122 ms), so K needs no cap of its own. Within the threshold the slab
# holds at most MN/(M+N) <= 8 times the input elements per k, so it needs no
# chunking.
_NARROW_OUTPUT = 256


def matmul(a, b) -> np.ndarray:
    """Matrix product with sequential k-order accumulation.

    Bit-identical to the naive triple loop ``acc += a[i,k]*b[k,j]`` with k
    ascending, which keeps downstream reports reproducible and lets tests
    compare against a brute-force oracle exactly. The compiled kernel runs
    it when it loads; otherwise narrow outputs (``M*N <= 256``) reduce an
    ``(M, N, K+1)`` product slab with ``np.add.accumulate`` along k, whose
    running sum keeps the k-order, and wider outputs add one rank-1 update
    per k. The result is always a fresh C-contiguous array.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    (m, kk), n = a.shape, b.shape[1]
    kernel = _product_kernel()
    if kernel is not None:
        return kernel(a, b, np.empty((m, n)))
    if m * n <= _NARROW_OUTPUT:
        return _accumulate(a, b, np.zeros((m, n, kk + 1))).copy()
    return _k_loop(a, b, np.empty((m, n)))


@functools.cache
def _product_kernel():
    """The compiled kernel, loaded on the first product or prepared training
    batch; ``None`` when it cannot be built or loaded, and the numpy layouts
    and the numpy training step run instead."""
    from . import _kernel

    return _kernel.load(Path(__file__).parent / "__pycache__")


def _accumulate(a: np.ndarray, b: np.ndarray, slab: np.ndarray, sums=None) -> np.ndarray:
    """The narrow layout: products into k-planes 1..K of ``slab``, whose plane 0
    must be zero, then the running sum along k (into ``sums`` if given).
    Returns the last plane, a view."""
    np.multiply(a[:, np.newaxis, :], b.T[np.newaxis, :, :], out=slab[:, :, 1:])
    return np.add.accumulate(slab, axis=2, out=sums)[:, :, -1]


def _k_loop(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The wide layout: one rank-1 update of ``out`` per k, from zero."""
    out.fill(0.0)
    for k in range(a.shape[1]):
        out += a[:, k, np.newaxis] * b[np.newaxis, k, :]
    return out


class FixedProduct:
    """:func:`matmul`'s numpy layouts for an (m, k) by (k, n) product computed many times.

    The layout is chosen once as in :func:`matmul`, and the output (and slab)
    buffers are allocated once, so a call does only the arithmetic and gives
    the same bits as :func:`matmul`. The numpy training step uses it when the
    compiled kernel is not available; the compiled step needs none. Operands
    are not checked: they must be float64 arrays of exactly these shapes. The
    result is a view of a buffer that the next call overwrites, so copy what
    must outlive it. An instance holds mutable buffers: do not call one from
    two threads at once.
    """

    def __init__(self, m: int, k: int, n: int):
        self._slab = None
        if m * n <= _NARROW_OUTPUT:
            self._slab = np.zeros((m, n, k + 1))  # plane 0 is never written
            self._out = np.empty_like(self._slab)
        else:
            self._out = np.empty((m, n))

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._slab is None:
            return _k_loop(a, b, self._out)
        return _accumulate(a, b, self._slab, self._out)


def softmax(x, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis`` (max-subtraction before exp)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.size == 0:
        raise ValueError("softmax of an empty input")
    if not np.isfinite(x).all():
        raise ValueError("softmax input contains non-finite values")
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def max_pool(block, kernel: tuple[int, int]) -> np.ndarray:
    """Channel-wise windowed max over an (h, w, C) block.

    The kernel (kh, kw) must divide (h, w); output is (h/kh, w/kw, C).
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 3:
        raise ValueError(f"max_pool expects an (h, w, C) block, got shape {block.shape}")
    kh, kw = int(kernel[0]), int(kernel[1])
    h, w, c = block.shape
    if kh < 1 or kw < 1 or h % kh != 0 or w % kw != 0:
        raise ValueError(f"kernel ({kh}, {kw}) does not divide block {h}x{w}")
    view = block.reshape(h // kh, kh, w // kw, kw, c)
    return view.max(axis=(1, 3))


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
