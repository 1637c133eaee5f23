"""Reference implementations that the tests check the library against."""

import numpy as np


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
