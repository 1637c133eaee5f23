"""Hand-crafted similarity baseline for token selection.

Scores every visual token by its mean inner product with the global tokens
and keeps a fixed top fraction. No learning involved; this is the comparison
point for the learned samplers.
"""

from __future__ import annotations

import math

import numpy as np

from .numeric import as_tensor, matmul, stable_sort_desc
from .vision import flatten_grid

__all__ = ["heuristic_importance", "heuristic_topk"]


def heuristic_importance(feature_map, global_tokens) -> np.ndarray:
    """Mean global-similarity score per token, in row-major map order.

    Token t's score is mean_k <g_k, t> over the Ng global tokens. The score
    of a token does not depend on any region partition, so indices refer to
    the flattened (H*W) map directly.
    """
    fm = as_tensor(feature_map)
    if fm.ndim != 3:
        raise ValueError(f"expected an (H, W, C) map, got shape {fm.shape}")
    g = flatten_grid(global_tokens)
    if fm.shape[2] != g.shape[1]:
        raise ValueError(f"channel mismatch: map C={fm.shape[2]}, global C={g.shape[1]}")
    tokens = fm.reshape(-1, fm.shape[2])
    sims = matmul(g, tokens.T)  # (Ng, N)
    return sims.mean(axis=0)


def heuristic_topk(scores, keep_fraction: float) -> np.ndarray:
    """Indices of the ceil(keep_fraction * N) highest-scoring tokens.

    Ties resolve stably toward lower indices; the returned indices are in
    original (ascending) order.
    """
    s = as_tensor(scores)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("scores must be a non-empty vector")
    if not (0.0 < keep_fraction <= 1.0):
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    k = math.ceil(keep_fraction * s.size)
    order = stable_sort_desc(s)
    return np.sort(order[:k])
