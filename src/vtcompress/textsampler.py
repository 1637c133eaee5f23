"""Text-guided token selection from attention-derived importance.

Projected text queries and visual keys come in as (h, T, d) / (h, N, d)
tensors; :func:`project_keys` is the one seeded stand-in projection of tokens
to keys. Attention rows are softmaxed per (head, text token); the importance
of visual token n is the max over heads of its attention, averaged over the
text tokens, as in FastV, for one (h, T, N) attention or a whole layer-major
stack at once; attention with no head or no text token is an error.
Selection keeps the smallest top-ranked set whose cumulative importance mass
strictly exceeds a threshold gamma.

When the compiled kernel loads, :func:`attention_scores` is one C call over
all heads (:meth:`vtcompress._kernel.Kernel.attention`): per head, it forms
the logits through the k-ordered product and runs the training step's
softmax row pass (scale, check, subtract each row's maximum), the library's
exponential and the division of each row by its sum, added in
``ndarray.sum``'s order. It writes the bits and raises the errors of the
per-head numpy loop that runs without the kernel, whose softmax runs the
numpy version of the same exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numeric
from .numeric import as_tensor, matmul, softmax, stable_sort_desc

__all__ = [
    "project_keys",
    "attention_scores",
    "importance",
    "per_layer_importance",
    "SelectionResult",
    "cumulative_topk",
    "StochasticConfig",
    "StochasticDraws",
]


def attention_scores(queries, keys) -> np.ndarray:
    """Scaled dot-product attention probabilities, (h, T, N).

    ``queries`` is (h, T, d), ``keys`` is (h, N, d); each (head, text token)
    row is softmax(q . k / sqrt(d)) over the N visual positions.
    """
    q = as_tensor(queries)
    k = as_tensor(keys)
    if q.ndim != 3 or k.ndim != 3:
        raise ValueError(f"expected (h, T, d) and (h, N, d), got {q.shape} and {k.shape}")
    if q.shape[0] != k.shape[0]:
        raise ValueError(f"head count mismatch: {q.shape[0]} vs {k.shape[0]}")
    if q.shape[2] != k.shape[2]:
        raise ValueError(f"head dim mismatch: {q.shape[2]} vs {k.shape[2]}")
    heads, t, d = q.shape
    n = k.shape[1]
    if d < 1:
        raise ValueError("head dim must be >= 1")
    scale = 1.0 / math.sqrt(d)
    kernel = numeric._product_kernel()
    if kernel is not None:
        return kernel.attention(q, k, scale)
    scores = np.empty((heads, t, n))
    for h in range(heads):
        logits = matmul(q[h], k[h].T) * scale
        scores[h] = softmax(logits, axis=-1)
    return scores


def project_keys(tokens, heads: int, head_dim: int, rng: np.random.Generator) -> np.ndarray:
    """(N, C) tokens projected to (h, N, d) keys by (h, C, d) weights N(0, 1) / sqrt(C)
    drawn from ``rng``, one k-ordered product per head: a stand-in for a model's keys."""
    channels = tokens.shape[1]
    proj = rng.standard_normal((heads, channels, head_dim)) / math.sqrt(channels)
    return np.stack([matmul(tokens, proj[h]) for h in range(heads)])


def importance(attention) -> np.ndarray:
    """Per-visual-token importance: reduce-max over heads, mean over text tokens."""
    return _attention(attention, 3, "(h, T, N) attention").max(axis=0).mean(axis=0)


def per_layer_importance(attention_stack) -> np.ndarray:
    """:func:`importance` of each layer of a layer-major (L, h, T, N) stack; returns (L, N)."""
    a = _attention(attention_stack, 4, "a layer-major (L, h, T, N) stack")
    return a.max(axis=1).mean(axis=1)  # the bits of importance(a[i]) for every layer i


def _attention(values, ndim: int, layout: str) -> np.ndarray:
    """``values`` as an ``ndim``-d ``layout`` array, every axis but the visual tokens non-empty."""
    a = as_tensor(values)
    if a.ndim != ndim:
        raise ValueError(f"expected {layout}, got shape {a.shape}")
    if 0 in a.shape[:-1]:
        raise ValueError(f"attention of shape {a.shape} has an empty layer, head or text axis")
    return a


@dataclass(frozen=True)
class SelectionResult:
    """Kept token set from cumulative-importance selection.

    ``kept_indices`` holds original positions in descending-importance order.
    ``degenerate`` marks the fail-open case of all-zero importance, where all
    tokens are kept.
    """

    kept_indices: np.ndarray
    gamma: float
    degenerate: bool = False

    @property
    def k(self) -> int:
        """The number of tokens kept."""
        return len(self.kept_indices)


def cumulative_topk(scores, gamma: float) -> SelectionResult:
    """Keep the smallest descending-importance prefix whose mass fraction exceeds gamma.

    k is the smallest j with sum(top j scores) / sum(all scores) > gamma; with
    gamma = 1.0 the strict inequality never triggers and all N tokens are
    kept. All-zero scores also keep everything, flagged as degenerate.
    """
    s = as_tensor(scores)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("scores must be a non-empty vector")
    if np.any(s < 0):
        raise ValueError("scores must be non-negative")
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    order = stable_sort_desc(s)
    prefix = np.cumsum(s[order])
    total = float(prefix[-1])
    if total == 0.0:
        return SelectionResult(order, float(gamma), degenerate=True)
    hits = np.nonzero(prefix / total > gamma)[0]
    k = int(hits[0]) + 1 if hits.size else int(s.size)
    return SelectionResult(order[:k], float(gamma))


@dataclass(frozen=True)
class StochasticConfig:
    """Ranges for the training-time draw of (insertion layer, gamma)."""

    layer_range: tuple[int, int] = (8, 24)
    gamma_range: tuple[float, float] = (0.7, 1.0)
    total_layers: int = 32
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.layer_range
        glo, ghi = self.gamma_range
        if not (0 <= lo <= hi < self.total_layers):
            raise ValueError(f"layer range {self.layer_range} invalid for {self.total_layers} layers")
        if not (0.0 < glo <= ghi <= 1.0):
            raise ValueError(f"gamma range {self.gamma_range} must lie in (0, 1]")


class StochasticDraws:
    """Seeded stream of (layer, gamma) draws; one instance per training run."""

    def __init__(self, config: StochasticConfig):
        self.config = config
        self._rng = np.random.default_rng(config.seed)

    def draw(self) -> tuple[int, float]:
        lo, hi = self.config.layer_range
        glo, ghi = self.config.gamma_range
        layer = int(self._rng.integers(lo, hi + 1))
        gamma = glo if glo == ghi else float(self._rng.uniform(glo, ghi))
        return layer, gamma
