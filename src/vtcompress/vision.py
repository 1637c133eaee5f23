"""Vision-guided region compression.

The feature map is partitioned into w x w regions. Each region can be
down-sampled by any kernel in a :class:`ScaleMenu`; a linear selector scores
the region against the global tokens and picks one scale. Global tokens, an
(H, W, C) grid or (Ng, C) rows, are converted and checked once, by
:func:`flatten_grid`, in every sampler that reads them; callers hand over
the grid they read, not rows of their own.
Inference emits the max-pooled tokens of the winning scale in one routing
pass; the training variant runs that pass and multiplies each emitted token
by the winning softmax probability so the selector parameters stay on the
gradient path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numeric import as_tensor, matmul, softmax

__all__ = [
    "ScaleSpec",
    "ScaleMenu",
    "default_menu",
    "seven_branch_menu",
    "retain_discard_menu",
    "SelectorParams",
    "init_selector_params",
    "params_to_array",
    "params_from_array",
    "RegionSelection",
    "flatten_grid",
    "partition",
    "region_scores",
    "check_selector",
    "route",
    "scale_variants",
    "emit_tokens",
    "routing_stats",
    "choose_scale",
    "compress_inference",
    "compress_training",
    "upsample_regions",
    "selection_heatmap",
]


@dataclass(frozen=True)
class ScaleSpec:
    """One down-sampling path: a max-pool kernel, or a drop-the-region pseudo-scale."""

    kernel: tuple[int, int] | None
    discard: bool = False

    def __post_init__(self):
        if self.discard:
            if self.kernel is not None:
                raise ValueError("a discard scale carries no kernel")
        else:
            if self.kernel is None:
                raise ValueError("a pooling scale needs a kernel")
            kh, kw = self.kernel
            if kh < 1 or kw < 1:
                raise ValueError(f"kernel must be positive, got {self.kernel}")

    def token_count(self, window: int) -> int:
        if self.discard:
            return 0
        kh, kw = self.kernel
        return (window // kh) * (window // kw)


@dataclass(frozen=True)
class ScaleMenu:
    """Ordered set of scales for one window size; index 0 is the coarsest."""

    window: int
    scales: tuple[ScaleSpec, ...]

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not isinstance(self.scales, tuple):
            object.__setattr__(self, "scales", tuple(self.scales))
        has_discard = any(s.discard for s in self.scales)
        if len(self.scales) < (1 if has_discard else 2):
            raise ValueError("a menu needs at least two scales (or one plus discard)")
        for s in self.scales:
            if s.discard:
                continue
            kh, kw = s.kernel
            if self.window % kh != 0 or self.window % kw != 0:
                raise ValueError(f"kernel {s.kernel} does not divide window {self.window}")
        counts = self.token_counts
        if any(counts[i] > counts[i + 1] for i in range(len(counts) - 1)):
            raise ValueError("scales must be ordered coarsest first (non-decreasing token count)")

    @property
    def token_counts(self) -> tuple[int, ...]:
        return tuple(s.token_count(self.window) for s in self.scales)

    def __len__(self) -> int:
        return len(self.scales)


def _kernel_menu(window: int, kernels) -> ScaleMenu:
    specs = tuple(ScaleSpec(k) for k in kernels if window % k[0] == 0 and window % k[1] == 0)
    if len(specs) < 2:
        raise ValueError(
            f"window {window} is odd: only the 1x1 kernel divides it, "
            "and a menu needs at least two scales"
        )
    return ScaleMenu(window, specs)


def default_menu(window: int = 4) -> ScaleMenu:
    """Three-branch menu (4x4, 2x2, 1x1 kernels), dropping kernels that do not divide the window."""
    return _kernel_menu(window, [(4, 4), (2, 2), (1, 1)])


def seven_branch_menu(window: int = 4) -> ScaleMenu:
    """Default menu plus the four asymmetric kernels 4x2, 2x4, 2x1, 1x2."""
    return _kernel_menu(window, [(4, 4), (4, 2), (2, 4), (2, 2), (2, 1), (1, 2), (1, 1)])


def retain_discard_menu() -> ScaleMenu:
    """Single-token window variant: either drop the token or keep it."""
    return ScaleMenu(1, (ScaleSpec(None, discard=True), ScaleSpec((1, 1))))


@dataclass
class SelectorParams:
    """Linear head mapping a global-correlation score vector to scale logits."""

    weight: np.ndarray  # (S, Ng)
    bias: np.ndarray    # (S,)

    def __post_init__(self):
        self.weight = as_tensor(self.weight)
        self.bias = as_tensor(self.bias)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weight must be (S, Ng) and bias (S,)")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ValueError(
                f"bias length {self.bias.shape[0]} does not match weight rows {self.weight.shape[0]}"
            )

    @property
    def num_scales(self) -> int:
        return self.weight.shape[0]

    @property
    def num_global_tokens(self) -> int:
        return self.weight.shape[1]


def init_selector_params(num_scales: int, num_global_tokens: int, seed: int = 0) -> SelectorParams:
    """Seeded init: weights uniform in [-1/sqrt(Ng), 1/sqrt(Ng)], zero bias."""
    if num_scales < 1 or num_global_tokens < 1:
        raise ValueError("num_scales and num_global_tokens must be >= 1")
    rng = np.random.default_rng(seed)
    limit = 1.0 / math.sqrt(num_global_tokens)
    weight = rng.uniform(-limit, limit, size=(num_scales, num_global_tokens))
    return SelectorParams(weight, np.zeros(num_scales))


def params_to_array(params: SelectorParams) -> np.ndarray:
    """Pack params into the (S, Ng+1) on-disk layout, bias in the last column."""
    return np.concatenate([params.weight, params.bias[:, None]], axis=1)


def params_from_array(arr) -> SelectorParams:
    arr = as_tensor(arr)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError(f"selector array must be (S, Ng+1), got shape {arr.shape}")
    return SelectorParams(arr[:, :-1].copy(), arr[:, -1].copy())


@dataclass(frozen=True)
class RegionSelection:
    """Outcome of scale selection for one region."""

    region: int
    scale: int
    probs: np.ndarray  # (S,)
    token_count: int

    @property
    def top1_prob(self) -> float:
        return float(self.probs[self.scale])


def flatten_grid(grid) -> np.ndarray:
    """Global tokens as (Ng, C) rows: an (H, W, C) grid flattened row-major, rows as given."""
    g = as_tensor(grid)
    if g.ndim not in (2, 3):
        raise ValueError(f"global tokens must be (Ng, C) or (H, W, C), got shape {g.shape}")
    return g.reshape(-1, g.shape[2]) if g.ndim == 3 else g


# The routing core. Every region is handled at once as struct-of-arrays:
# partition -> region_scores -> route -> scale_variants -> emit_tokens.


def partition(feature_map, window: int) -> np.ndarray:
    """Split an (H, W, C) map into its (H/w)*(W/w) regions: an (M, w, w, C) array, row-major.

    Empty or non-divisible dimensions are an error; inputs are never padded.
    """
    fm = as_tensor(feature_map)
    if fm.ndim != 3 or 0 in fm.shape:
        raise ValueError(f"expected a non-empty (H, W, C) map, got shape {fm.shape}")
    h, w, c = fm.shape
    if window < 1 or h % window != 0 or w % window != 0:
        raise ValueError(f"window {window} does not divide map {h}x{w}")
    # contiguous, so each region reduces in the same order as a standalone block
    grid = fm.reshape(h // window, window, w // window, window, c).swapaxes(1, 2)
    return np.ascontiguousarray(grid).reshape(-1, window, window, c)


def region_scores(blocks: np.ndarray, global_tokens: np.ndarray, pool: str = "mean") -> np.ndarray:
    """(M, Ng) correlation of every region block with every global token.

    Each (w, w, C) block is pooled to one C-vector (mean by default) and
    scored by its inner product with each global token, as one k-ordered
    product. Scores are not normalized; the selector weights absorb their scale.
    """
    if global_tokens.ndim != 2:
        raise ValueError(f"global tokens must be (Ng, C), got shape {global_tokens.shape}")
    if blocks.shape[3] != global_tokens.shape[1]:
        raise ValueError(
            f"channel mismatch: block C={blocks.shape[3]}, global C={global_tokens.shape[1]}"
        )
    if pool == "mean":
        pooled = blocks.mean(axis=(1, 2))
    elif pool == "max":
        pooled = blocks.max(axis=(1, 2))
    else:
        raise ValueError(f"unknown pool mode {pool!r} (use 'mean' or 'max')")
    return matmul(pooled, global_tokens.T)


def check_selector(params: SelectorParams, menu: ScaleMenu, num_global_tokens: int) -> None:
    """Raise unless ``params`` has one row per scale of ``menu`` and one column per global token."""
    if len(menu) != params.num_scales:
        raise ValueError(f"menu has {len(menu)} scales but params have {params.num_scales}")
    if num_global_tokens != params.num_global_tokens:
        raise ValueError(
            f"global token count {num_global_tokens} does not match weight columns {params.num_global_tokens}"
        )


def route(
    scores: np.ndarray, params: SelectorParams, menu: ScaleMenu
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Logits (M, S), their row softmax, and the first-max argmax for (M, Ng) scores.

    Ties go to the lowest index (the coarsest scale), as in :func:`choose_scale`.
    """
    check_selector(params, menu, scores.shape[1])
    logits = matmul(scores, params.weight.T) + params.bias
    return logits, softmax(logits, axis=-1), np.argmax(logits, axis=1)


def scale_variants(blocks: np.ndarray, menu: ScaleMenu) -> tuple[np.ndarray, ...]:
    """Per scale, every region's max-pooled tokens: (M, tokens, C), row-major in the region."""
    m, w, _, c = blocks.shape
    variants = []
    for spec in menu.scales:
        if spec.discard:
            variants.append(np.zeros((m, 0, c)))
        else:
            kh, kw = spec.kernel
            pooled = blocks.reshape(m, w // kh, kh, w // kw, kw, c).max(axis=(2, 4))
            variants.append(pooled.reshape(m, -1, c))
    return tuple(variants)


def emit_tokens(variants: Sequence[np.ndarray], chosen: np.ndarray) -> np.ndarray:
    """Each region's tokens at its chosen scale, regions concatenated in order."""
    slots = np.concatenate(variants, axis=1)
    slot_scale = np.repeat(np.arange(len(variants)), [v.shape[1] for v in variants])
    return slots[chosen[:, None] == slot_scale]


def routing_stats(chosen: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-scale selection frequency f_i = count(chosen == i) / M and mean probability P_i."""
    m, s = probs.shape
    return np.bincount(chosen, minlength=s) / m, probs.sum(axis=0) / m  # the bits of mean(axis=0)


def choose_scale(logits) -> tuple[int, np.ndarray]:
    """Softmax the logits and pick the winning index.

    Ties go to the lowest index (the coarsest scale), so the choice is
    deterministic and invariant under adding a constant or scaling the
    logits by a positive factor.
    """
    z = as_tensor(logits)
    if z.ndim != 1 or z.size < 1:
        raise ValueError("logits must be a non-empty vector")
    probs = softmax(z)
    return int(np.argmax(z)), probs


def compress_inference(
    feature_map,
    global_tokens,
    params: SelectorParams,
    menu: ScaleMenu,
    *,
    pool: str = "mean",
    force_scales: int | Sequence[int] | None = None,
) -> tuple[np.ndarray, list[RegionSelection]]:
    """Compress a feature map region by region.

    Each region is max-pooled by its selected scale and the resulting tokens
    are flattened row-major, regions concatenated in row-major region order.
    Returns the (total_tokens, C) token matrix and the per-region selections.

    ``force_scales`` overrides the selector's argmax (one index for all
    regions, or one per region); probabilities are still reported. This is a
    diagnostic hook for lossless-path checks and fixed-split accounting.
    """
    g = flatten_grid(global_tokens)
    blocks = partition(feature_map, menu.window)
    _, probs, chosen = route(region_scores(blocks, g, pool), params, menu)
    if force_scales is not None:
        if isinstance(force_scales, (int, np.integer)):
            force_scales = [force_scales] * len(blocks)
        chosen = np.array([int(j) for j in force_scales], dtype=np.intp)
        if chosen.size != len(blocks):
            raise ValueError(f"force_scales needs {len(blocks)} entries, got {chosen.size}")
        if np.any((chosen < 0) | (chosen >= len(menu))):
            raise ValueError("forced scale index out of range")
    tokens = emit_tokens(scale_variants(blocks, menu), chosen)
    counts = menu.token_counts
    return tokens, [
        RegionSelection(r, j, probs[r], counts[j]) for r, j in enumerate(chosen.tolist())
    ]


def compress_training(
    feature_map,
    global_tokens,
    params: SelectorParams,
    menu: ScaleMenu,
    *,
    pool: str = "mean",
    force_scales: int | Sequence[int] | None = None,
) -> tuple[np.ndarray, list[RegionSelection]]:
    """Differentiable-path variant: each region's tokens scaled by its top-1 probability.

    Selection is that of :func:`compress_inference`, which this wraps; only
    the emitted values differ, satisfying
    ``weighted[r] == top1_prob(r) * inference[r]`` exactly.
    """
    tokens, selections = compress_inference(
        feature_map, global_tokens, params, menu, pool=pool, force_scales=force_scales
    )
    top1 = [sel.probs[sel.scale] for sel in selections]
    return tokens * np.repeat(top1, [sel.token_count for sel in selections])[:, None], selections


def upsample_regions(values, window: int) -> np.ndarray:
    """Fill each region's w x w pixel patch with its value: (rows, cols) -> (rows*w, cols*w)."""
    return np.repeat(np.repeat(values, window, axis=0), window, axis=1)


def selection_heatmap(
    selections: Sequence[RegionSelection], menu: ScaleMenu, region_grid: tuple[int, int]
) -> np.ndarray:
    """Per-pixel kept-token fraction: each region's w x w patch is filled with
    token_count / w^2 of the scale chosen there."""
    rows, cols = region_grid
    if rows * cols != len(selections):
        raise ValueError(f"region grid {region_grid} does not hold {len(selections)} selections")
    kept = np.zeros(rows * cols)
    kept[[sel.region for sel in selections]] = [sel.token_count for sel in selections]
    w = menu.window
    return upsample_regions(kept.reshape(rows, cols) / float(w * w), w)
