"""Vision-guided region compression.

The feature map is partitioned into w x w regions. Each region can be
down-sampled by any kernel in a :class:`ScaleMenu`, or dropped by its discard
scale; a linear selector scores the region against the global tokens and
picks one scale. A menu is its window and one kernel (or ``None``) per
scale, checked and read as Python ints once, when it is built, so no reader
converts or re-checks it. Global tokens, an
(H, W, C) grid or (Ng, C) rows, are converted and checked once, by
:func:`flatten_grid`, in every sampler that reads them; callers hand over
the grid they read, not rows of their own.
Inference emits the max-pooled tokens of the winning scale in one routing
pass, and every region's scale as arrays (:class:`RegionRouting`), which
also carries the menu and the region grid it was routed with, so its readers
(the report, the heatmaps) take nothing else; training runs that pass and
multiplies each emitted token by the winning softmax probability so the
selector parameters stay on the gradient path.

The routing pass has two backends that write the same bits. When the
compiled kernel loads (``numeric._product_kernel``),
:func:`compress_inference` checks its inputs here and then runs the whole
pass in one C call, :meth:`vtcompress._kernel.Kernel.route`. Otherwise the
numpy routing core below runs, and the tests take it as the reference. Both
keep the same rules: a region's mean is ``0.0`` plus each token in row-major
order for C > 1, and ``0.0`` plus numpy's pairwise sum of the region for
C = 1, divided by ``w * w``; a max keeps the later of two equal values, so of
``+0.0`` and ``-0.0`` the later one in row-major order wins, whatever SIMD
code numpy dispatches (see :func:`max_pool`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import numeric
from .numeric import _require_int, as_tensor, matmul, softmax

__all__ = [
    "ScaleMenu",
    "default_menu",
    "seven_branch_menu",
    "retain_discard_menu",
    "SelectorParams",
    "init_selector_params",
    "params_to_array",
    "params_from_array",
    "RegionSelection",
    "RegionRouting",
    "flatten_grid",
    "partition",
    "region_scores",
    "check_selector",
    "route",
    "scale_variants",
    "max_pool",
    "emit_tokens",
    "routing_stats",
    "choose_scale",
    "compress_inference",
    "compress_training",
    "upsample_regions",
    "selection_heatmap",
]


@dataclass(frozen=True)
class ScaleMenu:
    """Ordered scales for one window size, index 0 the coarsest: per scale, a
    ``(kh, kw)`` max-pool kernel, or ``None`` to drop the region.

    Checked once, when it is built: the window and every kernel entry are
    integers (a bool or float is not; a numpy integer is read as an int),
    kernels are positive and divide the window, there are at least two
    scales (or one plus a discard), and the scales' ``token_counts`` do not
    decrease.
    """

    window: int
    kernels: tuple[tuple[int, int] | None, ...]
    token_counts: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        window = _require_int("window", self.window)
        if window < 1:
            raise ValueError("window must be >= 1")
        kernels = tuple(None if k is None else _checked_kernel(k) for k in self.kernels)
        if len(kernels) < (1 if None in kernels else 2):
            raise ValueError("a menu needs at least two scales (or one plus discard)")
        for k in kernels:
            if k is not None and (window % k[0] or window % k[1]):
                raise ValueError(f"kernel {k} does not divide window {window}")
        counts = tuple(0 if k is None else (window // k[0]) * (window // k[1]) for k in kernels)
        if any(a > b for a, b in zip(counts, counts[1:])):
            raise ValueError("scales must be ordered coarsest first (non-decreasing token count)")
        self.__dict__.update(window=window, kernels=kernels, token_counts=counts)  # frozen

    def __len__(self) -> int:
        return len(self.kernels)


def _checked_kernel(kernel) -> tuple[int, int]:
    """A pooling scale's kernel as ``(kh, kw)`` positive ints."""
    try:
        kh, kw = kernel
    except (TypeError, ValueError):
        raise ValueError(f"a kernel is (kh, kw) or None, got {kernel!r}") from None
    kh, kw = _require_int("kernel height", kh), _require_int("kernel width", kw)
    if kh < 1 or kw < 1:
        raise ValueError(f"kernel must be positive, got {(kh, kw)}")
    return kh, kw


def _kernel_menu(window: int, kernels) -> ScaleMenu:
    kernels = tuple(k for k in kernels if window % k[0] == 0 and window % k[1] == 0)
    if len(kernels) < 2:
        raise ValueError(
            f"window {window} is odd: only the 1x1 kernel divides it, "
            "and a menu needs at least two scales"
        )
    return ScaleMenu(window, kernels)


def default_menu(window: int = 4) -> ScaleMenu:
    """Three-branch menu (4x4, 2x2, 1x1 kernels), dropping kernels that do not divide the window."""
    return _kernel_menu(window, [(4, 4), (2, 2), (1, 1)])


def seven_branch_menu(window: int = 4) -> ScaleMenu:
    """Default menu plus the four asymmetric kernels 4x2, 2x4, 2x1, 1x2."""
    return _kernel_menu(window, [(4, 4), (4, 2), (2, 4), (2, 2), (2, 1), (1, 2), (1, 1)])


def retain_discard_menu() -> ScaleMenu:
    """Single-token window variant: either drop the token or keep it."""
    return ScaleMenu(1, (None, (1, 1)))


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


@dataclass(frozen=True, eq=False)
class RegionRouting(Sequence):
    """Every region's chosen scale ``scales`` (M,) and probabilities ``probs``
    (M, len(menu)), region r in row r of the ``grid = (rows, cols)`` of regions
    that ``menu`` routed; ``counts`` (M,) holds the menu's token count of each
    chosen scale. It is checked once, when it is built; its items are
    :class:`RegionSelection` views."""

    scales: np.ndarray
    probs: np.ndarray
    menu: ScaleMenu
    grid: tuple[int, int]
    counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        scales, probs, grid = np.asarray(self.scales), np.asarray(self.probs), tuple(self.grid)
        m, s = scales.size, len(self.menu)
        if not m:
            raise ValueError("no selections")
        if scales.shape != (m,) or scales.dtype.kind not in "iu" \
                or scales.min() < 0 or scales.max() >= s:
            raise ValueError(f"scales must be {m} integers in 0..{s - 1}, got {scales!r}")
        if probs.shape != (m, s):
            raise ValueError(f"probs must be {(m, s)}, got {probs.shape}")
        if len(grid) != 2 or not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                                     and n > 0 for n in grid) or grid[0] * grid[1] != m:
            raise ValueError(f"region grid {self.grid} does not hold {m} regions")
        self.__dict__.update(scales=scales, probs=probs, grid=grid,  # frozen: not through setattr
                             counts=np.take(self.menu.token_counts, scales))

    @property
    def top1_probs(self) -> np.ndarray:
        return self.probs[np.arange(len(self)), self.scales]

    def __len__(self) -> int:
        return len(self.scales)

    def __getitem__(self, index):
        r = range(len(self))[index]
        if isinstance(r, range):
            return [self[i] for i in r]
        return RegionSelection(r, int(self.scales[r]), self.probs[r], int(self.counts[r]))


def flatten_grid(grid) -> np.ndarray:
    """Global tokens as (Ng, C) rows: an (H, W, C) grid flattened row-major, rows as given.

    No global token or no channel is an error: a score against nothing is no score.
    """
    g = as_tensor(grid)
    if g.ndim not in (2, 3):
        raise ValueError(f"global tokens must be (Ng, C) or (H, W, C), got shape {g.shape}")
    if 0 in g.shape:
        raise ValueError(f"global tokens must be non-empty, got shape {g.shape}")
    return g.reshape(-1, g.shape[2]) if g.ndim == 3 else g


# The numpy routing core, which training prepares its batches with and
# compress_inference runs when the compiled pass does not load. Every region
# is handled at once as struct-of-arrays:
# partition -> region_scores -> route -> scale_variants -> emit_tokens.


def _checked_map(feature_map, window: int) -> np.ndarray:
    """``feature_map`` as a checked (H, W, C) tensor that ``window`` tiles.

    Empty or non-divisible dimensions are an error; inputs are never padded.
    """
    fm = as_tensor(feature_map)
    if fm.ndim != 3 or 0 in fm.shape:
        raise ValueError(f"expected a non-empty (H, W, C) map, got shape {fm.shape}")
    h, w, _ = fm.shape
    if window < 1 or h % window != 0 or w % window != 0:
        raise ValueError(f"window {window} does not divide map {h}x{w}")
    return fm


def partition(feature_map, window: int) -> np.ndarray:
    """Split an (H, W, C) map into its (H/w)*(W/w) regions: an (M, w, w, C) array, row-major.

    Empty or non-divisible dimensions are an error; inputs are never padded.
    """
    fm = _checked_map(feature_map, window)
    h, w, c = fm.shape
    # contiguous, so each region reduces in the same order as a standalone block
    grid = fm.reshape(h // window, window, w // window, window, c).swapaxes(1, 2)
    return np.ascontiguousarray(grid).reshape(-1, window, window, c)


def _check_pooling(global_tokens: np.ndarray, channels: int, pool: str) -> None:
    """Raise unless (Ng, C) ``global_tokens`` match ``channels`` and ``pool`` names a pool mode."""
    if global_tokens.ndim != 2:
        raise ValueError(f"global tokens must be (Ng, C), got shape {global_tokens.shape}")
    if channels != global_tokens.shape[1]:
        raise ValueError(
            f"channel mismatch: block C={channels}, global C={global_tokens.shape[1]}"
        )
    if pool not in ("mean", "max"):
        raise ValueError(f"unknown pool mode {pool!r} (use 'mean' or 'max')")


def region_scores(blocks: np.ndarray, global_tokens: np.ndarray, pool: str = "mean") -> np.ndarray:
    """(M, Ng) correlation of every region block with every global token.

    Each (w, w, C) block is pooled to one C-vector (mean by default) and
    scored by its inner product with each global token, as one k-ordered
    product. Scores are not normalized; the selector weights absorb their scale.
    """
    _check_pooling(global_tokens, blocks.shape[3], pool)
    m, w, _, c = blocks.shape
    pooled = blocks.mean(axis=(1, 2)) if pool == "mean" else max_pool(blocks, w, w).reshape(m, c)
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
    m, _, _, c = blocks.shape
    return tuple(np.zeros((m, 0, c)) if k is None else max_pool(blocks, *k).reshape(m, -1, c)
                 for k in menu.kernels)


def max_pool(blocks: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The max of each kh x kw cell of (M, w, w, C) blocks: (M, w/kh, w/kw, C).

    A cell's max is that of its tokens folded in row-major order from the
    first, a token replacing the running max when it is ``>=`` it, so of a
    tied ``+0.0`` and ``-0.0`` the later one wins. Each row of the cell folds
    first, then the rows in order, which keeps the same token. numpy's max
    reductions do not fix that tie: which zero they keep depends on the SIMD
    code they dispatch.
    """
    m, w, _, c = blocks.shape
    return _later_max(_later_max(blocks.reshape(m, w // kh, kh, w // kw, kw, c), 4), 2)


def _later_max(x: np.ndarray, axis: int) -> np.ndarray:
    """The max along ``axis`` folded from the first element; a later one wins a tie."""
    head = (slice(None),) * axis
    out = x[head + (0,)].copy()
    for i in range(1, x.shape[axis]):
        part = x[head + (i,)]
        np.copyto(out, part, where=part >= out)
    return out


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
) -> tuple[np.ndarray, RegionRouting]:
    """Compress a feature map region by region.

    Each region is max-pooled by its selected scale and the resulting tokens
    are flattened row-major, regions concatenated in row-major region order.
    Returns the (total_tokens, C) token matrix and the :class:`RegionRouting`.

    ``force_scales`` overrides the selector's argmax (one integer index for all
    regions, or one per region); probabilities are still reported. This is a
    diagnostic hook for lossless-path checks and fixed-split accounting.

    Every input is checked before the routing pass runs, ``force_scales`` last.
    """
    fm = _checked_map(feature_map, menu.window)
    g = flatten_grid(global_tokens)
    _check_pooling(g, fm.shape[2], pool)
    check_selector(params, menu, g.shape[0])
    grid = (fm.shape[0] // menu.window, fm.shape[1] // menu.window)
    regions = grid[0] * grid[1]
    forced = None
    if force_scales is not None:
        forced = np.asarray(force_scales)
        if forced.size and not np.issubdtype(forced.dtype, np.integer):  # [] reads as float
            raise ValueError(f"force_scales must be integers, got {forced.dtype}")
        forced = np.full(regions, forced, np.intp) if forced.ndim == 0 else forced.astype(np.intp)
        if forced.shape != (regions,):
            raise ValueError(f"force_scales needs {regions} entries, got shape {forced.shape}")
        if np.any((forced < 0) | (forced >= len(menu))):
            raise ValueError("forced scale index out of range")
    kernel = numeric._product_kernel()
    if kernel is not None:
        tokens, probs, chosen = kernel.route(fm, g, params.weight, params.bias, menu, pool, forced)
    else:
        blocks = partition(fm, menu.window)
        _, probs, chosen = route(region_scores(blocks, g, pool), params, menu)
        chosen = chosen if forced is None else forced
        tokens = emit_tokens(scale_variants(blocks, menu), chosen)
    return tokens, RegionRouting(chosen, probs, menu, grid)


def compress_training(
    feature_map, global_tokens, params: SelectorParams, menu: ScaleMenu, **options
) -> tuple[np.ndarray, RegionRouting]:
    """Differentiable-path variant: each region's tokens scaled by its top-1 probability.

    Selection is that of :func:`compress_inference`, which this runs with
    ``options`` (``pool``, ``force_scales``); only the emitted values differ,
    satisfying ``weighted[r] == top1_prob(r) * inference[r]`` exactly.
    """
    tokens, routing = compress_inference(feature_map, global_tokens, params, menu, **options)
    return tokens * np.repeat(routing.top1_probs, routing.counts)[:, None], routing


def upsample_regions(values, window: int) -> np.ndarray:
    """Fill each region's w x w pixel patch with its value: (rows, cols) -> (rows*w, cols*w)."""
    return np.repeat(np.repeat(values, window, axis=0), window, axis=1)


def selection_heatmap(routing: RegionRouting) -> np.ndarray:
    """Per-pixel kept-token fraction: each region's w x w patch of the routed map
    is filled with the token count / w^2 of the scale chosen there."""
    window = routing.menu.window
    kept = routing.counts / float(window * window)
    return upsample_regions(kept.reshape(routing.grid), window)
