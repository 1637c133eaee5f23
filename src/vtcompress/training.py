"""Losses, analytic gradients, and a small trainer for the scale selector.

Gradient conventions through the non-differentiable pieces are fixed as
follows: the argmax over scales is treated as constant (no gradient through
the selection itself), gradient reaches the selector only through the
winning softmax probability that scales the emitted tokens, and through the
mean probabilities P inside the balance term; the selection frequencies f
are a stop-gradient. Away from argmax ties these conventions coincide with
the true local derivative, so central finite differences over the
end-to-end objective are a valid oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numeric import as_tensor, finite_diff_grad, matmul
from .vision import (
    ScaleMenu,
    SelectorParams,
    default_menu,
    emit_tokens,
    flatten_grid,
    init_selector_params,
    params_from_array,
    params_to_array,
    partition,
    region_scores,
    route,
    routing_stats,
    scale_variants,
)

__all__ = [
    "BatchDiagnostics",
    "balance_loss",
    "imbalance_loss",
    "NonFiniteLossError",
    "MeanTokenTarget",
    "PreparedBatch",
    "prepare_batch",
    "SelectorGradients",
    "selector_grad",
    "selector_objective",
    "GradCheck",
    "gradient_check",
    "random_gradcheck_instance",
    "TrainConfig",
    "TrainRun",
    "TrainingDiverged",
    "train_selector",
    "make_scale_indifferent_task",
    "SCALE_INDIFFERENT_LEARNING_RATE",
]


@dataclass(frozen=True)
class BatchDiagnostics:
    """Per-scale selection frequencies f and mean probabilities P over a batch."""

    f: np.ndarray
    p: np.ndarray
    n_blocks: int


def balance_loss(diagnostics: BatchDiagnostics, alpha: float) -> float:
    """Auxiliary routing loss alpha * sum_i f_i * P_i (uniform routing minimizes it)."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    return float(alpha * matmul(diagnostics.f[None, :], diagnostics.p[:, None])[0, 0])


def imbalance_loss(diagnostics: BatchDiagnostics, alpha: float, weights) -> float:
    """Weighted variant alpha * sum_i w_i f_i P_i with per-scale penalties w.

    The weights must be positive and sum to the number of scales (so the
    all-ones weights reproduce :func:`balance_loss` at the same magnitude).
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    w = as_tensor(weights)
    if w.shape != diagnostics.f.shape:
        raise ValueError(f"need one weight per scale, got shape {w.shape}")
    if np.any(w <= 0):
        raise ValueError("imbalance weights must be positive")
    if abs(float(w.sum()) - w.size) > 1e-9:
        raise ValueError(f"imbalance weights must sum to {w.size}, got {float(w.sum())}")
    return float(alpha * matmul((w * diagnostics.f)[None, :], diagnostics.p[:, None])[0, 0])


class NonFiniteLossError(ValueError):
    """The end-to-end loss evaluated to NaN or infinity."""


@dataclass(frozen=True)
class MeanTokenTarget:
    """Toy downstream loss: squared distance of the mean emitted token to a target.

    loss(tokens) = mean_c (mean_k tokens[k, c] - target_c)^2 over the weighted
    emitted tokens of the whole batch. Stands in for whatever task loss would
    reach the sampler in a full model.
    """

    target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "target", as_tensor(self.target))
        if self.target.ndim != 1:
            raise ValueError("target must be a C-vector")

    def loss(self, tokens) -> float:
        tokens = np.asarray(tokens, dtype=np.float64)
        if tokens.ndim != 2 or tokens.shape[0] == 0:
            raise ValueError("tokens must be a non-empty (K, C) matrix")
        diff = tokens.mean(axis=0) - self.target
        return float(np.mean(diff * diff))


def _weighted_mean_loss(target: np.ndarray, weighted_sum: np.ndarray, total: int) -> float:
    u = weighted_sum / total
    diff = u - target
    return float(np.mean(diff * diff))


class _LossTerms(NamedTuple):
    probs: np.ndarray  # (M, S)
    chosen: np.ndarray  # (M,)
    top1: np.ndarray  # (M,) probability of the chosen scale
    diag: BatchDiagnostics
    down: float
    bal: float
    region_sums: np.ndarray | None  # (M, C) token sum at the chosen scale
    weighted_sum: np.ndarray | None  # (C,)
    total_tokens: int


@dataclass
class PreparedBatch:
    """Selector inputs precomputed from the data (everything not depending on params).

    Holds the (M, Ng) region scores plus, per scale, every region's raw
    max-pooled tokens and their sum. Forward passes and gradients over the
    selector parameters then avoid touching the feature maps again.
    """

    menu: ScaleMenu
    scores: np.ndarray  # (M, Ng)
    variants: tuple[np.ndarray, ...]  # per scale: (M, tokens, C)

    def __post_init__(self):
        self.sums = np.stack([v.sum(axis=1) for v in self.variants])  # (S, M, C)
        self.counts = np.array(self.menu.token_counts)  # (S,)

    @property
    def num_regions(self) -> int:
        return self.scores.shape[0]

    @property
    def num_global_tokens(self) -> int:
        return self.scores.shape[1]

    @property
    def channels(self) -> int:
        return self.sums.shape[2]

    def diagnostics(self, probs: np.ndarray, chosen: np.ndarray) -> BatchDiagnostics:
        f, p = routing_stats(chosen, probs)
        return BatchDiagnostics(f, p, probs.shape[0])

    def argmax_margin(self, params: SelectorParams) -> float:
        """Smallest gap between the top two logits over all regions."""
        logits, _, _ = route(self.scores, params, self.menu)
        ordered = np.sort(logits, axis=1)
        return float(np.min(ordered[:, -1] - ordered[:, -2]))

    def weighted_tokens(self, params: SelectorParams) -> np.ndarray:
        """Training-path emitted tokens; matches vision.compress_training bit for bit."""
        _, probs, chosen = route(self.scores, params, self.menu)
        top1 = probs[np.arange(chosen.size), chosen]
        return emit_tokens(self.variants, chosen) * np.repeat(top1, self.counts[chosen])[:, None]

    def _loss_terms(
        self,
        params: SelectorParams,
        downstream: MeanTokenTarget | None,
        alpha: float,
        imbalance_weights,
    ) -> _LossTerms:
        _, probs, chosen = route(self.scores, params, self.menu)
        top1 = probs[np.arange(chosen.size), chosen]
        diag = self.diagnostics(probs, chosen)

        down = 0.0
        region_sums = weighted_sum = None
        total_tokens = 0
        if downstream is not None:
            region_sums = self.sums[chosen, np.arange(chosen.size)]  # (M, C)
            total_tokens = int(self.counts[chosen].sum())
            if total_tokens == 0:
                raise ValueError("no tokens emitted (every region discarded); downstream loss undefined")
            weighted_sum = matmul(top1[None, :], region_sums)[0]
            down = _weighted_mean_loss(downstream.target, weighted_sum, total_tokens)
            if not np.isfinite(down):
                raise NonFiniteLossError(f"downstream loss is {down}")

        if imbalance_weights is not None:
            bal = imbalance_loss(diag, alpha, imbalance_weights)
        else:
            bal = balance_loss(diag, alpha)

        return _LossTerms(
            probs, chosen, top1, diag, down, bal, region_sums, weighted_sum, total_tokens
        )

    def objective(
        self,
        params: SelectorParams,
        *,
        downstream: MeanTokenTarget | None = None,
        alpha: float = 0.1,
        imbalance_weights=None,
    ) -> float:
        """End-to-end scalar loss (downstream + balance), recomputed from scratch."""
        terms = self._loss_terms(params, downstream, alpha, imbalance_weights)
        return terms.down + terms.bal

    def gradient(
        self,
        params: SelectorParams,
        *,
        downstream: MeanTokenTarget | None = None,
        alpha: float = 0.1,
        imbalance_weights=None,
    ) -> "SelectorGradients":
        """Analytic gradient of :meth:`objective` under the stop-gradient conventions."""
        t = self._loss_terms(params, downstream, alpha, imbalance_weights)
        m, s = t.probs.shape
        d_logits = np.zeros((m, s))

        if downstream is not None:
            u = t.weighted_sum / t.total_tokens
            dl_du = 2.0 * (u - downstream.target) / self.channels  # d mean-sq / d u
            gp = matmul(t.region_sums, dl_du[:, None]) / t.total_tokens  # (M, 1)
            jacobian = -t.probs * t.top1[:, None]  # softmax jacobian rows at the winner
            jacobian[np.arange(m), t.chosen] += t.top1
            d_logits += gp * jacobian

        if alpha > 0:
            w = np.ones(s) if imbalance_weights is None else as_tensor(imbalance_weights)
            coeff = (alpha / m) * (w * t.diag.f)  # f is a stop-gradient
            d_logits += t.probs * (coeff - matmul(t.probs, coeff[:, None]))

        return SelectorGradients(
            loss=t.down + t.bal,
            downstream=t.down,
            balance=t.bal,
            diagnostics=t.diag,
            grad_weight=matmul(d_logits.T, self.scores),  # (S, Ng)
            grad_bias=d_logits.sum(axis=0),
        )


def prepare_batch(dataset, menu: ScaleMenu, pool: str = "mean") -> PreparedBatch:
    """Precompute scores and per-scale token variants for a list of (map, global) pairs."""
    if not dataset:
        raise ValueError("dataset is empty")
    scores = []
    variants = []
    for feature_map, global_tokens in dataset:
        g = as_tensor(global_tokens)
        if g.ndim == 3:
            g = flatten_grid(g)
        if scores and g.shape[0] != scores[0].shape[1]:
            raise ValueError("all dataset entries must share the global token count")
        blocks = partition(feature_map, menu.window)
        if variants and blocks.shape[3] != variants[0][0].shape[2]:
            raise ValueError("all dataset entries must share the channel count")
        scores.append(region_scores(blocks, g, pool))
        variants.append(scale_variants(blocks, menu))
    return PreparedBatch(
        menu=menu,
        scores=np.concatenate(scores),
        variants=tuple(np.concatenate(per_scale) for per_scale in zip(*variants)),
    )


@dataclass
class SelectorGradients:
    """Loss breakdown, batch diagnostics, and parameter gradients for one batch."""

    loss: float
    downstream: float
    balance: float
    diagnostics: BatchDiagnostics
    grad_weight: np.ndarray
    grad_bias: np.ndarray


def selector_grad(
    dataset,
    params: SelectorParams,
    menu: ScaleMenu,
    *,
    downstream: MeanTokenTarget | None = None,
    alpha: float = 0.1,
    imbalance_weights=None,
    pool: str = "mean",
) -> SelectorGradients:
    """Analytic selector gradient over a dataset of (feature map, global tokens) pairs."""
    return prepare_batch(dataset, menu, pool).gradient(
        params, downstream=downstream, alpha=alpha, imbalance_weights=imbalance_weights
    )


def selector_objective(
    dataset,
    params: SelectorParams,
    menu: ScaleMenu,
    *,
    downstream: MeanTokenTarget | None = None,
    alpha: float = 0.1,
    imbalance_weights=None,
    pool: str = "mean",
) -> float:
    """End-to-end scalar loss for the same setup as :func:`selector_grad`."""
    return prepare_batch(dataset, menu, pool).objective(
        params, downstream=downstream, alpha=alpha, imbalance_weights=imbalance_weights
    )


@dataclass
class GradCheck:
    """Analytic-vs-numeric comparison for one instance."""

    rel_error: float
    margin: float
    analytic: np.ndarray
    numeric: np.ndarray

    def passed(self, tolerance: float = 1e-4) -> bool:
        return self.rel_error <= tolerance


def gradient_check(
    dataset,
    params: SelectorParams,
    menu: ScaleMenu,
    *,
    downstream: MeanTokenTarget | None = None,
    alpha: float = 0.1,
    imbalance_weights=None,
    pool: str = "mean",
    step: float = 1e-5,
) -> GradCheck:
    """Compare the analytic gradient against central finite differences.

    Both gradients use the packed (S, Ng+1) parameter layout. The relative
    error is the 2-norm of the difference over the larger of the two norms.
    Meaningful only away from argmax ties; check ``margin`` before trusting
    a failure near a tie.
    """
    prepared = prepare_batch(dataset, menu, pool)
    kwargs = dict(downstream=downstream, alpha=alpha, imbalance_weights=imbalance_weights)
    result = prepared.gradient(params, **kwargs)
    analytic = np.concatenate(
        [result.grad_weight, result.grad_bias[:, None]], axis=1
    ).ravel()

    packed = params_to_array(params)

    def objective_of(vec: np.ndarray) -> float:
        return prepared.objective(params_from_array(vec.reshape(packed.shape)), **kwargs)

    numeric = finite_diff_grad(objective_of, packed.ravel(), step=step)
    denom = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)), 1e-12)
    rel = float(np.linalg.norm(analytic - numeric)) / denom
    return GradCheck(
        rel_error=rel,
        margin=prepared.argmax_margin(params),
        analytic=analytic,
        numeric=numeric,
    )


def random_gradcheck_instance(seed: int, *, num_scales: int = 3, window: int = 4):
    """Seeded random (dataset, params, downstream target) triple for gradient checks."""
    rng = np.random.default_rng(seed)
    channels = int(rng.integers(2, 9))  # C <= 8
    side = int(rng.integers(2, 9))      # Ng = side^2 <= 64
    rows = int(rng.integers(1, 3))
    cols = int(rng.integers(1, 3))
    fm = rng.random((rows * window, cols * window, channels))
    global_tokens = rng.uniform(-1.0, 1.0, size=(side * side, channels))
    params = init_selector_params(num_scales, side * side, seed=int(rng.integers(0, 2**31)))
    target = rng.random(channels)
    return [(fm, global_tokens)], params, MeanTokenTarget(target)


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite loss {value} at step {step}")
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    """Plain gradient-descent settings for the selector."""

    steps: int
    learning_rate: float
    alpha: float = 0.1
    seed: int = 0
    imbalance_weights: tuple[float, ...] | None = None
    pool: str = "mean"

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")


@dataclass
class TrainRun:
    """History and final state of one training run."""

    losses: np.ndarray       # (steps,)
    f_history: np.ndarray    # (steps, S)
    p_history: np.ndarray    # (steps, S)
    params: SelectorParams

    @property
    def final_f(self) -> np.ndarray:
        return self.f_history[-1]

    @property
    def final_p(self) -> np.ndarray:
        return self.p_history[-1]

    @property
    def collapsed(self) -> bool:
        return bool(self.final_f.max() == 1.0)


def train_selector(
    dataset,
    config: TrainConfig,
    *,
    menu: ScaleMenu | None = None,
    downstream: MeanTokenTarget | None = None,
    init_params: SelectorParams | None = None,
) -> TrainRun:
    """Full-batch gradient descent on the selector parameters.

    Each step records the loss and the batch's f/P before applying the
    update, so a zero learning rate leaves the parameters untouched and the
    history constant. Raises :class:`TrainingDiverged` on a non-finite loss.
    """
    menu = menu if menu is not None else default_menu()
    prepared = prepare_batch(dataset, menu, config.pool)
    if init_params is None:
        params = init_selector_params(len(menu), prepared.num_global_tokens, seed=config.seed)
    else:
        params = SelectorParams(init_params.weight.copy(), init_params.bias.copy())

    weights = None
    if config.imbalance_weights is not None:
        weights = as_tensor(config.imbalance_weights)

    losses = np.zeros(config.steps)
    f_hist = np.zeros((config.steps, len(menu)))
    p_hist = np.zeros((config.steps, len(menu)))
    for step in range(config.steps):
        try:
            result = prepared.gradient(
                params,
                downstream=downstream,
                alpha=config.alpha,
                imbalance_weights=weights,
            )
        except NonFiniteLossError as exc:
            raise TrainingDiverged(step, float("nan")) from exc
        if not np.isfinite(result.loss):
            raise TrainingDiverged(step, result.loss)
        losses[step] = result.loss
        f_hist[step] = result.diagnostics.f
        p_hist[step] = result.diagnostics.p
        params = SelectorParams(
            params.weight - config.learning_rate * result.grad_weight,
            params.bias - config.learning_rate * result.grad_bias,
        )
    return TrainRun(losses=losses, f_history=f_hist, p_history=p_hist, params=params)


# Learning rate tuned so 500 plain-GD steps settle the balance dynamics on
# the scale-indifferent task; pair with make_scale_indifferent_task.
SCALE_INDIFFERENT_LEARNING_RATE = 0.02


def make_scale_indifferent_task(
    seed: int,
    *,
    region_rows: int = 6,
    region_cols: int = 6,
    window: int = 4,
    channels: int = 4,
    feature_scale: float = 0.3,
    noise_ratio: float = 0.25,
    target_pull: float = 0.45,
):
    """Synthetic routing task whose downstream loss cannot prefer any scale.

    Every region of the feature map is constant-valued, so any pooling kernel
    emits tokens equal to the region value; only the number of tokens and the
    winning probability change with the selection. Region values share a base
    vector (so the fresh selector agrees on one scale for every region) plus
    per-region noise (so, under balance pressure, regions flip one by one
    rather than in lockstep). ``feature_scale`` keeps the selector logits
    small enough that no scale's probability saturates to zero; the target
    asks the mean emitted token to sit at ``target_pull`` times the mean
    region value, keeping gradient flowing through the winning probabilities
    without favoring any scale.

    Trained without the balance term the selector stays on a single scale;
    with it (alpha 0.1, learning rate :data:`SCALE_INDIFFERENT_LEARNING_RATE`,
    500 steps) the selection frequencies settle near uniform. Returns
    (dataset, downstream).
    """
    rng = np.random.default_rng(seed)
    m = region_rows * region_cols
    base = feature_scale * rng.uniform(0.9, 1.1, size=channels)
    values = base + feature_scale * noise_ratio * rng.uniform(-1.0, 1.0, size=(m, channels))
    fm = np.zeros((region_rows * window, region_cols * window, channels))
    for r in range(m):
        bi, bj = divmod(r, region_cols)
        fm[bi * window : (bi + 1) * window, bj * window : (bj + 1) * window, :] = values[r]
    target = target_pull * values.mean(axis=0)
    return [(fm, values.copy())], MeanTokenTarget(target)
