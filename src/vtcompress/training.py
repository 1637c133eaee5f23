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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numeric
from .numeric import as_tensor, finite_diff_grad, matmul, softmax
from .vision import (
    ScaleMenu,
    SelectorParams,
    check_selector,
    default_menu,
    flatten_grid,
    init_selector_params,
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
    _check_alpha(alpha)
    return _balance_term(alpha, diagnostics.f, diagnostics.p)


def imbalance_loss(diagnostics: BatchDiagnostics, alpha: float, weights) -> float:
    """Weighted variant alpha * sum_i w_i f_i P_i with per-scale penalties w.

    The weights must be positive and sum to the number of scales (so the
    all-ones weights reproduce :func:`balance_loss` at the same magnitude).
    """
    _check_alpha(alpha)
    w = _imbalance_weights(weights, len(diagnostics.f))
    return _balance_term(alpha, w * diagnostics.f, diagnostics.p)


def _balance_term(alpha: float, weighted_f: np.ndarray, p: np.ndarray) -> float:
    return float(alpha * matmul(weighted_f[None, :], p[:, None])[0, 0])


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be a finite number >= 0, got {alpha}")


def _imbalance_weights(weights, num_scales: int) -> np.ndarray:
    w = np.ascontiguousarray(weights, dtype=np.float64)
    if not np.isfinite(w).all():
        raise ValueError(f"imbalance weights must be finite numbers, got {w.tolist()}")
    if w.shape != (num_scales,):
        raise ValueError(f"need one weight per scale, got shape {w.shape}")
    if np.any(w <= 0):
        raise ValueError("imbalance weights must be positive")
    if abs(float(w.sum()) - w.size) > 1e-9:
        raise ValueError(f"imbalance weights must sum to {w.size}, got {float(w.sum())}")
    return w


_NO_TOKENS = "no tokens emitted (every region discarded); downstream loss undefined"


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


class SelectorGradients(NamedTuple):
    """Loss breakdown, per-scale f and P, and parameter gradients for one batch."""

    loss: float
    downstream: float
    balance: float
    f: np.ndarray  # (S,)
    p: np.ndarray  # (S,)
    grad_weight: np.ndarray | None  # (S, Ng); None for a loss-only step
    grad_bias: np.ndarray | None  # (S,)


@dataclass
class PreparedBatch:
    """Selector inputs precomputed from the data (everything not depending on params).

    Holds the (M, Ng) region scores plus, per scale, every region's raw
    max-pooled tokens and their sum. Forward passes and gradients over the
    selector parameters then avoid touching the feature maps again.

    Every loss and gradient runs the numpy step, which does only the
    arithmetic that changes with the parameters: its products go through
    :func:`~vtcompress.numeric.matmul` and its softmax through the library's
    numpy exponential, so it gives the same bits on any CPU.
    :func:`train_selector` runs the same step, or, when the product kernel
    loads, one stateless :meth:`vtcompress._kernel.Kernel.train` call per
    training run, which writes the same bits. The parameters, ``alpha``
    and the imbalance weights are checked once per public call or training
    run. A batch is plain data that no call changes, so threads may share it.
    """

    menu: ScaleMenu
    scores: np.ndarray  # (M, Ng)
    variants: tuple[np.ndarray, ...]  # per scale: (M, tokens, C)

    def __post_init__(self):
        self.sums = np.stack([v.sum(axis=1) for v in self.variants])  # (S, M, C)
        self.counts = np.array(self.menu.token_counts)  # (S,)

    @property
    def num_global_tokens(self) -> int:
        return self.scores.shape[1]

    @property
    def channels(self) -> int:
        return self.sums.shape[2]

    def argmax_margin(self, params: SelectorParams) -> float:
        """Smallest gap between the top two logits over all regions."""
        logits, _, _ = route(self.scores, params, self.menu)
        ordered = np.sort(logits, axis=1)
        return float(np.min(ordered[:, -1] - ordered[:, -2]))

    def _check(
        self, params: SelectorParams, downstream: MeanTokenTarget | None, alpha: float,
        imbalance_weights,
    ) -> np.ndarray | None:
        """Check what :meth:`_step` takes on trust; returns the imbalance weights as an array."""
        check_selector(params, self.menu, self.num_global_tokens)
        if downstream is not None and downstream.target.shape != (self.channels,):
            raise ValueError(
                f"downstream target has {downstream.target.size} values "
                f"but the feature maps have {self.channels} channels"
            )
        _check_alpha(alpha)
        if imbalance_weights is None:
            return None
        return _imbalance_weights(imbalance_weights, len(self.menu))

    def _step(
        self,
        weight: np.ndarray,
        bias: np.ndarray,
        downstream: MeanTokenTarget | None,
        alpha: float,
        imbalance_weights: np.ndarray | None,
        grad: bool,
    ) -> SelectorGradients:
        """The loss at (weight, bias), and with ``grad`` its gradient, for checked inputs."""
        logits = matmul(self.scores, weight.T) + bias
        probs = softmax(logits, axis=-1)
        chosen = logits.argmax(axis=1)  # ties to the coarsest scale, as in route
        rows = np.arange(chosen.size)
        top1 = probs[rows, chosen]
        f, p = routing_stats(chosen, probs)

        down = 0.0
        if downstream is not None:
            region_sums = self.sums[chosen, rows]  # (M, C)
            total_tokens = int(self.counts[chosen].sum())
            if total_tokens == 0:
                raise ValueError(_NO_TOKENS)
            weighted_sum = matmul(top1[None, :], region_sums)[0]
            diff = weighted_sum / total_tokens - downstream.target
            down = float((diff * diff).mean())
            if not math.isfinite(down):
                raise NonFiniteLossError(f"downstream loss is {down}")

        weighted_f = f if imbalance_weights is None else imbalance_weights * f
        bal = _balance_term(alpha, weighted_f, p)
        if not grad:
            return SelectorGradients(down + bal, down, bal, f, p, None, None)

        m = probs.shape[0]
        d_logits = np.zeros(probs.shape)
        if downstream is not None:
            dl_du = 2.0 * diff / self.channels  # d mean-sq / d u
            gp = matmul(region_sums, dl_du[:, None]) / total_tokens  # (M, 1)
            jacobian = -probs * top1[:, None]  # softmax jacobian rows at the winner
            jacobian[rows, chosen] += top1
            d_logits += gp * jacobian

        if alpha > 0:
            coeff = (alpha / m) * weighted_f  # f is a stop-gradient
            d_logits += probs * (coeff - matmul(probs, coeff[:, None]))

        grad_weight = matmul(d_logits.T, self.scores)
        return SelectorGradients(down + bal, down, bal, f, p, grad_weight, d_logits.sum(axis=0))

    def objective(
        self,
        params: SelectorParams,
        *,
        downstream: MeanTokenTarget | None = None,
        alpha: float = 0.1,
        imbalance_weights=None,
    ) -> float:
        """End-to-end scalar loss (downstream + balance), recomputed from scratch."""
        weights = self._check(params, downstream, alpha, imbalance_weights)
        return self._step(params.weight, params.bias, downstream, alpha, weights, False).loss

    def gradient(
        self,
        params: SelectorParams,
        *,
        downstream: MeanTokenTarget | None = None,
        alpha: float = 0.1,
        imbalance_weights=None,
    ) -> SelectorGradients:
        """Analytic gradient of :meth:`objective` under the stop-gradient conventions."""
        weights = self._check(params, downstream, alpha, imbalance_weights)
        return self._step(params.weight, params.bias, downstream, alpha, weights, True)


def prepare_batch(dataset, menu: ScaleMenu, pool: str = "mean") -> PreparedBatch:
    """Precompute scores and per-scale token variants for a list of (map, global) pairs."""
    if not dataset:
        raise ValueError("dataset is empty")
    scores = []
    variants = []
    for feature_map, global_tokens in dataset:
        blocks = partition(feature_map, menu.window)
        g = flatten_grid(global_tokens)
        if scores and g.shape[0] != scores[0].shape[1]:
            raise ValueError("all dataset entries must share the global token count")
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
class GradCheck:
    """Analytic-vs-numeric comparison for one instance."""

    rel_error: float
    margin: float
    analytic: np.ndarray
    numeric: np.ndarray


def gradient_check(
    dataset,
    params: SelectorParams,
    menu: ScaleMenu,
    *,
    downstream: MeanTokenTarget | None = None,
    alpha: float = 0.1,
    imbalance_weights=None,
) -> GradCheck:
    """Compare the analytic gradient against central finite differences.

    Both gradients use the packed (S, Ng+1) parameter layout and mean-pooled
    region scores; the differences take ``finite_diff_grad``'s step of 1e-5 * max(1, |x|).
    The relative error is the 2-norm of the difference over the larger of
    the two norms.
    Meaningful only away from argmax ties; check ``margin`` before trusting
    a failure near a tie.
    """
    prepared = prepare_batch(dataset, menu)
    weights = prepared._check(params, downstream, alpha, imbalance_weights)
    result = prepared._step(params.weight, params.bias, downstream, alpha, weights, True)
    analytic = np.concatenate(
        [result.grad_weight, result.grad_bias[:, None]], axis=1
    ).ravel()

    packed = params_to_array(params)

    def objective_of(vec: np.ndarray) -> float:
        packed_at = vec.reshape(packed.shape)
        return prepared._step(
            packed_at[:, :-1], packed_at[:, -1], downstream, alpha, weights, False
        ).loss

    numeric = finite_diff_grad(objective_of, packed.ravel())
    denom = max(_norm(analytic), _norm(numeric), 1e-12)
    rel = _norm(analytic - numeric) / denom
    return GradCheck(
        rel_error=rel,
        margin=prepared.argmax_margin(params),
        analytic=analytic,
        numeric=numeric,
    )


def _norm(x: np.ndarray) -> float:
    """The 2-norm of a vector: divided by its largest magnitude, so that no
    square overflows, and its squares added in index order through ``matmul``."""
    top = float(np.abs(x).max(initial=0.0))
    if top == 0.0:
        return 0.0
    y = x / top
    return top * math.sqrt(float(matmul(y[np.newaxis], y[:, np.newaxis])[0, 0]))


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
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(
                f"learning_rate must be a finite number >= 0, got {self.learning_rate}"
            )
        _check_alpha(self.alpha)


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
    history constant. Raises :class:`TrainingDiverged` on a non-finite loss,
    and ``ValueError`` when an update makes a parameter non-finite.
    """
    menu = menu if menu is not None else default_menu()
    prepared = prepare_batch(dataset, menu, config.pool)
    if init_params is None:
        init_params = init_selector_params(len(menu), prepared.num_global_tokens, seed=config.seed)
    weights = prepared._check(init_params, downstream, config.alpha, config.imbalance_weights)
    train = _train_numpy if numeric._product_kernel() is None else _train_compiled
    weight, bias, history = train(prepared, init_params, config, downstream, weights)
    return TrainRun(*history, params=SelectorParams(weight, bias))  # checks the last update


def _train_numpy(prepared, params, config, downstream, weights):
    """:func:`train_selector`'s steps through the numpy step; returns the final weight
    and bias and the history it allocates, laid out as ``Kernel.train``'s."""
    s = len(prepared.menu)
    losses, f_hist, p_hist = history = (
        np.zeros(config.steps), np.zeros((config.steps, s)), np.zeros((config.steps, s))
    )
    weight, bias = params.weight, params.bias  # updates make new arrays
    for step in range(config.steps):
        try:
            result = prepared._step(weight, bias, downstream, config.alpha, weights, True)
        except NonFiniteLossError as exc:
            raise TrainingDiverged(step, float("nan")) from exc
        except ValueError:
            # A non-finite parameter makes its whole logits column non-finite,
            # so the step after the update that made it fails; report it as
            # the parameters' own check does.
            SelectorParams(weight, bias)
            raise
        if not math.isfinite(result.loss):
            raise TrainingDiverged(step, result.loss)
        losses[step] = result.loss
        f_hist[step] = result.f
        p_hist[step] = result.p
        weight = weight - config.learning_rate * result.grad_weight
        bias = bias - config.learning_rate * result.grad_bias
    return weight, bias, history


def _train_compiled(prepared, params, config, downstream, weights):
    """:func:`train_selector`'s steps in one :meth:`vtcompress._kernel.Kernel.train`
    call; raises as :func:`_train_numpy` does and returns what it returns."""
    kernel = numeric._product_kernel()
    status, index, loss, weight, bias, history = kernel.train(
        prepared.scores, prepared.sums, prepared.counts, params.weight, params.bias,
        None if downstream is None else downstream.target, config.alpha, weights,
        config.learning_rate, config.steps)
    if status == kernel.lib.VTC_NONFINITE_LOSS:
        raise TrainingDiverged(index, loss)
    if status == kernel.lib.VTC_NONFINITE_DOWN:
        raise TrainingDiverged(index, float("nan"))
    if status != kernel.lib.VTC_OK:
        SelectorParams(weight, bias)  # as in _train_numpy
        if status == kernel.lib.VTC_NO_TOKENS:
            raise ValueError(_NO_TOKENS)
        kernel.raise_for_softmax(status)
        raise RuntimeError(f"the compiled training step returned unknown status {status}")
    return weight, bias, history


# Learning rate tuned so 500 plain-GD steps settle the balance dynamics on
# the scale-indifferent task; pair with make_scale_indifferent_task.
SCALE_INDIFFERENT_LEARNING_RATE = 0.02


def make_scale_indifferent_task(seed: int, *, window: int = 4):
    """Synthetic routing task whose downstream loss cannot prefer any scale.

    The feature map holds 6x6 regions of ``window`` x ``window`` positions and
    4 channels. Every region is constant-valued, so any pooling kernel
    emits tokens equal to the region value; only the number of tokens and the
    winning probability change with the selection. Region values share a base
    vector (so the fresh selector agrees on one scale for every region) plus
    per-region noise of a quarter of its scale (so, under balance pressure,
    regions flip one by one rather than in lockstep). A feature scale of 0.3
    keeps the selector logits small enough that no scale's probability
    saturates to zero; the target asks the mean emitted token to sit at 0.45
    times the mean region value, keeping gradient flowing through the winning
    probabilities without favoring any scale.

    Trained without the balance term the selector stays on a single scale;
    with it (alpha 0.1, learning rate :data:`SCALE_INDIFFERENT_LEARNING_RATE`,
    500 steps) the selection frequencies settle near uniform. Returns
    (dataset, downstream).
    """
    rng = np.random.default_rng(seed)
    side, channels, scale = 6, 4, 0.3  # regions per side, channels, feature scale
    base = scale * rng.uniform(0.9, 1.1, size=channels)
    values = base + scale * 0.25 * rng.uniform(-1.0, 1.0, size=(side * side, channels))
    fm = np.empty((side, window, side, window, channels))
    fm[...] = values.reshape(side, 1, side, 1, channels)
    fm = fm.reshape(side * window, side * window, channels)
    return [(fm, values.copy())], MeanTokenTarget(0.45 * values.mean(axis=0))
