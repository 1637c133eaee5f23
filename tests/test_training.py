import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcompress import numeric, training
from vtcompress.numeric import matmul
from vtcompress.training import (
    SCALE_INDIFFERENT_LEARNING_RATE,
    BatchDiagnostics,
    MeanTokenTarget,
    PreparedBatch,
    TrainConfig,
    TrainingDiverged,
    balance_loss,
    gradient_check,
    imbalance_loss,
    make_scale_indifferent_task,
    prepare_batch,
    random_gradcheck_instance,
    train_selector,
)
from vtcompress.vision import (
    ScaleMenu,
    ScaleSpec,
    SelectorParams,
    compress_training,
    default_menu,
    init_selector_params,
    retain_discard_menu,
    route,
    routing_stats,
    seven_branch_menu,
)

from oracles import max_pool


needs_kernel = pytest.mark.skipif(
    numeric._product_kernel() is None, reason="the compiled kernel is not available"
)


class NumpyStep:
    """Mixed into a copy of a test class to run its tests with the compiled
    kernel forced off, so that every loss, gradient and training step runs the
    numpy step."""

    @pytest.fixture(autouse=True)
    def _numpy_step(self, monkeypatch):
        monkeypatch.setattr(numeric, "_product_kernel", lambda: None)


def diag(f, p):
    f = np.asarray(f, dtype=float)
    p = np.asarray(p, dtype=float)
    return BatchDiagnostics(f, p, n_blocks=len(f))


class TestBalanceLoss:
    def test_uniform_value(self):
        assert balance_loss(diag([1 / 3] * 3, [1 / 3] * 3), 0.1) == pytest.approx(0.1 / 3)

    def test_collapsed_value(self):
        assert balance_loss(diag([1, 0, 0], [1, 0, 0]), 0.1) == pytest.approx(0.1)

    def test_zero_alpha(self):
        assert balance_loss(diag([0.7, 0.2, 0.1], [0.5, 0.3, 0.2]), 0.0) == 0.0

    def test_lower_bound_when_f_equals_p(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = rng.random(3)
            p /= p.sum()
            value = balance_loss(diag(p, p), 1.0)
            assert value >= 1 / 3 - 1e-12
        uniform = balance_loss(diag([1 / 3] * 3, [1 / 3] * 3), 1.0)
        assert uniform == pytest.approx(1 / 3)


class TestImbalanceLoss:
    def test_unit_weights_reduce_to_balance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = rng.random(3)
            f /= f.sum()
            p = rng.random(3)
            p /= p.sum()
            d = diag(f, p)
            assert imbalance_loss(d, 0.1, [1.0, 1.0, 1.0]) == balance_loss(d, 0.1)

    def test_uniform_point_value(self):
        d = diag([1 / 3] * 3, [1 / 3] * 3)
        assert imbalance_loss(d, 0.1, [0.9, 1.0, 1.1]) == pytest.approx(0.1 / 3)

    def test_weight_ratio_shifts_branch_contribution(self):
        # same f*p on branches 0 and 2; weights tilt their contributions 11:9
        d = diag([0.5, 0.0, 0.5], [0.5, 0.0, 0.5])
        tilted = imbalance_loss(d, 1.0, [1.1, 1.0, 0.9])
        term0 = 1.1 * 0.5 * 0.5
        term2 = 0.9 * 0.5 * 0.5
        assert term0 / term2 == pytest.approx(11 / 9)
        assert tilted == pytest.approx(term0 + term2)

    def test_weight_sum_violation(self):
        with pytest.raises(ValueError, match="sum to"):
            imbalance_loss(diag([1, 0, 0], [1, 0, 0]), 0.1, [1.0, 1.0, 1.5])

    def test_non_positive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            imbalance_loss(diag([1, 0, 0], [1, 0, 0]), 0.1, [0.0, 1.5, 1.5])


class TestSelectorGrad:
    def test_no_loss_terms_give_zero_gradient(self):
        dataset, params, _ = random_gradcheck_instance(3)
        menu = default_menu(4)
        result = prepare_batch(dataset, menu).gradient(params, downstream=None, alpha=0.0)
        np.testing.assert_array_equal(result.grad_weight, 0.0)
        np.testing.assert_array_equal(result.grad_bias, 0.0)
        assert result.loss == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_finite_differences(self, seed):
        menu = default_menu(4)
        attempt = seed
        while True:
            dataset, params, downstream = random_gradcheck_instance(attempt)
            chk = gradient_check(dataset, params, menu, downstream=downstream, alpha=0.1)
            if chk.margin > 1e-3:
                break
            attempt += 1000  # tie-adjacent instance: resample
        assert chk.rel_error <= 1e-4

    def test_balance_only_matches_finite_differences(self):
        menu = default_menu(4)
        dataset, params, _ = random_gradcheck_instance(11)
        chk = gradient_check(dataset, params, menu, downstream=None, alpha=0.1)
        assert chk.margin > 1e-3
        assert chk.rel_error <= 1e-4

    def test_imbalance_weights_match_finite_differences(self):
        menu = default_menu(4)
        dataset, params, downstream = random_gradcheck_instance(12)
        chk = gradient_check(
            dataset, params, menu, downstream=downstream, alpha=0.1,
            imbalance_weights=[0.9, 1.0, 1.1],
        )
        assert chk.margin > 1e-3
        assert chk.rel_error <= 1e-4

    def test_objective_downstream_equals_public_loss_statement(self):
        rng = np.random.default_rng(13)
        fm = rng.random((8, 8, 3))
        g = rng.random((6, 3))
        menu = default_menu(4)
        params = init_selector_params(3, 6, seed=2)
        target = MeanTokenTarget(rng.random(3))
        prepared = prepare_batch([(fm, g)], menu)
        internal = prepared.objective(params, downstream=target, alpha=0.0)
        public = target.loss(compress_training(fm, g, params, menu)[0])
        assert internal == pytest.approx(public, abs=1e-12)

    def test_all_discarded_downstream_rejected(self):
        from vtcompress.vision import ScaleMenu, ScaleSpec, SelectorParams

        rng = np.random.default_rng(6)
        fm = rng.random((4, 4, 2))
        g = rng.random((2, 2))
        menu = ScaleMenu(4, (ScaleSpec(None, discard=True), ScaleSpec((4, 4))))
        prepared = prepare_batch([(fm, g)], menu)
        # dominant bias on the discard scale: every region emits nothing
        forced = SelectorParams(np.zeros((2, 2)), np.array([100.0, 0.0]))
        with pytest.raises(ValueError, match="discarded"):
            prepared.objective(forced, downstream=MeanTokenTarget(np.zeros(2)), alpha=0.0)

    def test_empty_batch_rejected(self):
        # prepare_batch cannot make a batch without regions, but PreparedBatch can
        menu = default_menu(4)
        variants = tuple(np.zeros((0, n, 2)) for n in menu.token_counts)
        prepared = PreparedBatch(menu, np.zeros((0, 3)), variants)
        params = init_selector_params(3, 3, seed=0)
        for downstream in (None, MeanTokenTarget(np.zeros(2))):
            for call in (prepared.objective, prepared.gradient):
                with pytest.raises(ValueError, match="^softmax of an empty input$"):
                    call(params, downstream=downstream)


class TestSelectorGradNumpyStep(NumpyStep, TestSelectorGrad):
    pass


class TestTrainer:
    def test_zero_learning_rate_is_a_no_op(self):
        dataset, downstream = make_scale_indifferent_task(0)
        cfg = TrainConfig(steps=5, learning_rate=0.0, alpha=0.1, seed=0)
        init = init_selector_params(3, 36, seed=0)
        run = train_selector(dataset, cfg, downstream=downstream, init_params=init)
        np.testing.assert_array_equal(run.params.weight, init.weight)
        np.testing.assert_array_equal(run.params.bias, init.bias)
        assert np.all(run.losses == run.losses[0])

    def test_resume_continues_from_given_params(self):
        dataset, downstream = make_scale_indifferent_task(0)
        cfg = TrainConfig(steps=10, learning_rate=0.02, alpha=0.1, seed=0)
        full = train_selector(dataset, TrainConfig(steps=20, learning_rate=0.02, alpha=0.1, seed=0), downstream=downstream)
        first = train_selector(dataset, cfg, downstream=downstream)
        second = train_selector(dataset, cfg, downstream=downstream, init_params=first.params)
        np.testing.assert_allclose(second.params.weight, full.params.weight, atol=1e-12)
        np.testing.assert_array_equal(
            np.concatenate([first.losses, second.losses]), full.losses
        )

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_reported_with_step_index(self):
        rng = np.random.default_rng(7)
        # legal but enormous features overflow the squared downstream loss
        fm = np.full((4, 4, 2), 1e307)
        g = rng.random((2, 2))
        cfg = TrainConfig(steps=3, learning_rate=0.1, alpha=0.0, seed=0)
        with pytest.raises(TrainingDiverged) as err:
            train_selector(
                [(fm, g)], cfg, downstream=MeanTokenTarget(np.zeros(2))
            )
        assert err.value.step == 0

    def test_history_shapes(self):
        dataset, downstream = make_scale_indifferent_task(1)
        cfg = TrainConfig(steps=7, learning_rate=0.01, alpha=0.1, seed=1)
        run = train_selector(dataset, cfg, downstream=downstream)
        assert run.losses.shape == (7,)
        assert run.f_history.shape == (7, 3)
        assert run.p_history.shape == (7, 3)
        np.testing.assert_allclose(run.p_history.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(run.f_history.sum(axis=1), 1.0, atol=1e-12)


class TestScaleIndifferentTask:
    def test_regions_are_constant_blocks(self):
        dataset, _ = make_scale_indifferent_task(0)
        fm, values = dataset[0]
        assert fm.shape == (24, 24, 4)
        assert values.shape == (36, 4)
        block = fm[0:4, 0:4, :]
        assert np.all(block == block[0, 0])
        np.testing.assert_array_equal(block[0, 0], values[0])

    def test_collapse_without_balance_and_spread_with_it(self):
        dataset, downstream = make_scale_indifferent_task(0)
        no_balance = train_selector(
            dataset,
            TrainConfig(steps=500, learning_rate=SCALE_INDIFFERENT_LEARNING_RATE, alpha=0.0, seed=0),
            downstream=downstream,
        )
        assert no_balance.collapsed
        assert no_balance.final_f.max() == 1.0

        balanced = train_selector(
            dataset,
            TrainConfig(steps=500, learning_rate=SCALE_INDIFFERENT_LEARNING_RATE, alpha=0.1, seed=0),
            downstream=downstream,
        )
        assert not balanced.collapsed
        assert balanced.final_f.min() >= 0.1
        assert np.abs(balanced.final_f - 1 / 3).max() <= 0.15


def per_region_gradient(fm, g, params, menu, target, alpha, weights):
    """The selector gradient computed one region at a time, products through BLAS."""
    w = menu.window
    blocks = [
        fm[top : top + w, left : left + w].copy()
        for top in range(0, fm.shape[0], w)
        for left in range(0, fm.shape[1], w)
    ]
    scores = np.array([g @ block.mean(axis=(0, 1)) for block in blocks])
    logits = scores @ params.weight.T + params.bias
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    chosen = logits.argmax(axis=1)
    m, s = probs.shape
    f = np.bincount(chosen, minlength=s) / m
    sums = [max_pool(b, menu.scales[j].kernel).reshape(-1, b.shape[2]) for b, j in zip(blocks, chosen)]
    total = sum(group.shape[0] for group in sums)
    u = sum(probs[r, j] * sums[r].sum(axis=0) for r, j in enumerate(chosen)) / total
    dl_du = 2.0 * (u - target) / fm.shape[2]
    coeff = (alpha / m) * (np.asarray(weights) * f)
    d_logits = np.zeros((m, s))
    for r, j in enumerate(chosen):
        row = -probs[r] * probs[r, j]
        row[j] += probs[r, j]
        d_logits[r] += np.dot(sums[r].sum(axis=0), dl_du) / total * row
        d_logits[r] += probs[r] * (coeff - np.dot(coeff, probs[r]))
    return d_logits.T @ scores, d_logits.sum(axis=0)


class TestGradientMatchesPerRegionLoop:
    @pytest.mark.parametrize("seed", range(5))
    def test_within_float64_rounding(self, seed):
        menu = default_menu(4)
        dataset, params, downstream = random_gradcheck_instance(seed)
        weights = [0.9, 1.0, 1.1]
        got = prepare_batch(dataset, menu).gradient(
            params, downstream=downstream, alpha=0.1, imbalance_weights=weights
        )
        fm, g = dataset[0]
        want_w, want_b = per_region_gradient(fm, g, params, menu, downstream.target, 0.1, weights)
        scale = max(np.abs(want_w).max(), np.abs(want_b).max())
        np.testing.assert_allclose(got.grad_weight, want_w, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(got.grad_bias, want_b, rtol=1e-12, atol=1e-12 * scale)


class TestGradientMatchesPerRegionLoopNumpyStep(NumpyStep, TestGradientMatchesPerRegionLoop):
    pass


def reference_train(dataset, config, menu, downstream, init_params):
    """The trainer written one formula at a time, the reference for the fused step.

    Every step calls ``route``, ``routing_stats`` and ``numeric.matmul`` and
    every update builds new ``SelectorParams``. Returns the history and the
    final parameters, or raises as the trainer must.
    """
    prepared = prepare_batch(dataset, menu, config.pool)
    scores, sums, counts = prepared.scores, prepared.sums, np.array(menu.token_counts)
    params = init_params
    if params is None:
        params = init_selector_params(len(menu), scores.shape[1], seed=config.seed)
    weights = config.imbalance_weights
    w = np.ones(len(menu)) if weights is None else np.array(weights, dtype=float)
    losses, f_hist, p_hist = [], [], []
    for step in range(config.steps):
        _, probs, chosen = route(scores, params, menu)
        m, s = probs.shape
        rows = np.arange(m)
        top1 = probs[rows, chosen]
        f, p = routing_stats(chosen, probs)
        down = 0.0
        d_logits = np.zeros((m, s))
        if downstream is not None:
            region_sums = sums[chosen, rows]
            total = int(counts[chosen].sum())
            u = matmul(top1[None, :], region_sums)[0] / total
            diff = u - downstream.target
            down = float(np.mean(diff * diff))
            if not np.isfinite(down):
                raise TrainingDiverged(step, float("nan"))
            dl_du = 2.0 * (u - downstream.target) / sums.shape[2]
            gp = matmul(region_sums, dl_du[:, None]) / total
            jacobian = -probs * top1[:, None]
            jacobian[rows, chosen] += top1
            d_logits += gp * jacobian
        bal = float(config.alpha * matmul((w * f)[None, :], p[:, None])[0, 0])
        if config.alpha > 0:
            coeff = (config.alpha / m) * (w * f)
            d_logits += probs * (coeff - matmul(probs, coeff[:, None]))
        loss = down + bal
        if not np.isfinite(loss):
            raise TrainingDiverged(step, loss)
        losses.append(loss)
        f_hist.append(f)
        p_hist.append(p)
        params = SelectorParams(
            params.weight - config.learning_rate * matmul(d_logits.T, scores),
            params.bias - config.learning_rate * d_logits.sum(axis=0),
        )
    return np.array(losses), np.array(f_hist), np.array(p_hist), params


def outcome(train, dataset, config, menu, downstream, init_params=None):
    """The history and final parameters as bytes, or the error a run raised."""
    try:
        result = train(dataset, config, menu, downstream, init_params)
    except TrainingDiverged as exc:
        return "diverged", exc.step
    except ValueError as exc:
        return type(exc), str(exc)
    return tuple(arr.tobytes() for arr in result)


def fused_train(dataset, config, menu, downstream, init_params):
    run = train_selector(
        dataset, config, menu=menu, downstream=downstream, init_params=init_params
    )
    return run.losses, run.f_history, run.p_history, run.params.weight, run.params.bias


def reference(dataset, config, menu, downstream, init_params):
    losses, f_hist, p_hist, params = reference_train(
        dataset, config, menu, downstream, init_params
    )
    return losses, f_hist, p_hist, params.weight, params.bias


def _retain_discard_task():
    rng = np.random.default_rng(4)
    dataset = [(rng.normal(size=(6, 6, 3)), rng.normal(size=(9, 3)))]
    return dataset, MeanTokenTarget(rng.random(3)), retain_discard_menu()


def _trainer_case(name):
    dataset, downstream = make_scale_indifferent_task(2)
    menu, init, extra = default_menu(4), None, {}
    if name == "7branch-imbalance":
        menu = seven_branch_menu(4)
        extra = dict(imbalance_weights=(0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3))
    elif name == "imbalance":
        extra = dict(imbalance_weights=(0.9, 1.0, 1.1))
    elif name == "alpha-0":
        extra = dict(alpha=0.0)
    elif name == "no-downstream":
        downstream = None
    elif name == "retain-discard":
        dataset, downstream, menu = _retain_discard_task()
    elif name == "init-params-max-pool":
        init = init_selector_params(3, 36, seed=7)
        init = SelectorParams(init.weight * 20.0, np.array([0.3, -0.1, 0.0]))
        extra = dict(pool="max")
    config = TrainConfig(steps=40, learning_rate=2.0, **{"alpha": 0.1, **extra})
    return dataset, config, menu, downstream, init


class TestTrainerMatchesReferenceLoop:
    @pytest.mark.parametrize("name", [
        "3branch", "7branch-imbalance", "imbalance", "alpha-0", "no-downstream",
        "retain-discard", "init-params-max-pool",
    ])
    def test_history_and_params_bit_identical(self, name):
        case = _trainer_case(name)
        got = outcome(fused_train, *case)
        assert isinstance(got[0], bytes), got
        assert got == outcome(reference, *case)

    def test_scale_choices_change_during_the_runs(self):
        # the byte comparisons above cover steps where routing flips, not only a fixed choice
        for name in ("3branch", "7branch-imbalance", "retain-discard"):
            dataset, config, menu, downstream, _ = _trainer_case(name)
            run = train_selector(dataset, config, menu=menu, downstream=downstream)
            assert len(np.unique(run.f_history, axis=0)) > 1, name

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_at_a_later_step(self):
        # one channel near sqrt(max float): the first update saturates the
        # winner, whose larger mean token overflows the squared loss at step 1
        rng = np.random.default_rng(0)
        dataset = [(np.full((8, 8, 1), 1e153), rng.uniform(0.5, 1.0, (4, 1)) * 1e-153)]
        init = SelectorParams(np.zeros((2, 4)), np.array([0.0, 0.1]))
        config = TrainConfig(steps=4, learning_rate=1e-200, alpha=0.1)
        case = (dataset, config, default_menu(2), MeanTokenTarget(np.array([-1.27e154])), init)
        assert outcome(fused_train, *case) == outcome(reference, *case) == ("diverged", 1)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("steps", [1, 3])
    def test_update_to_a_non_finite_parameter(self, steps):
        # the step-0 update overflows: with one step the final parameters
        # are non-finite, with three the next step would start from them
        rng = np.random.default_rng(0)
        dataset = [(np.full((8, 8, 1), 1e153), rng.uniform(0.5, 1.0, (4, 1)) * 1e-153)]
        init = SelectorParams(np.zeros((2, 4)), np.array([0.0, 0.1]))
        config = TrainConfig(steps=steps, learning_rate=1e10, alpha=0.1)
        case = (dataset, config, default_menu(2), MeanTokenTarget(np.array([-1e100])), init)
        got = outcome(fused_train, *case)
        assert got == outcome(reference, *case)
        assert got == (ValueError, "tensor contains non-finite values")


class TestTrainerMatchesReferenceLoopNumpyStep(NumpyStep, TestTrainerMatchesReferenceLoop):
    pass


# Pooling kernels of a 4x4 window, coarsest first (1 to 16 tokens).
_KERNELS = [(4, 4), (4, 2), (2, 4), (2, 2), (4, 1), (1, 4), (2, 1), (1, 2), (1, 1)]


@contextlib.contextmanager
def _kernel_off():
    """Force the numpy step and matmul's numpy layout, which look the kernel up on every call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric, "_product_kernel", lambda: None)
        yield


def _batch(menu, scores, variants, compiled):
    with contextlib.nullcontext() if compiled else _kernel_off():
        batch = PreparedBatch(menu, scores, variants)
    assert (batch._compiled is not None) == compiled
    return batch


def _step_outcome(batch, params, downstream, alpha, imbalance, grad):
    """Every value the step returns as bytes, or the error it raised."""
    try:
        weights = batch._check(params, downstream, alpha, imbalance)
        result = batch._step(params.weight, params.bias, downstream, alpha, weights, grad)
    except ValueError as exc:
        return type(exc), str(exc)
    return tuple(np.float64(v).tobytes() if np.ndim(v) == 0 else v.tobytes()
                 for v in result if v is not None)


def _train_outcome(batch, train, params, config, downstream):
    """The history and final parameters of a run as bytes, or the error it raised."""
    steps, s = config.steps, params.num_scales
    history = (np.zeros(steps), np.zeros((steps, s)), np.zeros((steps, s)))
    try:
        weights = batch._check(params, downstream, config.alpha, config.imbalance_weights)
        weight, bias = train(batch, params, config, downstream, weights, history)
    except (ValueError, TrainingDiverged) as exc:
        return type(exc), str(exc)
    return tuple(a.tobytes() for a in (*history, weight, bias))


@needs_kernel
class TestCompiledStepMatchesNumpyStep:
    """The compiled step gives the numpy step's bits, and raises its errors."""

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_step_and_training_bit_identical(self, data):
        m = data.draw(st.sampled_from([0, 1, 36, 144, 576]), label="M")
        s = data.draw(st.sampled_from([2, 3, 7, 9]), label="S")
        c = data.draw(st.sampled_from([1, 4, 8, 9, 130]), label="C")
        ng = data.draw(st.sampled_from([1, 5, 36]), label="Ng")
        scales = [ScaleSpec(None, discard=True)] if data.draw(st.booleans(), label="discard") else []
        scales += [ScaleSpec(kernel) for kernel in _KERNELS[: s - len(scales)]]
        menu = ScaleMenu(4, tuple(scales))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # a weight scale of 1e308 overflows the logits, token values of 1e200 the loss
        weight_scale = data.draw(st.sampled_from([0.1, 1.0, 30.0, 1e308]), label="weight scale")
        token_scale = data.draw(st.sampled_from([1.0, 3.0, 1e200]), label="token scale")
        scores = rng.standard_normal((m, ng)) * 4.0
        variants = tuple(rng.standard_normal((m, n, c)) * token_scale for n in menu.token_counts)
        weight = np.clip(rng.standard_normal((s, ng)), -1.0, 1.0) * weight_scale
        bias = rng.standard_normal(s)
        if data.draw(st.booleans(), label="tied scales"):  # argmax ties go to the first
            weight[1], bias[1] = weight[0], bias[0]
        params = SelectorParams(weight, bias)
        downstream = None
        if data.draw(st.booleans(), label="downstream"):
            downstream = MeanTokenTarget(rng.standard_normal(c))
        alpha = data.draw(st.sampled_from([0.0, 0.1, 1.7]), label="alpha")
        imbalance = None
        if data.draw(st.booleans(), label="imbalance"):
            w = rng.uniform(0.5, 1.5, s)
            imbalance = tuple((w * s / w.sum()).tolist())

        compiled = _batch(menu, scores, variants, True)
        reference = _batch(menu, scores, variants, False)
        for grad in (False, True):
            got = _step_outcome(compiled, params, downstream, alpha, imbalance, grad)
            with _kernel_off():  # the reference's products stay in numpy
                assert got == _step_outcome(reference, params, downstream, alpha, imbalance, grad)

        learning_rate = data.draw(st.sampled_from([0.0, 0.5, 1e300]), label="learning rate")
        config = TrainConfig(steps=3, learning_rate=learning_rate, alpha=alpha,
                             imbalance_weights=imbalance)
        got = _train_outcome(compiled, training._train_compiled, params, config, downstream)
        with _kernel_off():
            want = _train_outcome(reference, training._train_numpy, params, config, downstream)
        assert got == want
