import numpy as np
import pytest

from vtcompress.numeric import max_pool
from vtcompress.training import (
    SCALE_INDIFFERENT_LEARNING_RATE,
    BatchDiagnostics,
    MeanTokenTarget,
    TrainConfig,
    TrainingDiverged,
    balance_loss,
    gradient_check,
    imbalance_loss,
    make_scale_indifferent_task,
    prepare_batch,
    random_gradcheck_instance,
    selector_grad,
    train_selector,
)
from vtcompress.vision import compress_training, default_menu, init_selector_params


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
        result = selector_grad(dataset, params, menu, downstream=None, alpha=0.0)
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

    def test_forward_matches_compress_training_bit_exactly(self):
        rng = np.random.default_rng(5)
        fm = rng.random((8, 8, 3))
        g = rng.random((6, 3))
        menu = default_menu(4)
        params = init_selector_params(3, 6, seed=9)
        prepared = prepare_batch([(fm, g)], menu)
        expected, _ = compress_training(fm, g, params, menu)
        np.testing.assert_array_equal(prepared.weighted_tokens(params), expected)

    def test_objective_downstream_equals_public_loss_statement(self):
        rng = np.random.default_rng(13)
        fm = rng.random((8, 8, 3))
        g = rng.random((6, 3))
        menu = default_menu(4)
        params = init_selector_params(3, 6, seed=2)
        target = MeanTokenTarget(rng.random(3))
        prepared = prepare_batch([(fm, g)], menu)
        internal = prepared.objective(params, downstream=target, alpha=0.0)
        public = target.loss(prepared.weighted_tokens(params))
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
