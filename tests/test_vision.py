import itertools
import re
import tempfile

import numpy as np
import pytest

from vtcompress import cli, numeric, vision
from vtcompress.formats import SyntheticConfig, gen_synthetic, read_tensor
from vtcompress.numeric import matmul, softmax
from vtcompress.report import build_report, report_to_json, scale_histogram
from vtcompress.training import prepare_batch
from vtcompress.vision import (
    RegionSelection,
    ScaleMenu,
    ScaleSpec,
    SelectorParams,
    choose_scale,
    compress_inference,
    compress_training,
    default_menu,
    flatten_grid,
    init_selector_params,
    params_from_array,
    params_to_array,
    partition,
    region_scores,
    retain_discard_menu,
    selection_heatmap,
    seven_branch_menu,
)

from oracles import max_pool


def selector_score(block, global_tokens, pool="mean"):
    """Correlation of one (w, w, C) region with every global token, through the routing core."""
    block = np.asarray(block, dtype=np.float64)
    return region_scores(block[None], np.asarray(global_tokens, dtype=np.float64), pool)[0]


def selector_logits(score, params):
    """One region's per-scale logits, weight @ score + bias, as one k-ordered product."""
    return matmul(params.weight, np.asarray(score, dtype=np.float64)[:, None])[:, 0] + params.bias


def forcing_params(menu, index, num_global_tokens):
    """Zero weight plus a dominant bias: the selector always picks ``index``."""
    bias = np.zeros(len(menu))
    bias[index] = 100.0
    return SelectorParams(np.zeros((len(menu), num_global_tokens)), bias)


class TestMenus:
    def test_default_menu_token_counts(self):
        menu = default_menu(4)
        assert menu.token_counts == (1, 4, 16)

    def test_default_menu_small_window_drops_kernels(self):
        assert default_menu(2).token_counts == (1, 4)

    def test_default_menu_large_windows(self):
        assert default_menu(8).token_counts == (4, 16, 64)
        assert default_menu(12).token_counts == (9, 36, 144)

    def test_seven_branch_counts(self):
        menu = seven_branch_menu(4)
        assert menu.token_counts == (1, 2, 2, 4, 8, 8, 16)
        assert [s.kernel for s in menu.scales] == [
            (4, 4), (4, 2), (2, 4), (2, 2), (2, 1), (1, 2), (1, 1)
        ]

    def test_retain_discard_menu(self):
        menu = retain_discard_menu()
        assert menu.window == 1
        assert menu.token_counts == (0, 1)

    def test_single_scale_menu_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            ScaleMenu(4, (ScaleSpec((1, 1)),))

    def test_non_dividing_kernel_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            ScaleMenu(4, (ScaleSpec((3, 3)), ScaleSpec((1, 1))))

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError, match="coarsest first"):
            ScaleMenu(4, (ScaleSpec((1, 1)), ScaleSpec((4, 4))))


class TestSelectorParams:
    def test_init_bounds_and_seeding(self):
        p = init_selector_params(3, 16, seed=5)
        q = init_selector_params(3, 16, seed=5)
        limit = 1.0 / 4.0
        assert np.all(np.abs(p.weight) <= limit)
        np.testing.assert_array_equal(p.weight, q.weight)
        np.testing.assert_array_equal(p.bias, np.zeros(3))

    def test_selw_array_round_trip(self):
        p = init_selector_params(3, 7, seed=1)
        arr = params_to_array(p)
        assert arr.shape == (3, 8)
        back = params_from_array(arr)
        np.testing.assert_array_equal(back.weight, p.weight)
        np.testing.assert_array_equal(back.bias, p.bias)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bias length"):
            SelectorParams(np.zeros((3, 4)), np.zeros(2))


class TestPartition:
    def test_counts(self):
        assert len(partition(np.zeros((8, 8, 2)), 4)) == 4
        assert len(partition(np.zeros((24, 24, 1)), 4)) == 36

    def test_identity_window(self):
        fm = np.arange(4 * 4 * 3, dtype=float).reshape(4, 4, 3)
        blocks = partition(fm, 4)
        assert len(blocks) == 1
        np.testing.assert_array_equal(blocks[0], fm)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        fm = rng.random((8, 12, 2))
        blocks = partition(fm, 4)
        rebuilt = np.zeros_like(fm)
        cols = 12 // 4
        for r, block in enumerate(blocks):
            bi, bj = divmod(r, cols)
            rebuilt[bi * 4 : bi * 4 + 4, bj * 4 : bj * 4 + 4] = block
        np.testing.assert_array_equal(rebuilt, fm)

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            partition(np.zeros((9, 8, 1)), 4)

    @pytest.mark.parametrize("shape", [(0, 0, 2), (0, 4, 2), (4, 0, 2), (4, 4, 0)])
    @pytest.mark.parametrize("entry", ["compress_inference", "prepare_batch"])
    def test_empty_map_rejected_with_its_shape(self, entry, shape):
        fm, g, menu = np.zeros(shape), np.ones((3, shape[2])), default_menu(4)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            if entry == "compress_inference":
                compress_inference(fm, g, init_selector_params(len(menu), 3), menu)
            else:
                prepare_batch([(fm, g)], menu)


class TestFlattenGrid:
    def test_grid_flattens_row_major_and_rows_pass_through(self):
        g = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4)
        np.testing.assert_array_equal(flatten_grid(g), g.reshape(6, 4))
        rows = g.reshape(6, 4)
        assert flatten_grid(rows).tobytes() == rows.tobytes()

    @pytest.mark.parametrize("shape", [(6,), (1, 2, 3, 4)])
    def test_other_ranks_rejected_with_their_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            flatten_grid(np.zeros(shape))


class TestSelectorScore:
    def test_zero_block(self):
        g = np.random.default_rng(1).random((5, 3))
        np.testing.assert_array_equal(selector_score(np.zeros((4, 4, 3)), g), np.zeros(5))

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(2)
        block = rng.random((4, 4, 3))
        g = rng.random((6, 3))
        pooled = block.mean(axis=(0, 1))
        expected = np.array([sum(pooled[c] * g[k, c] for c in range(3)) for k in range(6)])
        np.testing.assert_allclose(selector_score(block, g), expected, atol=1e-12)

    def test_one_hot_global_row(self):
        rng = np.random.default_rng(3)
        block = rng.random((2, 2, 4))
        g = np.zeros((1, 4))
        g[0, 2] = 1.0
        np.testing.assert_allclose(
            selector_score(block, g), [block.mean(axis=(0, 1))[2]], atol=1e-15
        )

    def test_max_pool_mode(self):
        rng = np.random.default_rng(4)
        block = rng.random((4, 4, 2))
        g = rng.random((3, 2))
        pooled = block.max(axis=(0, 1))
        expected = g @ pooled
        np.testing.assert_allclose(selector_score(block, g, pool="max"), expected, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            selector_score(np.zeros((2, 2, 3)), np.zeros((4, 2)))


class TestSelectorLogits:
    def test_zero_weight_returns_bias(self):
        params = SelectorParams(np.zeros((3, 4)), np.array([0.1, 0.2, 0.3]))
        np.testing.assert_array_equal(
            selector_logits(np.ones(4), params), [0.1, 0.2, 0.3]
        )

    def test_identity_weight(self):
        params = SelectorParams(np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(selector_logits([1.0, 2.0], params), [1.0, 2.0])

    def test_random_case_matches_affine(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((3, 7))
        b = rng.standard_normal(3)
        s = rng.standard_normal(7)
        np.testing.assert_allclose(
            selector_logits(s, SelectorParams(w, b)), w @ s + b, atol=1e-12
        )


class TestChooseScale:
    def test_hand_softmax(self):
        j, probs = choose_scale([2.0, 1.0, 0.0])
        assert j == 0
        np.testing.assert_allclose(probs, [0.6652, 0.2447, 0.0900], atol=1e-4)

    def test_tie_breaks_to_lowest_index(self):
        j, _ = choose_scale([0.0, 0.0, 0.0])
        assert j == 0

    def test_shift_and_positive_scale_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            z = rng.standard_normal(4)
            j, _ = choose_scale(z)
            assert choose_scale(z + 3.7)[0] == j
            assert choose_scale(z * 2.5)[0] == j


class TestCompressInference:
    def test_coarsest_everywhere(self):
        rng = np.random.default_rng(7)
        fm = rng.random((24, 24, 2))
        g = rng.random((4, 2))
        menu = default_menu(4)
        params = forcing_params(menu, 0, 4)
        tokens, selections = compress_inference(fm, g, params, menu)
        assert tokens.shape == (36, 2)
        assert all(sel.scale == 0 for sel in selections)

    def test_identity_scale_reproduces_input(self):
        rng = np.random.default_rng(8)
        fm = rng.random((8, 8, 3))
        g = rng.random((4, 3))
        menu = default_menu(4)
        params = forcing_params(menu, 2, 4)
        tokens, _ = compress_inference(fm, g, params, menu)
        blocks = partition(fm, 4)
        expected = np.concatenate([b.reshape(-1, 3) for b in blocks])
        np.testing.assert_array_equal(tokens, expected)

    def test_constant_map_emits_constant_tokens(self):
        fm = np.full((8, 8, 2), 1.5)
        g = np.random.default_rng(9).random((4, 2))
        menu = default_menu(4)
        params = init_selector_params(3, 4, seed=0)
        tokens, _ = compress_inference(fm, g, params, menu)
        np.testing.assert_array_equal(tokens, np.full_like(tokens, 1.5))

    def test_token_count_matches_selection_sum(self):
        rng = np.random.default_rng(10)
        fm = rng.random((12, 12, 2))
        g = rng.random((9, 2))
        menu = default_menu(4)
        params = init_selector_params(3, 9, seed=3)
        tokens, selections = compress_inference(fm, g, params, menu)
        counts = menu.token_counts
        assert tokens.shape[0] == sum(counts[s.scale] for s in selections)
        assert len(selections) * min(counts) <= tokens.shape[0] <= len(selections) * max(counts)

    def test_emitted_values_come_from_source_region(self):
        rng = np.random.default_rng(11)
        fm = rng.random((8, 8, 2))
        g = rng.random((4, 2))
        menu = default_menu(4)
        params = init_selector_params(3, 4, seed=1)
        tokens, selections = compress_inference(fm, g, params, menu)
        blocks = partition(fm, 4)
        offset = 0
        for sel in selections:
            group = tokens[offset : offset + sel.token_count]
            offset += sel.token_count
            for tok in group:
                for c, value in enumerate(tok):
                    assert value in blocks[sel.region][:, :, c]

    def test_region_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        fm = rng.random((8, 8, 2))
        g = rng.random((4, 2))
        menu = default_menu(4)
        params = init_selector_params(3, 4, seed=2)
        _, selections = compress_inference(fm, g, params, menu)

        # swap the two top regions in the map and recompute
        swapped = fm.copy()
        swapped[0:4, 0:4], swapped[0:4, 4:8] = fm[0:4, 4:8].copy(), fm[0:4, 0:4].copy()
        _, sel2 = compress_inference(swapped, g, params, menu)
        assert sel2[0].scale == selections[1].scale
        assert sel2[1].scale == selections[0].scale
        assert sel2[2].scale == selections[2].scale

    def test_forced_per_region_and_discard(self):
        rng = np.random.default_rng(13)
        fm = rng.random((8, 8, 2))
        g = rng.random((4, 2))
        menu = ScaleMenu(4, (ScaleSpec(None, discard=True), ScaleSpec((4, 4)), ScaleSpec((1, 1))))
        params = init_selector_params(3, 4, seed=4)
        tokens, selections = compress_inference(
            fm, g, params, menu, force_scales=[0, 1, 2, 0]
        )
        assert [s.token_count for s in selections] == [0, 1, 16, 0]
        assert tokens.shape == (17, 2)


class TestCompressTraining:
    def test_weighted_equals_prob_times_inference(self):
        rng = np.random.default_rng(14)
        fm = rng.random((8, 8, 3))
        g = rng.random((6, 3))
        menu = default_menu(4)
        params = init_selector_params(3, 6, seed=5)
        inf, sels = compress_inference(fm, g, params, menu)
        train, sels2 = compress_training(fm, g, params, menu)
        offset = 0
        for a, b in zip(sels, sels2):
            assert a.scale == b.scale
            group_inf = inf[offset : offset + a.token_count]
            group_train = train[offset : offset + a.token_count]
            np.testing.assert_array_equal(group_train, a.top1_prob * group_inf)
            offset += a.token_count

    def test_dominant_logit_limit(self):
        rng = np.random.default_rng(15)
        fm = rng.random((4, 4, 2))
        g = rng.random((2, 2))
        menu = default_menu(4)
        params = forcing_params(menu, 0, 2)  # bias 100 -> top-1 prob ~ 1
        inf, _ = compress_inference(fm, g, params, menu)
        train, _ = compress_training(fm, g, params, menu)
        np.testing.assert_allclose(train, inf, atol=1e-12)

    def test_uniform_logits_scale_by_third(self):
        fm = np.random.default_rng(16).random((4, 4, 2))
        g = np.zeros((2, 2))  # zero global -> zero scores -> logits = bias = 0
        menu = default_menu(4)
        params = SelectorParams(np.zeros((3, 2)), np.zeros(3))
        inf, _ = compress_inference(fm, g, params, menu)
        train, _ = compress_training(fm, g, params, menu)
        np.testing.assert_allclose(train, inf / 3.0, atol=1e-15)


class TestSelectionHeatmap:
    def test_fills_patches_with_kept_fraction(self):
        menu = default_menu(4)
        probs = softmax(np.zeros(3))
        selections = [
            RegionSelection(0, 0, probs, 1),
            RegionSelection(1, 2, probs, 16),
            RegionSelection(2, 1, probs, 4),
            RegionSelection(3, 0, probs, 1),
        ]
        grid = selection_heatmap(selections, menu, (2, 2))
        assert grid.shape == (8, 8)
        assert grid[0, 0] == 1 / 16
        assert grid[0, 4] == 1.0
        assert grid[4, 0] == 4 / 16
        assert grid[4, 4] == 1 / 16


def per_region_reference(fm, g, params, menu, pool):
    """The routing computed one region at a time: tokens, scales, probabilities."""
    w = menu.window
    h, width, c = fm.shape
    tokens, scales, probs = [], [], []
    for top in range(0, h, w):
        for left in range(0, width, w):
            block = fm[top : top + w, left : left + w].copy()
            pooled = block.mean(axis=(0, 1)) if pool == "mean" else block.max(axis=(0, 1))
            score = matmul(g, pooled[:, None])[:, 0]
            logits = matmul(params.weight, score[:, None])[:, 0] + params.bias
            j = int(np.argmax(logits))
            spec = menu.scales[j]
            kept = np.zeros((0, c)) if spec.discard else max_pool(block, spec.kernel)
            tokens.append(kept.reshape(-1, c))
            scales.append(j)
            probs.append(softmax(logits))
    return np.concatenate(tokens), scales, np.array(probs)


class TestBatchedCoreMatchesPerRegionLoop:
    @pytest.mark.parametrize("menu_name", ["3branch", "7branch", "3branch-w8", "discard"])
    @pytest.mark.parametrize("pool", ["mean", "max"])
    @pytest.mark.parametrize("channels", [1, 5])
    def test_bit_identical(self, menu_name, pool, channels):
        menu = {
            "3branch": default_menu(4),
            "7branch": seven_branch_menu(4),
            "3branch-w8": default_menu(8),
            "discard": ScaleMenu(4, (ScaleSpec(None, discard=True), ScaleSpec((2, 2)))),
        }[menu_name]
        rng = np.random.default_rng(len(menu) * 10 + channels)
        w = menu.window
        fm = rng.standard_normal((3 * w, 2 * w, channels))
        g = rng.standard_normal((7, channels))
        params = SelectorParams(rng.standard_normal((len(menu), 7)), rng.standard_normal(len(menu)))
        tokens, selections = compress_inference(fm, g, params, menu, pool=pool)
        ref_tokens, ref_scales, ref_probs = per_region_reference(fm, g, params, menu, pool)
        np.testing.assert_array_equal(tokens, ref_tokens)
        assert [s.scale for s in selections] == ref_scales
        np.testing.assert_array_equal(np.array([s.probs for s in selections]), ref_probs)


def later_max_loop(blocks, kh, kw):
    """Each kh x kw cell's max, one token at a time in row-major order: a token
    replaces the running max when it is >= it."""
    m, w, _, c = blocks.shape
    out = np.empty((m, w // kh, w // kw, c))
    for r, y, x, k in np.ndindex(out.shape):
        cell = blocks[r, y * kh:(y + 1) * kh, x * kw:(x + 1) * kw, k].ravel()
        acc = cell[0]
        for v in cell[1:]:
            acc = v if v >= acc else acc
        out[r, y, x, k] = acc
    return out


class TestMaxPool:
    """The numpy core's max keeps the later of tied values, whatever numpy dispatches."""

    @pytest.mark.parametrize("kh, kw", [(4, 4), (2, 2), (4, 2), (1, 2), (1, 1)])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_later_of_tied_values_wins(self, kh, kw, channels):
        rng = np.random.default_rng(10 * kh + kw + channels)
        zeros = np.where(rng.random((20, 4, 4, channels)) < 0.5, 0.0, -0.0)
        mixed = np.where(rng.random(zeros.shape) < 0.3, -rng.random(zeros.shape), zeros)
        for blocks in (zeros, mixed):
            got = vision.max_pool(blocks, kh, kw)
            assert got.tobytes() == later_max_loop(blocks, kh, kw).tobytes()
            assert 0 < np.signbit(got).sum() < got.size  # both zeros won somewhere

    def test_values_are_numpy_max(self):
        blocks = np.random.default_rng(3).standard_normal((6, 8, 8, 5))
        got = vision.max_pool(blocks, 4, 2)
        np.testing.assert_array_equal(got, blocks.reshape(6, 2, 4, 4, 2, 5).max(axis=(2, 4)))


def route_cases():
    """``compress_inference`` arguments on which the compiled pass must give the
    numpy core's outcome, by name: the 3-branch, 7-branch, window-8 and
    retain/discard menus and a 12-scale menu of each 3-branch kernel 4 times
    (from 8 scales on, each region's softmax denominator is a pairwise sum),
    1 and 5 channels, mean and max pools, each routed by the selector, forced
    to scale 0 and forced to a scale per region.

    Region 0 is all -0.0 (its mean is +0.0). Region 1 is negative but for
    zeros that tie in the 2x2, 4x2 and whole-region cells in both orders:
    +0.0 then -0.0, and -0.0 then +0.0. Then logits that tie (the first
    maximum wins), maps whose logits overflow, and one of them with a forced
    scale out of range, which is checked first. Last, the seed fixture of
    ``vtcompress gen`` at three seeds, routed by the selector of the same seed.
    """
    menus = {"3branch": default_menu(4), "7branch": seven_branch_menu(4),
             "3branch-w8": default_menu(8), "retain-discard": retain_discard_menu(),
             "12branch": ScaleMenu(4, tuple(spec for spec in default_menu(4).scales
                                            for _ in range(4)))}
    rng = np.random.default_rng(29)
    for (name, menu), channels, pool in itertools.product(menus.items(), (1, 5), ("mean", "max")):
        w = menu.window
        fm = rng.standard_normal((3 * w, 2 * w, channels)) * 10.0 ** rng.integers(-3, 4, channels)
        fm[:w, :w] = -0.0
        fm[:w, w:] = -np.abs(fm[:w, w:])
        if w >= 4:
            fm[0, w:w + 4] = np.array([0.0, -0.0, -0.0, 0.0])[:, None]
            fm[1, w] = -0.0
        g = rng.standard_normal((7, channels))
        params = SelectorParams(rng.standard_normal((len(menu), 7)), rng.standard_normal(len(menu)))
        for force in (None, 0, [r % len(menu) for r in range(6)]):
            yield f"{name}-c{channels}-{pool}-force{force}", (fm, g, params, menu), dict(
                pool=pool, force_scales=force)
    fm, g = rng.standard_normal((8, 8, 5)), rng.standard_normal((7, 5))
    weight = rng.standard_normal((3, 7))
    weight[2] = weight[1]
    yield "logit-tie", (fm, g, SelectorParams(weight, [-50.0, 50.0, 50.0]), default_menu(4)), {}
    yield "all-tie", (fm, g, SelectorParams(np.zeros((3, 7)), np.zeros(3)), default_menu(4)), {}
    for pool in ("mean", "max"):  # finite scores times weights of 1e200
        yield f"overflow-{pool}", (fm * 1e200, g, SelectorParams(weight * 1e200, np.zeros(3)),
                                   default_menu(4)), dict(pool=pool)
    yield "overflow-forced-out-of-range", (
        fm * 1e200, g, SelectorParams(weight * 1e200, np.zeros(3)), default_menu(4)
    ), dict(force_scales=3)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (0, 1, 2):
            paths = gen_synthetic(SyntheticConfig(seed=seed), f"{tmp}/{seed}")["paths"]
            fm, g = read_tensor(paths["x"])[0], read_tensor(paths["xg"])[0]
            params = init_selector_params(3, 36, seed=seed)
            yield f"fixture-seed{seed}", (fm, g, params, default_menu(4)), {}


def routing_readings(tokens, selections, fm, menu):
    """The report bytes, scale histogram and heatmaps that ``selections`` of
    ``fm``'s routing give, the importance heatmap from each token's sum."""
    grid = (fm.shape[0] // menu.window, fm.shape[1] // menu.window)
    report = build_report(strategy="vision", input_tokens=fm.shape[0] * fm.shape[1],
                          menu=menu, selections=selections)
    return (report_to_json(report), scale_histogram(selections).tobytes(),
            selection_heatmap(selections, menu, grid).tobytes(),
            cli._region_importance_grid(selections, tokens.sum(axis=1), menu, grid).tobytes())


def route_outcome(args, kwargs):
    """``compress_inference``'s tokens, scales and probabilities as bytes, or its
    error's text, after checking that its routing and the list of its
    selections read the same (``routing_readings``)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the numpy core's overflow
            tokens, selections = compress_inference(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    fm, menu = args[0], args[3]
    assert routing_readings(tokens, selections, fm, menu) == routing_readings(
        tokens, list(selections), fm, menu)
    probs = np.array([s.probs for s in selections])
    return tokens.shape, tokens.tobytes(), [s.scale for s in selections], probs.tobytes()


def assert_route_matches_numpy(kernel, args, kwargs):
    """The outcome with ``kernel`` loaded is the one with the kernel forced off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric, "_product_kernel", lambda: kernel)
        compiled = route_outcome(args, kwargs)
        mp.setattr(numeric, "_product_kernel", lambda: None)
        assert compiled == route_outcome(args, kwargs)


class TestCompiledRoutePass:
    """The compiled vision pass writes the numpy routing core's bytes and raises its errors."""

    @pytest.fixture(autouse=True)
    def _kernel_loaded(self):
        if numeric._product_kernel() is None:
            pytest.skip("the product kernel is not available")

    @pytest.mark.parametrize("args, kwargs", [case[1:] for case in route_cases()],
                             ids=[case[0] for case in route_cases()])
    def test_matches_numpy_core(self, args, kwargs):
        assert_route_matches_numpy(numeric._product_kernel(), args, kwargs)

    def test_ties_and_overflow_seen(self):
        outcomes = {name: route_outcome(args, kwargs) for name, args, kwargs in route_cases()}
        assert outcomes["logit-tie"][2] == [1] * 4
        assert outcomes["all-tie"][2] == [0] * 4
        assert outcomes["overflow-mean"] == "softmax input contains non-finite values"
        assert outcomes["overflow-max"] == "softmax input contains non-finite values"
        assert outcomes["overflow-forced-out-of-range"] == "forced scale index out of range"
        # region 1's 2x2 cells at the forced 2x2 scale: the later zero of each tie
        tokens = np.frombuffer(outcomes["3branch-c1-max-force[0, 1, 2, 0, 1, 2]"][1])
        assert np.signbit(tokens[1:3]).tolist() == [True, False]
