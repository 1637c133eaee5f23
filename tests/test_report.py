import json

import numpy as np
import pytest

from vtcompress.numeric import softmax
from vtcompress.report import (
    build_report,
    effective_token_count,
    report_to_json,
    scale_histogram,
)
from vtcompress.textsampler import SelectionResult
from vtcompress.vision import RegionSelection, default_menu


def make_selections(scale_per_region, menu):
    probs = softmax(np.zeros(len(menu)))
    counts = menu.token_counts
    return [
        RegionSelection(r, s, probs, counts[s]) for r, s in enumerate(scale_per_region)
    ]


class TestEffectiveTokenCount:
    def test_reference_value(self):
        assert effective_token_count(100, 50, 8, 32) == 62.5

    def test_nothing_removed(self):
        assert effective_token_count(77, 0, 5, 32) == 77.0

    def test_removal_at_entry_and_near_exit(self):
        assert effective_token_count(100, 40, 0, 32) == 60.0
        # removing at the last layer saves (almost) nothing
        assert effective_token_count(100, 40, 31, 32) == pytest.approx(98.75)

    def test_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(1, 500))
            n = int(rng.integers(0, m + 1))
            i = int(rng.integers(0, 32))
            v = effective_token_count(m, n, i, 32)
            assert v <= m
            if i + 1 < 32:
                assert effective_token_count(m, n, i + 1, 32) >= v
            if n > 0:
                assert effective_token_count(m, n - 1, i, 32) >= v

    def test_range_violations(self):
        with pytest.raises(ValueError):
            effective_token_count(10, 11, 0, 32)
        with pytest.raises(ValueError):
            effective_token_count(10, 5, 32, 32)
        with pytest.raises(ValueError):
            effective_token_count(10, 5, -1, 32)
        with pytest.raises(ValueError):
            effective_token_count(10, 5, 0, 0)


class TestScaleHistogram:
    def test_all_one_scale(self):
        menu = default_menu(4)
        f = scale_histogram(make_selections([0] * 7, menu))
        np.testing.assert_array_equal(f, [1.0, 0.0, 0.0])

    def test_even_split(self):
        menu = default_menu(4)
        f = scale_histogram(make_selections([0] * 12 + [1] * 12 + [2] * 12, menu))
        np.testing.assert_allclose(f, [1 / 3] * 3, atol=1e-15)

    def test_matches_brute_force_count(self):
        rng = np.random.default_rng(1)
        menu = default_menu(4)
        scales = [int(rng.integers(0, 3)) for _ in range(50)]
        f = scale_histogram(make_selections(scales, menu))
        for i in range(3):
            assert f[i] == scales.count(i) / 50

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no selections"):
            scale_histogram([])


class TestBuildReport:
    def test_vision_only(self):
        menu = default_menu(4)
        selections = make_selections([0] * 12 + [1] * 12 + [2] * 12, menu)
        report = build_report(
            strategy="vision", input_tokens=576, menu=menu, selections=selections
        )
        assert report["afterVision"] == 12 * (1 + 4 + 16) == 252
        assert report["afterVision"] / report["inputTokens"] == 0.4375
        assert report["textSelection"] is None
        assert report["heuristicSelection"] is None
        assert report["effectiveTokens"] == 252.0
        np.testing.assert_allclose(report["scaleFrequencies"], [1 / 3] * 3)

    def test_both_uses_effective_count(self):
        menu = default_menu(4)
        selections = make_selections([2] * 4, menu)  # 64 tokens enter the LLM
        text = SelectionResult(np.arange(40), 40, 0.85)
        report = build_report(
            strategy="both",
            input_tokens=64,
            menu=menu,
            selections=selections,
            text_selection=text,
            text_layer=8,
            total_layers=32,
        )
        assert report["afterVision"] == 64
        assert report["textSelection"]["k"] == 40
        assert report["effectiveTokens"] == effective_token_count(64, 24, 8, 32)
        assert report["effectiveTokens"] < report["afterVision"]

    def test_text_only(self):
        text = SelectionResult(np.arange(30), 30, 0.7)
        report = build_report(
            strategy="text", input_tokens=100, text_selection=text, text_layer=10
        )
        assert report["selections"] is None
        assert report["afterVision"] == 100
        assert report["effectiveTokens"] == effective_token_count(100, 70, 10, 32)

    def test_heuristic(self):
        report = build_report(
            strategy="heuristic",
            input_tokens=100,
            heuristic_kept=40,
            heuristic_keep_fraction=0.4,
        )
        assert report["afterVision"] == 40
        assert report["effectiveTokens"] == 40.0

    def test_round_trips_through_json(self):
        menu = default_menu(4)
        selections = make_selections([0, 1, 2, 2], menu)
        report = build_report(
            strategy="vision", input_tokens=64, menu=menu, selections=selections
        )
        assert json.loads(report_to_json(report)) == report

    def test_json_is_deterministic(self):
        menu = default_menu(4)
        selections = make_selections([0, 1], menu)
        a = report_to_json(
            build_report(strategy="vision", input_tokens=32, menu=menu, selections=selections)
        )
        b = report_to_json(
            build_report(strategy="vision", input_tokens=32, menu=menu, selections=selections)
        )
        assert a == b

    def test_inconsistent_counts_rejected(self):
        menu = default_menu(4)
        probs = softmax(np.zeros(3))
        bad = [RegionSelection(0, 0, probs, 5)]  # scale 0 emits 1 token, not 5
        with pytest.raises(ValueError, match="disagree"):
            build_report(strategy="vision", input_tokens=16, menu=menu, selections=bad)

    @pytest.mark.parametrize("strategy", ["vision", "text", "both", "heuristic"])
    @pytest.mark.parametrize("total_layers", [0, -3])
    def test_total_layers_below_one_rejected(self, strategy, total_layers):
        menu = default_menu(4)
        inputs = {
            "vision": dict(menu=menu, selections=make_selections([2] * 4, menu)),
            "text": dict(text_selection=SelectionResult(np.arange(40), 40, 0.85), text_layer=8),
            "heuristic": dict(heuristic_kept=40),
        }
        inputs["both"] = {**inputs["vision"], **inputs["text"]}
        with pytest.raises(ValueError, match="total_layers must be >= 1"):
            build_report(strategy=strategy, input_tokens=64, total_layers=total_layers,
                         **inputs[strategy])

    def test_text_kept_more_than_entering_rejected(self):
        text = SelectionResult(np.arange(200), 200, 0.9)
        with pytest.raises(ValueError, match="kept 200"):
            build_report(
                strategy="text", input_tokens=100, text_selection=text, text_layer=8
            )
