import ast
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_cli import AWKWARD_FLOATS, HUGE, JSON_VALUES
from vtcompress import numeric
from vtcompress.cli import main
from vtcompress.formats import SyntheticConfig, gen_synthetic
from vtcompress.numeric import softmax
from vtcompress.report import (
    build_report,
    effective_token_count,
    report_to_json,
    scale_histogram,
)
from vtcompress.textsampler import SelectionResult
from vtcompress.vision import RegionRouting, default_menu

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def make_selections(scale_per_region, menu):
    """The routing of one row of regions that chose ``scale_per_region``,
    each with uniform probabilities."""
    probs = np.tile(softmax(np.zeros(len(menu))), (len(scale_per_region), 1))
    return RegionRouting(np.array(scale_per_region, dtype=int), probs, menu,
                         (1, len(scale_per_region)))


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

    @pytest.mark.parametrize("args", [
        (10, 5, 2.7), (10, 5.0, 2), (10.5, 5, 2), (10, 5, 2, 32.0), (10, 5, "2"), (10, 5, True),
        (True, 0, 0), (10, 5, np.float64(2)),
    ], ids=repr)
    def test_non_integers_rejected_not_truncated(self, args):
        """Layer 2.7 used to be read as layer 2, and "2" and True as 2 and 1."""
        with pytest.raises(ValueError, match="must be an integer"):
            effective_token_count(*args)

    def test_numpy_integers_accepted(self):
        args = (np.int64(100), np.int32(50), np.intp(8), np.uint8(32))
        assert effective_token_count(*args) == 62.5

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
            scale_histogram(make_selections([], default_menu(4)))


class TestBuildReport:
    def test_vision_only(self):
        menu = default_menu(4)
        selections = make_selections([0] * 12 + [1] * 12 + [2] * 12, menu)
        report = build_report(
            strategy="vision", input_tokens=576, selections=selections
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
            strategy="vision", input_tokens=64, selections=selections
        )
        assert json.loads(report_to_json(report)) == report

    def test_json_is_deterministic(self):
        menu = default_menu(4)
        selections = make_selections([0, 1], menu)
        a = report_to_json(
            build_report(strategy="vision", input_tokens=32, selections=selections)
        )
        b = report_to_json(
            build_report(strategy="vision", input_tokens=32, selections=selections)
        )
        assert a == b

    @pytest.mark.parametrize("change, match", [
        (dict(scales=np.zeros(0, int), probs=np.zeros((0, 3)), grid=(1, 0)), "no selections"),
        (dict(scales=[0, 3]), r"scales must be 2 integers in 0\.\.2, got array\(\[0, 3\]\)"),
        (dict(scales=[-1, 2]), r"scales must be 2 integers in 0\.\.2"),
        (dict(scales=[0.0, 2.0]), r"scales must be 2 integers in 0\.\.2"),
        (dict(scales=[False, True]), r"scales must be 2 integers in 0\.\.2"),
        (dict(scales=[[0, 2]]), r"scales must be 2 integers in 0\.\.2"),
        (dict(probs=np.full((2, 2), 0.5)), r"probs must be \(2, 3\), got \(2, 2\)"),
        (dict(probs=np.full((1, 3), 1 / 3)), r"probs must be \(2, 3\), got \(1, 3\)"),
        (dict(grid=(2, 2)), r"region grid \(2, 2\) does not hold 2 regions"),
        (dict(grid=(2,)), "does not hold 2 regions"),
        (dict(grid=(-1, -2)), "does not hold 2 regions"),
        (dict(grid=(1.0, 2.0)), "does not hold 2 regions"),
        (dict(grid=(True, 2)), "does not hold 2 regions"),
        (dict(grid=("1", "2")), "does not hold 2 regions"),
    ], ids=["no-regions", "scale-above-menu", "negative-scale", "float-scales", "bool-scales",
            "scales-not-a-vector", "probs-not-per-scale", "probs-not-per-region",
            "grid-too-large", "grid-not-2d", "grid-negative", "grid-float", "grid-bool",
            "grid-strings"])
    def test_malformed_routing_rejected_at_construction(self, change, match):
        """A routing is checked once, when it is built, so no reader can be
        handed counts that disagree with its menu or a grid of other regions."""
        fields = dict(scales=[0, 2], probs=np.full((2, 3), 1 / 3), menu=default_menu(4),
                      grid=(1, 2))
        fields.update(change)
        fields["scales"] = np.array(fields["scales"])
        with pytest.raises(ValueError, match=match):
            RegionRouting(**fields)

    @pytest.mark.parametrize("field", ["input_tokens", "total_layers", "text_layer",
                                       "heuristic_kept"])
    @pytest.mark.parametrize("value", [2.7, 8.0, "8", True])
    def test_non_integer_counts_rejected_not_truncated(self, field, value):
        """``text_layer=2.7`` used to be written as ``"layer": 2``."""
        kwargs = dict(input_tokens=64, total_layers=32, text_layer=8, heuristic_kept=40)
        kwargs[field] = value
        strategy = "heuristic" if field == "heuristic_kept" else "text"
        text = SelectionResult(np.arange(40), 40, 0.85)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            build_report(strategy=strategy, text_selection=text, **kwargs)

    def test_numpy_integer_counts_accepted(self):
        text = SelectionResult(np.arange(40), 40, 0.85)
        report = build_report(strategy="text", input_tokens=np.int64(64), text_selection=text,
                              text_layer=np.int32(8), total_layers=np.intp(32))
        assert report == build_report(strategy="text", input_tokens=64, text_selection=text,
                                      text_layer=8)
        assert report_to_json(report) == report_to_json(build_report(
            strategy="text", input_tokens=64, text_selection=text, text_layer=8))

    @pytest.mark.parametrize("strategy", ["vision", "text", "both", "heuristic"])
    @pytest.mark.parametrize("total_layers", [0, -3])
    def test_total_layers_below_one_rejected(self, strategy, total_layers):
        menu = default_menu(4)
        inputs = {
            "vision": dict(selections=make_selections([2] * 4, menu)),
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

    def test_vision_tokens_above_input_rejected(self):
        menu = default_menu(4)
        selections = make_selections([2] * 16, menu)  # 256 tokens from 100 input tokens
        with pytest.raises(ValueError, match="after_vision"):
            build_report(
                strategy="both",
                input_tokens=100,
                selections=selections,
                text_selection=SelectionResult(np.arange(10), 10, 0.85),
                text_layer=0,
            )


def test_accounting_only_in_report():
    """``effective_token_count`` is called in ``report.py`` only, so the
    accounting policy and its checks have one owner."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "report.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "effective_token_count":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_indented_json_only_in_report():
    """No module but ``report.py`` calls ``json.dumps`` with ``indent``: the
    indented report format has one writer, ``report_to_json``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "report.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "dumps"
                    and any(kw.arg == "indent" for kw in node.keywords)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_files_written_as_bytes():
    """No module under src/ and no demo calls ``write_text`` or ``read_text``,
    which encode and decode with the locale's codec and, on Windows, translate
    newlines: every file is written as the bytes of its text and read as bytes,
    the same on every platform."""
    found = []
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "demos").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("write_text", "read_text")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _compressed_both_report() -> dict:
    """The report ``vtcompress compress --strategy both`` writes for the seed fixture."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = gen_synthetic(SyntheticConfig(), tmp)["paths"]
        out = Path(tmp) / "both.json"
        code = main(["compress", "--strategy", "both", "--map", paths["x"],
                     "--global", paths["xg"], "--q", paths["q"], "--out", str(out)])
        assert code == 0
        return json.loads(out.read_text())


# Text that a writer could get wrong: format specifiers, NUL, characters that
# need an ASCII escape, and JSON's brackets, commas and key separator, escaped
# quotes and backslashes inside strings, which a layout pass must copy as text.
AWKWARD_TEXT = st.sampled_from([
    "%", "%s", "%%d", "\x00", "a\x00b", "\n", '"', "\\", "é", "\U0001f600", "\ud800",
    "[", "]", "{", "}", ",", "[ ] { } ,", '": "', '\\"', "\\\\", '\\\\"', '", [', "a\\",
]) | st.text(max_size=6)
WRITER_KEYS = (AWKWARD_TEXT | st.integers() | st.floats() | AWKWARD_FLOATS | st.booleans()
               | st.none() | st.tuples(st.integers()))
WRITER_SCALARS = (JSON_VALUES | AWKWARD_FLOATS | AWKWARD_TEXT | HUGE
                  | st.floats().map(np.float64) | st.integers(-9, 9).map(np.int64)
                  | st.sets(st.integers(), max_size=2))
WRITER_VALUES = st.recursive(
    WRITER_SCALARS | st.sampled_from([[], (), {}]),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(WRITER_KEYS, inner, max_size=4)
    | inner.map(lambda v: [v, {"k": v}, v, {"k": v}]),  # repeated shapes share a template
    max_leaves=16,
)


def _written(write, value):
    """What ``write(value)`` returns, or the type and text of the exception it raises."""
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _cycle() -> dict:
    loop = {"a": [1]}
    loop["a"].append(loop)
    return loop


def _nested(depth: int):
    """``[[...[1]...]]``, ``depth`` lists deep: its layout is far longer than its compact text."""
    value = 1
    for _ in range(depth):
        value = [value]
    return value


class TestWriterParity:
    """``report_to_json`` writes ``json.dumps(indent=2)``'s bytes, and raises
    the same errors with the same text with the compiled kernel and without it."""

    @staticmethod
    def _both_backends(value):
        """``report_to_json``'s outcome with the compiled kernel, after requiring
        the same with the kernel forced off."""
        compiled = _written(report_to_json, value)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numeric, "_product_kernel", lambda: None)
            assert _written(report_to_json, value) == compiled
        return compiled

    @given(value=WRITER_VALUES)
    @example(value=["[ ] { } ,", '": "', '\\"', "\\\\", '\\\\"', {'", [': ['\\"', {}, "a\\"]}])
    @example(value=[[]])
    @example(value={"a": {}})
    @example(value=[])
    @example(value={})
    @example(value="]")
    @example(value=-2.5e-300)
    @example(value=None)
    @example(value=True)
    @example(value=_nested(40))
    @example(value=_compressed_both_report())
    @example(value=[{1: 0}, {1.0: 0}, {True: 0}, {"1": 0}, {0.0: 0}, {-0.0: 0}, {None: 0}])
    @example(value=[[1, 2], {3: 4}, (5, 6, 7), {(3,): 4}])
    @example(value={"a": [math.nan], (1,): 0})  # a bad value before a bad key
    @example(value={(1,): math.nan})  # a bad key before its bad value
    @example(value={math.inf: {1}})
    @example(value=[{"x": 1, "y": [2, {"z": ()}]}, 2**1100, -(2**70)])
    @settings(max_examples=500, deadline=None)
    def test_matches_json_dumps_indent_2(self, value):
        expected = _written(lambda v: json.dumps(v, indent=2, allow_nan=False) + "\n", value)
        got = self._both_backends(value)
        if isinstance(expected, str):
            assert got == expected
        else:  # json's indented encoder words its float error differently
            assert got[0] == expected[0]

    # The errors as json's C encoder words them.
    @pytest.mark.parametrize("value, error", [
        ([1.0, math.nan], (ValueError, "Out of range float values are not JSON compliant")),
        ({"a": -math.inf}, (ValueError, "Out of range float values are not JSON compliant")),
        ({(1,): 0}, (TypeError, "keys must be str, int, float, bool or None, not tuple")),
        ([{1, 2}], (TypeError, "Object of type set is not JSON serializable")),
        (_cycle(), (ValueError, "Circular reference detected")),
        pytest.param([10**5000], (ValueError, "Exceeds the limit (4300 digits) for integer "
                     "string conversion; use sys.set_int_max_str_digits() to increase the limit"),
                     marks=pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                              reason="this Python writes integers of any length"),
                     id="huge-int"),
    ], ids=["nan", "inf", "tuple-key", "set", "cycle", None])
    def test_errors_keep_their_type_and_text(self, value, error):
        assert self._both_backends(value) == error

    def test_circular_reference_rejected(self):
        loop = {"a": [1]}
        loop["a"].append(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            report_to_json(loop)
