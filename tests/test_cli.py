import ast
import json
import math
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vtcompress import numeric, vision
from vtcompress.cli import _train_log, build_parser, main
from vtcompress.formats import (
    MAGIC_FEATURE_MAP,
    MAGIC_SELECTOR,
    export_heatmap,
    read_tensor,
    write_tensor,
)
from vtcompress.report import effective_token_count, report_to_json
from vtcompress.textsampler import per_layer_importance
from vtcompress.training import TrainConfig, make_scale_indifferent_task, train_selector
from vtcompress.vision import (
    default_menu,
    init_selector_params,
    params_to_array,
    seven_branch_menu,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, f"exit {code}, stderr: {err}"
    return json.loads(out)


@pytest.fixture()
def fixtures(tmp_path, capsys):
    out = tmp_path / "fix"
    meta = run_json(
        capsys, "gen", "--out", str(out), "--seed", "3",
        "--height", "16", "--width", "16", "--channels", "4",
        "--global-height", "4", "--global-width", "4",
        "--heads", "2", "--text-tokens", "4", "--head-dim", "8",
    )
    return meta["paths"]


def identity_params_file(path, num_scales, num_global):
    """SELW file whose dominant last-scale bias forces the lossless path."""
    params = init_selector_params(num_scales, num_global, seed=0)
    arr = params_to_array(params)
    arr[:, :-1] = 0.0
    arr[:, -1] = 0.0
    arr[-1, -1] = 100.0
    write_tensor(path, arr, MAGIC_SELECTOR)


class TestGen:
    def test_produces_four_files(self, fixtures):
        assert set(fixtures) == {"x", "xg", "q", "k"}
        for path in fixtures.values():
            read_tensor(path)  # parses cleanly

    def test_seeded_determinism(self, tmp_path, capsys):
        a = run_json(capsys, "gen", "--out", str(tmp_path / "a"), "--seed", "9")
        b = run_json(capsys, "gen", "--out", str(tmp_path / "b"), "--seed", "9")
        for name in ("x", "xg", "q", "k"):
            assert (
                open(a["paths"][name], "rb").read() == open(b["paths"][name], "rb").read()
            )

    def test_invalid_dims_exit_nonzero(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--out", str(tmp_path), "--height", "0")
        assert code == 5
        assert json.loads(err)["error"] == "invalid-input"

    def test_out_of_memory_is_one_json_line(self, tmp_path, capsys):
        # 7.11 PiB: numpy refuses it at once, allocating nothing
        code, out, err = run(capsys, "gen", "--out", str(tmp_path / "d"), "--height", "100000",
                             "--width", "100000", "--channels", "100000")
        assert code == 5
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "out-of-memory"

    def test_out_of_memory_leaves_no_out_directory(self, tmp_path, capsys):
        # the same shape, which numpy refuses outright: the directory comes after the arrays
        code, _, _ = run(capsys, "gen", "--out", str(tmp_path / "d"), "--height", "100000",
                         "--width", "100000", "--channels", "100000")
        assert code == 5
        assert not (tmp_path / "d").exists()

    def test_flag_surface(self):
        """The flags come from SyntheticConfig's fields, so renaming a field or
        changing its default would change them silently: pin each flag's
        name, type, default, choices and whether it is required."""
        _, commands = build_parser()
        flags = [
            (action.option_strings, action.type or str, action.default,
             action.choices and list(action.choices), action.required)
            for action in commands["gen"]._actions if action.dest != "help"
        ]
        assert flags == [
            (["--out"], str, None, None, True),
            (["--height"], int, 24, None, False),
            (["--width"], int, 24, None, False),
            (["--channels"], int, 8, None, False),
            (["--global-height"], int, 6, None, False),
            (["--global-width"], int, 6, None, False),
            (["--heads"], int, 4, None, False),
            (["--text-tokens"], int, 8, None, False),
            (["--head-dim"], int, 16, None, False),
            (["--seed"], int, 0, None, False),
            (["--structure"], str, "uniform-noise", ["uniform-noise", "block-structured"],
             False),
        ]


class TestCompress:
    def test_vision_identity_params_keep_everything(self, fixtures, tmp_path, capsys):
        selw = tmp_path / "id.selw"
        identity_params_file(selw, 3, 16)
        report = run_json(
            capsys, "compress", "--strategy", "vision",
            "--map", fixtures["x"], "--global", fixtures["xg"], "--params", str(selw),
        )
        assert report["afterVision"] == report["inputTokens"] == 256
        assert report["scaleFrequencies"] == [0.0, 0.0, 1.0]

    def test_both_report_is_self_consistent(self, fixtures, tmp_path, capsys):
        selw = tmp_path / "sel.selw"
        write_tensor(selw, params_to_array(init_selector_params(3, 16, seed=1)), MAGIC_SELECTOR)
        report = run_json(
            capsys, "compress", "--strategy", "both",
            "--map", fixtures["x"], "--global", fixtures["xg"], "--params", str(selw),
            "--q", fixtures["q"], "--gamma", "0.85", "--layer", "8", "--total-layers", "32",
        )
        k = report["textSelection"]["k"]
        expected = effective_token_count(
            report["afterVision"], report["afterVision"] - k, 8, 32
        )
        assert report["effectiveTokens"] == expected
        assert report["effectiveTokens"] < report["afterVision"]

    def test_heuristic_keeps_ceil_fraction(self, fixtures, capsys):
        report = run_json(
            capsys, "compress", "--strategy", "heuristic",
            "--map", fixtures["x"], "--global", fixtures["xg"], "--keep-fraction", "0.4",
        )
        assert report["heuristicSelection"]["kept"] == math.ceil(0.4 * 256)
        assert report["afterVision"] == math.ceil(0.4 * 256)

    def test_text_requires_matching_key_count(self, fixtures, capsys):
        code, _, err = run(
            capsys, "compress", "--strategy", "text",
            "--map", fixtures["x"], "--q", fixtures["q"], "--k", fixtures["q"],
        )
        assert code == 5
        assert "visual tokens" in json.loads(err)["message"]

    def test_heatmaps_written(self, fixtures, tmp_path, capsys):
        selw = tmp_path / "sel.selw"
        write_tensor(selw, params_to_array(init_selector_params(3, 16, seed=1)), MAGIC_SELECTOR)
        prefix = str(tmp_path / "hm_")
        run_json(
            capsys, "compress", "--strategy", "both",
            "--map", fixtures["x"], "--global", fixtures["xg"], "--params", str(selw),
            "--q", fixtures["q"], "--heatmap-prefix", prefix,
        )
        assert (tmp_path / "hm_vision.pgm").read_text().startswith("P2\n16 16\n255\n")
        assert (tmp_path / "hm_text.pgm").exists()

    def test_missing_file_exit_code(self, fixtures, capsys):
        code, _, err = run(
            capsys, "compress", "--strategy", "heuristic",
            "--map", "/nonexistent.fmap", "--global", fixtures["xg"],
        )
        assert code == 3
        assert json.loads(err)["error"] == "file-not-found"

    def test_wrong_magic_exit_code(self, fixtures, capsys):
        # ATTN file where an FMAP is expected
        code, _, err = run(
            capsys, "compress", "--strategy", "heuristic",
            "--map", fixtures["q"], "--global", fixtures["xg"],
        )
        assert code == 4
        assert json.loads(err)["error"] == "format-error"


class TestGlobalGridConvertedOnce:
    """The CLI hands the samplers the global grid it read; they convert it once."""

    @pytest.fixture()
    def grid_calls(self, tmp_path, capsys, monkeypatch):
        paths = run_json(capsys, "gen", "--out", str(tmp_path / "fix"), "--seed", "3")["paths"]
        calls = []
        as_tensor = vision.as_tensor

        def counted(values):
            if np.shape(values) in {(6, 6, 8), (36, 8)}:
                calls.append(np.shape(values))
            return as_tensor(values)

        monkeypatch.setattr(vision, "as_tensor", counted)
        return paths, calls

    @pytest.mark.parametrize("strategy", ["vision", "heuristic"])
    def test_compress(self, strategy, grid_calls, capsys):
        paths, calls = grid_calls
        run_json(capsys, "compress", "--strategy", strategy, "--map", paths["x"],
                 "--global", paths["xg"])
        assert calls == [(6, 6, 8)]

    def test_train(self, grid_calls, capsys):
        paths, calls = grid_calls
        run_json(capsys, "train", "--map", paths["x"], "--map", paths["x"],
                 "--global", paths["xg"], "--steps", "1")
        assert calls == [(6, 6, 8)] * 2


class TestTrain:
    def test_zero_learning_rate_writes_init_params(self, tmp_path, capsys):
        out = tmp_path / "sel.selw"
        summary = run_json(
            capsys, "train", "--task", "scale-indifferent", "--steps", "3",
            "--lr", "0", "--seed", "4", "--out-params", str(out),
        )
        written, _ = read_tensor(out)
        expected = params_to_array(init_selector_params(3, 36, seed=4))
        np.testing.assert_allclose(written, expected, atol=1e-7)  # disk is f32
        assert np.isfinite(summary["finalLoss"])

    def test_collapse_flagged_in_log(self, tmp_path, capsys):
        log = tmp_path / "log.json"
        summary = run_json(
            capsys, "train", "--task", "scale-indifferent", "--steps", "50",
            "--alpha", "0", "--seed", "0", "--log", str(log),
        )
        assert summary["collapsed"] is True
        payload = json.loads(log.read_text())
        assert payload["collapsed"] is True
        assert len(payload["history"]) == 50
        assert max(payload["finalF"]) == 1.0

    def test_parameters_beyond_float32_not_written(self, tmp_path, capsys):
        # alpha 1e300 trains finite parameters near 1e297, which float32 holds only as inf
        out = tmp_path / "p.selw"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would add a line to stderr
            code, stdout, err = run(
                capsys, "train", "--task", "scale-indifferent", "--steps", "5",
                "--alpha", "1e300", "--out-params", str(out),
            )
        assert (code, stdout, err.count("\n")) == (5, "", 1)
        assert "float32" in json.loads(err)["message"]
        assert not out.exists()

    def test_resume_continues_history(self, tmp_path, capsys):
        p1 = tmp_path / "p1.selw"
        p2 = tmp_path / "p2.selw"
        pf = tmp_path / "pf.selw"
        run_json(capsys, "train", "--task", "scale-indifferent", "--steps", "10",
                 "--seed", "0", "--out-params", str(p1))
        run_json(capsys, "train", "--task", "scale-indifferent", "--steps", "10",
                 "--seed", "0", "--resume", str(p1), "--out-params", str(p2))
        run_json(capsys, "train", "--task", "scale-indifferent", "--steps", "20",
                 "--seed", "0", "--out-params", str(pf))
        resumed, _ = read_tensor(p2)
        full, _ = read_tensor(pf)
        np.testing.assert_allclose(resumed, full, atol=1e-6)  # params pass through f32 disk


class TestTrainLog:
    @pytest.mark.parametrize("steps", [1, 500])
    @pytest.mark.parametrize("menu", ["3branch", "7branch"])
    def test_writer_matches_json_dumps_indent_2(self, steps, menu):
        build = {"3branch": default_menu, "7branch": seven_branch_menu}[menu]
        dataset, downstream = make_scale_indifferent_task(1)
        run = train_selector(dataset, TrainConfig(steps=steps, learning_rate=0.02),
                             menu=build(), downstream=downstream)
        summary = {"steps": steps, "learningRate": 0.02, "finalLoss": float(run.losses[-1]),
                   "finalF": run.final_f.tolist(), "collapsed": run.collapsed}
        log = dict(summary)
        log["history"] = [
            {"step": i, "loss": loss, "f": f, "p": p}
            for i, (loss, f, p) in enumerate(
                zip(run.losses.tolist(), run.f_history.tolist(), run.p_history.tolist())
            )
        ]
        assert _train_log(summary, run) == json.dumps(log, indent=2) + "\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["loss", "f", "p"])
    def test_non_finite_value_raises_what_report_to_json_raises(self, column, value):
        run = SimpleNamespace(losses=np.full(3, 0.25), f_history=np.full((3, 2), 0.5),
                              p_history=np.full((3, 2), 0.5))
        {"loss": run.losses, "f": run.f_history[:, 1], "p": run.p_history[:, 0]}[column][1] = value
        summary = {"steps": 3, "collapsed": False}
        log = dict(summary, history=[
            {"step": i, "loss": loss, "f": f, "p": p}
            for i, (loss, f, p) in enumerate(
                zip(run.losses.tolist(), run.f_history.tolist(), run.p_history.tolist())
            )
        ])
        with pytest.raises(ValueError) as want:
            report_to_json(log)
        with pytest.raises(ValueError) as got:
            _train_log(summary, run)
        assert str(got.value) == str(want.value)


# Values whose reprs are easy to mix up: signed zeros, subnormals, exponent forms.
AWKWARD_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 1e16, 1e-05, -2.5e-300, 0.1]
)


@st.composite
def train_histories(draw):
    """A ``(steps, 1 + 2S)`` table of loss, f and p columns, drawn from a small pool
    so that values repeat within and across the columns."""
    s = draw(st.sampled_from([1, 2, 3, 7]))
    steps = draw(st.sampled_from([1, 2, 37]))
    pool = draw(st.lists(AWKWARD_FLOATS | st.floats(allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=6))
    return draw(arrays(np.float64, (steps, 1 + 2 * s), elements=st.sampled_from(pool)))


class TestTrainLogFuzzed:
    @given(table=train_histories())
    @example(table=np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]]))
    @example(table=np.full((37, 15), 0.1))
    @settings(max_examples=200, deadline=None)
    def test_writer_matches_json_dumps_indent_2(self, table):
        self._check(table)

    @staticmethod
    def _check(table):
        s = (table.shape[1] - 1) // 2
        run = SimpleNamespace(losses=table[:, 0], f_history=table[:, 1 : 1 + s],
                              p_history=table[:, 1 + s :])
        summary = {"steps": len(table), "finalLoss": float(table[-1, 0]), "collapsed": False}
        log = dict(summary)
        log["history"] = [{"step": i, "loss": row[0], "f": row[1 : 1 + s], "p": row[1 + s :]}
                          for i, row in enumerate(table.tolist())]
        assert _train_log(summary, run) == json.dumps(log, indent=2) + "\n"


@pytest.fixture(scope="class")
def _without_kernel():
    """The class's tests with the compiled kernel forced off, so ``_train_log``
    formats its values with ``repr``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric, "_product_kernel", lambda: None)
        yield


@pytest.mark.usefixtures("_without_kernel")
class TestTrainLogWithoutKernel(TestTrainLog):
    """TestTrainLog's cases on the ``repr`` backend."""


@pytest.mark.usefixtures("_without_kernel")
class TestTrainLogFuzzedWithoutKernel(TestTrainLogFuzzed):
    """TestTrainLogFuzzed's cases on the ``repr`` backend."""

    # Hypothesis needs a test function of this class's own.
    @given(table=train_histories())
    @example(table=np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]]))
    @example(table=np.full((37, 15), 0.1))
    @settings(max_examples=200, deadline=None)
    def test_writer_matches_json_dumps_indent_2(self, table):
        self._check(table)


class TestGradcheck:
    def test_default_instances_pass(self, capsys):
        result = run_json(capsys, "gradcheck", "--instances", "5")
        assert result["passed"] is True
        assert result["worstRelError"] <= 1e-4

    @pytest.fixture
    def corrupted(self, monkeypatch):
        # perturb the analytic gradient the CLI sees to exercise its failure path
        import dataclasses

        import vtcompress.cli as cli

        real = cli.gradient_check

        def corrupted(*args, **kwargs):
            chk = real(*args, **kwargs)
            analytic = chk.analytic.copy()
            analytic[0] += max(1.0, float(np.abs(analytic).max())) * 1e-2
            denom = max(np.linalg.norm(analytic), np.linalg.norm(chk.numeric), 1e-12)
            rel = float(np.linalg.norm(analytic - chk.numeric) / denom)
            return dataclasses.replace(chk, rel_error=rel, analytic=analytic)

        monkeypatch.setattr(cli, "gradient_check", corrupted)

    def test_corrupt_flag_exercises_failure(self, capsys, corrupted):
        code, out, _ = run(capsys, "gradcheck", "--instances", "2")
        assert code == 7
        assert json.loads(out)["passed"] is False

    def test_failure_follows_the_error_contract(self, capsys, corrupted):
        code, out, err = run(capsys, "gradcheck", "--instances", "2")
        assert_contract(code, out, err)
        assert json.loads(err)["error"] == "gradcheck-failed"
        assert json.loads(out)["passed"] is False

    @pytest.mark.parametrize("flags", [("--menu", "7branch"), ("--window", "8")],
                             ids=["7branch", "window-8"])
    def test_instances_match_menu_and_window(self, flags, capsys):
        result = run_json(capsys, "gradcheck", "--instances", "3", *flags)
        assert result["passed"] is True

    @pytest.mark.parametrize("alpha", ["1e200", "1e308"])
    def test_huge_alpha_prints_one_json_document(self, alpha, capsys):
        # the norms of gradients near 1e200 must not overflow or warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "gradcheck", "--instances", "1", "--alpha", alpha)
        assert (code, err) == (0, "")
        assert json.loads(out)["passed"] is True

    def test_tie_adjacent_instances_skipped_with_notice(self, capsys):
        code, out, err = run(
            capsys, "gradcheck", "--instances", "1", "--margin", "1e9",
        )
        assert code == 5
        assert "tie-adjacent" in out
        assert "tie-free" in json.loads(err)["message"]


class TestEvolution:
    def _write_stack(self, path, layers=3, n=16):
        from vtcompress.formats import MAGIC_ATTENTION

        rng = np.random.default_rng(1)
        stack = rng.random((layers, 2, 3, n)).astype(np.float32).astype(np.float64)
        write_tensor(path, stack, "ATTN")

    def test_one_file_per_layer(self, tmp_path, capsys):
        attn = tmp_path / "stack.attn"
        self._write_stack(attn, layers=4)
        result = run_json(capsys, "evolution", "--attn", str(attn),
                          "--out-dir", str(tmp_path / "evo"))
        assert result["layers"] == 4
        assert len(result["files"]) == 4
        for f in result["files"]:
            assert open(f).read().startswith("P2\n4 4\n255\n")

    def test_single_layer(self, tmp_path, capsys):
        attn = tmp_path / "stack.attn"
        self._write_stack(attn, layers=1)
        result = run_json(capsys, "evolution", "--attn", str(attn),
                          "--out-dir", str(tmp_path / "evo"))
        assert result["layers"] == 1

    def test_csv_layers_are_export_heatmap_csv(self, tmp_path, capsys):
        attn = tmp_path / "stack.attn"
        self._write_stack(attn, layers=3, n=16)
        result = run_json(capsys, "evolution", "--attn", str(attn), "--out-dir",
                          str(tmp_path / "evo"), "--grid", "2x8", "--format", "csv")
        maps = per_layer_importance(read_tensor(attn)[0])
        assert result["files"] == [str(tmp_path / "evo" / f"layer_{i:02d}.csv") for i in range(3)]
        for layer, path in enumerate(result["files"]):
            want = tmp_path / "want.csv"
            export_heatmap(maps[layer].reshape(2, 8), "csv", want)
            assert Path(path).read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("grid", ["4x4x4", "4", "x", "-4x-4", "0x16", "4x"])
    def test_malformed_grid_named(self, grid, tmp_path, capsys):
        attn = tmp_path / "stack.attn"
        self._write_stack(attn, n=16)
        out_dir = tmp_path / "evo"
        code, out, err = run(capsys, "evolution", "--attn", str(attn),
                             "--out-dir", str(out_dir), f"--grid={grid}")
        assert code == 5
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert payload["message"] == f"--grid must be HxW with positive integers, got {grid!r}"
        assert not out_dir.exists()

    def test_layer_count_mismatch_error(self, tmp_path, fixtures, capsys):
        code, _, err = run(capsys, "evolution", "--attn", fixtures["q"],
                           "--out-dir", str(tmp_path / "evo"))
        assert code == 5
        assert "4-d" in json.loads(err)["message"]


class TestReportCommand:
    def test_what_if_layer(self, fixtures, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        run(capsys, "compress", "--strategy", "text", "--map", fixtures["x"],
            "--q", fixtures["q"], "--k", fixtures["k"], "--out", str(rep))
        base = json.loads(rep.read_text())
        what_if = run_json(capsys, "report", "--in", str(rep), "--layer", "16")
        k = base["textSelection"]["k"]
        m = base["afterVision"]
        assert what_if["effectiveTokens"] == effective_token_count(m, m - k, 16, 32)
        assert what_if["textSelection"]["layer"] == 16

    @pytest.mark.parametrize("strategy", ["vision", "text", "both", "heuristic"])
    def test_report_in_keeps_what_compress_wrote(self, strategy, fixtures, tmp_path, capsys):
        """Both commands account through one function: re-profiling a fresh report
        under its own layers changes nothing but adds the percentage."""
        rep = tmp_path / "rep.json"
        inputs = {"vision": ("--global", fixtures["xg"]),
                  "text": ("--q", fixtures["q"], "--k", fixtures["k"]),
                  "both": ("--global", fixtures["xg"], "--q", fixtures["q"]),
                  "heuristic": ("--global", fixtures["xg"])}
        code, _, err = run(capsys, "compress", "--strategy", strategy, "--map", fixtures["x"],
                           *inputs[strategy], "--out", str(rep))
        assert code == 0, err
        written = json.loads(rep.read_text())
        again = run_json(capsys, "report", "--in", str(rep))
        percent = 100.0 * written["effectiveTokens"] / written["inputTokens"]
        assert again == {**written, "effectivePercent": percent}

    def test_layer_without_text_selection_rejected(self, fixtures, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        run(capsys, "compress", "--strategy", "heuristic", "--map", fixtures["x"],
            "--global", fixtures["xg"], "--out", str(rep))
        code, _, err = run(capsys, "report", "--in", str(rep), "--layer", "16")
        assert code == 5


class TestConfigFile:
    def test_config_provides_defaults_and_flags_win(self, fixtures, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 0.5, "layer": 12}))
        report = run_json(
            capsys, "--config", str(cfg), "compress", "--strategy", "text",
            "--map", fixtures["x"], "--q", fixtures["q"], "--k", fixtures["k"],
        )
        assert report["textSelection"]["gamma"] == 0.5
        assert report["textSelection"]["layer"] == 12

        report = run_json(
            capsys, "--config", str(cfg), "compress", "--strategy", "text",
            "--map", fixtures["x"], "--q", fixtures["q"], "--k", fixtures["k"],
            "--gamma", "0.7",
        )
        assert report["textSelection"]["gamma"] == 0.7
        assert report["textSelection"]["layer"] == 12

    def test_config_values_convert_like_flags(self, fixtures, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map": fixtures["x"], "global_map": fixtures["xg"],
                                   "steps": "2", "lr": 1}))
        summary = run_json(capsys, "--config", str(cfg), "train")
        assert summary["steps"] == 2
        assert summary["learningRate"] == 1.0

    def test_flag_names_are_keys(self, fixtures, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"global": fixtures["xg"], "keep-fraction": 0.4,
                                   "total-layers": 16}))
        report = run_json(capsys, "--config", str(cfg), "compress", "--strategy", "heuristic",
                          "--map", fixtures["x"])
        assert report["heuristicSelection"]["kept"] == math.ceil(0.4 * 256)
        assert report["totalLayers"] == 16

    def test_unknown_config_key_rejected(self, fixtures, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not-a-flag": 1}))
        code, _, err = run(
            capsys, "--config", str(cfg), "compress", "--strategy", "heuristic",
            "--map", fixtures["x"], "--global", fixtures["xg"],
        )
        assert code == 5

    def test_help_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"help": "x"}))
        code, out, err = run(capsys, "--config", str(cfg), "gradcheck", "--instances", "1")
        assert (code, out) == (5, "")
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert "'help'" in payload["message"]

    def test_config_after_subcommand_is_usage_error(self, tmp_path, capsys, monkeypatch):
        from vtcompress import cli

        opened = []
        monkeypatch.setattr(cli, "_read_json", opened.append)
        missing = tmp_path / "missing.json"
        code, out, err = run(capsys, "gradcheck", "--instances", "1", "--config", str(missing))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "usage"
        assert opened == []

    @pytest.mark.parametrize("config", [None, '{"instances": "x"}', '{"nope": 1}', "[1"],
                             ids=["missing", "bad-value", "unknown-key", "bad-json"])
    def test_usage_error_wins_over_bad_config(self, config, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        if config is not None:
            cfg.write_text(config)
        code, out, err = run(capsys, "--config", str(cfg), "gradcheck", "--instances", "y")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("config_maps, flag_maps", [((0, 1), (2,)), ((), (0, 2))],
                             ids=["config-and-flags", "flags-only"])
    def test_config_maps_come_before_command_line_maps(self, config_maps, flag_maps, fixtures,
                                                       tmp_path, capsys, monkeypatch):
        from vtcompress import cli

        maps = [tmp_path / f"{name}.fmap" for name in "abc"]
        for path in maps:
            path.write_bytes(Path(fixtures["x"]).read_bytes())
        config = {"global": fixtures["xg"]}
        if config_maps:
            config["map"] = [str(maps[i]) for i in config_maps]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        read = []
        real_read = cli._read_checked

        def recording_read(path, magic):
            read.append(path)
            return real_read(path, magic)

        monkeypatch.setattr(cli, "_read_checked", recording_read)
        flags = [arg for i in flag_maps for arg in ("--map", str(maps[i]))]
        run_json(capsys, "--config", str(cfg), "train", "--steps", "1", *flags)
        assert read == [fixtures["xg"], *(str(maps[i]) for i in config_maps + flag_maps)]

    def test_missing_config_map_fails_beside_command_line_maps(self, fixtures, tmp_path,
                                                               capsys):
        missing = tmp_path / "missing.fmap"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map": str(missing), "global": fixtures["xg"]}))
        code, out, err = run(capsys, "--config", str(cfg), "train", "--steps", "1",
                             "--map", fixtures["x"])
        assert (code, out) == (3, "")
        payload = json.loads(err)
        assert payload["error"] == "file-not-found"
        assert str(missing) in payload["message"]


class TestCachedParser:
    """The parser is shared by every call in a process; ``--config`` must not leak."""

    def _text(self, fixtures, capsys, *config, flags=()):
        return run(capsys, *config, "compress", "--strategy", "text", "--map", fixtures["x"],
                   "--q", fixtures["q"], "--k", fixtures["k"], *flags)

    def test_config_applies_to_its_own_call_only(self, fixtures, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 0.5}))
        _, out, _ = self._text(fixtures, capsys, "--config", str(cfg))
        assert json.loads(out)["textSelection"]["gamma"] == 0.5
        _, out, _ = self._text(fixtures, capsys)
        assert json.loads(out)["textSelection"]["gamma"] == 0.85

    @pytest.mark.parametrize("overrides, extra, exit_code", [
        ({"gamma": 0.5, "layer": "x"}, (), 5),  # the config is rejected
        ({"gamma": 0.5, "layer": 12}, ("--layer", "x"), 2),  # the command line is rejected
    ])
    def test_failed_call_leaves_no_defaults(self, overrides, extra, exit_code, fixtures,
                                            tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        code, _, _ = self._text(fixtures, capsys, "--config", str(cfg), flags=extra)
        assert code == exit_code
        _, out, _ = self._text(fixtures, capsys)
        selection = json.loads(out)["textSelection"]
        assert (selection["gamma"], selection["layer"]) == (0.85, 8)

    def test_later_calls_build_no_parser(self, fixtures, tmp_path, capsys, monkeypatch):
        import argparse

        self._text(fixtures, capsys)
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 0.5}))
        assert self._text(fixtures, capsys, "--config", str(cfg))[0] == 0
        assert self._text(fixtures, capsys)[0] == 0
        assert run(capsys, "train", "--steps", "x")[0] == 2
        assert built == []

    def test_concurrent_calls_keep_their_own_config(self, fixtures, tmp_path, capsys):
        self._text(fixtures, capsys)  # loads the product kernel before the threads start
        settings = [(0.5, 12), (0.7, 20)]
        results = [[] for _ in settings]
        barrier = threading.Barrier(len(settings))

        def worker(i):
            gamma, layer = settings[i]
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps({"gamma": gamma, "layer": layer}))
            out = tmp_path / f"rep{i}.json"
            barrier.wait()
            for _ in range(40):
                code = main(["--config", str(cfg), "compress", "--strategy", "text",
                             "--map", fixtures["x"], "--q", fixtures["q"],
                             "--k", fixtures["k"], "--out", str(out)])
                selection = json.loads(out.read_text())["textSelection"]
                results[i].append((code, selection["gamma"], selection["layer"]))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(settings))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for (gamma, layer), result in zip(settings, results):
            assert result == [(0, gamma, layer)] * 40

    @pytest.mark.parametrize("overrides, extra, exit_code", [
        ({"gamma": 0.5, "layer": 12}, (), 0),
        ({"gamma": 0.5, "layer": "x"}, (), 5),  # the config is rejected
        ({"gamma": 0.5, "layer": 12}, ("--layer", "x"), 2),  # the command line is rejected
    ])
    def test_config_call_leaves_parser_defaults_untouched(self, overrides, extra, exit_code,
                                                          fixtures, tmp_path, capsys):
        parser, commands = build_parser()
        actions = [a for p in (parser, *commands.values()) for a in p._actions]
        before = [action.default for action in actions]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        code, _, _ = self._text(fixtures, capsys, "--config", str(cfg), flags=extra)
        assert code == exit_code
        assert all(action.default is default for action, default in zip(actions, before))


def test_command_line_parsed_by_one_parser():
    """``cli.py`` builds one ``_Parser`` (argparse makes the subcommand parsers
    from it) and never pre-parses argv with ``parse_known_args``."""
    from vtcompress import cli

    tree = ast.parse(Path(cli.__file__).read_text(), filename=cli.__file__)
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert sum(isinstance(f, ast.Name) and f.id == "_Parser" for f in calls) == 1
    assert not any(isinstance(f, ast.Attribute) and f.attr == "parse_known_args" for f in calls)


class TestErrorContract:
    """Every failure is one JSON line on stderr and a distinct exit code."""

    def _text_report(self, fixtures, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        code, _, _ = run(capsys, "compress", "--strategy", "text", "--map", fixtures["x"],
                         "--q", fixtures["q"], "--k", fixtures["k"], "--out", str(rep))
        assert code == 0
        return json.loads(rep.read_text())

    @pytest.mark.parametrize("key", ["totalLayers", "afterVision", "inputTokens"])
    def test_report_missing_field(self, key, fixtures, tmp_path, capsys):
        report = self._text_report(fixtures, tmp_path, capsys)
        del report[key]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(report))
        code, _, err = run(capsys, "report", "--in", str(broken), "--layer", "16")
        assert code == 5
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert key in payload["message"]

    def test_report_not_an_object(self, tmp_path, capsys):
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        code, _, err = run(capsys, "report", "--in", str(listed))
        assert code == 5
        assert json.loads(err)["error"] == "invalid-input"

    @pytest.mark.parametrize("argv", [
        ("report", "--in", "{path}"),
        ("--config", "{path}", "gen", "--out", "{out}"),
    ], ids=["report-in", "config"])
    def test_deeply_nested_json(self, argv, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)  # deeper than json.loads can recurse
        argv = [arg.format(path=deep, out=tmp_path / "fix") for arg in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (5, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "invalid-input",
            "message": f"{deep}: JSON nested too deeply to parse",
        }

    def test_directory_input(self, tmp_path, capsys):
        code, _, err = run(capsys, "report", "--in", str(tmp_path))
        assert code == 3
        assert json.loads(err)["error"] == "file-error"

    def test_directory_map(self, fixtures, tmp_path, capsys):
        code, _, err = run(capsys, "compress", "--strategy", "heuristic",
                           "--map", str(tmp_path), "--global", fixtures["xg"])
        assert code == 3
        assert json.loads(err)["error"] == "file-error"

    def test_unwritable_output(self, fixtures, tmp_path, capsys):
        code, _, err = run(capsys, "compress", "--strategy", "heuristic", "--map", fixtures["x"],
                           "--global", fixtures["xg"], "--out", str(tmp_path))
        assert code == 3
        assert json.loads(err)["error"] == "file-error"

    def test_both_rejects_keys(self, fixtures, capsys):
        code, _, err = run(capsys, "compress", "--strategy", "both", "--map", fixtures["x"],
                           "--global", fixtures["xg"], "--q", fixtures["q"],
                           "--k", fixtures["k"])
        assert code == 5
        assert "--k" in json.loads(err)["message"]

    @pytest.mark.parametrize("command", ["compress", "train"])
    def test_odd_window_named(self, command, fixtures, capsys):
        inputs = ("--map", fixtures["x"], "--global", fixtures["xg"])
        code, _, err = run(capsys, command, *inputs, "--window", "5")
        assert code == 5
        assert "window 5" in json.loads(err)["message"]

    @pytest.mark.parametrize("flags, name", [
        (("--alpha", "nan"), "alpha"),
        (("--lr", "nan"), "learning_rate"),
        (("--lr", "inf"), "learning_rate"),
    ])
    def test_non_finite_training_setting_named(self, flags, name, capsys):
        code, _, err = run(capsys, "train", "--task", "scale-indifferent", "--steps", "2", *flags)
        assert code == 5
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert payload["message"].startswith(f"{name} must be a finite number")

    def test_non_finite_imbalance_weights_named(self, capsys):
        code, _, err = run(capsys, "train", "--task", "scale-indifferent", "--steps", "2",
                           "--imbalance", "nan,1,2")
        assert code == 5
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert payload["message"] == "imbalance weights must be finite numbers, got [nan, 1.0, 2.0]"

    def test_target_length_named(self, fixtures, capsys):
        code, _, err = run(capsys, "train", "--map", fixtures["x"], "--global", fixtures["xg"],
                           "--target", "1,2", "--steps", "2")
        assert code == 5
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert "target has 2 values" in payload["message"]
        assert "4 channels" in payload["message"]

    @pytest.mark.parametrize("flag, value, via_config", [
        ("--map", "x", False),
        ("--global", "xg", False),
        ("--target", "1,x", False),
        ("--map", "x", True),
        ("--target", "1,2,3,4", True),
    ], ids=["map", "global", "target", "config-map", "config-target"])
    def test_task_conflicting_flag_named(self, flag, value, via_config, fixtures, tmp_path,
                                         capsys):
        value = fixtures.get(value, value)
        config = ()
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag[2:]: value}))
            config = ("--config", str(cfg))
        flags = () if via_config else (flag, value)
        code, out, err = run(capsys, *config, "train", "--task", "scale-indifferent",
                             "--steps", "2", *flags)
        assert (code, out) == (5, "")
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert payload["message"].startswith(f"{flag} conflicts with --task scale-indifferent")

    @pytest.mark.parametrize("flag, value, message", [
        ("--target", "1,x", "--target must be comma-separated finite numbers, got '1,x'"),
        ("--target", "1,inf,1,1",
         "--target must be comma-separated finite numbers, got '1,inf,1,1'"),
        ("--target", "nan,1,1,1",
         "--target must be comma-separated finite numbers, got 'nan,1,1,1'"),
        ("--imbalance", "1,x,1",
         "--imbalance must be comma-separated finite numbers, got '1,x,1'"),
        ("--imbalance", "", "--imbalance must be comma-separated finite numbers, got ''"),
    ], ids=["target-word", "target-inf", "target-nan", "imbalance-word", "imbalance-empty"])
    def test_number_list_flag_named(self, flag, value, message, fixtures, capsys):
        code, out, err = run(capsys, "train", "--map", fixtures["x"], "--global", fixtures["xg"],
                             "--steps", "2", flag, value)
        assert (code, out) == (5, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "invalid-input", "message": message}

    @pytest.mark.parametrize("flag, value", [
        ("--instances", "0"),
        ("--tolerance", "nan"),
        ("--tolerance", "inf"),
        ("--tolerance", "0"),
        ("--margin", "nan"),
        ("--margin", "inf"),
        ("--margin", "-1"),
    ])
    def test_gradcheck_setting_named(self, flag, value, capsys):
        code, out, err = run(capsys, "gradcheck", flag, value)
        assert code == 5
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert payload["message"].startswith(f"{flag} must be")

    @pytest.mark.parametrize("path, value", [
        (("inputTokens",), "576"),
        (("afterVision",), "x"),
        (("totalLayers",), 32.0),
        (("totalLayers",), True),
        (("effectiveTokens",), "501.75"),
        (("effectiveTokens",), None),
        (("textSelection", "k"), "477"),
        (("textSelection", "layer"), 8.5),
    ])
    def test_report_field_of_wrong_type(self, path, value, fixtures, tmp_path, capsys):
        report = self._text_report(fixtures, tmp_path, capsys)
        holder = report
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(report))
        code, _, err = run(capsys, "report", "--in", str(broken))
        assert code == 5
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert path[-1] in payload["message"]

    @pytest.mark.parametrize("key", ["inputTokens", "afterVision", "effectiveTokens"])
    def test_report_integer_too_large_for_a_float(self, key, fixtures, tmp_path, capsys):
        report = self._text_report(fixtures, tmp_path, capsys)
        assert report["textSelection"] is not None  # afterVision reaches the accounting
        report[key] = 10**400
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(report))
        code, out, err = run(capsys, "report", "--in", str(broken))
        assert code == 5
        assert out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert key in payload["message"]

    @pytest.mark.parametrize("strategy", ["vision", "heuristic"])
    def test_compress_total_layers_below_one(self, strategy, fixtures, capsys):
        code, out, err = run(capsys, "compress", "--strategy", strategy, "--map", fixtures["x"],
                             "--global", fixtures["xg"], "--total-layers", "-3")
        assert code == 5
        assert out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert payload["message"] == "total_layers must be >= 1"

    @pytest.mark.parametrize("strategy, flags", [
        ("heuristic", ("--total-layers", "1" + "0" * 400)),
        ("text", ("--total-layers", "1" + "0" * 401, "--layer", "1" + "0" * 400)),
    ], ids=["total-layers", "layer"])
    def test_compress_writes_only_reports_report_in_accepts(self, strategy, flags, fixtures,
                                                            tmp_path, capsys):
        written = tmp_path / "report.json"
        code, out, err = run(capsys, "compress", "--strategy", strategy, "--map", fixtures["x"],
                             "--global", fixtures["xg"], "--q", fixtures["q"], "--k",
                             fixtures["k"], *flags, "--out", str(written))
        if code == 0:  # then the report must read back
            code, out, err = run(capsys, "report", "--in", str(written))
            assert code == 0, err
            return
        assert code == 5
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "invalid-input"
        assert not written.exists()

    @pytest.mark.parametrize("flags", [("--total-layers", "-3"), ("--total-layers", "0"), ()],
                             ids=["flag-negative", "flag-zero", "file-negative"])
    def test_report_total_layers_below_one(self, flags, fixtures, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        code, _, _ = run(capsys, "compress", "--strategy", "vision", "--map", fixtures["x"],
                         "--global", fixtures["xg"], "--out", str(rep))
        assert code == 0
        if not flags:  # the file's own totalLayers
            rep.write_text(json.dumps({**json.loads(rep.read_text()), "totalLayers": -3}))
        code, out, err = run(capsys, "report", "--in", str(rep), *flags)
        assert code == 5
        assert out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert payload["message"].startswith("totalLayers must be >= 1")

    @pytest.mark.parametrize("counts, message", [
        ({"inputTokens": 576, "effectiveTokens": 1e307},
         "effective token count exceeds the input token count"),
        ({"inputTokens": 576, "effectiveTokens": 577},
         "effective token count exceeds the input token count"),
        ({"inputTokens": 10**307, "effectiveTokens": 1e307},  # 100 * 1e307 overflows
         "effectivePercent overflows a float: the token counts are too large"),
        ({"inputTokens": 576, "effectiveTokens": -1e307},
         "effectivePercent overflows a float: the token counts are too large"),
    ], ids=["float-over-input", "int-over-input", "percent-overflows",
            "negative-percent-overflows"])
    def test_report_effective_tokens_checked(self, counts, message, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({"reportVersion": 1, "afterVision": 576, "totalLayers": 32,
                                   "textSelection": None, **counts}))
        code, out, err = run(capsys, "report", "--in", str(rep))
        assert code == 5
        assert out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert payload["message"] == message

    @pytest.mark.parametrize("counts", [
        {"inputTokens": -10, "afterVision": -10, "effectiveTokens": -20},
        {"inputTokens": 576, "afterVision": 900, "effectiveTokens": -5},
        {"inputTokens": 576, "afterVision": 100, "effectiveTokens": 400},
        {"inputTokens": 576, "afterVision": 900, "effectiveTokens": 500,
         "textSelection": {"k": 300, "layer": 8}},
    ], ids=["negative", "vision-over-input", "effective-not-after-vision",
            "text-vision-over-input"])
    def test_report_counts_build_report_never_writes(self, counts, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({"reportVersion": 1, "totalLayers": 32,
                                   "textSelection": None, **counts}))
        code, out, err = run(capsys, "report", "--in", str(rep))
        assert code == 5
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "invalid-input"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["window", "meanProbs", "textSelection.gamma"])
    def test_report_non_finite_pass_through_refused(self, field, value, fixtures, tmp_path,
                                                    capsys):
        """``report --in`` copies fields it does not account; a non-finite one
        would make the output invalid JSON, so it exits 5 and writes nothing."""
        report = self._text_report(fixtures, tmp_path, capsys)
        if field == "meanProbs":
            report[field] = [value, 1, 2]
        elif field == "textSelection.gamma":
            report["textSelection"]["gamma"] = value
        else:
            report[field] = value
        rep = tmp_path / "nan.json"
        rep.write_text(json.dumps(report))  # json writes NaN, Infinity and -Infinity
        out_file = tmp_path / "out.json"
        for sink in ("-", str(out_file)):
            code, out, err = run(capsys, "report", "--in", str(rep), "--out", sink)
            assert (code, out) == (5, "")
            assert len(err.splitlines()) == 1
            assert json.loads(err)["error"] == "invalid-input"
        assert not out_file.exists()

    @pytest.mark.parametrize("overrides", [
        {"steps": 2.5},
        {"steps": [1]},
        {"steps": True},
        {"steps": None},
        {"lr": "fast"},
        {"menu": "9branch"},
        {"map": {"path": "x.fmap"}},
    ])
    def test_config_value_of_wrong_type(self, overrides, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        code, _, err = run(capsys, "--config", str(cfg), "train", "--task", "scale-indifferent")
        assert code == 5
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert next(iter(overrides)) in payload["message"]

    @pytest.mark.parametrize("argv", [
        ("compress", "--strategy", "vision"),  # no --map
        ("train", "--steps", "x"),
        ("--config",),
        (),
        ("nope",),
        ("report", "--in", "r.json", "--bogus"),
        ("compress", "--map", "x.fmap", "--strategy", "all"),
        ("--conf", "c.json", "gen", "--out", "g"),  # no abbreviated --config
    ])
    def test_usage_error(self, argv, capsys):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "usage"

    def test_abbreviated_flag_after_subcommand_reaches_it(self, tmp_path, capsys):
        # gen's --channels, not the top-level --config
        run_json(capsys, "gen", "--out", str(tmp_path / "g"), "--c", "4")
        tensor, magic = read_tensor(tmp_path / "g" / "x.fmap")
        assert magic == MAGIC_FEATURE_MAP
        assert tensor.shape[2] == 4

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compress", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: vtcompress compress")


# Integers that no float holds; the token accounting must refuse them.
HUGE = st.sampled_from([2**1024, -(2**1024), 10**400])
# Strings hold no "/", so a fuzzed output path stays in the working directory.
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | HUGE | st.floats()
                | st.text(st.characters(blacklist_characters="/"), max_size=8))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)
# Integers half the time, so that whole reports often reach the token accounting.
COUNTS = st.integers(-2, 600) | st.integers(0, 10**6) | HUGE | JSON_SCALARS
REPORTS = st.fixed_dictionaries(
    {
        "reportVersion": st.just(1),
        "inputTokens": COUNTS,
        "afterVision": COUNTS,
        "totalLayers": COUNTS,
        "effectiveTokens": COUNTS,
    },
    optional={
        "textSelection": st.none() | JSON_VALUES
        | st.fixed_dictionaries({"k": COUNTS, "layer": COUNTS}),
    },
)


@st.composite
def written_reports(draw):
    """Counts ``build_report`` could write, then maybe one of them replaced, so that
    reports the accounting accepts are common and near misses too."""
    inputs = draw(st.integers(0, 600))
    after = draw(st.integers(0, inputs))
    total = draw(st.integers(1, 40))
    report = {"reportVersion": 1, "inputTokens": inputs, "afterVision": after,
              "totalLayers": total, "effectiveTokens": after, "textSelection": None}
    if draw(st.booleans()):
        report["textSelection"] = {"k": draw(st.integers(0, after)),
                                   "layer": draw(st.integers(0, total - 1))}
    key = draw(st.sampled_from([None, "inputTokens", "afterVision", "effectiveTokens"]))
    if key is not None:
        report[key] = draw(st.integers(-2, 700))
    return report


COMPRESS_KEYS = st.sampled_from([
    "strategy", "window", "menu", "pool", "gamma", "layer", "total-layers", "keep_fraction",
    "seed", "out", "heatmap-prefix", "params", "q", "k", "global", "map",
])
CONFIGS = st.dictionaries(
    COMPRESS_KEYS | st.text(max_size=8),
    JSON_VALUES | st.integers(-2, 40) | st.floats(0.0, 1.0)
    | st.sampled_from(["vision", "text", "both", "heuristic", "7branch", "max", "-"]),
    max_size=4,
) | JSON_VALUES
LAYER_FLAGS = st.none() | st.integers(-2, 40) | HUGE


def assert_contract(code, out, err):
    """Success writes nothing to stderr; a failure exits 2-7 with one JSON line there."""
    if code == 0:
        assert err == ""
    else:
        assert 2 <= code <= 7, (code, err)
        assert len(err.splitlines()) == 1, err
        assert set(json.loads(err)) == {"error", "message"}


class TestFuzzedInputs:
    """Random JSON reports and config files end in the error contract, never a traceback."""

    @given(report=REPORTS | written_reports() | JSON_VALUES, layer=LAYER_FLAGS,
           total_layers=LAYER_FLAGS)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_report_in(self, report, layer, total_layers, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        flags = []
        for flag, value in (("--layer", layer), ("--total-layers", total_layers)):
            if value is not None:
                flags += [flag, str(value)]
        assert_contract(*run(capsys, "report", "--in", str(path), *flags))

    @given(report=REPORTS | written_reports(), layer=LAYER_FLAGS, total_layers=LAYER_FLAGS)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_accepted_reports_are_ones_build_report_could_write(self, report, layer,
                                                                total_layers, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        flags = []
        for flag, value in (("--layer", layer), ("--total-layers", total_layers)):
            if value is not None:
                flags += [flag, str(value)]
        code, out, _ = run(capsys, "report", "--in", str(path), *flags)
        if code != 0:
            return
        accepted = json.loads(out)
        assert 0 <= accepted["afterVision"] <= accepted["inputTokens"]
        if accepted.get("textSelection") is None:
            assert accepted["effectiveTokens"] == accepted["afterVision"]
        else:
            assert accepted["effectiveTokens"] <= accepted["afterVision"]

    @given(config=CONFIGS)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_config(self, config, fixtures, tmp_path, capsys, monkeypatch):
        work = tmp_path / "work"
        work.mkdir(exist_ok=True)
        monkeypatch.chdir(work)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert_contract(*run(capsys, "--config", str(path), "compress", "--map", fixtures["x"],
                             "--global", fixtures["xg"], "--q", fixtures["q"]))
