import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vtcompress.cli import _train_log, main
from vtcompress.formats import MAGIC_FEATURE_MAP, MAGIC_SELECTOR, read_tensor, write_tensor
from vtcompress.report import effective_token_count
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
        s = (table.shape[1] - 1) // 2
        run = SimpleNamespace(losses=table[:, 0], f_history=table[:, 1 : 1 + s],
                              p_history=table[:, 1 + s :])
        summary = {"steps": len(table), "finalLoss": float(table[-1, 0]), "collapsed": False}
        log = dict(summary)
        log["history"] = [{"step": i, "loss": row[0], "f": row[1 : 1 + s], "p": row[1 + s :]}
                          for i, row in enumerate(table.tolist())]
        assert _train_log(summary, run) == json.dumps(log, indent=2) + "\n"


class TestGradcheck:
    def test_default_instances_pass(self, capsys):
        result = run_json(capsys, "gradcheck", "--instances", "5")
        assert result["passed"] is True
        assert result["worstRelError"] <= 1e-4

    def test_corrupt_flag_exercises_failure(self, capsys, monkeypatch):
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
        code, out, _ = run(capsys, "gradcheck", "--instances", "2")
        assert code == 7
        assert json.loads(out)["passed"] is False

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
