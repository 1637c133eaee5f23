"""Self-test of the benchmark harness.

    python3 -m pytest benchmarks

Checks that the closed-loop client counts a corrupted output and a nonzero
exit as failed operations, that yardstick normalization rescales each
operation by the yardstick runs around it, that the traced layer self times
add up to the operation's wall time, and that the workload and metric tables
match BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from harness import Loop, tail  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import Tracer, self_times_ns  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from yardstick import normalize  # noqa: E402


class FaultyProgram:
    """Stands in for ``cli.main``: writes ``a.txt``, and fails on chosen calls."""

    def __init__(self, out: Path, corrupt_on: int, exit_on: int):
        self.out, self.corrupt_on, self.exit_on = out, corrupt_on, exit_on
        self.calls = 0

    def __call__(self, argv: list[str]) -> int:
        self.calls += 1
        if self.calls == self.exit_on:
            print(json.dumps({"error": "invalid-input", "message": "injected"}), file=sys.stderr)
            return 5
        text = "corrupted\n" if self.calls == self.corrupt_on else "expected\n"
        (self.out / "a.txt").write_text(text)
        return 0


def _check(out: Path) -> dict:
    return {"text": (out / "a.txt").read_text()}


def test_corrupted_output_and_nonzero_exit_count_as_failures(tmp_path):
    program = FaultyProgram(tmp_path, corrupt_on=3, exit_on=5)
    client = Loop(main=program, calls=[["op"]], out=tmp_path, outputs=("a.txt",), check=_check)
    for _ in range(8):
        client.step()
    assert client.attempted == 8
    assert client.failed == 2
    assert client.failed / client.attempted == 0.25
    assert "outputs differ" in client.failures[0] and "a.txt" in client.failures[0]
    assert client.failures[1].startswith("exit code 5")
    assert client.descriptors == {"text": "expected\n"}


def test_error_line_without_exit_code_is_a_failure(tmp_path):
    def quiet_failure(argv):
        print(json.dumps({"error": "file-not-found", "message": "x"}), file=sys.stderr)
        (tmp_path / "a.txt").write_text("expected\n")
        return 0

    client = Loop(main=quiet_failure, calls=[["op"]], out=tmp_path, outputs=("a.txt",),
                  check=_check)
    client.step()
    assert client.failed == 1 and client.reference is None


def test_missing_output_and_traceback_are_failures(tmp_path):
    def crash(argv):
        raise KeyError("totalLayers")

    client = Loop(main=crash, calls=[["op"]], out=tmp_path, outputs=("a.txt",), check=_check)
    client.step()
    assert client.failed == 1 and "KeyError" in client.failures[0]


def test_tail_has_ten_samples_beyond_it():
    value, label = tail(list(range(100)))
    assert value == 89 and sum(v > value for v in range(100)) == 10
    assert label.startswith("p90.0")
    value, label = tail([3.0, 1.0, 2.0] * 6)
    assert value == 3.0 and label.startswith("max of 18")


def test_normalize_uses_the_yardstick_runs_around_each_operation():
    # the second operation ran while the machine was twice as slow
    assert normalize([10.0, 40.0], [2.0, 2.0, 6.0], 2.0) == [10.0, 20.0]
    with pytest.raises(ValueError):
        normalize([10.0, 40.0], [2.0, 2.0], 2.0)


def test_self_times_add_up_to_the_operation():
    import vtcompress.training as training
    from vtcompress import cli

    tracer = Tracer(cli, training)
    tracer.install()
    try:
        root = len(tracer.spans)
        with tracer.operation():
            code = cli.main(["train", "--task", "scale-indifferent", "--steps", "3"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert cli.train_selector.__module__ == "vtcompress.training"  # originals restored
    names = {span.name for span in tracer.spans}
    assert {"training.train_selector", "training.prepare_batch"} <= names
    prepare = next(s for s in tracer.spans if s.name == "training.prepare_batch")
    assert tracer.spans[prepare.parent].name == "training.train_selector"
    selfs = self_times_ns(tracer.spans, root)
    assert sum(selfs.values()) == tracer.spans[root].duration_ns


def test_workloads_and_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        (name, *rest) for name, rest in END_TO_END.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, *rest) for name, rest in PER_LAYER.items()
    ]
