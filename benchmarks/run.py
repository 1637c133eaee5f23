"""vtcompress benchmark: one workload, closed loop, checked outputs.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Every child process gets BLAS/OpenMP pinned to one thread.

``--trace 0`` measures the end-to-end metrics. Set-up (a fresh interpreter
that imports vtcompress and writes the workload's inputs through
``vtcompress gen``) runs ``SETUP_REPEATS`` times in separate processes. Then
one fresh process runs the workload for ``--seconds`` after a warm-up,
calling ``vtcompress.cli.main`` one operation at a time. The host's speed
drifts by more than the bounds, so every gated time (set-up and operation
latency) is rescaled by a yardstick timed just before and after it (see
``yardstick.py``); ``setup_s`` is the median normalized set-up time. The
wall-clock figures are printed beside them. ``--trace 1`` runs the same loop,
alternating untraced operations with operations traced through spans around
each layer call, and prints the per-layer metrics, which are wall clock.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch files go
under ``.bench_work/`` in the checkout and are removed at the end, except the
span file of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import tail  # noqa: E402
from layers import COMPUTED, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from yardstick import normalize  # noqa: E402

SETUP_REPEATS = 3
# wall time of the set-up yardstick (`python3 -c "import numpy"`) on the
# machine the benchmark was defined on (see yardstick.py)
SETUP_REFERENCE_S = 0.15
DEADLINE_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# name -> (unit, better, bound); the order is that of BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "latency_p50_norm_ms": ("ms", "lower", 0.25),
    "latency_tail_norm_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "success_rate": ("ratio", "higher", 0.1),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(directory).as_posix().encode())
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def child(command: list[str], work: Path, deadline: float) -> float:
    """Run ``command`` in ``work`` and wait for it; returns its wall time in s.

    A timer kills the child at the deadline, so that the parent can block in
    ``wait()``: ``subprocess.run(timeout=...)`` polls in steps of up to 50 ms,
    which would round every set-up time up to that grid.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=work, env=child_env())
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def harness(args: list[str], work: Path, deadline: float) -> float:
    """Run ``harness.py`` in ``work``.

    Paths given to the program are relative to ``work``, so that outputs that
    echo a path (the train summary) do not depend on where the run happens.
    """
    return child([sys.executable, str(HERE / "harness.py"), *args], work, deadline)


def measure(args, work: Path) -> tuple[dict, list[float], list[float], list[str]]:
    """Set up, then run the loop; returns its result and the raw and normalized set-up times.

    Each set-up is normalized by the set-up yardstick, a fresh interpreter
    that only imports numpy, run just before and just after it.
    """
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    reference = [sys.executable, "-c", "import numpy"]
    setup_s = []
    yard_s = [child(reference, work, deadline)]
    digests = []
    for rep in range(1 if args.trace else SETUP_REPEATS):
        setup_s.append(harness(["setup", *common, "--dir", f"inputs{rep}"], work, deadline))
        yard_s.append(child(reference, work, deadline))
        digests.append(tree_digest(work / f"inputs{rep}"))
    setup_norm_s = normalize(setup_s, yard_s, SETUP_REFERENCE_S)
    problems = []
    if len(set(digests)) != 1:
        problems.append("set-up wrote different inputs from the same seed")
    loop_args = ["loop", *common, "--inputs", "inputs0", "--outdir", "out",
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--result", "result.json"]
    if args.trace:
        spans = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        loop_args += ["--spans", str(spans)]
    harness(loop_args, work, deadline)
    result = json.loads((work / "result.json").read_text())
    return result, setup_s, setup_norm_s, problems + result.pop("oracle_failures", [])


def report(args, result: dict, setup_s: list[float], setup_norm_s: list[float],
           problems: list[str]) -> dict:
    env = result["environment"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']}, "
          f"nproc {env['nproc']}, threads {env['threads']}")
    print(f"workload {args.workload} seed {args.seed}: {WORKLOADS[args.workload].why}")
    print(f"descriptors: {json.dumps(result['descriptors'])}")
    print(f"output digest: {result['digest']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"operations: {attempted} attempted, {failed} failed, error_rate {failed / attempted}")
    for failure in result["failures"]:
        print(f"  failed: {failure}")
    for problem in problems:
        print(f"  problem: {problem}")

    latencies = result["latencies_ms"]
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
        print(f"traced ops: {len(result['traced_ms'])}, untraced ops: {len(latencies)}")
    else:
        normalized = result["normalized_ms"]
        tail_ms, label = tail(latencies)
        tail_norm_ms, norm_label = tail(normalized)
        print(f"wall clock (not gated): ops_per_s {len(latencies) / (sum(latencies) / 1e3):.6g} 1/s, "
              f"latency_p50_ms {statistics.median(latencies):.6g}, latency_tail_ms {tail_ms:.6g} "
              f"({label})")
        print(f"yardstick: median {statistics.median(result['yardstick_ms']):.6g} ms a round "
              f"({result['yardstick_rounds']} after each operation) against a reference "
              f"of {result['yardstick_reference_ms']} ms; latency_tail_norm_ms is the {norm_label}")
        values = {
            "setup_s": statistics.median(setup_norm_s),
            "latency_p50_norm_ms": statistics.median(normalized),
            "latency_tail_norm_ms": tail_norm_ms,
            "peak_rss_mb": result["peak_rss_mb"],
            "success_rate": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _, _) in END_TO_END.items()}
        print(f"set-up runs (wall clock): {[round(s, 4) for s in setup_s]} s, "
              f"normalized: {[round(s, 4) for s in setup_norm_s]} s")
    for name, metric in metrics.items():
        note = " (computed, not measured)" if name in COMPUTED else ""
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}{note}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vtcompress" / "cli.py").is_file():
        print(f"no vtcompress sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        summary = report(args, *measure(args, work))
    except subprocess.CalledProcessError as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
