"""Child process of the benchmark: set up a workload's inputs, or run its loop.

    python3 benchmarks/harness.py setup --workload W --seed N --dir INPUTS
    python3 benchmarks/harness.py loop --workload W --seed N --inputs INPUTS \\
        --outdir OUT --seconds S --trace 0|1 --result RESULT.json [--spans SPANS.jsonl]

``setup`` imports vtcompress, writes the workload's inputs through
``vtcompress gen`` and exits; the parent times it from process start to exit. ``loop`` runs the
workload as a closed loop (one client, one operation at a time) through
``vtcompress.cli.main`` and writes its measurements to ``RESULT.json``. With
``--trace 0`` it times the yardstick (``yardstick.py``) before the first
operation and after each one. With ``--trace 1`` it alternates untraced
and traced operations and computes the per-layer metrics. Both expect BLAS thread counts to be pinned in the
environment before the interpreter starts; ``benchmarks/run.py`` does that.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from layers import bounds, op_profile, summarize
from tracing import Tracer
from workloads import WORKLOADS, OutputError, Workload
from yardstick import Yardstick, normalize

WARMUP_SECONDS = 1.0
BOUND_REPEATS = 3
STDOUT_FILE = "stdout.txt"


# ---------------------------------------------------------------- operations


@dataclass
class Op:
    elapsed_ns: int
    failure: str | None
    digests: dict[str, str | None]


def _error_line(stderr: str) -> str | None:
    """The program's JSON error line on stderr, if it printed one."""
    for line in stderr.splitlines():
        try:
            payload = json.loads(line)
        except ValueError:
            continue
        if isinstance(payload, dict) and "error" in payload:
            return f"error line: {line}"
    return None


def run_op(main: Callable[[list[str]], int], calls, out: Path, outputs, span=nullcontext) -> Op:
    """Run one operation's CLI calls in order and hash every file it wrote.

    Only the calls are timed, inside ``span()`` (the tracer's root span in a
    traced run). Outputs are deleted first, so an operation that fails to
    write a file shows as a missing digest. The captured stdout is kept as
    one more output file.
    """
    for name in outputs:
        (out / name).unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    failure = None
    with span():
        start = time.perf_counter_ns()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                for argv in calls:
                    code = main(list(argv))
                    if code != 0:
                        failure = f"exit code {code} from {argv[0]}"
                        break
        except Exception as exc:  # a traceback from the program is one failed operation
            failure = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
    (out / STDOUT_FILE).write_text(stdout.getvalue())
    failure = failure or _error_line(stderr.getvalue())
    digests = {}
    for name in (*outputs, STDOUT_FILE):
        path = out / name
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return Op(elapsed, failure, digests)


@dataclass
class Loop:
    """Closed-loop client: counts attempts and failures, checks every output.

    The first operation that succeeds is checked by the workload's own check
    and becomes the reference; a later operation fails if any output's bytes
    differ from it.
    """

    main: Callable[[list[str]], int]
    calls: list[list[str]]
    out: Path
    outputs: tuple[str, ...]
    check: Callable[[Path], dict]
    attempted: int = 0
    failed: int = 0
    reference: dict | None = None
    descriptors: dict | None = None
    failures: list[str] = field(default_factory=list)

    def step(self, span=nullcontext) -> Op:
        op = run_op(self.main, self.calls, self.out, self.outputs, span)
        if op.failure is None and None in op.digests.values():
            missing = [name for name, digest in op.digests.items() if digest is None]
            op.failure = f"missing outputs {missing}"
        if op.failure is None and self.reference is None:
            try:
                self.descriptors = self.check(self.out)
                self.reference = op.digests
            except (OutputError, ValueError, KeyError, TypeError) as exc:
                op.failure = f"output check: {type(exc).__name__}: {exc}"
        elif op.failure is None and op.digests != self.reference:
            changed = [n for n in op.digests if op.digests[n] != self.reference[n]]
            op.failure = f"outputs differ from the first operation: {changed}"
        self.attempted += 1
        if op.failure is not None:
            self.failed += 1
            self.failures.append(op.failure)
        return op

    @property
    def digest(self) -> str | None:
        if self.reference is None:
            return None
        return hashlib.sha256(json.dumps(self.reference, sort_keys=True).encode()).hexdigest()


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label.

    With n samples that is the (n-10)-th smallest, percentile 100*(n-10)/n.
    Below 20 samples that percentile would not be above the median, so the
    maximum is given instead; the label says which one it is.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max of {n} samples (under 20, so no percentile above p50 has ten beyond it)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} samples"


# --------------------------------------------------------------------- setup


def setup(workload: Workload, seed: int, inp: Path) -> None:
    from vtcompress import cli

    inp.mkdir(parents=True, exist_ok=True)
    if workload.gen is not None:
        with redirect_stdout(io.StringIO()):
            code = cli.main(["gen", "--out", str(inp), "--seed", str(seed), *workload.gen])
        if code != 0:
            raise SystemExit(f"gen failed with exit code {code}")


# ---------------------------------------------------------------------- loop


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def loop(args) -> dict:
    import vtcompress.training as training
    from vtcompress import cli

    workload = WORKLOADS[args.workload]
    args.outdir.mkdir(parents=True, exist_ok=True)
    client = Loop(
        main=cli.main,
        calls=workload.argv(args.inputs, args.outdir, args.seed),
        out=args.outdir,
        outputs=workload.outputs,
        check=workload.check,
    )
    tracer = Tracer(cli, training) if args.trace else None
    # an untraced run times the yardstick before the first operation and after each one
    yardstick = None if tracer else Yardstick()

    warmup_ns = []
    start = time.perf_counter()
    while True:
        warmup_ns.append(client.step().elapsed_ns)
        if yardstick is not None:
            yardstick.measure()
        if time.perf_counter() - start >= WARMUP_SECONDS:
            break
    if yardstick is not None:
        yardstick.fit(statistics.median(warmup_ns) / 1e6)

    untraced: list[int] = []
    traced: list[int] = []
    profiles: list[dict] = []
    yard_ms = [yardstick.measure()] if yardstick is not None else []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or (tracer is not None and not traced):
        if tracer is None or len(untraced) <= len(traced):
            untraced.append(client.step().elapsed_ns)
            if yardstick is not None:
                yard_ms.append(yardstick.measure())
            continue
        tracer.install()
        try:
            root = len(tracer.spans)
            client.step(tracer.operation)
        finally:
            tracer.uninstall()
        traced.append(tracer.spans[root].duration_ns)
        profiles.append(op_profile(tracer, root))

    result = {
        "attempted": client.attempted,
        "failed": client.failed,
        "failures": client.failures[:5],
        "descriptors": client.descriptors,
        "digest": client.digest,
        "environment": environment(),
        "latencies_ms": [ns / 1e6 for ns in untraced],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if yardstick is not None:
        result["yardstick_ms"] = yard_ms
        result["yardstick_reference_ms"] = yardstick.reference_ms
        result["yardstick_rounds"] = yardstick.rounds
        result["normalized_ms"] = normalize(result["latencies_ms"], yard_ms,
                                            yardstick.reference_ms)
    if tracer is not None:
        bound = bounds(tracer.calls, BOUND_REPEATS)
        result["traced_ms"] = [ns / 1e6 for ns in traced]
        overhead = statistics.median(result["traced_ms"]) - statistics.median(result["latencies_ms"])
        result["per_layer"] = summarize(profiles, bound, overhead)
        result["oracle_failures"] = bound["oracle_failures"]
        if args.spans is not None:
            tracer.write(args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    p = sub.add_parser("loop")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", type=Path, required=True)
    p.add_argument("--outdir", type=Path, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    if args.command == "setup":
        setup(WORKLOADS[args.workload], args.seed, args.dir)
        return 0
    args.result.write_text(json.dumps(loop(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
