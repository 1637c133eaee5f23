"""Per-layer metrics of a traced run, BLAS lower bounds and oracle checks.

Every time below is the median over traced operations of the per-operation
sum. A workload that never calls a layer reports 0 for that layer's times
and counters. FLOP and byte figures are computed from tensor shapes, not
measured. The ``*.bound_ms`` columns time the same products through BLAS
(``np.matmul`` / ``np.einsum(optimize=True)``) on the arguments of the last
traced operation; they are what the hardware could do, and the ratios show
how far the exact k-ordered kernels are from it.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

from tracing import ROOT, Tracer, self_times_ns

# metric -> span names whose durations it sums
SPAN_TIMES = {
    "formats.read_ms": ("formats.read_tensor",),
    "formats.write_ms": ("formats.write_tensor",),
    "formats.heatmap_ms": ("formats.export_heatmap",),
    "vision.compress_ms": ("vision.compress_inference",),
    "vision.heatmap_ms": ("vision.selection_heatmap",),
    "cli.project_keys_ms": ("cli.project_keys",),
    "textsampler.attention_ms": ("textsampler.attention_scores",),
    "textsampler.importance_ms": ("textsampler.importance",),
    "textsampler.topk_ms": ("textsampler.cumulative_topk",),
    "heuristic.importance_ms": ("heuristic.heuristic_importance",),
    "heuristic.topk_ms": ("heuristic.heuristic_topk",),
    "training.prepare_ms": ("training.prepare_batch",),
    "training.train_ms": ("training.train_selector",),
    "report.build_ms": ("report.build_report", "report.report_to_json"),
}
SELF_TIMES = ("formats", "vision", "textsampler", "heuristic", "training", "report")

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = {
    "formats.read_ms": ("ms", "lower"),
    "formats.read_mb": ("MB", "lower"),
    "formats.write_ms": ("ms", "lower"),
    "formats.heatmap_ms": ("ms", "lower"),
    "formats.self_ms": ("ms", "lower"),
    "vision.compress_ms": ("ms", "lower"),
    "vision.flops": ("flop", "lower"),
    "vision.bound_ms": ("ms", "lower"),
    "vision.bound_ratio": ("ratio", "lower"),
    "vision.regions": ("count", "lower"),
    "vision.tokens_out": ("count", "lower"),
    "vision.keep_ratio": ("ratio", "lower"),
    "vision.heatmap_ms": ("ms", "lower"),
    "vision.self_ms": ("ms", "lower"),
    "cli.project_keys_ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "textsampler.attention_ms": ("ms", "lower"),
    "textsampler.importance_ms": ("ms", "lower"),
    "textsampler.topk_ms": ("ms", "lower"),
    "textsampler.attention_mb": ("MB", "lower"),
    "textsampler.flops": ("flop", "lower"),
    "textsampler.bound_ms": ("ms", "lower"),
    "textsampler.bound_ratio": ("ratio", "lower"),
    "textsampler.tokens_in": ("count", "lower"),
    "textsampler.kept": ("count", "lower"),
    "textsampler.keep_ratio": ("ratio", "lower"),
    "textsampler.degenerate": ("count", "lower"),
    "textsampler.self_ms": ("ms", "lower"),
    "heuristic.importance_ms": ("ms", "lower"),
    "heuristic.topk_ms": ("ms", "lower"),
    "heuristic.flops": ("flop", "lower"),
    "heuristic.bound_ms": ("ms", "lower"),
    "heuristic.bound_ratio": ("ratio", "lower"),
    "heuristic.self_ms": ("ms", "lower"),
    "training.prepare_ms": ("ms", "lower"),
    "training.train_ms": ("ms", "lower"),
    "training.step_ms": ("ms", "lower"),
    "training.self_ms": ("ms", "lower"),
    "report.build_ms": ("ms", "lower"),
    "report.bytes": ("B", "lower"),
    "report.self_ms": ("ms", "lower"),
    "trace.op_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}
COMPUTED = ("formats.read_mb", "vision.flops", "textsampler.attention_mb",
            "textsampler.flops", "heuristic.flops")


def _counters(name: str, args: tuple, result) -> dict[str, float]:
    """Work counts of one layer call, from its arguments and result."""
    if name == "formats.read_tensor":
        return {"read_bytes": os.path.getsize(args[0])}
    if name == "vision.compress_inference":
        fmap, glob, params, menu = args[:4]
        h, w, c = fmap.shape
        regions = (h // menu.window) * (w // menu.window)
        ng = glob.shape[0] * (glob.shape[1] if glob.ndim == 3 else 1)
        return {
            "regions": regions,
            "vision_in": h * w,
            "tokens_out": result[0].shape[0],
            "vision_flops": 2 * regions * c * ng + 2 * regions * ng * params.num_scales,
        }
    if name == "textsampler.attention_scores":
        q, k = args
        heads, t, d = q.shape
        return {"attention_bytes": result.nbytes, "text_flops": 2 * heads * t * k.shape[1] * d}
    if name == "textsampler.importance":
        return {"tokens_in": result.size}
    if name == "textsampler.cumulative_topk":
        return {"kept": result.k, "degenerate": int(result.degenerate)}
    if name == "heuristic.heuristic_importance":
        fmap, glob = args
        h, w, c = fmap.shape
        return {"heuristic_flops": 2 * (glob.size // c) * c * h * w}
    if name == "report.report_to_json":
        return {"report_bytes": len(result.encode())}
    if name == "training.train_selector":
        return {"steps": args[1].steps}
    return {}


def op_profile(tracer: Tracer, root: int) -> dict[str, float]:
    """Per-layer values of the traced operation whose root span is ``root``."""
    spans = tracer.spans
    by_name: dict[str, int] = {}
    for span in spans[root + 1:]:
        by_name[span.name] = by_name.get(span.name, 0) + span.duration_ns
    counts: dict[str, float] = {}
    for call in tracer.calls:
        for key, value in _counters(call.name, call.args, call.result).items():
            counts[key] = counts.get(key, 0) + value
    selfs = self_times_ns(spans, root)
    if sum(selfs.values()) != spans[root].duration_ns:
        raise AssertionError("layer self times do not add up to the operation's wall time")

    out = {m: sum(by_name.get(n, 0) for n in names) / 1e6 for m, names in SPAN_TIMES.items()}
    out.update({f"{layer}.self_ms": selfs.get(layer, 0) / 1e6 for layer in SELF_TIMES})
    out["cli.self_ms"] = selfs[ROOT] / 1e6
    out["trace.op_ms"] = spans[root].duration_ns / 1e6
    steps = counts.get("steps", 0)
    out["training.step_ms"] = (
        (out["training.train_ms"] - out["training.prepare_ms"]) / steps if steps else 0.0
    )
    out["formats.read_mb"] = counts.get("read_bytes", 0) / 1e6
    out["vision.flops"] = counts.get("vision_flops", 0)
    out["vision.regions"] = counts.get("regions", 0)
    out["vision.tokens_out"] = counts.get("tokens_out", 0)
    vision_in = counts.get("vision_in", 0)
    out["vision.keep_ratio"] = out["vision.tokens_out"] / vision_in if vision_in else 0.0
    out["textsampler.attention_mb"] = counts.get("attention_bytes", 0) / 1e6
    out["textsampler.flops"] = counts.get("text_flops", 0)
    out["textsampler.tokens_in"] = counts.get("tokens_in", 0)
    out["textsampler.kept"] = counts.get("kept", 0)
    tokens_in = out["textsampler.tokens_in"]
    out["textsampler.keep_ratio"] = out["textsampler.kept"] / tokens_in if tokens_in else 0.0
    out["textsampler.degenerate"] = counts.get("degenerate", 0)
    out["heuristic.flops"] = counts.get("heuristic_flops", 0)
    out["report.bytes"] = counts.get("report_bytes", 0)
    return out


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _timed(fn, repeats: int) -> tuple[float, object]:
    """Median wall time in ms of ``repeats`` calls of ``fn``, and its last result."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        value = fn()
        times.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(times), value


def _close(name: str, got, want, failures: list[str]) -> None:
    if not np.allclose(got, want, rtol=1e-9, atol=1e-12 * float(np.abs(want).max() or 1.0)):
        failures.append(f"{name}: program output differs from the BLAS oracle")


def bounds(calls, repeats: int) -> dict:
    """BLAS lower bounds for the calls of one traced operation, plus oracle checks.

    The program's outputs are checked against the BLAS results with a relative
    tolerance of 1e-9: attention probabilities, heuristic scores, and the
    selector's per-region probabilities and chosen scales.
    """
    total = {"vision": 0.0, "textsampler": 0.0, "heuristic": 0.0}
    failures: list[str] = []
    for call in calls:
        name = call.name
        if name == "vision.compress_inference":
            fmap, glob, params, menu = call.args[:4]
            h, w, c = fmap.shape
            win = menu.window
            blocks = fmap.reshape(h // win, win, w // win, win, c)
            pooled = (blocks.max(axis=(1, 3)) if call.kwargs.get("pool") == "max"
                      else blocks.mean(axis=(1, 3))).reshape(-1, c)
            g = glob.reshape(-1, c)

            def select():
                return np.matmul(np.matmul(pooled, g.T), params.weight.T) + params.bias

            ms, logits = _timed(select, repeats)
            total["vision"] += ms
            selections = call.result[1]
            _close(name, np.array([s.probs for s in selections]), _softmax(logits), failures)
            ordered = np.sort(logits, axis=1)
            clear = ordered[:, -1] - ordered[:, -2] > 1e-9
            chosen = np.array([s.scale for s in selections])
            if np.any(chosen[clear] != np.argmax(logits, axis=1)[clear]):
                failures.append(f"{name}: selector picks differ from the BLAS oracle")
        elif name == "textsampler.attention_scores":
            q, k = call.args
            scale = 1.0 / math.sqrt(q.shape[2])
            ms, probs = _timed(
                lambda: _softmax(np.einsum("htd,hnd->htn", q, k, optimize=True) * scale), repeats
            )
            total["textsampler"] += ms
            _close(name, call.result, probs, failures)
        elif name == "heuristic.heuristic_importance":
            fmap, glob = call.args
            c = fmap.shape[2]
            tokens = fmap.reshape(-1, c)
            g = glob.reshape(-1, c)
            ms, scores = _timed(lambda: np.matmul(g, tokens.T).mean(axis=0), repeats)
            total["heuristic"] += ms
            _close(name, call.result, scores, failures)
    return {"bound_ms": total, "oracle_failures": failures}


def summarize(profiles: list[dict], bound: dict, overhead_ms: float) -> dict[str, float]:
    """Median per-layer values over traced operations, with bounds and ratios."""
    out = {name: float(statistics.median(p[name] for p in profiles)) for name in profiles[0]}
    for layer, time_metric in (("vision", "vision.compress_ms"),
                               ("textsampler", "textsampler.attention_ms"),
                               ("heuristic", "heuristic.importance_ms")):
        bound_ms = bound["bound_ms"][layer]
        out[f"{layer}.bound_ms"] = bound_ms
        out[f"{layer}.bound_ratio"] = out[time_metric] / bound_ms if bound_ms else 0.0
    out["trace.overhead_ms"] = overhead_ms
    return {name: out[name] for name in PER_LAYER}
