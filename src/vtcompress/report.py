"""Token accounting and run reports.

Tracks how many tokens each stage keeps and converts mid-LLM removals into an
effective token count: removing n of m tokens at layer i of L still pays for
those n tokens across the first i layers, so the effective count is
m - n + i*n/L.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .textsampler import SelectionResult
from .vision import RegionSelection, ScaleMenu, routing_stats

__all__ = [
    "effective_token_count",
    "scale_histogram",
    "build_report",
    "report_to_json",
]

REPORT_VERSION = 1


def effective_token_count(m: int, n: int, i: int, total_layers: int = 32) -> float:
    """Effective remaining tokens when n of m are removed at layer i of total_layers."""
    m, n, i, total_layers = int(m), int(n), int(i), int(total_layers)
    if total_layers < 1:
        raise ValueError("total_layers must be >= 1")
    if not (0 <= n <= m):
        raise ValueError(f"need 0 <= n <= m, got n={n}, m={m}")
    if not (0 <= i < total_layers):
        raise ValueError(f"need 0 <= i < total_layers, got i={i}, L={total_layers}")
    return m - n + i * n / total_layers


def _stacked(selections: Sequence[RegionSelection]) -> tuple[np.ndarray, np.ndarray]:
    """Chosen scales (M,) and probabilities (M, S) of a selection list."""
    if not selections:
        raise ValueError("no selections")
    return np.array([sel.scale for sel in selections]), np.array([sel.probs for sel in selections])


def scale_histogram(selections: Sequence[RegionSelection]) -> np.ndarray:
    """Empirical selection frequency per scale: f_i = count(scale == i) / M."""
    return routing_stats(*_stacked(selections))[0]


def _float_list(arr) -> list[float]:
    return [float(v) for v in arr]


def build_report(
    *,
    strategy: str,
    input_tokens: int,
    menu: ScaleMenu | None = None,
    selections: Sequence[RegionSelection] | None = None,
    text_selection: SelectionResult | None = None,
    text_layer: int | None = None,
    total_layers: int = 32,
    heuristic_kept: int | None = None,
    heuristic_keep_fraction: float | None = None,
) -> dict:
    """Assemble a schema-stable compression report.

    Vision fields come from ``selections``/``menu``; text fields from
    ``text_selection`` (selected at ``text_layer``); heuristic runs report
    kept counts only. The effective token count accounts for text-stage
    removals happening mid-LLM; vision and heuristic removals happen before
    the LLM, so there they equal the post-stage count.
    """
    if strategy not in ("vision", "text", "both", "heuristic"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if input_tokens < 0:
        raise ValueError("input_tokens must be >= 0")
    if total_layers < 1:
        raise ValueError("total_layers must be >= 1")

    report: dict = {
        "reportVersion": REPORT_VERSION,
        "strategy": strategy,
        "inputTokens": int(input_tokens),
        "totalLayers": int(total_layers),
    }

    after_vision = int(input_tokens)
    if strategy in ("vision", "both"):
        if selections is None or menu is None:
            raise ValueError(f"strategy {strategy!r} needs selections and a menu")
        counts = menu.token_counts
        after_vision = sum(counts[sel.scale] for sel in selections)
        declared = sum(sel.token_count for sel in selections)
        if declared != after_vision:
            raise ValueError(
                f"selection token counts ({declared}) disagree with the menu ({after_vision})"
            )
        report["window"] = menu.window
        report["menu"] = [
            {"kernel": None if s.discard else list(s.kernel), "tokens": int(c)}
            for s, c in zip(menu.scales, counts)
        ]
        report["afterVision"] = after_vision
        f, p = routing_stats(*_stacked(selections))
        report["scaleFrequencies"] = _float_list(f)
        report["meanProbs"] = _float_list(p)
        report["selections"] = [
            {
                "region": sel.region,
                "scale": sel.scale,
                "tokens": sel.token_count,
                "top1Prob": float(sel.top1_prob),
            }
            for sel in selections
        ]
    else:
        report["window"] = None
        report["menu"] = None
        report["afterVision"] = after_vision
        report["scaleFrequencies"] = None
        report["meanProbs"] = None
        report["selections"] = None

    if strategy in ("text", "both"):
        if text_selection is None or text_layer is None:
            raise ValueError(f"strategy {strategy!r} needs a text selection and a layer")
        kept = int(text_selection.k)
        if kept > after_vision:
            raise ValueError(
                f"text stage kept {kept} tokens but only {after_vision} entered the LLM"
            )
        removed = after_vision - kept
        effective = effective_token_count(after_vision, removed, text_layer, total_layers)
        report["textSelection"] = {
            "k": kept,
            "gamma": float(text_selection.gamma),
            "layer": int(text_layer),
            "degenerate": bool(text_selection.degenerate),
        }
    else:
        report["textSelection"] = None
        effective = float(after_vision)

    if strategy == "heuristic":
        if heuristic_kept is None:
            raise ValueError("heuristic strategy needs the kept token count")
        if not (0 <= heuristic_kept <= input_tokens):
            raise ValueError("heuristic kept count out of range")
        report["heuristicSelection"] = {
            "kept": int(heuristic_kept),
            "keepFraction": None
            if heuristic_keep_fraction is None
            else float(heuristic_keep_fraction),
        }
        report["afterVision"] = int(heuristic_kept)
        effective = float(heuristic_kept)
    else:
        report["heuristicSelection"] = None

    if effective > input_tokens:
        raise ValueError("effective token count exceeds the input token count")
    report["effectiveTokens"] = float(effective)
    return report


def report_to_json(report: dict) -> str:
    """Serialize with stable key order and a trailing newline."""
    return json.dumps(report, indent=2) + "\n"
