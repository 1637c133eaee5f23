"""Token accounting and run reports.

Tracks how many tokens each stage keeps and converts mid-LLM removals into an
effective token count: removing n of m tokens at layer i of L still pays for
those n tokens across the first i layers, so the effective count is
m - n + i*n/L. Vision and heuristic removals happen before the LLM. This
policy and every check on a report's counts live in ``_effective``, through
which both ``build_report`` and ``reprofile`` account. ``report_to_json`` is
the one writer of indented JSON: json's C encoder writes a report compactly,
which also raises every error json raises for it, and one compiled pass
lays that text out as ``json.dumps(indent=2)`` does; without the compiled
kernel, ``json.dumps(indent=2)`` writes it.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Sequence

import numpy as np

from . import numeric
from .textsampler import SelectionResult
from .vision import RegionRouting, RegionSelection, ScaleMenu, routing_stats

__all__ = [
    "effective_token_count",
    "scale_histogram",
    "build_report",
    "reprofile",
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
    if max(m, total_layers) > sys.float_info.max:
        raise ValueError("token counts and layers must fit in a float, as a report reads them")
    return m - n + i * n / total_layers


def _effective(input_tokens: int, after_vision: int, total_layers: int, text=None) -> float:
    """Checked effective token count when ``after_vision`` of ``input_tokens`` enter
    the LLM and the text stage, if any, keeps ``text = (kept, layer)`` of them.
    ``effective_token_count`` checks the layers."""
    kept, layer = text or (after_vision, 0)  # no text stage: all kept, nothing removed
    if kept > after_vision:
        raise ValueError(f"text stage kept {kept} tokens but only {after_vision} entered the LLM")
    if not 0 <= after_vision <= input_tokens:
        raise ValueError(f"need 0 <= after_vision <= input_tokens, "
                         f"got after_vision={after_vision}, input_tokens={input_tokens}")
    return effective_token_count(after_vision, after_vision - kept, layer, total_layers)


def scale_histogram(selections: Sequence[RegionSelection]) -> np.ndarray:
    """Empirical selection frequency per scale: f_i = count(scale == i) / M."""
    routing = RegionRouting.of(selections)
    return routing_stats(routing.scales, routing.probs)[0]


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

    Vision fields come from ``selections`` (see :meth:`RegionRouting.of`)
    and ``menu``; text fields from ``text_selection`` (selected at
    ``text_layer``); heuristic runs report kept counts only. The counts are
    checked and the effective token count computed by ``_effective``.
    """
    if strategy not in ("vision", "text", "both", "heuristic"):
        raise ValueError(f"unknown strategy {strategy!r}")

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
        routing = RegionRouting.of(selections, menu)
        after_vision = int(routing.counts.sum())
        report["window"] = menu.window
        report["menu"] = [
            {"kernel": None if s.discard else list(s.kernel), "tokens": int(c)}
            for s, c in zip(menu.scales, menu.token_counts)
        ]
        report["afterVision"] = after_vision
        f, p = routing_stats(routing.scales, routing.probs)
        report["scaleFrequencies"] = f.tolist()
        report["meanProbs"] = p.tolist()
        report["selections"] = [
            {"region": r, "scale": j, "tokens": n, "top1Prob": top1}
            for r, (j, n, top1) in enumerate(zip(routing.scales.tolist(), routing.counts.tolist(),
                                                 routing.top1_probs.tolist()))
        ]
    else:
        report.update(window=None, menu=None, afterVision=after_vision,
                      scaleFrequencies=None, meanProbs=None, selections=None)

    text = None
    if strategy in ("text", "both"):
        if text_selection is None or text_layer is None:
            raise ValueError(f"strategy {strategy!r} needs a text selection and a layer")
        text = (int(text_selection.k), int(text_layer))
        report["textSelection"] = {
            "k": text[0],
            "gamma": float(text_selection.gamma),
            "layer": text[1],
            "degenerate": bool(text_selection.degenerate),
        }
    else:
        report["textSelection"] = None

    if strategy == "heuristic":
        if heuristic_kept is None:
            raise ValueError("heuristic strategy needs the kept token count")
        report["heuristicSelection"] = {
            "kept": int(heuristic_kept),
            "keepFraction": None
            if heuristic_keep_fraction is None
            else float(heuristic_keep_fraction),
        }
        report["afterVision"] = after_vision = int(heuristic_kept)
    else:
        report["heuristicSelection"] = None

    report["effectiveTokens"] = _effective(
        int(input_tokens), after_vision, int(total_layers), text
    )
    return report


def _require_int(name: str, value) -> None:
    """Raise unless ``value`` is an integer that a float can hold: the accounting divides."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"report {name} must be an integer, got {value!r}")
    if abs(value) > sys.float_info.max:
        raise ValueError(f"report {name} is too large for a float")


def reprofile(report, *, layer: int | None = None, total_layers: int | None = None) -> dict:
    """A copy of a parsed report re-accounted at ``layer`` of ``total_layers`` (by
    default its own), with ``effectivePercent``. Raises ``ValueError`` for a
    report ``build_report`` could not have written: one without a text
    selection, for instance, has ``effectiveTokens`` equal to ``afterVision``."""
    if not isinstance(report, dict):
        raise ValueError("report file must hold a JSON object")
    if report.get("reportVersion") != REPORT_VERSION:
        raise ValueError(f"unsupported reportVersion {report.get('reportVersion')!r}")
    required = ("inputTokens", "afterVision", "totalLayers", "effectiveTokens")
    missing = [key for key in required if key not in report]
    if missing:
        raise ValueError(f"report lacks {', '.join(missing)}")
    for key in ("inputTokens", "afterVision", "totalLayers"):
        _require_int(key, report[key])
    effective = report["effectiveTokens"]
    if isinstance(effective, bool) or not isinstance(effective, (int, float)) \
            or not abs(effective) <= sys.float_info.max:  # also rejects nan and over-large ints
        raise ValueError(f"report effectiveTokens must be a finite number, got {effective!r}")
    total_layers = report["totalLayers"] if total_layers is None else total_layers
    if total_layers < 1:
        raise ValueError(f"totalLayers must be >= 1, got {total_layers}")
    report = {**report, "totalLayers": total_layers}
    counts = (report["inputTokens"], report["afterVision"], total_layers)
    text = report.get("textSelection")
    if text is not None:
        if not isinstance(text, dict) or not {"k", "layer"} <= text.keys():
            raise ValueError("report textSelection lacks k or layer")
        _require_int("textSelection.k", text["k"])
        _require_int("textSelection.layer", text["layer"])
        layer = text["layer"] if layer is None else layer
        report["textSelection"] = {**text, "layer": layer}
        expected = report["effectiveTokens"] = _effective(*counts, (text["k"], layer))
    elif layer is not None:
        raise ValueError("report has no text selection; --layer does not apply")
    else:
        expected = _effective(*counts)
    # Before the comparison with ``expected``, so that these failures keep their messages.
    if report["effectiveTokens"] > report["inputTokens"]:
        raise ValueError("effective token count exceeds the input token count")
    if report["inputTokens"]:
        report["effectivePercent"] = 100.0 * report["effectiveTokens"] / report["inputTokens"]
        if not math.isfinite(report["effectivePercent"]):
            raise ValueError("effectivePercent overflows a float: the token counts are too large")
    if report["effectiveTokens"] != expected:
        raise ValueError(f"report effectiveTokens {report['effectiveTokens']!r} is not "
                         f"afterVision {report['afterVision']} but it has no text selection")
    return report


# json's C encoder, whose compact text the compiled layout pass indents.
_COMPACT = json.JSONEncoder(separators=(",", ": "), allow_nan=False)


def _dumps(value) -> str:
    """``json.dumps(value, indent=2, allow_nan=False) + "\\n"``: what
    ``report_to_json`` writes, and what it runs without the compiled kernel."""
    return json.dumps(value, indent=2, allow_nan=False) + "\n"


def report_to_json(report) -> str:
    """``json.dumps(report, indent=2, allow_nan=False) + "\\n"``, byte for byte,
    raising what json's C encoder raises: it writes ``report`` compactly
    first, so a non-finite float is a ``ValueError`` and a value json cannot
    write a ``TypeError`` with the same text on both backends. When the
    compiled kernel loads, one C pass (``Kernel.indent``) lays the compact
    text out; otherwise json's pure-Python indented encoder writes it."""
    compact = _COMPACT.encode(report)
    kernel = numeric._product_kernel()
    return _dumps(report) if kernel is None else kernel.indent(compact)
