"""The named workloads of the vtcompress benchmark.

One operation of a workload is a fixed list of ``vtcompress`` CLI calls. The
program only ever sees the files that ``vtcompress gen`` writes from the
workload seed.

Each workload also knows how to check the outputs of one operation. The check
runs on the first operation of a run; every later operation must then write
the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class OutputError(Exception):
    """An operation's outputs are well-formed bytes but the wrong content."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # flags of the `vtcompress gen` call that makes the inputs (None: no inputs)
    gen: tuple[str, ...] | None
    # CLI calls of one operation; "{inp}", "{out}" and "{seed}" are filled in
    calls: tuple[tuple[str, ...], ...]
    # files one operation writes, relative to its output directory
    outputs: tuple[str, ...]
    # returns the descriptors printed for the run (scale histogram, tokens, ...)
    check: Callable[[Path], dict]

    def argv(self, inp: Path, out: Path, seed: int) -> list[list[str]]:
        fields = {"inp": str(inp), "out": str(out), "seed": str(seed)}
        return [[arg.format(**fields) for arg in call] for call in self.calls]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutputError(message)


def _report(path: Path, strategy: str) -> dict:
    report = json.loads(path.read_text())
    _require(report.get("reportVersion") == 1, f"{path.name}: bad reportVersion")
    _require(report.get("strategy") == strategy, f"{path.name}: strategy is not {strategy}")
    _require(
        0 < report["effectiveTokens"] <= report["inputTokens"],
        f"{path.name}: effective tokens out of range",
    )
    return report


def _scale_histogram(report: dict) -> list[int]:
    counts = [entry["tokens"] for entry in report["menu"]]
    histogram = [0] * len(counts)
    for sel in report["selections"]:
        histogram[sel["scale"]] += 1
        _require(sel["tokens"] == counts[sel["scale"]], "region token count disagrees with menu")
    emitted = sum(c * n for c, n in zip(counts, histogram))
    _require(emitted == report["afterVision"], "afterVision is not the sum of region tokens")
    return histogram


def _kept(report: dict) -> int:
    text = report["textSelection"]
    entering = report["afterVision"]
    kept = text["k"]
    _require(1 <= kept <= entering, f"text stage kept {kept} of {entering} tokens")
    removed = entering - kept
    effective = entering - removed + text["layer"] * removed / report["totalLayers"]
    _require(report["effectiveTokens"] == effective, "effective token count is off")
    return kept


def _pgm(path: Path, height: int, width: int) -> None:
    header = path.read_text().split("\n", 3)[:3]
    _require(header == ["P2", f"{width} {height}", "255"], f"{path.name}: bad PGM header")


def _check_train_selector(out: Path) -> dict:
    summary = json.loads((out / "stdout.txt").read_text())
    log = json.loads((out / "train.json").read_text())
    _require(summary["steps"] == 500 and len(log["history"]) == 500, "wrong step count")
    _require(abs(sum(summary["finalF"]) - 1.0) < 1e-9, "final frequencies do not sum to 1")
    _require(log["finalLoss"] == summary["finalLoss"], "log and summary disagree")
    _require((out / "selector.selw").read_bytes()[:4] == b"SELW", "params file is not SELW")
    return {
        "final_f": summary["finalF"],
        "final_loss": summary["finalLoss"],
        "collapsed": summary["collapsed"],
    }


def _check_fixture_mix(out: Path) -> dict:
    both = _report(out / "both.json", "both")
    histogram = _scale_histogram(both)
    _pgm(out / "hm_vision.pgm", 24, 24)
    _pgm(out / "hm_text.pgm", 24, 24)
    text = _report(out / "text.json", "text")
    vision = _report(out / "vision.json", "vision")
    _require(_scale_histogram(vision) == histogram, "vision and both strategies route differently")
    heuristic = _report(out / "heuristic.json", "heuristic")
    _require(
        heuristic["heuristicSelection"]["kept"] == heuristic["afterVision"],
        "heuristic kept count disagrees with afterVision",
    )
    relayered = _report(out / "report16.json", "both")
    _require(relayered["textSelection"]["layer"] == 16, "report --layer 16 did not apply")
    return {
        "scale_histogram": histogram,
        "tokens_out": both["afterVision"],
        "kept": [_kept(both), _kept(text), _kept(relayered)],
        "heuristic_kept": heuristic["afterVision"],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-selector",
            why="500 forward/backward steps over a tiny batch, then writes instead of "
            "reads; per-call overhead in the routing core shows here",
            gen=None,
            calls=((
                "train", "--task", "scale-indifferent", "--steps", "500", "--alpha", "0.1",
                "--seed", "{seed}", "--out-params", "{out}/selector.selw",
                "--log", "{out}/train.json",
            ),),
            outputs=("selector.selw", "train.json"),
            check=_check_train_selector,
        ),
        Workload(
            name="fixture-mix",
            why="five CLI calls on the 24x24x8 seed fixture, so fixed per-call costs "
            "dominate; the only workload that runs the heuristic",
            gen=(),
            calls=(
                ("compress", "--strategy", "both", "--map", "{inp}/x.fmap",
                 "--global", "{inp}/xg.fmap", "--q", "{inp}/q.attn", "--seed", "{seed}",
                 "--out", "{out}/both.json", "--heatmap-prefix", "{out}/hm_"),
                ("compress", "--strategy", "text", "--map", "{inp}/x.fmap",
                 "--q", "{inp}/q.attn", "--k", "{inp}/k.attn", "--out", "{out}/text.json"),
                ("compress", "--strategy", "vision", "--map", "{inp}/x.fmap",
                 "--global", "{inp}/xg.fmap", "--seed", "{seed}", "--out", "{out}/vision.json"),
                ("compress", "--strategy", "heuristic", "--map", "{inp}/x.fmap",
                 "--global", "{inp}/xg.fmap", "--out", "{out}/heuristic.json"),
                ("report", "--in", "{out}/both.json", "--layer", "16",
                 "--out", "{out}/report16.json"),
            ),
            outputs=(
                "both.json", "hm_vision.pgm", "hm_text.pgm", "text.json",
                "vision.json", "heuristic.json", "report16.json",
            ),
            check=_check_fixture_mix,
        ),
    )
}
