"""A sampler-quality yardstick from ``gen``'s own ground truth.

``gen --structure block-structured`` overwrites a few rectangles of a
low-variance map with high-variance "content", and draws its text queries
from anchor tokens inside them; its metadata lists both (``rectangles`` as
``(top, left, height, width)``, ``anchors`` as flat token indices). For a
set of kept token indices, :func:`score` gives the share of kept tokens that
lie inside a rectangle ("rect") and the share of distinct anchors kept
("anchor").

:func:`kept_sets` runs three pickers at the text sampler's budget: the text
sampler itself (``cumulative_topk`` of the attention importance at
``gamma``, which sets k), the heuristic baseline's top k by global
similarity, and one seeded uniform draw of k tokens. Run as a script, this
module prints the mean table over gen seeds 0-9 at the default shapes::

    PYTHONPATH=src python tests/quality.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from vtcompress.formats import SyntheticConfig, gen_synthetic, read_tensor
from vtcompress.heuristic import heuristic_importance
from vtcompress.numeric import stable_sort_desc
from vtcompress.textsampler import attention_scores, cumulative_topk, importance

SEEDS = range(10)
GAMMAS = (0.3, 0.85)
PICKERS = ("text", "heuristic", "random")


def fixture(seed: int, out_dir: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """``gen``'s metadata and its four arrays, by name, for one block-structured seed."""
    meta = gen_synthetic(SyntheticConfig(seed=seed, structure="block-structured"), out_dir)
    return meta, {name: read_tensor(path)[0] for name, path in meta["paths"].items()}


def kept_sets(seed: int, arrays: dict[str, np.ndarray], gamma: float) -> dict[str, np.ndarray]:
    """The token indices each picker keeps at the text sampler's k."""
    text = cumulative_topk(importance(attention_scores(arrays["q"], arrays["k"])), gamma)
    tokens = arrays["x"].shape[0] * arrays["x"].shape[1]
    heuristic = stable_sort_desc(heuristic_importance(arrays["x"], arrays["xg"]))[: text.k]
    random = np.random.default_rng(seed).choice(tokens, size=text.k, replace=False)
    return {"text": text.kept_indices, "heuristic": heuristic, "random": random}


def score(meta: dict, width: int, kept) -> tuple[float, float]:
    """(share of ``kept`` inside the rectangles, share of distinct anchors in ``kept``)."""
    kept = {int(i) for i in kept}
    content = {(top + r) * width + left + c for top, left, height, w in meta["rectangles"]
               for r in range(height) for c in range(w)}
    anchors = set(meta["anchors"])
    return len(kept & content) / len(kept), len(kept & anchors) / len(anchors)


def table(out_dir: Path, gammas=GAMMAS, seeds=SEEDS) -> dict:
    """``{(seed, gamma): {"k": k, picker: (rect, anchor)}}``."""
    rows = {}
    for seed in seeds:
        meta, arrays = fixture(seed, out_dir / str(seed))
        width = arrays["x"].shape[1]
        for gamma in gammas:
            kept = kept_sets(seed, arrays, gamma)
            rows[seed, gamma] = {"k": len(kept["text"]),
                                 **{name: score(meta, width, kept[name]) for name in PICKERS}}
    return rows


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        rows = table(Path(tmp))
    sys.stdout.write("| gamma | k | " + " | ".join(f"{p} rect / anchor" for p in PICKERS) + " |\n")
    sys.stdout.write("|---" * (2 + len(PICKERS)) + "|\n")
    for gamma in GAMMAS:
        cells = [rows[seed, gamma] for seed in SEEDS]
        mean_k = np.mean([c["k"] for c in cells])
        pairs = [np.mean([c[p] for c in cells], axis=0) for p in PICKERS]
        sys.stdout.write(f"| {gamma} | {mean_k:.0f} | "
                         + " | ".join(f"{r:.2f} / {a:.2f}" for r, a in pairs) + " |\n")


if __name__ == "__main__":
    main()
