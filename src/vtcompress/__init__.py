"""Coarse-to-fine visual token compression on encoded feature maps.

Two complementary samplers operate on an H x W x C grid of visual tokens:

* a vision-guided sampler that partitions the grid into regions, offers a
  menu of max-pool down-sampling scales per region, and picks one scale per
  region with a learned linear selector scored against the global context;
* a text-guided sampler that turns text-to-vision attention into a per-token
  importance score and keeps the smallest top set whose cumulative importance
  mass exceeds a threshold.

The package also ships the training machinery for the selector (balance /
imbalance auxiliary losses, analytic gradients, a small gradient-descent
trainer), a similarity-based heuristic baseline, token-budget accounting,
a bit-exact tensor file format with synthetic fixture generation, and a CLI
(``vtcompress gen|compress|train|gradcheck|evolution|report``).

The top level exports the names that the demos and the README use; every
other name is imported from its submodule (``vtcompress.vision``,
``vtcompress.training``, ...), each of which lists its own ``__all__``.
"""

from __future__ import annotations

from .formats import SyntheticConfig, export_heatmap, gen_synthetic, read_tensor
from .heuristic import heuristic_importance, heuristic_topk
from .report import build_report, effective_token_count, report_to_json, scale_histogram
from .textsampler import (
    StochasticConfig,
    StochasticDraws,
    attention_scores,
    cumulative_topk,
    importance,
    per_layer_importance,
)
from .training import (
    SCALE_INDIFFERENT_LEARNING_RATE,
    TrainConfig,
    make_scale_indifferent_task,
    train_selector,
)
from .vision import (
    compress_inference,
    default_menu,
    flatten_grid,
    init_selector_params,
    partition,
    selection_heatmap,
    seven_branch_menu,
)

__all__ = [
    "SyntheticConfig",
    "export_heatmap",
    "gen_synthetic",
    "read_tensor",
    "heuristic_importance",
    "heuristic_topk",
    "build_report",
    "effective_token_count",
    "report_to_json",
    "scale_histogram",
    "StochasticConfig",
    "StochasticDraws",
    "attention_scores",
    "cumulative_topk",
    "importance",
    "per_layer_importance",
    "SCALE_INDIFFERENT_LEARNING_RATE",
    "TrainConfig",
    "make_scale_indifferent_task",
    "train_selector",
    "compress_inference",
    "default_menu",
    "flatten_grid",
    "init_selector_params",
    "partition",
    "selection_heatmap",
    "seven_branch_menu",
]

__version__ = "0.1.0"
