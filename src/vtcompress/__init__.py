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
"""

from __future__ import annotations

from .formats import (
    MAGIC_ATTENTION,
    MAGIC_FEATURE_MAP,
    MAGIC_SELECTOR,
    BadMagicError,
    DimsMismatchError,
    NonFiniteDataError,
    SyntheticConfig,
    TensorFileError,
    TruncatedPayloadError,
    UnsupportedVersionError,
    export_heatmap,
    gen_synthetic,
    read_tensor,
    write_tensor,
)
from .heuristic import heuristic_importance, heuristic_topk
from .numeric import (
    as_tensor,
    finite_diff_grad,
    matmul,
    max_pool,
    softmax,
    stable_sort_desc,
)
from .report import (
    build_report,
    effective_token_count,
    mean_selection_probs,
    report_to_json,
    scale_histogram,
)
from .textsampler import (
    SelectionResult,
    StochasticConfig,
    StochasticDraws,
    attention_scores,
    cumulative_topk,
    draw_stochastic_config,
    importance,
    per_layer_importance,
)
from .training import (
    SCALE_INDIFFERENT_LEARNING_RATE,
    BatchDiagnostics,
    GradCheck,
    MeanTokenTarget,
    NonFiniteLossError,
    PreparedBatch,
    SelectorGradients,
    TrainConfig,
    TrainingDiverged,
    TrainRun,
    balance_loss,
    gradient_check,
    imbalance_loss,
    make_scale_indifferent_task,
    prepare_batch,
    random_gradcheck_instance,
    selector_grad,
    train_selector,
)
from .vision import (
    RegionSelection,
    ScaleMenu,
    ScaleSpec,
    SelectorParams,
    choose_scale,
    compress_inference,
    compress_training,
    default_menu,
    flatten_grid,
    init_selector_params,
    params_from_array,
    params_to_array,
    partition,
    retain_discard_menu,
    selection_heatmap,
    selector_logits,
    selector_score,
    seven_branch_menu,
)

__version__ = "0.1.0"
