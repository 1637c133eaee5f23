"""Walk through the vision-guided sampler on a block-structured feature map.

The map is partitioned into 4x4 regions; each region is scored against the
global (downsampled) view and a linear selector picks one max-pool scale per
region: 4x4 (1 token), 2x2 (4 tokens), or 1x1 (all 16 tokens kept).
"""

import pathlib
import tempfile

import numpy as np

from vtcompress import (
    SyntheticConfig,
    compress_inference,
    default_menu,
    export_heatmap,
    flatten_grid,
    gen_synthetic,
    init_selector_params,
    partition,
    read_tensor,
    scale_histogram,
    selection_heatmap,
    seven_branch_menu,
)

out_dir = pathlib.Path(tempfile.mkdtemp(prefix="vtc_demo1_"))
cfg = SyntheticConfig(height=24, width=24, channels=8, seed=7, structure="block-structured")
meta = gen_synthetic(cfg, out_dir)
fm, _ = read_tensor(meta["paths"]["x"])
xg, _ = read_tensor(meta["paths"]["xg"])
print(f"feature map {fm.shape}, high-variance rectangles at {meta['rectangles']}")

menu = default_menu(window=4)
blocks = partition(fm, menu.window)
print(f"partitioned into {len(blocks)} regions of {menu.window}x{menu.window}; "
      f"menu emits {menu.token_counts} tokens per region")

global_tokens = flatten_grid(xg)
params = init_selector_params(len(menu), global_tokens.shape[0], seed=0)
tokens, selections = compress_inference(fm, global_tokens, params, menu)

f = scale_histogram(selections)
print(f"\nuntrained selector: {tokens.shape[0]} of {fm.shape[0] * fm.shape[1]} tokens kept "
      f"({100 * tokens.shape[0] / (fm.shape[0] * fm.shape[1]):.1f}%)")
print(f"scale frequencies f = {np.round(f, 3)} (over kernels "
      f"{list(menu.kernels)})")

heat = selection_heatmap(selections)
heat_path = out_dir / "kept_fraction.pgm"
export_heatmap(heat, "pgm", heat_path)
print(f"kept-token-fraction heatmap written to {heat_path}")

# the 7-branch menu adds asymmetric kernels (useful for stripe-like detail)
wide = seven_branch_menu(window=4)
tokens7, selections7 = compress_inference(fm, global_tokens, params=init_selector_params(
    len(wide), global_tokens.shape[0], seed=0), menu=wide)
print(f"\n7-branch menu: kernels {list(wide.kernels)}")
print(f"7-branch token counts per region: {wide.token_counts}; "
      f"kept {tokens7.shape[0]} tokens total")

# every emitted channel value comes from its source region (max-pool membership)
sel0 = selections[0]
block0 = blocks[0]
group0 = tokens[: sel0.token_count]
assert all(v in block0[:, :, c] for tok in group0 for c, v in enumerate(tok))
print("\nchecked: every emitted value of region 0 appears in its source region")
