"""End-to-end pipeline: fixtures -> selector training -> both samplers -> report.

Mirrors what the CLI does (gen / train / compress / report), driving the
library directly. Everything is seeded; rerunning reproduces the numbers.
"""

import json
import pathlib
import tempfile

import numpy as np

from vtcompress import (
    SCALE_INDIFFERENT_LEARNING_RATE,
    SyntheticConfig,
    TrainConfig,
    attention_scores,
    build_report,
    compress_inference,
    cumulative_topk,
    default_menu,
    export_heatmap,
    flatten_grid,
    gen_synthetic,
    importance,
    make_scale_indifferent_task,
    per_layer_importance,
    read_tensor,
    report_to_json,
    train_selector,
)
from vtcompress.textsampler import project_keys

root = pathlib.Path(tempfile.mkdtemp(prefix="vtc_demo5_"))

# 1. synthetic fixtures standing in for an encoded image
meta = gen_synthetic(
    SyntheticConfig(height=24, width=24, channels=8, seed=11, structure="block-structured"),
    root / "fixtures",
)
fm, _ = read_tensor(meta["paths"]["x"])
xg, _ = read_tensor(meta["paths"]["xg"])
q, _ = read_tensor(meta["paths"]["q"])
print(f"fixtures in {root / 'fixtures'}")

# 2. train the scale selector with the balance term
dataset, downstream = make_scale_indifferent_task(seed=0)
run = train_selector(
    dataset,
    TrainConfig(steps=500, learning_rate=SCALE_INDIFFERENT_LEARNING_RATE, alpha=0.1, seed=0),
    downstream=downstream,
)
print(f"selector trained: final f = {np.round(run.final_f, 2)}, "
      f"loss {run.losses[0]:.4f} -> {run.losses[-1]:.4f}")

# 3. vision stage: one scale per region
menu = default_menu(4)
tokens, selections = compress_inference(fm, flatten_grid(xg), run.params, menu)
print(f"vision stage: {tokens.shape[0]} of 576 tokens "
      f"({100 * tokens.shape[0] / 576:.1f}%)")

# 4. text stage over the emitted tokens (keys are a seeded projection of them,
#    standing in for the key projection they would receive inside a model)
keys = project_keys(tokens, q.shape[0], q.shape[2], np.random.default_rng(0))
scores = importance(attention_scores(q, keys))
selection = cumulative_topk(scores, gamma=0.85)
print(f"text stage: keeps {selection.k} of {tokens.shape[0]} at gamma 0.85")

# 5. combined report
report = build_report(
    strategy="both",
    input_tokens=576,
    menu=menu,
    selections=selections,
    text_selection=selection,
    text_layer=8,
    total_layers=32,
)
(root / "report.json").write_bytes(report_to_json(report).encode())
print(f"effective tokens: {report['effectiveTokens']:.1f} "
      f"({100 * report['effectiveTokens'] / 576:.1f}% of input)")
print(f"report written to {root / 'report.json'}")

# 6. per-layer evolution export from a stacked attention dump
stack = np.stack([attention_scores(q + 0.1 * layer, keys) for layer in range(4)])
maps = per_layer_importance(stack)
side = int(np.sqrt(maps.shape[1])) if int(np.sqrt(maps.shape[1])) ** 2 == maps.shape[1] else None
for layer in range(maps.shape[0]):
    grid = maps[layer].reshape(side, side) if side else maps[layer][None, :]
    export_heatmap(grid, "pgm", root / f"layer_{layer:02d}.pgm")
print(f"{maps.shape[0]} per-layer importance heatmaps written to {root}")

print("\nCLI equivalent:")
print("  vtcompress gen --out fixtures --seed 11 --structure block-structured")
print("  vtcompress train --task scale-indifferent --steps 500 --out-params sel.selw")
print("  vtcompress compress --strategy both --map fixtures/x.fmap --global fixtures/xg.fmap \\")
print("      --params sel.selw --q fixtures/q.attn --gamma 0.85 --layer 8 --out report.json")
print("  vtcompress report --in report.json --layer 16")
