"""Token-budget accounting: what each stage saves, and what mid-model removal is worth.

Removing n of m tokens at layer i of an L-layer model still pays for those n
tokens across the first i layers, so the effective count is m - n + i*n/L.
"""

import math

import numpy as np

from vtcompress import (
    build_report,
    compress_inference,
    default_menu,
    effective_token_count,
    heuristic_importance,
    heuristic_topk,
    init_selector_params,
)

# a 24x24 map compressed with a fixed 12/12/12 scale split: exact arithmetic
rng = np.random.default_rng(0)
fm = rng.random((24, 24, 4))
g = rng.random((9, 4))
menu = default_menu(4)
params = init_selector_params(3, 9, seed=0)
forced = [0] * 12 + [1] * 12 + [2] * 12
tokens, selections = compress_inference(fm, g, params, menu, force_scales=forced)
report = build_report(strategy="vision", input_tokens=576, selections=selections)
print(f"even 12/12/12 split over 36 regions: {report['afterVision']} of 576 tokens "
      f"({100 * report['afterVision'] / 576:.2f}%)")
print("(a trained selector is content-adaptive; reported behavior on real data keeps "
      "roughly half the tokens rather than this uniform-split 43.75%)\n")

print("effective tokens when the text stage removes 40% at layer i (m=576 after vision):")
m = 576
n = int(0.4 * m)
print(f"{'layer i':>8} {'effective':>10} {'of input':>9}")
for layer in (0, 4, 8, 16, 24, 31):
    eff = effective_token_count(m, n, layer, 32)
    print(f"{layer:>8} {eff:>10.1f} {100 * eff / m:>8.1f}%")
print("removal at layer 0 saves the full 40%; at the last layer almost nothing.\n")

print("menu granularity (tokens per 4x4 region):")
from vtcompress import seven_branch_menu

for name, m_ in (("3-branch", default_menu(4)), ("7-branch", seven_branch_menu(4))):
    print(f"  {name}: {m_.token_counts}")
print()

# the hand-crafted similarity baseline keeps a fixed fraction instead
scores = heuristic_importance(fm, g)
for frac in (0.8, 0.6, 0.4):
    kept = heuristic_topk(scores, frac)
    assert kept.size == math.ceil(frac * 576)
    print(f"heuristic top-{int(frac * 100)}%: keeps {kept.size} tokens "
          f"(score range kept: {scores[kept].min():.3f}..{scores[kept].max():.3f})")
print("the heuristic cannot adapt its budget to content; the learned selector can.")
