"""Design properties of the text sampler on ``gen``'s ground truth (``quality.py``).

Only what should hold by design is pinned, not the table itself: at the
measured budgets the text sampler keeps more anchors than a seeded random
pick of the same size, in the mean over gen seeds 0-9 (per seed it does not
always: seed 0 at gamma 0.7 and seed 8 at gamma 0.05 keep fewer); and a
larger gamma never loses an anchor, since it keeps a longer prefix of the
same ranking.
"""

from __future__ import annotations

import numpy as np
import pytest

import quality

GAMMAS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.85, 0.95, 1.0)


@pytest.fixture(scope="module")
def rows(tmp_path_factory):
    return quality.table(tmp_path_factory.mktemp("quality"), gammas=GAMMAS)


@pytest.mark.parametrize("gamma", quality.GAMMAS)
def test_text_keeps_more_anchors_than_random_in_the_mean(rows, gamma):
    text, random = (np.mean([rows[seed, gamma][picker][1] for seed in quality.SEEDS])
                    for picker in ("text", "random"))
    assert text > random


@pytest.mark.parametrize("seed", quality.SEEDS)
def test_anchor_recall_does_not_fall_as_gamma_rises(rows, seed):
    recall = [rows[seed, gamma]["text"][1] for gamma in GAMMAS]
    assert recall == sorted(recall)
    assert recall[-1] == 1.0  # gamma 1 keeps every token


def test_score_counts_rectangles_and_distinct_anchors():
    meta = {"rectangles": [(0, 1, 2, 2)], "anchors": [1, 1, 5, 9]}  # 4 wide: 1, 2, 5, 6
    assert quality.score(meta, 4, [1, 2, 3, 9]) == (0.5, 2 / 3)
