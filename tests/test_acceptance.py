"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or in
failure reports) and enforces its time budget. Oracles here are deliberately
independent of the library code paths they check.
"""

import json
import time

import numpy as np
import pytest

from vtcompress.cli import main as cli_main
from vtcompress.formats import (
    MAGIC_ATTENTION,
    MAGIC_FEATURE_MAP,
    MAGIC_SELECTOR,
    BadMagicError,
    DimsMismatchError,
    TruncatedPayloadError,
    UnsupportedVersionError,
    read_tensor,
    write_tensor,
)
from vtcompress.numeric import softmax
from vtcompress.report import build_report, effective_token_count
from vtcompress.textsampler import attention_scores, cumulative_topk, importance
from vtcompress.training import (
    SCALE_INDIFFERENT_LEARNING_RATE,
    TrainConfig,
    gradient_check,
    make_scale_indifferent_task,
    prepare_batch,
    random_gradcheck_instance,
    train_selector,
)
from vtcompress.vision import (
    choose_scale,
    compress_inference,
    compress_training,
    default_menu,
    init_selector_params,
    partition,
)


def report_line(ok: bool, number: int, description: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def topk_oracle(scores, gamma):
    """All-prefix scan over a Python-side stable descending sort."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    running, total = 0.0, 0.0
    for i in order:
        total += scores[i]
    if total == 0.0:
        return n, order
    for j, idx in enumerate(order, start=1):
        running += scores[idx]
        if running / total > gamma:
            return j, order[:j]
    return n, order


def importance_oracle(a):
    heads, t, n = a.shape
    out = np.zeros(n)
    for j in range(n):
        acc = 0.0
        for tt in range(t):
            best = -np.inf
            for h in range(heads):
                if a[h, tt, j] > best:
                    best = a[h, tt, j]
            acc += best
        out[j] = acc / t
    return out


def test_criterion_1_cumulative_topk_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    gammas = (0.5, 0.7, 0.85, 0.99)
    ok = True
    for i in range(1000):
        n = int(rng.integers(1, 257))
        s = rng.random(n)
        if i % 7 == 0:
            s[rng.random(n) < 0.3] = 0.0  # exercise ties and zero mass
        gamma = gammas[i % 4]
        res = cumulative_topk(s, gamma)
        k, kept = topk_oracle(s.tolist(), gamma)
        # the library normalizes by the same sorted cumulative sum the oracle
        # scans, so agreement must be exact
        if res.k != k or res.kept_indices.tolist() != kept:
            ok = False
            break
    elapsed = time.time() - start
    report_line(ok and elapsed < 5.0,
                1, f"cumulative top-k matches brute-force prefix scan on 1000 vectors ({elapsed:.2f}s)")


def test_criterion_2_importance_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        h = int(rng.integers(1, 9))
        t = int(rng.integers(1, 17))
        n = int(rng.integers(1, 129))
        a = rng.random((h, t, n))
        worst = max(worst, float(np.abs(importance(a) - importance_oracle(a)).max()))
    elapsed = time.time() - start
    report_line(worst <= 1e-12 and elapsed < 5.0,
                2, f"importance matches triple-loop oracle, worst |diff| {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_3_gradient_correctness():
    start = time.time()
    menu = default_menu(4)
    worst = 0.0
    checked = 0
    seed = 0
    while checked < 100:
        dataset, params, downstream = random_gradcheck_instance(seed)
        seed += 1
        if prepare_batch(dataset, menu).argmax_margin(params) <= 1e-3:
            continue
        chk = gradient_check(dataset, params, menu, downstream=downstream, alpha=0.1)
        worst = max(worst, chk.rel_error)
        checked += 1
    elapsed = time.time() - start
    report_line(worst <= 1e-4 and elapsed < 30.0,
                3, f"analytic gradient matches finite differences on 100 instances, worst rel err {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_4_balance_loss_collapse_and_repair():
    start = time.time()
    ok = True
    details = []
    for seed in (0, 1, 2):
        dataset, downstream = make_scale_indifferent_task(seed)
        collapse = train_selector(
            dataset,
            TrainConfig(steps=500, learning_rate=SCALE_INDIFFERENT_LEARNING_RATE,
                        alpha=0.0, seed=seed),
            downstream=downstream,
        )
        balanced = train_selector(
            dataset,
            TrainConfig(steps=500, learning_rate=SCALE_INDIFFERENT_LEARNING_RATE,
                        alpha=0.1, seed=seed),
            downstream=downstream,
        )
        collapsed_ok = collapse.final_f.max() == 1.0
        spread_ok = (
            balanced.final_f.min() >= 0.1
            and float(np.abs(balanced.final_f - 1 / 3).max()) <= 0.15
        )
        ok = ok and collapsed_ok and spread_ok
        details.append(f"seed {seed}: maxf(a=0)={collapse.final_f.max():.2f} "
                       f"f(a=0.1)={np.round(balanced.final_f, 2).tolist()}")
    elapsed = time.time() - start
    report_line(ok and elapsed < 60.0,
                4, f"balance loss prevents single-scale collapse; {'; '.join(details)} ({elapsed:.2f}s)")


def test_criterion_5_effective_token_formula():
    start = time.time()
    exact = effective_token_count(100, 50, 8, 32) == 62.5
    rng = np.random.default_rng(505)
    boundaries = True
    for _ in range(1000):
        m = int(rng.integers(1, 10000))
        n = int(rng.integers(0, m + 1))
        i = int(rng.integers(0, 32))
        if effective_token_count(m, 0, i, 32) != float(m):
            boundaries = False
            break
        if effective_token_count(m, n, 0, 32) != float(m - n):
            boundaries = False
            break
    elapsed = time.time() - start
    report_line(exact and boundaries and elapsed < 1.0,
                5, f"effective token formula: 100,50,8,32 -> 62.5 and boundary identities hold ({elapsed:.2f}s)")


def test_criterion_6_lossless_path_identity():
    start = time.time()
    rng = np.random.default_rng(606)
    menu = default_menu(4)
    identity_scale = len(menu) - 1  # the (1,1) kernel
    ok = True
    for _ in range(20):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 4))
        channels = int(rng.integers(1, 6))
        fm = rng.random((rows * 4, cols * 4, channels))
        g = rng.random((int(rng.integers(1, 9)), channels))
        params = init_selector_params(3, g.shape[0], seed=int(rng.integers(0, 1 << 31)))
        tokens, sels = compress_inference(fm, g, params, menu, force_scales=identity_scale)
        expected = np.concatenate([b.reshape(-1, channels) for b in partition(fm, 4)])
        if not np.array_equal(tokens, expected):
            ok = False
            break
        weighted, _ = compress_training(fm, g, params, menu, force_scales=identity_scale)
        offset = 0
        for sel in sels:
            group = tokens[offset : offset + sel.token_count]
            wgroup = weighted[offset : offset + sel.token_count]
            offset += sel.token_count
            if np.abs(wgroup - sel.top1_prob * group).max() > 1e-15:
                ok = False
                break
        if not ok:
            break
    elapsed = time.time() - start
    report_line(ok and elapsed < 5.0,
                6, f"identity kernel reproduces inputs bit-exactly; training path scales by top-1 prob ({elapsed:.2f}s)")


def test_criterion_7_invariance_suite():
    start = time.time()
    rng = np.random.default_rng(707)
    ok = True

    # importance is invariant to per-row logit shifts (softmax shift invariance)
    for _ in range(200):
        h, t, n = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(2, 12))
        logits = rng.standard_normal((h, t, n))
        shifts = rng.uniform(-50, 50, size=(h, t, 1))
        base = importance(softmax(logits, axis=-1))
        shifted = importance(softmax(logits + shifts, axis=-1))
        if np.abs(base - shifted).max() > 1e-12:
            ok = False

    # winning scale is invariant under positive affine maps of the logits
    for _ in range(200):
        z = rng.standard_normal(int(rng.integers(2, 8)))
        a = float(rng.uniform(0.1, 10.0))
        c = float(rng.uniform(-100.0, 100.0))
        if choose_scale(z)[0] != choose_scale(a * z + c)[0]:
            ok = False

    # region permutation permutes vision selections identically
    menu = default_menu(4)
    for _ in range(200):
        fm = rng.random((8, 8, 2))
        g = rng.random((4, 2))
        params = init_selector_params(3, 4, seed=int(rng.integers(0, 1 << 31)))
        _, sels = compress_inference(fm, g, params, menu)
        perm = rng.permutation(4)
        blocks = partition(fm, 4)
        permuted = np.zeros_like(fm)
        for new_r, old_r in enumerate(perm):
            bi, bj = divmod(new_r, 2)
            permuted[bi * 4 : bi * 4 + 4, bj * 4 : bj * 4 + 4] = blocks[old_r]
        _, sels_p = compress_inference(permuted, g, params, menu)
        for new_r, old_r in enumerate(perm):
            if sels_p[new_r].scale != sels[old_r].scale:
                ok = False

    # permuting the visual axis permutes importance and the kept set
    for _ in range(200):
        h, t, n = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(2, 24))
        a = softmax(rng.standard_normal((h, t, n)), axis=-1)
        perm = rng.permutation(n)
        s = importance(a)
        s_p = importance(a[:, :, perm])
        if np.abs(s_p - s[perm]).max() > 1e-15:
            ok = False
        gamma = float(rng.uniform(0.2, 0.95))
        kept = set(cumulative_topk(s, gamma).kept_indices.tolist())
        kept_p = set(cumulative_topk(s_p, gamma).kept_indices.tolist())
        inverse = np.argsort(perm)
        if {int(inverse[i]) for i in kept} != kept_p:
            ok = False

    # kept set grows monotonically with gamma
    for _ in range(200):
        s = rng.random(int(rng.integers(2, 40)))
        g1, g2 = sorted(rng.uniform(0.05, 1.0, size=2))
        r1 = cumulative_topk(s, float(g1))
        r2 = cumulative_topk(s, float(g2))
        if r1.k > r2.k or not set(r1.kept_indices.tolist()) <= set(r2.kept_indices.tolist()):
            ok = False

    elapsed = time.time() - start
    report_line(ok and elapsed < 30.0,
                7, f"invariance suite (shift, affine argmax, permutations, gamma monotonicity) ({elapsed:.2f}s)")


def test_criterion_8_uniform_selection_token_arithmetic():
    rng = np.random.default_rng(808)
    fm = rng.random((24, 24, 3))
    g = rng.random((9, 3))
    menu = default_menu(4)
    params = init_selector_params(3, 9, seed=0)
    forced = [0] * 12 + [1] * 12 + [2] * 12
    tokens, selections = compress_inference(fm, g, params, menu, force_scales=forced)
    report = build_report(strategy="vision", input_tokens=24 * 24, selections=selections)
    ok = (
        tokens.shape[0] == 252
        and report["afterVision"] == 12 * (1 + 4 + 16) == 252
        and report["inputTokens"] == 576
        and report["afterVision"] / report["inputTokens"] == 0.4375
        and report["scaleFrequencies"] == [1 / 3, 1 / 3, 1 / 3]
    )
    report_line(ok, 8, "12/12/12 split over 36 regions gives 252 tokens = 43.75% of 576")


def test_criterion_9_format_round_trips(tmp_path):
    start = time.time()
    rng = np.random.default_rng(909)
    ok = True
    magic_dims = [(MAGIC_FEATURE_MAP, 3), (MAGIC_ATTENTION, 3), (MAGIC_ATTENTION, 4),
                  (MAGIC_SELECTOR, 2)]
    for i in range(100):
        magic, ndims = magic_dims[i % 4]
        shape = tuple(int(rng.integers(1, 7)) for _ in range(ndims))
        values = rng.standard_normal(shape).astype(np.float32).astype(np.float64)
        p1 = tmp_path / f"t{i}a.bin"
        p2 = tmp_path / f"t{i}b.bin"
        write_tensor(p1, values, magic)
        back, m = read_tensor(p1)
        write_tensor(p2, back, m)
        if m != magic or not np.array_equal(back, values) or p1.read_bytes() != p2.read_bytes():
            ok = False
            break

    import struct

    good = (struct.pack("<4sII", b"FMAP", 1, 3) + struct.pack("<3I", 1, 2, 2)
            + np.arange(4, dtype="<f4").tobytes())
    cases = [
        (b"XXXX" + good[4:], BadMagicError),
        (good[:4] + struct.pack("<I", 9) + good[8:], UnsupportedVersionError),
        (good[:-4], TruncatedPayloadError),
        (struct.pack("<4sII", b"SELW", 1, 3) + good[12:], DimsMismatchError),
    ]
    for i, (raw, expected) in enumerate(cases):
        path = tmp_path / f"bad{i}.bin"
        path.write_bytes(raw)
        try:
            read_tensor(path)
            ok = False
        except expected:
            pass
        except Exception:
            ok = False
    elapsed = time.time() - start
    report_line(ok and elapsed < 5.0,
                9, f"byte-exact round trips over all magics; malformed files raise distinct errors ({elapsed:.2f}s)")


def test_criterion_10_end_to_end_determinism(tmp_path, capsys):
    start = time.time()

    def pipeline(root):
        root.mkdir()
        fix = root / "fix"
        outputs = {}

        def captured():
            # stdout embeds output paths; normalize the run root away
            return capsys.readouterr().out.replace(str(root), "<root>")

        assert cli_main(["gen", "--out", str(fix), "--seed", "11",
                         "--structure", "block-structured"]) == 0
        outputs["gen"] = captured()
        selw = root / "sel.selw"
        log = root / "train.json"
        assert cli_main(["train", "--task", "scale-indifferent", "--steps", "500",
                         "--seed", "0", "--out-params", str(selw), "--log", str(log)]) == 0
        outputs["train"] = captured()
        rep = root / "report.json"
        assert cli_main(["compress", "--strategy", "both", "--map", str(fix / "x.fmap"),
                         "--global", str(fix / "xg.fmap"), "--params", str(selw),
                         "--q", str(fix / "q.attn"), "--gamma", "0.85", "--layer", "8",
                         "--out", str(rep),
                         "--heatmap-prefix", str(root / "hm_")]) == 0
        outputs["compress"] = captured()
        assert cli_main(["report", "--in", str(rep), "--layer", "16"]) == 0
        outputs["report"] = captured()
        files = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                files[str(path.relative_to(root))] = path.read_bytes()
        return outputs, files

    out_a, files_a = pipeline(tmp_path / "a")
    out_b, files_b = pipeline(tmp_path / "b")
    ok = out_a == out_b and files_a == files_b
    elapsed = time.time() - start
    report_line(ok and elapsed < 120.0,
                10, f"gen -> train -> compress -> report is byte-identical across runs ({elapsed:.2f}s)")
