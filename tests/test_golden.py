"""Golden outputs: the SHA-256 of every file a fixed-seed CLI pipeline writes.

The pipeline runs ``gen`` for both fixture structures, ``train`` four ways
(the built-in task, a seven-branch menu with a downstream target, imbalance
weights with max pooling, and a resume), ``compress`` with every strategy and
heatmaps, and ``report --layer 16``. Besides the seeded fallback parameters
(which route every region to one scale on these fixtures) it writes a SELW
file that splits the 36 regions of each fixture 12/12/12 over the three
scales, so the routing itself is pinned.

The pipeline runs twice: with the default product backend (the compiled
kernel, where it builds) and with the kernel forced off, so that the numpy
layouts must write the same bytes.

The expected hashes change only with a deliberate change of output bytes.
After one, print the new table with ``python tests/test_golden.py`` and
record which files changed, and why, in the change log.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from vtcompress import numeric
from vtcompress.cli import main
from vtcompress.formats import MAGIC_SELECTOR, read_tensor, write_tensor

STRUCTURES = {"uni": "uniform-noise", "blk": "block-structured"}
TARGET = "0.2,0.3,0.4,0.5,0.6,0.5,0.4,0.3"
# input files each compress strategy reads
INPUTS = {
    "both": ("--map", "--global", "--q"),
    "text": ("--map", "--q", "--k"),
    "vision": ("--map", "--global"),
    "heuristic": ("--map", "--global"),
}


def _run(*argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise AssertionError(f"vtcompress {' '.join(argv)} exited {code}")
    return out.getvalue()


def _split_params(fixture: str, window: int = 4) -> np.ndarray:
    """(3, Ng + 1) selector array routing regions by their mean score.

    Weight rows are (-1, 0, +1) / Ng, so the logits are (b0 - s, 0, s + b2)
    for a region whose mean score over the global tokens is s. The biases sit
    between the 12th/13th and 24th/25th smallest s, which splits 36 regions
    12/12/12. The scores are taken without BLAS so the file is the same on
    every build.
    """
    fm, _ = read_tensor(f"{fixture}/x.fmap")
    g, _ = read_tensor(f"{fixture}/xg.fmap")
    h, w, c = fm.shape
    pooled = fm.reshape(h // window, window, w // window, window, c).mean(axis=(1, 3))
    g = g.reshape(-1, c)
    mean_scores = (pooled.reshape(-1, 1, c) * g).sum(axis=2).mean(axis=1)
    ordered = np.sort(mean_scores)
    third = ordered.size // 3
    lo = (ordered[third - 1] + ordered[third]) / 2
    hi = (ordered[2 * third - 1] + ordered[2 * third]) / 2
    ng = g.shape[0]
    weight = np.stack([np.full(ng, -1.0), np.zeros(ng), np.ones(ng)]) / ng
    return np.concatenate([weight, np.array([[lo], [0.0], [-hi]])], axis=1)


def run_pipeline(root: Path) -> dict[str, str]:
    """Run the pipeline with ``root`` as working directory; name -> SHA-256."""
    stdout: dict[str, str] = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for name, structure in STRUCTURES.items():
            _run("gen", "--out", name, "--seed", "5", "--structure", structure)
            write_tensor(f"split_{name}.selw", _split_params(name), MAGIC_SELECTOR)

        trains = {
            "si": ("--task", "scale-indifferent", "--steps", "200", "--seed", "3"),
            "7b": ("--map", "uni/x.fmap", "--global", "uni/xg.fmap", "--menu", "7branch",
                   "--target", TARGET, "--steps", "200"),
            "pm": ("--map", "blk/x.fmap", "--global", "blk/xg.fmap",
                   "--imbalance", "0.8,1.0,1.2", "--pool", "max", "--steps", "200"),
            "rs": ("--map", "uni/x.fmap", "--global", "uni/xg.fmap", "--target", TARGET,
                   "--resume", "split_uni.selw", "--steps", "100"),
        }
        for name, flags in trains.items():
            stdout[f"train_{name}.stdout"] = _run(
                "train", *flags, "--out-params", f"train_{name}.selw",
                "--log", f"train_{name}.json",
            )

        for name in STRUCTURES:
            inputs = {
                "--map": f"{name}/x.fmap", "--global": f"{name}/xg.fmap",
                "--q": f"{name}/q.attn", "--k": f"{name}/k.attn",
            }
            runs = {
                "both": ("--strategy", "both", "--seed", "2"),
                "text": ("--strategy", "text"),
                "vision": ("--strategy", "vision", "--seed", "2"),
                "heuristic": ("--strategy", "heuristic", "--keep-fraction", "0.6"),
                "both7": ("--strategy", "both", "--menu", "7branch"),
                "vision8": ("--strategy", "vision", "--window", "8"),
                "split_both": ("--strategy", "both", "--params", f"split_{name}.selw"),
                "split_vision": ("--strategy", "vision", "--params", f"split_{name}.selw"),
                "trained": ("--strategy", "both", "--params", "train_si.selw"),
            }
            if name == "blk":
                runs["trained_max"] = ("--strategy", "vision", "--pool", "max",
                                       "--params", "train_pm.selw")
            for run, flags in runs.items():
                files = [a for key in INPUTS[flags[1]] for a in (key, inputs[key])]
                _run("compress", *flags, *files, "--out", f"{name}_{run}.json",
                     "--heatmap-prefix", f"{name}_{run}_")
            _run("report", "--in", f"{name}_both.json", "--layer", "16",
                 "--out", f"{name}_report16.json")
    finally:
        os.chdir(cwd)

    hashes = {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }
    hashes.update(
        {name: hashlib.sha256(text.encode()).hexdigest() for name, text in stdout.items()}
    )
    return hashes


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, run_pipeline(root)


def test_split_params_route_a_third_to_each_scale(pipeline):
    root, _ = pipeline
    for name in STRUCTURES:
        report = json.loads((root / f"{name}_split_vision.json").read_text())
        assert report["scaleFrequencies"] == [1 / 3, 1 / 3, 1 / 3]


def test_outputs_match_golden_hashes(pipeline):
    _, got = pipeline
    assert sorted(got) == sorted(GOLDEN)
    changed = sorted(name for name in GOLDEN if got[name] != GOLDEN[name])
    assert changed == []


def test_numpy_layouts_match_golden_hashes(tmp_path, monkeypatch):
    monkeypatch.setattr(numeric, "_product_kernel", lambda: None)
    got = run_pipeline(tmp_path)
    assert sorted(got) == sorted(GOLDEN)
    changed = sorted(name for name in GOLDEN if got[name] != GOLDEN[name])
    assert changed == []


GOLDEN: dict[str, str] = {
    "blk/k.attn": "952691beb1cea1aa34eb9767dba667a865fcafd2cf1379b73c668c28c508714b",
    "blk/q.attn": "0ef8391b847c2c83cf47620b8fcac4b437972df088de757e58a58fba0a1b9d61",
    "blk/x.fmap": "83fe627b8f7b30a0abf46c72864407bda402614550ce13e848e71f7aef02f627",
    "blk/xg.fmap": "17310f279b5cf98bbeea4bae49b32412cacc9cd005810e94f46d8e939bf1348e",
    "blk_both.json": "215e6823a287826e21f46d62dc68ae510cc567b2a3996338ceab7b13f0c76d20",
    "blk_both7.json": "8bb571140e15048489de8fe9b50e66f59364215e455a6e0e087f176f974af30c",
    "blk_both7_text.pgm": "72ef3a999217ea249c2b978ca53a3d62d8b187bf826a8c90beb41b8fac57593f",
    "blk_both7_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
    "blk_both_text.pgm": "0a7745c972a8ca735f5e94442e74e313c4065615578ae8af6c6e49f59264000e",
    "blk_both_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
    "blk_heuristic.json": "f81c377ddfc6259eff043af57d8f8305d8f8c7a4880167c71f18b0ce7f15e92e",
    "blk_heuristic_heuristic.pgm": "57e9b0d6985123c775c986127a0a8adf7adcd543c15fa3f0494d01478f94a661",
    "blk_report16.json": "e9d2bd04d8649f30716fae39caf33cd6a3e19e2b4ddc641ea60a424a8ebaa228",
    "blk_split_both.json": "acaead6756a5f2b24b5beccbdc5ded4efecfd66fe7899d6e01418dc9e3f65ed7",
    "blk_split_both_text.pgm": "f3283c91780c6ba2d9c4f41b8ca4bd12b141ea49f5b475983a77d3ce7d922f01",
    "blk_split_both_vision.pgm": "717eeb86c057e617144ba5c5078db6ff85d358873f899be588228000a1c00300",
    "blk_split_vision.json": "7d52af23c7efdba1551a981483a3edb385be82bd24385afa025ca9dfce89e26c",
    "blk_split_vision_vision.pgm": "717eeb86c057e617144ba5c5078db6ff85d358873f899be588228000a1c00300",
    "blk_text.json": "0f31fc1b52a937f89272690a4d7e25abcb77252938e9508720e05c98dc4728cb",
    "blk_text_text.pgm": "a11c6206fca68241977fcc69882e87e45d15cdde6db25bc727fa782cef58ebf1",
    "blk_trained.json": "d25ee023384588bb1ccde06eb2e2a8507c0e07a59ec5805c1583205fafdb7c89",
    "blk_trained_max.json": "62faa27dfbb8c1ea4e3b3fdeb3b9ca95daf6dc654b435d5180264b5771d275e7",
    "blk_trained_max_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
    "blk_trained_text.pgm": "43a150b0d5bc3cd64f2a7dd61488c6d83b63d387ba92505fbd70eb3cc203d4eb",
    "blk_trained_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
    "blk_vision.json": "0544d1356f9b1e3ee767e0832fb76781128ced1aeeb55193601087646350cb2c",
    "blk_vision8.json": "4d0ef44e7a79b9945f0eb406ab0979cc5c7870a6fdea9670c3fd593d3e0fb89d",
    "blk_vision8_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
    "blk_vision_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
    "split_blk.selw": "045806b7ee0460af83ac168f5b3a5c3834825b3dd17187667ddff07479661174",
    "split_uni.selw": "d8613fdc86002d3cff38009efd721ed67556a7fd28ec23d2e25545cecad91e7b",
    "train_7b.json": "947b25435b3144a46dc7155124a67e70c7531e3adfa09988ef3a5c0a9c8a1ed6",
    "train_7b.selw": "009b0629eaffe8c5004315234dd0280a85c802e7160e1e5811a6211ddd50eacb",
    "train_7b.stdout": "efdba1e14d9d61815c00f8f0304ca8233f391dc4466ed7ff49949bce66914103",
    "train_pm.json": "7870582c03f516ce0e60e0042f0442871efcf3ecd47647cd6d9ddb86b6ed71ee",
    "train_pm.selw": "aec5b1ab1654b85461dda790a4665e7ec87445ed399f1216f85dd6e1f50b5b9a",
    "train_pm.stdout": "9db578736795b5b101b454e7e1cde8424645e71f0977fd26f1cd19450cce3d26",
    "train_rs.json": "d8a446b62d7396e7d6bcbc92c4bbc134ababb369ba06f3f169f417fdb1bb8dd3",
    "train_rs.selw": "0c16756bc4e44c75220f2c6361e156208627efc3f9ba635b4a86a77b822bd6e7",
    "train_rs.stdout": "68255359e005f214f3c9fe6c021c3ad2a126227489b087145cc81f1e7b065875",
    "train_si.json": "6bd010e4c26529782e34c52591f1d8f92b3dad5f3dc118e3238dbb93324e9aff",
    "train_si.selw": "8b6539d026ef5897220a7449201ee94715a11b90fdaec56cbb0135f13413f8f0",
    "train_si.stdout": "e3412afa3ea605a96cfd116f2257a40cec2889c1ab7da58c7bd019c95f0412e1",
    "uni/k.attn": "cdc25d67f52880c3295d29686e5811d9e1f34d28b9bf370ee4bb053a92f1c105",
    "uni/q.attn": "eeff39da8f12323e2adf37ce61086454f85e0a692e8c42869a73832dc0a0e74c",
    "uni/x.fmap": "3814e4e4b94b83b04b60bb9d2f6e5ca9a7227e311a516283e897425757d2e48c",
    "uni/xg.fmap": "cbafaf8082f581a766b74dfe08d70f262d43ca1838b40e12794f3911cc6f0e9d",
    "uni_both.json": "bd7cb6498e4587edd22ef54d3d8b715175d5a361fbc794f3453dc4e73dba318b",
    "uni_both7.json": "79d7ec42d9a5e9665e7c94888b362257114edf4a3a3c79899bcfefe1613b5113",
    "uni_both7_text.pgm": "5e4b750fffdd233e4093157cecfca8e8385418daf0aef7635ddfcf8a8143ce11",
    "uni_both7_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
    "uni_both_text.pgm": "4beca52f4fc2344bb488cfe5da30827ccca60b3fa7e91f9c94526a8e18faa6f3",
    "uni_both_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
    "uni_heuristic.json": "f81c377ddfc6259eff043af57d8f8305d8f8c7a4880167c71f18b0ce7f15e92e",
    "uni_heuristic_heuristic.pgm": "ac7a22d2b75e98774c82f5ea77dca048aa6cae8fbd74a7cae85ebf1e83e36744",
    "uni_report16.json": "25f1edef95d73fccab3373ada9c962287164a39f22d1f76c071eb13333fac04b",
    "uni_split_both.json": "c281af35157a42531454ecc2a1f52acfcc1cc2e16d492025d07db7395f918551",
    "uni_split_both_text.pgm": "78f43e0d715d16e458463bc286e30bdb2dfcd5c065ab1f67f7049d0864788255",
    "uni_split_both_vision.pgm": "ce2f67316783644030a6f9314e5c0d2058a052bfdbe9200ec4206711769e9e36",
    "uni_split_vision.json": "3e5a2f6d0b67da3a8c6edb4daf1c7e62a62b1092a6095c75ff0d0ed2531af17a",
    "uni_split_vision_vision.pgm": "ce2f67316783644030a6f9314e5c0d2058a052bfdbe9200ec4206711769e9e36",
    "uni_text.json": "45d7500c4a8d811dd10b8144ebc96afafdb7893f3a16a8093afb710876f73cf7",
    "uni_text_text.pgm": "8e0263c1920781044577e49e58b34b9ed3a2d5cf9e2f3e6605fdf49368a2159b",
    "uni_trained.json": "3ccf4530a9db1667b803e659061b9f129257b2f97f482b7839c6b87b4ce53727",
    "uni_trained_text.pgm": "fe6fb511e64c3e2d9fd61af0c81f19def2bfbf8dbdb880f6edb53252f0be371e",
    "uni_trained_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
    "uni_vision.json": "c8c98782254d7ebb12a6b213def617520031dff9b0d4bc788e487398a7a438f7",
    "uni_vision8.json": "34d10f23e8d1ccf260393cf39e586b18d3deb59204d35de1c00f74ca5754e385",
    "uni_vision8_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
    "uni_vision_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = run_pipeline(Path(tmp))
    sys.stdout.write("GOLDEN: dict[str, str] = {\n")
    for key in sorted(table):
        sys.stdout.write(f'    "{key}": "{table[key]}",\n')
    sys.stdout.write("}\n")
