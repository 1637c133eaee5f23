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
layout must write the same bytes. It runs twice more in fresh processes,
with BLAS and OpenMP set to one and to two threads, which must not change
a byte either; once in a fresh process where numpy dispatches none of its
AVX-512 loops, whose ``np.exp`` gives other bits, so the library's own
exponential must carry every output, and where the compiled vision pass
must still write the numpy routing core's bytes on ``test_vision``'s route
cases, tied zeros included; and once in a fresh process that cannot import
cffi, so that the kernel's loader gives up as on an install without it.

The expected hashes change only with a deliberate change of output bytes.
After one, print the new table with ``python tests/test_golden.py`` and
record which files changed, and why, in the change log.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from vtcompress import numeric
from vtcompress.cli import main
from vtcompress.formats import MAGIC_SELECTOR, read_tensor, write_tensor

ROOT = Path(__file__).resolve().parents[1]
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


def _env_with_src() -> dict[str, str]:
    """This environment, with the checkout's ``src`` first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def test_bytes_do_not_depend_on_blas_threads(tmp_path):
    # one fresh process per thread count: BLAS and OpenMP read it when they load
    tables = []
    for threads in ("1", "2"):
        env = _env_with_src()
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, __file__, str(out)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        tables.append(json.loads(proc.stdout))
    assert tables[0] == tables[1] == GOLDEN


# Checks the compiled vision pass against the numpy routing core on
# test_vision's route cases, where the kernel loads, then runs this module's
# __main__: both under the numpy dispatch of the calling environment.
_ROUTE_THEN_PIPELINE = """\
import runpy, sys
from pathlib import Path
sys.path.insert(0, str(Path(sys.argv[1]).parent))
from test_vision import assert_route_matches_numpy, route_cases
from vtcompress import numeric
kernel = numeric._product_kernel()
for _, args, kwargs in route_cases() if kernel is not None else ():
    assert_route_matches_numpy(kernel, args, kwargs)
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def test_bytes_do_not_depend_on_numpy_cpu_dispatch(tmp_path):
    # numpy reads the setting when it loads; a CPU or a numpy build without
    # these features only warns that there is nothing to disable
    env = _env_with_src()
    env["NPY_DISABLE_CPU_FEATURES"] = "AVX512_SPR AVX512_ICL X86_V4"
    proc = subprocess.run(
        [sys.executable, "-c", _ROUTE_THEN_PIPELINE, __file__, str(tmp_path)], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == GOLDEN


# Runs this module's __main__ in a process where cffi and its backend cannot be
# imported, as on an install without cffi, after checking that the kernel's
# loader then gives up.
_WITHOUT_CFFI = """\
import runpy, sys
sys.modules["cffi"] = sys.modules["_cffi_backend"] = None
from vtcompress import numeric
assert numeric._product_kernel() is None, "the kernel loaded without cffi"
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def test_install_without_cffi_matches_golden_hashes(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_CFFI, __file__, str(tmp_path)], cwd=tmp_path,
        env=_env_with_src(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == GOLDEN


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
    "blk_trained.json": "35fe87b0c624f8fdba18e4a2565ababd913ffdd20be312b94fa94685ba6b4074",
    "blk_trained_max.json": "10ed03053e9def1392204b7c953e6fa599a05028068dbb439c5f41b9ac640b9e",
    "blk_trained_max_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
    "blk_trained_text.pgm": "43a150b0d5bc3cd64f2a7dd61488c6d83b63d387ba92505fbd70eb3cc203d4eb",
    "blk_trained_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
    "blk_vision.json": "0544d1356f9b1e3ee767e0832fb76781128ced1aeeb55193601087646350cb2c",
    "blk_vision8.json": "4d0ef44e7a79b9945f0eb406ab0979cc5c7870a6fdea9670c3fd593d3e0fb89d",
    "blk_vision8_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
    "blk_vision_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
    "split_blk.selw": "045806b7ee0460af83ac168f5b3a5c3834825b3dd17187667ddff07479661174",
    "split_uni.selw": "d8613fdc86002d3cff38009efd721ed67556a7fd28ec23d2e25545cecad91e7b",
    "train_7b.json": "a845c4769be24e68f13c5f938d1dd8f0863d818e7df43aa78a83133c0273fa8b",
    "train_7b.selw": "009b0629eaffe8c5004315234dd0280a85c802e7160e1e5811a6211ddd50eacb",
    "train_7b.stdout": "aaadc9ebac77e9450b345e47ebdcd5291ea3ffce2a8f38ba175bbf9e9578f5dc",
    "train_pm.json": "0fba64bc8d1edcd10a800b806d5b78967b6df79ac07eb689ece65c5be54addfa",
    "train_pm.selw": "aec5b1ab1654b85461dda790a4665e7ec87445ed399f1216f85dd6e1f50b5b9a",
    "train_pm.stdout": "273267c5edaacc8ddb674113fb15698ecfe3905b228def29efc217a15e33138d",
    "train_rs.json": "2da19c121a23c92fe624be777e769737666d3c17d2d5a7707772e41e0662c7eb",
    "train_rs.selw": "0c16756bc4e44c75220f2c6361e156208627efc3f9ba635b4a86a77b822bd6e7",
    "train_rs.stdout": "67132016fb0a4bc396bf769bf7930a94710dbf325ae5ec4c6a687473ea56e1e9",
    "train_si.json": "19fbe8199f8a8dfd318318dfa61269cc20722a2b45f2b9f59f4a8e7d1d84b526",
    "train_si.selw": "8b6539d026ef5897220a7449201ee94715a11b90fdaec56cbb0135f13413f8f0",
    "train_si.stdout": "e3412afa3ea605a96cfd116f2257a40cec2889c1ab7da58c7bd019c95f0412e1",
    "uni/k.attn": "cdc25d67f52880c3295d29686e5811d9e1f34d28b9bf370ee4bb053a92f1c105",
    "uni/q.attn": "eeff39da8f12323e2adf37ce61086454f85e0a692e8c42869a73832dc0a0e74c",
    "uni/x.fmap": "3814e4e4b94b83b04b60bb9d2f6e5ca9a7227e311a516283e897425757d2e48c",
    "uni/xg.fmap": "cbafaf8082f581a766b74dfe08d70f262d43ca1838b40e12794f3911cc6f0e9d",
    "uni_both.json": "f69d932563e6808ccacba454018262fb6657bbb099e0168661895becd6b3f39a",
    "uni_both7.json": "79d7ec42d9a5e9665e7c94888b362257114edf4a3a3c79899bcfefe1613b5113",
    "uni_both7_text.pgm": "5e4b750fffdd233e4093157cecfca8e8385418daf0aef7635ddfcf8a8143ce11",
    "uni_both7_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
    "uni_both_text.pgm": "4beca52f4fc2344bb488cfe5da30827ccca60b3fa7e91f9c94526a8e18faa6f3",
    "uni_both_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
    "uni_heuristic.json": "f81c377ddfc6259eff043af57d8f8305d8f8c7a4880167c71f18b0ce7f15e92e",
    "uni_heuristic_heuristic.pgm": "ac7a22d2b75e98774c82f5ea77dca048aa6cae8fbd74a7cae85ebf1e83e36744",
    "uni_report16.json": "4733e7cf73b32fd196398df905072e2b9346e32c3813d7d8ac6ec6521c52799d",
    "uni_split_both.json": "aa6b22332236235a69beafa7c7eba82537833486aab3538326137bccebc6c563",
    "uni_split_both_text.pgm": "78f43e0d715d16e458463bc286e30bdb2dfcd5c065ab1f67f7049d0864788255",
    "uni_split_both_vision.pgm": "ce2f67316783644030a6f9314e5c0d2058a052bfdbe9200ec4206711769e9e36",
    "uni_split_vision.json": "201f4a92357abe28190202861e6951513f1612913bd621943f93f05248390dc1",
    "uni_split_vision_vision.pgm": "ce2f67316783644030a6f9314e5c0d2058a052bfdbe9200ec4206711769e9e36",
    "uni_text.json": "45d7500c4a8d811dd10b8144ebc96afafdb7893f3a16a8093afb710876f73cf7",
    "uni_text_text.pgm": "8e0263c1920781044577e49e58b34b9ed3a2d5cf9e2f3e6605fdf49368a2159b",
    "uni_trained.json": "945f50bc8f0514f2ad250b064f29dbeb4246d94ee0f243ee020dfeeb9766da77",
    "uni_trained_text.pgm": "fe6fb511e64c3e2d9fd61af0c81f19def2bfbf8dbdb880f6edb53252f0be371e",
    "uni_trained_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
    "uni_vision.json": "6765e0cff02d4b691a62e38429bd464d91662e544f55d90798e25c43a34351f2",
    "uni_vision8.json": "34d10f23e8d1ccf260393cf39e586b18d3deb59204d35de1c00f74ca5754e385",
    "uni_vision8_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
    "uni_vision_vision.pgm": "e9a1e3c91d08317bbec6e221a300adc144f40716159cc3ecec833a3efcee3b14",
}


if __name__ == "__main__":
    if len(sys.argv) > 1:  # run in this directory; print the table as JSON
        json.dump(run_pipeline(Path(sys.argv[1])), sys.stdout)
        sys.exit()
    with tempfile.TemporaryDirectory() as tmp:
        table = run_pipeline(Path(tmp))
    sys.stdout.write("GOLDEN: dict[str, str] = {\n")
    for key in sorted(table):
        sys.stdout.write(f'    "{key}": "{table[key]}",\n')
    sys.stdout.write("}\n")
