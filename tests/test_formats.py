import ast
import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vtcompress import numeric
from vtcompress.formats import (
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


def f32_random(rng, shape):
    """Random values that survive the on-disk f32 round trip exactly."""
    return rng.random(shape).astype(np.float32).astype(np.float64)


class TestRoundTrip:
    def test_feature_map_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        t = f32_random(rng, (2, 2, 3))
        path = tmp_path / "t.fmap"
        write_tensor(path, t, MAGIC_FEATURE_MAP)
        back, magic = read_tensor(path)
        assert magic == MAGIC_FEATURE_MAP
        np.testing.assert_array_equal(back, t)

    @pytest.mark.parametrize(
        "magic,shape",
        [
            (MAGIC_FEATURE_MAP, (4, 6, 2)),
            (MAGIC_ATTENTION, (2, 3, 5)),
            (MAGIC_ATTENTION, (3, 2, 3, 5)),
            (MAGIC_SELECTOR, (3, 10)),
        ],
    )
    def test_all_magics(self, tmp_path, magic, shape):
        rng = np.random.default_rng(1)
        t = f32_random(rng, shape)
        path = tmp_path / "t.bin"
        write_tensor(path, t, magic)
        back, m = read_tensor(path)
        assert m == magic
        np.testing.assert_array_equal(back, t)

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        t = f32_random(rng, (3, 3, 4))
        p1, p2 = tmp_path / "a.fmap", tmp_path / "b.fmap"
        write_tensor(p1, t, MAGIC_FEATURE_MAP)
        back, _ = read_tensor(p1)
        write_tensor(p2, back, MAGIC_FEATURE_MAP)
        assert p1.read_bytes() == p2.read_bytes()

    def test_overwrite_replaces_content(self, tmp_path):
        path = tmp_path / "t.fmap"
        write_tensor(path, np.ones((1, 1, 1)), MAGIC_FEATURE_MAP)
        write_tensor(path, np.full((1, 1, 1), 2.0), MAGIC_FEATURE_MAP)
        back, _ = read_tensor(path)
        np.testing.assert_array_equal(back, [[[2.0]]])

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_random_attention_shapes(self, seed, extra):
        import tempfile

        rng = np.random.default_rng(seed)
        shape = tuple(int(rng.integers(1, 5)) for _ in range(3))
        t = f32_random(rng, shape)
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/t.attn"
            write_tensor(path, t, MAGIC_ATTENTION)
            back, _ = read_tensor(path)
            np.testing.assert_array_equal(back, t)


@st.composite
def tensor_file_bytes(draw):
    """A valid magic and version, then a dim list and a payload that are mostly
    well formed: a dim count the magic allows, dims >= 1 and a payload of the
    right length, either random bytes or f32 values (non-finite ones too)."""
    magic, allowed = draw(st.sampled_from([(b"FMAP", 3), (b"ATTN", 3), (b"ATTN", 4), (b"SELW", 2)]))
    ndims = draw(st.sampled_from([allowed] * 3 + [0, 1, 5, 2**32 - 1]))
    dims = draw(st.lists(st.sampled_from([1, 2, 3] * 3 + [0]),
                         min_size=min(ndims, 5), max_size=min(ndims, 5)))
    n = 4 * int(np.prod(dims))
    size = max(draw(st.sampled_from([n] * 3 + [n - 1, n + 4, 0])), 0)
    payload = draw(
        st.binary(min_size=size, max_size=size)
        | st.lists(st.floats(width=32), min_size=size // 4, max_size=size // 4).map(
            lambda values: struct.pack(f"<{len(values)}f", *values))
    )
    return struct.pack("<4sII", magic, 1, ndims) + struct.pack(f"<{len(dims)}I", *dims) + payload


class TestMalformedFiles:
    @given(raw=st.binary(max_size=64) | tensor_file_bytes())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_bytes_raise_only_tensor_file_errors(self, raw, tmp_path):
        path = tmp_path / "fuzz.bin"
        path.write_bytes(raw)
        try:
            tensor, magic = read_tensor(path)
        except TensorFileError:
            return
        assert magic in (MAGIC_FEATURE_MAP, MAGIC_ATTENTION, MAGIC_SELECTOR)
        assert np.isfinite(tensor).all()

    def _valid_bytes(self):
        import io

        arr = np.arange(8, dtype="<f4")
        return (
            struct.pack("<4sII", b"FMAP", 1, 3)
            + struct.pack("<3I", 2, 2, 2)
            + arr.tobytes()
        )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"XXXX" + self._valid_bytes()[4:])
        with pytest.raises(BadMagicError):
            read_tensor(path)

    def test_bad_version(self, tmp_path):
        raw = bytearray(self._valid_bytes())
        raw[4:8] = struct.pack("<I", 7)
        path = tmp_path / "bad"
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersionError):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        raw = self._valid_bytes()
        path = tmp_path / "bad"
        path.write_bytes(raw[:-4])  # one float short
        with pytest.raises(TruncatedPayloadError):
            read_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"FM")
        with pytest.raises(TruncatedPayloadError):
            read_tensor(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(self._valid_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(TensorFileError):
            read_tensor(path)

    def test_dims_magic_mismatch(self, tmp_path):
        # SELW magic with 3 dims
        arr = np.arange(8, dtype="<f4")
        raw = (
            struct.pack("<4sII", b"SELW", 1, 3)
            + struct.pack("<3I", 2, 2, 2)
            + arr.tobytes()
        )
        path = tmp_path / "bad"
        path.write_bytes(raw)
        with pytest.raises(DimsMismatchError):
            read_tensor(path)

    def test_non_finite_payload(self, tmp_path):
        arr = np.array([np.inf] + [0.0] * 7, dtype="<f4")
        raw = (
            struct.pack("<4sII", b"FMAP", 1, 3)
            + struct.pack("<3I", 2, 2, 2)
            + arr.tobytes()
        )
        path = tmp_path / "bad"
        path.write_bytes(raw)
        with pytest.raises(NonFiniteDataError):
            read_tensor(path)

    def test_signaling_nan_payload_rejected_without_a_warning(self, tmp_path):
        raw = (
            struct.pack("<4sII", b"SELW", 1, 2)
            + struct.pack("<2I", 1, 2)
            + struct.pack("<2I", 0x7F800001, 0)  # a signaling NaN, then 0.0
        )
        path = tmp_path / "snan"
        path.write_bytes(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would add a line to the CLI's stderr
            with pytest.raises(NonFiniteDataError):
                read_tensor(path)

    def test_write_rejects_wrong_dim_count(self, tmp_path):
        with pytest.raises(DimsMismatchError):
            write_tensor(tmp_path / "t", np.zeros((2, 2)), MAGIC_FEATURE_MAP)

    def test_write_rejects_zero_dim(self, tmp_path):
        with pytest.raises(DimsMismatchError):
            write_tensor(tmp_path / "t", np.zeros((0, 2, 2)), MAGIC_FEATURE_MAP)

    def test_write_rejects_unknown_magic(self, tmp_path):
        with pytest.raises(BadMagicError):
            write_tensor(tmp_path / "t", np.zeros((2, 2, 2)), "NOPE")

    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_write_refuses_values_float32_cannot_hold(self, value, tmp_path):
        path = tmp_path / "t"
        tensor = np.zeros((2, 2, 2))
        tensor[1, 0, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would add a line to the CLI's stderr
            with pytest.raises(ValueError, match="float32") as caught:
                write_tensor(path, tensor, MAGIC_FEATURE_MAP)
        assert not isinstance(caught.value, TensorFileError)  # invalid input, not a bad file
        assert not path.exists()

    def test_write_keeps_float32_extremes(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        above = float(np.nextafter(top, math.inf))  # rounds down to top, not up to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_tensor(tmp_path / "t", np.array([[[top, -top, above]]]), MAGIC_FEATURE_MAP)
        back, _ = read_tensor(tmp_path / "t")
        assert back.tolist() == [[[top, -top, top]]]


class TestHeatmap:
    def test_pgm_min_max_normalization(self, tmp_path):
        path = tmp_path / "h.pgm"
        export_heatmap(np.array([[0.0, 1.0]]), "pgm", path)
        text = path.read_text()
        assert text == "P2\n2 1\n255\n0 255\n"

    def test_constant_map_all_zero(self, tmp_path):
        path = tmp_path / "h.pgm"
        export_heatmap(np.full((2, 2), 7.0), "pgm", path)
        lines = path.read_text().splitlines()
        assert lines[3:] == ["0 0", "0 0"]

    def test_pgm_intensity_order_matches_value_order(self, tmp_path):
        rng = np.random.default_rng(3)
        grid = rng.random((5, 7))
        path = tmp_path / "h.pgm"
        export_heatmap(grid, "pgm", path)
        body = path.read_text().split("\n", 3)[3]
        pixels = np.array([int(v) for v in body.split()]).reshape(5, 7)
        assert pixels.min() >= 0 and pixels.max() <= 255
        flat_v = grid.ravel()
        flat_p = pixels.ravel()
        for i in range(flat_v.size):
            for j in range(flat_v.size):
                if flat_v[i] < flat_v[j]:
                    assert flat_p[i] <= flat_p[j]
        # Thin, single-pixel and constant grids and every pixel value as a row, a
        # column and a square too, byte for byte as one join per row wrote.
        every = np.arange(256.0)
        for grid in [grid, *map(rng.standard_normal, [(1, 1), (1, 7), (7, 1), (5, 13)]),
                     np.full((3, 4), -2.5), every[None], every[:, None], every.reshape(16, 16)]:
            export_heatmap(grid, "pgm", path)
            h, w = grid.shape
            lo, hi = grid.min(), grid.max()
            pixels = (np.floor((grid - lo) / (hi - lo) * 255.0 + 0.5).astype(int) if hi > lo
                      else np.zeros((h, w), dtype=int))
            rows = "".join(" ".join(map(str, row)) + "\n" for row in pixels.tolist())
            assert path.read_text() == f"P2\n{w} {h}\n255\n" + rows

    @pytest.mark.parametrize("grid", [
        [[0.0, 9.0, 10.0, 99.0, 100.0, 255.0]],  # pixels of one, two and three digits
        [[0.0], [9.0], [10.0], [99.0], [100.0], [255.0]],
        [[3.0]],
        np.full((3, 4), -2.5),
        [[-1e308, 1e308], [0.0, 1.0]],  # halved first
        np.random.default_rng(6).standard_normal((24, 24)),
    ], ids=["one-row", "one-column", "one-pixel", "constant", "halved", "24x24"])
    def test_pgm_is_the_same_bytes_without_the_kernel(self, grid, tmp_path):
        export_heatmap(grid, "pgm", tmp_path / "kernel.pgm")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numeric, "_product_kernel", lambda: None)
            export_heatmap(grid, "pgm", tmp_path / "template.pgm")
        assert (tmp_path / "kernel.pgm").read_bytes() == (tmp_path / "template.pgm").read_bytes()

    def test_pgm_range_wider_than_a_float(self, tmp_path):
        path = tmp_path / "h.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            export_heatmap([[-1e308, 1e308], [0.0, 1.0]], "pgm", path)
        body = path.read_text().split("\n", 3)[3]
        pixels = [int(v) for v in body.split()]
        assert all(0 <= v <= 255 for v in pixels)
        assert pixels[0] == 0 and pixels[1] == 255

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        grid = rng.standard_normal((3, 4))
        path = tmp_path / "h.csv"
        export_heatmap(grid, "csv", path)
        rows = [
            [float(cell) for cell in line.split(",")]
            for line in path.read_text().strip().split("\n")
        ]
        np.testing.assert_allclose(np.array(rows), grid, atol=1e-6)

    def test_csv_writes_each_value_as_its_repr(self, tmp_path):
        grid = np.array([[-0.0, 5e-324, 1e16], [1e-05, 0.1, -2.5e-300]])
        path = tmp_path / "h.csv"
        export_heatmap(grid, "csv", path)
        expected = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in grid)
        assert expected == "-0.0,5e-324,1e+16\n1e-05,0.1,-2.5e-300\n"
        assert path.read_bytes() == expected.encode()


class TestSynthetic:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = SyntheticConfig(height=8, width=8, channels=4, global_height=4,
                              global_width=4, heads=2, text_tokens=3, head_dim=6, seed=11)
        meta_a = gen_synthetic(cfg, tmp_path / "a")
        meta_b = gen_synthetic(cfg, tmp_path / "b")
        for name in ("x", "xg", "q", "k"):
            a = open(meta_a["paths"][name], "rb").read()
            b = open(meta_b["paths"][name], "rb").read()
            assert a == b

    def test_shapes(self, tmp_path):
        cfg = SyntheticConfig(height=8, width=8, channels=4, global_height=2,
                              global_width=2, heads=2, text_tokens=3, head_dim=5, seed=0)
        meta = gen_synthetic(cfg, tmp_path)
        x, _ = read_tensor(meta["paths"]["x"])
        xg, _ = read_tensor(meta["paths"]["xg"])
        q, _ = read_tensor(meta["paths"]["q"])
        k, _ = read_tensor(meta["paths"]["k"])
        assert x.shape == (8, 8, 4)
        assert xg.shape == (2, 2, 4)
        assert q.shape == (2, 3, 5)
        assert k.shape == (2, 64, 5)

    def test_block_structure_contrast(self, tmp_path):
        cfg = SyntheticConfig(height=24, width=24, channels=4, seed=5,
                              structure="block-structured")
        meta = gen_synthetic(cfg, tmp_path)
        x, _ = read_tensor(meta["paths"]["x"])
        mask = np.zeros((24, 24), dtype=bool)
        for top, left, rh, rw in meta["rectangles"]:
            mask[top : top + rh, left : left + rw] = True
        assert mask.any() and not mask.all()
        inside = x[mask].var()
        outside = x[~mask].var()
        assert inside > outside

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(height=0)
        with pytest.raises(ValueError):
            SyntheticConfig(structure="spiral")


def test_every_file_written_by_write_bytes():
    """Under src/ only ``formats.write_bytes`` opens a file to write: no other
    call to ``os.open``, ``os.write``, ``Path.open`` or ``Path.write_bytes``,
    and the one ``open`` reads."""
    src = Path(__file__).resolve().parents[1] / "src"
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_bytes(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr in ("open", "write",
                                                                           "write_bytes"):
                found.append(f"{path.name}:{ast.unparse(node.func)}")
            elif isinstance(node.func, ast.Name) and node.func.id == "open":
                found.append(f"{path.name}:{ast.unparse(node)}")
    assert sorted(found) == ["cli.py:sys.stdout.write", "formats.py:open(path, 'rb')",
                             "formats.py:os.open", "formats.py:os.write"]
