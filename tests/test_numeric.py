import ast
import json
import math
import re
import shutil
import subprocess
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vtcompress import _kernel, numeric, textsampler
from vtcompress.numeric import as_tensor, finite_diff_grad, matmul, softmax, stable_sort_desc

from oracles import max_pool
from test_report import _compressed_both_report, _nested
from test_vision import assert_route_matches_numpy, route_cases
from vtcompress.report import _dumps
from vtcompress.vision import default_menu, seven_branch_menu

SRC = Path(__file__).resolve().parents[1] / "src"


def _can_build() -> bool:
    """Whether ``_kernel.load`` can build: ``_cffi_backend`` (which the loader
    imports) and ``cffi`` (which the build child imports) import, and the C
    compiler is on the path. An installed module that fails to import counts
    as missing."""
    try:
        import _cffi_backend  # noqa: F401
        import cffi  # noqa: F401
    except ImportError:
        return False
    return shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0]) is not None


CAN_BUILD = _can_build()
needs_compiler = pytest.mark.skipif(not CAN_BUILD, reason="cffi or a C compiler is missing")


def matmul_oracle(a, b):
    """Naive triple loop, k ascending. Independent of the library path."""
    m, kk = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for k in range(kk):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestAsTensor:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            as_tensor([1.0, bad])


class TestMatmul:
    def test_identity(self):
        a = np.array([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(matmul(np.eye(2), a), a)

    def test_hand_case(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        np.testing.assert_array_equal(out, [[11.0]])

    def test_zero_left_operand(self):
        out = matmul(np.zeros((2, 3)), np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_bit_exact_against_triple_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.standard_normal((10, 10))
            b = rng.standard_normal((10, 10))
            np.testing.assert_array_equal(matmul(a, b), matmul_oracle(a, b))


# Square, single-row and single-column outputs of 256 elements and just over,
# the six products of the selector training step on the 36-region task (the
# logits, the weight gradient, the weighted token sum, the two gradient
# projections and the balance term), and empty outputs.
_MATMUL_SHAPES = st.sampled_from(
    [(16, 16), (257, 1), (1, 257), (17, 16), (36, 3), (3, 36), (1, 4), (36, 1), (1, 1),
     (24, 24), (0, 5), (5, 0), (0, 0)]
) | st.tuples(st.integers(0, 20), st.integers(0, 20))
_MATMUL_K = st.sampled_from([0, 1, 2, 3, 36, 300]) | st.integers(0, 40)
# Signed zeros and magnitudes whose sums cancel exactly, so a change of
# accumulation order or of the sign of a zero shows in the bytes.
_MATMUL_ELEMENTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e16, -1e16]) | st.floats(
    -1e3, 1e3, allow_nan=False, allow_infinity=False
)


_LAYOUTS = st.sampled_from(["c", "transposed", "strided"])


def _operand(draw, shape, layout):
    """A float64 operand of ``shape`` laid out as callers pass them."""
    rows, cols = shape
    if layout == "transposed":  # like params.weight.T or d_logits.T
        return draw(arrays(np.float64, (cols, rows), elements=_MATMUL_ELEMENTS)).T
    if layout == "strided":  # every other column of a wider array
        return draw(arrays(np.float64, (rows, 2 * cols), elements=_MATMUL_ELEMENTS))[:, ::2]
    return draw(arrays(np.float64, shape, elements=_MATMUL_ELEMENTS))


class TestMatmulAgainstOracle:
    """``matmul`` reproduces the scalar triple loop byte for byte."""

    @staticmethod
    def _check(a, b):
        out = matmul(a, b)
        want = matmul_oracle(a, b)
        assert out.shape == want.shape and out.dtype == np.float64
        assert out.tobytes() == want.tobytes()
        assert out.flags.c_contiguous and out.flags.owndata
        return out

    @staticmethod
    def _random_case(data, shape, kk, layout_a, layout_b):
        m, n = shape
        a = _operand(data.draw, (m, kk), layout_a)
        b = _operand(data.draw, (kk, n), layout_b)
        TestMatmulAgainstOracle._check(a, b)

    @given(st.data(), _MATMUL_SHAPES, _MATMUL_K, _LAYOUTS, _LAYOUTS)
    @settings(max_examples=150, deadline=None)
    def test_random_operands(self, data, shape, kk, layout_a, layout_b):
        self._random_case(data, shape, kk, layout_a, layout_b)

    @pytest.mark.parametrize("m, n, kk", [
        (16, 16, 511),
        (16, 16, 576),
        (1, 4, 32768),  # a tiny output with a very long sum
        (17, 16, 576),
    ])
    def test_large_k(self, m, n, kk):
        rng = np.random.default_rng(kk)
        self._check(rng.standard_normal((m, kk)), rng.standard_normal((kk, n)))

    @pytest.mark.parametrize("shape", [(16, 16), (257, 1), (36, 3)])
    def test_negative_zero_products_become_positive(self, shape):
        m, n = shape
        a = np.full((m, 5), -0.0)
        b = np.ones((5, n))
        assert not np.signbit(self._check(a, b)).any()

    @pytest.mark.parametrize("shape", [(16, 16), (1, 257)])
    def test_cancellation_follows_k_order(self, shape):
        # ((1e16 + 1) - 1e16) + 1 == 1 in k-order; pairwise order,
        # (1e16 + 1) + (-1e16 + 1), would give 0.
        m, n = shape
        a = np.tile([1e16, 1.0, -1e16, 1.0], (m, 1))
        b = np.ones((4, n))
        np.testing.assert_array_equal(self._check(a, b), np.ones((m, n)))


class TestNumpyLayoutsAgainstOracle(TestMatmulAgainstOracle):
    """The same oracle tests with the compiled kernel forced off."""

    @pytest.fixture(autouse=True, scope="class")
    def _numpy_layouts(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numeric, "_product_kernel", lambda: None)
            yield

    # Hypothesis needs a test function of this class's own.
    @given(st.data(), _MATMUL_SHAPES, _MATMUL_K, _LAYOUTS, _LAYOUTS)
    @settings(max_examples=150, deadline=None)
    def test_random_operands(self, data, shape, kk, layout_a, layout_b):
        self._random_case(data, shape, kk, layout_a, layout_b)


class TestProductKernel:
    # square and narrow outputs, long sums, empty shapes
    SHAPES = [(36, 36, 3), (16, 16, 16), (17, 16, 576), (1, 1200, 4), (5, 3, 0), (0, 3, 2),
              (2, 0, 3)]

    @needs_compiler
    def test_default_backend_is_the_kernel(self):
        assert numeric._product_kernel() is not None

    @needs_compiler
    def test_cold_cache_build_is_silent_and_matches_numpy_layouts(self, tmp_path, capfd,
                                                                  monkeypatch):
        kernel = _kernel.load(tmp_path)
        assert capfd.readouterr() == ("", "")
        assert kernel is not None
        (built,) = tmp_path.iterdir()  # the module only; the build directory is gone
        assert built.name.startswith("_vtcompress_kernel_")
        rng = np.random.default_rng(11)
        for m, kk, n in self.SHAPES:
            a = rng.standard_normal((m, kk))
            a[:, ::3] = -0.0
            b = np.asfortranarray(rng.standard_normal((kk, n)))
            out = kernel(a, b, np.empty((m, n)))
            assert out.tobytes() == numeric._k_loop(a, b, np.empty((m, n))).tobytes()

        def no_build(*args):
            raise AssertionError("a warm cache must not build")

        monkeypatch.setattr(_kernel, "_build", no_build)
        assert _kernel.load(tmp_path) is not None

    @needs_compiler
    def test_failed_build_returns_none_silently_and_once(self, tmp_path, capfd, monkeypatch):
        assert _kernel.load(tmp_path, source="this is not C") is None
        assert capfd.readouterr() == ("", "")
        (log,) = tmp_path.iterdir()  # the build's output; the build directory is gone
        assert log.name.endswith(".failed.log") and "error" in log.read_text()

        def no_build(*args):
            raise AssertionError("a failed build must not be retried")

        monkeypatch.setattr(_kernel, "_build", no_build)
        assert _kernel.load(tmp_path, source="this is not C") is None

    @needs_compiler
    def test_build_prunes_modules_of_other_sources(self, tmp_path):
        old = _kernel.load(tmp_path, source=_kernel.SOURCE + "/* an older source */\n")
        assert old is not None
        (tmp_path / "_vtcompress_kernel_0.failed.log").write_text("an older failed build")
        assert _kernel.load(tmp_path) is not None
        (built,) = tmp_path.iterdir()  # the newer module only
        assert built.name.startswith("_vtcompress_kernel_")
        a, b = np.arange(6.0).reshape(2, 3), np.arange(12.0).reshape(3, 4)
        want = numeric._k_loop(a, b, np.empty((2, 4)))
        assert old(a, b, np.empty((2, 4))).tobytes() == want.tobytes()

    def test_unwritable_cache_returns_none(self, tmp_path, capfd):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert _kernel.load(blocker / "cache") is None
        assert capfd.readouterr() == ("", "")

    def test_operand_shapes_checked_before_the_call(self):
        kernel = numeric._product_kernel()
        if kernel is None:
            pytest.skip("the product kernel is not available")
        with pytest.raises(ValueError, match="cannot write"):
            kernel(np.ones((2, 3)), np.ones((4, 2)), np.empty((2, 2)))
        with pytest.raises(ValueError, match="cannot write"):
            kernel(np.ones((2, 3)), np.ones((3, 2)), np.empty((2, 3)))


# Arguments that each of the kernel's C passes runs on; the guard test below
# changes one of them at a time.
_GOOD_CALLS = {
    "route": dict(feature_map=np.ones((8, 8, 2)), global_rows=np.ones((5, 2)),
                  weight=np.ones((3, 5)), bias=np.zeros(3), menu=default_menu(4), pool="mean",
                  forced=None),
    "attention": dict(q=np.ones((2, 3, 4)), k=np.ones((2, 5, 4)), scale=0.5),
    "train": dict(scores=np.ones((4, 5)), sums=np.ones((3, 4, 2)), counts=(1, 4, 16),
                  weight=np.ones((3, 5)), bias=np.zeros(3), target=np.zeros(2), alpha=0.1,
                  imbalance=np.ones(3), learning_rate=0.5, steps=2),
    "history": dict(prefix=b"", losses=np.ones(2), f=np.ones((2, 3)), p=np.ones((2, 3))),
}


@pytest.mark.parametrize("method, change, match", [
    ("route", dict(feature_map=np.ones((6, 8, 2))), "cannot route"),
    ("route", dict(feature_map=np.ones((0, 8, 2))), "cannot route"),
    ("route", dict(global_rows=np.ones((5, 3))), "cannot route"),
    ("route", dict(global_rows=np.ones((4, 2))), "cannot route"),
    ("route", dict(bias=np.zeros(2)), "cannot route"),
    ("route", dict(menu=seven_branch_menu(4)), "cannot route .* and 7 scales"),
    ("route", dict(forced=np.zeros(3, np.int64)), "cannot force"),
    ("route", dict(forced=np.array([0, 1, 2, 3])), "cannot force"),
    ("attention", dict(k=np.ones((2, 5, 3))), "cannot attend"),
    ("attention", dict(k=np.ones((1, 5, 4))), "cannot attend"),
    ("attention", dict(q=np.ones((2, 4, 3)).transpose(0, 2, 1)), "cannot attend"),
    ("train", dict(sums=np.ones((3, 5, 2))), "cannot train on the shapes"),
    ("train", dict(counts=(1, 4)), "cannot train on the shapes"),
    ("train", dict(weight=np.ones((3, 4))), "cannot train on the shapes"),
    ("train", dict(bias=np.zeros(2)), "cannot train on the shapes"),
    ("train", dict(target=np.zeros(3)), "cannot train on the shapes"),
    ("train", dict(imbalance=np.ones(2)), "cannot train on the shapes"),
    ("history", dict(f=np.ones((3, 3))), "cannot lay out losses"),
    ("history", dict(p=np.ones((2, 4))), "cannot lay out losses"),
], ids=["route-window", "route-empty-map", "route-global-channels", "route-global-rows",
        "route-bias", "route-menu-length", "force-count", "force-range", "attend-dim",
        "attend-heads", "attend-not-contiguous", "train-sums", "train-counts", "train-weight",
        "train-bias", "train-target", "train-imbalance", "history-f", "history-p"])
def test_kernel_shape_guards_raise_before_c(method, change, match):
    """Each of ``_kernel.Kernel``'s passes raises a ``ValueError`` for a shape
    that does not fit its other arguments, before its C code reads them."""
    kernel = numeric._product_kernel()
    if kernel is None:
        pytest.skip("the product kernel is not available")
    getattr(kernel, method)(**_GOOD_CALLS[method])
    with pytest.raises(ValueError, match=match):
        getattr(kernel, method)(**{**_GOOD_CALLS[method], **change})


# _MATMUL_ELEMENTS with subnormals, whose products underflow to signed zeros.
_KERNEL_ELEMENTS = _MATMUL_ELEMENTS | st.sampled_from([5e-324, -5e-324, 3e-310, -2.2e-308])


class TestTiledKernel:
    """The loaded kernel's tiles against the numpy layout on shapes that cross
    every tile boundary: full and padded row tiles, every column width and
    padded tail, and sums over one and two blocks of k."""

    @pytest.fixture(autouse=True)
    def _kernel_loaded(self):
        if numeric._product_kernel() is None:
            pytest.skip("the product kernel is not available")

    @given(st.data(), st.integers(0, 9), st.integers(0, 40),
           st.sampled_from([0, 1]) | st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_layout(self, data, m, n, kk):
        a = data.draw(arrays(np.float64, (m, kk), elements=_KERNEL_ELEMENTS))
        b = data.draw(arrays(np.float64, (kk, n), elements=_KERNEL_ELEMENTS))
        got = numeric._product_kernel()(a, b, np.empty((m, n)))
        assert got.tobytes() == numeric._k_loop(a, b, np.empty((m, n))).tobytes()


class TestStepKernel:
    """The pieces of the compiled training step that numpy does not check by itself;
    tests/test_training.py compares the whole step with the numpy step."""

    @pytest.fixture
    def kernel(self):
        kernel = numeric._product_kernel()
        if kernel is None:
            pytest.skip("the product kernel is not available")
        return kernel

    def test_sum_matches_ndarray_sum(self, kernel):
        # pairwise below 8, from 8 to 128 and recursive above; signed zeros and cancellation
        rng = np.random.default_rng(5)
        for n in range(301):
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
            values[::11] = 1e16
            values[5::13] = -1e16
            for a in (values, np.full(n, -0.0), -np.abs(values)):
                got = kernel.lib.vtc_sum(kernel.ffi.from_buffer("double[]", a), n)
                assert np.float64(got).tobytes() == a.sum().tobytes(), n

    def test_train_writes_no_input_and_keeps_nothing(self, kernel):
        rng = np.random.default_rng(3)
        m, ng, s, c = 6, 4, 3, 2
        arrays = [rng.standard_normal((m, ng)), rng.standard_normal((s, m, c)),
                  np.array([1, 4, 16], dtype=np.int64), rng.standard_normal((s, ng)),
                  rng.standard_normal(s), rng.standard_normal(c), np.array([0.9, 1.0, 1.1])]
        for a in arrays[:3]:  # a batch's arrays may be read-only
            a.flags.writeable = False
        scores, sums, counts, weight, bias, target, imbalance = arrays
        before = [a.tobytes() for a in arrays]

        def train():
            return kernel.train(scores, sums, counts, weight, bias, target, 0.1, imbalance, 0.5, 4)

        first = train()
        status, index, loss, new_weight, new_bias, history = first
        assert (status, index) == (kernel.lib.VTC_OK, 4) and np.isfinite(loss)
        assert [a.tobytes() for a in arrays] == before
        assert new_weight.tobytes() != weight.tobytes()  # it trained
        outputs = [new_weight, new_bias, *history]
        assert not [(i, j) for i, out in enumerate(outputs) for j, a in enumerate(arrays)
                    if np.shares_memory(out, a)]
        kept = [out.tobytes() for out in outputs]
        second = train()
        assert [out.tobytes() for out in outputs] == kept  # the first call's results stay
        assert second[:3] == first[:3]
        assert [out.tobytes() for out in (*second[3:5], *second[5])] == kept

    @needs_compiler
    @pytest.mark.parametrize("mutation", [
        ("if (n < 8) {", "if (n < 1000) {"),  # every sum sequential
        ("x[k] = x[k] - lr * g[k];", "x[k] = fma(-lr, g[k], x[k]);"),  # a fused update
        ("x[j] /= total;", "x[j] *= 1.0 / total;"),  # attention rows times a reciprocal
        ("|| last >= 5);", "|| last > 5);"),  # a last digit of 5 rounded down
        ("hi + (vtc_exp_lo[j] + hi * p)", "hi + fma(hi, p, vtc_exp_lo[j])"),  # a fused exp
        ("under = -(uint64_t)(v < -746.0)", "under = -(uint64_t)(v < -745.0)"),  # early underflow
        # tiles whose accumulators start at -0.0 instead of the +0.0 in o
        ("acc[r][v] = *(const V *)(o[r] + v * w);", "acc[r][v] = -*(const V *)(o[r] + v * w);"),
        # tiles that drop every block of k after the first
        ("k0 < kk; k0 += VTC_KC", "k0 < kk && k0 < VTC_KC; k0 += VTC_KC"),
        ('q = PUT(q, end, ",\\n");', 'q = PUT(q, end, ", \\n");'),  # a history entry separator
        ('"000102030405060708', '"000102030405067008'),  # the digit pair 07 written as 70
        # a one-channel region mean summed sequentially instead of pairwise
        ("out[0] = 0.0 + pairwise(strip, w * w);",
         "out[0] = 0.0;\n        for (size_t k = 0; k < w * w; k++)\n"
         "            out[0] += strip[k];"),
        ("return v >= acc ? v : acc;", "return v > acc ? v : acc;"),  # the earlier of tied maxima
        ("if (row[j] > row[top])", "if (row[j] >= row[top])"),  # a row's last tied maximum
        ("j += in[j] == '\\\\' ? 2 : 1;", "j += 1;"),  # a string that ends at an escaped quote
        # an empty list laid out as [\n]
        ("len = put_byte(out, len, capacity, in[++i]);",
         "len = put_byte(out, put_byte(out, len, capacity, '\\n'), capacity, in[++i]);"),
    ], ids=["sequential-sum", "fused-update", "reciprocal-attention", "repr-rounding", "fused-exp",
            "early-underflow", "tile-negative-zero-start", "tile-first-k-block-only",
            "history-separator", "swapped-digit-pair", "sequential-region-mean",
            "earlier-max-tie", "last-tied-max", "string-ends-at-escaped-quote",
            "empty-list-on-two-lines"])
    def test_probe_rejects_a_build_with_other_bits(self, mutation, tmp_path, monkeypatch):
        source = _kernel.SOURCE.replace(*mutation)
        assert source != _kernel.SOURCE
        verdicts = []

        def exact(kernel):
            verdicts.append(real_exact(kernel))
            return verdicts[-1]

        real_exact = _kernel._exact
        monkeypatch.setattr(_kernel, "_exact", exact)
        assert _kernel.load(tmp_path, source=source) is None
        assert verdicts == [False]  # built and loaded, then rejected by the probe


class TestLayoutKernel:
    """What the compiled JSON layout pass refuses; tests/test_report.py compares
    its bytes with json's."""

    @pytest.fixture
    def kernel(self):
        kernel = numeric._product_kernel()
        if kernel is None:
            pytest.skip("the product kernel is not available")
        return kernel

    @pytest.mark.parametrize("text", ["]", "[1]]", '{"a": 1}}'])
    def test_unbalanced_text_refused(self, kernel, text):
        with pytest.raises(ValueError, match="unbalanced"):
            kernel.indent(text)


class TestReprKernel:
    """The compiled formatter writes ``repr``'s bytes for every finite double."""

    @pytest.fixture(autouse=True)
    def _kernel_loaded(self):
        if numeric._product_kernel() is None:
            pytest.skip("the product kernel is not available")

    @staticmethod
    def _reprs(values) -> list[bytes]:
        """Each value as :meth:`Kernel.history` writes it: a one-step history
        whose f lists the values, one to a line."""
        values = np.asarray(values, dtype=np.float64).ravel()
        text = numeric._product_kernel().history(b"", values[:1], values[None], values[None])
        f = bytes(text).split(b'"f": [\n')[1].split(b"\n      ]")[0]
        return [line.strip().rstrip(b",") for line in f.split(b"\n")]

    @classmethod
    def _check(cls, values):
        values = np.asarray(values, dtype=np.float64)
        want = [repr(v).encode() for v in values.tolist()]
        mismatched = [(w, g) for w, g in zip(want, cls._reprs(values)) if w != g]
        assert not mismatched, mismatched[:10]

    def test_powers_of_two_and_ten_and_their_neighbours(self):
        powers = np.array([math.ldexp(1.0, e) for e in range(-1074, 1024)]
                          + [float(f"1e{e}") for e in range(-323, 309)])
        around = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        self._check(np.concatenate([around, -around]))

    def test_zeros_and_the_longest_reprs(self):
        longest = [-2.2250738585072014e-308, -1.7976931348623157e308]
        self._check([0.0, -0.0, *longest])
        assert [len(cell) for cell in self._reprs(longest)] == [24, 24]

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(19)
        values = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
        self._check(values[np.isfinite(values)])

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_matches_repr(self, values):
        self._check(values)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_refused(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            self._reprs([1.0, value, 2.0])


def test_source_compiles_without_warnings(tmp_path):
    """The C source passes the common warnings as errors, so that a sign or
    shift slip in its integer code fails here rather than in a silent build."""
    compiler = (sysconfig.get_config_var("CC") or "cc").split()
    if shutil.which(compiler[0]) is None:
        pytest.skip("no C compiler")
    source = tmp_path / "kernel.c"
    source.write_text(_kernel.SOURCE)
    result = subprocess.run([*compiler, "-std=c11", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                             str(source)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def _cpu_flags() -> set[str]:
    """The instruction-set flags of the first CPU in /proc/cpuinfo (empty elsewhere)."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


_CLONES = 'target_clones("avx512f", "avx2", "default")'
_HAS_AVX512F, _HAS_AVX2 = '__builtin_cpu_supports("avx512f")', '__builtin_cpu_supports("avx2")'
# The kernels built for one target each: the plain product loop and the
# baseline exponential, and the tiles and the clone of vtc_exp that each wide
# target runs in the shipped source.
_TARGET_SOURCES = {
    "default": _kernel.SOURCE.replace(f"__attribute__(({_CLONES}))", "")
    .replace(_HAS_AVX512F, "0").replace(_HAS_AVX2, "0"),
    "avx2": _kernel.SOURCE.replace(_CLONES, 'target("avx2")')
    .replace(_HAS_AVX512F, "0").replace(_HAS_AVX2, "1"),
    "avx512f": _kernel.SOURCE.replace(_CLONES, 'target("avx512f")').replace(_HAS_AVX512F, "1"),
}


@pytest.mark.parametrize("target", sorted(_TARGET_SOURCES))
def test_target_source_compiles_without_warnings(target, tmp_path):
    """Each target's source compiles to an object with the build's flags and
    the common warnings as errors, so that a vector-ABI (-Wpsabi) warning or
    a helper that its build never calls fails here rather than in a silent
    build."""
    compiler = (sysconfig.get_config_var("CC") or "cc").split()
    if shutil.which(compiler[0]) is None:
        pytest.skip("no C compiler")
    source = tmp_path / "kernel.c"
    source.write_text(_TARGET_SOURCES[target])
    result = subprocess.run([*compiler, "-std=c11", "-Wall", "-Wextra", "-Werror", *_kernel.FLAGS,
                             "-c", str(source), "-o", str(tmp_path / "kernel.o")],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


class TestKernelTargets:
    """Every target's product writes the numpy layout's bits: row counts that
    fill, pad and repeat a tile, rows that end inside, at and just past each
    tile width, one and two blocks of k, signed zeros and subnormals; and
    every clone of ``vtc_exp`` writes the numpy exponential's bits: the probe's
    edges, a sweep of its range and random bit patterns, in lengths that end
    inside, at and just past a vector; every target's vision pass writes
    the numpy routing core's bytes and errors on ``test_vision.route_cases``;
    and every target's JSON layout pass writes ``json.dumps(indent=2)``'s
    bytes for the load-time probe's values, a compressed report and a deep
    nesting."""

    @needs_compiler
    @pytest.mark.parametrize("target", sorted(_TARGET_SOURCES))
    def test_target_matches_numpy_layout(self, target, tmp_path):
        source = _TARGET_SOURCES[target]
        assert source != _kernel.SOURCE
        if target != "default" and target not in _cpu_flags():
            pytest.skip(f"this CPU has no {target}")
        kernel = _kernel.load(tmp_path, source=source)
        assert kernel is not None
        rng = np.random.default_rng(3)
        widths = (1, 2, 7, 8, 9, 12, 16, 17, 31, 33, 36, 576)
        shapes = [(m, n, kk) for m in (1, 3, 4, 5, 8) for n in widths for kk in (0, 1, 37)]
        for m, n, kk in shapes + [(5, 31, 300), (130, 36, 8)]:
            a = rng.standard_normal((m, kk))
            b = rng.standard_normal((kk, n))
            a[0, ::2] = -0.0
            a[m // 2, 1::3] = 3e-310 * rng.standard_normal(a[m // 2, 1::3].shape)
            b[::4] = -0.0
            b[1::4] = 5e-320 * rng.standard_normal(b[1::4].shape)
            want = numeric._k_loop(a, b, np.empty((m, n)))
            assert kernel(a, b, np.empty((m, n))).tobytes() == want.tobytes(), (m, n, kk)
        x = np.concatenate([_kernel.EXP_PROBES, np.linspace(-750.0, 712.0, 100_003),
                            rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)])
        for n in (1, 7, 8, 9, 17, x.size):
            assert (_compiled_exp(kernel, x[:n].copy()).tobytes()
                    == numeric._exp_numpy(x[:n].copy()).tobytes())
        for _, args, kwargs in route_cases():
            assert_route_matches_numpy(kernel, args, kwargs)
        for value in _kernel.INDENT_PROBES + (_compressed_both_report(), _nested(40)):
            assert kernel.indent(json.dumps(value, separators=(",", ": "))) == _dumps(value)


def test_build_keeps_exactness_by_construction():
    """No flag or clone target lets the compiler fuse, reorder or assume away a
    rounding; the load-time probe would only catch what it happens to show."""
    assert {"-ffp-contract=off", "-fno-fast-math"} <= set(_kernel.FLAGS)
    for flag in _kernel.FLAGS:
        assert not flag.startswith(("-march", "-mfma", "-ffast-math", "-Ofast")), flag
    targets = re.findall(r"target(?:_clones)?\(([^)]*)\)", _kernel.SOURCE)
    assert targets, "the source names no clone targets"
    for names in targets:
        assert set(re.findall(r'"([^"]*)"', names)) <= {"avx512f", "avx2", "default"}, names


def test_every_compiled_export_has_a_caller():
    """Every function that ``CDEF`` declares is called from ``_kernel``'s Python
    or from another function of ``SOURCE``, and every public ``Kernel`` method
    from another module of the package, so that deleting a pass cannot leave a
    dead compiled export behind; and every failure status of ``CDEF``'s enum
    is read as ``lib.VTC_*`` somewhere in the package, so that a new status
    cannot go unmapped."""
    package = Path(_kernel.__file__).parent

    def attributes(path: Path) -> set[str]:
        """The attributes that ``path``'s code reads from anything but an imported name."""
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and not (isinstance(node.value, ast.Name) and node.value.id in imported)}

    python = attributes(package / "_kernel.py")
    # the definitions, without comments; a call is indented, a definition is not
    c_code = re.sub(r"/\*.*?\*/", "", _kernel.SOURCE.replace(_kernel.CDEF, ""), flags=re.S)
    uncalled = [name for name in re.findall(r"\b(vtc_\w+)\(", _kernel.CDEF)
                if name not in python and not re.search(rf"^[ \t]+.*\b{name}\(", c_code, re.M)]
    assert not uncalled
    used = set().union(*(attributes(path) for path in package.glob("*.py")
                         if path.name != "_kernel.py"))
    methods = [name for name, value in vars(_kernel.Kernel).items()
               if callable(value) and not name.startswith("_")]
    assert methods and not [name for name in methods if name not in used]
    (enum,) = re.findall(r"enum\s*\{([^}]*)\}", _kernel.CDEF)
    statuses = re.findall(r"\bVTC_\w+", enum)
    assert statuses[0] == "VTC_OK" and len(statuses) > 1
    assert not [name for name in statuses[1:] if name not in used | python]


# Magnitudes that cancel, signed zeros and subnormals; scaled by 1e150, some
# logits overflow to infinity or to inf - inf.
_HEAD_ELEMENTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 3e-310, -5e-324]) | st.floats(
    -30, 30, allow_nan=False, allow_infinity=False
)


class TestAttentionKernel:
    """The compiled attention pass gives ``attention_scores``' numpy bits and errors."""

    @pytest.fixture(autouse=True)
    def _kernel_loaded(self):
        if numeric._product_kernel() is None:
            pytest.skip("the product kernel is not available")

    @staticmethod
    def _outcome(q, k):
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # the numpy layout's overflow
                scores = textsampler.attention_scores(q, k)
        except ValueError as exc:
            return str(exc)
        return scores.shape, scores.tobytes()

    @classmethod
    def _check(cls, q, k):
        """The compiled outcome, after requiring the same with the kernel forced off."""
        compiled = cls._outcome(q, k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numeric, "_product_kernel", lambda: None)
            assert compiled == cls._outcome(q, k)
        return compiled

    @given(st.data(), st.integers(0, 3), st.integers(0, 4), st.integers(1, 40),
           st.integers(0, 40) | st.sampled_from([576]), st.sampled_from([1.0, 1.0, 1e150]))
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_per_head(self, data, heads, t, d, n, magnitude):
        q = data.draw(arrays(np.float64, (heads, t, d), elements=_HEAD_ELEMENTS)) * magnitude
        k = data.draw(arrays(np.float64, (heads, n, d), elements=_HEAD_ELEMENTS)) * magnitude
        self._check(q, k)

    @pytest.mark.parametrize("q, k, message", [
        (np.full((2, 3, 4), 1e200), np.full((2, 5, 4), 1e200), "non-finite"),
        (np.ones((2, 0, 4)), np.ones((2, 5, 4)), "empty"),
        (np.ones((1, 3, 4)), np.ones((1, 0, 4)), "empty"),
    ], ids=["overflow", "no-text-tokens", "no-visual-tokens"])
    def test_errors_match_numpy(self, q, k, message):
        assert message in self._check(q, k)


def test_products_only_through_matmul():
    """No module under src/ and no demo forms a product with ``@`` or a numpy product
    function, whose summation order changes with the BLAS build and its thread count."""
    banned = {"dot", "einsum", "matmul", "inner", "tensordot", "vdot", "norm"}
    found = []
    for path in sorted(SRC.rglob("*.py")) + sorted((SRC.parent / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
            elif isinstance(node, ast.Attribute) and node.attr in banned:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert found == []


def _ulps(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """How many doubles lie between non-negative ``got`` and ``want`` (infinity
    being the one after the largest finite double)."""
    return np.abs(got.view(np.int64) - want.view(np.int64))


def _math_exp(values: np.ndarray) -> np.ndarray:
    """``math.exp``, infinity where it overflows."""
    out = []
    for v in values.tolist():
        try:
            out.append(math.exp(v))
        except OverflowError:
            out.append(math.inf)
    return np.array(out)


def _compiled_exp(kernel, values: np.ndarray) -> np.ndarray:
    """C-contiguous float64 ``values`` exponentiated in place by the kernel's
    ``vtc_exp``, called through cffi; returns ``values``."""
    kernel.lib.vtc_exp(kernel.ffi.from_buffer("double[]", values, require_writable=True),
                       values.size)
    return values


# The edges of the exponential, as the load-time probe has them
_EXP_EDGES = st.sampled_from(_kernel.EXP_PROBES.tolist())


class TestExp:
    """The library's exponential: within 1 ulp of ``math.exp``, and the compiled
    ``vtc_exp`` gives the numpy version's bits on every double."""

    def test_within_one_ulp_of_math_exp(self):
        rng = np.random.default_rng(23)
        x = np.concatenate([
            np.linspace(-746.0, 710.0, 300_001), rng.uniform(-746.0, 710.0, 100_000),
            rng.uniform(-1.0, 1.0, 50_000), rng.uniform(-746.0, -708.0, 50_000),
            _kernel.EXP_PROBES[np.abs(_kernel.EXP_PROBES) <= 746.0],
        ])
        ulps = _ulps(numeric._exp_numpy(x.copy()), _math_exp(x))
        assert ulps.max() <= 1, x[ulps.argmax()]

    @given(st.floats(-750.0, 712.0))
    @settings(max_examples=500, deadline=None)
    def test_within_one_ulp_anywhere(self, value):
        x = np.array([value])
        assert _ulps(numeric._exp_numpy(x.copy()), _math_exp(x))[0] <= 1

    def test_special_values(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, 710.5, -746.5, 1e308, -1e308, np.nan])
        got = numeric._exp_numpy(x.copy())
        np.testing.assert_array_equal(got[:-1], [1.0, 1.0, np.inf, 0.0, np.inf, 0.0, np.inf, 0.0])
        assert np.isnan(got[-1])

    @given(arrays(np.float64, st.integers(1, 40), elements=st.floats() | _EXP_EDGES))
    @settings(max_examples=500, deadline=None)
    def test_compiled_matches_numpy_bit_for_bit(self, x):
        kernel = numeric._product_kernel()
        if kernel is None:
            pytest.skip("the product kernel is not available")
        assert _compiled_exp(kernel, x.copy()).tobytes() == numeric._exp_numpy(x.copy()).tobytes()


class TestSoftmax:
    def test_never_asks_for_the_kernel(self, monkeypatch):
        # its exponential is _exp_numpy whether or not the kernel loads
        x = np.array([[2.0, 1.0, 0.0], [-700.0, 3e-310, 709.0]])
        want = softmax(x)

        def no_kernel():
            raise AssertionError("softmax asked for the kernel")

        monkeypatch.setattr(numeric, "_product_kernel", no_kernel)
        assert softmax(x).tobytes() == want.tobytes()

    def test_uniform_on_equal_logits(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15)

    def test_hand_computed(self):
        # exp([2,1,0]) = [7.389056, 2.718282, 1]; sum = 11.107338
        np.testing.assert_allclose(
            softmax([2.0, 1.0, 0.0]), [0.66524, 0.24473, 0.09003], atol=1e-4
        )

    def test_large_logits_do_not_overflow(self):
        out = softmax([1000.0, 0.0])
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            softmax([])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 9))
        np.testing.assert_allclose(softmax(x, axis=-1).sum(axis=-1), 1.0, atol=1e-9)

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=16),
        st.floats(-100, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, logits, shift):
        v = np.array(logits)
        np.testing.assert_allclose(softmax(v + shift), softmax(v), atol=1e-12)


class TestMaxPool:
    """The pooling oracle of the vision and training tests."""

    def test_constant_block(self):
        block = np.full((4, 4, 2), 3.5)
        np.testing.assert_array_equal(max_pool(block, (2, 2)), np.full((2, 2, 2), 3.5))

    def test_direct_max(self):
        block = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        np.testing.assert_array_equal(max_pool(block, (2, 2)), [[[4.0]]])

    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        block = rng.standard_normal((4, 4, 3))
        np.testing.assert_array_equal(max_pool(block, (1, 1)), block)

    def test_non_divisible_kernel_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            max_pool(np.zeros((4, 4, 1)), (3, 2))

    def test_outputs_are_window_members_and_full_kernel_gives_global_max(self):
        rng = np.random.default_rng(2)
        block = rng.standard_normal((6, 4, 2))
        out = max_pool(block, (2, 2))
        for bi in range(3):
            for bj in range(2):
                for c in range(2):
                    window = block[2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2, c]
                    assert out[bi, bj, c] in window
        full = max_pool(block, (6, 4))
        np.testing.assert_array_equal(full[0, 0], block.max(axis=(0, 1)))


class TestStableSortDesc:
    def test_manual_sort(self):
        np.testing.assert_array_equal(stable_sort_desc([0.1, 0.4, 0.2]), [1, 2, 0])

    def test_tie_stability(self):
        np.testing.assert_array_equal(stable_sort_desc([0.5, 0.5]), [0, 1])

    def test_empty(self):
        assert stable_sort_desc([]).size == 0

    @given(st.lists(st.floats(-1e6, 1e6), max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_permutation_and_ordering(self, values):
        v = np.array(values)
        order = stable_sort_desc(v)
        assert sorted(order.tolist()) == list(range(len(values)))
        s = v[order]
        assert np.all(s[:-1] >= s[1:])

    def test_idempotent_on_sorted_input(self):
        v = np.array([5.0, 3.0, 3.0, 1.0])
        np.testing.assert_array_equal(stable_sort_desc(v), np.arange(4))


class TestFiniteDiffGrad:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda x: float(x[0] * x[0]), np.array([3.0]))
        np.testing.assert_allclose(grad, [6.0], atol=1e-6)

    def test_constant_function(self):
        grad = finite_diff_grad(lambda x: 1.25, np.array([0.3, -0.7, 2.0]))
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_sum_function(self):
        grad = finite_diff_grad(lambda x: float(np.sum(x)), np.array([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(grad, np.ones(3), atol=1e-9)

    def test_preserves_input_and_shape(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        before = x.copy()
        grad = finite_diff_grad(lambda p: float(np.sum(p**2)), x)
        np.testing.assert_array_equal(x, before)
        np.testing.assert_allclose(grad, 2 * x, rtol=1e-8)

    def test_non_finite_objective_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            finite_diff_grad(lambda x: float("nan"), np.array([1.0]))
