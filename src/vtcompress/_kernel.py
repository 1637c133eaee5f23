"""The compiled exact product kernel behind :func:`vtcompress.numeric.matmul`.

``SOURCE`` is the scalar loop ``o[i,j] = 0.0; for k ascending: o[i,j] +=
a[i,k] * b[k,j]`` over C-contiguous float64 operands, in i-k-j order so that
the innermost loop runs along one row of ``b`` and of ``o``. Every output
element is still summed alone and in ascending k, one rounded product and
one rounded add at a time: ``-ffp-contract=off`` forbids fusing them into an
FMA, no fast-math flag allows reordering the sum, and vectorizing the j loop
only computes independent elements side by side. So the kernel writes the
bits of the numpy layouts in :mod:`vtcompress.numeric`. No ``-march`` flag is
used, so the binary runs on any CPU of the platform it was built for.

:func:`load` builds the kernel through cffi's API mode the first time and
caches it as an extension module in the given directory (the package's own
``__pycache__``), named by a hash of the C source, the flags, the cffi
version and the interpreter's extension suffix. The build runs in a child
process with its output captured: compiling imports setuptools, which would
raise the caller's peak memory, and a CLI call may print nothing but its own
output. The built module is published with an atomic rename, so another
process sees no file or a whole one. :func:`load` returns ``None`` when cffi
or a C compiler is missing, the directory is not writable, the build fails,
or the kernel gives other bits than the scalar loop on a probe product. A
failed build leaves its output in ``<module name>.failed.log`` next to where
the module would be, and no later process tries that build again until the
log is deleted; otherwise every process would pay for a doomed build.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

SOURCE = r"""
#include <stddef.h>

void vtc_matmul(const double *restrict a, const double *restrict b, double *restrict o,
                size_t m, size_t kk, size_t n)
{
    for (size_t i = 0; i < m; i++) {
        double *restrict oi = o + i * n;
        for (size_t j = 0; j < n; j++)
            oi[j] = 0.0;
        for (size_t k = 0; k < kk; k++) {
            const double aik = a[i * kk + k];
            const double *restrict bk = b + k * n;
            for (size_t j = 0; j < n; j++)
                oi[j] += aik * bk[j];
        }
    }
}
"""
CDEF = "void vtc_matmul(const double *, const double *, double *, size_t, size_t, size_t);"
# Appended after the interpreter's own compile flags, so they win.
FLAGS = ("-O3", "-fno-fast-math", "-ffp-contract=off")
BUILD_TIMEOUT_S = 300

# Runs in the child: reads the build spec as JSON on stdin, compiles in a
# temporary directory and renames the module to its place in the cache.
_BUILD = """
import json, os, sys
import cffi
spec = json.load(sys.stdin)
ffi = cffi.FFI()
ffi.cdef(spec["cdef"])
ffi.set_source(spec["name"], spec["source"], extra_compile_args=spec["flags"])
os.replace(ffi.compile(tmpdir=spec["tmpdir"]), spec["path"])
"""


class Kernel:
    """A loaded kernel; ``kernel(a, b, out)`` writes the k-ordered product ``a @ b``.

    ``a`` and ``b`` are 2-d operands in any layout (copied to C-contiguous
    float64 when they are not); ``out`` must be a C-contiguous float64
    ``(m, n)`` array that shares no memory with them. Returns ``out``.
    """

    def __init__(self, module):
        self._product = module.lib.vtc_matmul
        self._buffer = module.ffi.from_buffer

    def __call__(self, a, b, out: np.ndarray) -> np.ndarray:
        a = np.ascontiguousarray(a, dtype=np.float64)
        b = np.ascontiguousarray(b, dtype=np.float64)
        (m, kk), (kb, n) = a.shape, b.shape
        if kb != kk or out.shape != (m, n) or out.dtype != np.float64:
            raise ValueError(f"cannot write {a.shape} x {b.shape} into {out.dtype} {out.shape}")
        buffer = self._buffer
        self._product(buffer("double[]", a), buffer("double[]", b),
                      buffer("double[]", out, require_writable=True), m, kk, n)
        return out


def load(cache_dir: Path, source: str = SOURCE) -> Kernel | None:
    """The kernel compiled from ``source``, built into ``cache_dir`` if not there yet.

    Returns ``None`` instead of raising when the kernel cannot be built,
    loaded or trusted; prints nothing.
    """
    try:
        import _cffi_backend
    except ImportError:
        return None
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    key = "\0".join([source, CDEF, *FLAGS, _cffi_backend.__version__, suffix])
    name = "_vtcompress_kernel_" + hashlib.sha256(key.encode()).hexdigest()[:20]
    cache_dir = Path(cache_dir).absolute()  # the build runs in another directory
    path = cache_dir / (name + suffix)
    failed = cache_dir / (name + ".failed.log")
    try:
        if not path.is_file():
            if failed.is_file():  # a build failed before: do not pay for it again
                return None
            _build(name, source, cache_dir, path, failed)
        loader = importlib.machinery.ExtensionFileLoader(name, str(path))
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
        loader.exec_module(module)
        kernel = Kernel(module)
    except (OSError, ImportError, ValueError):
        return None
    return kernel if _exact(kernel) else None


def _build(name: str, source: str, cache_dir: Path, path: Path, failed: Path) -> None:
    """Compile ``source`` in a child process and publish it at ``path``.

    When the build fails, writes its output to ``failed`` and raises
    ``OSError``. ``subprocess`` is imported here because a warm cache never
    needs it.
    """
    import subprocess

    cache_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".build-", dir=cache_dir) as tmp:
        spec = {"name": name, "source": source, "cdef": CDEF, "flags": list(FLAGS),
                "tmpdir": tmp, "path": str(path)}
        try:
            subprocess.run(
                [sys.executable, "-c", _BUILD], input=json.dumps(spec), cwd=tmp,
                capture_output=True, text=True, timeout=BUILD_TIMEOUT_S, check=True,
            )
        except subprocess.SubprocessError as exc:
            failed.write_text(f"{exc}\n{exc.stdout or ''}{exc.stderr or ''}")
            raise OSError(f"building the product kernel failed: {exc}") from exc


def _exact(kernel: Kernel) -> bool:
    """Whether ``kernel`` matches the scalar loop on products that show a changed
    summation order, a fused multiply-add or a lost signed zero."""
    a = (np.arange(4 * 37).reshape(4, 37) * 0.618034) % 2.0 - 1.0
    a[1, :4] = [1e16, 1.0, -1e16, 1.0]
    a[2] = -0.0
    b = (np.arange(37 * 5).reshape(37, 5) * 0.414214) % 2.0 - 1.0
    b[:4] = 1.0
    want = []
    for row in a.tolist():
        for col in b.T.tolist():
            acc = 0.0
            for x, y in zip(row, col):
                acc += x * y
            want.append(acc)
    return kernel(a, b, np.empty((4, 5))).tobytes() == np.array(want).tobytes()
