"""The compiled exact kernels behind :func:`vtcompress.numeric.matmul` and the
selector training step.

``SOURCE`` is the scalar loop ``o[i,j] = 0.0; for k ascending: o[i,j] +=
a[i,k] * b[k,j]`` over C-contiguous float64 operands, in i-k-j order so that
the innermost loop runs along one row of ``b`` and of ``o``. Every output
element is still summed alone and in ascending k, one rounded product and
one rounded add at a time: ``-ffp-contract=off`` forbids fusing them into an
FMA, no fast-math flag allows reordering the sum, and vectorizing the j loop
only computes independent elements side by side. So the kernel writes the
bits of the numpy layout in :mod:`vtcompress.numeric`. No ``-march`` flag is
used, so the binary runs on any CPU of the platform it was built for.

The same source holds the selector training step (:class:`Step`): all of
``PreparedBatch``'s numpy step but the exponential, under the same rules.
Its two products call ``vtc_matmul``; its sums over regions run
sequentially, as numpy reduces along a non-contiguous axis; and its sums
along a contiguous row (the softmax denominators, the downstream mean)
reproduce numpy's pairwise summation, which ``ndarray.sum`` runs there.

:func:`load` builds the kernel through cffi's API mode the first time and
caches it as an extension module in the given directory (the package's own
``__pycache__``), named by a hash of the C source, the flags, the cffi
version and the interpreter's extension suffix. The build runs in a child
process with its output captured: compiling imports setuptools, which would
raise the caller's peak memory, and a CLI call may print nothing but its own
output. The built module is published with an atomic rename, so another
process sees no file or a whole one. :func:`load` returns ``None`` when cffi
or a C compiler is missing, the directory is not writable, the build fails,
or the kernel gives other bits than the scalar loop, ``ndarray.sum`` or
numpy's elementwise arithmetic on a probe. A failed build leaves its output
in ``<module name>.failed.log`` next to where the module would be, and no
later process tries that build again until the log is deleted; otherwise
every process would pay for a doomed build.
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

# Declarations shared by the C source and cffi's cdef. ``vtc_step`` holds one
# batch of the selector training step. :class:`Step` points it at numpy
# buffers that it allocates once and keeps alive; only the loss settings and
# the training history are pointed again, once per call.
CDEF = r"""
enum { VTC_LOSS, VTC_GRAD, VTC_TRAIN };
enum { VTC_OK, VTC_EMPTY, VTC_NONFINITE_LOGITS, VTC_NO_TOKENS, VTC_NONFINITE_DOWN, VTC_NONFINITE_LOSS };

typedef struct {
    size_t m, ng, s, c;                      /* regions, global tokens, scales, channels */
    const double *scores, *scores_t, *sums;  /* (m, ng), its transpose, (s, m, c) */
    const int64_t *counts;                   /* (s,) tokens per scale */
    const double *target, *imbalance;        /* (c,), (s,); NULL: no downstream term, unit weights */
    double alpha, lr;
    double *weight, *bias;                   /* (s, ng), (s,); VTC_TRAIN updates them */
    double *logits_t, *shifted, *e;          /* (s, m) logits; (m, s) minus the row max; exp */
    int64_t *chosen;                         /* (m,) first maximum of each row */
    double *probs, *top1, *f, *p, *wf, *coeff, *diff, *work;
    double *d_logits_t;                      /* (s, m) gradient of the loss by the logits */
    double *grad_weight, *grad_bias;
    double loss, down, bal;
    double *losses, *f_hist, *p_hist;        /* VTC_TRAIN's history, (steps,), (steps, s) */
} vtc_step;

void vtc_matmul(const double *, const double *, double *, size_t, size_t, size_t);
double vtc_sum(const double *, size_t);
void vtc_descend(double *, const double *, double, size_t);
int vtc_step_pre(vtc_step *);
int vtc_step_post(vtc_step *, int, size_t);
"""

SOURCE = "#include <math.h>\n#include <stddef.h>\n#include <stdint.h>\n" + CDEF + r"""
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

/* numpy's pairwise_sum: below 8 elements a sequential sum from -0.0; up to
   128, eight interleaved accumulators combined pairwise, then the tail; above,
   split at n/2 rounded down to a multiple of 8. */
static double pairwise(const double *restrict a, size_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (size_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        size_t i;
        for (i = 0; i < 8; i++)
            r[i] = a[i];
        for (i = 8; i < n - n % 8; i += 8)
            for (size_t j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    size_t half = n / 2;
    half -= half % 8;
    return pairwise(a, half) + pairwise(a + half, n - half);
}

/* ndarray.sum of n contiguous doubles: the reduction's identity 0.0 plus the
   pairwise sum. */
double vtc_sum(const double *a, size_t n)
{
    return 0.0 + pairwise(a, n);
}

/* x -= lr * g, one rounded product and one rounded difference per element. */
void vtc_descend(double *restrict x, const double *restrict g, double lr, size_t n)
{
    for (size_t k = 0; k < n; k++)
        x[k] = x[k] - lr * g[k];
}

/* The softmax's checks; the logits weight @ scores.T (the products of
   scores @ weight.T, in the same order) plus the bias, transposed into
   shifted; and each row of shifted minus its first maximum, whose index is
   chosen. Numpy computes e = exp(shifted) before the post call. */
int vtc_step_pre(vtc_step *t)
{
    const size_t m = t->m, ng = t->ng, s = t->s;
    double *restrict x = t->shifted;
    if (m * s == 0)
        return VTC_EMPTY;
    vtc_matmul(t->weight, t->scores_t, t->logits_t, s, ng, m);
    for (size_t j = 0; j < s; j++)
        for (size_t i = 0; i < m; i++)
            x[i * s + j] = t->logits_t[j * m + i] + t->bias[j];
    for (size_t i = 0; i < m; i++) {
        double *restrict xi = x + i * s;
        size_t best = 0;
        for (size_t j = 0; j < s; j++) {
            if (!isfinite(xi[j]))
                return VTC_NONFINITE_LOGITS;
            if (xi[j] > xi[best])
                best = j;
        }
        const double top = xi[best];
        for (size_t j = 0; j < s; j++)
            xi[j] -= top;
        t->chosen[i] = (int64_t)best;
    }
    return VTC_OK;
}

/* The rest of the step from e = exp(shifted): probabilities, routing
   statistics, the loss and, from VTC_GRAD on, the gradient; VTC_TRAIN also
   writes history row `step` and descends. Every sum keeps the order in which
   numpy forms it in the fallback step: products ascending from 0.0, sums over
   regions sequential, sums along a contiguous row pairwise. */
int vtc_step_post(vtc_step *t, int mode, size_t step)
{
    const size_t m = t->m, ng = t->ng, s = t->s, c = t->c;
    const double *probs = t->probs;
    double *f = t->f, *p = t->p, *d = t->d_logits_t;

    for (size_t j = 0; j < s; j++)
        f[j] = p[j] = 0.0;
    for (size_t i = 0; i < m; i++) {
        const double *restrict e = t->e + i * s;
        double *restrict pi = t->probs + i * s;
        const double total = 0.0 + pairwise(e, s);
        for (size_t j = 0; j < s; j++) {
            pi[j] = e[j] / total;
            p[j] += pi[j];
        }
        t->top1[i] = pi[t->chosen[i]];
        f[t->chosen[i]] += 1.0;
    }
    for (size_t j = 0; j < s; j++) {
        f[j] /= (double)m;
        p[j] /= (double)m;
        t->wf[j] = t->imbalance ? t->imbalance[j] * f[j] : f[j];
    }

    int64_t tokens = 0;
    double down = 0.0;
    if (t->target) {
        for (size_t i = 0; i < m; i++)
            tokens += t->counts[t->chosen[i]];
        if (tokens == 0)
            return VTC_NO_TOKENS;
        double *restrict u = t->diff;
        for (size_t k = 0; k < c; k++)
            u[k] = 0.0;
        for (size_t i = 0; i < m; i++) {
            const double *restrict rs = t->sums + ((size_t)t->chosen[i] * m + i) * c;
            for (size_t k = 0; k < c; k++)
                u[k] += t->top1[i] * rs[k];
        }
        for (size_t k = 0; k < c; k++) {
            u[k] = u[k] / (double)tokens - t->target[k];
            t->work[k] = u[k] * u[k];
        }
        down = (0.0 + pairwise(t->work, c)) / (double)c;
    }
    t->down = down;
    if (!isfinite(down))
        return VTC_NONFINITE_DOWN;
    double balance = 0.0;
    for (size_t j = 0; j < s; j++)
        balance += t->wf[j] * p[j];
    t->bal = t->alpha * balance;
    t->loss = down + t->bal;
    if (mode == VTC_LOSS)
        return VTC_OK;

    for (size_t k = 0; k < m * s; k++)
        d[k] = 0.0;
    if (t->target) {
        double *restrict dl_du = t->work;
        for (size_t k = 0; k < c; k++)
            dl_du[k] = 2.0 * t->diff[k] / (double)c;
        for (size_t i = 0; i < m; i++) {
            const size_t chosen = (size_t)t->chosen[i];
            const double *restrict rs = t->sums + (chosen * m + i) * c;
            double gp = 0.0;
            for (size_t k = 0; k < c; k++)
                gp += rs[k] * dl_du[k];
            gp /= (double)tokens;
            const double top1 = t->top1[i];
            for (size_t j = 0; j < s; j++) {
                double jacobian = -probs[i * s + j] * top1;
                if (j == chosen)
                    jacobian += top1;
                d[j * m + i] += gp * jacobian;
            }
        }
    }
    if (t->alpha > 0) {
        const double scale = t->alpha / (double)m;
        for (size_t j = 0; j < s; j++)
            t->coeff[j] = scale * t->wf[j];
        for (size_t i = 0; i < m; i++) {
            const double *restrict pi = probs + i * s;
            double pc = 0.0;
            for (size_t j = 0; j < s; j++)
                pc += pi[j] * t->coeff[j];
            for (size_t j = 0; j < s; j++)
                d[j * m + i] += pi[j] * (t->coeff[j] - pc);
        }
    }
    double *gw = t->grad_weight, *gb = t->grad_bias;
    vtc_matmul(d, t->scores, gw, s, m, ng);
    for (size_t j = 0; j < s; j++) {
        gb[j] = 0.0;
        for (size_t i = 0; i < m; i++)
            gb[j] += d[j * m + i];
    }
    if (mode != VTC_TRAIN)
        return VTC_OK;

    if (!isfinite(t->loss))
        return VTC_NONFINITE_LOSS;
    t->losses[step] = t->loss;
    for (size_t j = 0; j < s; j++) {
        t->f_hist[step * s + j] = f[j];
        t->p_hist[step * s + j] = p[j];
    }
    vtc_descend(t->weight, gw, t->lr, s * ng);
    vtc_descend(t->bias, gb, t->lr, s);
    return VTC_OK;
}
"""
# Appended after the interpreter's own compile flags, so they win. Every
# function starts on a 64-byte line, so a kernel's speed does not depend on
# what precedes it in the source: unaligned, vtc_matmul ran 8-18% slower on
# fixture-sized products once the training step shared its module.
FLAGS = ("-O3", "-fno-fast-math", "-ffp-contract=off", "-falign-functions=64")
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
        self.ffi, self.lib = module.ffi, module.lib
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


class Step:
    """The selector training step of one batch in C, on buffers allocated once.

    Write the parameters into :attr:`weight` and :attr:`bias`, choose the loss
    with :meth:`set_loss`, then call :meth:`evaluate` or :meth:`train`. A step
    is a C call up to the shifted logits, ``np.exp`` into :attr:`e`, and a C
    call for the rest: the exponential stays in numpy because numpy's ``exp``
    (SIMD on some CPUs) need not give the bits of the C library's. Results
    are read from :attr:`f`, :attr:`p`, :attr:`grad_weight`,
    :attr:`grad_bias` and :meth:`terms`, which the next call overwrites. A
    step holds mutable buffers: do not use one from two threads at once.
    """

    # The statuses of a run, as CDEF's enum numbers them.
    OK, EMPTY, NONFINITE_LOGITS, NO_TOKENS, NONFINITE_DOWN, NONFINITE_LOSS = range(6)
    _LOSS, _GRAD, _TRAIN = range(3)

    def __init__(self, kernel: Kernel, scores: np.ndarray, sums: np.ndarray, counts: np.ndarray):
        self._lib, self._ffi = kernel.lib, kernel.ffi
        (m, ng), (s, _, c) = scores.shape, sums.shape
        if sums.shape[1] != m or counts.shape != (s,):
            raise ValueError(f"scores {scores.shape}, sums {sums.shape} and counts "
                             f"{counts.shape} do not describe one batch")
        t = self._t = self._ffi.new("vtc_step *")
        t.m, t.ng, t.s, t.c = m, ng, s, c
        self._bound = {}  # field -> (numpy buffer, pointer into it), kept alive
        self._bind("scores", np.ascontiguousarray(scores, dtype=np.float64))
        self._bind("scores_t", np.ascontiguousarray(scores.T, dtype=np.float64))
        self._bind("sums", np.ascontiguousarray(sums, dtype=np.float64))
        self._bind("counts", np.ascontiguousarray(counts, dtype=np.int64))
        self._bind("chosen", np.zeros(m, dtype=np.int64))
        for name, size in (("target", c), ("imbalance", s), ("logits_t", s * m),
                           ("probs", m * s), ("top1", m), ("wf", s), ("coeff", s),
                           ("diff", c), ("work", c), ("d_logits_t", s * m)):
            self._bind(name, np.zeros(size))
        self.weight = self._bind("weight", np.zeros((s, ng)))
        self.bias = self._bind("bias", np.zeros(s))
        self.shifted = self._bind("shifted", np.zeros((m, s)))
        self.e = self._bind("e", np.zeros((m, s)))
        self.f = self._bind("f", np.zeros(s))
        self.p = self._bind("p", np.zeros(s))
        self.grad_weight = self._bind("grad_weight", np.zeros((s, ng)))
        self.grad_bias = self._bind("grad_bias", np.zeros(s))

    def _bind(self, field: str, array: np.ndarray) -> np.ndarray:
        """Point ``field`` at ``array``, which must be C-contiguous and writable
        unless the C code only reads it."""
        kind = "int64_t[]" if array.dtype == np.int64 else "double[]"
        pointer = self._ffi.from_buffer(kind, array, require_writable=array.flags.writeable)
        setattr(self._t, field, pointer)
        self._bound[field] = array, pointer
        return array

    def set_loss(self, target, alpha: float, imbalance) -> None:
        """The downstream target (``None``: no downstream term), ``alpha`` and the
        imbalance weights (``None``: unit weights) of the following runs."""
        self._t.alpha = alpha
        for field, values in (("target", target), ("imbalance", imbalance)):
            array, pointer = self._bound[field]
            if values is not None:
                array[...] = values
            setattr(self._t, field, self._ffi.NULL if values is None else pointer)

    def terms(self) -> tuple[float, float, float]:
        """The loss and its downstream and balance terms, as the last run left them."""
        t = self._t
        return t.loss, t.down, t.bal

    def evaluate(self, grad: bool) -> int:
        """One step at :attr:`weight` and :attr:`bias`, with its gradient if
        ``grad``; returns the status."""
        return self._run(self._GRAD if grad else self._LOSS, 1)[0]

    def train(self, learning_rate: float, losses: np.ndarray, f_hist: np.ndarray,
              p_hist: np.ndarray) -> tuple[int, int]:
        """``len(losses)`` steps of gradient descent from :attr:`weight` and
        :attr:`bias`, updated in place. Step i writes its loss, f and P into
        row i of the C-contiguous float64 histories (``(steps, S)`` for f and
        P) before it updates. Returns the status and the step that set it
        (the step count when every step succeeded)."""
        steps, s = losses.shape[0], self._t.s
        if losses.shape != (steps,) or f_hist.shape != (steps, s) or p_hist.shape != (steps, s):
            raise ValueError(f"histories {losses.shape}, {f_hist.shape}, {p_hist.shape} "
                             f"do not hold {steps} steps of {s} scales")
        self._t.lr = learning_rate
        for field, array in (("losses", losses), ("f_hist", f_hist), ("p_hist", p_hist)):
            if array.dtype != np.float64 or not (array.flags.c_contiguous
                                                 and array.flags.writeable):
                raise ValueError(f"{field} must be a writable C-contiguous float64 array")
            self._bind(field, array)
        try:
            return self._run(self._TRAIN, steps)
        finally:
            for field in ("losses", "f_hist", "p_hist"):
                setattr(self._t, field, self._ffi.NULL)
                del self._bound[field]

    def _run(self, mode: int, steps: int) -> tuple[int, int]:
        pre, post, exp = self._lib.vtc_step_pre, self._lib.vtc_step_post, np.exp
        t, shifted, e = self._t, self.shifted, self.e
        for step in range(steps):
            status = pre(t)
            if status == 0:
                exp(shifted, out=e)
                status = post(t, mode, step)
            if status:
                return status, step
        return self.OK, steps


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
    summation order, a fused multiply-add or a lost signed zero; numpy's
    ``ndarray.sum`` on a sum long enough to recurse, where a sequential sum
    gives other bits; and numpy's ``x - lr * g`` where an FMA gives other bits."""
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
    if kernel(a, b, np.empty((4, 5))).tobytes() != np.array(want).tobytes():
        return False
    # differs from a sequential sum, from a sum without the split above 128
    # elements and from one with four accumulators
    scale = np.array([1.0, 1e4, 1e8])[np.arange(300) % 3]
    terms = ((np.arange(300) * 0.618034) % 2.0 - 1.0) * scale
    terms[::37] = 3e15
    lib, buffer = kernel.lib, kernel.ffi.from_buffer
    if np.float64(lib.vtc_sum(buffer("double[]", terms), 300)).tobytes() != terms.sum().tobytes():
        return False
    x, g = np.ones(3), np.full(3, 1.0 + 2.0**-30)
    g[1:] = [0.3, -7.1]
    lr = 1.0 + 2.0**-30
    want = x - lr * g  # the first element differs by 2**-60 when fused
    lib.vtc_descend(buffer("double[]", x, require_writable=True), buffer("double[]", g), lr, 3)
    return x.tobytes() == want.tobytes()
