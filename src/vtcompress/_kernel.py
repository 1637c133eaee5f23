"""The compiled exact kernels behind :func:`vtcompress.numeric.matmul`, the
selector training step, the vision stage's routing pass, the text stage's
attention and the layout of reports and training logs.

``SOURCE``'s product, ``vtc_matmul``, forms every output element as the
scalar loop ``o[i,j] = 0.0; for k ascending: o[i,j] += a[i,k] * b[k,j]``
does, over C-contiguous float64 operands: one rounded product and one
rounded add at a time. ``-ffp-contract=off`` forbids fusing them into an FMA
and no fast-math flag allows reordering the sum, so the kernel writes the
bits of the numpy layout in :mod:`vtcompress.numeric`. No ``-march`` flag is
used, so the binary runs on any CPU of the platform it was built for. On
x86-64 with GCC or Clang and glibc, a CPU with AVX-512F or AVX2 runs the
product in register tiles (Goto and van de Geijn, ACM TOMS 34(3), 2008): 4
rows by two vectors of outputs (16 columns with AVX-512F, 8 with AVX2) held
in registers for a block of 256 steps of k, narrower tiles for the rest of
a row, the 4-column tile on a zero-padded copy of the last one to three
columns, and a short block of rows padded with a repeat of its last row.
Each lane is one output element and the sums continue across blocks of k
through the output, so every tile writes the scalar loop's bits. Elsewhere
the plain i-k-j loop runs, whose innermost loop the compiler vectorizes over
independent elements of one row.

``vtc_exp`` is the library's exponential (:func:`vtcompress.numeric._exp_numpy`
documents it), cloned for AVX-512F, AVX2 and the baseline
(``target_clones``; the dynamic loader's ifunc resolver picks the widest
clone the CPU runs, once per process). It uses only ``+ - *``, a table
lookup and bit operations, whose results IEEE 754 fixes, so every clone
writes the numpy version's bits; its constants come from
:data:`vtcompress.numeric.EXP_CONSTANTS` as ``repr`` literals.

The same source holds the selector training step, :meth:`Kernel.train`:
``PreparedBatch``'s numpy step under the same rules, a whole training run in
one stateless C call. It only trains: one loss or gradient runs numpy. Its
two products call ``vtc_matmul``; its sums over regions run sequentially, as
numpy reduces along a non-contiguous axis; and its sums along a contiguous
numpy row (each region's softmax denominator, the downstream mean) reproduce
numpy's pairwise summation, which ``ndarray.sum`` runs there. Every softmax
is one row pass, ``softmax_rows``: each element times a scale, the finite
check, each row minus its first maximum, ``vtc_exp`` and each row divided by
its pairwise sum. It runs per head in :meth:`Kernel.attention`, and in the
step's and the vision pass's ``selector_head`` on the logits ``weight @
scores_t`` transposed into numpy's ``(M, S)`` rows plus the bias, where each
row's first maximum picks the region's scale. :meth:`Kernel.route` is the
vision stage in one C call, ``vtc_route``, with the bits of
:mod:`vtcompress.vision`'s numpy core: it pools each region straight from
the map, by that module's mean and max rules, forms the ``(Ng, M)`` scores
with ``vtc_matmul`` from the pooled regions transposed (the numpy core's
products in its order), runs the selector head and max-pools only the chosen
scale's tokens. The passes return ``CDEF``'s ``VTC_*`` statuses, read as
``kernel.lib.VTC_*``; :meth:`Kernel.raise_for_softmax` turns those of the
softmax passes into ``numeric.softmax``'s errors.

:meth:`Kernel.history` writes the training log's whole ``history`` member
in one C call, ``vtc_history``: the framing, indentation and step numbers of
``json.dumps(log, indent=2)`` and each value's repr, into one buffer sized
once that the writer never passes. Each repr comes from the shortest digits
that read back as the same double, found with Ryu's ``d2d`` (Adams, PLDI
2018) in ``unsigned __int128`` arithmetic over two tables of 125-bit powers
of 5, emitted two at a time from a ``"00".."99"`` table and laid out as
``repr``: positional while the first digit's decimal exponent is in
[-4, 16), with ``.0`` on integral values, else ``d.ddde±XX``. The tables are
computed exactly with Python integers in the build child (:data:`_BUILD`),
not typed in and not made at import. A compiler without
``unsigned __int128`` (32-bit targets) fails the build, and numpy runs
instead.

One more pass writes output files. :meth:`Kernel.indent`, ``vtc_indent``,
lays the compact text of json's C encoder out as ``json.dumps(indent=2)``
does, for :func:`vtcompress.report.report_to_json`: a newline and two
spaces per level after each opening bracket that does not close at once and
after each comma, and before each closing bracket that ends a non-empty
container, copying strings as they are.

:func:`load` builds the kernel through cffi's API mode the first time and
caches it as an extension module in the given directory (the package's own
``__pycache__``), named by a hash of the C source, the build script, the
flags, the cffi version and the interpreter's extension suffix. The build
runs in a child process with its output captured: cffi's C generator parses
the declarations with pycparser, which would raise the caller's peak memory,
and a CLI call may print nothing but its own output. The built module is
published with an atomic rename, so another process sees no file or a whole
one, and the build then deletes the modules of other sources and the logs
of failed builds in that directory. :func:`load` returns ``None`` when cffi
or a C compiler is missing, the directory is not writable, the build fails,
or the kernel gives other bits or bytes than the numpy code it replaces on
one of the probes that :func:`_exact` lists. A failed build leaves its
output in ``<module name>.failed.log`` next to where the module would be,
and no later process tries that build again until the log is deleted;
otherwise every process would pay for a doomed build.
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

from .numeric import EXP_CONSTANTS, _exp_numpy, _k_loop, softmax
from .formats import write_bytes
from .report import _dumps
from .vision import ScaleMenu, emit_tokens, max_pool, partition, scale_variants

# Declarations shared by the C source and cffi's cdef. ``vtc_step`` holds one
# training run of the selector on one batch; :meth:`Kernel.train` points it at
# numpy buffers that live for that one call.
CDEF = r"""
enum { VTC_OK, VTC_EMPTY, VTC_NONFINITE_LOGITS, VTC_NO_TOKENS, VTC_NONFINITE_DOWN, VTC_NONFINITE_LOSS };

typedef struct {
    size_t m, ng, s, c;                      /* regions, global tokens, scales, channels */
    const double *scores, *scores_t, *sums;  /* (m, ng), its transpose, (s, m, c) */
    const int64_t *counts;                   /* (s,) tokens per scale */
    const double *target, *imbalance;        /* (c,), (s,); NULL: no downstream term, unit weights */
    double alpha, lr;
    double *weight, *bias;                   /* (s, ng), (s,); each step updates them */
    double *shifted;                         /* (m, s) the selector head's logits, then P */
    int64_t *chosen;                         /* (m,) each region's first maximum */
    double *top1, *f, *p, *wf, *coeff, *diff, *work;
    double *d_logits_t;                      /* (s, m) the head's product, then dloss/dlogits */
    double *grad_weight, *grad_bias;
    double loss, down, bal;
    double *losses, *f_hist, *p_hist;        /* the history, (steps,), (steps, s) */
    size_t step;                             /* vtc_step_run: the step that failed, or steps */
} vtc_step;

/* One vision pass (vtc_route): a C-contiguous map in w x w regions, m of them. */
typedef struct {
    size_t rows, cols, c, w, ng, s;         /* map, window, global tokens, scales */
    const double *map, *g, *weight, *bias;  /* (rows, cols, c), (ng, c), (s, ng), (s,) */
    const int64_t *kernels, *forced;        /* (s, 2) kh, kw, 0, 0 drops; NULL or (m,) */
    int pool_max;                           /* max, else mean */
    double *work;                           /* (2 c + ng + s) m + w * w */
    double *probs;                          /* (m, s) */
    int64_t *chosen;                        /* (m,) */
    double *tokens;                         /* room for every region at its finest scale */
    size_t written;                         /* tokens written */
} vtc_route_pass;

void vtc_matmul(const double *, const double *, double *, size_t, size_t, size_t);
double vtc_sum(const double *, size_t);
void vtc_descend(double *, const double *, double, size_t);
void vtc_exp(double *, size_t);
int vtc_step_run(vtc_step *, size_t);
int vtc_attention(const double *, const double *, double *, double *, size_t, size_t, size_t,
                  size_t, double);
int vtc_route(vtc_route_pass *);
size_t vtc_history(const double *, const double *, const double *, size_t, size_t, char *, size_t);
size_t vtc_indent(const char *, size_t, char *, size_t);
"""

# The exponential's constants as numeric computes them, for vtc_exp: a repr
# literal reads back as the same double.
_EXP = "".join(
    f"static const double vtc_exp_{name}[] = {{{', '.join(map(repr, value))}}};\n"
    if isinstance(value, tuple) else f"#define VTC_EXP_{name.upper()} {value!r}\n"
    for name, value in EXP_CONSTANTS.items()
)

# "00" to "99", for the formatter's digits two at a time.
_PAIRS = 'static const char vtc_digit_pairs[] = "%s";\n' % "".join(f"{i:02d}" for i in range(100))

SOURCE = ("#include <math.h>\n#include <stddef.h>\n#include <stdint.h>\n#include <string.h>\n"
          + CDEF + _EXP + _PAIRS + r"""
/* One clone of vtc_exp per vector width, chosen once per process by the
   dynamic loader's ifunc resolver, and vtc_matmul's tiles for the two wide
   targets, chosen per call. A clone or a tile only computes independent
   output elements side by side; each keeps its own ascending sum. Elsewhere
   the plain loops are built. */
#if defined(__x86_64__) && defined(__GLIBC__) && (defined(__GNUC__) || defined(__clang__)) \
    && defined(__has_attribute)
#if __has_attribute(target_clones)
#define VTC_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#define VTC_TILES
#endif
#endif
#ifndef VTC_CLONES
#define VTC_CLONES
#endif

#ifdef VTC_TILES
/* Vectors of 8 and 4 doubles, loaded from and stored to any double. */
typedef double vtc_v8 __attribute__((vector_size(64), aligned(8), may_alias));
typedef double vtc_v4 __attribute__((vector_size(32), aligned(8), may_alias));

/* A tile of 4 rows of outputs by vecs vectors of V (Goto and van de Geijn,
   ACM TOMS 34(3), 2008), held in registers for kc steps of k: each row r
   starts from o[r] and adds a[r][k] * b[k * ldb + column], one rounded
   product and one rounded add per k, in ascending k. */
#define VTC_TILE(name, isa, V, vecs)                                                       \
static __attribute__((isa)) void name(                                                     \
    const double *const *restrict a, const double *restrict b, size_t ldb,                \
    double *const *restrict o, size_t kc)                                                 \
{                                                                                          \
    const size_t w = sizeof(V) / sizeof(double);                                           \
    V acc[4][vecs], bk[vecs];                                                              \
    for (size_t r = 0; r < 4; r++)                                                         \
        for (size_t v = 0; v < vecs; v++)                                                  \
            acc[r][v] = *(const V *)(o[r] + v * w);                                        \
    for (size_t k = 0; k < kc; k++) {                                                      \
        for (size_t v = 0; v < vecs; v++)                                                  \
            bk[v] = *(const V *)(b + k * ldb + v * w);                                     \
        for (size_t r = 0; r < 4; r++)                                                     \
            for (size_t v = 0; v < vecs; v++)                                              \
                acc[r][v] += a[r][k] * bk[v];                                              \
    }                                                                                      \
    for (size_t r = 0; r < 4; r++)                                                         \
        for (size_t v = 0; v < vecs; v++)                                                  \
            *(V *)(o[r] + v * w) = acc[r][v];                                              \
}
VTC_TILE(vtc_tile_16, target("avx512f"), vtc_v8, 2)
VTC_TILE(vtc_tile_8, target("avx2"), vtc_v4, 2)
VTC_TILE(vtc_tile_4, target("avx2"), vtc_v4, 1)

typedef void vtc_tile(const double *const *, const double *, size_t, double *const *, size_t);
/* Each wide target's tiles, widest first, and their widths in columns. */
static vtc_tile *const vtc_avx512f_tiles[] = {vtc_tile_16, vtc_tile_8, vtc_tile_4};
static vtc_tile *const vtc_avx2_tiles[] = {vtc_tile_8, vtc_tile_4};
static const size_t vtc_avx512f_widths[] = {16, 8, 4}, vtc_avx2_widths[] = {8, 4};

/* Blocks of k and of rows small enough that a block of a stays in L2 and a
   strip of b in L1 while the tiles run over them. */
enum { VTC_KC = 256, VTC_MC = 128 };

/* o = a @ b through tiles: o starts at 0.0, then per block of k and of rows
   the columns run in strips of the widest tile that fits, and the last one to
   three columns through the narrowest tile on a copy of them padded with
   zeros. A block of fewer than 4 rows repeats its last row of a and sends the
   extra rows to scratch. The sums continue across blocks of k through o, so
   every element is still 0.0 plus each product in ascending k. */
static void vtc_tiled(vtc_tile *const *tile, const size_t *width, const double *a,
                      const double *b, double *o, size_t m, size_t kk, size_t n)
{
    double scratch[4][16] = {{0}}, pack[VTC_KC * 4];
    const double *ar[4];
    double *orow[4];
    memset(o, 0, m * n * sizeof *o);
    for (size_t k0 = 0; k0 < kk; k0 += VTC_KC) {
        const size_t kc = kk - k0 < VTC_KC ? kk - k0 : VTC_KC;
        for (size_t i0 = 0; i0 < m; i0 += VTC_MC) {
            const size_t i1 = m - i0 < VTC_MC ? m : i0 + VTC_MC;
            size_t t = 0;
            for (size_t j = 0, cols; j < n; j += cols) {
                while (n - j < width[t] && width[t] > 4)
                    t++;
                const double *bj = b + k0 * n + j;
                size_t ldb = n;
                cols = n - j < width[t] ? n - j : width[t];
                if (cols < width[t]) {
                    memset(pack, 0, kc * 4 * sizeof *pack);
                    for (size_t k = 0; k < kc; k++)
                        for (size_t c = 0; c < cols; c++)
                            pack[k * 4 + c] = bj[k * n + c];
                    bj = pack;
                    ldb = 4;
                }
                for (size_t i = i0; i < i1; i += 4) {
                    const size_t rows = i1 - i < 4 ? i1 - i : 4;
                    for (size_t r = 0; r < 4; r++) {
                        ar[r] = a + (r < rows ? i + r : i + rows - 1) * kk + k0;
                        orow[r] = r < rows && cols == width[t] ? o + (i + r) * n + j : scratch[r];
                        if (r < rows && cols < width[t])
                            memcpy(scratch[r], o + (i + r) * n + j, cols * sizeof *o);
                    }
                    tile[t](ar, bj, ldb, orow, kc);
                    if (cols < width[t])
                        for (size_t r = 0; r < rows; r++)
                            memcpy(o + (i + r) * n + j, scratch[r], cols * sizeof *o);
                }
            }
        }
    }
}
#endif

/* o = a @ b for C-contiguous (m, kk) and (kk, n) operands: every element is
   0.0 plus a[i,k] * b[k,j] for k ascending, one rounded product and one
   rounded add at a time. A CPU with AVX-512F or AVX2 runs the tiles; otherwise
   the plain loop runs, in i-k-j order so that the innermost loop runs along
   one row of b and of o. */
void vtc_matmul(const double *restrict a, const double *restrict b, double *restrict o,
                size_t m, size_t kk, size_t n)
{
#ifdef VTC_TILES
    const int avx512f = __builtin_cpu_supports("avx512f");
    if (avx512f || __builtin_cpu_supports("avx2")) {
        vtc_tiled(avx512f ? vtc_avx512f_tiles : vtc_avx2_tiles,
                  avx512f ? vtc_avx512f_widths : vtc_avx2_widths, a, b, o, m, kk, n);
        return;
    }
#endif
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

static double pairwise_split(const double *, size_t);

/* numpy's pairwise_sum: below 8 elements a sequential sum from -0.0; up to
   128, eight interleaved accumulators combined pairwise, then the tail; above,
   split at n/2 rounded down to a multiple of 8 by pairwise_split, out of line
   so that a short sum inlines into its caller. */
static inline double pairwise(const double *restrict a, size_t n)
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
    return pairwise_split(a, n);
}

static __attribute__((noinline)) double pairwise_split(const double *a, size_t n)
{
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

/* e^x of count doubles in place: numeric._exp_numpy's operations in its
   order, with its names (see there), whose bits do not depend on the clone.
   Its last selects are masks on the bits: as conditional expressions they
   kept GCC from vectorizing the AVX2 clone, which now runs 4 lanes and the
   AVX-512F clone 8. */
VTC_CLONES
void vtc_exp(double *restrict x, size_t count)
{
    const double shift = VTC_EXP_SHIFT, *c = vtc_exp_poly;
    uint64_t shift_bits;
    memcpy(&shift_bits, &shift, sizeof shift_bits);
    for (size_t i = 0; i < count; i++) {
        const double v = x[i], t = v * VTC_EXP_INV + shift, n = t - shift;
        uint64_t nb, vb, yb, up, down;
        memcpy(&nb, &t, sizeof nb);
        nb -= shift_bits;  /* n in two's complement */
        const double r = (v - n * VTC_EXP_L1) - n * VTC_EXP_L2;
        const double p = r + r * r * (c[0] + r * (c[1] + r * (c[2] + r * (c[3] + r * c[4]))));
        const uint64_t j = nb & 31;
        const double hi = vtc_exp_hi[j];
        const int64_t big = (int64_t)(n > 16384.0) - (int64_t)(n < -16384.0);
        up = ((nb - j) << 47) + ((uint64_t)(1023 - 60 * big) << 52);
        down = (uint64_t)(1023 + 60 * big) << 52;
        double scale_up, scale_down;
        memcpy(&scale_up, &up, sizeof up);
        memcpy(&scale_down, &down, sizeof down);
        const double y = (hi + (vtc_exp_lo[j] + hi * p)) * scale_up * scale_down;
        const uint64_t over = -(uint64_t)(v > 710.0), under = -(uint64_t)(v < -746.0),
                       nan = -(uint64_t)(v != v);
        memcpy(&yb, &y, sizeof yb);
        memcpy(&vb, &v, sizeof vb);
        yb = (yb & ~(over | under | nan)) | (0x7ff0000000000000u & over) | (vb & nan);
        memcpy(x + i, &yb, sizeof yb);
    }
}

/* The scaled softmax of each of the rows of x in place, with the bits of
   numeric.softmax: each element times scale, the finite check, each row minus
   its first maximum (a strict > select), whose index goes to first[i] unless
   first is NULL, vtc_exp, and each row divided by its ndarray.sum. */
static int softmax_rows(double *restrict x, size_t rows, size_t n, double scale,
                        int64_t *restrict first)
{
    int finite = 1;
    for (size_t k = 0; k < rows * n; k++) {
        x[k] *= scale;
        finite &= isfinite(x[k]) != 0;
    }
    if (!finite)
        return VTC_NONFINITE_LOGITS;
    double *restrict row = x;
    for (size_t i = 0; i < rows; i++, row += n) {
        size_t top = 0;
        for (size_t j = 1; j < n; j++)
            if (row[j] > row[top])
                top = j;
        if (first)
            first[i] = (int64_t)top;
        const double max = row[top];
        for (size_t j = 0; j < n; j++)
            row[j] -= max;
    }
    vtc_exp(x, rows * n);
    for (size_t i = 0; i < rows; i++, x += n) {
        const double total = 0.0 + pairwise(x, n);
        for (size_t j = 0; j < n; j++)
            x[j] /= total;
    }
    return VTC_OK;
}

/* x -= lr * g, one rounded product and one rounded difference per element. */
void vtc_descend(double *restrict x, const double *restrict g, double lr, size_t n)
{
    for (size_t k = 0; k < n; k++)
        x[k] = x[k] - lr * g[k];
}

/* The selector head of m regions with the bits of numpy's route: the logits
   weight @ scores_t, (s, m), into product (the products of scores @ weight.T,
   in the same order), transposed into numpy's (m, s) rows of probs plus each
   scale's bias, then softmax_rows, whose first maxima go to chosen. */
static int selector_head(const double *restrict weight, const double *restrict bias,
                         const double *restrict scores_t, size_t s, size_t ng, size_t m,
                         double *restrict product, double *restrict probs,
                         int64_t *restrict chosen)
{
    if (m * s == 0)
        return VTC_EMPTY;
    vtc_matmul(weight, scores_t, product, s, ng, m);
    for (size_t j = 0; j < s; j++)
        for (size_t i = 0; i < m; i++)
            probs[i * s + j] = product[j * m + i] + bias[j];
    return softmax_rows(probs, m, s, 1.0, chosen);
}

/* The rest of the step from the head's (m, s) probabilities: routing
   statistics, the loss, the gradient, history row `step` and the descent.
   Every sum keeps the order in which numpy forms it in the fallback step:
   products ascending from 0.0, sums over regions sequential. */
static int vtc_step_post(vtc_step *t, size_t step)
{
    const size_t m = t->m, ng = t->ng, s = t->s, c = t->c;
    const double *restrict probs = t->shifted;
    double *f = t->f, *p = t->p, *d = t->d_logits_t, *top1 = t->top1;
    const int64_t *chosen = t->chosen;

    for (size_t j = 0; j < s; j++) {
        p[j] = f[j] = 0.0;
        for (size_t i = 0; i < m; i++)
            p[j] += probs[i * s + j];
    }
    for (size_t i = 0; i < m; i++) {
        top1[i] = probs[i * s + chosen[i]];
        f[chosen[i]] += 1.0;
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
            tokens += t->counts[chosen[i]];
        if (tokens == 0)
            return VTC_NO_TOKENS;
        double *restrict u = t->diff;
        for (size_t k = 0; k < c; k++)
            u[k] = 0.0;
        for (size_t i = 0; i < m; i++) {
            const double *restrict rs = t->sums + ((size_t)chosen[i] * m + i) * c;
            for (size_t k = 0; k < c; k++)
                u[k] += top1[i] * rs[k];
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

    memset(d, 0, m * s * sizeof *d);
    if (t->target) {
        double *restrict dl_du = t->work;
        for (size_t k = 0; k < c; k++)
            dl_du[k] = 2.0 * t->diff[k] / (double)c;
        for (size_t i = 0; i < m; i++) {  /* the winner's token sum times dl_du */
            const double *restrict rs = t->sums + ((size_t)chosen[i] * m + i) * c;
            double gp = 0.0;
            for (size_t k = 0; k < c; k++)
                gp += rs[k] * dl_du[k];
            const double term = gp / (double)tokens;
            for (size_t j = 0; j < s; j++) {
                double jacobian = -probs[i * s + j] * top1[i];
                if ((size_t)chosen[i] == j)
                    jacobian += top1[i];
                d[j * m + i] += term * jacobian;
            }
        }
    }
    if (t->alpha > 0) {
        const double scale = t->alpha / (double)m;
        for (size_t j = 0; j < s; j++)
            t->coeff[j] = scale * t->wf[j];
        for (size_t i = 0; i < m; i++) {
            double term = 0.0;  /* probs times coeff, summed over scales */
            for (size_t j = 0; j < s; j++)
                term += probs[i * s + j] * t->coeff[j];
            for (size_t j = 0; j < s; j++)
                d[j * m + i] += probs[i * s + j] * (t->coeff[j] - term);
        }
    }
    double *gw = t->grad_weight, *gb = t->grad_bias;
    vtc_matmul(d, t->scores, gw, s, m, ng);
    for (size_t j = 0; j < s; j++) {
        gb[j] = 0.0;
        for (size_t i = 0; i < m; i++)
            gb[j] += d[j * m + i];
    }
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

/* `steps` steps of training, step i writing history row i: the selector
   head into shifted, with d_logits_t as its product's scratch, and the rest,
   up to the first step that fails. Returns its status and leaves its index
   in t->step, or steps. */
int vtc_step_run(vtc_step *t, size_t steps)
{
    int status = VTC_OK;
    for (t->step = 0; t->step < steps; t->step++) {
        status = selector_head(t->weight, t->bias, t->scores_t, t->s, t->ng, t->m, t->d_logits_t,
                               t->shifted, t->chosen);
        if (status == VTC_OK)
            status = vtc_step_post(t, t->step);
        if (status != VTC_OK)
            break;
    }
    return status;
}

/* The (cols, rows) transpose of the C-contiguous (rows, cols) x into out. */
static __attribute__((noinline)) void transpose(const double *restrict x, size_t rows,
                                                size_t cols, double *restrict out)
{
    for (size_t i = 0; i < rows; i++)
        for (size_t j = 0; j < cols; j++)
            out[j * rows + i] = x[i * cols + j];
}

/* The scaled attention softmax of h heads: per head, k's (n, d) slice
   transposed into kt, q's (t, d) slice times kt into o's (t, n) slice, then,
   while that slice is in cache, softmax_rows. */
int vtc_attention(const double *restrict q, const double *restrict k, double *restrict o,
                  double *restrict kt, size_t h, size_t t, size_t d, size_t n, double scale)
{
    if (h && t * n == 0)
        return VTC_EMPTY;
    for (size_t g = 0; g < h; g++) {
        transpose(k + g * n * d, n, d, kt);
        double *restrict og = o + g * t * n;
        vtc_matmul(q + g * t * d, kt, og, t, d, n);
        if (softmax_rows(og, t, n, scale, NULL))
            return VTC_NONFINITE_LOGITS;
    }
    return VTC_OK;
}

/* The larger of acc and v as vision.max_pool takes it: v on a tie, so of
   +0.0 and -0.0 the later one wins. */
static inline double later_max(double acc, double v)
{
    return v >= acc ? v : acc;
}

/* The maximum of each of c channels over the kh x kw tokens at x, whose rows
   are ld doubles apart, into out: later_max over the tokens in row-major
   order, from the first. Not inlined, as mean_pool: one copy of each costs
   the cold build less than a copy in each caller. */
static __attribute__((noinline)) void max_pool(const double *restrict x, size_t ld, size_t kh,
                                               size_t kw, size_t c, double *restrict out)
{
    memcpy(out, x, c * sizeof *out);
    for (size_t y = 0; y < kh; y++)
        for (size_t z = 0; z < kw; z++) {
            const double *restrict token = x + y * ld + z * c;
            for (size_t k = 0; k < c; k++)
                out[k] = later_max(out[k], token[k]);
        }
}

/* The mean of each of c channels over the w x w tokens at x, whose rows are
   ld doubles apart, into out, with the bits of ndarray.mean over a region:
   for c > 1, 0.0 plus each token in row-major order; for c = 1, the region
   copied into strip (w * w doubles) and 0.0 plus its pairwise sum; then the
   division by w * w. */
static __attribute__((noinline)) void mean_pool(const double *restrict x, size_t ld, size_t w,
                                                size_t c, double *restrict out,
                                                double *restrict strip)
{
    if (c == 1) {
        for (size_t y = 0; y < w; y++)
            memcpy(strip + y * w, x + y * ld, w * sizeof *strip);
        out[0] = 0.0 + pairwise(strip, w * w);
    } else {
        for (size_t k = 0; k < c; k++)
            out[k] = 0.0;
        for (size_t y = 0; y < w; y++)
            for (size_t z = 0; z < w; z++) {
                const double *restrict token = x + y * ld + z * c;
                for (size_t k = 0; k < c; k++)
                    out[k] += token[k];
            }
    }
    for (size_t k = 0; k < c; k++)
        out[k] /= (double)(w * w);
}

/* The vision stage of t's map in its m regions, row-major, with the bits of
   vision's numpy path: each region pooled into the (m, c) start of work,
   transposed, the global rows times it as the (ng, m) scores (the products
   of the pooled regions times the global rows transposed, in the same
   order), and selector_head into probs and chosen, which forced replaces
   when given. Then each region's tokens at its chosen scale, max-pooled by
   its kernel, into tokens, and their number into written. */
int vtc_route(vtc_route_pass *t)
{
    const size_t c = t->c, w = t->w, ng = t->ng, s = t->s, across = t->cols / w;
    const size_t m = t->rows / w * across, ld = t->cols * c;
    double *pooled = t->work, *pooled_t = pooled + m * c, *scores_t = pooled_t + c * m;
    double *product = scores_t + ng * m, *strip = product + s * m;
    double *out = t->tokens;
    for (size_t r = 0; r < m; r++) {
        const double *x = t->map + (r / across * ld + r % across * c) * w;
        if (t->pool_max)
            max_pool(x, ld, w, w, c, pooled + r * c);
        else
            mean_pool(x, ld, w, c, pooled + r * c, strip);
    }
    transpose(pooled, m, c, pooled_t);
    vtc_matmul(t->g, pooled_t, scores_t, ng, c, m);
    const int status = selector_head(t->weight, t->bias, scores_t, s, ng, m, product, t->probs,
                                     t->chosen);
    if (status != VTC_OK)
        return status;
    if (t->forced)
        memcpy(t->chosen, t->forced, m * sizeof *t->chosen);
    for (size_t r = 0; r < m; r++) {
        const int64_t *kernel = t->kernels + 2 * t->chosen[r];
        const size_t kh = (size_t)kernel[0], kw = (size_t)kernel[1];
        const double *x = t->map + (r / across * ld + r % across * c) * w;
        for (size_t y = 0; kh && y < w; y += kh)
            for (size_t z = 0; z < w; z += kw, out += c)
                max_pool(x + y * ld + z * c, ld, kh, kw, c, out);
    }
    t->written = (size_t)(out - t->tokens) / c;
    return VTC_OK;
}

/* Ryu's tables (Adams, PLDI 2018): entry i holds 2^(bits(5^i) - 1 + 125) / 5^i
   rounded down plus one, and 5^i cut or padded to its top 125 bits, each as
   {low 64 bits, high 64 bits}. The build defines them from Python integers. */
extern const uint64_t vtc_pow5_inv[342][2], vtc_pow5[326][2];

/* (m * mul) >> j for a 125-bit table entry mul and 64 <= j < 128. */
static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    const unsigned __int128 low = (unsigned __int128)m * mul[0];
    const unsigned __int128 high = (unsigned __int128)m * mul[1];
    return (uint64_t)(((low >> 64) + high) >> (j - 64));
}

/* Whether 5^p divides v. */
static int pow5_divides(uint64_t v, uint32_t p)
{
    for (; p && v % 5 == 0; p--)
        v /= 5;
    return p == 0;
}

/* Ryu's d2d: the shortest digits that read back as the nonzero finite double
   m2 * 2^e2 (m2 < 2^53), the nearest of them when several are that short and
   the even one on a tie, as a decimal mantissa whose last digit has exponent *e10. */
static uint64_t shortest(uint64_t m2, int32_t e2, int border, int32_t *e10)
{
    /* mv = 4 * m2 and the ends of its rounding interval, vp = mv + 2 and
       vm = mv - 1 - mm_shift: halfway to the neighbouring doubles, the lower
       one half as far at a power of two (border). The ends round to the
       double itself, so they are valid digits, when m2 is even. */
    const int even = (m2 & 1) == 0;
    const uint64_t mv = 4 * m2;
    const uint32_t mm_shift = !border;
    e2 -= 2;
    uint64_t vr, vp, vm;
    int vm_zeros = 0, vr_zeros = 0;  /* whether vm, vr's digits dropped below are all 0 */
    if (e2 >= 0) {
        const uint32_t q = (((uint32_t)e2 * 78913u) >> 18) - (e2 > 3);  /* log10(2^e2), less 1 */
        const int32_t k = 125 + (int32_t)((q * 1217359u) >> 19);  /* 124 + bits(5^q) */
        const int32_t i = -e2 + (int32_t)q + k;
        *e10 = (int32_t)q;
        vr = mul_shift(mv, vtc_pow5_inv[q], i);
        vp = mul_shift(mv + 2, vtc_pow5_inv[q], i);
        vm = mul_shift(mv - 1 - mm_shift, vtc_pow5_inv[q], i);
        if (q <= 21) {
            if (mv % 5 == 0)
                vr_zeros = pow5_divides(mv, q);
            else if (even)
                vm_zeros = pow5_divides(mv - 1 - mm_shift, q);
            else
                vp -= (uint64_t)pow5_divides(mv + 2, q);
        }
    } else {
        const uint32_t q = (((uint32_t)(-e2) * 732923u) >> 20) - (-e2 > 1);  /* log10(5^-e2), less 1 */
        const int32_t i = -e2 - (int32_t)q;
        const int32_t j = (int32_t)q - ((int32_t)(((uint32_t)i * 1217359u) >> 19) + 1 - 125);
        *e10 = (int32_t)q + e2;
        vr = mul_shift(mv, vtc_pow5[i], j);
        vp = mul_shift(mv + 2, vtc_pow5[i], j);
        vm = mul_shift(mv - 1 - mm_shift, vtc_pow5[i], j);
        if (q <= 1) {
            vr_zeros = 1;
            if (even)
                vm_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_zeros = (mv & ((1ull << q) - 1)) == 0;
        }
    }

    /* drop digits while vp and vm still differ above them, remembering the
       last digit dropped from vr and whether all the earlier ones were 0 */
    uint32_t last = 0;
    while (vp / 10 > vm / 10) {
        vm_zeros &= vm % 10 == 0;
        vr_zeros &= last == 0;
        last = (uint32_t)(vr % 10);
        vr /= 10;
        vp /= 10;
        vm /= 10;
        ++*e10;
    }
    if (vm_zeros) {  /* vm itself is a valid output: drop its zeros too */
        while (vm % 10 == 0) {
            vr_zeros &= last == 0;
            last = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            ++*e10;
        }
    }
    if (vr_zeros && last == 5 && vr % 2 == 0)
        last = 4;  /* exactly halfway: round to even */
    return vr + ((vr == vm && !vm_zeros) || last >= 5);
}

/* The decimal digits of v, two at a time from vtc_digit_pairs, ending at end;
   returns where they start. Not inlined: a copy in each caller added more
   to the cold build's compile time than the calls cost at run time. */
static __attribute__((noinline)) char *put_digits(char *end, uint64_t v)
{
    for (; v >= 100; v /= 100) {
        end -= 2;
        memcpy(end, vtc_digit_pairs + 2 * (v % 100), 2);
    }
    if (v < 10) {
        *--end = (char)('0' + v);
        return end;
    }
    end -= 2;
    memcpy(end, vtc_digit_pairs + 2 * v, 2);
    return end;
}

/* repr(x) of a finite double at out, at most 24 bytes (the longest repr):
   the shortest digits, positional while the first digit's decimal exponent is
   in [-4, 16), with ".0" on integers, and d.ddde+XX otherwise. Returns the
   end of what it wrote. */
static char *repr_to(char *out, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const uint64_t mantissa = bits & ((1ull << 52) - 1);
    const uint32_t exponent = (uint32_t)(bits >> 52) & 0x7ff;
    char *p = out;
    if (bits >> 63)
        *p++ = '-';
    if (exponent == 0 && mantissa == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    int32_t e10;
    char digits[20];
    const char *d = put_digits(digits + 20, shortest(exponent ? mantissa | (1ull << 52) : mantissa,
                                                     (exponent ? (int32_t)exponent : 1) - 1075,
                                                     mantissa == 0 && exponent > 1, &e10));
    const int nd = (int)(digits + 20 - d);
    const int e = e10 + nd - 1;  /* the first digit's decimal exponent */
    if (e >= -4 && e < 16) {
        if (e < 0) {
            memcpy(p, "0.0000", (size_t)(1 - e));
            p += 1 - e;
            memcpy(p, d, (size_t)nd);
            return p + nd;
        }
        if (e + 1 < nd) {
            memcpy(p, d, (size_t)e + 1);
            p[e + 1] = '.';
            memcpy(p + e + 2, d + e + 1, (size_t)(nd - e - 1));
            return p + nd + 1;
        }
        memcpy(p, d, (size_t)nd);
        memset(p + nd, '0', (size_t)(e + 1 - nd));
        memcpy(p + e + 1, ".0", 2);
        return p + e + 3;
    }
    *p++ = d[0];
    if (nd > 1) {
        *p++ = '.';
        memcpy(p, d + 1, (size_t)nd - 1);
        p += nd - 1;
    }
    *p++ = 'e';
    *p++ = e < 0 ? '-' : '+';
    const int a = e < 0 ? -e : e;
    if (a >= 100)
        *p++ = (char)('0' + a / 100);
    memcpy(p, vtc_digit_pairs + 2 * (a % 100), 2);
    return p + 2;
}

/* The n bytes of text at p, if they fit before end; returns their end, or
   NULL if they do not fit or p is NULL. */
static char *put(char *p, const char *end, const char *text, size_t n)
{
    if (!p || (size_t)(end - p) < n)
        return NULL;
    memcpy(p, text, n);
    return p + n;
}
#define PUT(p, end, literal) put(p, end, literal, sizeof literal - 1)

/* repr(x) at p, as put writes text; NULL if x is not finite. */
static char *put_repr(char *p, const char *end, double x)
{
    if (!isfinite(x))
        return NULL;
    if (p && end - p >= 24)
        return repr_to(p, x);
    char text[24];
    return put(p, end, text, (size_t)(repr_to(text, x) - text));
}

/* The reprs of the n values of a list in a history entry, as put writes text. */
static char *put_list(char *p, const char *end, const double *x, size_t n)
{
    for (size_t j = 0; j < n; j++) {
        if (j)
            p = PUT(p, end, ",\n        ");
        p = put_repr(p, end, x[j]);
    }
    return p;
}

/* The training log after its summary's members, as json.dumps(log, indent=2)
   writes it: the "history" member, one entry {"step": i, "loss": losses[i],
   "f": row i of the (n, s) f, "p": row i of p} per step, and the log's closing
   brace. Writes at most 24 + n * (150 + 68 * s) bytes (a step number has at
   most 20 digits, a repr 24 bytes) into out. Returns the bytes written, or 0,
   having written nothing past out + capacity, if they do not fit or a value
   is not finite. */
size_t vtc_history(const double *losses, const double *f, const double *p, size_t n, size_t s,
                   char *out, size_t capacity)
{
    const char *end = out + capacity;
    char *q = PUT(out, end, ",\n  \"history\": [\n");
    for (size_t i = 0; i < n; i++) {
        char digits[20];
        const char *step = put_digits(digits + 20, i);
        if (i)
            q = PUT(q, end, ",\n");
        q = PUT(q, end, "    {\n      \"step\": ");
        q = put(q, end, step, (size_t)(digits + 20 - step));
        q = PUT(q, end, ",\n      \"loss\": ");
        q = put_repr(q, end, losses[i]);
        q = PUT(q, end, ",\n      \"f\": [\n        ");
        q = put_list(q, end, f + i * s, s);
        q = PUT(q, end, "\n      ],\n      \"p\": [\n        ");
        q = put_list(q, end, p + i * s, s);
        q = PUT(q, end, "\n      ]\n    }");
    }
    q = PUT(q, end, "\n  ]\n}\n");
    return q ? (size_t)(q - out) : 0;
}

/* The byte c at out[len] if it fits in capacity; returns len + 1. */
static size_t put_byte(char *out, size_t len, size_t capacity, char c)
{
    if (len < capacity)
        out[len] = c;
    return len + 1;
}

/* A newline and 2 * depth spaces at out + len if they fit in capacity;
   returns their end. */
static size_t put_line(char *out, size_t len, size_t capacity, size_t depth)
{
    if (len < capacity && capacity - len >= 1 + 2 * depth) {
        out[len] = '\n';
        memset(out + len + 1, ' ', 2 * depth);
    }
    return len + 1 + 2 * depth;
}

/* The n bytes of compact JSON text at in, as json.JSONEncoder(separators=
   (",", ": ")) writes them in ASCII, laid out as json.dumps(indent=2) lays
   them out, and a newline. Outside strings, [ or { opens a new line one level
   deeper unless the next byte closes it, , starts a new line at the same
   depth, and ] or } closes on a new line one level shallower; a string is
   copied as it is, a backslash escaping the byte after it. Returns the length
   of the layout, written into out only where it fits in capacity, or 0 if a
   bracket closes at depth 0. */
size_t vtc_indent(const char *in, size_t n, char *out, size_t capacity)
{
    size_t len = 0, depth = 0;
    for (size_t i = 0; i < n; i++) {
        const char c = in[i];
        if (c == '"') {
            size_t j = i + 1;
            while (j < n && in[j] != '"')
                j += in[j] == '\\' ? 2 : 1;
            j = j < n ? j + 1 : n;
            if (len <= capacity && capacity - len >= j - i)
                memcpy(out + len, in + i, j - i);
            len += j - i;
            i = j - 1;
            continue;
        }
        if (c == ']' || c == '}') {
            if (!depth)
                return 0;
            len = put_line(out, len, capacity, --depth);
        }
        len = put_byte(out, len, capacity, c);
        if ((c == '[' || c == '{') && i + 1 < n && (in[i + 1] == ']' || in[i + 1] == '}'))
            len = put_byte(out, len, capacity, in[++i]);
        else if (c == '[' || c == '{')
            len = put_line(out, len, capacity, ++depth);
        else if (c == ',')
            len = put_line(out, len, capacity, depth);
    }
    return put_byte(out, len, capacity, '\n');
}
""")
# Appended after the interpreter's own compile flags, so they win. Every
# function starts on a 64-byte line, so a kernel's speed does not depend on
# what precedes it in the source: unaligned, vtc_matmul ran 8-18% slower on
# fixture-sized products once the training step shared its module. No debug
# information: it took 15% of the compile time and half of the module's size.
FLAGS = ("-O3", "-fno-fast-math", "-ffp-contract=off", "-falign-functions=64", "-g0")
BUILD_TIMEOUT_S = 300

# Runs in the child: reads the build spec as JSON on stdin, appends the
# definitions of Ryu's power-of-5 tables, computed exactly with Python
# integers, to the source, writes cffi's C file into a temporary directory,
# compiles and links it in one call of the compiler that built the
# interpreter, with the interpreter's flags, and renames the module to its
# place in the cache. cffi's own ``ffi.compile`` would import setuptools,
# which took 0.3 s of a cold build. The tables are made here, not at import,
# because every process would pay about 1 ms for them; this script is part of
# the cache key, so the key changes whenever the tables would.
_BUILD = r"""
import json, os, subprocess, sys, sysconfig
import cffi

def table(name, values):
    rows = ",\n".join("{%#x, %#x}" % (v & ((1 << 64) - 1), v >> 64) for v in values)
    return "const uint64_t %s[%d][2] = {\n%s\n};\n" % (name, len(values), rows)

powers = [5**i for i in range(342)]
tables = (table("vtc_pow5_inv", [(1 << (x.bit_length() + 124)) // x + 1 for x in powers])
          + table("vtc_pow5", [(x << 125) >> x.bit_length() for x in powers[:326]]))
spec = json.load(sys.stdin)
ffi = cffi.FFI()
ffi.cdef(spec["cdef"])
ffi.set_source(spec["name"], spec["source"] + tables)
source = os.path.join(spec["tmpdir"], spec["name"] + ".c")
ffi.emit_c_code(source)
var = sysconfig.get_config_var
module = source[:-2] + var("EXT_SUFFIX")
subprocess.run([*var("LDSHARED").split(), *var("CFLAGS").split(), *var("CCSHARED").split(),
                "-I" + sysconfig.get_paths()["include"], *spec["flags"], source, "-o", module],
               check=True)
os.replace(module, spec["path"])
"""


# Values whose reprs are easy to get wrong: signed zeros; the least subnormal
# and another; 2^-24, whose lower neighbour is half as far as its upper, and
# both neighbours; 2^-25 and 2^46 + 0.625, whose shortest digits tie (to even);
# 1/15, whose last digit rounds up from a 5; 1.9e22, exactly halfway between
# two doubles, so the lower end of the even one's interval; the ends of the
# positional range; and the longest reprs, of 24 bytes.
REPR_PROBES = (0.0, -0.0, 5e-324, 1.5e-310, 5.960464477539062e-08, 2.0**-24,
               5.960464477539064e-08, 2.0**-25, 2.0**46 + 0.625, 1 / 15, 1.9e22, 1e16,
               9999999999999998.0, 1e-05, 0.0001, -2.2250738585072014e-308,
               -1.7976931348623157e+308)


# JSON whose layout is easy to get wrong: brackets, commas, the key separator,
# escaped quotes and backslashes inside strings, empty and nested empty
# containers, and top-level scalars.
INDENT_PROBES = (
    {"[ ] { } ,": ['": "', '\\"', "\\", '\\\\"', '", [', "a\\", ""], "": [[], {}, [[]]],
     "a": {"b": {}, "c": [1, -2.5e-300, None, True, False, {"d": "\u00e9\n"}]}},
    [], {}, [[]], "]", 0.1, None,
)


# Inputs where an exponential goes wrong, and their neighbours: signed zeros,
# infinities, NaN; the overflow edge near 709.78 and 710, above which vtc_exp
# selects infinity; the underflow edge near -745.13, subnormal results and
# -746, below which it selects 0.0; the ends of the exponent range of each
# scaling K, near +-354.9; and a sweep over all of them, which runs every
# table entry and full vector iterations of every clone.
_EXP_EDGES = np.array([0.0, 1e-300, 709.782712893384, 710.0, -745.1332191019411, -708.4,
                       -740.0, -746.0, 16384.5 / EXP_CONSTANTS["inv"], 16383.5 / EXP_CONSTANTS["inv"]])
EXP_PROBES = np.concatenate([
    _EXP_EDGES, -_EXP_EDGES, np.nextafter(_EXP_EDGES, np.inf), np.nextafter(_EXP_EDGES, -np.inf),
    [np.inf, -np.inf, np.nan], np.linspace(-750.0, 712.0, 203), np.linspace(-0.05, 0.05, 37),
])


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

    def attention(self, q: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
        """Per head ``h``, ``numeric.softmax(matmul(q[h], k[h].T) * scale)`` with
        its bits and its errors, as a fresh ``(h, T, N)`` array.

        ``q`` and ``k`` are C-contiguous float64 ``(h, T, d)`` and ``(h, N, d)``
        arrays. One C call forms each head's scaled logits, subtracts each
        row's maximum, runs ``vtc_exp`` (the softmax's exponential) and divides
        each row by its pairwise sum, head by head while the head is in cache.
        """
        (heads, t, d), n = q.shape, k.shape[1]
        if k.shape != (heads, n, d) or not (q.flags.c_contiguous and k.flags.c_contiguous):
            raise ValueError(f"cannot attend from {q.shape} to {k.shape}")
        out, kt = np.empty((heads, t, n)), np.empty((d, n))
        buffer = self._buffer
        self.raise_for_softmax(self.lib.vtc_attention(
            buffer("double[]", q), buffer("double[]", k),
            buffer("double[]", out, require_writable=True),
            buffer("double[]", kt, require_writable=True), heads, t, d, n, scale,
        ))
        return out

    def history(self, prefix: bytes, losses: np.ndarray, f: np.ndarray,
                p: np.ndarray) -> bytearray:
        """``prefix`` followed by the training log's ``history`` member and
        closing brace, as ``json.dumps(log, indent=2)`` writes them, for the
        finite ``(n,)`` losses and ``(n, S)`` f and P: one ``vtc_history`` call
        into one buffer, sized once for the longest reprs and cut to the
        bytes written."""
        losses, f, p = (np.ascontiguousarray(a, dtype=np.float64) for a in (losses, f, p))
        (n,), (_, s) = losses.shape, f.shape
        if f.shape != (n, s) or p.shape != (n, s):
            raise ValueError(f"cannot lay out losses {losses.shape} with f {f.shape} "
                             f"and p {p.shape}")
        out = bytearray(len(prefix) + 24 + n * (150 + 68 * s))  # vtc_history's bound
        out[: len(prefix)] = prefix
        buffer = self._buffer
        written = self.lib.vtc_history(
            buffer("double[]", losses), buffer("double[]", f), buffer("double[]", p), n, s,
            buffer("char[]", out, require_writable=True) + len(prefix), len(out) - len(prefix),
        )
        if not written:
            raise ValueError("cannot format a non-finite value")
        del out[len(prefix) + written :]
        return out

    def indent(self, compact: str) -> str:
        """``json.dumps(value, indent=2) + "\\n"`` from the compact ASCII text
        ``compact`` that ``json.JSONEncoder(separators=(",", ": "))`` writes for
        ``value``: one ``vtc_indent`` call into a buffer of twice its size
        and 64 bytes, and one more into a buffer of the layout's size when
        the layout is longer."""
        text = compact.encode("ascii")
        out = bytearray(2 * len(text) + 64)
        while True:
            size = self.lib.vtc_indent(text, len(text),
                                       self._buffer("char[]", out, require_writable=True), len(out))
            if size <= len(out):
                break
            out = bytearray(size)
        if not size:
            raise ValueError("cannot lay out unbalanced JSON text")
        del out[size:]
        return out.decode("ascii")

    def route(self, feature_map: np.ndarray, global_rows: np.ndarray, weight: np.ndarray,
              bias: np.ndarray, menu: ScaleMenu, pool: str,
              forced: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The vision stage of a checked ``(H, W, C)`` map in one ``vtc_route``
        call: its ``(tokens, C)`` tokens, the ``(M, S)`` probabilities and the
        ``(M,)`` chosen scales, with the bits of :mod:`vtcompress.vision`'s
        numpy path.

        ``global_rows`` are the ``(Ng, C)`` global tokens, ``weight`` and
        ``bias`` the ``(S, Ng)`` and ``(S,)`` selector of the S scales of
        ``menu``, ``pool`` ``"mean"`` or ``"max"`` and ``forced`` ``None`` or
        each region's scale. The tokens are the head of one buffer sized for
        every region at the menu's finest scale, its last.
        """
        fm, g, weight, bias = (np.ascontiguousarray(a, dtype=np.float64)
                               for a in (feature_map, global_rows, weight, bias))
        (h, w, c), (s, ng), window = fm.shape, weight.shape, menu.window
        if (not fm.size or h % window or w % window or g.shape != (ng, c)
                or bias.shape != (s,) or len(menu) != s):
            raise ValueError(f"cannot route a {fm.shape} map in windows of {window} with "
                             f"global rows {g.shape}, weight {weight.shape}, bias {bias.shape} "
                             f"and {len(menu)} scales")
        m = (h // window) * (w // window)
        if forced is not None:
            forced = np.ascontiguousarray(forced, dtype=np.int64)
            if forced.shape != (m,) or (forced.size and not 0 <= forced.min() <= forced.max() < s):
                raise ValueError(f"cannot force {forced.shape} scales out of {s} on {m} regions")
        kernels = np.array([k or (0, 0) for k in menu.kernels], dtype=np.int64)  # (0, 0) drops
        work = np.empty((2 * c + ng + s) * m + window * window)
        probs, chosen = np.empty((m, s)), np.empty(m, dtype=np.int64)
        tokens = np.empty((m * menu.token_counts[-1], c))
        buffer = self._buffer
        t = self.ffi.new("vtc_route_pass *", {
            "rows": h, "cols": w, "c": c, "w": window, "ng": ng, "s": s,
            "map": buffer("double[]", fm), "g": buffer("double[]", g),
            "weight": buffer("double[]", weight), "bias": buffer("double[]", bias),
            "kernels": buffer("int64_t[]", kernels),
            "forced": self.ffi.NULL if forced is None else buffer("int64_t[]", forced),
            "pool_max": pool == "max", "work": buffer("double[]", work, require_writable=True),
            "probs": buffer("double[]", probs, require_writable=True),
            "chosen": buffer("int64_t[]", chosen, require_writable=True),
            "tokens": buffer("double[]", tokens, require_writable=True),
        })
        self.raise_for_softmax(self.lib.vtc_route(t))
        return tokens[: t.written], probs, chosen

    def raise_for_softmax(self, status: int) -> None:
        """Raise what ``numeric.softmax`` raises on the logits for which a C pass
        (the attention's, the route's or a training step's) returned ``status``;
        return if it would not."""
        if status == self.lib.VTC_EMPTY:
            raise ValueError("softmax of an empty input")
        if status == self.lib.VTC_NONFINITE_LOGITS:
            raise ValueError("softmax input contains non-finite values")

    def train(self, scores, sums, counts, weight, bias, target, alpha: float, imbalance,
              learning_rate: float, steps: int) -> tuple:
        """``steps`` steps of the selector's gradient descent on one batch in one
        ``vtc_step_run`` call, with the bits of ``PreparedBatch``'s numpy step.

        The batch is ``(M, Ng)`` scores, ``(S, M, C)`` sums and ``(S,)`` counts;
        the run starts from an ``(S, Ng)`` weight and ``(S,)`` bias; the
        ``(C,)`` target and ``(S,)`` imbalance weights may be ``None``: no
        downstream term, unit weights. Returns the status (a ``lib.VTC_*``), the step that set it
        (``steps`` when all succeeded) and its loss, the final weight and bias
        and the history: ``(steps,)`` losses and ``(steps, S)`` f and P, row i
        written by step i before its update (zero from a failed step on). The
        arrays returned are new; no input is written, nothing outlives the call.
        """
        scores, sums, target, imbalance = (a if a is None else np.ascontiguousarray(a, np.float64)
                                           for a in (scores, sums, target, imbalance))
        weight, bias = np.array(weight, np.float64), np.array(bias, np.float64)  # C updates them
        (m, ng), (s, _, c) = scores.shape, sums.shape
        arrays = {"scores": scores, "scores_t": np.ascontiguousarray(scores.T), "sums": sums,
                  "counts": np.ascontiguousarray(counts, np.int64), "weight": weight,
                  "bias": bias, "target": target, "imbalance": imbalance,
                  "chosen": np.zeros(m, np.int64), "losses": np.zeros(steps),
                  "f_hist": np.zeros((steps, s)), "p_hist": np.zeros((steps, s)),
                  **{name: np.zeros(size) for name, size in (
                      ("shifted", s * m), ("top1", m), ("f", s), ("p", s),
                      ("wf", s), ("coeff", s), ("diff", c), ("work", c), ("d_logits_t", s * m),
                      ("grad_weight", s * ng), ("grad_bias", s))}}
        if any(arrays[name] is not None and arrays[name].shape != shape for name, shape in (
                ("sums", (s, m, c)), ("counts", (s,)), ("weight", (s, ng)), ("bias", (s,)),
                ("target", (c,)), ("imbalance", (s,)))):
            raise ValueError("cannot train on the shapes " + ", ".join(
                f"{name} {np.shape(arrays[name])}" for name in
                ("scores", "sums", "counts", "weight", "bias", "target", "imbalance")))
        t = self.ffi.new("vtc_step *", {
            "m": m, "ng": ng, "s": s, "c": c, "alpha": alpha, "lr": learning_rate,
            **{name: self._buffer("int64_t[]" if a.dtype == np.int64 else "double[]", a)
               for name, a in arrays.items() if a is not None},
        })
        status = self.lib.vtc_step_run(t, steps)
        return status, t.step, t.loss, weight, bias, (arrays["losses"], arrays["f_hist"],
                                                      arrays["p_hist"])


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
    key = "\0".join([source, CDEF, _BUILD, *FLAGS, _cffi_backend.__version__, suffix])
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
    ``OSError``. Once the module is published, deletes the modules of other
    sources built for this interpreter's extension suffix (another
    interpreter sharing the directory keeps its own) and every failed build's
    log, ignoring errors: a process that loaded one of them keeps running it.
    ``subprocess`` is imported here because a warm cache never needs it.
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
            write_bytes(failed, f"{exc}\n{exc.stdout or ''}{exc.stderr or ''}".encode())
            raise OSError(f"building the product kernel failed: {exc}") from exc
    suffix = path.name[len(name):]
    for stale in [*cache_dir.glob("_vtcompress_kernel_*" + suffix),
                  *cache_dir.glob("_vtcompress_kernel_*.failed.log")]:
        if stale != path:
            try:
                stale.unlink()
            except OSError:
                pass


def _exact(kernel: Kernel) -> bool:
    """Whether ``kernel`` matches the numpy layout (``numeric._k_loop``, which
    the tests pin to the scalar loop) on products that show a changed
    summation order, a fused multiply-add or a lost signed zero, shaped to run
    every tile of each wide build, a padded row tile, a padded column tail and
    a sum continued across blocks of k; the per-head numpy softmax of such a
    product; :func:`numeric._exp_numpy` on :data:`EXP_PROBES`, against
    ``vtc_exp`` called directly; numpy's ``ndarray.sum`` on a sum long enough
    to recurse, where a sequential sum gives other bits; numpy's
    ``x - lr * g`` where an FMA gives other bits; the numpy routing core's
    pooling, products, softmax and max ties on small maps, one of them routed
    among 9 scales, whose rows sum pairwise and two of whose first maxima
    tie; ``json.dumps(log, indent=2)``, and so ``repr``, on a 2-step training
    log of :data:`REPR_PROBES`, and ``json.dumps(value, indent=2)`` on
    :data:`INDENT_PROBES`. The JSON is written by ``report._dumps``, not
    ``report_to_json``, which would ask for the kernel that is being loaded."""
    a = (np.arange(4 * 37).reshape(4, 37) * 0.618034) % 2.0 - 1.0
    a[1, :4] = [1e16, 1.0, -1e16, 1.0]
    a[2] = -0.0
    b = (np.arange(37 * 19).reshape(37, 19) * 0.414214) % 2.0 - 1.0
    b[:4] = 1.0
    want = _k_loop(a, b, np.empty((4, 19)))
    if kernel(a, b, np.empty((4, 19))).tobytes() != want.tobytes():
        return False
    head = kernel.attention(a[np.newaxis], np.ascontiguousarray(b.T)[np.newaxis], 0.125)
    if head.tobytes() != softmax(want * 0.125).tobytes():
        return False
    # 31 columns run the 16-, 8- and 4-column tiles and a tail of 3 padded to
    # 4 (the AVX2 build: three 8-column tiles first); 5 rows run a full and a
    # padded row tile; 261 steps of k run two blocks. b is not negative, so
    # the rows of -0.0 sum to +0.0 only from a start at +0.0.
    a = (np.arange(5 * 261).reshape(5, 261) * 0.618034) % 2.0 - 1.0
    a[1, :4] = [1e16, 1.0, -1e16, 1.0]
    a[2] = a[4] = -0.0
    b = np.abs((np.arange(261 * 31).reshape(261, 31) * 0.414214) % 2.0 - 1.0)
    b[:4] = 1.0
    if kernel(a, b, np.empty((5, 31))).tobytes() != _k_loop(a, b, np.empty((5, 31))).tobytes():
        return False
    lib, buffer = kernel.lib, kernel.ffi.from_buffer
    x = EXP_PROBES.copy()
    lib.vtc_exp(buffer("double[]", x, require_writable=True), x.size)
    if x.tobytes() != _exp_numpy(EXP_PROBES.copy()).tobytes():
        return False
    # differs from a sequential sum, from a sum without the split above 128
    # elements and from one with four accumulators
    scale = np.array([1.0, 1e4, 1e8])[np.arange(300) % 3]
    terms = ((np.arange(300) * 0.618034) % 2.0 - 1.0) * scale
    terms[::37] = 3e15
    if np.float64(lib.vtc_sum(buffer("double[]", terms), 300)).tobytes() != terms.sum().tobytes():
        return False
    x, g = np.ones(3), np.full(3, 1.0 + 2.0**-30)
    g[1:] = [0.3, -7.1]
    lr = 1.0 + 2.0**-30
    want = x - lr * g  # the first element differs by 2**-60 when fused
    lib.vtc_descend(buffer("double[]", x, require_writable=True), buffer("double[]", g), lr, 3)
    if x.tobytes() != want.tobytes():
        return False
    # the vision pass on 8x8 maps in four 4x4 regions against the numpy core's
    # parts: one channel with a first row that cancels, whose mean differs
    # between a pairwise and a sequential sum, routed among 9 scales (each
    # kernel of the default menu 3 times), whose softmax denominators differ
    # the same way, and with scale 2 a copy of scale 6, so that two regions'
    # maxima tie (the first wins); three channels pooled by max, with 2x2
    # cells whose zeros tie as +0.0, -0.0 and as -0.0, +0.0 (the later wins)
    for c, pool, forced, repeats in ((1, "mean", None, 3), (3, "max", [2, 0, 1, 0], 1)):
        fm = (np.arange(8 * 8 * c).reshape(8, 8, c) * 0.618034) % 2.0 - 1.0
        fm[0, :4, 0] = [1e16, 1.0, -1e16, 1.0]
        fm[4:, :4] = -np.abs(fm[4:, :4])
        fm[4, :4] = np.array([0.0, -0.0, -0.0, 0.0])[:, np.newaxis]
        g = (np.arange(5 * c).reshape(5, c) * 0.414214) % 2.0 - 1.0
        s = 3 * repeats
        weight = (np.arange(5 * s).reshape(s, 5) * 0.3) % 2.0 - 1.0
        bias = np.resize([0.1, -0.2, 0.05], s)
        if repeats > 1:
            weight[2], bias[2] = weight[6], bias[6]
        blocks = partition(fm, 4)
        pooled = blocks.mean(axis=(1, 2)) if pool == "mean" else max_pool(blocks, 4, 4)[:, 0, 0]
        logits = _k_loop(_k_loop(pooled, g.T, np.empty((4, 5))), weight.T, np.empty((4, s))) + bias
        chosen = np.argmax(logits, axis=1) if forced is None else np.array(forced)
        menu = ScaleMenu(4, [k for k in ((4, 4), (2, 2), (1, 1)) for _ in range(repeats)])
        want = emit_tokens(scale_variants(blocks, menu), chosen), softmax(logits), chosen
        got = kernel.route(fm, g, weight, bias, menu, pool, forced)
        if any(x.tobytes() != y.tobytes() for x, y in zip(got, want)):
            return False
    # a 2-step history of the 17 probes per step (the loss, then 8 each of f
    # and P) after the head json writes, against its whole log
    rows = np.array([REPR_PROBES, REPR_PROBES[::-1]])
    log = {"steps": 2, "history": [{"step": i, "loss": row[0], "f": row[1:9], "p": row[9:]}
                                   for i, row in enumerate(rows.tolist())]}
    head = _dumps({"steps": 2})[:-3].encode()
    if kernel.history(head, rows[:, 0], rows[:, 1:9], rows[:, 9:]) != _dumps(log).encode():
        return False
    return all(kernel.indent(json.dumps(value, separators=(",", ": "))) == _dumps(value)
               for value in INDENT_PROBES)
