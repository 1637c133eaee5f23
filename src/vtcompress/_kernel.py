"""The compiled exact kernels behind :func:`vtcompress.numeric.matmul`, the
selector training step and the text stage's attention.

``SOURCE`` is the scalar loop ``o[i,j] = 0.0; for k ascending: o[i,j] +=
a[i,k] * b[k,j]`` over C-contiguous float64 operands, in i-k-j order so that
the innermost loop runs along one row of ``b`` and of ``o``. Every output
element is still summed alone and in ascending k, one rounded product and
one rounded add at a time: ``-ffp-contract=off`` forbids fusing them into an
FMA, no fast-math flag allows reordering the sum, and vectorizing the j loop
only computes independent elements side by side. So the kernel writes the
bits of the numpy layout in :mod:`vtcompress.numeric`. No ``-march`` flag is
used, so the binary runs on any CPU of the platform it was built for. On
x86-64 with GCC or Clang and glibc, ``vtc_matmul`` is cloned for AVX-512F,
AVX2 and the baseline (``target_clones``); the dynamic loader's ifunc
resolver picks the widest clone the CPU runs, once per process. A wider
clone only computes more j lanes per instruction: neither target implies
FMA contraction or fast-math, so every clone writes the same bits.

The same source holds the selector training step (:class:`Step`): all of
``PreparedBatch``'s numpy step but the exponential, under the same rules.
Its two products call ``vtc_matmul``; its sums over regions run
sequentially, as numpy reduces along a non-contiguous axis; and its sums
along a contiguous row (the softmax denominators, the downstream mean)
reproduce numpy's pairwise summation, which ``ndarray.sum`` runs there.
:meth:`Kernel.attention` is the text stage's per-head scaled softmax under
the same rules. Both softmaxes run one C row pass, numpy's ``exp`` in place
and ``vtc_normalize``, and :meth:`Step.raise_for_softmax` turns the row
pass's statuses into ``numeric.softmax``'s errors.

:meth:`Kernel.reprs` formats doubles as ``repr`` does, for the training
log: ``vtc_repr`` finds the shortest digits that read back as the same
double with Ryu's ``d2d`` (Adams, PLDI 2018), in ``unsigned __int128``
arithmetic over two tables of 125-bit powers of 5, and lays them out as
``repr``: positional while the first digit's decimal exponent is in [-4,
16), with ``.0`` on integral values, else ``d.ddde±XX``. The tables are
computed exactly with Python integers in the build child (:data:`_BUILD`),
not typed in and not made at import. A compiler without ``unsigned
__int128`` (32-bit targets) fails the build, and numpy runs instead.

:func:`load` builds the kernel through cffi's API mode the first time and
caches it as an extension module in the given directory (the package's own
``__pycache__``), named by a hash of the C source, the build script, the
flags, the cffi version and the interpreter's extension suffix. The build
runs in a child process with its output captured: cffi's C generator parses
the declarations with pycparser, which would raise the caller's peak memory,
and a CLI call may print nothing but its own output. The built module is
published with an atomic rename, so another process sees no file or a whole
one. :func:`load` returns ``None`` when cffi
or a C compiler is missing, the directory is not writable, the build fails,
or the kernel gives other bits than the scalar loop, numpy's softmax,
``ndarray.sum`` or numpy's elementwise arithmetic on a probe, or other bytes
than ``repr`` on :data:`REPR_PROBES`. A failed build
leaves its output in ``<module name>.failed.log`` next to where the module
would be, and no later process tries that build again until the log is
deleted; otherwise every process would pay for a doomed build.
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

from .numeric import _k_loop, softmax

# Declarations shared by the C source and cffi's cdef. ``vtc_step`` holds one
# batch of the selector training step. :class:`Step` points it at numpy
# buffers that it allocates once and keeps alive; only the loss settings are
# pointed again per call, and each ``train`` binds history buffers of its own.
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
    double *logits_t, *shifted;              /* (s, m) logits; (m, s) minus the row max, exp, P */
    int64_t *chosen;                         /* (m,) first maximum of each row */
    double *top1, *f, *p, *wf, *coeff, *diff, *work;
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
void vtc_normalize(double *, size_t, size_t);
int vtc_attention(const double *, const double *, double *, double *, size_t, size_t, size_t,
                  size_t, double);
int vtc_repr(const double *, size_t, char *, size_t);
"""

SOURCE = "#include <math.h>\n#include <stddef.h>\n#include <stdint.h>\n#include <string.h>\n" + CDEF + r"""
/* One clone of vtc_matmul per vector width, chosen once per process by the
   dynamic loader's ifunc resolver. A clone only widens the independent j
   lanes; each output element keeps its own ascending sum. Elsewhere the
   plain loop is built. */
#if defined(__x86_64__) && defined(__GLIBC__) && (defined(__GNUC__) || defined(__clang__)) \
    && defined(__has_attribute)
#if __has_attribute(target_clones)
#define VTC_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef VTC_CLONES
#define VTC_CLONES
#endif

VTC_CLONES
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

/* Each of the rows of x divided by its ndarray.sum: the softmax's denominators
   once numpy has exponentiated the rows in place. */
void vtc_normalize(double *restrict x, size_t rows, size_t n)
{
    for (size_t i = 0; i < rows; i++, x += n) {
        const double total = 0.0 + pairwise(x, n);
        for (size_t j = 0; j < n; j++)
            x[j] /= total;
    }
}

/* The softmax's row pass: each element times scale (1.0 changes no bit), the
   finite check, and each row minus its first maximum, whose index goes to best if given. */
static int shift_rows(double *restrict x, size_t rows, size_t n, double scale, int64_t *best)
{
    for (size_t i = 0; i < rows; i++, x += n) {
        size_t top = 0;
        for (size_t j = 0; j < n; j++) {
            x[j] *= scale;
            if (!isfinite(x[j]))
                return VTC_NONFINITE_LOGITS;
            if (x[j] > x[top])
                top = j;
        }
        const double max = x[top];
        for (size_t j = 0; j < n; j++)
            x[j] -= max;
        if (best)
            best[i] = (int64_t)top;
    }
    return VTC_OK;
}

/* x -= lr * g, one rounded product and one rounded difference per element. */
void vtc_descend(double *restrict x, const double *restrict g, double lr, size_t n)
{
    for (size_t k = 0; k < n; k++)
        x[k] = x[k] - lr * g[k];
}

/* The logits weight @ scores.T (the products of scores @ weight.T, in the
   same order) plus the bias, transposed into shifted, and the row pass, whose
   maxima are chosen. Numpy exponentiates shifted in place before the post
   call. */
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
    return shift_rows(x, m, s, 1.0, t->chosen);
}

/* The rest of the step from shifted's exp: probabilities, routing
   statistics, the loss and, from VTC_GRAD on, the gradient; VTC_TRAIN also
   writes history row `step` and descends. Every sum keeps the order in which
   numpy forms it in the fallback step: products ascending from 0.0, sums over
   regions sequential, sums along a contiguous row pairwise. */
int vtc_step_post(vtc_step *t, int mode, size_t step)
{
    const size_t m = t->m, ng = t->ng, s = t->s, c = t->c;
    const double *probs = t->shifted;
    double *f = t->f, *p = t->p, *d = t->d_logits_t;

    vtc_normalize(t->shifted, m, s);
    for (size_t j = 0; j < s; j++)
        f[j] = p[j] = 0.0;
    for (size_t i = 0; i < m; i++) {
        for (size_t j = 0; j < s; j++)
            p[j] += probs[i * s + j];
        t->top1[i] = probs[i * s + t->chosen[i]];
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

/* Scaled attention logits of h heads, each row minus its first maximum: per
   head, k's (n, d) slice transposed into kt, q's (t, d) slice times kt into
   o's (t, n) slice, then the row pass over that slice while it is in cache.
   Numpy exponentiates o in place before vtc_normalize. */
int vtc_attention(const double *restrict q, const double *restrict k, double *restrict o,
                  double *restrict kt, size_t h, size_t t, size_t d, size_t n, double scale)
{
    if (h && t * n == 0)
        return VTC_EMPTY;
    for (size_t g = 0; g < h; g++) {
        const double *restrict kg = k + g * n * d;
        for (size_t j = 0; j < n; j++)
            for (size_t c = 0; c < d; c++)
                kt[c * n + j] = kg[j * d + c];
        double *restrict og = o + g * t * n;
        vtc_matmul(q + g * t * d, kt, og, t, d, n);
        if (shift_rows(og, t, n, scale, NULL))
            return VTC_NONFINITE_LOGITS;
    }
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

/* repr(x) of n finite doubles, each into a slot of width bytes (at least 24,
   the longest repr) padded with NULs: the shortest digits, positional while
   the first digit's decimal exponent is in [-4, 16), with ".0" on integers,
   and d.ddde+XX otherwise. Returns 0, and leaves the slots undefined, if a
   value is not finite. */
int vtc_repr(const double *x, size_t n, char *out, size_t width)
{
    for (size_t s = 0; s < n; s++, out += width) {
        uint64_t bits;
        memcpy(&bits, &x[s], sizeof bits);
        const uint64_t mantissa = bits & ((1ull << 52) - 1);
        const uint32_t exponent = (uint32_t)(bits >> 52) & 0x7ff;
        char *p = out;
        memset(out, 0, width);
        if (exponent == 0x7ff)
            return 0;
        if (bits >> 63)
            *p++ = '-';
        if (exponent == 0 && mantissa == 0) {
            memcpy(p, "0.0", 3);
            continue;
        }
        int32_t e10;
        uint64_t v = shortest(exponent ? mantissa | (1ull << 52) : mantissa,
                              (exponent ? (int32_t)exponent : 1) - 1075,
                              mantissa == 0 && exponent > 1, &e10);
        char digits[20];
        int nd = 0;
        for (; v; v /= 10)
            digits[19 - nd++] = (char)('0' + v % 10);
        const char *d = digits + 20 - nd;
        const int e = e10 + nd - 1;  /* the first digit's decimal exponent */
        if (e >= -4 && e < 16) {
            if (e < 0) {
                memcpy(p, "0.0000", (size_t)(1 - e));
                p += 1 - e;
                memcpy(p, d, (size_t)nd);
            } else if (e + 1 < nd) {
                memcpy(p, d, (size_t)e + 1);
                p[e + 1] = '.';
                memcpy(p + e + 2, d + e + 1, (size_t)(nd - e - 1));
            } else {
                memcpy(p, d, (size_t)nd);
                memset(p + nd, '0', (size_t)(e + 1 - nd));
                memcpy(p + e + 1, ".0", 2);
            }
        } else {
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
            *p++ = (char)('0' + a / 10 % 10);
            *p = (char)('0' + a % 10);
        }
    }
    return 1;
}
"""
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
        arrays. A C pass writes the scaled logits minus each row's maximum,
        numpy's ``exp`` runs over them in place (the same ``exp`` as the
        softmax's), and ``vtc_normalize`` divides each row by its pairwise sum.
        """
        (heads, t, d), n = q.shape, k.shape[1]
        if k.shape != (heads, n, d) or not (q.flags.c_contiguous and k.flags.c_contiguous):
            raise ValueError(f"cannot attend from {q.shape} to {k.shape}")
        out, kt = np.empty((heads, t, n)), np.empty((d, n))
        buffer, lib = self._buffer, self.lib
        rows = buffer("double[]", out, require_writable=True)
        Step.raise_for_softmax(lib.vtc_attention(
            buffer("double[]", q), buffer("double[]", k), rows,
            buffer("double[]", kt, require_writable=True), heads, t, d, n, scale,
        ))
        np.exp(out, out=out)
        lib.vtc_normalize(rows, heads * t, n)
        return out

    def reprs(self, values: np.ndarray) -> np.ndarray:
        """``repr`` of each float64 in ``values``, in C order, as a fresh ``(n,)``
        ``S24`` array (24 bytes hold the longest repr). Raises ``ValueError`` on
        a non-finite value."""
        values = np.ascontiguousarray(values, dtype=np.float64).ravel()
        out = np.empty(values.size, dtype="S24")
        buffer = self._buffer
        if not self.lib.vtc_repr(buffer("double[]", values), values.size,
                                 buffer("char[]", out, require_writable=True), out.itemsize):
            raise ValueError("cannot format a non-finite value")
        return out


class Step:
    """The selector training step of one batch in C, on buffers allocated once.

    Write the parameters into :attr:`weight` and :attr:`bias`, choose the loss
    with :meth:`set_loss`, then call :meth:`evaluate` or :meth:`train`. A step
    is a C call up to the shifted logits, ``np.exp`` over :attr:`shifted` in
    place, and a C call for the rest: the exponential stays in numpy because
    numpy's ``exp`` (SIMD on some CPUs) need not give the bits of the C
    library's. Results are read from :attr:`f`, :attr:`p`,
    :attr:`grad_weight`, :attr:`grad_bias` and :meth:`terms`, which the next
    call overwrites. A step holds mutable buffers: do not use one from two
    threads at once.
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
        for name, size in (("target", c), ("imbalance", s), ("logits_t", s * m), ("top1", m),
                           ("wf", s), ("coeff", s), ("diff", c), ("work", c),
                           ("d_logits_t", s * m)):
            self._bind(name, np.zeros(size))
        self.weight = self._bind("weight", np.zeros((s, ng)))
        self.bias = self._bind("bias", np.zeros(s))
        self.shifted = self._bind("shifted", np.zeros((m, s)))
        self.f = self._bind("f", np.zeros(s))
        self.p = self._bind("p", np.zeros(s))
        self.grad_weight = self._bind("grad_weight", np.zeros((s, ng)))
        self.grad_bias = self._bind("grad_bias", np.zeros(s))

    @classmethod
    def raise_for_softmax(cls, status: int) -> None:
        """Raise what ``numeric.softmax`` raises on the logits for which a C pass
        (a step's or the attention's) returned ``status``; return if it would not."""
        if status == cls.EMPTY:
            raise ValueError("softmax of an empty input")
        if status == cls.NONFINITE_LOGITS:
            raise ValueError("softmax input contains non-finite values")

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

    def train(self, learning_rate: float, steps: int) -> tuple[int, int, tuple[np.ndarray, ...]]:
        """``steps`` steps of gradient descent from :attr:`weight` and
        :attr:`bias`, updated in place. Returns the status, the step that set
        it (``steps`` when every step succeeded) and the history: fresh
        ``(steps,)`` losses and ``(steps, S)`` f and P, whose row i step i
        writes before it updates (rows from a failed step on stay zero)."""
        self._t.lr = learning_rate
        s = self._t.s
        history = tuple(self._bind(field, np.zeros(shape)) for field, shape in
                        (("losses", steps), ("f_hist", (steps, s)), ("p_hist", (steps, s))))
        return (*self._run(self._TRAIN, steps), history)

    def _run(self, mode: int, steps: int) -> tuple[int, int]:
        pre, post, exp = self._lib.vtc_step_pre, self._lib.vtc_step_post, np.exp
        t, shifted = self._t, self.shifted
        for step in range(steps):
            status = pre(t)
            if status == 0:
                exp(shifted, out=shifted)
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
    """Whether ``kernel`` matches the numpy layout (``numeric._k_loop``, which
    the tests pin to the scalar loop) on products that show a changed
    summation order, a fused multiply-add or a lost signed zero, with rows long
    enough to run full vector iterations of every clone and a remainder; the
    per-head numpy softmax of such a product; numpy's ``ndarray.sum`` on a sum
    long enough to recurse, where a sequential sum gives other bits;
    numpy's ``x - lr * g`` where an FMA gives other bits; and ``repr`` on
    :data:`REPR_PROBES`."""
    a = (np.arange(4 * 37).reshape(4, 37) * 0.618034) % 2.0 - 1.0
    a[1, :4] = [1e16, 1.0, -1e16, 1.0]
    a[2] = -0.0
    b = (np.arange(37 * 19).reshape(37, 19) * 0.414214) % 2.0 - 1.0
    b[:4] = 1.0
    want = _k_loop(a, b, np.empty((4, 19)))
    if kernel(a, b, np.empty((4, 19))).tobytes() != want.tobytes():
        return False
    head = kernel.attention(a[np.newaxis], np.ascontiguousarray(b.T)[np.newaxis], 0.125)
    if head.tobytes() != softmax(want * 0.125, axis=-1).tobytes():
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
    if x.tobytes() != want.tobytes():
        return False
    return kernel.reprs(np.array(REPR_PROBES)).tolist() == [repr(v).encode() for v in REPR_PROBES]
