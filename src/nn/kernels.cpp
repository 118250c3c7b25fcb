#include "nn/kernels.h"

#include <cmath>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace hero::nn::detail {
namespace {

// Runtime ISA dispatch for the kernels: each loop body is an always_inline
// helper instantiated twice — a baseline x86-64 version and an AVX2+FMA
// version — and a function pointer picked once at static-init by
// __builtin_cpu_supports. Release binaries stay portable without giving up
// the wide units when they exist. (Feature-based dispatch, not
// target_clones("arch=..."): arch clones match the CPU *model*, which
// virtualized CPUs with a generic model string fail even when they expose
// every needed feature bit.)
#if defined(__x86_64__) && defined(__GNUC__)
#define HERO_KERNEL_DISPATCH 1
#define HERO_KERNEL_INLINE __attribute__((always_inline)) inline
#else
#define HERO_KERNEL_DISPATCH 0
#define HERO_KERNEL_INLINE inline
#endif

// o (m×n) += a (m×k) · b (k×n); every matrix row-major and contiguous, `o`
// already initialized. k is register-blocked by 4 so each pass over the
// output row folds in four rank-1 updates — one out-row load/store per four
// multiply-adds instead of one per multiply-add, which is what the
// vectorized loop is otherwise bound by.
HERO_KERNEL_INLINE
void mm_accum_body(const double* a, std::size_t m, std::size_t k, const double* b,
                   std::size_t n, double* o) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* orow = o + i * n;
    std::size_t c = 0;
    for (; c + 4 <= k; c += 4) {
      const double a0 = arow[c], a1 = arow[c + 1], a2 = arow[c + 2], a3 = arow[c + 3];
      const double* b0 = b + c * n;
      const double* b1 = b0 + n;
      const double* b2 = b1 + n;
      const double* b3 = b2 + n;
      for (std::size_t j = 0; j < n; ++j) {
        orow[j] += (a0 * b0[j] + a1 * b1[j]) + (a2 * b2[j] + a3 * b3[j]);
      }
    }
    for (; c < k; ++c) {
      const double ac = arow[c];
      const double* brow = b + c * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += ac * brow[j];
    }
  }
}

// o (k×n) += aᵀ·b with a (m×k), b (m×n): rank-1 updates over the shared row
// index, blocked by 4 batch rows — same load/store amortization as mm_accum.
// Neither transpose is ever materialized.
HERO_KERNEL_INLINE
void mm_transA_accum_body(const double* a, std::size_t m, std::size_t k, const double* b,
                     std::size_t n, double* o) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* a0 = a + i * k;
    const double* a1 = a0 + k;
    const double* a2 = a1 + k;
    const double* a3 = a2 + k;
    const double* b0 = b + i * n;
    const double* b1 = b0 + n;
    const double* b2 = b1 + n;
    const double* b3 = b2 + n;
    for (std::size_t r = 0; r < k; ++r) {
      const double w0 = a0[r], w1 = a1[r], w2 = a2[r], w3 = a3[r];
      double* orow = o + r * n;
      for (std::size_t j = 0; j < n; ++j) {
        orow[j] += (w0 * b0[j] + w1 * b1[j]) + (w2 * b2[j] + w3 * b3[j]);
      }
    }
  }
  for (; i < m; ++i) {
    const double* arow = a + i * k;
    const double* brow = b + i * n;
    for (std::size_t r = 0; r < k; ++r) {
      const double w = arow[r];
      double* orow = o + r * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += w * brow[j];
    }
  }
}

// o (m×n) = (or +=) a (m×k) · bᵀ with b (n×k): row-dot-row, four dots in
// flight with two partial sums each — eight independent accumulation chains,
// so the serial FP-add latency of a lone dot product never gates throughput.
HERO_KERNEL_INLINE
void mm_transB_body(const double* a, std::size_t m, std::size_t k, const double* b,
               std::size_t n, double* o, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* orow = o + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b + j * k;
      const double* b1 = b0 + k;
      const double* b2 = b1 + k;
      const double* b3 = b2 + k;
      double s0a = 0.0, s0b = 0.0, s1a = 0.0, s1b = 0.0;
      double s2a = 0.0, s2b = 0.0, s3a = 0.0, s3b = 0.0;
      std::size_t c = 0;
      for (; c + 2 <= k; c += 2) {
        const double x0 = arow[c], x1 = arow[c + 1];
        s0a += x0 * b0[c];
        s0b += x1 * b0[c + 1];
        s1a += x0 * b1[c];
        s1b += x1 * b1[c + 1];
        s2a += x0 * b2[c];
        s2b += x1 * b2[c + 1];
        s3a += x0 * b3[c];
        s3b += x1 * b3[c + 1];
      }
      if (c < k) {
        const double x = arow[c];
        s0a += x * b0[c];
        s1a += x * b1[c];
        s2a += x * b2[c];
        s3a += x * b3[c];
      }
      if (accumulate) {
        orow[j] += s0a + s0b;
        orow[j + 1] += s1a + s1b;
        orow[j + 2] += s2a + s2b;
        orow[j + 3] += s3a + s3b;
      } else {
        orow[j] = s0a + s0b;
        orow[j + 1] = s1a + s1b;
        orow[j + 2] = s2a + s2b;
        orow[j + 3] = s3a + s3b;
      }
    }
    for (; j < n; ++j) {
      const double* brow = b + j * k;
      double sa = 0.0, sb = 0.0;
      std::size_t c = 0;
      for (; c + 2 <= k; c += 2) {
        sa += arow[c] * brow[c];
        sb += arow[c + 1] * brow[c + 1];
      }
      if (c < k) sa += arow[c] * brow[c];
      if (accumulate) {
        orow[j] += sa + sb;
      } else {
        orow[j] = sa + sb;
      }
    }
  }
}

// o (m×n) = a (m×k) · w (k×n) + bias (1×n): each output row is seeded with
// the broadcast bias, then accumulated in place — fusing the two passes
// halves the traffic over `o`.
//
// The k loop is OUTER and the sample loop inner, so each 4-row strip of `w`
// is loaded once and folded into every sample row while it is L1-hot: `w` is
// streamed exactly once per call no matter how many rows are batched — the
// difference between batch-oblivious and genuinely batched inference once
// the weights outgrow cache (docs/SERVING.md §Throughput). The extra traffic
// this moves onto `o` (re-swept once per k-block) stays L1-resident for any
// realistic batch. Every row's accumulation order is identical to the m=1
// path (k-blocks of 4 in order with the same pairwise sums, then a
// sequential tail), so results are bitwise independent of both the batch
// size and a row's position within it — the batched-equals-serial guarantees
// elsewhere in the repo rely on this.
HERO_KERNEL_INLINE
void mm_affine_body(const double* a, std::size_t m, std::size_t k, const double* w,
               std::size_t n, const double* bias, double* o) {
  for (std::size_t i = 0; i < m; ++i) {
    double* orow = o + i * n;
    for (std::size_t j = 0; j < n; ++j) orow[j] = bias[j];
  }
  std::size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    const double* w0 = w + c * n;
    const double* w1 = w0 + n;
    const double* w2 = w1 + n;
    const double* w3 = w2 + n;
    for (std::size_t i = 0; i < m; ++i) {
      const double* arow = a + i * k;
      double* orow = o + i * n;
      const double a0 = arow[c], a1 = arow[c + 1], a2 = arow[c + 2], a3 = arow[c + 3];
      for (std::size_t j = 0; j < n; ++j) {
        orow[j] += (a0 * w0[j] + a1 * w1[j]) + (a2 * w2[j] + a3 * w3[j]);
      }
    }
  }
  for (; c < k; ++c) {
    const double* wrow = w + c * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double ac = a[i * k + c];
      double* orow = o + i * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += ac * wrow[j];
    }
  }
}

HERO_KERNEL_INLINE
void relu_forward_body(const double* x, std::size_t n, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0 ? x[i] : 0.0;
}

HERO_KERNEL_INLINE
void relu_backward_body(const double* x, const double* g, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] > 0.0 ? g[i] : 0.0;
}

void adam_update_base(double* w, const double* g, double* m, double* v, std::size_t n,
                      const AdamCoeffs& c) {
  for (std::size_t k = 0; k < n; ++k) {
    const double gk = g[k];
    m[k] = c.beta1 * m[k] + (1.0 - c.beta1) * gk;
    v[k] = c.beta2 * v[k] + (1.0 - c.beta2) * gk * gk;
    const double mhat = m[k] / c.bc1;
    const double vhat = v[k] / c.bc2;
    w[k] -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
  }
}

using MmAccumFn = void (*)(const double*, std::size_t, std::size_t, const double*,
                           std::size_t, double*);
using MmTransBFn = void (*)(const double*, std::size_t, std::size_t, const double*,
                            std::size_t, double*, bool);
using MmAffineFn = void (*)(const double*, std::size_t, std::size_t, const double*,
                            std::size_t, const double*, double*);
using ReluForwardFn = void (*)(const double*, std::size_t, double*);
using ReluBackwardFn = void (*)(const double*, const double*, std::size_t, double*);
using AdamFn = void (*)(double*, const double*, double*, double*, std::size_t,
                        const AdamCoeffs&);

void mm_accum_base(const double* a, std::size_t m, std::size_t k, const double* b,
                   std::size_t n, double* o) {
  mm_accum_body(a, m, k, b, n, o);
}
void mm_transA_accum_base(const double* a, std::size_t m, std::size_t k,
                          const double* b, std::size_t n, double* o) {
  mm_transA_accum_body(a, m, k, b, n, o);
}
void mm_transB_base(const double* a, std::size_t m, std::size_t k, const double* b,
                    std::size_t n, double* o, bool accumulate) {
  mm_transB_body(a, m, k, b, n, o, accumulate);
}
void mm_affine_base(const double* a, std::size_t m, std::size_t k, const double* w,
                    std::size_t n, const double* bias, double* o) {
  mm_affine_body(a, m, k, w, n, bias, o);
}

#if HERO_KERNEL_DISPATCH
// The baseline ReLU in SSE2 (part of x86-64): a compare mask ANDed with the
// value or gradient. Compiled as the plain conditional, GCC emits a branch
// per element, which mispredicts about half the time on mixed-sign
// activations.
void relu_forward_base(const double* x, std::size_t n, double* y) {
  const __m128d zero = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d v = _mm_loadu_pd(x + i);
    _mm_storeu_pd(y + i, _mm_and_pd(v, _mm_cmpgt_pd(v, zero)));
  }
  relu_forward_body(x + i, n - i, y + i);
}
void relu_backward_base(const double* x, const double* g, std::size_t n, double* out) {
  const __m128d zero = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d mask = _mm_cmpgt_pd(_mm_loadu_pd(x + i), zero);
    _mm_storeu_pd(out + i, _mm_and_pd(_mm_loadu_pd(g + i), mask));
  }
  relu_backward_body(x + i, g + i, n - i, out + i);
}
#else
void relu_forward_base(const double* x, std::size_t n, double* y) {
  relu_forward_body(x, n, y);
}
void relu_backward_base(const double* x, const double* g, std::size_t n, double* out) {
  relu_backward_body(x, g, n, out);
}
#endif

#if HERO_KERNEL_DISPATCH
#define HERO_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define HERO_GENERIC_AVX2 __attribute__((target("avx2,fma"), noinline))

// ----- generic AVX2 loops ----------------------------------------------------
// The reference every shape-specialized path below is held to, bitwise.
// Kept out of line, so inlining into a dispatcher cannot change how they
// compile.

HERO_TARGET_AVX2 void mm_accum_avx2(const double* a, std::size_t m, std::size_t k,
                                    const double* b, std::size_t n, double* o) {
  mm_accum_body(a, m, k, b, n, o);
}
// Auto-vectorized over j. GCC contracts each 4-row block to
// o + (fma(w0, b0, w1·b1) + fma(w2, b2, w3·b3)) in the vector loop and its
// scalar epilogue alike, and each leftover row to fma(w, b, o).
HERO_GENERIC_AVX2 void mm_transA_accum_generic_avx2(const double* a, std::size_t m,
                                                    std::size_t k, const double* b,
                                                    std::size_t n, double* o) {
  mm_transA_accum_body(a, m, k, b, n, o);
}

// Folds four 4-lane dot-product accumulators into [s0, s1, s2, s3], lane l
// of the result being (v_l[0] + v_l[1]) + (v_l[2] + v_l[3]).
HERO_TARGET_AVX2 HERO_KERNEL_INLINE __m256d fold4(__m256d v0, __m256d v1, __m256d v2,
                                                  __m256d v3) {
  const __m256d h01 = _mm256_hadd_pd(v0, v1);  // [v0_0+v0_1, v1_0+v1_1, v0_2+v0_3, v1_2+v1_3]
  const __m256d h23 = _mm256_hadd_pd(v2, v3);
  const __m256d swap = _mm256_permute2f128_pd(h01, h23, 0x21);
  const __m256d blnd = _mm256_blend_pd(h01, h23, 0b1100);
  return _mm256_add_pd(swap, blnd);
}

// Finishes four transB outputs orow[0..3]: folds the k-tail past the last
// full 4-block (from column c) into the folded sums, then stores or adds.
HERO_TARGET_AVX2 HERO_KERNEL_INLINE void transB_finish4(
    __m256d sums, const double* arow, std::size_t c, std::size_t k, const double* b0,
    const double* b1, const double* b2, const double* b3, double* orow,
    bool accumulate) {
  if (c < k) {
    double tail[4];
    _mm256_storeu_pd(tail, sums);
    for (; c < k; ++c) {
      const double x = arow[c];
      tail[0] += x * b0[c];
      tail[1] += x * b1[c];
      tail[2] += x * b2[c];
      tail[3] += x * b3[c];
    }
    sums = _mm256_loadu_pd(tail);
  }
  if (accumulate) sums = _mm256_add_pd(sums, _mm256_loadu_pd(orow));
  _mm256_storeu_pd(orow, sums);
}

// One transB output past the last full block of four columns j: a 4-lane
// accumulator over k, folded as (l0 + l2) + (l1 + l3), then the k-tail.
HERO_TARGET_AVX2 HERO_KERNEL_INLINE void transB_single(const double* arow, std::size_t k,
                                                       const double* brow, double* out,
                                                       bool accumulate) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(arow + c), _mm256_loadu_pd(brow + c), acc);
  }
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  double s = _mm_cvtsd_f64(_mm_hadd_pd(pair, pair));
  for (; c < k; ++c) s += arow[c] * brow[c];
  if (accumulate) {
    *out += s;
  } else {
    *out = s;
  }
}

// The row-dot-row contraction is the one kernel auto-vectorization cannot
// touch: its inner loop is a reduction, and reassociating it is off-limits
// without -ffast-math. Hand-vectorized here — four dot products with 256-bit
// accumulators, folded by a 4-vector horizontal sum.
HERO_TARGET_AVX2 HERO_KERNEL_INLINE void transB_row(const double* arow, std::size_t k,
                                                    const double* b, std::size_t n,
                                                    double* orow, bool accumulate) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const double* b0 = b + j * k;
    const double* b1 = b0 + k;
    const double* b2 = b1 + k;
    const double* b3 = b2 + k;
    __m256d v0 = _mm256_setzero_pd();
    __m256d v1 = _mm256_setzero_pd();
    __m256d v2 = _mm256_setzero_pd();
    __m256d v3 = _mm256_setzero_pd();
    std::size_t c = 0;
    for (; c + 4 <= k; c += 4) {
      const __m256d x = _mm256_loadu_pd(arow + c);
      v0 = _mm256_fmadd_pd(x, _mm256_loadu_pd(b0 + c), v0);
      v1 = _mm256_fmadd_pd(x, _mm256_loadu_pd(b1 + c), v1);
      v2 = _mm256_fmadd_pd(x, _mm256_loadu_pd(b2 + c), v2);
      v3 = _mm256_fmadd_pd(x, _mm256_loadu_pd(b3 + c), v3);
    }
    transB_finish4(fold4(v0, v1, v2, v3), arow, c, k, b0, b1, b2, b3, orow + j,
                   accumulate);
  }
  for (; j < n; ++j) transB_single(arow, k, b + j * k, orow + j, accumulate);
}

HERO_GENERIC_AVX2 void mm_transB_generic_avx2(const double* a, std::size_t m,
                                              std::size_t k, const double* b,
                                              std::size_t n, double* o,
                                              bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) transB_row(a + i * k, k, b, n, o + i * n, accumulate);
}

// Hand-vectorized: the auto-vectorizer cannot prove `o` never aliases `w`,
// so the shared body compiles to scalar FP even under the avx2 target. The
// inner loop is elementwise over j (no reduction), and every row runs the
// exact same instruction sequence, so results remain bitwise independent of
// the batch size and a row's position within it. Per element, a full 4-lane
// j block computes o + (fma(a1, w1, a0·w0) + fma(a3, w3, a2·w2)); the scalar
// j-tail, contracted by GCC, o + (fma(a0, w0, a1·w1) + fma(a2, w2, a3·w3)).
// Either way the k-tail is fma(a, w, o).
HERO_GENERIC_AVX2 void mm_affine_generic_avx2(const double* a, std::size_t m,
                                              std::size_t k, const double* w,
                                              std::size_t n, const double* bias,
                                              double* o) {
  for (std::size_t i = 0; i < m; ++i) {
    double* orow = o + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) _mm256_storeu_pd(orow + j, _mm256_loadu_pd(bias + j));
    for (; j < n; ++j) orow[j] = bias[j];
  }
  std::size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    const double* w0 = w + c * n;
    const double* w1 = w0 + n;
    const double* w2 = w1 + n;
    const double* w3 = w2 + n;
    for (std::size_t i = 0; i < m; ++i) {
      const double* arow = a + i * k;
      double* orow = o + i * n;
      const __m256d a0 = _mm256_set1_pd(arow[c]);
      const __m256d a1 = _mm256_set1_pd(arow[c + 1]);
      const __m256d a2 = _mm256_set1_pd(arow[c + 2]);
      const __m256d a3 = _mm256_set1_pd(arow[c + 3]);
      std::size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        const __m256d t01 = _mm256_fmadd_pd(a1, _mm256_loadu_pd(w1 + j),
                                            _mm256_mul_pd(a0, _mm256_loadu_pd(w0 + j)));
        const __m256d t23 = _mm256_fmadd_pd(a3, _mm256_loadu_pd(w3 + j),
                                            _mm256_mul_pd(a2, _mm256_loadu_pd(w2 + j)));
        const __m256d acc = _mm256_add_pd(_mm256_loadu_pd(orow + j),
                                          _mm256_add_pd(t01, t23));
        _mm256_storeu_pd(orow + j, acc);
      }
      for (; j < n; ++j) {
        orow[j] += (arow[c] * w0[j] + arow[c + 1] * w1[j]) +
                   (arow[c + 2] * w2[j] + arow[c + 3] * w3[j]);
      }
    }
  }
  for (; c < k; ++c) {
    const double* wrow = w + c * n;
    for (std::size_t i = 0; i < m; ++i) {
      const __m256d ac = _mm256_set1_pd(a[i * k + c]);
      double* orow = o + i * n;
      std::size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        _mm256_storeu_pd(orow + j, _mm256_fmadd_pd(ac, _mm256_loadu_pd(wrow + j),
                                                   _mm256_loadu_pd(orow + j)));
      }
      for (; j < n; ++j) orow[j] += a[i * k + c] * wrow[j];
    }
  }
}

// ----- shape-specialized AVX2 paths ------------------------------------------

// affine, n % 4 == 0 and n ≤ 32: the output row lives in NV = n/4 registers
// across all of k instead of being reloaded and stored per k-block. The
// weights of such a layer (k×n ≤ k×32 doubles, tens of KB at most for the
// input widths here) stay cache-resident row after row.
template <int NV>
HERO_TARGET_AVX2 void affine_rows_avx2(const double* a, std::size_t m, std::size_t k,
                                       const double* w, const double* bias, double* o) {
  constexpr std::size_t n = 4 * NV;
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    __m256d acc[NV];
    for (int v = 0; v < NV; ++v) acc[v] = _mm256_loadu_pd(bias + 4 * v);
    std::size_t c = 0;
    for (; c + 4 <= k; c += 4) {
      const double* w0 = w + c * n;
      const double* w1 = w0 + n;
      const double* w2 = w1 + n;
      const double* w3 = w2 + n;
      const __m256d a0 = _mm256_set1_pd(arow[c]);
      const __m256d a1 = _mm256_set1_pd(arow[c + 1]);
      const __m256d a2 = _mm256_set1_pd(arow[c + 2]);
      const __m256d a3 = _mm256_set1_pd(arow[c + 3]);
      for (int v = 0; v < NV; ++v) {
        const __m256d t01 = _mm256_fmadd_pd(a1, _mm256_loadu_pd(w1 + 4 * v),
                                            _mm256_mul_pd(a0, _mm256_loadu_pd(w0 + 4 * v)));
        const __m256d t23 = _mm256_fmadd_pd(a3, _mm256_loadu_pd(w3 + 4 * v),
                                            _mm256_mul_pd(a2, _mm256_loadu_pd(w2 + 4 * v)));
        acc[v] = _mm256_add_pd(acc[v], _mm256_add_pd(t01, t23));
      }
    }
    for (; c < k; ++c) {
      const __m256d ac = _mm256_set1_pd(arow[c]);
      const double* wrow = w + c * n;
      for (int v = 0; v < NV; ++v) {
        acc[v] = _mm256_fmadd_pd(ac, _mm256_loadu_pd(wrow + 4 * v), acc[v]);
      }
    }
    double* orow = o + i * n;
    for (int v = 0; v < NV; ++v) _mm256_storeu_pd(orow + 4 * v, acc[v]);
  }
}

// affine, n < 4 (value and logit heads): every column is a scalar j-tail of
// the generic loop. Row-outer instead, one register accumulator per output,
// and R rows at a time so R independent dependency chains overlap.
template <int R>
HERO_TARGET_AVX2 HERO_KERNEL_INLINE void affine_narrow_rows(const double* a,
                                                            std::size_t k,
                                                            const double* wj,
                                                            std::size_t n, double bias,
                                                            double* o) {
  double acc[R];
  for (int r = 0; r < R; ++r) acc[r] = bias;
  std::size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    const double* wc = wj + c * n;
    const double w0 = wc[0], w1 = wc[n], w2 = wc[2 * n], w3 = wc[3 * n];
    for (int r = 0; r < R; ++r) {
      const double* ar = a + r * k + c;
      acc[r] += std::fma(ar[0], w0, ar[1] * w1) + std::fma(ar[2], w2, ar[3] * w3);
    }
  }
  for (; c < k; ++c) {
    const double wc = wj[c * n];
    for (int r = 0; r < R; ++r) acc[r] = std::fma(a[r * k + c], wc, acc[r]);
  }
  for (int r = 0; r < R; ++r) o[r * n] = acc[r];
}

HERO_TARGET_AVX2 void affine_narrow_avx2(const double* a, std::size_t m, std::size_t k,
                                         const double* w, std::size_t n,
                                         const double* bias, double* o) {
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      affine_narrow_rows<4>(a + i * k, k, w + j, n, bias[j], o + i * n + j);
    }
    for (; i < m; ++i) affine_narrow_rows<1>(a + i * k, k, w + j, n, bias[j], o + i * n + j);
  }
}

HERO_TARGET_AVX2 void mm_affine_avx2(const double* a, std::size_t m, std::size_t k,
                                     const double* w, std::size_t n, const double* bias,
                                     double* o) {
  if (n < 4) return affine_narrow_avx2(a, m, k, w, n, bias, o);
  switch (n) {
    case 4: return affine_rows_avx2<1>(a, m, k, w, bias, o);
    case 8: return affine_rows_avx2<2>(a, m, k, w, bias, o);
    case 12: return affine_rows_avx2<3>(a, m, k, w, bias, o);
    case 16: return affine_rows_avx2<4>(a, m, k, w, bias, o);
    case 20: return affine_rows_avx2<5>(a, m, k, w, bias, o);
    case 24: return affine_rows_avx2<6>(a, m, k, w, bias, o);
    case 28: return affine_rows_avx2<7>(a, m, k, w, bias, o);
    case 32: return affine_rows_avx2<8>(a, m, k, w, bias, o);
    default: return mm_affine_generic_avx2(a, m, k, w, n, bias, o);
  }
}

// transB, k == 1 (backward through a value head): o[i][j] = fma(a_i, b_j, +0)
// — the generic loop's zero-seeded accumulator with its k-tail applied and
// nothing else — vectorized across j.
HERO_TARGET_AVX2 void transB_k1_avx2(const double* a, std::size_t m, const double* b,
                                     std::size_t n, double* o, bool accumulate) {
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t i = 0; i < m; ++i) {
    const __m256d x = _mm256_set1_pd(a[i]);
    double* orow = o + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      __m256d s = _mm256_fmadd_pd(x, _mm256_loadu_pd(b + j), zero);
      if (accumulate) s = _mm256_add_pd(s, _mm256_loadu_pd(orow + j));
      _mm256_storeu_pd(orow + j, s);
    }
    for (; j < n; ++j) {
      const double s = std::fma(a[i], b[j], 0.0);
      orow[j] = accumulate ? orow[j] + s : s;
    }
  }
}

// transB, k == 4 (backward through a 4-wide head): for each block of four
// outputs the 4×4 block of b is transposed once in registers and reused by
// every row, so a row costs four broadcast FMAs and three adds instead of
// the generic loop's horizontal folds. Per output:
// (p0 + p1) + (p2 + p3) with p_c = fma(a_c, b_c, +0), as fold4 computes it.
HERO_TARGET_AVX2 void transB_k4_avx2(const double* a, std::size_t m, const double* b,
                                     std::size_t n, double* o, bool accumulate) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d r0 = _mm256_loadu_pd(b + j * 4);
    const __m256d r1 = _mm256_loadu_pd(b + j * 4 + 4);
    const __m256d r2 = _mm256_loadu_pd(b + j * 4 + 8);
    const __m256d r3 = _mm256_loadu_pd(b + j * 4 + 12);
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // [r0_0, r1_0, r0_2, r1_2]
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // [r0_1, r1_1, r0_3, r1_3]
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
    const __m256d bt0 = _mm256_permute2f128_pd(t0, t2, 0x20);  // column 0
    const __m256d bt1 = _mm256_permute2f128_pd(t1, t3, 0x20);
    const __m256d bt2 = _mm256_permute2f128_pd(t0, t2, 0x31);
    const __m256d bt3 = _mm256_permute2f128_pd(t1, t3, 0x31);
    for (std::size_t i = 0; i < m; ++i) {
      const double* arow = a + i * 4;
      const __m256d p0 = _mm256_fmadd_pd(_mm256_set1_pd(arow[0]), bt0, zero);
      const __m256d p1 = _mm256_fmadd_pd(_mm256_set1_pd(arow[1]), bt1, zero);
      const __m256d p2 = _mm256_fmadd_pd(_mm256_set1_pd(arow[2]), bt2, zero);
      const __m256d p3 = _mm256_fmadd_pd(_mm256_set1_pd(arow[3]), bt3, zero);
      __m256d s = _mm256_add_pd(_mm256_add_pd(p0, p1), _mm256_add_pd(p2, p3));
      double* out = o + i * n + j;
      if (accumulate) s = _mm256_add_pd(s, _mm256_loadu_pd(out));
      _mm256_storeu_pd(out, s);
    }
  }
  for (; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      transB_single(a + i * 4, 4, b + j * 4, o + i * n + j, accumulate);
    }
  }
}

// transB, any other k: two rows at a time share every load of b, halving
// the loads per FMA of the generic loop (the 32×32 hidden layers are
// load-bound there). Each row keeps its own accumulators and fold.
HERO_TARGET_AVX2 void transB_pairs_avx2(const double* a, std::size_t m, std::size_t k,
                                        const double* b, std::size_t n, double* o,
                                        bool accumulate) {
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const double* xrow = a + i * k;
    const double* yrow = xrow + k;
    double* xo = o + i * n;
    double* yo = xo + n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b + j * k;
      const double* b1 = b0 + k;
      const double* b2 = b1 + k;
      const double* b3 = b2 + k;
      __m256d v0 = _mm256_setzero_pd(), v1 = v0, v2 = v0, v3 = v0;
      __m256d u0 = v0, u1 = v0, u2 = v0, u3 = v0;
      std::size_t c = 0;
      for (; c + 4 <= k; c += 4) {
        const __m256d x = _mm256_loadu_pd(xrow + c);
        const __m256d y = _mm256_loadu_pd(yrow + c);
        const __m256d c0 = _mm256_loadu_pd(b0 + c);
        const __m256d c1 = _mm256_loadu_pd(b1 + c);
        const __m256d c2 = _mm256_loadu_pd(b2 + c);
        const __m256d c3 = _mm256_loadu_pd(b3 + c);
        v0 = _mm256_fmadd_pd(x, c0, v0);
        u0 = _mm256_fmadd_pd(y, c0, u0);
        v1 = _mm256_fmadd_pd(x, c1, v1);
        u1 = _mm256_fmadd_pd(y, c1, u1);
        v2 = _mm256_fmadd_pd(x, c2, v2);
        u2 = _mm256_fmadd_pd(y, c2, u2);
        v3 = _mm256_fmadd_pd(x, c3, v3);
        u3 = _mm256_fmadd_pd(y, c3, u3);
      }
      transB_finish4(fold4(v0, v1, v2, v3), xrow, c, k, b0, b1, b2, b3, xo + j,
                     accumulate);
      transB_finish4(fold4(u0, u1, u2, u3), yrow, c, k, b0, b1, b2, b3, yo + j,
                     accumulate);
    }
    for (; j < n; ++j) {
      transB_single(xrow, k, b + j * k, xo + j, accumulate);
      transB_single(yrow, k, b + j * k, yo + j, accumulate);
    }
  }
  if (i < m) transB_row(a + i * k, k, b, n, o + i * n, accumulate);
}

HERO_TARGET_AVX2 void mm_transB_avx2(const double* a, std::size_t m, std::size_t k,
                                     const double* b, std::size_t n, double* o,
                                     bool accumulate) {
  if (k == 1) return transB_k1_avx2(a, m, b, n, o, accumulate);
  if (k == 4) return transB_k4_avx2(a, m, b, n, o, accumulate);
  transB_pairs_avx2(a, m, k, b, n, o, accumulate);
}

// transA, n == 1 (weight gradient of a value head): o is a k-vector, so the
// generic loop is all scalar epilogue. Vectorized across k instead, with
// each 4-output slice held in a register over all m rows.
HERO_TARGET_AVX2 void transA_n1_avx2(const double* a, std::size_t m, std::size_t k,
                                     const double* b, double* o) {
  std::size_t r = 0;
  for (; r + 4 <= k; r += 4) {
    __m256d acc = _mm256_loadu_pd(o + r);
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const double* a0 = a + i * k + r;
      const __m256d t01 =
          _mm256_fmadd_pd(_mm256_loadu_pd(a0), _mm256_set1_pd(b[i]),
                          _mm256_mul_pd(_mm256_loadu_pd(a0 + k), _mm256_set1_pd(b[i + 1])));
      const __m256d t23 = _mm256_fmadd_pd(
          _mm256_loadu_pd(a0 + 2 * k), _mm256_set1_pd(b[i + 2]),
          _mm256_mul_pd(_mm256_loadu_pd(a0 + 3 * k), _mm256_set1_pd(b[i + 3])));
      acc = _mm256_add_pd(acc, _mm256_add_pd(t01, t23));
    }
    for (; i < m; ++i) {
      acc = _mm256_fmadd_pd(_mm256_loadu_pd(a + i * k + r), _mm256_set1_pd(b[i]), acc);
    }
    _mm256_storeu_pd(o + r, acc);
  }
  for (; r < k; ++r) {
    double acc = o[r];
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const double* a0 = a + i * k + r;
      acc += std::fma(a0[0], b[i], a0[k] * b[i + 1]) +
             std::fma(a0[2 * k], b[i + 2], a0[3 * k] * b[i + 3]);
    }
    for (; i < m; ++i) acc = std::fma(a[i * k + r], b[i], acc);
    o[r] = acc;
  }
}

// transA, n % 4 == 0 and n ≤ 32 (the 4-wide heads and the hidden layers):
// output row r lives in NV = n/4 registers across all m batch rows instead
// of being reloaded and stored once per 4-row block.
template <int NV>
HERO_TARGET_AVX2 void transA_rows_avx2(const double* a, std::size_t m, std::size_t k,
                                       const double* b, double* o) {
  constexpr std::size_t n = 4 * NV;
  for (std::size_t r = 0; r < k; ++r) {
    double* orow = o + r * n;
    __m256d acc[NV];
    for (int v = 0; v < NV; ++v) acc[v] = _mm256_loadu_pd(orow + 4 * v);
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const double* a0 = a + i * k + r;
      const __m256d w0 = _mm256_set1_pd(a0[0]);
      const __m256d w1 = _mm256_set1_pd(a0[k]);
      const __m256d w2 = _mm256_set1_pd(a0[2 * k]);
      const __m256d w3 = _mm256_set1_pd(a0[3 * k]);
      const double* b0 = b + i * n;
      const double* b1 = b0 + n;
      const double* b2 = b1 + n;
      const double* b3 = b2 + n;
      for (int v = 0; v < NV; ++v) {
        const __m256d t01 = _mm256_fmadd_pd(w0, _mm256_loadu_pd(b0 + 4 * v),
                                            _mm256_mul_pd(w1, _mm256_loadu_pd(b1 + 4 * v)));
        const __m256d t23 = _mm256_fmadd_pd(w2, _mm256_loadu_pd(b2 + 4 * v),
                                            _mm256_mul_pd(w3, _mm256_loadu_pd(b3 + 4 * v)));
        acc[v] = _mm256_add_pd(acc[v], _mm256_add_pd(t01, t23));
      }
    }
    for (; i < m; ++i) {
      const __m256d wi = _mm256_set1_pd(a[i * k + r]);
      const double* brow = b + i * n;
      for (int v = 0; v < NV; ++v) {
        acc[v] = _mm256_fmadd_pd(wi, _mm256_loadu_pd(brow + 4 * v), acc[v]);
      }
    }
    for (int v = 0; v < NV; ++v) _mm256_storeu_pd(orow + 4 * v, acc[v]);
  }
}

HERO_TARGET_AVX2 void mm_transA_accum_avx2(const double* a, std::size_t m, std::size_t k,
                                           const double* b, std::size_t n, double* o) {
  switch (n) {
    case 1: return transA_n1_avx2(a, m, k, b, o);
    case 4: return transA_rows_avx2<1>(a, m, k, b, o);
    case 8: return transA_rows_avx2<2>(a, m, k, b, o);
    case 12: return transA_rows_avx2<3>(a, m, k, b, o);
    case 16: return transA_rows_avx2<4>(a, m, k, b, o);
    case 20: return transA_rows_avx2<5>(a, m, k, b, o);
    case 24: return transA_rows_avx2<6>(a, m, k, b, o);
    case 28: return transA_rows_avx2<7>(a, m, k, b, o);
    case 32: return transA_rows_avx2<8>(a, m, k, b, o);
    default: return mm_transA_accum_generic_avx2(a, m, k, b, n, o);
  }
}

HERO_TARGET_AVX2 void relu_forward_avx2(const double* x, std::size_t n, double* y) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(y + i, _mm256_and_pd(v, _mm256_cmp_pd(v, zero, _CMP_GT_OQ)));
  }
  relu_forward_base(x + i, n - i, y + i);
}

HERO_TARGET_AVX2 void relu_backward_avx2(const double* x, const double* g, std::size_t n,
                                         double* out) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d mask = _mm256_cmp_pd(_mm256_loadu_pd(x + i), zero, _CMP_GT_OQ);
    _mm256_storeu_pd(out + i, _mm256_and_pd(_mm256_loadu_pd(g + i), mask));
  }
  relu_backward_base(x + i, g + i, n - i, out + i);
}
#undef HERO_GENERIC_AVX2
#undef HERO_TARGET_AVX2

// Adam's clone enables AVX2 but not FMA: -ffp-contract=fast is global, and
// with FMA available GCC would fuse the moment updates, which the baseline
// build cannot do.
__attribute__((target("avx2"))) void adam_update_avx2(double* w, const double* g,
                                                      double* m, double* v,
                                                      std::size_t n,
                                                      const AdamCoeffs& c) {
  const __m256d beta1 = _mm256_set1_pd(c.beta1);
  const __m256d beta2 = _mm256_set1_pd(c.beta2);
  const __m256d one_m_beta1 = _mm256_set1_pd(1.0 - c.beta1);
  const __m256d one_m_beta2 = _mm256_set1_pd(1.0 - c.beta2);
  const __m256d bc1 = _mm256_set1_pd(c.bc1);
  const __m256d bc2 = _mm256_set1_pd(c.bc2);
  const __m256d lr = _mm256_set1_pd(c.lr);
  const __m256d eps = _mm256_set1_pd(c.eps);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d gk = _mm256_loadu_pd(g + k);
    const __m256d mk = _mm256_add_pd(_mm256_mul_pd(beta1, _mm256_loadu_pd(m + k)),
                                     _mm256_mul_pd(one_m_beta1, gk));
    const __m256d vk = _mm256_add_pd(_mm256_mul_pd(beta2, _mm256_loadu_pd(v + k)),
                                     _mm256_mul_pd(_mm256_mul_pd(one_m_beta2, gk), gk));
    _mm256_storeu_pd(m + k, mk);
    _mm256_storeu_pd(v + k, vk);
    const __m256d mhat = _mm256_div_pd(mk, bc1);
    const __m256d vhat = _mm256_div_pd(vk, bc2);
    const __m256d step = _mm256_div_pd(_mm256_mul_pd(lr, mhat),
                                       _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    _mm256_storeu_pd(w + k, _mm256_sub_pd(_mm256_loadu_pd(w + k), step));
  }
  adam_update_base(w + k, g + k, m + k, v + k, n - k, c);
}

bool cpu_has_avx2_fma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
const bool kUseAvx2 = cpu_has_avx2_fma();
const MmAccumFn mm_accum_fn = kUseAvx2 ? mm_accum_avx2 : mm_accum_base;
const MmAccumFn mm_transA_accum_fn = kUseAvx2 ? mm_transA_accum_avx2 : mm_transA_accum_base;
const MmAccumFn mm_transA_accum_generic_fn =
    kUseAvx2 ? mm_transA_accum_generic_avx2 : mm_transA_accum_base;
const MmTransBFn mm_transB_fn = kUseAvx2 ? mm_transB_avx2 : mm_transB_base;
const MmTransBFn mm_transB_generic_fn = kUseAvx2 ? mm_transB_generic_avx2 : mm_transB_base;
const MmAffineFn mm_affine_fn = kUseAvx2 ? mm_affine_avx2 : mm_affine_base;
const MmAffineFn mm_affine_generic_fn = kUseAvx2 ? mm_affine_generic_avx2 : mm_affine_base;
const ReluForwardFn relu_forward_fn = kUseAvx2 ? relu_forward_avx2 : relu_forward_base;
const ReluBackwardFn relu_backward_fn = kUseAvx2 ? relu_backward_avx2 : relu_backward_base;
const AdamFn adam_update_fn = kUseAvx2 ? adam_update_avx2 : adam_update_base;
#else
constexpr MmAccumFn mm_accum_fn = mm_accum_base;
constexpr MmAccumFn mm_transA_accum_fn = mm_transA_accum_base;
constexpr MmAccumFn mm_transA_accum_generic_fn = mm_transA_accum_base;
constexpr MmTransBFn mm_transB_fn = mm_transB_base;
constexpr MmTransBFn mm_transB_generic_fn = mm_transB_base;
constexpr MmAffineFn mm_affine_fn = mm_affine_base;
constexpr MmAffineFn mm_affine_generic_fn = mm_affine_base;
constexpr ReluForwardFn relu_forward_fn = relu_forward_base;
constexpr ReluBackwardFn relu_backward_fn = relu_backward_base;
constexpr AdamFn adam_update_fn = adam_update_base;
#endif

}  // namespace

void mm_accum(const double* a, std::size_t m, std::size_t k, const double* b,
              std::size_t n, double* o) {
  mm_accum_fn(a, m, k, b, n, o);
}
void mm_transA_accum(const double* a, std::size_t m, std::size_t k, const double* b,
                     std::size_t n, double* o) {
  mm_transA_accum_fn(a, m, k, b, n, o);
}
void mm_transB(const double* a, std::size_t m, std::size_t k, const double* b,
               std::size_t n, double* o, bool accumulate) {
  mm_transB_fn(a, m, k, b, n, o, accumulate);
}
void mm_affine(const double* a, std::size_t m, std::size_t k, const double* w,
               std::size_t n, const double* bias, double* o) {
  mm_affine_fn(a, m, k, w, n, bias, o);
}
void mm_transA_accum_generic(const double* a, std::size_t m, std::size_t k,
                             const double* b, std::size_t n, double* o) {
  mm_transA_accum_generic_fn(a, m, k, b, n, o);
}
void mm_transB_generic(const double* a, std::size_t m, std::size_t k, const double* b,
                       std::size_t n, double* o, bool accumulate) {
  mm_transB_generic_fn(a, m, k, b, n, o, accumulate);
}
void mm_affine_generic(const double* a, std::size_t m, std::size_t k, const double* w,
                       std::size_t n, const double* bias, double* o) {
  mm_affine_generic_fn(a, m, k, w, n, bias, o);
}
void relu_forward(const double* x, std::size_t n, double* y) { relu_forward_fn(x, n, y); }
void relu_backward(const double* x, const double* g, std::size_t n, double* out) {
  relu_backward_fn(x, g, n, out);
}
void adam_update(double* w, const double* g, double* m, double* v, std::size_t n,
                 const AdamCoeffs& c) {
  adam_update_fn(w, g, m, v, n, c);
}

}  // namespace hero::nn::detail
