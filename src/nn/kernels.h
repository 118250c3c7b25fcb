// Raw kernels behind the Matrix `*_into` ops, the ReLU layer and Adam —
// internal to src/nn (public code goes through nn/matrix.h and the layers).
//
// Every entry point is dispatched once at startup: an AVX2+FMA build when
// the CPU has it, a portable baseline otherwise (docs/PERFORMANCE.md, "Fused
// `*_into` kernels"). On the AVX2 side the dense kernels route the small
// shapes HERO's learners run (output widths 1–32, head widths 1–4) to
// shape-specialized paths. Each of those performs, for every output
// element, the same floating-point operations in the same order as the
// generic AVX2 loop it bypasses, so results are bitwise identical to it.
// The `*_generic` entry points expose those generic loops as the ground
// truth of that contract (tests/test_nn_kernels.cpp).
//
// Matrices are row-major and contiguous; `o` never aliases an operand.
#pragma once

#include <cstddef>

namespace hero::nn::detail {

// o (m×n) += a (m×k) · b (k×n).
void mm_accum(const double* a, std::size_t m, std::size_t k, const double* b,
              std::size_t n, double* o);
// o (k×n) += aᵀ · b with a (m×k), b (m×n).
void mm_transA_accum(const double* a, std::size_t m, std::size_t k, const double* b,
                     std::size_t n, double* o);
// o (m×n) = (or += with accumulate) a (m×k) · bᵀ with b (n×k).
void mm_transB(const double* a, std::size_t m, std::size_t k, const double* b,
               std::size_t n, double* o, bool accumulate);
// o (m×n) = a (m×k) · w (k×n) + bias (1×n).
void mm_affine(const double* a, std::size_t m, std::size_t k, const double* w,
               std::size_t n, const double* bias, double* o);

// The generic loops the shape-specialized paths bypass (the baseline build
// when the CPU lacks AVX2+FMA, where no specialized path exists).
void mm_transA_accum_generic(const double* a, std::size_t m, std::size_t k,
                             const double* b, std::size_t n, double* o);
void mm_transB_generic(const double* a, std::size_t m, std::size_t k, const double* b,
                       std::size_t n, double* o, bool accumulate);
void mm_affine_generic(const double* a, std::size_t m, std::size_t k, const double* w,
                       std::size_t n, const double* bias, double* o);

// y[i] = x[i] > 0 ? x[i] : 0, branch-free (NaN and −0 map to +0).
void relu_forward(const double* x, std::size_t n, double* y);
// out[i] = x[i] > 0 ? g[i] : 0, branch-free.
void relu_backward(const double* x, const double* g, std::size_t n, double* out);

// One Adam update of n parameters, elementwise:
//   m = β1·m + (1−β1)·g,  v = β2·v + (1−β2)·g·g,
//   w −= lr·(m/bc1) / (√(v/bc2) + ε)
// with every multiply and add rounded separately (no FMA contraction), so
// the vector build matches the scalar one bitwise.
struct AdamCoeffs {
  double lr, beta1, beta2, eps, bc1, bc2;
};
void adam_update(double* w, const double* g, double* m, double* v, std::size_t n,
                 const AdamCoeffs& c);

}  // namespace hero::nn::detail
