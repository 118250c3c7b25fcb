// Equivalence tests for the fused zero-allocation kernels against naive
// reference implementations, plus an end-to-end check that the
// workspace-based Mlp forward/backward matches a hand-rolled reference
// network built from the same weights. Tolerances are 1e-12: the fused
// kernels must be numerically equivalent, not merely close. The
// shape-specialized kernel paths are held to the generic loops they bypass
// bitwise (nn/kernels.h).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/grad_check.h"
#include "nn/kernels.h"
#include "nn/linear.h"
#include "nn/losses.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"

namespace hero::nn {
namespace {

constexpr double kTol = 1e-12;

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal(0.0, 1.0);
  }
  return m;
}

void expect_near(const Matrix& a, const Matrix& b, double tol = kTol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(a(i, j), b(i, j), tol) << "at (" << i << ", " << j << ")";
    }
  }
}

// ------------------------------------------------------ fused kernels ----

TEST(FusedKernels, MatmulIntoMatchesMatmul) {
  Rng rng(7);
  Matrix a = random_matrix(5, 9, rng);
  Matrix b = random_matrix(9, 4, rng);
  Matrix out;
  a.matmul_into(b, out);
  expect_near(out, a.matmul(b));
}

TEST(FusedKernels, MatmulIntoAccumulates) {
  Rng rng(7);
  Matrix a = random_matrix(3, 6, rng);
  Matrix b = random_matrix(6, 5, rng);
  Matrix seed = random_matrix(3, 5, rng);
  Matrix out = seed;
  a.matmul_into(b, out, /*accumulate=*/true);
  expect_near(out, seed + a.matmul(b));
}

TEST(FusedKernels, MatmulTransAIntoMatchesExplicitTranspose) {
  Rng rng(11);
  Matrix a = random_matrix(8, 3, rng);  // (m, k): contract over m
  Matrix b = random_matrix(8, 5, rng);  // (m, n)
  Matrix out;
  a.matmul_transA_into(b, out);
  expect_near(out, a.transpose().matmul(b));
}

TEST(FusedKernels, MatmulTransAIntoAccumulates) {
  Rng rng(11);
  Matrix a = random_matrix(6, 4, rng);
  Matrix b = random_matrix(6, 2, rng);
  Matrix seed = random_matrix(4, 2, rng);
  Matrix out = seed;
  a.matmul_transA_into(b, out, /*accumulate=*/true);
  expect_near(out, seed + a.transpose().matmul(b));
}

TEST(FusedKernels, MatmulTransBIntoMatchesExplicitTranspose) {
  Rng rng(13);
  Matrix a = random_matrix(7, 4, rng);  // (m, k)
  Matrix b = random_matrix(5, 4, rng);  // (n, k): contract over k
  Matrix out;
  a.matmul_transB_into(b, out);
  expect_near(out, a.matmul(b.transpose()));
}

TEST(FusedKernels, MatmulTransBIntoAccumulates) {
  Rng rng(13);
  Matrix a = random_matrix(4, 6, rng);
  Matrix b = random_matrix(3, 6, rng);
  Matrix seed = random_matrix(4, 3, rng);
  Matrix out = seed;
  a.matmul_transB_into(b, out, /*accumulate=*/true);
  expect_near(out, seed + a.matmul(b.transpose()));
}

TEST(FusedKernels, AffineIntoMatchesMatmulPlusBias) {
  Rng rng(17);
  Matrix x = random_matrix(6, 5, rng);
  Matrix w = random_matrix(5, 3, rng);
  Matrix bias = random_matrix(1, 3, rng);
  Matrix out;
  x.affine_into(w, bias, out);
  Matrix ref = x.matmul(w);
  for (std::size_t i = 0; i < ref.rows(); ++i) {
    for (std::size_t j = 0; j < ref.cols(); ++j) ref(i, j) += bias(0, j);
  }
  expect_near(out, ref);
}

TEST(FusedKernels, AffineIntoIsRowPositionInvariant) {
  // The serving stack's bitwise batched-equals-sequential guarantee
  // (docs/SERVING.md) rests on this kernel property: a row's result must not
  // depend on the batch size or on where the row sits in the batch. Exact
  // bit equality, no tolerance — any change to mm_affine's accumulation
  // order or blocking that breaks this is a serving-correctness bug even if
  // it is numerically tiny.
  Rng rng(23);
  // Odd k and n exercise both the blocked loops and their scalar tails;
  // n = 1, 4 and 32 the narrow and register-resident paths.
  const std::size_t k = 37;
  for (std::size_t n : {std::size_t{13}, std::size_t{1}, std::size_t{4}, std::size_t{32}}) {
    Matrix big = random_matrix(16, k, rng);
    Matrix w = random_matrix(k, n, rng);
    Matrix bias = random_matrix(1, n, rng);
    Matrix big_out;
    big.affine_into(w, bias, big_out);

    for (std::size_t rows : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
      for (std::size_t start = 0; start + rows <= big.rows(); start += rows) {
        Matrix sub(rows, k);
        for (std::size_t i = 0; i < rows; ++i) {
          for (std::size_t j = 0; j < k; ++j) sub(i, j) = big(start + i, j);
        }
        Matrix sub_out;
        sub.affine_into(w, bias, sub_out);
        for (std::size_t i = 0; i < rows; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(sub_out(i, j), big_out(start + i, j))
                << "n=" << n << " rows=" << rows << " start=" << start << " (" << i
                << ", " << j << ")";
          }
        }
      }
    }
  }
}

// ------------------------------- fast paths vs the generic loops ----

// The sweep reaches every specialized path and its fallbacks: narrow and
// register-resident affine widths (n < 4, n % 4 == 0 up to 32) and the
// generic ones past them, transB with k = 1, 4 and otherwise (odd and even
// batch rows), transA with n = 1, 4 and otherwise, each with k- and
// row-tails.
constexpr std::size_t kSweepM[] = {1, 3, 16, 128};
constexpr std::size_t kSweepK[] = {1, 2, 3, 4, 5, 10, 32, 34};
constexpr std::size_t kSweepN[] = {1, 2, 3, 4, 5, 8, 25, 32, 33, 64};

// Values spread over six decades, so any change to the order in which a
// kernel rounds its products and sums changes some output bits.
std::vector<double> spread_values(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal(0.0, 1.0) * std::pow(10.0, rng.uniform(-3.0, 3.0));
  return v;
}

// Bitwise comparison: distinguishes -0 from +0, and fails on any NaN.
::testing::AssertionResult same_bits(const std::vector<double>& got,
                                     const std::vector<double>& want) {
  if (got.size() != want.size()) return ::testing::AssertionFailure() << "size";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(FusedKernels, AffineFastPathsMatchGenericLoopBitwise) {
  Rng rng(61);
  for (std::size_t m : kSweepM) {
    for (std::size_t k : kSweepK) {
      for (std::size_t n : kSweepN) {
        const auto a = spread_values(m * k, rng);
        const auto w = spread_values(k * n, rng);
        const auto bias = spread_values(n, rng);
        std::vector<double> fast(m * n), generic(m * n);
        detail::mm_affine(a.data(), m, k, w.data(), n, bias.data(), fast.data());
        detail::mm_affine_generic(a.data(), m, k, w.data(), n, bias.data(),
                                  generic.data());
        EXPECT_TRUE(same_bits(fast, generic)) << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(FusedKernels, TransAFastPathsMatchGenericLoopBitwise) {
  Rng rng(67);
  for (std::size_t m : kSweepM) {
    for (std::size_t k : kSweepK) {
      for (std::size_t n : kSweepN) {
        const auto a = spread_values(m * k, rng);
        const auto b = spread_values(m * n, rng);
        std::vector<double> fast = spread_values(k * n, rng);  // accumulated into
        std::vector<double> generic = fast;
        detail::mm_transA_accum(a.data(), m, k, b.data(), n, fast.data());
        detail::mm_transA_accum_generic(a.data(), m, k, b.data(), n, generic.data());
        EXPECT_TRUE(same_bits(fast, generic)) << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(FusedKernels, TransBFastPathsMatchGenericLoopBitwise) {
  Rng rng(71);
  for (std::size_t m : kSweepM) {
    for (std::size_t k : kSweepK) {
      for (std::size_t n : kSweepN) {
        const auto a = spread_values(m * k, rng);
        const auto b = spread_values(n * k, rng);
        for (bool accumulate : {false, true}) {
          std::vector<double> fast = spread_values(m * n, rng);
          std::vector<double> generic = fast;
          detail::mm_transB(a.data(), m, k, b.data(), n, fast.data(), accumulate);
          detail::mm_transB_generic(a.data(), m, k, b.data(), n, generic.data(),
                                    accumulate);
          EXPECT_TRUE(same_bits(fast, generic))
              << "m=" << m << " k=" << k << " n=" << n << " accumulate=" << accumulate;
        }
      }
    }
  }
}

TEST(FusedKernels, TransBWithZeroProductsKeepsGenericSignOfZero) {
  // The generic loop seeds its dot products with +0, so a product that is
  // exactly -0 comes out +0, while one that underflows to -0 inside a fused
  // multiply-add keeps its sign; the k = 1 and k = 4 paths must do the same.
  for (std::size_t k : {std::size_t{1}, std::size_t{4}}) {
    const std::size_t m = 3, n = 9;
    std::vector<double> a(m * k, -0.0), b(n * k, 2.0);
    a[0] = 1.0;
    b[1] = -0.0;
    a[k] = 1e-200;
    b[2 * k] = -1e-200;
    std::vector<double> fast(m * n), generic(m * n);
    detail::mm_transB(a.data(), m, k, b.data(), n, fast.data(), false);
    detail::mm_transB_generic(a.data(), m, k, b.data(), n, generic.data(), false);
    EXPECT_TRUE(same_bits(fast, generic)) << "k=" << k;
  }
}

TEST(FusedKernels, ReluMatchesConditionalBitwise) {
  // Semantics are x > 0 ? x : 0 — NaN and -0 map to +0 — at every length
  // around the vector widths.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double special[] = {-0.0, 0.0, nan, -nan, inf, -inf, 4.9e-324, -4.9e-324,
                            1.5, -2.5, 1e300, -1e-300};
  Rng rng(73);
  for (std::size_t len = 0; len <= 13; ++len) {
    std::vector<double> x(len), g = spread_values(len, rng);
    for (std::size_t i = 0; i < len; ++i) {
      x[i] = i < std::size(special) ? special[(i + len) % std::size(special)]
                                    : rng.normal(0.0, 1.0);
    }
    if (len > 0) g[len / 2] = -0.0;
    std::vector<double> y(len), gin(len), want_y(len), want_gin(len);
    detail::relu_forward(x.data(), len, y.data());
    detail::relu_backward(x.data(), g.data(), len, gin.data());
    for (std::size_t i = 0; i < len; ++i) {
      want_y[i] = x[i] > 0.0 ? x[i] : 0.0;
      want_gin[i] = x[i] > 0.0 ? g[i] : 0.0;
    }
    EXPECT_TRUE(same_bits(y, want_y)) << "len=" << len;
    EXPECT_TRUE(same_bits(gin, want_gin)) << "len=" << len;
  }
}

// The scalar Adam step, every operation rounded on its own.
__attribute__((optimize("fp-contract=off"))) void adam_reference(
    double* w, const double* g, double* m, double* v, std::size_t n,
    const detail::AdamCoeffs& c) {
  for (std::size_t k = 0; k < n; ++k) {
    m[k] = c.beta1 * m[k] + (1.0 - c.beta1) * g[k];
    v[k] = c.beta2 * v[k] + (1.0 - c.beta2) * g[k] * g[k];
    w[k] -= c.lr * (m[k] / c.bc1) / (std::sqrt(v[k] / c.bc2) + c.eps);
  }
}

TEST(FusedKernels, AdamUpdateMatchesScalarStepBitwise) {
  Rng rng(79);
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{7},
                        std::size_t{32}, std::size_t{1089}}) {
    const detail::AdamCoeffs c{3e-4, 0.9, 0.999, 1e-8, 1.0 - std::pow(0.9, 3.0),
                               1.0 - std::pow(0.999, 3.0)};
    std::vector<double> w = spread_values(n, rng), g = spread_values(n, rng);
    std::vector<double> m = spread_values(n, rng), v = spread_values(n, rng);
    for (double& x : v) x = std::abs(x);
    std::vector<double> w2 = w, m2 = m, v2 = v;
    for (int step = 0; step < 3; ++step) {
      detail::adam_update(w.data(), g.data(), m.data(), v.data(), n, c);
      adam_reference(w2.data(), g.data(), m2.data(), v2.data(), n, c);
    }
    EXPECT_TRUE(same_bits(w, w2)) << "n=" << n;
    EXPECT_TRUE(same_bits(m, m2)) << "n=" << n;
    EXPECT_TRUE(same_bits(v, v2)) << "n=" << n;
  }
}

TEST(FusedKernels, HcatIntoMatchesHcat) {
  Rng rng(19);
  Matrix a = random_matrix(4, 3, rng);
  Matrix b = random_matrix(4, 5, rng);
  Matrix out;
  a.hcat_into(b, out);
  expect_near(out, a.hcat(b));
}

TEST(FusedKernels, ColSliceIntoMatchesColSlice) {
  Rng rng(23);
  Matrix a = random_matrix(4, 8, rng);
  Matrix out;
  a.col_slice_into(2, 6, out);
  expect_near(out, a.col_slice(2, 6));
  Matrix seed = random_matrix(4, 4, rng);
  Matrix acc = seed;
  a.col_slice_into(2, 6, acc, /*accumulate=*/true);
  expect_near(acc, seed + a.col_slice(2, 6));
}

TEST(FusedKernels, ResizeKeepsCapacityAcrossShrinkGrow) {
  Matrix m(8, 8, 1.0);
  const double* before = m.data();
  m.resize(4, 4);
  m.resize(8, 8);
  EXPECT_EQ(m.data(), before);  // capacity (and storage) retained
}

// ------------------------------------------- Linear fused backward ----

TEST(FusedKernels, LinearBackwardMatchesReferenceContractions) {
  Rng rng(29);
  Linear layer(5, 4, rng);
  Matrix x = random_matrix(6, 5, rng);
  Matrix y, grad_in;
  layer.forward_into(x, y);
  Matrix grad_out = random_matrix(6, 4, rng);
  auto refs = layer.params();
  ASSERT_EQ(refs.size(), 2u);
  for (auto& p : refs) p.grad->fill(0.0);
  layer.backward_into(x, y, grad_out, grad_in);

  // dW = xᵀ·dy, db = column-sum(dy), dx = dy·Wᵀ.
  Matrix dw_ref = x.transpose().matmul(grad_out);
  Matrix dx_ref = grad_out.matmul(layer.weight().transpose());
  expect_near(*refs[0].grad, dw_ref);
  for (std::size_t j = 0; j < 4; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < 6; ++i) s += grad_out(i, j);
    EXPECT_NEAR((*refs[1].grad)(0, j), s, kTol);
  }
  expect_near(grad_in, dx_ref);
}

// ------------------------------------------------ Mlp equivalence ----

// Reference forward/backward composed from value-returning ops on the same
// weights (ReLU hidden activations, identity output — the Mlp default).
struct RefPass {
  std::vector<Matrix> z;   // pre-activations per linear layer
  std::vector<Matrix> a;   // post-activations (a[0] = input)
  Matrix out;
};

RefPass ref_forward(Mlp& net, const Matrix& x) {
  auto& ps = net.params();
  RefPass p;
  p.a.push_back(x);
  const std::size_t n_linear = ps.size() / 2;
  for (std::size_t l = 0; l < n_linear; ++l) {
    const Matrix& w = *ps[2 * l].value;
    const Matrix& b = *ps[2 * l + 1].value;
    Matrix z = p.a.back().matmul(w);
    for (std::size_t i = 0; i < z.rows(); ++i) {
      for (std::size_t j = 0; j < z.cols(); ++j) z(i, j) += b(0, j);
    }
    p.z.push_back(z);
    if (l + 1 < n_linear) {
      p.a.push_back(z.map([](double v) { return v > 0.0 ? v : 0.0; }));
    } else {
      p.out = z;
    }
  }
  return p;
}

// Returns dL/dx; fills dw/db with parameter grads.
Matrix ref_backward(Mlp& net, const RefPass& p, const Matrix& grad_out,
                    std::vector<Matrix>& dw, std::vector<Matrix>& db) {
  auto& ps = net.params();
  const std::size_t n_linear = ps.size() / 2;
  dw.assign(n_linear, {});
  db.assign(n_linear, {});
  Matrix g = grad_out;
  for (std::size_t l = n_linear; l-- > 0;) {
    const Matrix& w = *ps[2 * l].value;
    dw[l] = p.a[l].transpose().matmul(g);
    db[l].resize(1, g.cols());
    for (std::size_t j = 0; j < g.cols(); ++j) {
      double s = 0.0;
      for (std::size_t i = 0; i < g.rows(); ++i) s += g(i, j);
      db[l](0, j) = s;
    }
    g = g.matmul(w.transpose());
    if (l > 0) {
      const Matrix& z = p.z[l - 1];
      for (std::size_t i = 0; i < g.rows(); ++i) {
        for (std::size_t j = 0; j < g.cols(); ++j) {
          if (z(i, j) <= 0.0) g(i, j) = 0.0;
        }
      }
    }
  }
  return g;
}

TEST(MlpEquivalence, ForwardMatchesReference) {
  Rng rng(31);
  Mlp net(6, {8, 8}, 3, rng);
  Matrix x = random_matrix(5, 6, rng);
  const Matrix& y = net.forward(x);
  RefPass ref = ref_forward(net, x);
  expect_near(y, ref.out);
}

TEST(MlpEquivalence, BackwardMatchesReference) {
  Rng rng(37);
  Mlp net(6, {8, 8}, 3, rng);
  Matrix x = random_matrix(5, 6, rng);
  Matrix grad_out = random_matrix(5, 3, rng);

  net.forward(x);
  net.zero_grad();
  Matrix grad_in = net.backward(grad_out);  // copy out of the workspace

  RefPass ref = ref_forward(net, x);
  std::vector<Matrix> dw, db;
  Matrix ref_gin = ref_backward(net, ref, grad_out, dw, db);

  expect_near(grad_in, ref_gin);
  auto& ps = net.params();
  for (std::size_t l = 0; l < dw.size(); ++l) {
    expect_near(*ps[2 * l].grad, dw[l]);
    expect_near(*ps[2 * l + 1].grad, db[l]);
  }
}

TEST(MlpEquivalence, BackwardInputMatchesBackwardAndSkipsParamGrads) {
  Rng rng(53);
  Mlp net(6, {8, 8}, 3, rng);
  Matrix x = random_matrix(5, 6, rng);
  Matrix grad_out = random_matrix(5, 3, rng);

  net.forward(x);
  net.zero_grad();
  Matrix full_gin = net.backward(grad_out);  // copy out of the workspace

  net.forward(x);
  net.zero_grad();
  Matrix input_only_gin = net.backward_input(grad_out);

  // Same dL/d(input), bit-for-bit (identical kernel, identical inputs)...
  expect_near(input_only_gin, full_gin, 0.0);
  // ...and the parameter gradients stay exactly zero.
  for (auto p : net.params()) {
    for (std::size_t k = 0; k < p.grad->size(); ++k) {
      EXPECT_EQ(p.grad->data()[k], 0.0);
    }
  }
}

TEST(MlpEquivalence, BackwardParamsMatchesBackwardBitwise) {
  // The learner shapes: an opponent predictor, a twin critic with its
  // value head, and an actor with a 4-wide head.
  struct Shape {
    std::size_t in;
    std::vector<std::size_t> hidden;
    std::size_t out;
    std::size_t batch;
  };
  const Shape shapes[] = {{34, {32}, 4, 64}, {10, {32, 32}, 1, 128}, {8, {32, 32}, 4, 128},
                          {6, {8, 8}, 3, 5}};
  Rng rng(83);
  for (const Shape& sh : shapes) {
    Mlp net(sh.in, sh.hidden, sh.out, rng);
    Matrix x = random_matrix(sh.batch, sh.in, rng);
    Matrix grad_out = random_matrix(sh.batch, sh.out, rng);

    net.zero_grad();
    net.forward(x);
    net.backward(grad_out);
    net.forward(x);
    net.backward(grad_out);  // accumulates onto the first pass
    std::vector<std::vector<double>> full;
    for (auto p : net.params()) {
      full.emplace_back(p.grad->data(), p.grad->data() + p.grad->size());
    }

    net.zero_grad();
    net.forward(x);
    net.backward_params(grad_out);
    net.forward(x);
    net.backward_params(grad_out);
    const auto& ps = net.params();
    ASSERT_EQ(ps.size(), full.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const std::vector<double> got(ps[i].grad->data(),
                                    ps[i].grad->data() + ps[i].grad->size());
      EXPECT_TRUE(same_bits(got, full[i])) << "in=" << sh.in << " param " << i;
    }
  }
}

TEST(MlpEquivalence, RepeatedCallsAreDeterministic) {
  Rng rng(41);
  Mlp net(4, {8}, 2, rng);
  Matrix big = random_matrix(16, 4, rng);
  Matrix small = random_matrix(3, 4, rng);
  Matrix first = net.forward(small);  // copy
  net.forward(big);                   // grow workspace
  const Matrix& again = net.forward(small);  // shrink back in place
  expect_near(again, first, 0.0);
}

TEST(MlpEquivalence, FusedPathPassesGradientCheck) {
  Rng rng(43);
  Mlp net(5, {8}, 3, rng);
  Matrix x = random_matrix(4, 5, rng);
  Matrix target = random_matrix(4, 3, rng);
  Matrix grad;
  net.zero_grad();
  mse_loss_into(net.forward(x), target, grad);
  net.backward(grad);
  const double err = max_param_grad_error(
      net, [&] { return mse_loss(net.forward(x), target).loss; });
  EXPECT_LT(err, 1e-5);
}

}  // namespace
}  // namespace hero::nn
