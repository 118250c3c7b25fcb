// Verifies the zero-allocation contract of the NN hot path: after a warmup
// pass establishes buffer capacity, repeated Mlp::forward/backward calls
// (and the fused Matrix kernels they are built on, and the opponent model's
// grouped update and prediction) must not touch the heap.
//
// Global operator new/delete are replaced with counting versions; this file
// is its own test binary so the replacement cannot leak into other suites.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

#include "hero/opponent_model.h"
#include "nn/losses.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace hero::nn {
namespace {

long allocations_during(const std::function<void()>& fn) {
  const long before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocationCount, MlpForwardBackwardSteadyStateIsAllocFree) {
  Rng rng(1);
  Mlp net(26, {32, 32}, 25, rng);
  Matrix x = Matrix::xavier(64, 26, rng);
  Matrix target(64, 25, 0.1);
  Matrix grad;

  // Warmup: size every workspace/scratch buffer and the param cache.
  for (int i = 0; i < 2; ++i) {
    net.zero_grad();
    mse_loss_into(net.forward(x), target, grad);
    net.backward(grad);
  }

  const long n = allocations_during([&] {
    for (int i = 0; i < 10; ++i) {
      net.zero_grad();
      mse_loss_into(net.forward(x), target, grad);
      net.backward(grad);
    }
  });
  EXPECT_EQ(n, 0) << n << " heap allocations in 10 steady-state iterations";
}

TEST(AllocationCount, ParamsOnlyBackwardAndAdamStepAreAllocFree) {
  // The learner update step: forward, params-only backward, Adam.
  Rng rng(4);
  Mlp net(34, {32}, 4, rng);
  Adam opt(net.params(), 1e-3);
  Matrix x = Matrix::xavier(64, 34, rng);
  Matrix target(64, 4, 0.1);
  Matrix grad;
  const auto step = [&] {
    net.zero_grad();
    mse_loss_into(net.forward(x), target, grad);
    net.backward_params(grad);
    opt.step();
  };
  for (int i = 0; i < 2; ++i) step();

  const long n = allocations_during([&] {
    for (int i = 0; i < 10; ++i) step();
  });
  EXPECT_EQ(n, 0) << n << " heap allocations in 10 steady-state iterations";
}

TEST(AllocationCount, FusedKernelsSteadyStateIsAllocFree) {
  Rng rng(2);
  Matrix a = Matrix::xavier(64, 32, rng);
  Matrix b = Matrix::xavier(32, 16, rng);
  Matrix bt = Matrix::xavier(16, 32, rng);
  Matrix bias = Matrix::xavier(1, 16, rng);
  Matrix out1, out2, out3, out4;

  a.matmul_into(b, out1);
  a.matmul_transA_into(a, out2);
  a.matmul_transB_into(bt, out3);
  a.affine_into(b, bias, out4);

  const long n = allocations_during([&] {
    for (int i = 0; i < 10; ++i) {
      a.matmul_into(b, out1);
      a.matmul_transA_into(a, out2);
      a.matmul_transB_into(bt, out3);
      a.affine_into(b, bias, out4);
    }
  });
  EXPECT_EQ(n, 0) << n << " heap allocations in 10 steady-state iterations";
}

TEST(AllocationCount, SmallerBatchReusesCapacity) {
  Rng rng(3);
  Mlp net(16, {32}, 8, rng);
  Matrix big = Matrix::xavier(128, 16, rng);
  Matrix small = Matrix::xavier(16, 16, rng);
  net.forward(big);  // capacity sized for the large batch

  const long n = allocations_during([&] {
    for (int i = 0; i < 10; ++i) net.forward(small);
  });
  EXPECT_EQ(n, 0) << n << " heap allocations when shrinking the batch";
}

TEST(AllocationCount, OpponentModelUpdateAndPredictAreAllocFree) {
  // dense_stage2's shape: 23 predictors 26 → 32 → 4 in one group, updated
  // and queried at two row counts, so the shared workspace changes shape
  // between passes.
  Rng rng(5);
  constexpr std::size_t obs_dim = 26;
  constexpr int opponents = 23;
  hero::core::OpponentModel model(obs_dim, opponents,
                                  hero::core::OpponentModelConfig{}, rng);
  std::array<double, obs_dim> obs{};
  std::array<int, opponents> options{};
  for (int i = 0; i < 200; ++i) {
    for (double& x : obs) x = rng.uniform(-1.0, 1.0);
    for (std::size_t j = 0; j < options.size(); ++j) {
      options[j] = static_cast<int>((static_cast<std::size_t>(i) + j) % 4);
    }
    model.observe(obs.data(), options.data());
  }
  Matrix few = Matrix::xavier(3, obs_dim, rng);
  Matrix many = Matrix::xavier(64, obs_dim, rng);
  Matrix block;
  const auto step = [&] {
    model.update_all(rng);
    model.predict_all_rows(few, block);
    model.predict_all_rows(many, block);
  };
  // The per-update loss history is the only growing record; warm up until
  // it has room for the measured steps (its growth is amortized).
  for (int i = 0; i < 17; ++i) step();
  for (const auto& history : model.loss_history()) {
    ASSERT_GE(history.capacity() - history.size(), 10u);
  }

  const long n = allocations_during([&] {
    for (int i = 0; i < 10; ++i) step();
  });
  EXPECT_EQ(n, 0) << n << " heap allocations in 10 steady-state iterations";
}

}  // namespace
}  // namespace hero::nn
