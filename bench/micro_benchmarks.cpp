// Infrastructure micro-benchmarks (google-benchmark): simulator step rate,
// lidar scan, NN forward/backward, replay sampling, attention critic, SAC
// update. These bound the wall-clock cost of every experiment in
// EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "algos/attention_critic.h"
#include "algos/sac.h"
#include "hero/high_level.h"
#include "nn/linear.h"
#include "nn/losses.h"
#include "nn/mlp.h"
#include "rl/replay_buffer.h"
#include "sim/scenario.h"

using namespace hero;

static void BM_LaneWorldStep(benchmark::State& state) {
  auto sc = sim::cooperative_lane_change();
  sim::LaneWorld world(sc.config);
  Rng rng(1);
  world.reset(rng);
  std::vector<sim::TwistCmd> cmds(3, {0.04, 0.0});
  for (auto _ : state) {
    if (world.done()) world.reset(rng);
    benchmark::DoNotOptimize(world.step(cmds, rng));
  }
}
BENCHMARK(BM_LaneWorldStep);

static void BM_LidarObservation(benchmark::State& state) {
  auto sc = sim::cooperative_lane_change();
  sim::LaneWorld world(sc.config);
  Rng rng(1);
  world.reset(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.high_level_obs(1));
  }
}
BENCHMARK(BM_LidarObservation);

static void BM_MlpForward(benchmark::State& state) {
  Rng rng(1);
  nn::Mlp net(26, {32, 32}, 25, rng);
  nn::Matrix x = nn::Matrix::xavier(static_cast<std::size_t>(state.range(0)), 26, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(x));
  }
}
BENCHMARK(BM_MlpForward)->Arg(1)->Arg(128)->Arg(1024);

static void BM_MlpForwardBackward(benchmark::State& state) {
  Rng rng(1);
  nn::Mlp net(26, {32, 32}, 25, rng);
  nn::Matrix x = nn::Matrix::xavier(static_cast<std::size_t>(state.range(0)), 26, rng);
  nn::Matrix target(x.rows(), 25, 0.1);
  for (auto _ : state) {
    auto loss = nn::mse_loss(net.forward(x), target);
    net.zero_grad();
    benchmark::DoNotOptimize(net.backward(loss.grad));
  }
}
BENCHMARK(BM_MlpForwardBackward)->Arg(128)->Arg(1024);

static void BM_LinearBackward(benchmark::State& state) {
  Rng rng(1);
  const std::size_t B = static_cast<std::size_t>(state.range(0));
  nn::Linear layer(64, 32, rng);
  nn::Matrix x = nn::Matrix::xavier(B, 64, rng);
  nn::Matrix y, grad_out(B, 32, 0.01), grad_in;
  layer.forward_into(x, y);
  auto params = layer.params();
  for (auto _ : state) {
    for (auto& p : params) p.grad->fill(0.0);
    layer.backward_into(x, y, grad_out, grad_in);
    benchmark::DoNotOptimize(grad_in.data());
  }
}
BENCHMARK(BM_LinearBackward)->Arg(128)->Arg(1024);

static void BM_ReplaySample(benchmark::State& state) {
  rl::ReplayBuffer<std::vector<double>> buf(100000);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) buf.add(std::vector<double>(26, 0.1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(buf.sample(128, rng));
  }
}
BENCHMARK(BM_ReplaySample);

static void BM_AttentionCriticForwardBackward(benchmark::State& state) {
  Rng rng(1);
  algos::AttentionCritic critic(26, 25, 32, {32, 32}, rng);
  const std::size_t B = 128, m = 2;
  nn::Matrix own = nn::Matrix::xavier(B, 26, rng);
  nn::Matrix others(m * B, 26 + 25);
  for (std::size_t r = 0; r < m * B; ++r) {
    for (std::size_t c = 0; c < 26; ++c) others(r, c) = rng.normal(0, 0.5);
    others(r, 26 + rng.index(25)) = 1.0;
  }
  nn::Matrix dq(B, 25, 0.01);
  for (auto _ : state) {
    auto pass = critic.forward(own, others);
    critic.zero_grad();
    critic.backward(pass, dq);
  }
}
BENCHMARK(BM_AttentionCriticForwardBackward);

static void BM_SacUpdate(benchmark::State& state) {
  Rng rng(1);
  algos::SacConfig cfg;
  cfg.batch = static_cast<std::size_t>(state.range(0));
  cfg.warmup_steps = 1;
  algos::SacAgent agent(8, {0.04, -0.1}, {0.2, 0.1}, cfg, rng);
  bench::fill_sac(agent, static_cast<int>(cfg.batch) * 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.update(rng));
  }
}
BENCHMARK(BM_SacUpdate)->Arg(128)->Arg(1024);

static void BM_HighLevelUpdate(benchmark::State& state) {
  Rng rng(1);
  core::HighLevelConfig cfg;
  cfg.warmup_transitions = 1;
  const std::size_t obs_dim = 11;
  const int opp = 2;
  core::HighLevelAgent agent(obs_dim, opp, cfg, rng);
  core::OpponentModel opponents(obs_dim, opp, core::OpponentModelConfig{}, rng);
  bench::fill_high_level(agent, opponents, obs_dim, opp, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.update(opponents, rng));
  }
}
BENCHMARK(BM_HighLevelUpdate);

// One opponent-predictor step, 34 → 32 → 4 at batch 64, on one network in a
// hot loop (dense_stage2's predictors are 26 → 32 → 4; bench_json's
// BM_OpponentUpdateAll/24x23 times them at their training cadence).
static void BM_OpponentUpdate(benchmark::State& state) {
  Rng rng(1);
  const std::size_t obs_dim = 34;
  core::OpponentModel opponents(obs_dim, 1, core::OpponentModelConfig{}, rng);
  bench::fill_opponent(opponents, obs_dim, 512, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opponents.update(0, rng));
  }
}
BENCHMARK(BM_OpponentUpdate);

BENCHMARK_MAIN();
