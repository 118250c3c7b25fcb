// JSON perf-trajectory reporter.
//
// Times the NN hot-path operations (op level) and short training slices of
// HERO plus every baseline (steps/sec), then writes two machine-readable
// snapshots:
//
//   BENCH_nn.json    — op-level numbers (ns/iter), google-benchmark-style
//   BENCH_train.json — environment-steps-per-second per training method
//
// Every perf PR re-runs `tools/run_benchmarks.sh` and commits the refreshed
// snapshots, so the repo carries its own performance trajectory.
//
// Single-core container caveat: CI and the reference container expose one
// core, so every number here — including the BM_BatchStep/E* and
// BM_BatchedRollout/E* batch-first entries — measures single-thread
// throughput. Batching wins come from amortized forward passes and update
// cadence (docs/BATCHING.md), not from parallel hardware. The "dqn/wN"
// worker variants time DQN's update pool, the only baseline that keeps one.
//
// Run:  ./bench_json [--nn-out F] [--train-out F] [--min-time SECONDS]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "algos/attention_critic.h"
#include "algos/coma.h"
#include "algos/dqn.h"
#include "algos/maac.h"
#include "algos/maddpg.h"
#include "algos/sac.h"
#include "common/flags.h"
#include "hero/hero_trainer.h"
#include "nn/losses.h"
#include "nn/mlp.h"
#include "obs/phase.h"
#include "sim/batch_lane_world.h"
#include "sim/lane_world.h"
#include "sim/scenario.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct BenchResult {
  std::string name;
  double ns_per_iter = 0.0;
  long iterations = 0;
};

// Adaptive timing loop: grows the iteration count until the measured wall
// time exceeds `min_seconds`, then reports ns per iteration.
template <class F>
BenchResult time_case(const std::string& name, double min_seconds, F&& fn) {
  fn();  // warm caches, settle lazily-sized workspaces
  long iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (long i = 0; i < iters; ++i) fn();
    const double secs = seconds_since(t0);
    if (secs >= min_seconds || iters >= (1L << 30)) {
      BenchResult r;
      r.name = name;
      r.ns_per_iter = secs * 1e9 / static_cast<double>(iters);
      r.iterations = iters;
      std::fprintf(stderr, "  %-34s %12.1f ns/iter  (%ld iters)\n", name.c_str(),
                   r.ns_per_iter, iters);
      return r;
    }
    const double grow = secs > 0.0 ? std::min(10.0, 1.3 * min_seconds / secs) : 10.0;
    iters = static_cast<long>(static_cast<double>(iters) * std::max(2.0, grow));
  }
}

void write_json(const std::string& path, const std::string& kind,
                const std::vector<std::pair<std::string, double>>& entries,
                const std::string& unit, const std::vector<long>& iters) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_json: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  f << "{\n  \"kind\": \"" << kind << "\",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    f << "    {\"name\": \"" << entries[i].first << "\", \"" << unit
      << "\": " << entries[i].second;
    if (i < iters.size()) f << ", \"iterations\": " << iters[i];
    f << "}" << (i + 1 == entries.size() ? "" : ",") << "\n";
  }
  f << "  ]\n}\n";
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

// ------------------------------ op-level cases ------------------------------

std::vector<BenchResult> run_nn_cases(double min_time) {
  using namespace hero;
  std::vector<BenchResult> out;

  // The paper's workhorse shape: obs 26 → 32 → 32 → 25 actions.
  for (std::size_t batch : {std::size_t{1}, std::size_t{128}, std::size_t{1024}}) {
    Rng rng(1);
    nn::Mlp net(26, {32, 32}, 25, rng);
    nn::Matrix x = nn::Matrix::xavier(batch, 26, rng);
    out.push_back(time_case("BM_MlpForward/" + std::to_string(batch), min_time,
                            [&] { net.forward(x); }));
  }

  for (std::size_t batch : {std::size_t{128}, std::size_t{1024}}) {
    Rng rng(1);
    nn::Mlp net(26, {32, 32}, 25, rng);
    nn::Matrix x = nn::Matrix::xavier(batch, 26, rng);
    nn::Matrix target(batch, 25, 0.1);
    out.push_back(
        time_case("BM_MlpForwardBackward/" + std::to_string(batch), min_time, [&] {
          auto loss = nn::mse_loss(net.forward(x), target);
          net.zero_grad();
          net.backward(loss.grad);
        }));
  }

  {
    // Phase-attribution scope cost (obs/phase.h). "off" is what every
    // uninstrumented run pays at each OBS_PHASE site — one relaxed
    // atomic-bool load, asserted to stay in the noise by
    // tools/run_benchmarks.sh. "on" adds two clock reads and two relaxed
    // atomic adds (the --metrics-out price).
    out.push_back(time_case("BM_PhaseScope/off", min_time, [&] {
      OBS_PHASE("bench_phase");
    }));
    obs::set_phases_enabled(true);
    out.push_back(time_case("BM_PhaseScope/on", min_time, [&] {
      OBS_PHASE("bench_phase");
    }));
    obs::set_phases_enabled(false);
    obs::PhaseRegistry::instance().reset();
  }

  {
    // A single Linear layer (hidden-free Mlp) at batch 1024: isolates the
    // transpose-free backward kernels from activation costs.
    Rng rng(1);
    nn::Mlp lin(26, {}, 32, rng);
    nn::Matrix x = nn::Matrix::xavier(1024, 26, rng);
    nn::Matrix target(1024, 32, 0.1);
    out.push_back(time_case("BM_LinearBackward/1024", min_time, [&] {
      auto loss = nn::mse_loss(lin.forward(x), target);
      lin.zero_grad();
      lin.backward(loss.grad);
    }));
  }

  {
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
    out.push_back(time_case("BM_AttentionCriticForwardBackward", min_time, [&] {
      auto pass = critic.forward(own, others);
      critic.zero_grad();
      critic.backward(pass, dq);
    }));
  }

  {
    // The stage-2 cooperation layer: one actor+critic+opponent-conditioned
    // gradient step at the default batch (the per-update cost the obs layer
    // must not regress).
    Rng rng(1);
    core::HighLevelConfig cfg;
    cfg.warmup_transitions = 1;
    const std::size_t obs_dim = 11;
    const int opp = 2;
    core::HighLevelAgent agent(obs_dim, opp, cfg, rng);
    core::OpponentModel opponents(obs_dim, opp, core::OpponentModelConfig{}, rng);
    bench::fill_high_level(agent, opponents, obs_dim, opp, rng);
    out.push_back(time_case("BM_HighLevelUpdate", min_time,
                            [&] { agent.update(opponents, rng); }));
  }

  {
    // One opponent-predictor step, 34 → 32 → 4 at batch 64, repeated on the
    // same network in a hot loop: tens of thousands of updates on one
    // predictor, far past any training run's cadence.
    Rng rng(1);
    const std::size_t obs_dim = 34;
    core::OpponentModel opponents(obs_dim, 1, core::OpponentModelConfig{}, rng);
    bench::fill_opponent(opponents, obs_dim, 512, rng);
    out.push_back(time_case("BM_OpponentUpdate", min_time,
                            [&] { opponents.update(0, rng); }));
  }

  {
    // dense_stage2's opponent layer: 24 agents, each with 23 predictors
    // 26 → 32 → 4, built fresh and stepped through update_all. One
    // iteration is 552 predictor updates; at the default --min-time each
    // predictor takes a few dozen updates, near the ~18 of a dense_stage2
    // run, so the row times the working set of many cold networks rather
    // than one hot one.
    Rng rng(1);
    const std::size_t obs_dim = 26;
    const int agents = 24;
    std::vector<std::unique_ptr<core::OpponentModel>> models;
    for (int k = 0; k < agents; ++k) {
      models.push_back(std::make_unique<core::OpponentModel>(
          obs_dim, agents - 1, core::OpponentModelConfig{}, rng));
      bench::fill_opponent(*models.back(), obs_dim, 512, rng);
    }
    out.push_back(time_case("BM_OpponentUpdateAll/24x23", min_time, [&] {
      for (auto& m : models) m->update_all(rng);
    }));
  }

  for (std::size_t batch : {std::size_t{128}, std::size_t{1024}}) {
    Rng rng(1);
    algos::SacConfig cfg;
    cfg.batch = batch;
    cfg.warmup_steps = 1;
    algos::SacAgent agent(8, {0.04, -0.1}, {0.2, 0.1}, cfg, rng);
    bench::fill_sac(agent, 2000, rng);
    const std::string name =
        batch == 128 ? "BM_SacUpdate" : "BM_SacUpdate/" + std::to_string(batch);
    out.push_back(time_case(name, min_time, [&] { agent.update(rng); }));
  }

  return out;
}

// ------------------------- training-slice cases -----------------------------

struct TrainSlice {
  std::string name;
  double steps_per_sec = 0.0;
  long steps = 0;
};

template <class TrainFn>
TrainSlice time_train(const std::string& name, TrainFn&& fn) {
  TrainSlice s;
  s.name = name;
  const auto t0 = Clock::now();
  s.steps = fn();
  const double secs = seconds_since(t0);
  s.steps_per_sec = secs > 0.0 ? static_cast<double>(s.steps) / secs : 0.0;
  std::fprintf(stderr, "  %-10s %10.1f env steps/sec  (%ld steps)\n", name.c_str(),
               s.steps_per_sec, s.steps);
  return s;
}

// One pass over the trainers at a fixed worker count. Only DQN has a worker
// pool (docs/PARALLELISM.md §baselines), so only its entry carries a "/wN"
// suffix for N > 1; the other trainers run once, at N = 1, under their
// historical names (and seed baselines). HERO's stage 2 is the
// single-threaded batched engine, so a worker count would change nothing
// but its stage-1 skill pool.
void run_train_cases(int episodes, int workers, std::vector<TrainSlice>& out) {
  using namespace hero;
  const sim::Scenario scenario = sim::cooperative_lane_change();
  const std::string suffix = workers > 1 ? "/w" + std::to_string(workers) : "";

  auto step_counter = [](long& steps) {
    return [&steps](int, const rl::EpisodeStats& s) { steps += s.steps; };
  };

  out.push_back(time_train("dqn" + suffix, [&] {
    Rng rng(1);
    algos::DqnConfig cfg;
    cfg.warmup_steps = 64;
    cfg.num_workers = workers;
    algos::IndependentDqnTrainer t(scenario, cfg, rng);
    long steps = 0;
    t.train(episodes, rng, step_counter(steps));
    return steps;
  }));
  if (workers > 1) return;

  out.push_back(time_train("coma", [&] {
    Rng rng(1);
    algos::ComaConfig cfg;
    algos::ComaTrainer t(scenario, cfg, rng);
    long steps = 0;
    t.train(episodes, rng, step_counter(steps));
    return steps;
  }));

  out.push_back(time_train("maddpg", [&] {
    Rng rng(1);
    algos::MaddpgConfig cfg;
    cfg.warmup_steps = 64;
    algos::MaddpgTrainer t(scenario, cfg, rng);
    long steps = 0;
    t.train(episodes, rng, step_counter(steps));
    return steps;
  }));

  out.push_back(time_train("maac", [&] {
    Rng rng(1);
    algos::MaacConfig cfg;
    cfg.warmup_steps = 64;
    algos::MaacTrainer t(scenario, cfg, rng);
    long steps = 0;
    t.train(episodes, rng, step_counter(steps));
    return steps;
  }));

  out.push_back(time_train("hero", [&] {
    Rng rng(1);
    core::HeroConfig cfg;
    cfg.high.warmup_transitions = 16;
    // 16 lockstep envs share each policy/opponent forward and the gradient
    // clock counts batch steps (docs/BATCHING.md).
    cfg.batch_envs = 16;
    core::HeroTrainer t(scenario, cfg, rng);
    t.train_skills(/*episodes_per_skill=*/2, rng);
    long steps = 0;
    t.train(episodes, rng, step_counter(steps));
    return steps;
  }));
}

// Batch-first entries (docs/BATCHING.md), reported as env steps/sec so the
// regression gate compares them with the same higher-is-better polarity as
// the trainer slices. BM_BatchStep isolates the SoA sim (step_all with
// constant keep-lane commands, done envs re-seeded in place); BM_BatchedRollout
// runs one full-width HERO round — selection, skills, and opponent
// predictions batched across E lockstep episodes.
void run_batch_cases(std::vector<TrainSlice>& out) {
  using namespace hero;
  const sim::Scenario scenario = sim::cooperative_lane_change();

  for (int envs : {1, 16, 64, 256}) {
    out.push_back(time_train("BM_BatchStep/E" + std::to_string(envs), [&] {
      sim::BatchLaneWorld world(scenario.config, envs);
      std::vector<Rng> rngs;
      rngs.reserve(static_cast<std::size_t>(envs));
      for (int e = 0; e < envs; ++e) rngs.emplace_back(static_cast<unsigned>(e) + 1);
      std::vector<Rng*> rng_ptrs;
      for (int e = 0; e < envs; ++e) {
        rng_ptrs.push_back(&rngs[static_cast<std::size_t>(e)]);
        world.reset_env(e, rngs[static_cast<std::size_t>(e)]);
      }
      const std::vector<std::uint8_t> active(static_cast<std::size_t>(envs), 1);
      const std::vector<sim::TwistCmd> cmds(
          static_cast<std::size_t>(envs) *
              static_cast<std::size_t>(world.num_learners()),
          sim::TwistCmd{0.12, 0.0});
      sim::BatchStepResult res;
      const long batch_steps = 200000 / envs + 256;
      for (long s = 0; s < batch_steps; ++s) {
        for (int e = 0; e < envs; ++e) {
          if (world.done(e)) world.reset_env(e, rngs[static_cast<std::size_t>(e)]);
        }
        world.step_all(cmds.data(), rng_ptrs.data(), active.data(), res);
      }
      return batch_steps * envs;
    }));
  }

  for (int envs : {16, 64}) {
    out.push_back(
        time_train("BM_BatchedRollout/E" + std::to_string(envs), [&] {
          Rng rng(1);
          core::HeroConfig cfg;
          cfg.high.warmup_transitions = 16;
          cfg.batch_envs = envs;
          core::HeroTrainer t(scenario, cfg, rng);
          t.train_skills(/*episodes_per_skill=*/2, rng);
          long steps = 0;
          t.train(/*episodes=*/envs, rng,
                  [&](int, const rl::EpisodeStats& s) { steps += s.steps; });
          return steps;
        }));
  }
}

// Dense-traffic sensing entries (docs/PERFORMANCE.md, "Spatial neighbor
// index"): one env of the declarative dense scenario at V vehicles, where
// each measured step is a step_all PLUS a full sensing pass — high- and
// low-level obs for every learner, the per-step perception cost a rollout
// actually pays and the part that is O(V²) without the index.
// BM_BatchStep/V128_allpairs re-times V=128 with use_spatial_index off
// (all-pairs staging, uncull lidar narrow phase) in the same run;
// tools/run_benchmarks.sh asserts the indexed entry is ≥ 4× faster.
void run_dense_cases(const std::string& scenario_path,
                     std::vector<TrainSlice>& out) {
  using namespace hero;

  const auto dense_case = [&](const std::string& name, int vehicles,
                              bool use_index, long steps_target) {
    out.push_back(time_train(name, [&] {
      sim::Scenario sc = sim::load_scenario(scenario_path, vehicles);
      sc.config.use_spatial_index = use_index;
      sim::BatchLaneWorld world(sc.config, /*envs=*/1);
      Rng rng(1);
      Rng* rng_ptr = &rng;
      world.reset_env(0, rng);
      const std::uint8_t active = 1;
      const std::vector<sim::TwistCmd> cmds(
          static_cast<std::size_t>(world.num_learners()),
          sim::TwistCmd{0.12, 0.0});
      std::vector<double> hl(world.high_level_obs_dim());
      std::vector<double> ll(world.low_level_obs_dim());
      sim::BatchStepResult res;
      for (long s = 0; s < steps_target; ++s) {
        if (world.done(0)) world.reset_env(0, rng);
        world.step_all(cmds.data(), &rng_ptr, &active, res);
        for (int k = 0; k < world.num_learners(); ++k) {
          const int vi = world.learners()[static_cast<std::size_t>(k)];
          world.high_level_obs_into(0, vi, hl.data());
          world.low_level_obs_into(0, vi, world.lane(0, vi), ll.data());
        }
      }
      return steps_target;
    }));
  };

  dense_case("BM_BatchStep/V64", 64, /*use_index=*/true, 3000);
  dense_case("BM_BatchStep/V128", 128, /*use_index=*/true, 1500);
  dense_case("BM_BatchStep/V256", 256, /*use_index=*/true, 750);
  dense_case("BM_BatchStep/V128_allpairs", 128, /*use_index=*/false, 1500);

  // Full HERO batched rollout on the dense scene: 48 learners × 4 lockstep
  // envs through selection, skills and opponent prediction.
  out.push_back(time_train("BM_BatchedRollout/dense64", [&] {
    sim::Scenario sc = sim::load_scenario(scenario_path, /*num_vehicles=*/64);
    Rng rng(1);
    core::HeroConfig cfg;
    cfg.high.warmup_transitions = 16;
    cfg.batch_envs = 4;
    core::HeroTrainer t(sc, cfg, rng);
    t.train_skills(/*episodes_per_skill=*/1, rng);
    long steps = 0;
    t.train(/*episodes=*/4, rng,
            [&](int, const rl::EpisodeStats& s) { steps += s.steps; });
    return steps;
  }));
}

}  // namespace

int main(int argc, char** argv) {
  hero::Flags flags(argc, argv);
  const std::string nn_out = flags.get_string("nn-out", "BENCH_nn.json");
  const std::string train_out = flags.get_string("train-out", "BENCH_train.json");
  const double min_time = flags.get_double("min-time", 0.25);
  const int train_episodes = flags.get_int("train-episodes", 8);
  // Largest worker count for the "/wN" training slices; 1 keeps the run to
  // the historical single-worker set.
  const int max_workers = flags.get_int("max-workers", 8);
  // Declarative config behind the BM_BatchStep/V* density sweep; empty
  // skips the dense entries (a missing file is a hard error — a silently
  // absent entry would make the regression gate vacuous).
  const std::string dense_scenario =
      flags.get_string("dense-scenario", "scenarios/dense_traffic.json");
  flags.check_unknown();

  std::fprintf(stderr, "== op-level benchmarks ==\n");
  auto nn = run_nn_cases(min_time);
  std::vector<std::pair<std::string, double>> nn_entries;
  std::vector<long> nn_iters;
  for (const auto& r : nn) {
    nn_entries.emplace_back(r.name, r.ns_per_iter);
    nn_iters.push_back(r.iterations);
  }
  write_json(nn_out, "nn_ops_ns_per_iter", nn_entries, "real_time_ns", nn_iters);

  if (train_episodes <= 0) {
    // Don't write an all-zeros snapshot — that would read as a catastrophic
    // regression if it ever got committed.
    std::fprintf(stderr, "== training-slice benchmarks skipped (--train-episodes %d) ==\n",
                 train_episodes);
    return 0;
  }
  std::fprintf(stderr, "== training-slice benchmarks (%d episodes each) ==\n",
               train_episodes);
  std::vector<TrainSlice> train;
  for (int w = 1; w <= max_workers; w *= 2) run_train_cases(train_episodes, w, train);
  run_batch_cases(train);
  if (!dense_scenario.empty()) run_dense_cases(dense_scenario, train);
  std::vector<std::pair<std::string, double>> train_entries;
  for (const auto& s : train) train_entries.emplace_back(s.name, s.steps_per_sec);
  write_json(train_out, "train_steps_per_sec", train_entries, "steps_per_sec", {});
  return 0;
}
