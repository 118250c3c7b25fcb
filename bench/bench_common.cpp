#include "bench_common.h"

#include <cstdio>

#include "algos/coma.h"
#include "algos/dqn.h"
#include "algos/maac.h"
#include "algos/maddpg.h"
#include "common/stats.h"

namespace hero::bench {

namespace {

std::vector<double> uniform_obs(std::size_t dim, Rng& rng) {
  std::vector<double> v(dim);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

}  // namespace

void fill_sac(algos::SacAgent& agent, int transitions, Rng& rng) {
  for (int i = 0; i < transitions; ++i) {
    agent.observe(uniform_obs(8, rng), {rng.uniform(0.04, 0.2), rng.uniform(-0.1, 0.1)},
                  rng.uniform(-1.0, 1.0), uniform_obs(8, rng), i % 50 == 49, rng);
  }
}

void fill_high_level(core::HighLevelAgent& agent, core::OpponentModel& opponents,
                     std::size_t obs_dim, int num_opponents, Rng& rng) {
  for (int i = 0; i < 512; ++i) {
    std::vector<double> obs = uniform_obs(obs_dim, rng);
    std::vector<core::Option> labels;
    for (int j = 0; j < num_opponents; ++j) {
      labels.push_back(core::option_from_index((i + j) % core::kNumOptions));
    }
    opponents.observe(obs, labels);
    agent.store({obs,
                 std::vector<double>(static_cast<std::size_t>(num_opponents) *
                                         core::kNumOptions,
                                     1.0 / core::kNumOptions),
                 i % core::kNumOptions, 0.5, 0.9, uniform_obs(obs_dim, rng), i % 10 == 0});
  }
}

void fill_opponent(core::OpponentModel& opponents, std::size_t obs_dim, int labels,
                   Rng& rng) {
  for (int i = 0; i < labels; ++i) {
    std::vector<core::Option> options;
    for (int j = 0; j < opponents.num_opponents(); ++j) {
      options.push_back(core::option_from_index((i + j) % core::kNumOptions));
    }
    opponents.observe(uniform_obs(obs_dim, rng), options);
  }
}

const std::vector<std::string>& all_methods() {
  static const std::vector<std::string> kMethods = {"dqn", "coma", "maddpg", "maac",
                                                    "hero"};
  return kMethods;
}

namespace {

algos::EpisodeHook make_hook(MethodRun& run, const std::string& name, int episodes,
                             bool log_progress) {
  return [&run, name, episodes, log_progress](int ep, const rl::EpisodeStats& s) {
    run.train_stats.push_back(s);
    const int stride = std::max(1, episodes / 10);
    if (log_progress && (ep + 1) % stride == 0) {
      double coll = 0, succ = 0, rew = 0;
      const int lo = std::max(0, ep + 1 - stride);
      for (int i = lo; i <= ep; ++i) {
        const auto& st = run.train_stats[static_cast<std::size_t>(i)];
        coll += st.collision;
        succ += st.success;
        rew += st.team_reward;
      }
      const double n = ep + 1 - lo;
      std::fprintf(stderr, "[%s] ep %d/%d  reward %.2f  collision %.2f  success %.2f\n",
                   name.c_str(), ep + 1, episodes, rew / n, coll / n, succ / n);
    }
  };
}

}  // namespace

MethodRun train_method(const std::string& method, const sim::Scenario& scenario,
                       const TrainOptions& opts) {
  MethodRun run;
  run.name = method;
  Rng rng(opts.seed);
  auto hook = [&](MethodRun& r) {
    return make_hook(r, method, opts.episodes, opts.log_progress);
  };

  if (method == "dqn") {
    auto trainer = std::make_unique<algos::IndependentDqnTrainer>(
        scenario, algos::DqnConfig{}, rng);
    trainer->train(opts.episodes, rng, hook(run));
    run.controller = std::move(trainer);
  } else if (method == "coma") {
    auto trainer =
        std::make_unique<algos::ComaTrainer>(scenario, algos::ComaConfig{}, rng);
    trainer->train(opts.episodes, rng, hook(run));
    run.controller = std::move(trainer);
  } else if (method == "maddpg") {
    auto trainer = std::make_unique<algos::MaddpgTrainer>(scenario,
                                                          algos::MaddpgConfig{}, rng);
    trainer->train(opts.episodes, rng, hook(run));
    run.controller = std::move(trainer);
  } else if (method == "maac") {
    auto trainer =
        std::make_unique<algos::MaacTrainer>(scenario, algos::MaacConfig{}, rng);
    trainer->train(opts.episodes, rng, hook(run));
    run.controller = std::move(trainer);
  } else if (method == "hero" || method == "hero_noopp") {
    core::HeroConfig cfg;
    cfg.high.use_opponent_model = opts.use_opponent_model && method != "hero_noopp";
    auto trainer = std::make_unique<core::HeroTrainer>(scenario, cfg, rng);
    if (opts.log_progress) {
      std::fprintf(stderr, "[%s] stage 1: training skills (%d eps each)...\n",
                   method.c_str(), opts.skill_episodes);
    }
    trainer->train_skills(opts.skill_episodes, rng);
    trainer->train(opts.episodes, rng, hook(run));
    run.controller = std::move(trainer);
  } else {
    throw std::invalid_argument("unknown method: " + method);
  }
  return run;
}

std::vector<double> smooth(const std::vector<double>& xs, std::size_t w) {
  MovingAverage ma(w);
  std::vector<double> out;
  out.reserve(xs.size());
  for (double x : xs) out.push_back(ma.add(x));
  return out;
}

std::vector<double> reward_series(const std::vector<rl::EpisodeStats>& s) {
  std::vector<double> out;
  out.reserve(s.size());
  for (const auto& e : s) out.push_back(e.team_reward);
  return out;
}

std::vector<double> collision_series(const std::vector<rl::EpisodeStats>& s) {
  std::vector<double> out;
  out.reserve(s.size());
  for (const auto& e : s) out.push_back(e.collision ? 1.0 : 0.0);
  return out;
}

std::vector<double> success_series(const std::vector<rl::EpisodeStats>& s) {
  std::vector<double> out;
  out.reserve(s.size());
  for (const auto& e : s) out.push_back(e.success ? 1.0 : 0.0);
  return out;
}

void print_series(const std::string& label, const std::vector<double>& series,
                  std::size_t points) {
  auto pts = downsample(series, points);
  std::printf("%s\n", label.c_str());
  for (const auto& [idx, value] : pts) {
    std::printf("  ep %5zu  %9.4f\n", idx + 1, value);
  }
}

}  // namespace hero::bench
