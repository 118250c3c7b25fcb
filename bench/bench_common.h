// Shared plumbing for the per-figure/per-table bench harnesses: a uniform
// "train method X on the cooperative lane-change scenario" entry point used
// by Fig. 7, Fig. 11 and Table II, plus curve-printing helpers.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algos/sac.h"
#include "hero/hero_trainer.h"
#include "rl/evaluation.h"

namespace hero::bench {

// Method identifiers in the order the paper lists them.
const std::vector<std::string>& all_methods();  // dqn, coma, maddpg, maac, hero

struct MethodRun {
  std::string name;
  std::unique_ptr<rl::Controller> controller;       // trained; greedy-evaluable
  std::vector<rl::EpisodeStats> train_stats;        // one entry per episode
};

struct TrainOptions {
  int episodes = 2000;
  int skill_episodes = 400;       // HERO stage-1 budget per skill
  unsigned seed = 1;
  bool use_opponent_model = true; // HERO ablation switch
  bool log_progress = true;       // stderr progress every 10% of episodes
};

// Trains `method` on the cooperative lane-change scenario and returns the
// controller plus the full training trace. Hyper-parameters follow paper
// Table I where applicable (γ=0.95, τ=0.01, hidden 32, buffer 100k); batch
// and learning rate are the single-core defaults documented in
// EXPERIMENTS.md.
MethodRun train_method(const std::string& method, const sim::Scenario& scenario,
                       const TrainOptions& opts);

// Moving-average smoothing (window `w`) of a per-episode metric.
std::vector<double> smooth(const std::vector<double>& xs, std::size_t w);

// Extracts a metric series from training stats.
std::vector<double> reward_series(const std::vector<rl::EpisodeStats>& s);
std::vector<double> collision_series(const std::vector<rl::EpisodeStats>& s);
std::vector<double> success_series(const std::vector<rl::EpisodeStats>& s);

// Prints a downsampled curve as aligned "episode value" rows.
void print_series(const std::string& label, const std::vector<double>& series,
                  std::size_t points);

// Learner-update fixtures shared by the op-level update benchmarks
// (bench_json, micro_benchmarks). Observations are seeded uniform draws in
// [-1, 1], so hidden ReLUs see mixed-sign inputs as in training; constant
// observations would let every activation branch predict perfectly.
//
// `transitions` SAC transitions (8-dim observations, actions inside the
// agent's bounds).
void fill_sac(algos::SacAgent& agent, int transitions, Rng& rng);
// 512 option transitions for the high-level learner, each observation also
// labelling every one of its `num_opponents` opponent predictors.
void fill_high_level(core::HighLevelAgent& agent, core::OpponentModel& opponents,
                     std::size_t obs_dim, int num_opponents, Rng& rng);
// `labels` observations, each labelling every opponent predictor.
void fill_opponent(core::OpponentModel& opponents, std::size_t obs_dim, int labels,
                   Rng& rng);

}  // namespace hero::bench
