// Quickstart: the complete HERO pipeline in one file.
//
//   1. Build the cooperative lane-change scenario (Fig. 6 / Fig. 9).
//   2. Stage 1 — train the low-level skills against intrinsic rewards.
//   3. Stage 2 — train the high-level cooperative policy with opponent
//      modeling.
//   4. Evaluate greedily and print the paper's four metrics.
//
// Run:  ./quickstart [--skill-episodes N] [--episodes N] [--eval-episodes N]
//                    [--seed S] [--num-workers N]
//
// Stage 2 runs the batch-first rollout engine at its default width of one
// episode (docs/BATCHING.md). `--num-workers N` trains the stage-1 skills
// on an N-thread pool, which changes the skills it produces
// (docs/PARALLELISM.md).
#include <algorithm>
#include <cstdio>

#include "common/flags.h"
#include "common/logging.h"
#include "hero/hero_trainer.h"
#include "rl/evaluation.h"
#include "sim/scenario.h"

int main(int argc, char** argv) {
  hero::Flags flags(argc, argv);
  const int skill_episodes = flags.get_int("skill-episodes", 400);
  const int episodes = flags.get_int("episodes", 400);
  const int eval_episodes = flags.get_int("eval-episodes", 50);
  const unsigned seed = static_cast<unsigned>(flags.get_int("seed", 1));
  const int num_workers = flags.get_int("num-workers", 1);
  flags.check_unknown();

  hero::Rng rng(seed);
  hero::sim::Scenario scenario = hero::sim::cooperative_lane_change();
  hero::core::HeroConfig cfg;
  cfg.num_workers = std::max(1, num_workers);

  std::printf("== Stage 1: low-level skills (%d episodes each) ==\n", skill_episodes);
  hero::core::HeroTrainer trainer(scenario, cfg, rng);
  trainer.train_skills(skill_episodes, rng,
                       [&](hero::core::Option o, int ep, double r) {
                         if ((ep + 1) % 100 == 0) {
                           std::printf("  %-11s ep %4d  reward %8.2f\n",
                                       hero::core::option_name(o), ep + 1, r);
                         }
                       });

  std::printf("== Stage 2: high-level cooperation (%d episodes) ==\n", episodes);
  double window_reward = 0.0;
  int window_coll = 0, window_succ = 0, window_n = 0;
  trainer.train(episodes, rng, [&](int ep, const hero::rl::EpisodeStats& s) {
    window_reward += s.team_reward;
    window_coll += s.collision ? 1 : 0;
    window_succ += s.success ? 1 : 0;
    ++window_n;
    if ((ep + 1) % 50 == 0) {
      std::printf("  ep %4d  reward %7.2f  collision %.2f  success %.2f\n", ep + 1,
                  window_reward / window_n,
                  static_cast<double>(window_coll) / window_n,
                  static_cast<double>(window_succ) / window_n);
      window_reward = 0.0;
      window_coll = window_succ = window_n = 0;
    }
  });

  std::printf("== Greedy evaluation (%d episodes) ==\n", eval_episodes);
  hero::sim::LaneWorld eval_world(scenario.config);
  auto summary = hero::rl::evaluate(eval_world, trainer, rng, eval_episodes,
                                    scenario.merger_index, scenario.merger_target_lane);
  std::printf("  mean reward     %8.3f\n", summary.mean_reward);
  std::printf("  collision rate  %8.3f\n", summary.collision_rate);
  std::printf("  success rate    %8.3f\n", summary.success_rate);
  std::printf("  mean speed      %8.4f m/s\n", summary.mean_speed);
  return 0;
}
