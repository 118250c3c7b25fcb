// opponent_prediction: the opponent-modeling mechanism in isolation.
//
// A scripted "opponent" picks options from a state-dependent rule; the
// OpponentModel must learn to predict them from the observer's own
// high-level observation — the same machinery that stabilizes HERO's
// distributed Q-learning (paper Sec. III-C, Fig. 10).
//
// Run:  ./opponent_prediction [--steps 4000] [--seed S]
#include <cstdio>

#include "common/flags.h"
#include "common/stats.h"
#include "hero/opponent_model.h"
#include "sim/scenario.h"

namespace {

// A deterministic opponent policy the model has to uncover: change lane when
// the forward beam is short, slow down when mid-range, else accelerate.
hero::core::Option scripted_option(const std::vector<double>& obs) {
  const double front = obs[0];  // beam 0 points straight ahead
  if (front < 0.2) return hero::core::Option::kLaneChange;
  if (front < 0.5) return hero::core::Option::kSlowDown;
  return hero::core::Option::kAccelerate;
}

}  // namespace

int main(int argc, char** argv) {
  hero::Flags flags(argc, argv);
  const int steps = flags.get_int("steps", 4000);
  const unsigned seed = static_cast<unsigned>(flags.get_int("seed", 1));
  flags.check_unknown();

  hero::Rng rng(seed);
  auto scenario = hero::sim::cooperative_lane_change();
  hero::sim::LaneWorld world(scenario.config);

  hero::core::OpponentModelConfig cfg;
  hero::core::OpponentModel model(world.high_level_obs_dim(), /*num_opponents=*/1,
                                  cfg, rng);

  hero::MovingAverage loss_avg(100);
  hero::MovingAverage acc_avg(100);
  for (int t = 0; t < steps; ++t) {
    world.reset(rng);  // fresh random placements each sample
    const auto obs = world.high_level_obs(0);
    const auto label = scripted_option(obs);

    // How often does the current model already predict the label?
    auto p = model.predict(0, obs);
    const auto argmax =
        std::max_element(p.begin(), p.end()) - p.begin();
    acc_avg.add(argmax == static_cast<long>(label) ? 1.0 : 0.0);

    model.observe(obs, {label});
    const double loss = model.update(0, rng);
    if (loss > 0.0) loss_avg.add(loss);

    if ((t + 1) % 500 == 0) {
      std::printf("step %5d  CE loss (100-avg) %.4f  top-1 accuracy %.2f\n", t + 1,
                  loss_avg.value(), acc_avg.value());
    }
  }
  std::printf("final accuracy %.2f (chance = 0.25)\n", acc_avg.value());
  return acc_avg.value() > 0.5 ? 0 : 1;
}
