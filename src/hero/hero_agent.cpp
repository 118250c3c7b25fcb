#include "hero/hero_agent.h"

#include <algorithm>

#include "obs/phase.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace hero::core {

HeroAgent::HeroAgent(std::size_t hl_obs_dim, int num_opponents,
                     const HighLevelConfig& high, const OpponentModelConfig& opponent,
                     const TerminationConfig& term, Rng& rng)
    : high_cfg_(high), term_(term) {
  high_ = std::make_unique<HighLevelAgent>(hl_obs_dim, num_opponents, high, rng);
  opponents_ = std::make_unique<OpponentModel>(hl_obs_dim, num_opponents, opponent, rng);
}

void HeroAgent::reset_episode() {
  pending_.reset();
  exec_ = OptionExecution{};
  opp_cache_.clear();
}

const std::vector<double>& HeroAgent::opp_block(const std::vector<double>& obs) {
  opp_cache_.resize(opponents_->feature_dim());
  if (!high_cfg_.use_opponent_model || opponents_->num_opponents() == 0) {
    std::fill(opp_cache_.begin(), opp_cache_.end(), 1.0 / kNumOptions);
  } else {
    opponents_->predict_all_into(obs, opp_cache_.data());
  }
  return opp_cache_;
}

std::vector<double> HeroAgent::one_hot_block(
    const std::vector<int>& others_options) const {
  std::vector<double> block(others_options.size() * kNumOptions, 0.0);
  for (std::size_t j = 0; j < others_options.size(); ++j) {
    block[j * kNumOptions + static_cast<std::size_t>(others_options[j])] = 1.0;
  }
  return block;
}

void HeroAgent::select(const sim::LaneWorld& world, int vehicle,
                       const std::vector<int>& others_options, Rng& rng,
                       bool explore) {
  const auto obs = world.high_level_obs(vehicle);
  const int opt = high_->select_option(obs, opp_block(obs), rng, explore);

  exec_ = OptionExecution{};
  exec_.option = option_from_index(opt);
  if (exec_.option == Option::kLaneChange) {
    exec_.target_lane = world.track().num_lanes() - 1 - world.lane(vehicle);
  } else {
    exec_.target_lane = world.lane(vehicle);
  }
  exec_.hold_speed = world.vehicle(vehicle).state().speed;

  pending_ = Pending{obs, one_hot_block(others_options), opt, 0.0, 1.0};
}

void HeroAgent::select_initial(const sim::LaneWorld& world, int vehicle,
                               const std::vector<int>& others_options, Rng& rng,
                               bool explore) {
  reset_episode();
  select(world, vehicle, others_options, rng, explore);
}

bool HeroAgent::maybe_reselect(const sim::LaneWorld& world, int vehicle,
                               const std::vector<int>& others_options, Rng& rng,
                               bool explore, bool learning) {
  if (!option_terminated(exec_, world, vehicle, term_)) return false;
  if (pending_ && learning) {
    high_->store({std::move(pending_->obs), std::move(pending_->opp_actual),
                  pending_->option, pending_->reward, pending_->discount,
                  world.high_level_obs(vehicle), /*done=*/false});
  }
  pending_.reset();
  select(world, vehicle, others_options, rng, explore);
  return true;
}

void HeroAgent::accumulate(double reward) {
  if (!pending_) return;
  pending_->reward += pending_->discount * reward;
  pending_->discount *= high_cfg_.gamma;
}

void HeroAgent::finalize_episode(const sim::LaneWorld& world, int vehicle,
                                 bool learning) {
  if (pending_ && learning) {
    high_->store({std::move(pending_->obs), std::move(pending_->opp_actual),
                  pending_->option, pending_->reward, pending_->discount,
                  world.high_level_obs(vehicle), /*done=*/true});
  }
  pending_.reset();
}

void HeroAgent::observe_opponents(const std::vector<double>& own_obs,
                                  const std::vector<int>& others_options) {
  const bool score = high_cfg_.use_opponent_model &&
                     (obs::metrics_enabled() || obs::telemetry_enabled()) &&
                     opp_cache_.size() == others_options.size() * kNumOptions;
  for (std::size_t j = 0; j < others_options.size(); ++j) {
    if (score) {
      // Score the prediction cached at option-selection time — one forward
      // per hold instead of one per primitive step. (The label recorded via
      // observe() below never trains on its own prediction either way.)
      const double* p = opp_cache_.data() + j * kNumOptions;
      const int pred = static_cast<int>(std::max_element(p, p + kNumOptions) - p);
      ++opp_total_;
      if (pred == others_options[j]) ++opp_correct_;
    }
    opponents_->observe(static_cast<int>(j), own_obs,
                        option_from_index(others_options[j]));
  }
}

AgentUpdateStats HeroAgent::update(Rng& rng) {
  OBS_SPAN("stage2/update");
  OBS_PHASE("update");
  AgentUpdateStats stats;
  {
    OBS_SPAN("stage2/update/opponent");
    OBS_PHASE("opponent_update");
    const auto losses = opponents_->update_all(rng);
    for (std::size_t j = 0; j < losses.size(); ++j) {
      if (!opponents_->ready(static_cast<int>(j))) continue;
      stats.opponent_loss += losses[j];
      ++stats.opponent_updates;
    }
    if (stats.opponent_updates > 0) stats.opponent_loss /= stats.opponent_updates;
  }
  stats.high = high_->update(*opponents_, rng);
  return stats;
}

}  // namespace hero::core
