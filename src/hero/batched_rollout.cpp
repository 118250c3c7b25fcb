#include "hero/batched_rollout.h"

#include <algorithm>

#include "obs/phase.h"
#include "obs/trace.h"

namespace hero::core {

BatchedRollout::BatchedRollout(const sim::Scenario& scenario,
                               const HighLevelConfig& high,
                               const TerminationConfig& term, SkillBank& skills,
                               std::vector<std::unique_ptr<HeroAgent>>& agents,
                               int envs)
    : scenario_(scenario),
      high_cfg_(high),
      term_(term),
      skills_(skills),
      agents_(agents),
      world_(scenario.config, envs),
      sched_(static_cast<std::size_t>(envs)) {
  E_ = envs;
  n_ = world_.num_learners();
  HERO_CHECK(static_cast<int>(agents_.size()) == n_);
  const std::size_t slots = static_cast<std::size_t>(E_) * static_cast<std::size_t>(n_);
  episodes_.resize(static_cast<std::size_t>(E_));
  sessions_.resize(static_cast<std::size_t>(E_));
  for (auto& s : sessions_) session_ptrs_.push_back(&s);
  pending_.resize(slots);
  board_.assign(slots, static_cast<int>(Option::kKeepLane));
  cmds_.assign(slots, sim::TwistCmd{});
  batch_.configure(n_, world_.high_level_obs_dim(), world_.low_level_obs_dim(),
                   world_.track().num_lanes(), /*low_level_rows=*/false);
  fill_ll_ = [this](std::size_t lane, int k, int ref_lane, double* dst) {
    world_.low_level_obs_into(static_cast<int>(lane),
                              world_.learners()[static_cast<std::size_t>(k)],
                              ref_lane, dst);
  };
}

void BatchedRollout::begin_lane(std::size_t lane) {
  world_.reset_env(static_cast<int>(lane), sched_.rng(lane));

  BatchedEpisode& ep = episodes_[lane];
  ep.stats = rl::EpisodeStats{};
  ep.switches = 0;
  ep.opp_total = 0;
  ep.opp_correct = 0;
  ep.selections.assign(static_cast<std::size_t>(n_), 0);
  ep.high.resize(static_cast<std::size_t>(n_));
  for (auto& v : ep.high) v.clear();
  ep.opp.resize(static_cast<std::size_t>(n_));
  for (auto& labels : ep.opp) {
    labels.obs.clear();
    labels.options.clear();
  }

  // A fresh session explores from the learner's round-start ε-schedule
  // position, so the trajectory of episode e cannot depend on which lanes
  // finish first.
  sessions_[lane].reset();
  for (int k = 0; k < n_; ++k) {
    ep.selections[static_cast<std::size_t>(k)] =
        agents_[static_cast<std::size_t>(k)]->high_level().selections();
    Pending& p = pending_[la_index(lane, k)];
    p.active = false;
    p.opp_cache.clear();
    board_[la_index(lane, k)] = static_cast<int>(Option::kKeepLane);
  }
  auto& meta = batch_.slot(lane);
  meta.track = &world_.track();
  meta.dt = world_.config().dt;
}

void BatchedRollout::run_round(std::uint64_t root, std::size_t first,
                               std::size_t count, bool observing) {
  OBS_SPAN("runtime/batch_rollout");
  OBS_PHASE("rollout");
  HERO_CHECK(count <= static_cast<std::size_t>(E_));
  sched_.begin_round(root, first, count);
  round_batch_steps_ = 0;
  batch_.set_count(count);
  for (std::size_t lane = 0; lane < count; ++lane) begin_lane(lane);
  while (sched_.live() > 0) step_once(observing);
}

void BatchedRollout::stage_opp_labels(std::size_t lane, int k,
                                      const double* obs_row, bool observing) {
  if (n_ < 2) return;
  BatchedEpisode& ep = episodes_[lane];
  const Pending& p = pending_[la_index(lane, k)];
  const std::vector<int>& options = sessions_[lane].options;
  const std::size_t opp_dim = static_cast<std::size_t>(n_ - 1) * kNumOptions;
  const bool score =
      observing && high_cfg_.use_opponent_model && p.opp_cache.size() == opp_dim;
  auto& labels = ep.opp[static_cast<std::size_t>(k)];
  labels.obs.insert(labels.obs.end(), obs_row, obs_row + world_.high_level_obs_dim());
  std::size_t slot = 0;
  for (int j = 0; j < n_; ++j) {
    if (j == k) continue;
    const int actual = options[static_cast<std::size_t>(j)];
    if (score) {
      // Score the block cached at option-selection time: one forward per
      // hold instead of one per primitive step.
      const double* pr = p.opp_cache.data() + slot * kNumOptions;
      const int pred = static_cast<int>(std::max_element(pr, pr + kNumOptions) - pr);
      ++ep.opp_total;
      if (pred == actual) ++ep.opp_correct;
    }
    labels.options.push_back(actual);
    ++slot;
  }
}

void BatchedRollout::store_pending(std::size_t lane, int k, bool done) {
  Pending& p = pending_[la_index(lane, k)];
  if (!p.active) return;
  const double* row = batch_.hl_row(lane, k);
  episodes_[lane].high[static_cast<std::size_t>(k)].push_back(
      {std::move(p.obs), std::move(p.opp_actual), p.option, p.reward, p.discount,
       std::vector<double>(row, row + world_.high_level_obs_dim()), done});
  p.active = false;
}

void BatchedRollout::finish_lane(std::size_t lane, bool observing) {
  BatchedEpisode& ep = episodes_[lane];
  const int e = static_cast<int>(lane);

  // Terminal observation per agent: feeds the episode's last opponent labels
  // (labels are observed after every step, including the last) and the
  // done = true semi-MDP stores.
  for (int k = 0; k < n_; ++k) {
    const int vi = world_.learners()[static_cast<std::size_t>(k)];
    double* row = batch_.hl_row(lane, k);
    world_.high_level_obs_into(e, vi, row);
    stage_opp_labels(lane, k, row, observing);
  }
  for (int k = 0; k < n_; ++k) store_pending(lane, k, /*done=*/true);

  ep.stats.steps = world_.steps(e);
  ep.stats.collision = world_.had_collision(e);
  ep.stats.success = !ep.stats.collision &&
                     world_.lane(e, scenario_.merger_index) ==
                         scenario_.merger_target_lane;
  double speed = 0.0;
  for (int vi : world_.learners()) speed += world_.mean_speed(e, vi);
  ep.stats.mean_speed = speed / static_cast<double>(n_);
  for (int k = 0; k < n_; ++k) {
    ep.selections[static_cast<std::size_t>(k)] =
        sessions_[lane].agents[static_cast<std::size_t>(k)].selections -
        ep.selections[static_cast<std::size_t>(k)];
  }
  sched_.finish(lane);
}

void BatchedRollout::step_once(bool observing) {
  const std::size_t hl_dim = world_.high_level_obs_dim();
  const std::size_t opp_dim =
      static_cast<std::size_t>(std::max(n_ - 1, 0)) * kNumOptions;
  const std::size_t lanes = sched_.round_size();

  {
    OBS_PHASE("obs_build");
    // (1) High-level row and ego scalars of every live (lane, agent): the
    // row serves as the previous step's opponent label, this step's
    // selection input, and the pending transition's next_obs.
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      batch_.slot(lane).active = sched_.active(lane);
      if (!sched_.active(lane)) continue;
      for (int k = 0; k < n_; ++k) {
        const int e = static_cast<int>(lane);
        const int vi = world_.learners()[static_cast<std::size_t>(k)];
        world_.high_level_obs_into(e, vi, batch_.hl_row(lane, k));
        const auto st = world_.state(e, vi);
        auto& sc = batch_.scalars(lane, k);
        sc.y = st.y;
        sc.heading = st.heading;
        sc.speed = st.speed;
        sc.lane = world_.lane(e, vi);
      }
    }

    // (2) Opponent labels for the step just taken, from the options held
    // during it; the same board is kept for the one-hot blocks below.
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (!sched_.active(lane) || !sessions_[lane].started) continue;
      for (int k = 0; k < n_; ++k) {
        stage_opp_labels(lane, k, batch_.hl_row(lane, k), observing);
      }
      std::copy(sessions_[lane].options.begin(), sessions_[lane].options.end(),
                board_.begin() + static_cast<std::ptrdiff_t>(la_index(lane, 0)));
    }
  }

  // (3) The decision pass: β_o termination, option selection and skill
  // commands for every live lane.
  engine_.act_rows(skills_, agents_, high_cfg_, term_, batch_,
                   session_ptrs_.data(), sched_.rng_ptrs(), /*explore=*/true,
                   cmds_.data(), fill_ll_);

  // (4) Each (lane, agent) that re-selected closes its pending transition
  // (a β_o switch: done = false, next_obs = this step's row) and opens the
  // next one. Its one-hot opponent block is the board agent k saw when it
  // selected: agents < k already on this tick's option, agents > k still on
  // the previous one.
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (!sched_.active(lane)) continue;
    const std::vector<int>& options = sessions_[lane].options;
    for (int k = 0; k < n_; ++k) {
      if (!engine_.selected(lane, k)) continue;
      Pending& p = pending_[la_index(lane, k)];
      if (p.active) {  // every selection after the initial one
        store_pending(lane, k, /*done=*/false);
        ++episodes_[lane].switches;
      }
      const double* obs_row = batch_.hl_row(lane, k);
      p.active = true;
      p.obs.assign(obs_row, obs_row + hl_dim);
      p.opp_actual.assign(opp_dim, 0.0);
      std::size_t slot = 0;
      for (int j = 0; j < n_; ++j) {
        if (j == k) continue;
        const int held = j < k ? options[static_cast<std::size_t>(j)]
                               : board_[la_index(lane, j)];
        p.opp_actual[slot * kNumOptions + static_cast<std::size_t>(held)] = 1.0;
        ++slot;
      }
      p.option = options[static_cast<std::size_t>(k)];
      p.reward = 0.0;
      p.discount = 1.0;
      if (opp_dim > 0) {
        const double* block = engine_.opponent_block(lane, k);
        p.opp_cache.assign(block, block + opp_dim);
      }
    }
  }

  // (5) One synchronized world step across every live lane (the sim_step
  // phase is recorded inside step_all).
  world_.step_all(cmds_.data(), sched_.rng_ptrs(), sched_.active_mask(),
                  step_out_);
  ++round_batch_steps_;

  OBS_PHASE("accumulate");
  // (6) Reward accumulation: team mean into the episode stats, per-agent
  // discounted accumulation into the pending semi-MDP transitions.
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (!sched_.active(lane)) continue;
    BatchedEpisode& ep = episodes_[lane];
    double sum = 0.0;
    for (int k = 0; k < n_; ++k) {
      const double r =
          step_out_.reward[lane * static_cast<std::size_t>(n_) +
                           static_cast<std::size_t>(k)];
      sum += r;
      Pending& p = pending_[la_index(lane, k)];
      if (p.active) {
        p.reward += p.discount * r;
        p.discount *= high_cfg_.gamma;
      }
    }
    ep.stats.team_reward += sum / static_cast<double>(n_);
    if (step_out_.collision[lane] != 0) ep.stats.collision = true;
  }

  // (7) Retire finished lanes (terminal obs, final labels, done stores).
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (sched_.active(lane) && step_out_.done[lane] != 0) {
      finish_lane(lane, observing);
    }
  }
}

}  // namespace hero::core
