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
  lane_agents_.resize(slots);
  options_.assign(slots, static_cast<int>(Option::kKeepLane));
  started_.assign(static_cast<std::size_t>(E_), 0);
  needs_select_.assign(slots, 0);
  cmds_.assign(slots, sim::TwistCmd{});
  hl_obs_.resize(slots, world_.high_level_obs_dim());
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
  ep.opp.resize(static_cast<std::size_t>(n_) *
                static_cast<std::size_t>(std::max(n_ - 1, 0)));
  for (auto& v : ep.opp) v.clear();

  for (int k = 0; k < n_; ++k) {
    LaneAgent& la = lane_agents_[la_index(lane, k)];
    la.exec = OptionExecution{};
    la.has_pending = false;
    la.opp_cache.clear();
    // Every lane explores from the learner's round-start ε-schedule
    // position, so the trajectory of episode e cannot depend on which lanes
    // finish first.
    la.selections = agents_[static_cast<std::size_t>(k)]->high_level().selections();
    ep.selections[static_cast<std::size_t>(k)] = la.selections;
    options_[la_index(lane, k)] = static_cast<int>(Option::kKeepLane);
  }
  started_[lane] = 0;
}

void BatchedRollout::run_round(std::uint64_t root, std::size_t first,
                               std::size_t count, bool observing) {
  OBS_SPAN("runtime/batch_rollout");
  OBS_PHASE("rollout");
  HERO_CHECK(count <= static_cast<std::size_t>(E_));
  sched_.begin_round(root, first, count);
  round_batch_steps_ = 0;
  for (std::size_t lane = 0; lane < count; ++lane) begin_lane(lane);
  while (sched_.live() > 0) step_once(observing);
}

void BatchedRollout::stage_opp_labels(std::size_t lane, int k,
                                      const double* obs_row, bool observing) {
  BatchedEpisode& ep = episodes_[lane];
  LaneAgent& la = lane_agents_[la_index(lane, k)];
  const std::size_t hl_dim = world_.high_level_obs_dim();
  const std::size_t opp_dim =
      static_cast<std::size_t>(std::max(n_ - 1, 0)) * kNumOptions;
  const bool score =
      observing && high_cfg_.use_opponent_model && la.opp_cache.size() == opp_dim;
  std::size_t slot = 0;
  for (int j = 0; j < n_; ++j) {
    if (j == k) continue;
    const int actual = options_[la_index(lane, j)];
    if (score) {
      // Score the block cached at option-selection time, exactly like the
      // serial HeroAgent::observe_opponents scoreboard.
      const double* p = la.opp_cache.data() + slot * kNumOptions;
      const int pred = static_cast<int>(std::max_element(p, p + kNumOptions) - p);
      ++ep.opp_total;
      if (pred == actual) ++ep.opp_correct;
    }
    ep.opp[static_cast<std::size_t>(k) * static_cast<std::size_t>(n_ - 1) + slot]
        .push_back({std::vector<double>(obs_row, obs_row + hl_dim), actual});
    ++slot;
  }
}

void BatchedRollout::finish_lane(std::size_t lane, bool observing) {
  BatchedEpisode& ep = episodes_[lane];
  const std::size_t hl_dim = world_.high_level_obs_dim();
  const int e = static_cast<int>(lane);

  // Terminal observation per agent: feeds the episode's last opponent labels
  // (labels are observed after every step, including the last) and the
  // done = true semi-MDP store of HeroAgent::finalize_episode.
  for (int k = 0; k < n_; ++k) {
    const int vi = world_.learners()[static_cast<std::size_t>(k)];
    double* row = hl_obs_.row_ptr(la_index(lane, k));
    world_.high_level_obs_into(e, vi, row);
    stage_opp_labels(lane, k, row, observing);
  }
  for (int k = 0; k < n_; ++k) {
    LaneAgent& la = lane_agents_[la_index(lane, k)];
    if (!la.has_pending) continue;
    const double* row = hl_obs_.row_ptr(la_index(lane, k));
    ep.high[static_cast<std::size_t>(k)].push_back(
        {std::move(la.pend_obs), std::move(la.pend_opp_actual), la.pend_option,
         la.pend_reward, la.pend_discount, std::vector<double>(row, row + hl_dim),
         /*done=*/true});
    la.has_pending = false;
  }

  ep.stats.steps = world_.steps(e);
  ep.stats.collision = world_.had_collision(e);
  ep.stats.success = !ep.stats.collision &&
                     world_.lane(e, scenario_.merger_index) ==
                         scenario_.merger_target_lane;
  double speed = 0.0;
  for (int vi : world_.learners()) speed += world_.mean_speed(e, vi);
  ep.stats.mean_speed = speed / static_cast<double>(n_);
  for (int k = 0; k < n_; ++k) {
    const LaneAgent& la = lane_agents_[la_index(lane, k)];
    ep.selections[static_cast<std::size_t>(k)] =
        la.selections - ep.selections[static_cast<std::size_t>(k)];
  }
  sched_.finish(lane);
}

void BatchedRollout::step_once(bool observing) {
  const std::size_t hl_dim = world_.high_level_obs_dim();
  const std::size_t ll_dim = world_.low_level_obs_dim();
  const std::size_t opp_dim =
      static_cast<std::size_t>(std::max(n_ - 1, 0)) * kNumOptions;
  const std::size_t lanes = sched_.round_size();

  {
    OBS_PHASE("obs_build");
    // (1) High-level observations for every live (lane, agent): one row
    // serves as the previous step's opponent label, this step's
    // termination/selection input, and the pending transition's next_obs.
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (!sched_.active(lane)) continue;
      for (int k = 0; k < n_; ++k) {
        const int vi = world_.learners()[static_cast<std::size_t>(k)];
        world_.high_level_obs_into(static_cast<int>(lane), vi,
                                   hl_obs_.row_ptr(la_index(lane, k)));
      }
    }

    // (2) Opponent labels for the step just taken (options on the board are
    // still the ones held during it — selection below happens after).
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (!sched_.active(lane) || !started_[lane]) continue;
      for (int k = 0; k < n_; ++k) {
        stage_opp_labels(lane, k, hl_obs_.row_ptr(la_index(lane, k)), observing);
      }
    }

    // (3) β_o termination per (lane, agent): finalize the pending semi-MDP
    // transition (next_obs = current row, done = false) and flag for
    // re-selection. Unstarted lanes flag every agent (initial selection).
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (!sched_.active(lane)) continue;
      for (int k = 0; k < n_; ++k) {
        const std::size_t idx = la_index(lane, k);
        LaneAgent& la = lane_agents_[idx];
        if (!started_[lane]) {
          needs_select_[idx] = 1;
          continue;
        }
        const int vi = world_.learners()[static_cast<std::size_t>(k)];
        const auto st = world_.state(static_cast<int>(lane), vi);
        if (!option_terminated(la.exec, world_.track(), st.y, st.heading,
                               /*world_done=*/false, term_)) {
          needs_select_[idx] = 0;
          continue;
        }
        if (la.has_pending) {
          const double* row = hl_obs_.row_ptr(idx);
          episodes_[lane].high[static_cast<std::size_t>(k)].push_back(
              {std::move(la.pend_obs), std::move(la.pend_opp_actual),
               la.pend_option, la.pend_reward, la.pend_discount,
               std::vector<double>(row, row + hl_dim), /*done=*/false});
          la.has_pending = false;
        }
        ++episodes_[lane].switches;
        needs_select_[idx] = 1;
      }
    }
  }

  // (4) Option selection, agent-major: for agent k, all lanes that need a
  // selection share one opponent-model forward and one actor forward; the
  // ε/categorical draws then come lane-ascending from each lane's own
  // stream. Processing k ascending keeps the one-hot opponent blocks on the
  // scalar act() convention (agents < k already updated this step, agents
  // > k still on their previous option).
  {
  OBS_PHASE("select");
  for (int k = 0; k < n_; ++k) {
    sel_lanes_.clear();
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (sched_.active(lane) && needs_select_[la_index(lane, k)] != 0) {
        sel_lanes_.push_back(lane);
      }
    }
    if (sel_lanes_.empty()) continue;
    const std::size_t m = sel_lanes_.size();

    sel_obs_.resize(m, hl_dim);
    for (std::size_t r = 0; r < m; ++r) {
      const double* src = hl_obs_.row_ptr(la_index(sel_lanes_[r], k));
      std::copy(src, src + hl_dim, sel_obs_.row_ptr(r));
    }
    if (opp_dim > 0) {
      if (high_cfg_.use_opponent_model) {
        agents_[static_cast<std::size_t>(k)]->opponents().predict_all_rows(
            sel_obs_, sel_blocks_);
      } else {
        sel_blocks_.resize(m, opp_dim);
        sel_blocks_.fill(1.0 / kNumOptions);
      }
    }
    sel_in_.resize(m, hl_dim + opp_dim);
    for (std::size_t r = 0; r < m; ++r) {
      double* row = sel_in_.row_ptr(r);
      const double* src = sel_obs_.row_ptr(r);
      std::copy(src, src + hl_dim, row);
      for (std::size_t c = 0; c < opp_dim; ++c) row[hl_dim + c] = sel_blocks_(r, c);
    }
    agents_[static_cast<std::size_t>(k)]->high_level().option_probs_rows(sel_in_,
                                                                         sel_probs_);

    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t lane = sel_lanes_[r];
      const std::size_t idx = la_index(lane, k);
      LaneAgent& la = lane_agents_[idx];
      const int vi = world_.learners()[static_cast<std::size_t>(k)];
      ++la.selections;
      const int opt = HighLevelAgent::select_from_probs(
          high_cfg_, sel_probs_.row_ptr(r), la.selections, sched_.rng(lane),
          /*explore=*/true);

      la.exec = OptionExecution{};
      la.exec.option = option_from_index(opt);
      const int cur_lane = world_.lane(static_cast<int>(lane), vi);
      la.exec.target_lane = la.exec.option == Option::kLaneChange
                                ? world_.track().num_lanes() - 1 - cur_lane
                                : cur_lane;
      la.exec.hold_speed = world_.state(static_cast<int>(lane), vi).speed;
      options_[idx] = opt;

      const double* obs_row = hl_obs_.row_ptr(idx);
      la.pend_obs.assign(obs_row, obs_row + hl_dim);
      la.pend_opp_actual.assign(opp_dim, 0.0);
      std::size_t slot = 0;
      for (int j = 0; j < n_; ++j) {
        if (j == k) continue;
        la.pend_opp_actual[slot * kNumOptions +
                           static_cast<std::size_t>(options_[la_index(lane, j)])] =
            1.0;
        ++slot;
      }
      la.pend_option = opt;
      la.pend_reward = 0.0;
      la.pend_discount = 1.0;
      la.has_pending = true;
      if (opp_dim > 0) {
        la.opp_cache.assign(sel_blocks_.row_ptr(r),
                            sel_blocks_.row_ptr(r) + opp_dim);
      }
    }
  }
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (sched_.active(lane)) started_[lane] = 1;
  }
  }  // OBS_PHASE("select")

  // (5) Skill commands. Keep-lane is closed-form; the learned options run
  // option-major so each SAC policy does one batched forward over every lane
  // currently holding it, with the squashing draws routed to the owning
  // lane's stream (act_rows_into).
  {
  OBS_PHASE("skills");
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (!sched_.active(lane)) continue;
    for (int k = 0; k < n_; ++k) {
      LaneAgent& la = lane_agents_[la_index(lane, k)];
      if (la.exec.option == Option::kKeepLane) {
        cmds_[la_index(lane, k)] = {la.exec.hold_speed, 0.0};
      }
      ++la.exec.steps;  // one step_all follows, mirroring the serial act()
    }
  }
  for (int oi = 0; oi < kNumOptions; ++oi) {
    const Option o = option_from_index(oi);
    if (!skills_.has_agent(o)) continue;
    sk_rows_.clear();
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (!sched_.active(lane)) continue;
      for (int k = 0; k < n_; ++k) {
        if (lane_agents_[la_index(lane, k)].exec.option == o) {
          sk_rows_.push_back({lane, k});
        }
      }
    }
    if (sk_rows_.empty()) continue;
    const std::size_t m = sk_rows_.size();
    sk_obs_.resize(m, ll_dim);
    sk_rngs_.resize(m);
    for (std::size_t r = 0; r < m; ++r) {
      const auto [lane, k] = sk_rows_[r];
      const LaneAgent& la = lane_agents_[la_index(lane, k)];
      const int vi = world_.learners()[static_cast<std::size_t>(k)];
      const int ref_lane = o == Option::kLaneChange
                               ? la.exec.target_lane
                               : world_.lane(static_cast<int>(lane), vi);
      world_.low_level_obs_into(static_cast<int>(lane), vi, ref_lane,
                                sk_obs_.row_ptr(r));
      sk_rngs_[r] = &sched_.rng(lane);
    }
    skills_.agent(o).policy().act_rows_into(sk_obs_, sk_rngs_.data(),
                                            /*deterministic=*/false, sk_act_);
    for (std::size_t r = 0; r < m; ++r) {
      const auto [lane, k] = sk_rows_[r];
      const LaneAgent& la = lane_agents_[la_index(lane, k)];
      const int vi = world_.learners()[static_cast<std::size_t>(k)];
      const auto st = world_.state(static_cast<int>(lane), vi);
      cmds_[la_index(lane, k)] = skills_.to_twist_core(
          la.exec, world_.track(), world_.config().dt, st.y, st.heading,
          sk_act_.row_ptr(r), sk_act_.cols());
    }
  }
  }  // OBS_PHASE("skills")

  // (6) One synchronized world step across every live lane (the sim_step
  // phase is recorded inside step_all).
  world_.step_all(cmds_.data(), sched_.rng_ptrs(), sched_.active_mask(),
                  step_out_);
  ++round_batch_steps_;

  OBS_PHASE("accumulate");
  // (7) Reward accumulation: team mean into the episode stats, per-agent
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
      LaneAgent& la = lane_agents_[la_index(lane, k)];
      if (la.has_pending) {
        la.pend_reward += la.pend_discount * r;
        la.pend_discount *= high_cfg_.gamma;
      }
    }
    ep.stats.team_reward += sum / static_cast<double>(n_);
    if (step_out_.collision[lane] != 0) ep.stats.collision = true;
  }

  // (8) Retire finished lanes (terminal obs, final labels, done stores).
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (sched_.active(lane) && step_out_.done[lane] != 0) {
      finish_lane(lane, observing);
    }
  }
}

}  // namespace hero::core
