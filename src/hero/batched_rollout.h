// Batch-first stage-2 rollout: E episodes advance in lockstep through one
// BatchLaneWorld, and every per-step network evaluation — opponent-model
// prediction, high-level actor softmax, skill-policy action — runs as a
// single batch=E forward instead of E single-row dispatches
// (docs/BATCHING.md).
//
// The per-tick decision itself is HeroActEngine::act_rows at explore = true,
// with one HeroSession per lane: the same decision pass serving and batched
// evaluation run greedily. Around it the rollout does what only training
// needs. It senses the high-level rows and ego scalars, and builds on demand
// only the low-level rows the engine's skill stage consumes. It stages the
// experience from what the engine reports for each (lane, agent) that
// re-selected: the semi-MDP transitions (R = Σγ^k·r over each option hold,
// done = false at a β_o re-selection, done = true at episode end), the
// one-hot opponent options on the agent-major board, and the opponent
// labels, scored against the block the engine fed the actor. Draws come from
// the counter-based episode stream stream_rng(root, episode), so a run is
// bitwise reproducible for a fixed (seed, batch_envs) pair. Collected
// experience is staged per lane and merged by the trainer in lane order —
// which IS canonical episode order, so no reordering step exists to get
// wrong.
//
// The rollout only *reads* the learner's networks (actor, opponent
// predictors, frozen skills); all replay buffers are filled at merge time
// by HeroTrainer::train. Single-threaded by design: batching, not
// threading, is the throughput lever here.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hero/act_engine.h"
#include "rl/evaluation.h"
#include "runtime/batch_rollout.h"
#include "sim/batch_lane_world.h"
#include "sim/scenario.h"

namespace hero::core {

// One finished episode's staged experience, in the exact shapes the
// trainer's merge consumes.
struct BatchedEpisode {
  rl::EpisodeStats stats;
  long switches = 0;
  long opp_total = 0;
  long opp_correct = 0;
  // Per agent: Δ ε-schedule position over this episode.
  std::vector<long> selections;
  // Per agent: semi-MDP transitions in store order (FIFO).
  std::vector<std::vector<OptionTransition>> high;
  // One agent's opponent labels in step order: row t of `obs` (hl_dim
  // values) is the agent's observation after step t, and
  // options[t·(n−1) + j] the option opponent slot j held during it. Each
  // observation is staged once for all n−1 opponents.
  struct OpponentLabels {
    std::vector<double> obs;
    std::vector<int> options;
  };
  std::vector<OpponentLabels> opp;  // per agent
};

class BatchedRollout {
 public:
  // Holds references to the learner's skill bank and agents; both must
  // outlive the rollout (HeroTrainer owns all three).
  BatchedRollout(const sim::Scenario& scenario, const HighLevelConfig& high,
                 const TerminationConfig& term, SkillBank& skills,
                 std::vector<std::unique_ptr<HeroAgent>>& agents, int envs);
  // The session pointers and the low-level fill step hold `this`.
  BatchedRollout(const BatchedRollout&) = delete;
  BatchedRollout& operator=(const BatchedRollout&) = delete;

  int envs() const { return E_; }

  // Runs episodes [first, first + count) to completion (count ≤ envs()).
  // `observing` enables the opponent-prediction scoreboard (metrics or
  // telemetry on). Results are readable via episode(i) until the next round.
  void run_round(std::uint64_t root, std::size_t first, std::size_t count,
                 bool observing);

  // Episode `first + i` of the last round. Mutable so the merge can move the
  // staged transitions out instead of copying.
  BatchedEpisode& episode(std::size_t i) { return episodes_[i]; }

  // Synchronized batch steps executed by the last round — the trainer's
  // gradient-update clock: one update round per `update_every` *batch
  // steps*, and one batch step advances every live lane (standard
  // vectorized-RL semantics; at E lanes that is ~E× fewer gradient rounds
  // per environment step than at E = 1).
  long round_batch_steps() const { return round_batch_steps_; }

  sim::BatchLaneWorld& world() { return world_; }

 private:
  // The semi-MDP transition of one (lane, agent) option hold in flight, and
  // the opponent block its option was selected with.
  struct Pending {
    bool active = false;
    std::vector<double> obs;
    std::vector<double> opp_actual;  // one-hot board at selection
    int option = 0;
    double reward = 0.0;
    double discount = 1.0;
    std::vector<double> opp_cache;   // predicted block at selection
  };

  std::size_t la_index(std::size_t lane, int k) const {
    return lane * static_cast<std::size_t>(n_) + static_cast<std::size_t>(k);
  }

  void begin_lane(std::size_t lane);
  void step_once(bool observing);
  // Stages the obs row of (lane, k) once with the option every opponent
  // currently holds; scores the cached predictions.
  void stage_opp_labels(std::size_t lane, int k, const double* obs_row,
                        bool observing);
  // Stores the pending transition of (lane, k), next_obs = its hl row.
  void store_pending(std::size_t lane, int k, bool done);
  void finish_lane(std::size_t lane, bool observing);

  sim::Scenario scenario_;
  HighLevelConfig high_cfg_;
  TerminationConfig term_;
  SkillBank& skills_;
  std::vector<std::unique_ptr<HeroAgent>>& agents_;
  int n_ = 0;  // learners per env
  int E_ = 0;

  sim::BatchLaneWorld world_;
  runtime::BatchRoundScheduler sched_;
  long round_batch_steps_ = 0;

  std::vector<BatchedEpisode> episodes_;   // lane-indexed
  std::vector<HeroSession> sessions_;      // lane-indexed decision state
  std::vector<HeroSession*> session_ptrs_;
  std::vector<Pending> pending_;           // lane-major (la_index)
  std::vector<int> board_;                 // lane-major options before the tick
  std::vector<sim::TwistCmd> cmds_;        // lane-major learner commands
  sim::BatchStepResult step_out_;

  // hl rows + ego scalars of every live (lane, agent); no low-level rows,
  // which fill_ll_ senses on demand.
  rl::ObsBatch batch_;
  HeroActEngine engine_;
  HeroActEngine::LowLevelFill fill_ll_;  // senses one low-level row on demand
};

}  // namespace hero::core
