// HeroActEngine: the one per-tick decision pass of the HERO policy (paper
// Algorithm 1), shared by stage-2 training (BatchedRollout, explore = true)
// and by serving and batched evaluation (explore = false) — docs/SERVING.md,
// docs/BATCHING.md.
//
// One act_rows() call advances every active slot of an rl::ObsBatch by one
// control tick with exactly three batched network stages:
//
//   1. β_o termination per (slot, agent) from the ego scalars;
//   2. option selection, agent-major: for agent k, every slot re-selecting
//      shares one opponent-model predict_all_rows and one actor
//      option_probs_rows forward; the ε/categorical draws (explore only)
//      then come lane-ascending from each slot's own stream, so the chosen
//      options are independent of which other slots shared the batch;
//   3. skill actions, option-major: one SquashedGaussianPolicy act_rows_into
//      per learned option over every (slot, agent) currently holding it,
//      then the pure steering-law core (SkillBank::to_twist_core).
//
// Greedy mode (explore == false) draws nothing anywhere — argmax option
// selection plus deterministic skill means — which is what makes a served
// batch bitwise-equal to serving each request alone (ServeEquivalence tests)
// and to the scalar HeroTrainer::act() oracle (ServingEquivalence tests).
//
// The engine owns only scratch; the model (skill bank + agents) and the
// per-slot session state are passed per call, so a checkpoint hot-reload can
// swap the model under the engine without touching in-flight sessions. What
// the engine decided on the last call — which (slot, agent) pairs re-selected
// and the opponent block each was fed — stays readable until the next call;
// the training rollout stages its semi-MDP transitions from it.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "hero/hero_agent.h"
#include "rl/obs_batch.h"

namespace hero::core {

// Per-slot decision state: the semi-MDP option bookkeeping of one episode.
// Owned by the caller — BatchedRollout keeps one per lane, HeroTrainer keys
// them by slot for batched evaluation, the policy server keys them by client
// session.
struct HeroSession {
  struct AgentState {
    OptionExecution exec;
    long selections = 0;  // local ε-schedule position (explore mode)
  };
  bool started = false;
  std::vector<AgentState> agents;
  std::vector<int> options;  // option currently held per agent

  // Drops all option state; the next act_rows() performs the initial
  // selection for every agent (begin-episode semantics).
  void reset() {
    started = false;
    agents.clear();
    options.clear();
  }
};

class HeroActEngine {
 public:
  // Writes the low-level observation of (slot, agent) relative to
  // `reference_lane` into `dst` (batch.ll_dim() values).
  using LowLevelFill =
      std::function<void(std::size_t slot, int agent, int reference_lane, double* dst)>;

  // One fused tick over batch.count() slots. sessions[s] and rngs[s] belong
  // to slot s; inactive slots are skipped. Commands land slot-major in
  // cmds_out (slot s, agent k → s·n + k), exactly like
  // Controller::act_rows_into. The skill stage reads its low-level rows from
  // `fill_ll` when given — so a caller can build only the rows the engine
  // consumes — and from batch.ll_row otherwise.
  void act_rows(SkillBank& skills, std::vector<std::unique_ptr<HeroAgent>>& agents,
                const HighLevelConfig& high, const TerminationConfig& term,
                const rl::ObsBatch& batch, HeroSession* const* sessions,
                Rng* const* rngs, bool explore, sim::TwistCmd* cmds_out,
                const LowLevelFill& fill_ll = {});

  // Whether agent k of slot s (re-)selected its option on the last call.
  bool selected(std::size_t s, int k) const { return needs_select_[idx(s, k)] != 0; }
  // The opponent block ô^{-k} its actor was fed when it did (uniform when the
  // opponent model is off); (n−1)·kNumOptions values.
  const double* opponent_block(std::size_t s, int k) const {
    return blocks_.row_ptr(idx(s, k));
  }

 private:
  std::size_t idx(std::size_t s, int k) const {
    return s * static_cast<std::size_t>(n_) + static_cast<std::size_t>(k);
  }

  int n_ = 0;  // learners per slot on the last call
  std::vector<std::uint8_t> needs_select_;        // (slot·n)
  nn::Matrix blocks_;                             // (slot·n) × opp_dim
  // Scratch, resized in place and reused across calls.
  std::vector<std::size_t> sel_slots_;            // slots selecting for one agent
  nn::Matrix sel_obs_, sel_blocks_, sel_in_, sel_probs_;
  std::vector<std::pair<std::size_t, int>> sk_rows_;  // (slot, k) per option
  nn::Matrix sk_obs_, sk_act_;
  std::vector<Rng*> sk_rngs_;
};

}  // namespace hero::core
