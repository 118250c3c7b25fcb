// One HERO agent: the per-vehicle composition of the high-level actor–critic
// and the opponent model (Fig. 1 of the paper — each agent maintains a
// cooperation layer and a control layer; the skill bank itself is shared and
// lives in HeroTrainer). Training experience is staged by BatchedRollout;
// the option held by the scalar oracle path lives here.
#pragma once

#include <memory>

#include "hero/high_level.h"
#include "hero/skills.h"

namespace hero::core {

// What one HeroAgent::update() did, for telemetry: the high-level
// actor–critic stats plus the opponent-model training signal.
struct AgentUpdateStats {
  HighLevelUpdateStats high;
  double opponent_loss = 0.0;  // mean loss over opponents that stepped
  int opponent_updates = 0;    // predictors past their min-samples threshold
};

class HeroAgent {
 public:
  HeroAgent(std::size_t hl_obs_dim, int num_opponents, const HighLevelConfig& high,
            const OpponentModelConfig& opponent, const TerminationConfig& term,
            Rng& rng);

  // Discards any in-flight option state (start of a fresh episode).
  void reset_episode() { exec_ = OptionExecution{}; }

  // The scalar, one-vehicle form of the decision HeroActEngine::act_rows
  // makes for a whole batch — kept as its greedy oracle (HeroTrainer::act).
  // select_initial() picks the episode's first option; maybe_reselect()
  // picks the next one when β_o fires and returns true if it did.
  void select_initial(const sim::LaneWorld& world, int vehicle, Rng& rng,
                      bool explore);
  bool maybe_reselect(const sim::LaneWorld& world, int vehicle, Rng& rng,
                      bool explore);

  // One gradient step on the high-level networks and the opponent models.
  AgentUpdateStats update(Rng& rng);

  const OptionExecution& execution() const { return exec_; }
  OptionExecution& execution() { return exec_; }
  HighLevelAgent& high_level() { return *high_; }
  OpponentModel& opponents() { return *opponents_; }
  const TerminationConfig& termination() const { return term_; }

 private:
  void select(const sim::LaneWorld& world, int vehicle, Rng& rng, bool explore);

  HighLevelConfig high_cfg_;
  TerminationConfig term_;
  std::unique_ptr<HighLevelAgent> high_;
  std::unique_ptr<OpponentModel> opponents_;
  OptionExecution exec_;
  std::vector<double> opp_block_;  // ô^{-i} scratch for select()
};

}  // namespace hero::core
