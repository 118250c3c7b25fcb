// One HERO agent: the per-vehicle composition of the high-level actor–critic,
// the opponent model, and the semi-MDP option bookkeeping (Fig. 1 of the
// paper — each agent maintains a cooperation layer and a control layer; the
// skill bank itself is shared and lives in HeroTrainer).
#pragma once

#include <memory>
#include <optional>

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
  void reset_episode();

  // Selects the initial option of an episode. `others_options` are the
  // opponents' currently-held options (observable history, paper Sec. III-A).
  void select_initial(const sim::LaneWorld& world, int vehicle,
                      const std::vector<int>& others_options, Rng& rng, bool explore);

  // If β_o fires, finalizes the pending semi-MDP transition (stored only when
  // `learning`) and selects the next option. Returns true on re-selection.
  bool maybe_reselect(const sim::LaneWorld& world, int vehicle,
                      const std::vector<int>& others_options, Rng& rng, bool explore,
                      bool learning);

  // Accumulates the high-level team reward received this step: R += γ^k·r.
  void accumulate(double reward);

  // Ends the episode: stores the pending transition with done = true (when
  // `learning`).
  void finalize_episode(const sim::LaneWorld& world, int vehicle, bool learning);

  // Registers the opponents' current options as opponent-model labels.
  // While metrics or telemetry are enabled it also scores the model's
  // prediction (argmax vs the observed option) into the accuracy counters
  // below — the paper's opponent-model convergence signal. Scoring reuses
  // the forward pass cached at option-selection time (opp_block_cache())
  // instead of re-running inference every primitive step: the prediction
  // being scored is "what the model forecast for this option hold", and the
  // per-step inference disappears from the hot path.
  void observe_opponents(const std::vector<double>& own_obs,
                         const std::vector<int>& others_options);

  // The ô^{-i} block computed at the last option selection (empty before the
  // first selection). Cached across the option hold — see observe_opponents.
  const std::vector<double>& opp_block_cache() const { return opp_cache_; }

  // Opponent-prediction scoreboard since the last reset_opp_score().
  long opp_predictions() const { return opp_total_; }
  long opp_correct() const { return opp_correct_; }
  void reset_opp_score() { opp_total_ = opp_correct_ = 0; }

  // One gradient step on the high-level networks and the opponent models.
  AgentUpdateStats update(Rng& rng);

  const OptionExecution& execution() const { return exec_; }
  OptionExecution& execution() { return exec_; }
  HighLevelAgent& high_level() { return *high_; }
  OpponentModel& opponents() { return *opponents_; }
  const TerminationConfig& termination() const { return term_; }

 private:
  struct Pending {
    std::vector<double> obs;
    std::vector<double> opp_actual;
    int option;
    double reward = 0.0;
    double discount = 1.0;
  };

  const std::vector<double>& opp_block(const std::vector<double>& obs);
  std::vector<double> one_hot_block(const std::vector<int>& others_options) const;
  void select(const sim::LaneWorld& world, int vehicle,
              const std::vector<int>& others_options, Rng& rng, bool explore);

  HighLevelConfig high_cfg_;
  TerminationConfig term_;
  std::unique_ptr<HighLevelAgent> high_;
  std::unique_ptr<OpponentModel> opponents_;
  OptionExecution exec_;
  std::optional<Pending> pending_;
  std::vector<double> opp_cache_;  // ô^{-i} from the last selection
  long opp_total_ = 0;
  long opp_correct_ = 0;
};

}  // namespace hero::core
