// Opponent modeling network (paper Sec. III-C, Fig. 3).
//
// For agent i, one categorical predictor per opponent j maps i's own
// high-level observation to a distribution over j's *current option* —
// modeling temporal abstractions instead of primitive actions. Trained
// online by entropy-regularized cross-entropy on the observed option
// history:  L(θ) = −E[log π̂(o^j | s_h^i)] − λ·H(π̂).
//
// The learned distributions feed the high-level actor and the critic's
// TD-target (the mechanism that counters non-stationarity in fully
// distributed training).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hero/options.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"

namespace hero::core {

struct OpponentModelConfig {
  double lr = 0.002;
  double entropy_lambda = 0.01;  // λ in the paper's loss
  std::size_t buffer_capacity = 20000;
  std::size_t batch = 64;
  std::size_t min_samples = 64;
  std::vector<std::size_t> hidden = {32};
};

// The n−1 predictors of one agent run as one group: they share one
// activation/gradient workspace (they are stepped one after another, never
// two passes at once) and one observation store, in which each observation
// is kept once with the option every opponent held (docs/PERFORMANCE.md,
// "Workspace reuse").
class OpponentModel {
 public:
  OpponentModel(std::size_t obs_dim, int num_opponents,
                const OpponentModelConfig& cfg, Rng& rng);

  int num_opponents() const { return static_cast<int>(nets_.size()); }

  // Predicted option distribution of opponent slot j (uniform until the
  // model has seen min_samples labels). The `_into` form writes kNumOptions
  // values to `out` without allocating.
  void predict_into(int j, const std::vector<double>& obs, double* out);
  std::vector<double> predict(int j, const std::vector<double>& obs);

  // Concatenated predictions over all opponents — the ô^{-i} feature block
  // consumed by the high-level actor and critic. The `_into` form writes
  // feature_dim() values to `out`.
  void predict_all_into(const std::vector<double>& obs, double* out);
  std::vector<double> predict_all(const std::vector<double>& obs);

  // Batched predict_all over a whole minibatch: row b of `obs_rows`
  // (B × obs_dim) yields row b of `out` (B × feature_dim). One forward per
  // opponent network instead of B single-row forwards — same values as
  // calling predict_all_into per row (the kernels treat batch rows
  // independently), but ~B× fewer network dispatches. This is the
  // high-level update's hot path (docs/PARALLELISM.md §hot-path).
  void predict_all_rows(const nn::Matrix& obs_rows, nn::Matrix& out);
  std::size_t feature_dim() const {
    return nets_.size() * static_cast<std::size_t>(kNumOptions);
  }

  // Records one own observation (obs_dim values) with the option each
  // opponent held: options[j] is opponent slot j's (num_opponents() values).
  // The store keeps the observation once for all predictors.
  void observe(const double* obs, const int* options);
  void observe(const std::vector<double>& obs, const std::vector<Option>& options);

  // One gradient step on opponent j's predictor; returns the loss (NaN-free;
  // 0 when below min_samples). update_all() steps every predictor in slot
  // order, each drawing its minibatch from `rng` in turn, and returns their
  // losses (valid until the next update_all). Both append to the
  // per-opponent loss history (the Fig. 10 curves).
  double update(int j, Rng& rng);
  const std::vector<double>& update_all(Rng& rng);

  const std::vector<std::vector<double>>& loss_history() const { return losses_; }

  // Direct access to predictor j's network (checkpointing).
  nn::Mlp& net(int j) { return nets_[static_cast<std::size_t>(j)]; }

  // Sets whether predict() trusts the networks even with an empty sample
  // buffer — how HeroTrainer::load restores the readiness a checkpoint was
  // saved with.
  void set_trained(bool trained) { trained_ = trained; }
  bool trained() const { return trained_; }

  // True once predict() consults the networks rather than the uniform
  // prior.
  bool prediction_ready() const { return trained_ || ready(); }

  // Number of labeled observations stored (each labels every opponent).
  std::size_t samples() const { return size_; }
  // True once update() takes a step: every predictor learns from the same
  // store, so one flag describes the whole model.
  bool ready() const { return !nets_.empty() && size_ >= cfg_.min_samples; }

 private:
  OpponentModelConfig cfg_;
  std::size_t obs_dim_ = 0;
  bool trained_ = false;
  std::vector<nn::Mlp> nets_;  // one workspace shared by all
  std::vector<std::unique_ptr<nn::Adam>> opts_;
  std::vector<std::vector<double>> losses_;  // per opponent, per update
  std::vector<double> last_losses_;          // update_all's result

  // Observation store: row r of store_obs_ (obs_dim_ values) was observed
  // with store_options_[r·num_opponents() + j] for opponent slot j. Rows
  // fill in arrival order up to buffer_capacity and then overwrite the
  // oldest first; each predictor samples rows uniformly with replacement.
  std::vector<double> store_obs_;
  std::vector<std::uint8_t> store_options_;
  std::size_t size_ = 0;
  std::size_t write_ = 0;

  // Prediction/update scratch (resized in place).
  nn::Matrix obs_row_, obs_m_, ce_grad_, probs_, logp_;
  std::vector<std::size_t> labels_;
};

}  // namespace hero::core
