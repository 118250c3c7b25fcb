#include "hero/opponent_model.h"

#include <algorithm>
#include <cmath>

#include "nn/losses.h"
#include "obs/phase.h"

namespace hero::core {

OpponentModel::OpponentModel(std::size_t obs_dim, int num_opponents,
                             const OpponentModelConfig& cfg, Rng& rng)
    : cfg_(cfg), obs_dim_(obs_dim) {
  HERO_CHECK(num_opponents >= 0);
  HERO_CHECK(cfg_.buffer_capacity > 0);
  for (int j = 0; j < num_opponents; ++j) {
    nets_.emplace_back(obs_dim, cfg_.hidden, kNumOptions, rng);
    opts_.push_back(std::make_unique<nn::Adam>(nets_.back().params(), cfg_.lr));
    losses_.emplace_back();
  }
  for (std::size_t j = 1; j < nets_.size(); ++j) nets_[j].share_workspace(nets_[0]);
}

void OpponentModel::predict_into(int j, const std::vector<double>& obs, double* out) {
  if (!prediction_ready()) {
    for (int a = 0; a < kNumOptions; ++a) out[a] = 1.0 / kNumOptions;
    return;
  }
  obs_row_.resize(1, obs.size());
  std::copy(obs.begin(), obs.end(), obs_row_.data());
  const nn::Matrix& logits = nets_[static_cast<std::size_t>(j)].forward(obs_row_);
  // Softmax of the single logits row, straight into `out`.
  const double* lrow = logits.row_ptr(0);
  double mx = lrow[0];
  for (int a = 1; a < kNumOptions; ++a) mx = std::max(mx, lrow[a]);
  double z = 0.0;
  for (int a = 0; a < kNumOptions; ++a) {
    out[a] = std::exp(lrow[a] - mx);
    z += out[a];
  }
  for (int a = 0; a < kNumOptions; ++a) out[a] /= z;
}

std::vector<double> OpponentModel::predict(int j, const std::vector<double>& obs) {
  std::vector<double> out(kNumOptions);
  predict_into(j, obs, out.data());
  return out;
}

void OpponentModel::predict_all_into(const std::vector<double>& obs, double* out) {
  for (int j = 0; j < num_opponents(); ++j) {
    predict_into(j, obs, out + static_cast<std::size_t>(j) * kNumOptions);
  }
}

std::vector<double> OpponentModel::predict_all(const std::vector<double>& obs) {
  std::vector<double> out(feature_dim());
  predict_all_into(obs, out.data());
  return out;
}

void OpponentModel::predict_all_rows(const nn::Matrix& obs_rows, nn::Matrix& out) {
  OBS_PHASE("opponent_predict");
  const std::size_t B = obs_rows.rows();
  out.resize(B, std::max<std::size_t>(feature_dim(), 1));
  for (int j = 0; j < num_opponents(); ++j) {
    const std::size_t off = static_cast<std::size_t>(j) * kNumOptions;
    if (!prediction_ready()) {
      for (std::size_t b = 0; b < B; ++b) {
        double* row = out.row_ptr(b) + off;
        for (int a = 0; a < kNumOptions; ++a) row[a] = 1.0 / kNumOptions;
      }
      continue;
    }
    const nn::Matrix& logits = nets_[static_cast<std::size_t>(j)].forward(obs_rows);
    for (std::size_t b = 0; b < B; ++b) {
      // Same max-subtracted softmax as predict_into, row by row.
      const double* lrow = logits.row_ptr(b);
      double* orow = out.row_ptr(b) + off;
      double mx = lrow[0];
      for (int a = 1; a < kNumOptions; ++a) mx = std::max(mx, lrow[a]);
      double z = 0.0;
      for (int a = 0; a < kNumOptions; ++a) {
        orow[a] = std::exp(lrow[a] - mx);
        z += orow[a];
      }
      for (int a = 0; a < kNumOptions; ++a) orow[a] /= z;
    }
  }
}

void OpponentModel::observe(const double* obs, const int* options) {
  const std::size_t m = nets_.size();
  if (m == 0) return;
  if (size_ < cfg_.buffer_capacity) {
    store_obs_.insert(store_obs_.end(), obs, obs + obs_dim_);
    store_options_.resize(store_options_.size() + m);
    ++size_;
  } else {
    std::copy(obs, obs + obs_dim_, store_obs_.data() + write_ * obs_dim_);
  }
  std::uint8_t* row = store_options_.data() + write_ * m;
  for (std::size_t j = 0; j < m; ++j) {
    HERO_DCHECK(options[j] >= 0 && options[j] < kNumOptions);
    row[j] = static_cast<std::uint8_t>(options[j]);
  }
  write_ = (write_ + 1) % cfg_.buffer_capacity;
}

void OpponentModel::observe(const std::vector<double>& obs,
                            const std::vector<Option>& options) {
  HERO_CHECK(obs.size() == obs_dim_ && options.size() == nets_.size());
  std::vector<int> labels(options.size());
  for (std::size_t j = 0; j < options.size(); ++j) labels[j] = static_cast<int>(options[j]);
  observe(obs.data(), labels.data());
}

double OpponentModel::update(int j, Rng& rng) {
  if (size_ < cfg_.min_samples) return 0.0;
  HERO_CHECK(size_ > 0);
  const std::size_t B = cfg_.batch;
  const std::size_t m = nets_.size();
  const std::size_t jj = static_cast<std::size_t>(j);
  obs_m_.resize(B, obs_dim_);
  labels_.resize(B);
  for (std::size_t b = 0; b < B; ++b) {
    const std::size_t r = rng.index(size_);
    const double* src = store_obs_.data() + r * obs_dim_;
    std::copy(src, src + obs_dim_, obs_m_.row_ptr(b));
    labels_[b] = store_options_[r * m + jj];
  }

  // One exp per logit and one log per row feed the cross-entropy gradient,
  // the probabilities and the log-probabilities.
  auto& net = nets_[jj];
  const double ce_loss = nn::softmax_cross_entropy_into(net.forward(obs_m_), labels_,
                                                        nullptr, ce_grad_, &probs_, &logp_);

  // Entropy regularization: loss −= λ·H(π̂);
  // d(−H)/dlogit_c = p_c (log p_c + H).
  const double inv_b = 1.0 / static_cast<double>(B);
  double mean_entropy = 0.0;
  for (std::size_t b = 0; b < B; ++b) {
    double h = 0.0;
    for (int a = 0; a < kNumOptions; ++a) {
      h -= probs_(b, static_cast<std::size_t>(a)) * logp_(b, static_cast<std::size_t>(a));
    }
    mean_entropy += h * inv_b;
    for (int a = 0; a < kNumOptions; ++a) {
      const std::size_t c = static_cast<std::size_t>(a);
      ce_grad_(b, c) += cfg_.entropy_lambda * probs_(b, c) * (logp_(b, c) + h) * inv_b;
    }
  }
  const double loss = ce_loss - cfg_.entropy_lambda * mean_entropy;

  net.zero_grad();
  net.backward_params(ce_grad_);
  net.clip_grad_norm(10.0);
  opts_[jj]->step();
  losses_[jj].push_back(loss);
  trained_ = true;
  return loss;
}

const std::vector<double>& OpponentModel::update_all(Rng& rng) {
  last_losses_.resize(nets_.size());
  for (int j = 0; j < num_opponents(); ++j) {
    last_losses_[static_cast<std::size_t>(j)] = update(j, rng);
  }
  return last_losses_;
}

}  // namespace hero::core
