// Loss functions returning both the scalar loss and the gradient w.r.t. the
// network output, ready to feed Mlp::backward().
//
// All losses average over the batch so learning rates are batch-invariant.
#pragma once

#include <vector>

#include "nn/matrix.h"

namespace hero::nn {

struct LossResult {
  double loss;
  Matrix grad;  // dL/d(prediction), same shape as the prediction
};

// Each loss comes in two forms: a convenience value-returning form and a
// `_into` form that writes the gradient into a caller-owned buffer (resized
// in place — reuse one across update steps for a zero-allocation hot path)
// and returns the scalar loss.

// Mean squared error against a dense target.
double mse_loss_into(const Matrix& pred, const Matrix& target, Matrix& grad);
LossResult mse_loss(const Matrix& pred, const Matrix& target);

// MSE evaluated only on one selected column per row (Q-learning: only the
// taken action's Q-value receives gradient).
double mse_loss_selected_into(const Matrix& pred, const std::vector<std::size_t>& cols,
                              const std::vector<double>& targets, Matrix& grad);
LossResult mse_loss_selected(const Matrix& pred, const std::vector<std::size_t>& cols,
                             const std::vector<double>& targets);

// Softmax cross-entropy with integer class targets; grad is w.r.t. logits.
// `weights` optionally rescales each row's contribution (e.g. importance).
// `probs` and `logp`, when given, receive softmax(logits) and
// log_softmax(logits) from the same exps and logs, bitwise those of
// softmax_into and log_softmax_into.
double softmax_cross_entropy_into(const Matrix& logits,
                                  const std::vector<std::size_t>& targets,
                                  const std::vector<double>* weights, Matrix& grad,
                                  Matrix* probs = nullptr, Matrix* logp = nullptr);
LossResult softmax_cross_entropy(const Matrix& logits,
                                 const std::vector<std::size_t>& targets,
                                 const std::vector<double>* weights = nullptr);

// Numerically-stable row-wise softmax / log-softmax.
void softmax_into(const Matrix& logits, Matrix& out);
void log_softmax_into(const Matrix& logits, Matrix& out);
Matrix softmax(const Matrix& logits);
Matrix log_softmax(const Matrix& logits);
// Both at once from one exp per logit and one log per row; `probs` and
// `logp` are bitwise those of softmax_into and log_softmax_into.
void softmax_log_softmax_into(const Matrix& logits, Matrix& probs, Matrix& logp);

// Row-wise entropy of softmax(logits).
std::vector<double> softmax_entropy(const Matrix& logits);

// Huber (smooth-L1) loss on selected columns, used by DQN for robustness to
// early-training TD-error spikes. `weights` optionally rescales each row
// (importance-sampling correction for prioritized replay).
double huber_loss_selected_into(const Matrix& pred, const std::vector<std::size_t>& cols,
                                const std::vector<double>& targets, double delta,
                                const std::vector<double>* weights, Matrix& grad);
LossResult huber_loss_selected(const Matrix& pred, const std::vector<std::size_t>& cols,
                               const std::vector<double>& targets, double delta = 1.0,
                               const std::vector<double>* weights = nullptr);

}  // namespace hero::nn
