#include "nn/losses.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hero::nn {

double mse_loss_into(const Matrix& pred, const Matrix& target, Matrix& grad) {
  HERO_CHECK(pred.same_shape(target));
  const double inv_n = 1.0 / static_cast<double>(pred.rows());
  grad.resize(pred.rows(), pred.cols());
  double loss = 0.0;
  for (std::size_t i = 0; i < pred.rows(); ++i) {
    for (std::size_t j = 0; j < pred.cols(); ++j) {
      double d = pred(i, j) - target(i, j);
      loss += d * d;
      grad(i, j) = 2.0 * d * inv_n;
    }
  }
  return loss * inv_n;
}

LossResult mse_loss(const Matrix& pred, const Matrix& target) {
  LossResult r;
  r.loss = mse_loss_into(pred, target, r.grad);
  return r;
}

double mse_loss_selected_into(const Matrix& pred, const std::vector<std::size_t>& cols,
                              const std::vector<double>& targets, Matrix& grad) {
  HERO_CHECK(cols.size() == pred.rows() && targets.size() == pred.rows());
  const double inv_n = 1.0 / static_cast<double>(pred.rows());
  grad.resize(pred.rows(), pred.cols());
  grad.fill(0.0);
  double loss = 0.0;
  for (std::size_t i = 0; i < pred.rows(); ++i) {
    HERO_CHECK(cols[i] < pred.cols());
    double d = pred(i, cols[i]) - targets[i];
    loss += d * d;
    grad(i, cols[i]) = 2.0 * d * inv_n;
  }
  return loss * inv_n;
}

LossResult mse_loss_selected(const Matrix& pred, const std::vector<std::size_t>& cols,
                             const std::vector<double>& targets) {
  LossResult r;
  r.loss = mse_loss_selected_into(pred, cols, targets, r.grad);
  return r;
}

void softmax_into(const Matrix& logits, Matrix& out) {
  out.resize(logits.rows(), logits.cols());
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    const double* lrow = logits.row_ptr(i);
    double* orow = out.row_ptr(i);
    double mx = lrow[0];
    for (std::size_t j = 1; j < logits.cols(); ++j) mx = std::max(mx, lrow[j]);
    double z = 0.0;
    for (std::size_t j = 0; j < logits.cols(); ++j) {
      orow[j] = std::exp(lrow[j] - mx);
      z += orow[j];
    }
    for (std::size_t j = 0; j < logits.cols(); ++j) orow[j] /= z;
  }
}

void log_softmax_into(const Matrix& logits, Matrix& out) {
  out.resize(logits.rows(), logits.cols());
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    const double* lrow = logits.row_ptr(i);
    double* orow = out.row_ptr(i);
    double mx = lrow[0];
    for (std::size_t j = 1; j < logits.cols(); ++j) mx = std::max(mx, lrow[j]);
    double z = 0.0;
    for (std::size_t j = 0; j < logits.cols(); ++j) z += std::exp(lrow[j] - mx);
    double logz = mx + std::log(z);
    for (std::size_t j = 0; j < logits.cols(); ++j) orow[j] = lrow[j] - logz;
  }
}

void softmax_log_softmax_into(const Matrix& logits, Matrix& probs, Matrix& logp) {
  probs.resize(logits.rows(), logits.cols());
  logp.resize(logits.rows(), logits.cols());
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    const double* lrow = logits.row_ptr(i);
    double* prow = probs.row_ptr(i);
    double* lprow = logp.row_ptr(i);
    double mx = lrow[0];
    for (std::size_t j = 1; j < logits.cols(); ++j) mx = std::max(mx, lrow[j]);
    double z = 0.0;
    for (std::size_t j = 0; j < logits.cols(); ++j) {
      prow[j] = std::exp(lrow[j] - mx);
      z += prow[j];
    }
    const double logz = mx + std::log(z);
    for (std::size_t j = 0; j < logits.cols(); ++j) {
      prow[j] /= z;
      lprow[j] = lrow[j] - logz;
    }
  }
}

Matrix softmax(const Matrix& logits) {
  Matrix out;
  softmax_into(logits, out);
  return out;
}

Matrix log_softmax(const Matrix& logits) {
  Matrix out;
  log_softmax_into(logits, out);
  return out;
}

std::vector<double> softmax_entropy(const Matrix& logits) {
  Matrix logp = log_softmax(logits);
  std::vector<double> ent(logits.rows(), 0.0);
  for (std::size_t i = 0; i < logits.rows(); ++i)
    for (std::size_t j = 0; j < logits.cols(); ++j)
      ent[i] -= std::exp(logp(i, j)) * logp(i, j);
  return ent;
}

double softmax_cross_entropy_into(const Matrix& logits,
                                  const std::vector<std::size_t>& targets,
                                  const std::vector<double>* weights, Matrix& grad,
                                  Matrix* probs, Matrix* logp) {
  HERO_CHECK(targets.size() == logits.rows());
  if (weights) HERO_CHECK(weights->size() == logits.rows());
  const double inv_n = 1.0 / static_cast<double>(logits.rows());
  grad.resize(logits.rows(), logits.cols());
  if (probs) probs->resize(logits.rows(), logits.cols());
  if (logp) logp->resize(logits.rows(), logits.cols());
  double loss = 0.0;
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    HERO_CHECK(targets[i] < logits.cols());
    const double* lrow = logits.row_ptr(i);
    double* grow = grad.row_ptr(i);
    const double w = weights ? (*weights)[i] : 1.0;
    // Fused softmax + log-softmax on the row (two passes, no temporaries).
    double mx = lrow[0];
    for (std::size_t j = 1; j < logits.cols(); ++j) mx = std::max(mx, lrow[j]);
    double z = 0.0;
    for (std::size_t j = 0; j < logits.cols(); ++j) {
      grow[j] = std::exp(lrow[j] - mx);
      z += grow[j];
    }
    const double logz = mx + std::log(z);
    loss += -w * (lrow[targets[i]] - logz);
    if (probs) {
      double* prow = probs->row_ptr(i);
      for (std::size_t j = 0; j < logits.cols(); ++j) prow[j] = grow[j] / z;
    }
    if (logp) {
      double* lprow = logp->row_ptr(i);
      for (std::size_t j = 0; j < logits.cols(); ++j) lprow[j] = lrow[j] - logz;
    }
    const double inv_z = 1.0 / z;
    for (std::size_t j = 0; j < logits.cols(); ++j) grow[j] *= w * inv_z * inv_n;
    grow[targets[i]] -= w * inv_n;
  }
  return loss * inv_n;
}

LossResult softmax_cross_entropy(const Matrix& logits,
                                 const std::vector<std::size_t>& targets,
                                 const std::vector<double>* weights) {
  LossResult r;
  r.loss = softmax_cross_entropy_into(logits, targets, weights, r.grad);
  return r;
}

double huber_loss_selected_into(const Matrix& pred, const std::vector<std::size_t>& cols,
                                const std::vector<double>& targets, double delta,
                                const std::vector<double>* weights, Matrix& grad) {
  HERO_CHECK(cols.size() == pred.rows() && targets.size() == pred.rows());
  if (weights) HERO_CHECK(weights->size() == pred.rows());
  const double inv_n = 1.0 / static_cast<double>(pred.rows());
  grad.resize(pred.rows(), pred.cols());
  grad.fill(0.0);
  double loss = 0.0;
  for (std::size_t i = 0; i < pred.rows(); ++i) {
    const double w = weights ? (*weights)[i] : 1.0;
    double d = pred(i, cols[i]) - targets[i];
    if (std::abs(d) <= delta) {
      loss += w * 0.5 * d * d;
      grad(i, cols[i]) = w * d * inv_n;
    } else {
      loss += w * delta * (std::abs(d) - 0.5 * delta);
      grad(i, cols[i]) = w * (d > 0 ? delta : -delta) * inv_n;
    }
  }
  return loss * inv_n;
}

LossResult huber_loss_selected(const Matrix& pred, const std::vector<std::size_t>& cols,
                               const std::vector<double>& targets, double delta,
                               const std::vector<double>* weights) {
  LossResult r;
  r.loss = huber_loss_selected_into(pred, cols, targets, delta, weights, r.grad);
  return r;
}

}  // namespace hero::nn
