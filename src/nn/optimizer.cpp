#include "nn/optimizer.h"

#include <cmath>

#include "nn/kernels.h"

namespace hero::nn {

Sgd::Sgd(std::vector<ParamRef> params, double lr, double momentum)
    : params_(std::move(params)), lr_(lr), momentum_(momentum) {
  velocity_.reserve(params_.size());
  for (auto& p : params_) velocity_.emplace_back(p.value->rows(), p.value->cols());
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Matrix& w = *params_[i].value;
    Matrix& g = *params_[i].grad;
    HERO_DCHECK_FINITE(g, "Sgd::step gradient");
    Matrix& vel = velocity_[i];
    for (std::size_t k = 0; k < w.size(); ++k) {
      vel.data()[k] = momentum_ * vel.data()[k] + g.data()[k];
      w.data()[k] -= lr_ * vel.data()[k];
    }
    HERO_DCHECK_FINITE(w, "Sgd::step updated weights");
    g.fill(0.0);
  }
}

Adam::Adam(std::vector<ParamRef> params, double lr, double beta1, double beta2,
           double eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (auto& p : params_) {
    m_.emplace_back(p.value->rows(), p.value->cols());
    v_.emplace_back(p.value->rows(), p.value->cols());
  }
}

void Adam::step() {
  ++t_;
  const detail::AdamCoeffs c{lr_, beta1_, beta2_, eps_,
                             1.0 - std::pow(beta1_, static_cast<double>(t_)),
                             1.0 - std::pow(beta2_, static_cast<double>(t_))};
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Matrix& w = *params_[i].value;
    Matrix& g = *params_[i].grad;
    HERO_DCHECK_FINITE(g, "Adam::step gradient");
    detail::adam_update(w.data(), g.data(), m_[i].data(), v_[i].data(), w.size(), c);
    HERO_DCHECK_FINITE(w, "Adam::step updated weights");
    g.fill(0.0);
  }
}

}  // namespace hero::nn
