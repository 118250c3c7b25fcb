#include "nn/activation.h"

#include <cmath>

#include "nn/kernels.h"

namespace hero::nn {

void ReLU::forward_into(const Matrix& x, Matrix& y) {
  y.resize(x.rows(), x.cols());
  detail::relu_forward(x.data(), x.size(), y.data());
}

void ReLU::backward_into(const Matrix& x, const Matrix& y, const Matrix& grad_out,
                         Matrix& grad_in) {
  (void)y;
  HERO_CHECK(grad_out.same_shape(x));
  grad_in.resize(x.rows(), x.cols());
  detail::relu_backward(x.data(), grad_out.data(), x.size(), grad_in.data());
}

void Tanh::forward_into(const Matrix& x, Matrix& y) {
  y.resize(x.rows(), x.cols());
  const double* src = x.data();
  double* dst = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) dst[i] = std::tanh(src[i]);
}

void Tanh::backward_into(const Matrix& x, const Matrix& y, const Matrix& grad_out,
                         Matrix& grad_in) {
  (void)x;
  HERO_CHECK(grad_out.same_shape(y));
  grad_in.resize(y.rows(), y.cols());
  const double* t = y.data();
  const double* g = grad_out.data();
  double* out = grad_in.data();
  for (std::size_t i = 0; i < y.size(); ++i) out[i] = g[i] * (1.0 - t[i] * t[i]);
}

}  // namespace hero::nn
