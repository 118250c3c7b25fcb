#include "nn/matrix.h"

#include <cmath>

#include "nn/kernels.h"

namespace hero::nn {

Matrix Matrix::row(const std::vector<double>& v) {
  Matrix m(1, v.size());
  std::copy(v.begin(), v.end(), m.data_.begin());
  return m;
}

Matrix Matrix::stack_rows(const std::vector<std::vector<double>>& rows) {
  HERO_CHECK(!rows.empty());
  const std::size_t n = rows.front().size();
  Matrix m(rows.size(), n);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    HERO_CHECK_MSG(rows[r].size() == n, "stack_rows: ragged input at row " << r);
    std::copy(rows[r].begin(), rows[r].end(), m.data_.begin() + r * n);
  }
  return m;
}

Matrix Matrix::xavier(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  const double bound = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (auto& v : m.data_) v = rng.uniform(-bound, bound);
  return m;
}

std::vector<double> Matrix::row_vec(std::size_t r) const {
  HERO_CHECK(r < rows_);
  return std::vector<double>(data_.begin() + r * cols_, data_.begin() + (r + 1) * cols_);
}

void Matrix::set_row(std::size_t r, const std::vector<double>& v) {
  HERO_CHECK(r < rows_ && v.size() == cols_);
  std::copy(v.begin(), v.end(), data_.begin() + r * cols_);
}

Matrix Matrix::matmul(const Matrix& other) const {
  Matrix out;
  matmul_into(other, out);
  return out;
}

void Matrix::matmul_into(const Matrix& other, Matrix& out, bool accumulate) const {
  HERO_CHECK_MSG(cols_ == other.rows_, "matmul shape mismatch: (" << rows_ << "x" << cols_
                                        << ") * (" << other.rows_ << "x" << other.cols_
                                        << ")");
  HERO_CHECK_MSG(&out != this && &out != &other, "matmul_into: out aliases an operand");
  if (accumulate) {
    HERO_CHECK(out.rows_ == rows_ && out.cols_ == other.cols_);
  } else {
    out.resize(rows_, other.cols_);
    out.fill(0.0);
  }
  detail::mm_accum(data(), rows_, cols_, other.data(), other.cols_, out.data());
}

void Matrix::matmul_transA_into(const Matrix& other, Matrix& out,
                                bool accumulate) const {
  HERO_CHECK_MSG(rows_ == other.rows_, "matmul_transA shape mismatch: ("
                                           << rows_ << "x" << cols_ << ")ᵀ * ("
                                           << other.rows_ << "x" << other.cols_ << ")");
  HERO_CHECK_MSG(&out != this && &out != &other,
                 "matmul_transA_into: out aliases an operand");
  if (accumulate) {
    HERO_CHECK(out.rows_ == cols_ && out.cols_ == other.cols_);
  } else {
    out.resize(cols_, other.cols_);
    out.fill(0.0);
  }
  detail::mm_transA_accum(data(), rows_, cols_, other.data(), other.cols_, out.data());
}

void Matrix::matmul_transB_into(const Matrix& other, Matrix& out,
                                bool accumulate) const {
  HERO_CHECK_MSG(cols_ == other.cols_, "matmul_transB shape mismatch: ("
                                           << rows_ << "x" << cols_ << ") * ("
                                           << other.rows_ << "x" << other.cols_ << ")ᵀ");
  HERO_CHECK_MSG(&out != this && &out != &other,
                 "matmul_transB_into: out aliases an operand");
  if (accumulate) {
    HERO_CHECK(out.rows_ == rows_ && out.cols_ == other.rows_);
  } else {
    out.resize(rows_, other.rows_);
  }
  detail::mm_transB(data(), rows_, cols_, other.data(), other.rows_, out.data(), accumulate);
}

void Matrix::affine_into(const Matrix& w, const Matrix& bias, Matrix& out) const {
  HERO_CHECK_MSG(cols_ == w.rows_, "affine shape mismatch: (" << rows_ << "x" << cols_
                                    << ") * (" << w.rows_ << "x" << w.cols_ << ")");
  HERO_CHECK(bias.rows_ == 1 && bias.cols_ == w.cols_);
  HERO_CHECK_MSG(&out != this && &out != &w && &out != &bias,
                 "affine_into: out aliases an operand");
  out.resize(rows_, w.cols_);
  detail::mm_affine(data(), rows_, cols_, w.data(), w.cols_, bias.data(), out.data());
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  return out;
}

void Matrix::hcat_into(const Matrix& other, Matrix& out) const {
  HERO_CHECK(rows_ == other.rows_);
  HERO_CHECK_MSG(&out != this && &out != &other, "hcat_into: out aliases an operand");
  out.resize(rows_, cols_ + other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    double* orow = out.row_ptr(i);
    std::copy(row_ptr(i), row_ptr(i) + cols_, orow);
    std::copy(other.row_ptr(i), other.row_ptr(i) + other.cols_, orow + cols_);
  }
}

Matrix Matrix::hcat(const Matrix& other) const {
  Matrix out;
  hcat_into(other, out);
  return out;
}

void Matrix::col_slice_into(std::size_t c0, std::size_t c1, Matrix& out,
                            bool accumulate) const {
  HERO_CHECK(c0 <= c1 && c1 <= cols_);
  HERO_CHECK_MSG(&out != this, "col_slice_into: out aliases the source");
  const std::size_t n = c1 - c0;
  if (accumulate) {
    HERO_CHECK(out.rows_ == rows_ && out.cols_ == n);
  } else {
    out.resize(rows_, n);
  }
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* src = row_ptr(i) + c0;
    double* dst = out.row_ptr(i);
    if (accumulate) {
      for (std::size_t j = 0; j < n; ++j) dst[j] += src[j];
    } else {
      std::copy(src, src + n, dst);
    }
  }
}

Matrix Matrix::col_slice(std::size_t c0, std::size_t c1) const {
  Matrix out;
  col_slice_into(c0, c1, out);
  return out;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  HERO_CHECK(same_shape(o));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  HERO_CHECK(same_shape(o));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Matrix Matrix::operator+(const Matrix& o) const {
  Matrix r = *this;
  r += o;
  return r;
}

Matrix Matrix::operator-(const Matrix& o) const {
  Matrix r = *this;
  r -= o;
  return r;
}

Matrix Matrix::operator*(double s) const {
  Matrix r = *this;
  r *= s;
  return r;
}

Matrix Matrix::hadamard(const Matrix& o) const {
  HERO_CHECK(same_shape(o));
  Matrix r = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) r.data_[i] *= o.data_[i];
  return r;
}

double Matrix::sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::abs_max() const {
  double s = 0.0;
  for (double v : data_) s = std::max(s, std::abs(v));
  return s;
}

bool Matrix::all_finite() const {
  for (double v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

void Matrix::check_finite(const char* what) const {
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (!std::isfinite(data_[i])) [[unlikely]] {
      std::ostringstream os;
      os << what << ": non-finite value " << data_[i] << " at ("
         << i / std::max<std::size_t>(cols_, 1) << ", "
         << i % std::max<std::size_t>(cols_, 1) << ") of " << rows_ << "x" << cols_
         << " matrix";
      check_failed("all_finite()", __FILE__, __LINE__, os.str());
    }
  }
}

}  // namespace hero::nn
