#include "linalg/dense.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "linalg/kernels.hpp"
#include "util/rng.hpp"

namespace gana {

bool operator==(ConstSpan a, ConstSpan b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

Matrix Matrix::borrow(const double* data, std::size_t rows,
                      std::size_t cols) {
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  if (rows * cols != 0) m.view_ = data;
  return m;
}

void Matrix::materialize() {
  const std::size_t n = rows_ * cols_;
  if (n > data_.capacity()) {
    perf::count_matrix_alloc(n * sizeof(double));
  }
  data_.assign(view_, view_ + n);
  view_ = nullptr;
}

void Matrix::fill(double v) {
  // Contents are discarded wholesale, so a borrow detaches without the
  // materializing copy.
  if (view_ != nullptr) {
    view_ = nullptr;
    if (size() > data_.capacity()) {
      perf::count_matrix_alloc(size() * sizeof(double));
    }
    data_.assign(size(), v);
    return;
  }
  for (double& x : data_) x = v;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  view_ = nullptr;  // contents discarded; no need to materialize
  const std::size_t n = rows * cols;
  if (n > data_.capacity()) {
    perf::count_matrix_alloc(n * sizeof(double));
  }
  data_.assign(n, 0.0);
  rows_ = rows;
  cols_ = cols;
}

void Matrix::copy_from(const Matrix& src) {
  view_ = nullptr;  // contents discarded; no need to materialize
  const std::size_t n = src.size();
  if (n > data_.capacity()) {
    perf::count_matrix_alloc(n * sizeof(double));
  }
  data_.resize(n);
  const double* s = src.ptr();
  std::copy(s, s + n, data_.begin());
  rows_ = src.rows_;
  cols_ = src.cols_;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  ensure_owned();
  const double* o = other.ptr();
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  ensure_owned();
  const double* o = other.ptr();
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  ensure_owned();
  for (double& x : data_) x *= s;
  return *this;
}

Matrix Matrix::glorot(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  const double limit =
      std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (double& x : m.data()) x = rng.uniform(-limit, limit);
  return m;
}

Matrix Matrix::randn(std::size_t rows, std::size_t cols, double sigma,
                     Rng& rng) {
  Matrix m(rows, cols);
  for (double& x : m.data()) x = rng.normal(0.0, sigma);
  return m;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_into(a, b, c);
  return c;
}

namespace {

/// Original scalar ikj product: the bit-identity oracle for the Simd
/// kernel, and the pre-fast-path baseline bench/gcn_inference measures
/// against. ikj keeps the inner loop sequential over both B and C rows.
void matmul_rows_reference(const Matrix& a, const Matrix& b, Matrix& c) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_ptr(i);
    double* crow = c.row_ptr(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b.row_ptr(k);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
}

/// The Simd id resolved at compile time (linalg/kernels.hpp): the
/// explicitly vectorized kernel when the build carries one, otherwise
/// the reference loop.
void matmul_rows_simd(const Matrix& a, const Matrix& b, Matrix& c) {
#if defined(GANA_SIMD_AVX2)
  linalg::matmul_rows_avx2(a, b, c);
#elif defined(GANA_SIMD_NEON)
  linalg::matmul_rows_neon(a, b, c);
#else
  matmul_rows_reference(a, b, c);
#endif
}

MatmulKernel g_matmul_kernel = MatmulKernel::Simd;

}  // namespace

void set_matmul_kernel(MatmulKernel kernel) { g_matmul_kernel = kernel; }

MatmulKernel matmul_kernel() { return g_matmul_kernel; }

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.cols() == b.rows());
  assert(&c != &a && &c != &b);
  c.resize(a.rows(), b.cols());
  perf::count_matmul(2ull * a.rows() * a.cols() * b.cols());
  switch (g_matmul_kernel) {
    case MatmulKernel::Reference:
      matmul_rows_reference(a, b, c);
      break;
    case MatmulKernel::Simd:
      matmul_rows_simd(a, b, c);
      break;
  }
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const double* arow = a.row_ptr(k);
    const double* brow = b.row_ptr(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      double* crow = c.row_ptr(i);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_ptr(i);
    double* crow = c.row_ptr(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.row_ptr(j);
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += arow[k] * brow[k];
      crow[j] = s;
    }
  }
  return c;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

double frobenius_sq(const Matrix& a) {
  double s = 0.0;
  for (double x : a.data()) s += x * x;
  return s;
}

Matrix hcat(const Matrix& a, const Matrix& b) {
  Matrix c;
  hcat_into(a, b, c);
  return c;
}

void hcat_into(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.rows() == b.rows());
  assert(&c != &a && &c != &b);
  c.resize(a.rows(), a.cols() + b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) c(i, j) = a(i, j);
    for (std::size_t j = 0; j < b.cols(); ++j) c(i, a.cols() + j) = b(i, j);
  }
}

}  // namespace gana
