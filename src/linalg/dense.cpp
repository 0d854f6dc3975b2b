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

void Matrix::resize_for_overwrite(std::size_t rows, std::size_t cols) {
  view_ = nullptr;  // contents discarded; no need to materialize
  const std::size_t n = rows * cols;
  if (n > data_.capacity()) {
    perf::count_matrix_alloc(n * sizeof(double));
  }
  data_.resize(n);
  rows_ = rows;
  cols_ = cols;
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
/// kernel. ikj keeps the inner loop sequential over both B and C rows;
/// each C row starts from +0.0.
void matmul_block_reference(const double* a, std::size_t rows,
                            std::size_t kk, const Matrix& b, double* c) {
  const std::size_t n = b.cols();
  for (std::size_t i = 0; i < rows; ++i) {
    const double* arow = a + i * kk;
    double* crow = c + i * n;
    std::fill(crow, crow + n, 0.0);
    for (std::size_t k = 0; k < kk; ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b.row_ptr(k);
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

MatmulKernel g_matmul_kernel = MatmulKernel::Simd;

}  // namespace

void set_matmul_kernel(MatmulKernel kernel) { g_matmul_kernel = kernel; }

MatmulKernel matmul_kernel() { return g_matmul_kernel; }

void PackedMatrix::pack(const Matrix& b) {
  source_ = &b;
  kernel_ = g_matmul_kernel;
  rows_ = b.rows();
  cols_ = b.cols();
#if defined(GANA_SIMD_AVX2)
  if (kernel_ == MatmulKernel::Simd) {
    const std::size_t n = linalg::packed_size_avx2(rows_, cols_);
    if (n > panels_.capacity()) perf::count_matrix_alloc(n * sizeof(double));
    panels_.resize(n);
    linalg::pack_panels_avx2(b, panels_.data());
  }
#endif
}

void matmul_block(const double* a, std::size_t rows, const PackedMatrix& b,
                  double* c) {
  if (b.kernel_ == MatmulKernel::Simd) {
    // The Simd id resolved at compile time (linalg/kernels.hpp): the
    // explicitly vectorized kernel when the build carries one,
    // otherwise the reference loop.
#if defined(GANA_SIMD_AVX2)
    linalg::matmul_block_avx2(a, rows, b.rows_, b.panels_.data(), b.cols_, c);
    return;
#elif defined(GANA_SIMD_NEON)
    // Thin adapter: the NEON kernel takes whole matrices and accumulates
    // into a zeroed C, so the block goes through a borrowed view of A
    // and a per-thread C.
    thread_local Matrix block;
    block.resize(rows, b.cols_);
    linalg::matmul_rows_neon(Matrix::borrow(a, rows, b.rows_), *b.source_,
                             block);
    const ConstSpan out = static_cast<const Matrix&>(block).data();
    std::copy(out.begin(), out.end(), c);
    return;
#endif
  }
  matmul_block_reference(a, rows, b.rows_, *b.source_, c);
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.cols() == b.rows());
  assert(&c != &a && &c != &b);
  c.resize_for_overwrite(a.rows(), b.cols());
  perf::count_matmul(2ull * a.rows() * a.cols() * b.cols());
  thread_local PackedMatrix packed;
  packed.pack(b);
  matmul_block(a.data().data(), a.rows(), packed, c.data().data());
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
  assert(a.rows() == b.rows());
  Matrix c(a.rows(), a.cols() + b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) c(i, j) = a(i, j);
    for (std::size_t j = 0; j < b.cols(); ++j) c(i, a.cols() + j) = b(i, j);
  }
  return c;
}

}  // namespace gana
