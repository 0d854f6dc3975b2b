#include "linalg/sparse.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "linalg/kernels.hpp"
#include "util/diag.hpp"
#include "util/perf.hpp"
#include "util/thread_pool.hpp"

namespace gana {
namespace {

/// Flop threshold below which the parallel spmm path is not worth the
/// task-dispatch overhead (roughly one L2 cache of work).
constexpr std::size_t kParallelSpmmMinWork = 1u << 15;

/// Rows per parallel task; fixed so chunk boundaries (and therefore any
/// floating-point behavior) never depend on the thread count.
constexpr std::size_t kSpmmRowGrain = 64;

SpmmKernel g_spmm_kernel = SpmmKernel::Simd;

/// Runs `rows_kernel(begin, end)` over [0, rows). Each call owns a
/// disjoint output row range and every row accumulates in the same
/// order as the sequential loop, so the product is bit-identical at any
/// thread count. Products of `work` (nnz x columns) below one L2 cache
/// stay sequential, as do workers of an outer pool (e.g. the batch
/// runner), to avoid nested oversubscription.
template <typename F>
void for_spmm_rows(std::size_t rows, std::size_t work, F&& rows_kernel) {
  ThreadPool* pool = compute_pool();
  const bool parallel = pool != nullptr && !ThreadPool::inside_worker() &&
                        work >= kParallelSpmmMinWork && rows > kSpmmRowGrain;
  if (parallel) {
    parallel_for(pool, rows, kSpmmRowGrain, rows_kernel);
  } else {
    rows_kernel(0, rows);
  }
}

}  // namespace

void set_spmm_kernel(SpmmKernel kernel) { g_spmm_kernel = kernel; }

SpmmKernel spmm_kernel() { return g_spmm_kernel; }

SparseMatrix SparseMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                         std::vector<Triplet> triplets) {
  // Range validation must survive -DNDEBUG: a bad triplet that only an
  // assert would catch silently corrupts the CSR arrays (col out of
  // range) or drops entries (row out of range) in release builds.
  for (const Triplet& t : triplets) {
    if (t.row >= rows || t.col >= cols) {
      throw DiagError(make_diag(
          DiagCode::Internal, Stage::GraphBuild,
          "sparse triplet (" + std::to_string(t.row) + ", " +
              std::to_string(t.col) + ") outside " + std::to_string(rows) +
              "x" + std::to_string(cols) + " matrix"));
    }
  }
  // Two stable counting-sort passes, O(nnz + rows + cols): by column
  // into `by_col`, then by row straight into the CSR arrays. Each row
  // then lists its columns in increasing order, and equal (row, col)
  // entries sit next to each other in input order.
  const std::size_t nnz = triplets.size();
  std::vector<std::size_t> next(cols + 1, 0);
  for (const Triplet& t : triplets) ++next[t.col + 1];
  for (std::size_t c = 0; c < cols; ++c) next[c + 1] += next[c];
  std::vector<std::size_t> by_col(nnz);
  for (std::size_t i = 0; i < nnz; ++i) by_col[next[triplets[i].col]++] = i;

  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  for (const Triplet& t : triplets) ++m.row_ptr_[t.row + 1];
  for (std::size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  next.assign(m.row_ptr_.begin(), m.row_ptr_.end() - 1);
  m.col_idx_.resize(nnz);
  m.values_.resize(nnz);
  for (const std::size_t i : by_col) {
    const std::size_t k = next[triplets[i].row]++;
    m.col_idx_[k] = triplets[i].col;
    m.values_[k] = triplets[i].value;
  }

  // Sum duplicates in place, left to right (input order).
  std::size_t out = 0;
  std::size_t begin = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t end = m.row_ptr_[r + 1];
    const std::size_t row_start = out;
    for (std::size_t k = begin; k < end; ++k) {
      if (out > row_start && m.col_idx_[out - 1] == m.col_idx_[k]) {
        m.values_[out - 1] += m.values_[k];
      } else {
        m.col_idx_[out] = m.col_idx_[k];
        m.values_[out] = m.values_[k];
        ++out;
      }
    }
    begin = end;
    m.row_ptr_[r + 1] = out;
  }
  m.col_idx_.resize(out);
  m.values_.resize(out);
  return m;
}

SparseMatrix SparseMatrix::identity(std::size_t n) {
  std::vector<Triplet> t;
  t.reserve(n);
  for (std::size_t i = 0; i < n; ++i) t.push_back({i, i, 1.0});
  return from_triplets(n, n, std::move(t));
}

std::vector<double> SparseMatrix::multiply(
    const std::vector<double>& x) const {
  assert(x.size() == cols_);
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      s += values_[k] * x[col_idx_[k]];
    }
    y[r] = s;
  }
  return y;
}

Matrix SparseMatrix::multiply(const Matrix& x) const {
  Matrix y;
  multiply_into(x, y);
  return y;
}

void SparseMatrix::multiply_into(const Matrix& x, Matrix& y) const {
  assert(x.rows() == cols_);
  assert(&y != &x);
  y.resize(rows_, x.cols());
  perf::count_spmm(2ull * nnz() * x.cols());
  auto rows_kernel = [this, &x, &y](std::size_t begin, std::size_t end) {
    if (g_spmm_kernel == SpmmKernel::Simd) {
#if defined(GANA_SIMD_AVX2)
      linalg::spmm_rows_avx2(row_ptr_.data(), col_idx_.data(), values_.data(),
                             begin, end, x, y);
      return;
#elif defined(GANA_SIMD_NEON)
      linalg::spmm_rows_neon(row_ptr_.data(), col_idx_.data(), values_.data(),
                             begin, end, x, y);
      return;
#endif
      // Fallback builds: Simd aliases the reference loop below.
    }
    const std::size_t xc = x.cols();
    for (std::size_t r = begin; r < end; ++r) {
      double* yrow = y.row_ptr(r);
      for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        const double v = values_[k];
        const double* xrow = x.row_ptr(col_idx_[k]);
        for (std::size_t j = 0; j < xc; ++j) yrow[j] += v * xrow[j];
      }
    }
  };
  for_spmm_rows(rows_, nnz() * x.cols(), rows_kernel);
}

void SparseMatrix::chebyshev_step_into(Matrix& z, std::size_t width,
                                       std::size_t src, std::size_t dst,
                                       std::size_t prev) const {
  assert(rows_ == cols_ && z.rows() == rows_);
  assert(src + width <= z.cols() && dst + width <= z.cols());
  assert(dst >= src + width || src >= dst + width);
  assert(prev == kNoSlice ||
         (prev + width <= z.cols() &&
          (dst >= prev + width || prev >= dst + width)));
  perf::count_spmm(2ull * nnz() * width);
  if (rows_ == 0 || width == 0) return;
  const std::size_t stride = z.cols();
  double* base = z.data().data();
  const double* x = base + src;
  const double* p = prev == kNoSlice ? nullptr : base + prev;
  double* y = base + dst;
  auto rows_kernel = [&](std::size_t begin, std::size_t end) {
#if defined(GANA_SIMD_AVX2)
    if (g_spmm_kernel == SpmmKernel::Simd) {
      linalg::chebyshev_rows_avx2(row_ptr_.data(), col_idx_.data(),
                                  values_.data(), begin, end, x, p, y, width,
                                  stride);
      return;
    }
#endif
    // Reference; also Simd on builds without a vectorized step.
    for (std::size_t r = begin; r < end; ++r) {
      double* yrow = y + r * stride;
      std::fill(yrow, yrow + width, 0.0);
      for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        const double v = values_[k];
        const double* xrow = x + col_idx_[k] * stride;
        for (std::size_t j = 0; j < width; ++j) yrow[j] += v * xrow[j];
      }
      if (p == nullptr) continue;
      const double* prow = p + r * stride;
      for (std::size_t j = 0; j < width; ++j) yrow[j] = yrow[j] * 2.0 - prow[j];
    }
  };
  for_spmm_rows(rows_, nnz() * width, rows_kernel);
}

double SparseMatrix::at(std::size_t r, std::size_t c) const {
  assert(r < rows_ && c < cols_);
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

SparseMatrix SparseMatrix::scale_add_identity(double a, double b) const {
  assert(rows_ == cols_);
  std::vector<Triplet> t;
  t.reserve(nnz() + rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      t.push_back({r, col_idx_[k], a * values_[k]});
    }
    t.push_back({r, r, b});
  }
  return from_triplets(rows_, cols_, std::move(t));
}

SparseMatrix SparseMatrix::transposed() const {
  std::vector<Triplet> t;
  t.reserve(nnz());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      t.push_back({col_idx_[k], r, values_[k]});
    }
  }
  return from_triplets(cols_, rows_, std::move(t));
}

SparseMatrix SparseMatrix::pruned(double eps) const {
  std::vector<Triplet> t;
  t.reserve(nnz());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (std::abs(values_[k]) > eps) {
        t.push_back({r, col_idx_[k], values_[k]});
      }
    }
  }
  return from_triplets(rows_, cols_, std::move(t));
}

std::vector<double> SparseMatrix::row_sums() const {
  std::vector<double> s(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      s[r] += values_[k];
    }
  }
  return s;
}

}  // namespace gana
