#include "gcn/row_tail.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <thread>

#include "util/perf.hpp"
#include "util/thread_pool.hpp"

namespace gana::gcn {

namespace {

/// Grows `v` to at least `n` doubles, counting a heap allocation the way
/// Matrix::resize does.
void grow(std::vector<double>& v, std::size_t n) {
  if (n > v.capacity()) perf::count_matrix_alloc(n * sizeof(double));
  if (n > v.size()) v.resize(n);
}

/// Bias, then batch norm and ReLU when present, over `rows` rows of
/// width `m`, in place.
template <bool kNorm, bool kRelu>
void finish_rows(double* c, std::size_t rows, std::size_t m,
                 const double* bias, const double* mean, const double* iv,
                 const double* gamma, const double* beta) {
  for (std::size_t r = 0; r < rows; ++r, c += m) {
    for (std::size_t j = 0; j < m; ++j) {
      double v = c[j] + bias[j];
      if constexpr (kNorm) {
        const double xh = (v - mean[j]) * iv[j];
        v = gamma[j] * xh + beta[j];
      }
      if constexpr (kRelu) v = v > 0.0 ? v : 0.0;
      c[j] = v;
    }
  }
}

}  // namespace

void RowTail::product(const Matrix& weight, const Matrix& bias) {
  assert(bias.rows() == 1 && bias.cols() == weight.cols());
  assert(count_ == 0 || stages_[count_ - 1].weight.cols() == weight.rows());
  if (count_ == stages_.size()) stages_.emplace_back();
  Stage& s = stages_[count_++];
  s.weight.pack(weight);
  s.bias = bias.data().data();
  s.mean = nullptr;
  s.relu = false;
}

void RowTail::batch_norm(const Matrix& mean, const Matrix& var,
                         const Matrix& gamma, const Matrix& beta,
                         double eps) {
  assert(count_ > 0);
  Stage& s = stages_[count_ - 1];
  assert(s.mean == nullptr && !s.relu);
  assert(mean.cols() == s.weight.cols() && var.cols() == mean.cols());
  s.iv.resize(mean.cols());
  for (std::size_t c = 0; c < s.iv.size(); ++c) {
    s.iv[c] = 1.0 / std::sqrt(var(0, c) + eps);
  }
  s.mean = mean.data().data();
  s.gamma = gamma.data().data();
  s.beta = beta.data().data();
}

void RowTail::relu() {
  assert(count_ > 0);
  stages_[count_ - 1].relu = true;
}

void RowTail::run(const Matrix& in, Matrix& out) {
  assert(count_ > 0 && in.cols() == stages_[0].weight.rows());
  assert(&in != &out);
  const std::size_t n = in.rows();
  std::size_t hidden = 0;  // widest intermediate
  for (std::size_t s = 0; s < count_; ++s) {
    const PackedMatrix& w = stages_[s].weight;
    perf::count_matmul(2ull * n * w.rows() * w.cols());
    if (s + 1 < count_) hidden = std::max(hidden, w.cols());
  }
  const std::size_t width = stages_[count_ - 1].weight.cols();
  out.resize_for_overwrite(n, width);
  const std::size_t scratch = 2 * kBlockRows * hidden;
  grow(scratch_, scratch);

  const double* src = in.data().data();
  double* dst = out.data().data();
  const std::size_t blocks = (n + kBlockRows - 1) / kBlockRows;
  const std::thread::id caller = std::this_thread::get_id();
  const auto body = [&](std::size_t first, std::size_t last) {
    // Blocks the caller runs use the workspace's scratch; any other
    // thread (a pool worker, or another caller helping while it waits)
    // uses its own.
    thread_local std::vector<double> own;
    double* buf = scratch_.data();
    if (std::this_thread::get_id() != caller) {
      grow(own, scratch);
      buf = own.data();
    }
    for (std::size_t b = first; b < last; ++b) {
      const std::size_t r0 = b * kBlockRows;
      run_block(src + r0 * in.cols(), std::min(kBlockRows, n - r0),
                dst + r0 * width, buf, hidden);
    }
  };
  ThreadPool* pool = compute_pool();
  if (pool != nullptr && !ThreadPool::inside_worker() && blocks >= 2) {
    parallel_for(pool, blocks, 1, body);
  } else {
    body(0, blocks);
  }
}

void RowTail::run_block(const double* in, std::size_t rows, double* out,
                        double* scratch, std::size_t hidden) const {
  using Finish = void (*)(double*, std::size_t, std::size_t, const double*,
                          const double*, const double*, const double*,
                          const double*);
  static constexpr Finish kFinish[2][2] = {
      {finish_rows<false, false>, finish_rows<false, true>},
      {finish_rows<true, false>, finish_rows<true, true>}};
  const double* a = in;
  for (std::size_t s = 0; s < count_; ++s) {
    const Stage& st = stages_[s];
    double* c =
        s + 1 == count_ ? out : scratch + (s % 2) * kBlockRows * hidden;
    matmul_block(a, rows, st.weight, c);
    kFinish[st.mean != nullptr][st.relu](c, rows, st.weight.cols(), st.bias,
                                          st.mean, st.iv.data(), st.gamma,
                                          st.beta);
    a = c;
  }
}

}  // namespace gana::gcn
