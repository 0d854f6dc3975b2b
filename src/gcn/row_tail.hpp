// The row-local tail of one inference segment (DESIGN.md §7).
//
// In evaluation mode every layer after a graph step computes each
// output row from the same input row alone: a convolution's product,
// its bias, batch norm, ReLU, dropout (the identity) and the dense
// layers. GcnModel::infer therefore runs them as one tail, evaluated
// per fixed block of kBlockRows rows. Each product is followed by its
// bias, batch norm and ReLU in one pass over the block it just wrote;
// the block's intermediates live in block-sized scratch, and only the
// tail's last product is written to a whole matrix. Each weight matrix
// is packed once per call and shared by every block.
//
// The arithmetic per element is the training path's: products start
// from +0.0 and take their terms in increasing k, skipping exact
// zeros; the bias is one rounded add; batch norm computes
// (x - mean) * iv, then gamma * xh + beta; ReLU is v > 0 ? v : 0. So a
// tail is bit-identical to forward(training=false) under either
// kernel.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/dense.hpp"

namespace gana::gcn {

class RowTail {
 public:
  /// Rows per block. Block boundaries depend only on the row count, so
  /// the output is bit-identical however many threads run the blocks.
  static constexpr std::size_t kBlockRows = 32;

  /// Starts an empty tail, keeping every buffer's capacity.
  void clear() { count_ = 0; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Appends y = x W + b. W is packed now, for the kernel selected now.
  void product(const Matrix& weight, const Matrix& bias);
  /// Appends evaluation-mode batch norm to the last product's output,
  /// with iv = 1 / sqrt(var + eps) per column.
  void batch_norm(const Matrix& mean, const Matrix& var, const Matrix& gamma,
                  const Matrix& beta, double eps);
  /// Appends ReLU to the last product's output (after its batch norm).
  void relu();

  /// Evaluates the tail on every row of `in` into `out` (resized; must
  /// not alias `in`). Blocks fan out over the compute pool when one is
  /// set, the caller is not a pool worker, and there are at least two;
  /// otherwise they run in order on the caller. Counts each product
  /// once in the perf counters, as 2 * rows * k * m.
  void run(const Matrix& in, Matrix& out);

 private:
  struct Stage {
    PackedMatrix weight;
    const double* bias = nullptr;
    // Batch norm, when `mean` is set.
    const double* mean = nullptr;
    const double* gamma = nullptr;
    const double* beta = nullptr;
    std::vector<double> iv;  ///< 1 / sqrt(var + eps) per column
    bool relu = false;
  };

  /// Runs every stage on `rows` rows: `in` and `out` point at the
  /// block's first row, `scratch` holds two kBlockRows x `hidden`
  /// buffers for the intermediates.
  void run_block(const double* in, std::size_t rows, double* out,
                 double* scratch, std::size_t hidden) const;

  std::vector<Stage> stages_;  ///< the first count_ are in use
  std::size_t count_ = 0;
  std::vector<double> scratch_;  ///< block scratch of the calling thread
};

}  // namespace gana::gcn
