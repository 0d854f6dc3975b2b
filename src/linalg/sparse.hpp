// Compressed sparse row (CSR) matrices for graph operators.
//
// The scaled Laplacian L̂ of each circuit graph is stored in CSR form and
// the Chebyshev recurrence of Eq. (5) in the paper reduces to repeated
// sparse-times-dense products (spmm).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/dense.hpp"

namespace gana {

/// Sparse-times-dense kernel selection, mirroring MatmulKernel: every
/// kernel accumulates each output row over strictly increasing nonzero
/// index with separate rounded mul/add, so results are bit-identical
/// (kernel_equivalence_test pins this). `Simd` resolves at compile time
/// to AVX2/NEON/the scalar loop (linalg/kernels.hpp) and is the default.
enum class SpmmKernel {
  Reference,  ///< original scalar per-row loop (oracle)
  Simd,       ///< compile-time dispatched AVX2/NEON/scalar (default)
};

/// Process-global kernel switch; same discipline as set_matmul_kernel
/// (bench/test setup only, never mid-batch).
void set_spmm_kernel(SpmmKernel kernel);
[[nodiscard]] SpmmKernel spmm_kernel();

/// One nonzero entry; used to assemble CSR matrices.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

/// Square or rectangular CSR matrix of doubles.
///
/// Invariants: row_ptr.size() == rows()+1, row_ptr.front() == 0,
/// row_ptr.back() == nnz(), columns within each row are strictly
/// increasing.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Builds from triplets in O(nnz + rows + cols): two stable counting
  /// sorts, by column and then by row, with no comparison sort.
  /// Duplicate (row, col) entries are summed left to right in input
  /// order, ((t0 + t1) + t2) + ..., and resulting zeros are kept
  /// (callers may prune via `pruned()`). That order fixes the bits of a
  /// sum of three or more non-integer duplicates; the library's own
  /// duplicates are exact integer sums (adjacency, Graclus) or two
  /// addends (scale_add_identity's diagonal), whose bits no order moves.
  /// Throws `DiagError` (DiagCode::Internal, Stage::GraphBuild) on any
  /// triplet with row >= rows or col >= cols -- enforced in every build
  /// mode, because in release builds an out-of-range triplet would
  /// otherwise silently corrupt the CSR arrays or drop entries.
  static SparseMatrix from_triplets(std::size_t rows, std::size_t cols,
                                    std::vector<Triplet> triplets);

  /// Identity matrix of size n.
  static SparseMatrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  [[nodiscard]] const std::vector<std::size_t>& row_ptr() const {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::size_t>& col_idx() const {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] std::vector<double>& values() { return values_; }

  /// y = A x (vector form).
  [[nodiscard]] std::vector<double> multiply(
      const std::vector<double>& x) const;

  /// Y = A X (dense multi-column form); X.rows() must equal cols().
  [[nodiscard]] Matrix multiply(const Matrix& x) const;

  /// Y = A X into a caller-owned buffer (resized; capacity reused), so
  /// steady-state spmm performs zero heap allocations. Bit-identical to
  /// `multiply` -- same kernel, same per-row accumulation order, same
  /// parallel-dispatch decision. `y` must not alias `x`.
  void multiply_into(const Matrix& x, Matrix& y) const;

  /// Marks the absent `prev` slice of chebyshev_step_into.
  static constexpr std::size_t kNoSlice = static_cast<std::size_t>(-1);

  /// Strided spmm inside one matrix: the Chebyshev recurrence step, done
  /// in place on the stacked basis. With S_c the `width` columns of `z`
  /// starting at column c,
  ///   S_dst = A S_src                    when prev == kNoSlice,
  ///   S_dst = (A S_src) * 2.0 - S_prev   otherwise.
  /// Each element is bit-identical to multiply_into, then `*= 2.0`, then
  /// `-= T_prev`. A is square with z.rows() rows, the dst slice overlaps
  /// neither other slice, and the step counts one spmm and splits over
  /// the compute pool exactly as multiply_into does.
  void chebyshev_step_into(Matrix& z, std::size_t width, std::size_t src,
                           std::size_t dst,
                           std::size_t prev = kNoSlice) const;

  /// Returns entry (r, c), 0 if absent. O(log deg) per lookup.
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  /// Returns a*this + b*I (square matrices only).
  [[nodiscard]] SparseMatrix scale_add_identity(double a, double b) const;

  /// Transposed copy.
  [[nodiscard]] SparseMatrix transposed() const;

  /// Copy without explicitly stored zeros below `eps` magnitude.
  [[nodiscard]] SparseMatrix pruned(double eps = 0.0) const;

  /// Row sums (degree vector when this is an adjacency matrix).
  [[nodiscard]] std::vector<double> row_sums() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_ = {0};
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace gana
