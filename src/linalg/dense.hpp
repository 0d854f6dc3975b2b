// Dense row-major matrix type used by the GCN layers.
//
// This is the numerical substrate the paper delegates to TensorFlow/scikit;
// here it is implemented from scratch (see DESIGN.md, substitutions).
#pragma once

#include <cstddef>
#include <vector>

#include "util/perf.hpp"

namespace gana {

class Rng;

/// Read-only view of a matrix's elements. Mirrors the parts of the
/// `const std::vector<double>&` surface the codebase uses (iteration,
/// indexing, `.data()`, element-wise `==`), so `Matrix::data()` can hand
/// out a view whether the matrix owns its storage or borrows it from a
/// memory-mapped artifact.
class ConstSpan {
 public:
  ConstSpan(const double* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] const double* begin() const { return data_; }
  [[nodiscard]] const double* end() const { return data_ + size_; }
  [[nodiscard]] const double* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  double operator[](std::size_t i) const { return data_[i]; }

 private:
  const double* data_;
  std::size_t size_;
};

/// Mutable counterpart of ConstSpan, returned by the non-const
/// `Matrix::data()` (which materializes owned storage first).
class MutSpan {
 public:
  MutSpan(double* data, std::size_t size) : data_(data), size_(size) {}

  operator ConstSpan() const { return {data_, size_}; }  // NOLINT

  [[nodiscard]] double* begin() const { return data_; }
  [[nodiscard]] double* end() const { return data_ + size_; }
  [[nodiscard]] double* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  double& operator[](std::size_t i) const { return data_[i]; }

 private:
  double* data_;
  std::size_t size_;
};

/// Element-wise comparison with `std::vector<double>` semantics (double
/// `==`, not approximate). The bitwise-identity tests compare spans of
/// values produced by deterministic kernels, where element equality and
/// bit equality coincide.
[[nodiscard]] bool operator==(ConstSpan a, ConstSpan b);
[[nodiscard]] inline bool operator!=(ConstSpan a, ConstSpan b) {
  return !(a == b);
}

/// Dense row-major matrix of doubles.
///
/// Invariant: data().size() == rows() * cols().
///
/// Heap discipline: the sized constructor and any `resize` or
/// `resize_for_overwrite` that outgrows the current capacity count one
/// allocation in the perf counters. The inference fast path routes
/// every buffer through those on reused workspace matrices, so
/// steady-state inference performs (and reports) zero allocations.
///
/// Storage is normally owned, but a matrix can also *borrow* read-only
/// element storage (`Matrix::borrow`) -- the zero-copy path for weight
/// tensors inside a memory-mapped model artifact. A borrowed matrix is
/// fully usable through the const API without copying; the first
/// mutating access materializes an owned copy (copy-on-write), so the
/// semantics never differ from an owned matrix. The borrowed pointer's
/// storage must outlive every borrowing matrix (see
/// `GcnModel::retain_storage`). Copying a borrowed matrix produces
/// another borrow of the same storage.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    if (!data_.empty()) {
      perf::count_matrix_alloc(data_.size() * sizeof(double));
    }
  }

  /// Non-owning rows x cols view over `data` (row-major, 8-byte
  /// aligned, rows*cols doubles). No allocation, no copy.
  [[nodiscard]] static Matrix borrow(const double* data, std::size_t rows,
                                     std::size_t cols);

  [[nodiscard]] bool borrowed() const { return view_ != nullptr; }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return rows_ * cols_; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  double& operator()(std::size_t r, std::size_t c) {
    ensure_owned();
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return ptr()[r * cols_ + c];
  }

  [[nodiscard]] ConstSpan data() const { return {ptr(), size()}; }
  [[nodiscard]] MutSpan data() {
    ensure_owned();
    return {data_.data(), data_.size()};
  }

  [[nodiscard]] double* row_ptr(std::size_t r) {
    ensure_owned();
    return &data_[r * cols_];
  }
  [[nodiscard]] const double* row_ptr(std::size_t r) const {
    return ptr() + r * cols_;
  }

  void fill(double v);

  /// Reshapes to rows x cols with every entry zeroed, reusing the
  /// existing heap buffer whenever its capacity suffices (the workspace
  /// reuse contract of the inference fast path).
  void resize(std::size_t rows, std::size_t cols);

  /// Reshapes to rows x cols like `resize`, but leaves the contents
  /// unspecified: for buffers the caller then overwrites in full, where
  /// a zero-fill would be a wasted pass over memory.
  void resize_for_overwrite(std::size_t rows, std::size_t cols);

  /// Element-wise in-place operations.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  /// Glorot/Xavier-uniform initialization, as used for GCN weights.
  static Matrix glorot(std::size_t rows, std::size_t cols, Rng& rng);

  /// Normal(0, sigma) initialization.
  static Matrix randn(std::size_t rows, std::size_t cols, double sigma,
                      Rng& rng);

 private:
  [[nodiscard]] const double* ptr() const {
    return view_ != nullptr ? view_ : data_.data();
  }
  /// Copy-on-write: materializes owned storage before a mutable access.
  void ensure_owned() {
    if (view_ != nullptr) materialize();
  }
  void materialize();

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;              ///< owned storage (view_ == null)
  const double* view_ = nullptr;          ///< borrowed storage, else null
};

/// Dense-product kernel selection.
///
/// Every kernel performs the exact same sequence of IEEE operations per
/// output element -- each c(i,j) accumulates a(i,k)*b(k,j) over strictly
/// increasing k, one rounded multiply and one rounded add at a time, and
/// multiplications by an exact zero a(i,k) are skipped -- so their
/// results are bit-identical (kernel_equivalence_test pins this).
/// `Reference` is the original loop, kept as the correctness
/// oracle and as the baseline the inference bench measures the fast path
/// against; `Simd` is the explicitly vectorized kernel the build
/// compiled in (AVX2 on x86-64, NEON on aarch64, the Reference loop
/// elsewhere -- see linalg/kernels.hpp) and is the default.
enum class MatmulKernel {
  Reference,  ///< original scalar ikj loop (oracle)
  Simd,       ///< compile-time dispatched AVX2/NEON/scalar (default)
};

/// Process-global kernel switch. Not synchronized: set it only while no
/// product is running (bench/test setup), never mid-batch.
void set_matmul_kernel(MatmulKernel kernel);
[[nodiscard]] MatmulKernel matmul_kernel();

/// The right operand of many block products (`matmul_block`), prepared
/// once. The Simd kernel streams B as column panels, so `pack` copies B
/// into that layout; the other kernels read B in place and keep a
/// pointer to it. The layout follows the kernel selected when `pack`
/// runs, and B must stay alive and unchanged while the packed form is
/// in use. `pack` reuses capacity; any number of threads may share one
/// packed operand read-only.
class PackedMatrix {
 public:
  void pack(const Matrix& b);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

 private:
  friend void matmul_block(const double* a, std::size_t rows,
                           const PackedMatrix& b, double* c);

  const Matrix* source_ = nullptr;
  MatmulKernel kernel_ = MatmulKernel::Reference;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> panels_;  ///< Simd kernels that stream panels
};

/// C = A * B over `rows` rows: `a` holds them contiguously (rows x
/// b.rows()), and `c` receives rows x b.cols(), every element
/// overwritten. Each element is bit-identical to matmul_into's under
/// the kernel `b` was packed for. Unlike matmul_into it leaves the perf
/// counters alone, so a caller splitting one product into blocks counts
/// it once.
void matmul_block(const double* a, std::size_t rows, const PackedMatrix& b,
                  double* c);

/// C = A * B. Dimensions must agree (A.cols == B.rows).
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A * B into a caller-owned buffer (resized; capacity reused).
/// Bit-identical to `matmul` -- same kernel, same accumulation order.
/// `c` must not alias `a` or `b`.
void matmul_into(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A^T * B.
Matrix matmul_at_b(const Matrix& a, const Matrix& b);

/// C = A * B^T.
Matrix matmul_a_bt(const Matrix& a, const Matrix& b);

/// Transposed copy.
Matrix transpose(const Matrix& a);

/// Sum of squares of all entries.
double frobenius_sq(const Matrix& a);

/// Horizontal concatenation [A | B]; row counts must match.
Matrix hcat(const Matrix& a, const Matrix& b);

}  // namespace gana
