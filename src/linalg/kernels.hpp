// Kernel registry and ISA-specific entry points for the dense/sparse
// product kernels.
//
// Dispatch model (DESIGN.md §10): the instruction set a kernel may use
// is decided at *compile time* -- CMake compiles `kernels_avx2.cpp`
// with -mavx2 on x86-64 hosts (and defines GANA_SIMD_AVX2), compiles
// `kernels_neon.cpp` into real code on aarch64 hosts (GANA_SIMD_NEON),
// and otherwise the `Simd` kernel id resolves to the Reference loop.
// There is no cpuid probing at run time: the binary targets the
// build host, and every kernel id stays runtime-selectable through
// `set_matmul_kernel` / `set_spmm_kernel` so tests and benches can pit
// any kernel against the Reference oracle.
//
// Bit-identity contract: every registered kernel performs, per output
// element, the exact same sequence of IEEE mul/add operations as the
// Reference kernel (accumulation over strictly increasing k, one
// rounded multiply and one rounded add per term, no FMA contraction,
// no reassociation across lanes), so outputs are bitwise equal --
// including signed zeros and Inf/NaN propagation. Pinned for every
// registered kernel by tests/kernel_equivalence_test.cpp.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/dense.hpp"
#include "linalg/sparse.hpp"

namespace gana {

/// One registered dense-product kernel; `name` identifies the ISA the
/// Simd id resolved to at compile time ("simd-avx2", "simd-neon",
/// "simd-scalar").
struct MatmulKernelInfo {
  MatmulKernel id;
  const char* name;
};

/// One registered sparse-times-dense kernel.
struct SpmmKernelInfo {
  SpmmKernel id;
  const char* name;
};

/// Every kernel selectable on this build, Reference first. Tests
/// iterate this list so a build host without AVX2/NEON still verifies
/// everything it can actually run.
[[nodiscard]] const std::vector<MatmulKernelInfo>& registered_matmul_kernels();
[[nodiscard]] const std::vector<SpmmKernelInfo>& registered_spmm_kernels();

/// The ISA the Simd kernel ids compiled down to: "avx2", "neon", or
/// "scalar" (fallback build).
[[nodiscard]] const char* simd_isa_name();

namespace linalg {

#if defined(GANA_SIMD_AVX2)
/// AVX2 matmul kernel, in two parts. B is packed once into column
/// panels (`pack_panels_avx2`, `packed_size_avx2` doubles); then any
/// number of row blocks multiply against it (`matmul_block_avx2`, safe
/// to call concurrently on one packed B). The block product is
/// row-compressed: each group of rows has its nonzero (k, a(i,k)) pairs
/// compacted without branches, then accumulates every panel over them,
/// four doubles per vector with separate mul/add (never FMA); outputs
/// narrower than a vector are stored through a lane mask.
[[nodiscard]] std::size_t packed_size_avx2(std::size_t k, std::size_t n);
void pack_panels_avx2(const Matrix& b, double* packed);
/// C = A * B for `m` contiguous rows of A (m x k) into `m` contiguous
/// rows of C (m x n), every element overwritten.
void matmul_block_avx2(const double* a, std::size_t m, std::size_t k,
                       const double* packed, std::size_t n, double* c);

/// AVX2 spmm row-range kernel over raw CSR arrays; accumulation order
/// per output row matches the reference loop (strictly increasing k).
void spmm_rows_avx2(const std::size_t* row_ptr, const std::size_t* col_idx,
                    const double* values, std::size_t begin, std::size_t end,
                    const Matrix& x, Matrix& y);

/// AVX2 row range of SparseMatrix::chebyshev_step_into: x, prev and y
/// point at row 0 of `width`-column slices of one row-major matrix with
/// row stride `stride`; y(r) = (A x)(r), then `* 2.0 - prev(r)` unless
/// prev is null. Same per-element sequence as the reference loop.
void chebyshev_rows_avx2(const std::size_t* row_ptr,
                         const std::size_t* col_idx, const double* values,
                         std::size_t begin, std::size_t end, const double* x,
                         const double* prev, double* y, std::size_t width,
                         std::size_t stride);
#endif

#if defined(GANA_SIMD_NEON)
/// NEON (aarch64) counterparts of the AVX2 matmul and spmm kernels;
/// two doubles per lane, separate vmul/vadd (never vfma). The matmul
/// accumulates into a zeroed C and reads B in place, so matmul_block
/// reaches it through a thin adapter; the Chebyshev step has no NEON
/// kernel and runs the reference loop.
void matmul_rows_neon(const Matrix& a, const Matrix& b, Matrix& c);
void spmm_rows_neon(const std::size_t* row_ptr, const std::size_t* col_idx,
                    const double* values, std::size_t begin, std::size_t end,
                    const Matrix& x, Matrix& y);
#endif

}  // namespace linalg
}  // namespace gana
