// Randomized kernel-equivalence harness (DESIGN.md §10).
//
// Every kernel registered for this build (linalg/kernels.hpp) must
// produce *bitwise identical* output to the Reference oracle on every
// shape -- including dimensions that exercise SIMD remainder lanes (odd
// columns), degenerate 1xN / Nx1 products, `*_into` buffers reused
// across shrinking and growing shapes, exact-zero skip semantics (±0.0
// sprinkled into the left operand, ReLU-like zero-heavy and all-zero
// rows, all-zero operands), row counts that leave a partial row block,
// outputs narrower than one vector, and Inf/NaN propagation. Comparison
// is bitwise over the raw doubles -- signed zeros and Inf signs count;
// NaNs compare as a class (payload/sign of a NaN surviving a multi-NaN
// accumulation is a codegen accident, see bitwise_equal) -- and the
// per-case seed is printed on failure so any case replays standalone.
#include <gtest/gtest.h>

#include <cstdint>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "linalg/dense.hpp"
#include "linalg/kernels.hpp"
#include "linalg/sparse.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gana {
namespace {

/// Restores the process-global kernel selections on scope exit, so a
/// failing case cannot leak a non-default kernel into later tests.
class KernelGuard {
 public:
  KernelGuard() : matmul_(matmul_kernel()), spmm_(spmm_kernel()) {}
  ~KernelGuard() {
    set_matmul_kernel(matmul_);
    set_spmm_kernel(spmm_);
  }
  KernelGuard(const KernelGuard&) = delete;
  KernelGuard& operator=(const KernelGuard&) = delete;

 private:
  MatmulKernel matmul_;
  SpmmKernel spmm_;
};

/// Bitwise comparison with one carve-out: two NaNs compare equal
/// regardless of payload or sign. When an already-NaN accumulator
/// absorbs a second, different NaN, IEEE lets the implementation pick
/// which one survives, x86 keeps the first instruction operand, and the
/// compiler commutes commutative adds at will -- so NaN *identity* in
/// multi-NaN chains is a codegen accident on both sides of the oracle
/// comparison (see the preamble of linalg/kernels_avx2.cpp). Everything
/// else -- signed zeros, Inf signs, where NaNs appear -- stays exact.
bool bitwise_equal(const Matrix& x, const Matrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double a = x.data()[i];
    const double b = y.data()[i];
    if (std::memcmp(&a, &b, sizeof(double)) == 0) continue;
    if (!(std::isnan(a) && std::isnan(b))) return false;
  }
  return true;
}

/// Dimension pool biased toward SIMD-awkward sizes: below one vector
/// width, one past a multiple of the width (remainder lanes on both the
/// 4-wide AVX2 and 2-wide NEON paths), and a few larger round sizes.
constexpr std::size_t kDims[] = {1, 2, 3, 4, 5, 7, 8, 9, 11, 13,
                                 16, 17, 24, 31, 32, 33, 47, 64};
constexpr std::size_t kDimCount = sizeof(kDims) / sizeof(kDims[0]);

/// How a left operand is filled. The reference matmul skips a(i,k) ==
/// 0.0 terms and every kernel must skip the exact same terms; the Simd
/// kernel compacts them out of each row before any product, so rows
/// that are mostly or entirely zero take paths of their own.
enum class LeftFill {
  Mixed,      ///< ~1/4 of entries exact ±0.0
  ZeroHeavy,  ///< >= 1/2 exact ±0.0 (ReLU-like), plus all-zero rows
  AllZero,    ///< every entry ±0.0
};

double signed_zero(Rng& rng) { return rng.chance(0.5) ? 0.0 : -0.0; }

/// Right operands stay dense.
void fill_left(Matrix& m, Rng& rng, LeftFill fill = LeftFill::Mixed) {
  switch (fill) {
    case LeftFill::Mixed:
      for (auto& v : m.data()) {
        v = rng.chance(0.25) ? signed_zero(rng) : rng.uniform(-2.0, 2.0);
      }
      break;
    case LeftFill::ZeroHeavy:
      for (std::size_t i = 0; i < m.rows(); ++i) {
        const bool zero_row = rng.chance(0.125);
        for (std::size_t k = 0; k < m.cols(); ++k) {
          m(i, k) = zero_row || rng.chance(0.6) ? signed_zero(rng)
                                                : rng.uniform(-2.0, 2.0);
        }
      }
      break;
    case LeftFill::AllZero:
      for (auto& v : m.data()) v = signed_zero(rng);
      break;
  }
}

void fill_right(Matrix& m, Rng& rng) {
  for (auto& v : m.data()) v = rng.uniform(-2.0, 2.0);
}

/// Overwrites a few entries with Inf/-Inf/NaN.
void inject_nonfinite(Matrix& m, Rng& rng) {
  constexpr double kSpecials[] = {
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  const std::size_t count = 1 + rng.index(3);
  for (std::size_t i = 0; i < count; ++i) {
    m.data()[rng.index(m.size())] = kSpecials[rng.index(3)];
  }
}

std::string case_label(std::uint64_t seed, std::size_t m, std::size_t k,
                       std::size_t n, const char* kernel) {
  std::ostringstream out;
  out << "seed=" << seed << " shape=" << m << "x" << k << "x" << n
      << " kernel=" << kernel << " (isa=" << simd_isa_name() << ")";
  return out.str();
}

/// Runs one matmul case against every registered kernel, reusing the
/// caller's output buffers so capacity-reuse paths are exercised too.
void check_matmul_case(std::uint64_t seed, std::size_t m, std::size_t k,
                       std::size_t n, bool nonfinite, Matrix& out_ref,
                       Matrix& out_alt, LeftFill fill = LeftFill::Mixed) {
  Rng rng(seed);
  Matrix a(m, k), b(k, n);
  fill_left(a, rng, fill);
  fill_right(b, rng);
  if (nonfinite) {
    inject_nonfinite(a, rng);
    inject_nonfinite(b, rng);
  }
  set_matmul_kernel(MatmulKernel::Reference);
  matmul_into(a, b, out_ref);
  for (const auto& info : registered_matmul_kernels()) {
    set_matmul_kernel(info.id);
    matmul_into(a, b, out_alt);
    ASSERT_TRUE(bitwise_equal(out_ref, out_alt))
        << case_label(seed, m, k, n, info.name)
        << " fill=" << static_cast<int>(fill) << " nonfinite=" << nonfinite;
  }
}

TEST(KernelEquivalence, RegistryHasSimdEntryAndReferenceFirst) {
  const auto& matmuls = registered_matmul_kernels();
  ASSERT_GE(matmuls.size(), 2u);
  EXPECT_EQ(matmuls.front().id, MatmulKernel::Reference);
  const auto& spmms = registered_spmm_kernels();
  ASSERT_GE(spmms.size(), 2u);
  EXPECT_EQ(spmms.front().id, SpmmKernel::Reference);
  const std::string isa = simd_isa_name();
  EXPECT_TRUE(isa == "avx2" || isa == "neon" || isa == "scalar") << isa;
}

TEST(KernelEquivalence, MatmulRandomShapesBitwiseEqual) {
  KernelGuard guard;
  // Output buffers persist across all cases: random shape order means
  // each case reuses capacity left by a larger case or grows past a
  // smaller one, which is exactly the `*_into` workspace contract.
  Matrix out_ref, out_alt;
  for (std::uint64_t c = 0; c < 140; ++c) {
    const std::uint64_t seed = 0x5eed0000 + c;
    Rng shape_rng(~seed);
    const std::size_t m = kDims[shape_rng.index(kDimCount)];
    const std::size_t k = kDims[shape_rng.index(kDimCount)];
    const std::size_t n = kDims[shape_rng.index(kDimCount)];
    check_matmul_case(seed, m, k, n, /*nonfinite=*/false, out_ref, out_alt);
    if (HasFatalFailure()) return;
    check_matmul_case(~seed, m, k, n, /*nonfinite=*/false, out_ref, out_alt,
                      LeftFill::ZeroHeavy);
    if (HasFatalFailure()) return;
  }
}

TEST(KernelEquivalence, MatmulDegenerateShapes) {
  KernelGuard guard;
  Matrix out_ref, out_alt;
  std::uint64_t seed = 0xde6e7e4a7e;
  for (std::size_t d : kDims) {
    // 1xN row-vector, Nx1 column-vector, and K=1 outer-product shapes.
    check_matmul_case(++seed, 1, d, 5, false, out_ref, out_alt);
    if (HasFatalFailure()) return;
    check_matmul_case(++seed, 5, d, 1, false, out_ref, out_alt);
    if (HasFatalFailure()) return;
    check_matmul_case(++seed, d, 1, d, false, out_ref, out_alt);
    if (HasFatalFailure()) return;
    // An all-zero left operand: every output stays the reference's +0.0.
    check_matmul_case(++seed, d, d, d, false, out_ref, out_alt,
                      LeftFill::AllZero);
    if (HasFatalFailure()) return;
  }
}

TEST(KernelEquivalence, MatmulChebConvShapes) {
  KernelGuard guard;
  Matrix out_ref, out_alt;
  // Tall-thin shapes the ChebConv layers actually feed the kernel: a few
  // tens of graph vertices (m) against K*C_in stacked basis columns (k)
  // and hidden widths (n) that leave 8-wide panel remainders and
  // sub-tile row counts -- the cases the B-panel packing path must get
  // bit-exact, including its packed single-remainder-row loop (m % 4)
  // and the unpacked column tail (n % 8).
  const std::size_t seq[][3] = {{15, 256, 64}, {13, 256, 7},  {15, 512, 2},
                                {3, 256, 64},  {15, 256, 63}, {66, 144, 32},
                                {1, 256, 9},   {15, 8, 8},    {17, 256, 65}};
  std::uint64_t seed = 0xc4ebc0;
  for (const auto& s : seq) {
    check_matmul_case(++seed, s[0], s[1], s[2], false, out_ref, out_alt);
    if (HasFatalFailure()) return;
    check_matmul_case(++seed, s[0], s[1], s[2], true, out_ref, out_alt);
    if (HasFatalFailure()) return;
  }
  // The Simd kernel compresses rows 32 at a time, so row counts one past
  // a block (33, 65) and the phased array's 876 leave a partial block;
  // 876x64x512 and 876x512x6 are that design's dense-layer products.
  // n = 1..3 at k = 512 are the classifier's outputs, narrower than one
  // vector. Each runs with ReLU-like zero-heavy rows (some all zero),
  // an all-zero operand, and the mixed fill, finite and non-finite.
  const std::size_t wide[][3] = {{33, 144, 32}, {65, 256, 64}, {876, 64, 512},
                                 {876, 512, 6}, {64, 512, 1},  {65, 512, 2},
                                 {876, 512, 3}, {97, 512, 1},  {64, 512, 3}};
  for (const auto& s : wide) {
    for (const LeftFill fill :
         {LeftFill::ZeroHeavy, LeftFill::AllZero, LeftFill::Mixed}) {
      for (const bool nonfinite : {false, true}) {
        check_matmul_case(++seed, s[0], s[1], s[2], nonfinite, out_ref,
                          out_alt, fill);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(KernelEquivalence, MatmulBufferShrinksAndRegrows) {
  KernelGuard guard;
  Matrix out_ref, out_alt;
  // Big -> small -> big: the small case runs inside oversized capacity
  // (stale tail values must not leak into the comparison window), the
  // regrow case forces reallocation mid-sequence.
  const std::size_t seq[][3] = {{33, 47, 64}, {2, 3, 2}, {1, 1, 1},
                                {64, 33, 47}, {5, 4, 3}, {47, 64, 33}};
  std::uint64_t seed = 0xb0ff;
  for (const auto& s : seq) {
    check_matmul_case(++seed, s[0], s[1], s[2], false, out_ref, out_alt);
    if (HasFatalFailure()) return;
  }
}

TEST(KernelEquivalence, MatmulNonFinitePassThrough) {
  KernelGuard guard;
  Matrix out_ref, out_alt;
  for (std::uint64_t c = 0; c < 30; ++c) {
    const std::uint64_t seed = 0x1f1f00 + c;
    Rng shape_rng(~seed);
    const std::size_t m = kDims[shape_rng.index(kDimCount)];
    const std::size_t k = kDims[shape_rng.index(kDimCount)];
    const std::size_t n = kDims[shape_rng.index(kDimCount)];
    check_matmul_case(seed, m, k, n, /*nonfinite=*/true, out_ref, out_alt);
    if (HasFatalFailure()) return;
    check_matmul_case(~seed, m, k, n, /*nonfinite=*/true, out_ref, out_alt,
                      LeftFill::ZeroHeavy);
    if (HasFatalFailure()) return;
  }
}

/// Random CSR matrix; ~density fraction of entries present, a few exact
/// zeros kept as stored entries (spmm does not zero-skip -- stored zeros
/// must be multiplied, and every kernel must agree on that too).
SparseMatrix random_sparse(std::size_t rows, std::size_t cols, double density,
                           Rng& rng) {
  std::vector<Triplet> t;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (!rng.chance(density)) continue;
      const double v = rng.chance(0.1) ? 0.0 : rng.uniform(-2.0, 2.0);
      t.push_back({r, c, v});
    }
  }
  return SparseMatrix::from_triplets(rows, cols, std::move(t));
}

void check_spmm_case(std::uint64_t seed, std::size_t rows, std::size_t inner,
                     std::size_t cols, bool nonfinite, Matrix& out_ref,
                     Matrix& out_alt) {
  Rng rng(seed);
  const SparseMatrix a = random_sparse(rows, inner, 0.3, rng);
  Matrix x(inner, cols);
  fill_right(x, rng);
  if (nonfinite) inject_nonfinite(x, rng);
  set_spmm_kernel(SpmmKernel::Reference);
  a.multiply_into(x, out_ref);
  for (const auto& info : registered_spmm_kernels()) {
    set_spmm_kernel(info.id);
    a.multiply_into(x, out_alt);
    ASSERT_TRUE(bitwise_equal(out_ref, out_alt))
        << case_label(seed, rows, inner, cols, info.name);
  }
}

TEST(KernelEquivalence, SpmmRandomShapesBitwiseEqual) {
  KernelGuard guard;
  Matrix out_ref, out_alt;
  for (std::uint64_t c = 0; c < 60; ++c) {
    const std::uint64_t seed = 0x5b3b00 + c;
    Rng shape_rng(~seed);
    const std::size_t rows = kDims[shape_rng.index(kDimCount)];
    const std::size_t inner = kDims[shape_rng.index(kDimCount)];
    const std::size_t cols = kDims[shape_rng.index(kDimCount)];
    check_spmm_case(seed, rows, inner, cols, /*nonfinite=*/false, out_ref,
                    out_alt);
    if (HasFatalFailure()) return;
  }
}

TEST(KernelEquivalence, SpmmDegenerateAndNonFinite) {
  KernelGuard guard;
  Matrix out_ref, out_alt;
  std::uint64_t seed = 0xab5e;
  for (std::size_t d : kDims) {
    check_spmm_case(++seed, 1, d, 3, false, out_ref, out_alt);
    if (HasFatalFailure()) return;
    check_spmm_case(++seed, d, d, 1, false, out_ref, out_alt);
    if (HasFatalFailure()) return;
  }
  for (std::uint64_t c = 0; c < 20; ++c) {
    check_spmm_case(0xf00d00 + c, 9, 17, 13, /*nonfinite=*/true, out_ref,
                    out_alt);
    if (HasFatalFailure()) return;
  }
}

/// Random CSR matrix like random_sparse, with Inf/NaN among the stored
/// values as well when `nonfinite`.
SparseMatrix step_operator(std::size_t n, bool nonfinite, Rng& rng) {
  SparseMatrix a = random_sparse(n, n, 0.3, rng);
  if (nonfinite && a.nnz() > 0) {
    a.values()[rng.index(a.nnz())] = std::numeric_limits<double>::infinity();
    a.values()[rng.index(a.nnz())] = std::numeric_limits<double>::quiet_NaN();
  }
  return a;
}

/// Column slice [first, first + width) of z as a matrix of its own.
Matrix slice(const Matrix& z, std::size_t first, std::size_t width) {
  Matrix out(z.rows(), width);
  for (std::size_t r = 0; r < z.rows(); ++r) {
    for (std::size_t j = 0; j < width; ++j) out(r, j) = z(r, first + j);
  }
  return out;
}

/// One Chebyshev step in place on a K-slice stack, checked against the
/// Reference sequence on separate matrices (multiply_into, then
/// `*= 2.0`, then `-= T_{k-2}`) for every registered spmm kernel. Every
/// slice but the destination must come back untouched.
void check_step_case(std::uint64_t seed, std::size_t n, std::size_t width,
                     bool recurrence, bool nonfinite) {
  Rng rng(seed);
  const SparseMatrix a = step_operator(n, nonfinite, rng);
  constexpr std::size_t kSlices = 4;
  Matrix z(n, kSlices * width);
  fill_right(z, rng);
  if (nonfinite) inject_nonfinite(z, rng);
  const std::size_t src = 2 * width, dst = 3 * width;
  const std::size_t prev = recurrence ? width : SparseMatrix::kNoSlice;

  set_spmm_kernel(SpmmKernel::Reference);
  Matrix expect;
  a.multiply_into(slice(z, src, width), expect);
  if (recurrence) {
    expect *= 2.0;
    expect -= slice(z, prev, width);
  }
  for (const auto& info : registered_spmm_kernels()) {
    set_spmm_kernel(info.id);
    Matrix got = z;
    a.chebyshev_step_into(got, width, src, dst, prev);
    const std::string label = case_label(seed, n, n, width, info.name) +
                              " recurrence=" + std::to_string(recurrence) +
                              " nonfinite=" + std::to_string(nonfinite);
    ASSERT_TRUE(bitwise_equal(slice(got, dst, width), expect)) << label;
    ASSERT_TRUE(bitwise_equal(slice(got, 0, dst), slice(z, 0, dst)))
        << label << " (other slices changed)";
  }
}

TEST(KernelEquivalence, ChebyshevStepMatchesReferenceSequence) {
  KernelGuard guard;
  // Widths below, at and past one vector and one 32-column panel; 18
  // is the feature width of the first ChebConv.
  std::uint64_t seed = 0xc4eb57e9;
  for (const std::size_t width : {1, 3, 4, 18, 32, 33}) {
    for (const std::size_t n : {1, 7, 40}) {
      for (const bool recurrence : {false, true}) {
        for (const bool nonfinite : {false, true}) {
          check_step_case(++seed, n, width, recurrence, nonfinite);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(KernelEquivalence, ChebyshevStepSplitOverComputePool) {
  // Big enough for the row split (nnz x width past the spmm threshold).
  KernelGuard guard;
  const std::size_t saved = compute_threads();
  set_compute_threads(3);
  check_step_case(0x57e9b16, 200, 33, /*recurrence=*/true,
                  /*nonfinite=*/false);
  set_compute_threads(saved);
}

TEST(KernelEquivalence, MatmulBlockMatchesWholeProduct) {
  // One packed B shared by blocks of any row count (the inference tail
  // runs 32-row blocks plus a remainder) equals the whole product under
  // the kernel it was packed for.
  KernelGuard guard;
  Rng rng(0xb10c);
  Matrix a(75, 66), b(66, 37);
  fill_left(a, rng, LeftFill::ZeroHeavy);
  fill_right(b, rng);
  for (const auto& info : registered_matmul_kernels()) {
    set_matmul_kernel(info.id);
    Matrix whole;
    matmul_into(a, b, whole);
    PackedMatrix packed;
    packed.pack(b);
    Matrix blocks(a.rows(), b.cols(), -1.0);  // dirty: must be overwritten
    for (std::size_t r0 = 0; r0 < a.rows(); r0 += 32) {
      const std::size_t rows = std::min<std::size_t>(32, a.rows() - r0);
      matmul_block(a.row_ptr(r0), rows, packed, blocks.row_ptr(r0));
    }
    EXPECT_TRUE(bitwise_equal(whole, blocks)) << info.name;
  }
}

TEST(KernelEquivalence, AllocatingEntryPointsMatchInto) {
  // matmul / SparseMatrix::multiply go through the same kernel dispatch
  // as their `*_into` forms; spot-check the allocating wrappers once.
  KernelGuard guard;
  Rng rng(0xa110c);
  Matrix a(9, 17);
  Matrix b(17, 33);
  fill_left(a, rng);
  fill_right(b, rng);
  const Matrix via_alloc = matmul(a, b);
  Matrix via_into;
  matmul_into(a, b, via_into);
  EXPECT_TRUE(bitwise_equal(via_alloc, via_into));

  const SparseMatrix s = random_sparse(9, 17, 0.3, rng);
  Matrix x(17, 7);
  fill_right(x, rng);
  const Matrix sy = s.multiply(x);
  Matrix sy_into;
  s.multiply_into(x, sy_into);
  EXPECT_TRUE(bitwise_equal(sy, sy_into));
}

}  // namespace
}  // namespace gana
