// AVX2 matmul/spmm kernels (x86-64 builds only).
//
// This translation unit is the only one compiled with -mavx2; CMake
// additionally forces -mno-fma -ffp-contract=off here so the scalar
// tail loops round exactly like the reference kernel (one multiply,
// one add per term -- never a fused multiply-add). The vector bodies
// use _mm256_mul_pd + _mm256_add_pd for the same reason.
//
// Bit-identity with the Reference kernel holds per output element:
// lanes only parallelize the j (column) dimension, which is embarrassed
// -- each c(i,j) (resp. y(r,j)) still accumulates its terms in strictly
// increasing k order, one rounded mul and one rounded add at a time,
// and a(i,k) == 0.0 terms are skipped with exactly the reference's
// comparison. Signed zeros and Inf/NaN therefore propagate identically
// (pinned by tests/kernel_equivalence_test.cpp) -- with one carve-out:
// when an accumulator that is already NaN absorbs a second, different
// NaN (e.g. an Inf-Inf indefinite meeting a propagated input NaN), IEEE
// leaves *which* NaN survives to the implementation, x86 picks the
// first instruction operand, and the compiler is free to commute the
// operands of a commutative + at will (it lowers these intrinsics to
// plain vector +). NaN identity in multi-NaN chains is therefore a
// codegen accident on both sides of the comparison, and the equivalence
// tests compare NaNs as a class instead of by payload. The pipeline
// itself never exercises this: require_finite rejects non-finite
// features and probabilities on both sides of every matmul.
#include "linalg/kernels.hpp"

#if defined(GANA_SIMD_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace gana::linalg {

namespace {

// Row-compressed layout. A GCN's left operands are ReLU outputs and
// Chebyshev stacks of them: between 10% and 70% of their entries are
// exact zeros, scattered at random. A kernel that tests a(i,k) != 0.0
// inside its k loop mispredicts that branch about half the time, and
// the mispredictions, not the flops, then set its speed. This kernel
// instead compacts each row's nonzero (k, a(i,k)) pairs once, with no
// branch, and accumulates every column panel over that list. A row
// with half its entries zero then costs half the flops of a dense one.
//
// Scratch stays bounded: rows are compressed kRowBlock at a time, so a
// thread holds kRowBlock * k pairs, never a compressed copy of all of
// A. The packed copy of B belongs to the caller (PackedMatrix).
constexpr std::size_t kRowBlock = 32;
/// At most eight 4-double vectors per panel: eight independent add
/// chains per row, which is what the add latency needs without FMA.
constexpr std::size_t kMaxPanelVecs = 8;
/// A packed panel (k rows of its width) should stay in L1 while every
/// row of a block streams it.
constexpr std::size_t kPanelBytes = 32 * 1024;

/// Panel width in columns for a k-deep product: 32, halved while the
/// panel would overflow kPanelBytes, down to 8. Narrower panels
/// interleave rows (accumulate_block) to keep eight chains in flight.
std::size_t panel_width(std::size_t kk) {
  std::size_t width = 4 * kMaxPanelVecs;
  while (width > 8 && kk * width * sizeof(double) > kPanelBytes) width /= 2;
  return width;
}

/// One compressed row: its nonzero entries in increasing k.
struct RowList {
  const std::size_t* k;
  const double* v;
  std::size_t n;
};

/// Per 4-bit lane mask: the 32-bit lane indices that move the selected
/// 64-bit lanes to the front in order (for _mm256_permutevar8x32), and
/// how many lanes are selected.
struct PackTable {
  alignas(32) std::int32_t lanes[16][8];
  std::size_t count[16];
  constexpr PackTable() : lanes(), count() {
    for (int mask = 0; mask < 16; ++mask) {
      std::size_t out = 0;
      for (int lane = 0; lane < 4; ++lane) {
        if ((mask >> lane) & 1) {
          lanes[mask][2 * out] = 2 * lane;
          lanes[mask][2 * out + 1] = 2 * lane + 1;
          ++out;
        }
      }
      count[mask] = out;
    }
  }
};
constexpr PackTable kPack;

/// Writes the nonzero entries of `a[0..kk)` to (ks, vs), keeping their
/// order, and returns how many there are; both outputs need kk slots.
/// Four entries at a time: compare, then left-pack the nonzero
/// lanes with one permute and store all four, advancing the cursor by
/// the nonzero count -- there is no branch on the data. The test is the
/// reference's `!= 0.0`: -0.0 is skipped, NaN kept (unordered compare).
std::size_t compress_row(const double* a, std::size_t kk, std::size_t* ks,
                         double* vs) {
  std::size_t count = 0;
  std::size_t k = 0;
  __m256i idx = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i step = _mm256_set1_epi64x(4);
  for (; k + 4 <= kk; k += 4) {
    const __m256d v = _mm256_loadu_pd(a + k);
    const int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_NEQ_UQ));
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kPack.lanes[mask]));
    const __m256i packed =
        _mm256_permutevar8x32_epi32(_mm256_castpd_si256(v), perm);
    _mm256_storeu_pd(vs + count, _mm256_castsi256_pd(packed));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(ks + count),
                        _mm256_permutevar8x32_epi32(idx, perm));
    count += kPack.count[mask];
    idx = _mm256_add_epi64(idx, step);
  }
  for (; k < kk; ++k) {
    const double v = a[k];
    ks[count] = k;
    vs[count] = v;
    count += static_cast<std::size_t>(v != 0.0);
  }
  return count;
}

/// Lane mask for the first `lanes` (1..4) doubles of a vector.
__m256i lane_mask(std::size_t lanes) {
  alignas(32) static constexpr std::int64_t kMasks[5][4] = {
      {0, 0, 0, 0},    {-1, 0, 0, 0},   {-1, -1, 0, 0},
      {-1, -1, -1, 0}, {-1, -1, -1, -1}};
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(kMasks[lanes]));
}

/// Accumulates R rows' products with one packed panel of NV vectors and
/// stores the first `width` columns of each. Every accumulator starts
/// at +0.0, where the Reference kernel starts each C row, and takes its
/// row's terms in list order (increasing k), one rounded multiply and
/// one rounded add each, so each element sees the Reference kernel's
/// exact operation sequence. The R rows run in lockstep over their
/// common prefix only to give the core R * NV independent add chains
/// when the panel is narrow; each row's tail then runs alone.
template <int R, int NV>
void accumulate_rows(const RowList* rows, const double* panel,
                     double* const* c, std::size_t width) {
  __m256d s[R][NV];
  for (int r = 0; r < R; ++r) {
    for (int q = 0; q < NV; ++q) s[r][q] = _mm256_setzero_pd();
  }
  // Term t of row r: s[r] += a(i, k_t) * B(k_t, panel columns).
  const auto term = [&](int r, std::size_t t) {
    const __m256d v = _mm256_set1_pd(rows[r].v[t]);
    const double* bk = panel + rows[r].k[t] * (4 * NV);
    for (int q = 0; q < NV; ++q) {
      s[r][q] = _mm256_add_pd(s[r][q],
                              _mm256_mul_pd(v, _mm256_loadu_pd(bk + 4 * q)));
    }
  };
  std::size_t common = rows[0].n;
  for (int r = 1; r < R; ++r) common = std::min(common, rows[r].n);
  for (std::size_t t = 0; t < common; ++t) {
    for (int r = 0; r < R; ++r) term(r, t);
  }
  for (int r = 0; r < R; ++r) {
    for (std::size_t t = common; t < rows[r].n; ++t) term(r, t);
  }
  // Columns past `width` are padding lanes: computed, never stored.
  const std::size_t full = width / 4;
  const __m256i tail = lane_mask(width % 4);
  for (int r = 0; r < R; ++r) {
    for (std::size_t q = 0; q < full; ++q) {
      _mm256_storeu_pd(c[r] + 4 * q, s[r][q]);
    }
    if (full < static_cast<std::size_t>(NV)) {
      _mm256_maskstore_pd(c[r] + 4 * full, tail, s[r][full]);
    }
  }
}

/// All rows of a block against one panel of NV vectors. Narrow panels
/// interleave several rows so the adds still overlap.
template <int NV>
void accumulate_block(const RowList* rows, std::size_t count,
                      const double* panel, double* const* c,
                      std::size_t width) {
  constexpr int kRows = NV <= 2 ? 4 : (NV <= 4 ? 2 : 1);
  std::size_t r = 0;
  for (; r + kRows <= count; r += kRows) {
    accumulate_rows<kRows, NV>(rows + r, panel, c + r, width);
  }
  for (; r < count; ++r) accumulate_rows<1, NV>(rows + r, panel, c + r, width);
}

using BlockFn = void (*)(const RowList*, std::size_t, const double*,
                         double* const*, std::size_t);
constexpr BlockFn kBlockFns[kMaxPanelVecs] = {
    accumulate_block<1>, accumulate_block<2>, accumulate_block<3>,
    accumulate_block<4>, accumulate_block<5>, accumulate_block<6>,
    accumulate_block<7>, accumulate_block<8>};

/// Per-thread compression scratch, reused across calls.
struct Scratch {
  std::vector<std::size_t> ks;  ///< kRowBlock rows of k indices
  std::vector<double> vs;       ///< kRowBlock rows of values
};

}  // namespace

// B in panel-major order: each panel holds its columns of every row of
// B contiguously, its width rounded up to whole vectors and the extra
// lanes zeroed. Streaming one panel touches consecutive memory, where
// B's own rows (n doubles apart) would alias the same cache sets at
// power-of-two n. Every panel but the last is a whole number of
// vectors wide, so panel p starts at k * j0.
std::size_t packed_size_avx2(std::size_t kk, std::size_t n) {
  return kk * ((n + 3) / 4 * 4);
}

void pack_panels_avx2(const Matrix& b, double* packed) {
  const std::size_t kk = b.rows();
  const std::size_t n = b.cols();
  const std::size_t panel = panel_width(kk);
  for (std::size_t j0 = 0; j0 < n; j0 += panel) {
    const std::size_t width = std::min(panel, n - j0);
    const std::size_t stride = (width + 3) / 4 * 4;
    double* dst = packed + kk * j0;
    for (std::size_t k = 0; k < kk; ++k, dst += stride) {
      const double* src = b.row_ptr(k) + j0;
      std::copy(src, src + width, dst);
      std::fill(dst + width, dst + stride, 0.0);
    }
  }
}

void matmul_block_avx2(const double* a, std::size_t m, std::size_t kk,
                       const double* packed, std::size_t n, double* c) {
  if (m == 0 || n == 0) return;
  thread_local Scratch s;
  const std::size_t panel = panel_width(kk);
  const std::size_t panels = (n + panel - 1) / panel;
  s.ks.resize(kRowBlock * kk);
  s.vs.resize(kRowBlock * kk);
  RowList rows[kRowBlock] = {};
  double* crows[kRowBlock] = {};
  for (std::size_t i0 = 0; i0 < m; i0 += kRowBlock) {
    const std::size_t count = std::min(kRowBlock, m - i0);
    for (std::size_t r = 0; r < count; ++r) {
      std::size_t* ks = s.ks.data() + r * kk;
      double* vs = s.vs.data() + r * kk;
      rows[r] = {ks, vs, compress_row(a + (i0 + r) * kk, kk, ks, vs)};
    }
    for (std::size_t p = 0; p < panels; ++p) {
      const std::size_t j0 = p * panel;
      const std::size_t width = std::min(panel, n - j0);
      for (std::size_t r = 0; r < count; ++r) {
        crows[r] = c + (i0 + r) * n + j0;
      }
      kBlockFns[(width + 3) / 4 - 1](rows, count, packed + kk * j0, crows,
                                     width);
    }
  }
}

void spmm_rows_avx2(const std::size_t* row_ptr, const std::size_t* col_idx,
                    const double* values, std::size_t begin, std::size_t end,
                    const Matrix& x, Matrix& y) {
  const std::size_t xc = x.cols();
  for (std::size_t r = begin; r < end; ++r) {
    double* yrow = y.row_ptr(r);
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      // No zero-skip here: the reference spmm loop processes every
      // stored value, including explicit zeros.
      const double v = values[k];
      const double* xrow = x.row_ptr(col_idx[k]);
      const __m256d vv = _mm256_set1_pd(v);
      std::size_t j = 0;
      for (; j + 4 <= xc; j += 4) {
        const __m256d yv = _mm256_loadu_pd(yrow + j);
        const __m256d xv = _mm256_loadu_pd(xrow + j);
        _mm256_storeu_pd(yrow + j, _mm256_add_pd(yv, _mm256_mul_pd(vv, xv)));
      }
      for (; j < xc; ++j) yrow[j] += v * xrow[j];
    }
  }
}

namespace {

/// One row of the Chebyshev step over one column panel of NV vectors
/// (`width` in (4 * (NV - 1), 4 * NV]). The accumulators start at +0.0
/// and take the row's stored entries in order, one rounded multiply and
/// one rounded add each, as the reference spmm does into its zeroed
/// output; then `* 2.0` and `- prev`, one rounding each. The last
/// vector's lanes past `width` load as zero and are never stored: they
/// belong to the neighbouring slice, or lie past the matrix.
template <int NV>
void chebyshev_panel(const std::size_t* col_idx, const double* values,
                     std::size_t k0, std::size_t k1, const double* x,
                     const double* prev, double* y, std::size_t width,
                     std::size_t stride) {
  constexpr int kLast = NV - 1;
  const __m256i tail = lane_mask(width - 4 * kLast);
  __m256d s[NV];
  for (int q = 0; q < NV; ++q) s[q] = _mm256_setzero_pd();
  for (std::size_t k = k0; k < k1; ++k) {
    const __m256d v = _mm256_set1_pd(values[k]);
    const double* xr = x + col_idx[k] * stride;
    for (int q = 0; q < kLast; ++q) {
      s[q] = _mm256_add_pd(s[q], _mm256_mul_pd(v, _mm256_loadu_pd(xr + 4 * q)));
    }
    s[kLast] = _mm256_add_pd(
        s[kLast], _mm256_mul_pd(v, _mm256_maskload_pd(xr + 4 * kLast, tail)));
  }
  if (prev != nullptr) {
    const __m256d two = _mm256_set1_pd(2.0);
    for (int q = 0; q < kLast; ++q) {
      s[q] = _mm256_sub_pd(_mm256_mul_pd(s[q], two),
                           _mm256_loadu_pd(prev + 4 * q));
    }
    s[kLast] = _mm256_sub_pd(_mm256_mul_pd(s[kLast], two),
                             _mm256_maskload_pd(prev + 4 * kLast, tail));
  }
  for (int q = 0; q < kLast; ++q) _mm256_storeu_pd(y + 4 * q, s[q]);
  _mm256_maskstore_pd(y + 4 * kLast, tail, s[kLast]);
}

using StepFn = void (*)(const std::size_t*, const double*, std::size_t,
                        std::size_t, const double*, const double*, double*,
                        std::size_t, std::size_t);
constexpr StepFn kStepFns[kMaxPanelVecs] = {
    chebyshev_panel<1>, chebyshev_panel<2>, chebyshev_panel<3>,
    chebyshev_panel<4>, chebyshev_panel<5>, chebyshev_panel<6>,
    chebyshev_panel<7>, chebyshev_panel<8>};

}  // namespace

void chebyshev_rows_avx2(const std::size_t* row_ptr,
                         const std::size_t* col_idx, const double* values,
                         std::size_t begin, std::size_t end, const double* x,
                         const double* prev, double* y, std::size_t width,
                         std::size_t stride) {
  // A row's accumulators stay in registers across all its stored
  // entries, up to 32 columns (eight vectors) at a time.
  constexpr std::size_t kPanel = 4 * kMaxPanelVecs;
  for (std::size_t r = begin; r < end; ++r) {
    const std::size_t offset = r * stride;
    for (std::size_t j0 = 0; j0 < width; j0 += kPanel) {
      const std::size_t w = std::min(kPanel, width - j0);
      kStepFns[(w + 3) / 4 - 1](
          col_idx, values, row_ptr[r], row_ptr[r + 1], x + j0,
          prev != nullptr ? prev + offset + j0 : nullptr, y + offset + j0, w,
          stride);
    }
  }
}

}  // namespace gana::linalg

#endif  // GANA_SIMD_AVX2
