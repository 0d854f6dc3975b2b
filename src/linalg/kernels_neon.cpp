// NEON matmul/spmm kernels (aarch64 builds only).
//
// The same per-element contract as kernels_avx2.cpp (k order, zero
// skips, separate multiply and add), with 2-double lanes. CMake forces
// -ffp-contract=off on this translation unit (and on the scalar kernel
// units) because aarch64 has baseline FMA: without it the compiler
// would contract the scalar tails' mul+add into fmadd and break bit
// identity with the separate vmulq/vaddq vector bodies and with the
// x86 builds. vfmaq_f64 is deliberately never used.
#include "linalg/kernels.hpp"

#if defined(GANA_SIMD_NEON)

#include <arm_neon.h>

namespace gana::linalg {

namespace {

inline void axpy_row_neon(double* crow, const double* brow, double aik,
                          std::size_t n) {
  if (aik == 0.0) return;
  const float64x2_t va = vdupq_n_f64(aik);
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const float64x2_t c = vld1q_f64(crow + j);
    const float64x2_t b = vld1q_f64(brow + j);
    vst1q_f64(crow + j, vaddq_f64(c, vmulq_f64(va, b)));
  }
  for (; j < n; ++j) crow[j] += aik * brow[j];
}

}  // namespace

void matmul_rows_neon(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t kk = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_ptr(i);
    double* crow = c.row_ptr(i);
    std::size_t k = 0;
    for (; k + 4 <= kk; k += 4) {
      const double a0 = arow[k], a1 = arow[k + 1];
      const double a2 = arow[k + 2], a3 = arow[k + 3];
      if (a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0) {
        const double* b0 = b.row_ptr(k);
        const double* b1 = b.row_ptr(k + 1);
        const double* b2 = b.row_ptr(k + 2);
        const double* b3 = b.row_ptr(k + 3);
        const float64x2_t va0 = vdupq_n_f64(a0);
        const float64x2_t va1 = vdupq_n_f64(a1);
        const float64x2_t va2 = vdupq_n_f64(a2);
        const float64x2_t va3 = vdupq_n_f64(a3);
        std::size_t j = 0;
        for (; j + 2 <= n; j += 2) {
          float64x2_t t = vld1q_f64(crow + j);
          t = vaddq_f64(t, vmulq_f64(va0, vld1q_f64(b0 + j)));
          t = vaddq_f64(t, vmulq_f64(va1, vld1q_f64(b1 + j)));
          t = vaddq_f64(t, vmulq_f64(va2, vld1q_f64(b2 + j)));
          t = vaddq_f64(t, vmulq_f64(va3, vld1q_f64(b3 + j)));
          vst1q_f64(crow + j, t);
        }
        for (; j < n; ++j) {
          double t = crow[j];
          t += a0 * b0[j];
          t += a1 * b1[j];
          t += a2 * b2[j];
          t += a3 * b3[j];
          crow[j] = t;
        }
        continue;
      }
      for (std::size_t q = k; q < k + 4; ++q) {
        axpy_row_neon(crow, b.row_ptr(q), arow[q], n);
      }
    }
    for (; k < kk; ++k) {
      axpy_row_neon(crow, b.row_ptr(k), arow[k], n);
    }
  }
}

void spmm_rows_neon(const std::size_t* row_ptr, const std::size_t* col_idx,
                    const double* values, std::size_t begin, std::size_t end,
                    const Matrix& x, Matrix& y) {
  const std::size_t xc = x.cols();
  for (std::size_t r = begin; r < end; ++r) {
    double* yrow = y.row_ptr(r);
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const double v = values[k];
      const double* xrow = x.row_ptr(col_idx[k]);
      const float64x2_t vv = vdupq_n_f64(v);
      std::size_t j = 0;
      for (; j + 2 <= xc; j += 2) {
        const float64x2_t yv = vld1q_f64(yrow + j);
        const float64x2_t xv = vld1q_f64(xrow + j);
        vst1q_f64(yrow + j, vaddq_f64(yv, vmulq_f64(vv, xv)));
      }
      for (; j < xc; ++j) yrow[j] += v * xrow[j];
    }
  }
}

}  // namespace gana::linalg

#endif  // GANA_SIMD_NEON
