#include "linalg/kernels.hpp"

namespace gana {

const char* simd_isa_name() {
#if defined(GANA_SIMD_AVX2)
  return "avx2";
#elif defined(GANA_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

namespace {

const char* simd_kernel_name() {
#if defined(GANA_SIMD_AVX2)
  return "simd-avx2";
#elif defined(GANA_SIMD_NEON)
  return "simd-neon";
#else
  return "simd-scalar";
#endif
}

}  // namespace

const std::vector<MatmulKernelInfo>& registered_matmul_kernels() {
  static const std::vector<MatmulKernelInfo> kernels = {
      {MatmulKernel::Reference, "reference"},
      {MatmulKernel::Simd, simd_kernel_name()},
  };
  return kernels;
}

const std::vector<SpmmKernelInfo>& registered_spmm_kernels() {
  static const std::vector<SpmmKernelInfo> kernels = {
      {SpmmKernel::Reference, "reference"},
      {SpmmKernel::Simd, simd_kernel_name()},
  };
  return kernels;
}

}  // namespace gana
