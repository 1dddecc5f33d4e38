// Shared helper for the kernel property/batch test suites.
#pragma once

#include <string>

#include "runtime/gemm_dispatch.hpp"

namespace tasd::rt::testing {

/// The single-RHS kernel a batch kernel's output must match bitwise: a
/// SIMD batch kernel pairs with its same-family single-RHS sibling,
/// every scalar batch kernel with the scalar registry default (empty
/// name). Batched == looped holds *within* a rounding family; across
/// families results agree only to float tolerance (GEMV tree vs FMA
/// chain vs mul+add — docs/kernels.md). Substring order matters: the
/// GEMV names also contain "avx512", and both avx names contain "avx".
inline std::string paired_single_kernel(const std::string& batch_kernel,
                                        bool dense) {
  if (batch_kernel.find("gemv") != std::string::npos)
    return dense ? "dense-gemv-avx512" : "nm-gemv-avx512";
  if (batch_kernel.find("avx512") != std::string::npos)
    return dense ? "dense-avx512" : "nm-avx512";
  if (batch_kernel.find("avx2") != std::string::npos)
    return dense ? "dense-avx2" : "nm-avx2";
  return {};
}

/// The rounding family a kernel name belongs to. The decode-width
/// "gemv" kernels accumulate 16 fused partial sums per output and reduce
/// them with a fixed tree: their own family, checked before "avx" (their
/// names contain "avx512"). Every other "avx" kernel — AVX2 and AVX-512
/// alike — issues exactly one FMA per k-step per output, so they share
/// one family and agree bitwise with each other; the scalar
/// tiled/serial/batch kernels form the mul+add family, and "reference"
/// is its own single-member family (same math as scalar but a different
/// accumulation order is not guaranteed). Across families only float
/// tolerance holds.
inline std::string rounding_family(const std::string& kernel) {
  if (kernel.find("gemv") != std::string::npos) return "gemv";
  if (kernel.find("avx") != std::string::npos) return "fma";
  if (kernel.find("reference") != std::string::npos) return "reference";
  return "scalar";
}

/// Register "-twin" copies of the scalar registry defaults: autotune
/// candidates on every CI leg (the scalar leg's pool otherwise holds one
/// kernel per slot) that best_*() never picks, bit-identical to their
/// originals. Tests bind them as deliberately-not-static winners.
/// Idempotent.
inline void register_scalar_twins() {
  auto& d = GemmDispatch::instance();
  d.register_dense("tiled-parallel-twin", d.dense("tiled-parallel"));
  d.register_nm("row-parallel-twin", d.nm("row-parallel"));
  d.register_dense_batch("batch-packed-twin", d.dense_batch("batch-packed"));
  d.register_nm_batch("batch-packed-twin", d.nm_batch("batch-packed"));
}

}  // namespace tasd::rt::testing
