// Runtime CPU feature detection for the SIMD kernel dispatch.
//
// The AVX2/FMA and AVX-512 GEMM kernels (src/runtime/kernels_avx2.cpp,
// src/runtime/kernels_avx512.cpp) are compiled with their ISA flags
// whenever the compiler supports them, but executing them is gated here
// at runtime: rt::kernel_families() lists each family only when the
// matching *_available() says so — CPUID reports the ISA, the OS saves the
// register state (YMM for AVX2, ZMM/opmask for AVX-512), and the
// operator did not force a fallback with TASD_DISABLE_AVX2 /
// TASD_DISABLE_AVX512. That split keeps one binary correct on every x86
// machine and gives CI knobs to exercise every dispatch path (see
// docs/kernels.md § fallback chain).
#pragma once

#include <string>

namespace tasd {

/// Raw instruction-set capabilities of the executing CPU/OS pair.
struct CpuFeatures {
  bool avx2 = false;        ///< CPUID.7.0:EBX[5]
  bool fma = false;         ///< CPUID.1:ECX[12]
  bool os_ymm = false;      ///< OSXSAVE set and XCR0 enables XMM+YMM state
  bool avx512f = false;     ///< CPUID.7.0:EBX[16]
  bool avx512bw = false;    ///< CPUID.7.0:EBX[30]
  bool avx512vnni = false;  ///< CPUID.7.0:ECX[11] (int8 dot; reported only)
  bool os_zmm = false;      ///< XCR0 also enables opmask + ZMM hi/lo state

  /// The AVX2/FMA kernels may execute: ISA present and OS-supported.
  [[nodiscard]] bool avx2_usable() const { return avx2 && fma && os_ymm; }

  /// The AVX-512 kernels may execute: F+BW present and the OS context-
  /// switches the full ZMM/opmask state (VNNI is not required — the f32
  /// kernels use only F; BW covers the mask ops the tails rely on).
  [[nodiscard]] bool avx512_usable() const {
    return avx512f && avx512bw && os_zmm;
  }
};

/// Probe CPUID/XGETBV. All-false on non-x86 targets. Not cached; the
/// answer never changes within a process.
CpuFeatures detect_cpu_features();

/// Pure selection policy, exposed for tests: the AVX2 kernels are enabled
/// exactly when the hardware can run them and the operator did not
/// disable them.
bool avx2_enabled(const CpuFeatures& features, bool disabled_by_env);

/// True when the TASD_DISABLE_AVX2 environment variable forces the scalar
/// fallback (set to any non-empty value other than "0").
bool avx2_disabled_by_env();

/// Cached process-wide answer combining detect_cpu_features() and
/// TASD_DISABLE_AVX2 — what rt::kernel_families() consults when it
/// builds the family list.
bool avx2_available();

/// Pure selection policy for the AVX-512 kernels, mirror of
/// avx2_enabled(). Independent of the AVX2 knobs: disabling AVX2 alone
/// leaves the AVX-512 families listed (and vice versa), so CI can pin any
/// single family.
bool avx512_enabled(const CpuFeatures& features, bool disabled_by_env);

/// True when TASD_DISABLE_AVX512 forces the AVX2/scalar fallback (set to
/// any non-empty value other than "0").
bool avx512_disabled_by_env();

/// Cached process-wide answer combining detect_cpu_features() and
/// TASD_DISABLE_AVX512.
bool avx512_available();

/// Identity of this host for tuning-result validity: the CPUID brand
/// string plus the *effective* kernel-family availability (avx2/avx512
/// after the env disables), e.g.
///   "Intel(R) Xeon(R) ... CPU @ 2.20GHz|avx2=1,avx512=1".
/// A TuningResult measured under one signature is only trusted on a host
/// reporting the same string — the candidate pool and relative kernel
/// speeds are functions of exactly these inputs. The TASD_CPU_SIGNATURE
/// environment variable overrides the computed value (read on every
/// call), the test seam for host-mismatch coverage.
std::string cpu_signature();

}  // namespace tasd
