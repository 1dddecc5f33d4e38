// CPU feature detection and the AVX2 enablement policy (the gate
// rt::kernel_families() consults before listing the SIMD families).
#include "common/cpu_features.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace tasd {
namespace {

TEST(CpuFeatures, DetectionIsStableWithinAProcess) {
  const CpuFeatures a = detect_cpu_features();
  const CpuFeatures b = detect_cpu_features();
  EXPECT_EQ(a.avx2, b.avx2);
  EXPECT_EQ(a.fma, b.fma);
  EXPECT_EQ(a.os_ymm, b.os_ymm);
}

TEST(CpuFeatures, Avx2UsableRequiresIsaAndOsSupport) {
  CpuFeatures f;
  EXPECT_FALSE(f.avx2_usable());
  f.avx2 = true;
  f.fma = true;
  EXPECT_FALSE(f.avx2_usable()) << "OS must save YMM state";
  f.os_ymm = true;
  EXPECT_TRUE(f.avx2_usable());
  f.fma = false;
  EXPECT_FALSE(f.avx2_usable()) << "the kernels use FMA instructions";
}

TEST(CpuFeatures, EnablementPolicyHonorsTheDisableFlag) {
  // The pure policy behind avx2_available(): hardware support is
  // necessary, and TASD_DISABLE_AVX2 vetoes it — the forced-fallback
  // path the scalar CI leg runs.
  CpuFeatures capable;
  capable.avx2 = capable.fma = capable.os_ymm = true;
  EXPECT_TRUE(avx2_enabled(capable, /*disabled_by_env=*/false));
  EXPECT_FALSE(avx2_enabled(capable, /*disabled_by_env=*/true));
  EXPECT_FALSE(avx2_enabled(CpuFeatures{}, /*disabled_by_env=*/false));
  EXPECT_FALSE(avx2_enabled(CpuFeatures{}, /*disabled_by_env=*/true));
}

TEST(CpuFeatures, DisableFlagParsesLikeABoolean) {
  // Empty and "0" mean "not disabled"; anything else disables. Restore
  // the variable afterwards so sibling tests see the process's real
  // environment.
  const char* saved = std::getenv("TASD_DISABLE_AVX2");
  const std::string saved_value = saved ? saved : "";
  const bool had = saved != nullptr;

  unsetenv("TASD_DISABLE_AVX2");
  EXPECT_FALSE(avx2_disabled_by_env());
  setenv("TASD_DISABLE_AVX2", "", 1);
  EXPECT_FALSE(avx2_disabled_by_env());
  setenv("TASD_DISABLE_AVX2", "0", 1);
  EXPECT_FALSE(avx2_disabled_by_env());
  setenv("TASD_DISABLE_AVX2", "1", 1);
  EXPECT_TRUE(avx2_disabled_by_env());
  setenv("TASD_DISABLE_AVX2", "yes", 1);
  EXPECT_TRUE(avx2_disabled_by_env());

  if (had)
    setenv("TASD_DISABLE_AVX2", saved_value.c_str(), 1);
  else
    unsetenv("TASD_DISABLE_AVX2");
}

TEST(CpuFeatures, CachedAvailabilityMatchesThePolicy) {
  // avx2_available() caches the process-start answer; it must equal the
  // policy applied to the current probe as long as the env var did not
  // change after first use (this suite restores it above).
  EXPECT_EQ(avx2_available(),
            avx2_enabled(detect_cpu_features(), avx2_disabled_by_env()));
  EXPECT_EQ(avx512_available(),
            avx512_enabled(detect_cpu_features(), avx512_disabled_by_env()));
}

TEST(CpuFeatures, Avx512UsableRequiresFoundationBwAndZmmState) {
  // The f32 kernels need AVX512F (arithmetic) + AVX512BW (mask ops) and
  // an OS that context-switches ZMM and opmask registers. VNNI is
  // detected and reported but NOT required — the kernels are f32 FMA.
  CpuFeatures f;
  EXPECT_FALSE(f.avx512_usable());
  f.avx512f = true;
  EXPECT_FALSE(f.avx512_usable()) << "BW is required for mask ops";
  f.avx512bw = true;
  EXPECT_FALSE(f.avx512_usable()) << "OS must save ZMM/opmask state";
  f.os_zmm = true;
  EXPECT_TRUE(f.avx512_usable());
  f.avx512vnni = false;
  EXPECT_TRUE(f.avx512_usable()) << "VNNI must not gate the f32 kernels";
  f.avx512f = false;
  EXPECT_FALSE(f.avx512_usable());
}

TEST(CpuFeatures, Avx512EnablementPolicyHonorsTheDisableFlag) {
  CpuFeatures capable;
  capable.avx512f = capable.avx512bw = capable.os_zmm = true;
  EXPECT_TRUE(avx512_enabled(capable, /*disabled_by_env=*/false));
  EXPECT_FALSE(avx512_enabled(capable, /*disabled_by_env=*/true));
  EXPECT_FALSE(avx512_enabled(CpuFeatures{}, /*disabled_by_env=*/false));
  EXPECT_FALSE(avx512_enabled(CpuFeatures{}, /*disabled_by_env=*/true));
}

TEST(CpuFeatures, SimdDisableFlagsAreIndependent) {
  // TASD_DISABLE_AVX512=1 alone must leave AVX2 enabled (the avx2 CI
  // leg); disabling both is the scalar leg. Each flag only vetoes its
  // own family.
  const char* saved = std::getenv("TASD_DISABLE_AVX512");
  const std::string saved_value = saved ? saved : "";
  const bool had = saved != nullptr;

  unsetenv("TASD_DISABLE_AVX512");
  EXPECT_FALSE(avx512_disabled_by_env());
  setenv("TASD_DISABLE_AVX512", "0", 1);
  EXPECT_FALSE(avx512_disabled_by_env());
  setenv("TASD_DISABLE_AVX512", "1", 1);
  EXPECT_TRUE(avx512_disabled_by_env());
  // The AVX2 flag reads its own variable, not this one.
  CpuFeatures capable;
  capable.avx2 = capable.fma = capable.os_ymm = true;
  EXPECT_TRUE(avx2_enabled(capable, /*disabled_by_env=*/false));

  if (had)
    setenv("TASD_DISABLE_AVX512", saved_value.c_str(), 1);
  else
    unsetenv("TASD_DISABLE_AVX512");
}

TEST(CpuFeatures, SignatureIsStableAndReflectsTheCandidatePool) {
  // cpu_signature() keys artifact tuning sections: it must be stable
  // within a process and encode the *effective* SIMD availability (a
  // binding tuned with AVX-512 on must not transfer to a run with it
  // disabled — the candidate pool differs).
  const std::string a = cpu_signature();
  EXPECT_EQ(a, cpu_signature());
  EXPECT_FALSE(a.empty());
  const std::string avx2_tag = std::string("avx2=") +
                               (avx2_available() ? "1" : "0");
  const std::string avx512_tag = std::string("avx512=") +
                                 (avx512_available() ? "1" : "0");
  EXPECT_NE(a.find(avx2_tag), std::string::npos) << a;
  EXPECT_NE(a.find(avx512_tag), std::string::npos) << a;
}

TEST(CpuFeatures, SignatureEnvOverrideWinsForTesting) {
  // TASD_CPU_SIGNATURE is the test seam the artifact host-mismatch
  // tests use: it replaces the probed signature wholesale and is read
  // per call, so setting/unsetting inside one process works.
  const std::string real = cpu_signature();
  setenv("TASD_CPU_SIGNATURE", "some-other-machine|avx2=0,avx512=0", 1);
  EXPECT_EQ(cpu_signature(), "some-other-machine|avx2=0,avx512=0");
  unsetenv("TASD_CPU_SIGNATURE");
  EXPECT_EQ(cpu_signature(), real);
}

}  // namespace
}  // namespace tasd
