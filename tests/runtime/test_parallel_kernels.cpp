// Bit-exactness of the parallel execution layer: every GEMM kernel must
// produce *identical* bits at every thread count (deterministic row
// partitioning, no shared float accumulation), across odd shapes that
// stress the partition (m=1, non-multiple-of-tile N, ragged K).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/cpu_features.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/decompose.hpp"
#include "core/plan_cache.hpp"
#include "core/tasd_gemm.hpp"
#include "runtime/dense_gemm.hpp"
#include "runtime/kernel_family.hpp"
#include "runtime/nm_gemm.hpp"
#include "tensor/gemm_ref.hpp"
#include "tensor/generator.hpp"
#include "tensor/norms.hpp"

namespace tasd::rt {
namespace {

struct Shape {
  Index m, k, n;
};

// m=1, tiny, prime dims, non-multiple-of-tile (kTileN=512) widths, and a
// k that is not a multiple of the 4-wide unroll or the N:M block size.
const Shape kShapes[] = {
    {1, 8, 8}, {1, 64, 517}, {3, 7, 5},  {16, 32, 8},
    {33, 30, 129}, {64, 100, 513}, {7, 128, 1024},
};

const std::size_t kThreadCounts[] = {0, 1, 2, 3, 5, 8};

TEST(ParallelKernels, DenseBitIdenticalAcrossThreadCounts) {
  // Every available family (scalar and SIMD alike) must match its own
  // 1-thread run bitwise at every thread count.
  for (const KernelFamily* family : kernel_families()) {
    for (const auto& s : kShapes) {
      Rng rng(100 + s.m + s.k + s.n);
      const MatrixF a = random_dense(s.m, s.k, Dist::kNormalStd1, rng);
      const MatrixF b = random_dense(s.k, s.n, Dist::kNormalStd1, rng);

      ThreadPool serial(1);
      const ExecPolicy serial_policy{&serial, family};
      const MatrixF reference = dense_gemm(a, b, serial_policy);

      for (std::size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        const ExecPolicy policy{&pool, family};
        const MatrixF c = dense_gemm(a, b, policy);
        EXPECT_TRUE(c == reference) << family->name << " " << s.m << "x" << s.k
                                    << "x" << s.n << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelKernels, NmBitIdenticalAcrossThreadCounts) {
  for (const KernelFamily* family : kernel_families()) {
    for (const auto& s : kShapes) {
      Rng rng(200 + s.m + s.k + s.n);
      const MatrixF dense =
          random_unstructured(s.m, s.k, 0.4, Dist::kNormalStd1, rng);
      const auto d = decompose(dense, TasdConfig::parse("2:4"));
      const sparse::NMSparseMatrix a = d.terms[0].compressed();
      const MatrixF b = random_dense(s.k, s.n, Dist::kNormalStd1, rng);

      ThreadPool serial(1);
      const ExecPolicy serial_policy{&serial, family};
      const MatrixF reference = nm_gemm(a, b, serial_policy);

      for (std::size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        const ExecPolicy policy{&pool, family};
        EXPECT_TRUE(nm_gemm(a, b, policy) == reference)
            << family->name << " " << s.m << "x" << s.k << "x" << s.n
            << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelKernels, TasdSeriesBitIdenticalAcrossThreadCounts) {
  for (const KernelFamily* family : kernel_families()) {
    for (const auto& s : kShapes) {
      Rng rng(300 + s.m + s.k + s.n);
      const MatrixF dense =
          random_unstructured(s.m, s.k, 0.3, Dist::kNormalStd1, rng);
      const TasdSeriesGemm series(
          decompose(dense, TasdConfig::parse("4:8+1:8")));
      const MatrixF b = random_dense(s.k, s.n, Dist::kNormalStd1, rng);

      ThreadPool serial(1);
      const ExecPolicy serial_policy{&serial, family};
      const MatrixF reference = series.multiply(b, serial_policy);

      for (std::size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        const ExecPolicy policy{&pool, family};
        EXPECT_TRUE(series.multiply(b, policy) == reference)
            << family->name << " " << s.m << "x" << s.k << "x" << s.n
            << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelKernels, SeriesFromPlanMatchesSeriesFromDecomposition) {
  Rng rng(404);
  const MatrixF dense =
      random_unstructured(33, 40, 0.5, Dist::kNormalStd1, rng);
  const auto cfg = TasdConfig::parse("2:8+1:8");
  const MatrixF b = random_dense(40, 21, Dist::kNormalStd1, rng);
  const TasdSeriesGemm from_decomp(decompose(dense, cfg));
  const TasdSeriesGemm from_plan(plan_cache().get_or_build(dense, cfg));
  EXPECT_EQ(from_decomp.nnz(), from_plan.nnz());
  EXPECT_EQ(from_decomp.term_count(), from_plan.term_count());
  EXPECT_TRUE(from_decomp.multiply(b) == from_plan.multiply(b));
}

TEST(ParallelKernels, CoreTasdGemmMatchesSerialTermMajorLoop) {
  // core/tasd_gemm routes through the shared parallel layer; its output
  // must stay bit-identical to the serial term-major accumulation it
  // replaced.
  Rng rng(505);
  const MatrixF a = random_unstructured(37, 48, 0.4, Dist::kNormalStd1, rng);
  const MatrixF b = random_dense(48, 19, Dist::kNormalStd1, rng);
  const auto d = decompose(a, TasdConfig::parse("4:8+1:8"));

  MatrixF expected(a.rows(), b.cols());
  for (const auto& term : d.terms)
    gemm_ref_accumulate(term.dense, b, expected);

  EXPECT_TRUE(tasd_gemm(d, b) == expected);
}

TEST(KernelFamilies, ScalarFamilyIsFirstAndTheDefault) {
  const auto& families = kernel_families();
  ASSERT_FALSE(families.empty());
  EXPECT_EQ(families.front(), &scalar_family());
  EXPECT_STREQ(scalar_family().name, "scalar");
  EXPECT_STREQ(scalar_family().rounding, "scalar");
  // A default policy (null family) runs the scalar family.
  EXPECT_EQ(&resolve_family({}), &scalar_family());
  for (const KernelFamily* f : families) {
    EXPECT_EQ(find_family(f->name), f) << f->name;
    EXPECT_NE(f->dense, nullptr) << f->name;
    EXPECT_NE(f->nm, nullptr) << f->name;
  }
}

TEST(KernelFamilies, SimdFamiliesFollowRuntimeDetection) {
  // Each SIMD family is listed exactly when the executing CPU/OS can run
  // it (and its TASD_DISABLE_* flag is unset); best_family() walks the
  // GEMV (widths 1..8) > avx512 > avx2 > scalar chain over whatever is
  // listed. The avx2-only and scalar CI legs exercise the lower rungs
  // on capable hardware via the disable flags.
  EXPECT_EQ(find_family("avx2") != nullptr, avx2_available());
  EXPECT_EQ(find_family("avx512") != nullptr, avx512_available());
  EXPECT_EQ(find_family("gemv-avx512") != nullptr, avx512_available());
  if (avx512_available()) {
    EXPECT_STREQ(best_family().name, "avx512");
    EXPECT_STREQ(best_family(1).name, "gemv-avx512");
    EXPECT_STREQ(best_family(kGemvMaxWidth).name, "gemv-avx512");
    EXPECT_STREQ(best_family(kGemvMaxWidth + 1).name, "avx512");
    EXPECT_STREQ(find_family("gemv-avx512")->rounding, "gemv");
    EXPECT_STREQ(find_family("avx512")->rounding, "fma");
  } else if (avx2_available()) {
    EXPECT_STREQ(best_family().name, "avx2");
    EXPECT_STREQ(best_family(1).name, "avx2");
    EXPECT_STREQ(find_family("avx2")->rounding, "fma");
  } else {
    EXPECT_EQ(&best_family(), &scalar_family());
    EXPECT_EQ(&best_family(1), &scalar_family());
  }
}

TEST(KernelFamilies, UnknownFamilyIsNotFound) {
  EXPECT_EQ(find_family("no-such-family"), nullptr);
  EXPECT_EQ(find_family(""), nullptr);
  EXPECT_EQ(find_family("auto"), nullptr);
}

TEST(KernelFamilies, AllDenseEntriesAgree) {
  Rng rng(707);
  const MatrixF a = random_dense(13, 29, Dist::kNormalStd1, rng);
  const MatrixF b = random_dense(29, 17, Dist::kNormalStd1, rng);
  const MatrixF oracle = gemm_ref(a, b);
  for (const KernelFamily* family : kernel_families()) {
    EXPECT_TRUE(allclose(dense_gemm(a, b, {nullptr, family}), oracle, 1e-5,
                         1e-5))
        << "family " << family->name;
  }
}

/// A family defined outside the table: ExecPolicy takes any family.
void fill_minus_one(const MatrixF&, std::span<const MatrixF>,
                    std::span<MatrixF> cs, ThreadPool&) {
  for (MatrixF& c : cs)
    for (float& v : c.flat()) v = -1.0F;
}

TEST(KernelFamilies, AnyFamilyIsDispatchableThroughThePolicy) {
  static const KernelFamily kTest{"test", "test", fill_minus_one,
                                  scalar_family().nm};
  Rng rng(808);
  const MatrixF a = random_dense(3, 3, Dist::kNormalStd1, rng);
  const MatrixF c = dense_gemm(a, a, {nullptr, &kTest});
  for (float v : c.flat()) EXPECT_EQ(v, -1.0F);
  // The table is untouched by using an outside family.
  EXPECT_EQ(find_family("test"), nullptr);
}

}  // namespace
}  // namespace tasd::rt
