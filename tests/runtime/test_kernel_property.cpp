// Property sweep: the timed runtime kernels agree bit-for-bit in shape
// and numerically with the functional model across patterns/densities.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/decompose.hpp"
#include "runtime/dense_gemm.hpp"
#include "runtime/nm_gemm.hpp"
#include "tensor/gemm_ref.hpp"
#include "tensor/generator.hpp"
#include "tensor/norms.hpp"

namespace tasd::rt {
namespace {

struct KernelCase {
  const char* config;
  double density;
  Index m, k, n;
};

void PrintTo(const KernelCase& c, std::ostream* os) {
  *os << c.config << " d=" << c.density << " " << c.m << "x" << c.k << "x"
      << c.n;
}

class KernelEquivalence : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelEquivalence, SeriesKernelMatchesFunctionalModel) {
  const auto p = GetParam();
  Rng rng(3000 + p.m + p.k);
  const MatrixF a =
      random_unstructured(p.m, p.k, p.density, Dist::kNormalStd1, rng);
  const MatrixF b = random_dense(p.k, p.n, Dist::kNormalStd1, rng);
  const auto d = decompose(a, TasdConfig::parse(p.config));
  const TasdSeriesGemm series(d);
  const MatrixF kernel_out = series.multiply(b);
  const MatrixF functional = gemm_ref(d.approximation(), b);
  EXPECT_TRUE(allclose(kernel_out, functional, 1e-4, 1e-4));
}

TEST_P(KernelEquivalence, DenseKernelMatchesReference) {
  const auto p = GetParam();
  Rng rng(4000 + p.m + p.k);
  const MatrixF a =
      random_unstructured(p.m, p.k, p.density, Dist::kNormalStd1, rng);
  const MatrixF b = random_dense(p.k, p.n, Dist::kNormalStd1, rng);
  EXPECT_TRUE(allclose(dense_gemm(a, b), gemm_ref(a, b), 1e-4, 1e-4));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KernelEquivalence,
    ::testing::Values(KernelCase{"2:4", 0.1, 16, 32, 8},
                      KernelCase{"2:4", 0.9, 16, 32, 8},
                      KernelCase{"1:8", 0.05, 32, 64, 4},
                      KernelCase{"4:8", 0.5, 8, 64, 16},
                      KernelCase{"4:8+1:8", 0.4, 16, 48, 8},
                      KernelCase{"2:8+1:8", 0.2, 8, 40, 12},
                      KernelCase{"2:4+2:8", 0.7, 16, 30, 5},  // ragged K
                      KernelCase{"1:4", 1.0, 4, 7, 3}));      // tiny ragged

// --- Family-wide property sweep: every available kernel family (dense
// and N:M entries) x threads {0, 1, 2, 5, 8}. Each family must (a) agree
// with the tensor/gemm_ref oracle to float tolerance, (b) be
// bit-identical to its own run on ThreadPool(1) — the pool's serial
// path — and (c) give batched output bit-identical to looping its
// single-RHS call over a ragged batch mix.

const std::size_t kSweepThreads[] = {0, 1, 2, 5, 8};

TEST(KernelFamilySweep, EveryDenseEntryMatchesOracleAndItsSerialSelf) {
  Rng rng(6001);
  // Odd shape: m=1 row chunk, k not a multiple of the unroll, n crossing
  // the 32/8-lane vector blocks with a scalar remainder.
  const MatrixF a = random_dense(13, 30, Dist::kNormalStd1, rng);
  const MatrixF b = random_dense(30, 43, Dist::kNormalStd1, rng);
  const MatrixF oracle = gemm_ref(a, b);
  for (const KernelFamily* family : kernel_families()) {
    ThreadPool one(1);
    const MatrixF reference = dense_gemm(a, b, {&one, family});
    EXPECT_TRUE(allclose(reference, oracle, 1e-4, 1e-4)) << family->name;
    for (std::size_t threads : kSweepThreads) {
      ThreadPool pool(threads);
      EXPECT_TRUE(dense_gemm(a, b, {&pool, family}) == reference)
          << family->name << " threads=" << threads;
    }
  }
}

TEST(KernelFamilySweep, EveryNmEntryMatchesOracleAndItsSerialSelf) {
  Rng rng(6002);
  const MatrixF dense =
      random_unstructured(17, 40, 0.4, Dist::kNormalStd1, rng);
  const auto d = decompose(dense, TasdConfig::parse("2:4"));
  const sparse::NMSparseMatrix a = d.terms[0].compressed();
  const MatrixF b = random_dense(40, 37, Dist::kNormalStd1, rng);
  const MatrixF oracle = gemm_ref(d.terms[0].dense, b);
  for (const KernelFamily* family : kernel_families()) {
    ThreadPool one(1);
    const MatrixF reference = nm_gemm(a, b, {&one, family});
    EXPECT_TRUE(allclose(reference, oracle, 1e-4, 1e-4)) << family->name;
    for (std::size_t threads : kSweepThreads) {
      ThreadPool pool(threads);
      EXPECT_TRUE(nm_gemm(a, b, {&pool, family}) == reference)
          << family->name << " threads=" << threads;
    }
  }
}

TEST(KernelFamilySweep, EveryFamilyBatchesEqualItsLoopOnRaggedMixes) {
  Rng rng(6003);
  const MatrixF aw = random_dense(21, 36, Dist::kNormalStd1, rng);
  const MatrixF nm_dense =
      random_unstructured(21, 36, 0.4, Dist::kNormalStd1, rng);
  const auto d = decompose(nm_dense, TasdConfig::parse("2:4"));
  const sparse::NMSparseMatrix an = d.terms[0].compressed();
  // Ragged mixes: GEMV-style width-1 queries, a zero-column item, and
  // packed widths past one 128-column block.
  const std::vector<std::vector<Index>> mixes = {
      {1, 1, 1, 1}, {5, 0, 2, 9, 1}, {130, 3, 31}};
  for (const auto& widths : mixes) {
    std::vector<MatrixF> bs;
    for (Index w : widths)
      bs.push_back(random_dense(36, w, Dist::kNormalStd1, rng));
    for (const KernelFamily* family : kernel_families()) {
      std::vector<MatrixF> want_dense, want_nm;
      for (const auto& b : bs) {
        want_dense.push_back(dense_gemm(aw, b, {nullptr, family}));
        want_nm.push_back(nm_gemm(an, b, {nullptr, family}));
      }
      for (std::size_t threads : kSweepThreads) {
        ThreadPool pool(threads);
        const auto cd = dense_gemm_batch(aw, bs, {&pool, family});
        const auto cn = nm_gemm_batch(an, bs, {&pool, family});
        for (std::size_t i = 0; i < bs.size(); ++i) {
          EXPECT_TRUE(cd[i] == want_dense[i])
              << family->name << " dense threads=" << threads << " item=" << i;
          EXPECT_TRUE(cn[i] == want_nm[i])
              << family->name << " nm threads=" << threads << " item=" << i;
        }
      }
    }
  }
}

TEST(KernelEdgeCases, OneByOne) {
  MatrixF a(1, 1, {3.0F});
  MatrixF b(1, 1, {4.0F});
  EXPECT_EQ(dense_gemm(a, b)(0, 0), 12.0F);
  const auto d = decompose(a, TasdConfig::parse("1:4"));
  EXPECT_EQ(TasdSeriesGemm(d).multiply(b)(0, 0), 12.0F);
}

TEST(KernelEdgeCases, EmptyOutputColumns) {
  Rng rng(5000);
  const MatrixF a = random_dense(4, 8, Dist::kNormalStd1, rng);
  const MatrixF b(8, 0);
  const MatrixF c = dense_gemm(a, b);
  EXPECT_EQ(c.cols(), 0u);
}

}  // namespace
}  // namespace tasd::rt
