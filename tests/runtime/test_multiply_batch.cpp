// Bit-exactness of the batched serving path: dense_gemm_batch,
// nm_gemm_batch and TasdSeriesGemm::multiply_batch must produce outputs
// `==` to looping the single-RHS kernel over the batch, at every thread
// count, for every available kernel family, across ragged batch sizes
// and ragged per-item widths.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/decompose.hpp"
#include "core/plan_cache.hpp"
#include "runtime/dense_gemm.hpp"
#include "runtime/kernel_family.hpp"
#include "runtime/nm_gemm.hpp"
#include "tensor/generator.hpp"

namespace tasd::rt {
namespace {

const std::size_t kThreadCounts[] = {0, 1, 2, 5, 8};

// Ragged batches: singleton, GEMV-style uniform width 1, ragged widths
// (including a zero-column item), a batch of 17 width-1 queries (past
// the GEMV family's 8-column groups), and a packed width past 128.
std::vector<std::vector<Index>> batch_shapes() {
  return {
      {5},
      {1, 1, 1},
      {3, 1, 16, 0, 7},
      std::vector<Index>(17, 1),
      {129, 2, 33},
  };
}

std::vector<MatrixF> make_batch(Index k, const std::vector<Index>& widths,
                                Rng& rng) {
  std::vector<MatrixF> bs;
  bs.reserve(widths.size());
  for (Index w : widths)
    bs.push_back(random_dense(k, w, Dist::kNormalStd1, rng));
  return bs;
}

TEST(MultiplyBatch, DenseBatchBitIdenticalToSingleLoop) {
  Rng rng(41);
  const MatrixF a = random_dense(33, 50, Dist::kNormalStd1, rng);
  for (const auto& widths : batch_shapes()) {
    const auto bs = make_batch(a.cols(), widths, rng);
    for (const KernelFamily* family : kernel_families()) {
      std::vector<MatrixF> expected;
      for (const auto& b : bs)
        expected.push_back(dense_gemm(a, b, {nullptr, family}));
      for (std::size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        const auto cs = dense_gemm_batch(a, bs, {&pool, family});
        ASSERT_EQ(cs.size(), bs.size());
        for (std::size_t i = 0; i < cs.size(); ++i)
          EXPECT_TRUE(cs[i] == expected[i])
              << family->name << " threads=" << threads << " item=" << i;
      }
    }
  }
}

TEST(MultiplyBatch, NmBatchBitIdenticalToSingleLoop) {
  Rng rng(42);
  const MatrixF dense =
      random_unstructured(29, 48, 0.4, Dist::kNormalStd1, rng);
  const auto d = decompose(dense, TasdConfig::parse("2:4"));
  const sparse::NMSparseMatrix a = d.terms[0].compressed();
  for (const auto& widths : batch_shapes()) {
    const auto bs = make_batch(a.cols(), widths, rng);
    for (const KernelFamily* family : kernel_families()) {
      std::vector<MatrixF> expected;
      for (const auto& b : bs)
        expected.push_back(nm_gemm(a, b, {nullptr, family}));
      for (std::size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        const auto cs = nm_gemm_batch(a, bs, {&pool, family});
        ASSERT_EQ(cs.size(), bs.size());
        for (std::size_t i = 0; i < cs.size(); ++i)
          EXPECT_TRUE(cs[i] == expected[i])
              << family->name << " threads=" << threads << " item=" << i;
      }
    }
  }
}

TEST(MultiplyBatch, SeriesBatchBitIdenticalToSingleLoop) {
  Rng rng(43);
  const MatrixF dense =
      random_unstructured(37, 56, 0.3, Dist::kNormalStd1, rng);
  const TasdSeriesGemm series(
      plan_cache().get_or_build(dense, TasdConfig::parse("4:8+1:8")));
  for (const auto& widths : batch_shapes()) {
    const auto bs = make_batch(series.cols(), widths, rng);
    for (const KernelFamily* family : kernel_families()) {
      std::vector<MatrixF> expected;
      for (const auto& b : bs)
        expected.push_back(series.multiply(b, {nullptr, family}));
      for (std::size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        const auto cs = series.multiply_batch(bs, {&pool, family});
        ASSERT_EQ(cs.size(), bs.size());
        for (std::size_t i = 0; i < cs.size(); ++i)
          EXPECT_TRUE(cs[i] == expected[i])
              << family->name << " threads=" << threads << " item=" << i;
      }
    }
  }
}

TEST(MultiplyBatch, SharesOnePlanAcrossTheBatch) {
  Rng rng(44);
  const MatrixF dense =
      random_unstructured(16, 32, 0.5, Dist::kNormalStd1, rng);
  const auto cfg = TasdConfig::parse("2:8+1:8");
  const TasdSeriesGemm series(plan_cache().get_or_build(dense, cfg));
  const auto before = plan_cache().stats();
  const auto bs = make_batch(series.cols(), {1, 1, 1, 1, 1, 1, 1, 1}, rng);
  (void)series.multiply_batch(bs);
  const auto after = plan_cache().stats();
  EXPECT_EQ(after.decompositions, before.decompositions)
      << "a batched multiply must reuse the series' one plan, not "
         "decompose per item";
}

TEST(MultiplyBatch, EmptyBatchReturnsEmpty) {
  Rng rng(45);
  const MatrixF a = random_dense(8, 8, Dist::kNormalStd1, rng);
  EXPECT_TRUE(dense_gemm_batch(a, {}).empty());
  const auto d = decompose(a, TasdConfig::parse("2:4"));
  EXPECT_TRUE(nm_gemm_batch(d.terms[0].compressed(), {}).empty());
  const TasdSeriesGemm series(d);
  EXPECT_TRUE(series.multiply_batch({}).empty());
}

TEST(MultiplyBatch, MismatchedItemThrows) {
  Rng rng(46);
  const MatrixF a = random_dense(8, 12, Dist::kNormalStd1, rng);
  std::vector<MatrixF> bs;
  bs.push_back(random_dense(12, 3, Dist::kNormalStd1, rng));
  bs.push_back(random_dense(11, 3, Dist::kNormalStd1, rng));  // bad rows
  EXPECT_THROW(dense_gemm_batch(a, bs), Error);
  const TasdSeriesGemm series(decompose(a, TasdConfig::parse("2:4")));
  EXPECT_THROW(series.multiply_batch(bs), Error);
}

// --- TasdSeriesGemm shape validation: a wrong b.rows() must throw a
// tasd::Error whose message carries both operand shapes (not corrupt
// memory or return garbage), for the single-RHS and the batched path.

TEST(MultiplyBatch, SeriesMultiplyRejectsWrongInnerDimWithShapesInMessage) {
  Rng rng(47);
  const MatrixF a = random_dense(8, 12, Dist::kNormalStd1, rng);
  const TasdSeriesGemm series(decompose(a, TasdConfig::parse("2:4")));
  for (const Index rows : {Index{11}, Index{13}, Index{1}}) {
    const MatrixF bad = random_dense(rows, 3, Dist::kNormalStd1, rng);
    try {
      (void)series.multiply(bad);
      FAIL() << "multiply must reject a " << rows << "-row b";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("8x12"), std::string::npos) << msg;
      EXPECT_NE(msg.find(std::to_string(rows) + "x3"), std::string::npos)
          << msg;
    }
  }
}

TEST(MultiplyBatch, SeriesMultiplyBatchNamesOffendingItem) {
  Rng rng(48);
  const MatrixF a = random_dense(8, 12, Dist::kNormalStd1, rng);
  const TasdSeriesGemm series(decompose(a, TasdConfig::parse("2:4")));
  std::vector<MatrixF> bs;
  bs.push_back(random_dense(12, 3, Dist::kNormalStd1, rng));
  bs.push_back(random_dense(12, 3, Dist::kNormalStd1, rng));
  bs.push_back(random_dense(9, 3, Dist::kNormalStd1, rng));  // bad rows
  try {
    (void)series.multiply_batch(bs);
    FAIL() << "multiply_batch must reject the mismatched item";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("item 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("9x3"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace tasd::rt
