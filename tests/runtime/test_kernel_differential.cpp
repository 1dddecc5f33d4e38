// Differential property sweep: one seeded random-shape generator drives
// every available kernel family — scalar, AVX2, AVX-512, the GEMV
// family, and whatever a future table row adds — through the same draws
// and asserts the cross-family contract from docs/kernels.md:
//
//  * within a rounding family (KernelFamily::rounding) results are
//    bit-identical (family vs family, batched vs looped, any thread
//    count vs one thread);
//  * across families results agree with the scalar gemm_ref oracle to
//    1e-4 float tolerance — except the decode-width GEMV family, whose
//    tree-reduced sums are held to the operation's own fp64 bound,
//    (k*terms + 2) * 2^-24 * sum|w*x| per element.
//
// Shapes are drawn, not hand-picked: ragged M/K/N around the vector
// blocking grains (1..64 rows, K crossing the 4-step unroll, N crossing
// the 8/16/32-lane blocks plus masked tails), ragged batch width mixes
// including zero-column items, N:M patterns whose GEMV window spans
// more than 32 k positions (1:4, 1:8, 2:8), and mixed-pattern TASD
// series (2:8+1:8).
// A new backend only has to add its table row (runtime/kernel_family.cpp)
// to inherit the whole sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/parallel.hpp"
#include "core/decompose.hpp"
#include "runtime/dense_gemm.hpp"
#include "runtime/nm_gemm.hpp"
#include "sparse/nm_matrix.hpp"
#include "tensor/gemm_ref.hpp"
#include "tensor/generator.hpp"
#include "tensor/norms.hpp"

namespace tasd::rt {
namespace {

constexpr std::size_t kDraws = 6;
constexpr std::size_t kSweepThreads[] = {0, 1, 2, 5, 8};

struct Draw {
  Index m, k, n;
  std::vector<Index> widths;  // ragged batch mix (may contain 0)
  std::string label;
};

// The generator: shapes land on and around the kernels' blocking grains
// (AVX-512 handles 32/16-col blocks with a masked tail, AVX2 8-col,
// scalar tiles 512) — uniform draws over [1, 64]x[8, 160]x[1, 48] cross
// every remainder path within a few draws. K is rounded to a multiple
// of 8 so the same draw can also feed the N:M cases (patterns over M=4
// and M=8 groups); raggedness everywhere else is the point.
std::vector<Draw> make_draws(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Draw> draws;
  for (std::size_t i = 0; i < kDraws; ++i) {
    Draw d;
    d.m = static_cast<Index>(rng.uniform_int(1, 64));
    d.k = static_cast<Index>(rng.uniform_int(1, 20)) * 8;
    d.n = static_cast<Index>(rng.uniform_int(1, 48));
    const std::size_t items = static_cast<std::size_t>(rng.uniform_int(2, 5));
    for (std::size_t q = 0; q < items; ++q)
      d.widths.push_back(static_cast<Index>(rng.uniform_int(0, 33)));
    d.label = std::to_string(d.m) + "x" + std::to_string(d.k) + "x" +
              std::to_string(d.n) + " draw=" + std::to_string(i);
    draws.push_back(std::move(d));
  }
  return draws;
}

/// Every element of out = a*b (a: the dense operand the kernel computes
/// with, summed over `terms` series terms) lies within the worst-case
/// rounding bound of a length-k*terms float dot product around the fp64
/// result: (k*terms + 2) * 2^-24 * sum|w*x|.
::testing::AssertionResult within_dot_bound(const MatrixF& out,
                                            const MatrixF& a,
                                            const MatrixF& b,
                                            std::size_t terms) {
  const double u = std::ldexp(1.0, -24);
  const double bound = static_cast<double>(a.cols() * terms + 2) * u;
  for (Index r = 0; r < out.rows(); ++r)
    for (Index j = 0; j < out.cols(); ++j) {
      double ref = 0.0, mag = 0.0;
      for (Index p = 0; p < a.cols(); ++p) {
        const double wx =
            static_cast<double>(a(r, p)) * static_cast<double>(b(p, j));
        ref += wx;
        mag += std::fabs(wx);
      }
      if (!(std::fabs(out(r, j) - ref) <= bound * mag))
        return ::testing::AssertionFailure()
               << "(" << r << "," << j << "): got " << out(r, j)
               << ", fp64 " << ref << ", bound " << bound * mag;
    }
  return ::testing::AssertionSuccess();
}

/// What a kernel's output is checked against: the oracle (float
/// tolerance) and the operands for the GEMV family's fp64 bound.
struct Reference {
  const MatrixF& oracle;
  const MatrixF& a;
  const MatrixF& b;
  std::size_t terms = 1;
};

/// Assert `out` equals its rounding family's canonical result bitwise
/// (recording it on first sight) and the reference within the rounding
/// family's tolerance.
void check_family(std::map<std::string, MatrixF>& canon,
                  const KernelFamily& family, const MatrixF& out,
                  const Reference& ref, const std::string& ctx) {
  const std::string rounding = family.rounding;
  if (rounding == "gemv") {
    EXPECT_TRUE(within_dot_bound(out, ref.a, ref.b, ref.terms))
        << ctx << " family=" << family.name;
  } else {
    EXPECT_TRUE(allclose(out, ref.oracle, 1e-4, 1e-4))
        << ctx << " family=" << family.name;
  }
  const auto [it, fresh] = canon.emplace(rounding, out);
  if (!fresh) {
    EXPECT_TRUE(out == it->second) << ctx << " family=" << family.name
                                   << " diverges within " << rounding;
  }
}

TEST(KernelDifferential, DenseKernelsAgreeAcrossFamiliesOnRandomShapes) {
  for (const Draw& d : make_draws(7101)) {
    Rng rng(7102);
    const MatrixF a = random_dense(d.m, d.k, Dist::kNormalStd1, rng);
    const MatrixF b = random_dense(d.k, d.n, Dist::kNormalStd1, rng);
    const MatrixF oracle = gemm_ref(a, b);
    std::map<std::string, MatrixF> canon;
    for (const KernelFamily* family : kernel_families()) {
      ThreadPool one(1);
      const MatrixF serial = dense_gemm(a, b, {&one, family});
      check_family(canon, *family, serial, {oracle, a, b}, d.label);
      for (const std::size_t threads : kSweepThreads) {
        ThreadPool pool(threads);
        EXPECT_TRUE(dense_gemm(a, b, {&pool, family}) == serial)
            << d.label << " family=" << family->name
            << " threads=" << threads;
      }
    }
  }
}

TEST(KernelDifferential, NmKernelsAgreeAcrossFamiliesOnRandomShapes) {
  // Cycle the N:M pattern per draw so the M=4 and M=8 group decoders hit
  // the random shapes, and the GEMV family runs both its register-select
  // window (2:4) and its gather window (1:8, 1:4, 2:8 span 64-128 k).
  const sparse::NMPattern patterns[] = {{2, 4}, {1, 8}, {1, 4}, {2, 8}};
  std::size_t i = 0;
  for (const Draw& d : make_draws(7201)) {
    Rng rng(7202);
    const sparse::NMPattern pattern = patterns[i++ % std::size(patterns)];
    const MatrixF dense = random_nm_structured(d.m, d.k, pattern.n, pattern.m,
                                               Dist::kNormalStd1, rng);
    const sparse::NMSparseMatrix a(dense, pattern);
    const MatrixF b = random_dense(d.k, d.n, Dist::kNormalStd1, rng);
    const MatrixF oracle = gemm_ref(dense, b);
    std::map<std::string, MatrixF> canon;
    for (const KernelFamily* family : kernel_families()) {
      ThreadPool one(1);
      const MatrixF serial = nm_gemm(a, b, {&one, family});
      check_family(canon, *family, serial, {oracle, dense, b},
                   d.label + " " + pattern.str());
      for (const std::size_t threads : kSweepThreads) {
        ThreadPool pool(threads);
        EXPECT_TRUE(nm_gemm(a, b, {&pool, family}) == serial)
            << d.label << " family=" << family->name
            << " threads=" << threads;
      }
    }
  }
}

TEST(KernelDifferential, BatchKernelsMatchLoopedSinglesOnRaggedMixes) {
  for (const Draw& d : make_draws(7301)) {
    Rng rng(7303);
    const MatrixF aw = random_dense(d.m, d.k, Dist::kNormalStd1, rng);
    const MatrixF nm_dense =
        random_nm_structured(d.m, d.k, 2, 4, Dist::kNormalStd1, rng);
    const sparse::NMSparseMatrix an(nm_dense, sparse::NMPattern(2, 4));
    std::vector<MatrixF> bs;
    for (const Index w : d.widths)
      bs.push_back(random_dense(d.k, w, Dist::kNormalStd1, rng));

    for (const KernelFamily* family : kernel_families()) {
      for (const std::size_t threads : kSweepThreads) {
        ThreadPool pool(threads);
        const ExecPolicy policy{&pool, family};
        const auto dense_batch = dense_gemm_batch(aw, bs, policy);
        const auto nm_batch = nm_gemm_batch(an, bs, policy);
        ASSERT_EQ(dense_batch.size(), bs.size());
        ASSERT_EQ(nm_batch.size(), bs.size());
        for (std::size_t q = 0; q < bs.size(); ++q) {
          EXPECT_TRUE(dense_batch[q] == dense_gemm(aw, bs[q], policy))
              << d.label << " family=" << family->name
              << " threads=" << threads << " item=" << q;
          EXPECT_TRUE(nm_batch[q] == nm_gemm(an, bs[q], policy))
              << d.label << " family=" << family->name
              << " threads=" << threads << " item=" << q;
        }
      }
    }
  }
}

TEST(KernelDifferential, MixedPatternSeriesAgreesAcrossFamilies) {
  // The full TASD pipeline (mixed 2:8+1:8 decomposition, two series
  // terms) under each available family: rounding families agree bitwise
  // internally and with the functional model to tolerance.
  for (const Draw& d : make_draws(7401)) {
    Rng rng(7402);
    const MatrixF a =
        random_unstructured(d.m, d.k, 0.3, Dist::kNormalStd1, rng);
    const MatrixF b = random_dense(d.k, d.n, Dist::kNormalStd1, rng);
    const auto dec = decompose(a, TasdConfig::parse("2:8+1:8"));
    const TasdSeriesGemm series(dec);
    const MatrixF approx = dec.approximation();
    const MatrixF functional = gemm_ref(approx, b);
    std::map<std::string, MatrixF> canon;
    for (const KernelFamily* family : kernel_families()) {
      check_family(canon, *family, series.multiply(b, {nullptr, family}),
                   {functional, approx, b, dec.terms.size()}, d.label);
    }
  }
}

/// Items of every width 0..33; the series path packs them into one
/// 561-column right-hand side, which the GEMV cores split into groups
/// of at most 8 columns.
std::vector<MatrixF> every_width(Index k, Rng& rng) {
  std::vector<MatrixF> bs;
  for (Index w = 0; w <= 33; ++w)
    bs.push_back(random_dense(k, w, Dist::kNormalStd1, rng));
  return bs;
}

TEST(KernelDifferential, GemvFamilyCoversEveryPatternAndPackedWidth) {
  // Every pattern a plan can hold — short blocks below N, N == M, a
  // window wider than 32 k, N > 16 (per-block chunks), 0:M — at odd k
  // (a multiple of neither M nor the window), against every width
  // 0..33: bit-exact across thread counts, batched == looped, and
  // within the fp64 dot bound.
  const KernelFamily* gemv = find_family("gemv-avx512");
  if (gemv == nullptr) GTEST_SKIP() << "no GEMV family on this host";
  const char* const patterns[] = {"2:4", "1:4", "1:8", "2:8",   "4:8",
                                  "3:5", "8:16", "16:16", "20:32", "0:4"};
  Rng rng(7501);
  for (const char* text : patterns) {
    const auto pattern = sparse::NMPattern::parse(text);
    const auto m = static_cast<Index>(rng.uniform_int(1, 40));
    const auto k = static_cast<Index>(rng.uniform_int(1, 150) * 2 + 1);
    MatrixF dense = random_nm_structured(m, k, pattern.n, pattern.m,
                                         Dist::kNormalStd1, rng);
    for (float& v : dense.flat())
      if (rng.uniform() < 0.3) v = 0.0F;  // blocks below N stored values
    const sparse::NMSparseMatrix a(dense, pattern);
    const auto bs = every_width(k, rng);
    const std::string ctx = std::string(text) + " m=" + std::to_string(m) +
                            " k=" + std::to_string(k);
    ThreadPool one(1);
    std::vector<MatrixF> want;
    for (const MatrixF& b : bs) {
      want.push_back(nm_gemm(a, b, {&one, gemv}));
      EXPECT_TRUE(within_dot_bound(want.back(), dense, b, 1))
          << ctx << " width=" << b.cols();
    }
    for (const std::size_t threads : kSweepThreads) {
      ThreadPool pool(threads);
      const auto got = nm_gemm_batch(a, bs, {&pool, gemv});
      for (std::size_t q = 0; q < bs.size(); ++q)
        EXPECT_TRUE(got[q] == want[q])
            << ctx << " threads=" << threads << " width=" << q;
    }
  }
}

TEST(KernelDifferential, GemvFamilyBatchesEqualLoopsAtEveryPackedWidth) {
  // The dense core and a mixed 2:8+1:8 series (two terms, both gather
  // windows) through the packed batch path: each item bitwise equal to
  // its own single-RHS run at every thread count.
  const KernelFamily* gemv = find_family("gemv-avx512");
  if (gemv == nullptr) GTEST_SKIP() << "no GEMV family on this host";
  Rng rng(7601);
  const Index m = 37, k = 203;
  const MatrixF w = random_dense(m, k, Dist::kNormalStd1, rng);
  const auto dec = decompose(random_unstructured(m, k, 0.3, Dist::kNormalStd1,
                                                 rng),
                             TasdConfig::parse("2:8+1:8"));
  const TasdSeriesGemm series(dec);
  const MatrixF approx = dec.approximation();
  const auto bs = every_width(k, rng);
  const ExecPolicy single{nullptr, gemv};
  for (const std::size_t threads : kSweepThreads) {
    ThreadPool pool(threads);
    const auto got_dense = dense_gemm_batch(w, bs, {&pool, gemv});
    const auto got_series = series.multiply_batch(bs, {&pool, gemv});
    for (std::size_t q = 0; q < bs.size(); ++q) {
      const MatrixF want_dense = dense_gemm(w, bs[q], single);
      EXPECT_TRUE(got_dense[q] == want_dense)
          << "threads=" << threads << " width=" << q;
      EXPECT_TRUE(within_dot_bound(want_dense, w, bs[q], 1)) << "width=" << q;
      const MatrixF want_series = series.multiply(bs[q], single);
      EXPECT_TRUE(got_series[q] == want_series)
          << "threads=" << threads << " width=" << q;
      EXPECT_TRUE(
          within_dot_bound(want_series, approx, bs[q], dec.terms.size()))
          << "width=" << q;
    }
  }
}

}  // namespace
}  // namespace tasd::rt
