// Kernel-family selection: CompileOptions::kernel_family "auto" resolves
// through best_family() at compile() time — per layer at its width
// (positions 1..8 bind the decode-width GEMV family when available),
// then the static chain avx512 > avx2 > scalar, walking down as runtime
// detection (or the TASD_DISABLE_AVX512 / TASD_DISABLE_AVX2 escape
// hatches the CI matrix legs set) removes families. On a scalar-only
// pool "auto" must bind the scalar family and stay bit-exact.
#include <gtest/gtest.h>

#include "common/cpu_features.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/dense_gemm.hpp"
#include "tensor/gemm_ref.hpp"
#include "tensor/generator.hpp"
#include "tensor/norms.hpp"

namespace tasd::rt {
namespace {

dnn::NetworkWorkload tiny_net() {
  dnn::NetworkWorkload net;
  net.name = "tiny-selection";
  net.sparse_weights = true;
  dnn::GemmWorkload l1;
  l1.name = "a";
  l1.m = 48;
  l1.k = 96;
  l1.n = 32;
  l1.weight_density = 0.2;
  l1.weight_seed = 9101;
  dnn::GemmWorkload l2 = l1;
  l2.name = "b";
  l2.weight_seed = 9102;
  net.layers = {l1, l2};
  return net;
}

std::vector<std::optional<TasdConfig>> mixed_configs() {
  return {TasdConfig::parse("2:4"), std::nullopt};
}

TEST(KernelSelection, AutoResolvesToBestAtCompileTime) {
  const auto engine = compile(tiny_net(), mixed_configs(), {});
  // Each layer binds one concrete family (never the "auto" sentinel) at
  // its own width — 32 positions here: the wide chain — and reports its
  // name in both name fields.
  for (std::size_t i = 0; i < engine.layer_count(); ++i) {
    const auto& l = engine.layer(i);
    EXPECT_EQ(l.family, &best_family(l.n));
    EXPECT_EQ(l.kernel, l.family->name);
    EXPECT_EQ(l.batch_kernel, l.family->name);
    EXPECT_EQ(engine.layer_policy(i).family, l.family);
  }
  const std::string bound = engine.layer(0).kernel;
  if (avx512_available()) {
    // Static chain head: AVX-512 outranks AVX2 when both are available.
    EXPECT_EQ(bound, "avx512");
  } else if (avx2_available()) {
    // Middle of the chain: no AVX-512 (hardware or TASD_DISABLE_AVX512
    // as in the avx2 CI leg) falls to the AVX2 family.
    EXPECT_EQ(bound, "avx2");
  } else {
    // Forced-fallback acceptance: without any SIMD family the auto
    // selection must pick the scalar family.
    EXPECT_EQ(bound, "scalar");
  }
}

/// tiny_net() at `positions` columns per layer.
dnn::NetworkWorkload tiny_net_at(Index positions) {
  auto net = tiny_net();
  for (auto& l : net.layers) l.n = positions;
  return net;
}

TEST(KernelSelection, DecodeWidthLayersBindTheGemvFamily) {
  // Positions 1..8 bind the k-vectorized GEMV family on AVX-512 hosts;
  // without it (TASD_DISABLE_AVX512, the avx2 and scalar CI legs, or
  // older hardware) they keep the wide chain's family. Width 0
  // (unknown) and 9+ always take the wide chain.
  for (const Index positions : {1u, 8u}) {
    const auto engine = compile(tiny_net_at(positions), mixed_configs(), {});
    for (std::size_t i = 0; i < engine.layer_count(); ++i) {
      const auto& l = engine.layer(i);
      EXPECT_EQ(l.family, &best_family(positions)) << i;
      if (avx512_available()) {
        EXPECT_EQ(l.kernel, "gemv-avx512") << i;
      } else {
        EXPECT_EQ(l.family, &best_family()) << i;
      }
    }
  }
  for (const Index width : {0u, 9u, 64u})
    EXPECT_EQ(&best_family(width), &best_family());
}

TEST(KernelSelection, NamedFamilyBindsEveryLayerAtEveryWidth) {
  // A named family is honoured at every width — the scalar pin of
  // fig16_real_system keeps working — for both run() and run_batch().
  for (const KernelFamily* family : kernel_families()) {
    CompileOptions pin;
    pin.kernel_family = family->name;
    const auto engine = compile(tiny_net_at(1), mixed_configs(), pin);
    for (std::size_t i = 0; i < engine.layer_count(); ++i) {
      EXPECT_EQ(engine.layer(i).family, family) << i;
      EXPECT_EQ(engine.layer(i).kernel, family->name) << i;
      EXPECT_EQ(engine.layer(i).batch_kernel, family->name) << i;
    }
  }
}

TEST(KernelSelection, UnknownFamilyFailsAtCompileTime) {
  for (const char* name : {"no-such-family", "", "tiled-parallel"}) {
    CompileOptions opt;
    opt.kernel_family = name;
    try {
      (void)compile(tiny_net(), mixed_configs(), opt);
      FAIL() << "compile must reject kernel_family '" << name << "'";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Error::Code::kInvalidArgument);
      EXPECT_NE(std::string(e.what()).find("scalar"), std::string::npos)
          << "the error lists the available families: " << e.what();
    }
  }
}

TEST(KernelSelection, DecodeWidthBindingRunsBitExactBatchedAndLooped) {
  // The decode binding through the artifact: run_batch over a serving-
  // style mix (16 one-column queries plus ragged widths) equals looped
  // run(), at several thread counts, and matches the oracle closely.
  const auto net = tiny_net_at(1);
  Rng rng(9500);
  std::vector<MatrixF> bs;
  for (Index q = 0; q < 16; ++q)
    bs.push_back(random_dense(net.layers[0].k, 1, Dist::kNormalStd1, rng));
  for (const Index cols : {0u, 3u, 9u})
    bs.push_back(random_dense(net.layers[0].k, cols, Dist::kNormalStd1, rng));
  const MatrixF w1 = dnn::materialize_weight(net.layers[1]);
  for (const std::size_t threads : {0u, 1u, 2u, 5u, 8u}) {
    CompileOptions opt;
    opt.measure.num_threads = threads;
    const auto engine = compile(net, mixed_configs(), opt);
    for (std::size_t layer = 0; layer < 2; ++layer) {
      const auto batch = engine.run_batch(layer, bs);
      for (std::size_t q = 0; q < bs.size(); ++q)
        EXPECT_EQ(batch[q], engine.run(layer, bs[q]))
            << "threads=" << threads << " layer=" << layer << " item=" << q;
    }
    EXPECT_TRUE(allclose(engine.run(1, bs[0]), gemm_ref(w1, bs[0]), 1e-4,
                         1e-4));
  }
}

TEST(KernelSelection, AutoSelectedFamiliesStayBitExact) {
  // Whatever family "auto" bound: run() matches the direct kernel path
  // under the layer's policy bitwise at several thread counts, the
  // batched path matches looped run(), and the result agrees with the
  // scalar oracle to float tolerance.
  const auto net = tiny_net();
  const auto engine = compile(net, mixed_configs(), {});
  Rng rng(9200);
  const MatrixF b = random_dense(net.layers[0].k, 11, Dist::kNormalStd1, rng);
  const MatrixF w1 = dnn::materialize_weight(net.layers[1]);

  const MatrixF dense_direct = dense_gemm(w1, b, engine.layer_policy(1));
  EXPECT_EQ(engine.run(1, b), dense_direct);
  EXPECT_TRUE(allclose(dense_direct, gemm_ref(w1, b), 1e-4, 1e-4));

  std::vector<MatrixF> bs;
  for (const Index cols : {1u, 4u, 0u, 9u})
    bs.push_back(random_dense(net.layers[0].k, cols, Dist::kNormalStd1, rng));
  for (const std::size_t threads : {0u, 1u, 2u, 5u, 8u}) {
    CompileOptions opt;
    opt.measure.num_threads = threads;
    const auto at = compile(net, mixed_configs(), opt);
    const auto batch = at.run_batch(0, bs);
    for (std::size_t q = 0; q < bs.size(); ++q)
      EXPECT_EQ(batch[q], at.run(0, bs[q]))
          << "threads=" << threads << " item=" << q;
    EXPECT_EQ(at.run(1, b), dense_direct) << "threads=" << threads;
  }
}

TEST(KernelSelection, AutoSelectionIsBitExactToPinningItsFamily) {
  // When best == scalar (non-AVX2 machine or TASD_DISABLE_AVX2=1), the
  // auto artifact must be indistinguishable from explicitly pinning the
  // scalar family; on SIMD machines this asserts the same for the SIMD
  // family "auto" bound.
  const auto net = tiny_net();
  const auto auto_engine = compile(net, mixed_configs(), {});
  CompileOptions pin;
  pin.kernel_family = auto_engine.layer(0).kernel;
  const auto pinned = compile(net, mixed_configs(), pin);
  Rng rng(9400);
  const MatrixF b = random_dense(net.layers[0].k, 7, Dist::kNormalStd1, rng);
  EXPECT_EQ(auto_engine.run(0, b), pinned.run(0, b));
  EXPECT_EQ(auto_engine.run(1, b), pinned.run(1, b));
}

TEST(KernelSelection, MeasureTimesEachLayersBoundFamily) {
  // measure() and serving_throughput() time each layer's own family: a
  // width-1 layer reports the GEMV family on AVX-512 hosts and the wide
  // chain's family on the other legs, next to a wide layer on the wide
  // chain.
  auto net = tiny_net();
  net.layers[0].n = 1;
  CompileOptions opt;
  opt.measure.repeats = 1;
  const auto engine = compile(net, mixed_configs(), opt);
  const auto timings = engine.measure();
  ASSERT_EQ(timings.size(), 2u);
  EXPECT_EQ(timings[0].family,
            avx512_available() ? "gemv-avx512" : best_family().name);
  EXPECT_EQ(timings[1].family, best_family().name);
  for (std::size_t i = 0; i < timings.size(); ++i) {
    EXPECT_EQ(timings[i].family, engine.layer(i).kernel);
    EXPECT_GT(timings[i].dense_ms, 0.0);
  }
  EXPECT_GT(timings[0].tasd_ms, 0.0);
  const auto serving = engine.serving_throughput({1, 4});
  ASSERT_EQ(serving.size(), 2u);
  for (const auto& r : serving) EXPECT_GT(r.tasd_qps, 0.0);
}

}  // namespace
}  // namespace tasd::rt
