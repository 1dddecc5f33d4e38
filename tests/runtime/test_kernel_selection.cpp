// Kernel auto-selection: CompileOptions' "auto" names resolve through
// GemmDispatch::best_*() at compile() time — per layer at its width
// (positions 1..8 bind the decode-width GEMV family when registered),
// then the static fallback chain avx512 > avx2 > scalar, walking down as
// runtime detection (or the TASD_DISABLE_AVX512 / TASD_DISABLE_AVX2
// escape hatches the CI matrix legs set) removes families. On a
// scalar-only pool "auto" must bind the tiled kernels and stay
// bit-exact.
#include <gtest/gtest.h>

#include "common/cpu_features.hpp"
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
  const auto& dispatch = GemmDispatch::instance();
  const auto& opt = engine.options();
  // The artifact's bound names are concrete registry names, never the
  // "auto" sentinel, and equal the registry's best picks.
  EXPECT_EQ(opt.dense_kernel, dispatch.best_dense());
  EXPECT_EQ(opt.nm_kernel, dispatch.best_nm());
  EXPECT_EQ(opt.dense_batch_kernel, dispatch.best_dense_batch());
  EXPECT_EQ(opt.nm_batch_kernel, dispatch.best_nm_batch());
  // Each layer binds through the same resolver at its own width (32
  // positions here: the wide chain, equal to the network-wide names).
  for (std::size_t i = 0; i < engine.layer_count(); ++i) {
    const auto& l = engine.layer(i);
    const bool nm = l.series.has_value();
    EXPECT_EQ(l.kernel, nm ? dispatch.best_nm(l.n) : dispatch.best_dense(l.n));
    EXPECT_EQ(l.batch_kernel, nm ? dispatch.best_nm_batch(l.n)
                                 : dispatch.best_dense_batch(l.n));
    EXPECT_EQ(l.kernel, nm ? opt.nm_kernel : opt.dense_kernel);
  }
  if (avx512_available()) {
    // Static chain head: AVX-512 outranks AVX2 when both registered.
    EXPECT_EQ(opt.dense_kernel, "dense-avx512");
    EXPECT_EQ(opt.nm_kernel, "nm-avx512");
    EXPECT_EQ(opt.dense_batch_kernel, "dense-batch-avx512");
    EXPECT_EQ(opt.nm_batch_kernel, "nm-batch-avx512");
  } else if (avx2_available()) {
    // Middle of the chain: no AVX-512 (hardware or TASD_DISABLE_AVX512
    // as in the avx2 CI leg) falls to the AVX2 family.
    EXPECT_EQ(opt.dense_kernel, "dense-avx2");
    EXPECT_EQ(opt.nm_kernel, "nm-avx2");
  } else {
    // Forced-fallback acceptance: without any SIMD family the auto
    // selection must pick the scalar tiled kernels.
    EXPECT_EQ(opt.dense_kernel, "tiled-parallel");
    EXPECT_EQ(opt.nm_kernel, "row-parallel");
    EXPECT_EQ(opt.dense_batch_kernel, "batch-packed");
    EXPECT_EQ(opt.nm_batch_kernel, "batch-packed");
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
  // older hardware) they keep the wide chain's names. Width 0 (unknown)
  // and 9+ always take the wide chain.
  const auto& dispatch = GemmDispatch::instance();
  for (const Index positions : {1u, 8u}) {
    const auto engine = compile(tiny_net_at(positions), mixed_configs(), {});
    const auto& nm = engine.layer(0);
    const auto& dense = engine.layer(1);
    EXPECT_EQ(nm.kernel, dispatch.best_nm(positions));
    EXPECT_EQ(nm.batch_kernel, dispatch.best_nm_batch(positions));
    EXPECT_EQ(dense.kernel, dispatch.best_dense(positions));
    EXPECT_EQ(dense.batch_kernel, dispatch.best_dense_batch(positions));
    if (avx512_available()) {
      EXPECT_EQ(nm.kernel, "nm-gemv-avx512");
      EXPECT_EQ(nm.batch_kernel, "nm-batch-gemv-avx512");
      EXPECT_EQ(dense.kernel, "dense-gemv-avx512");
      EXPECT_EQ(dense.batch_kernel, "dense-batch-gemv-avx512");
    } else {
      // Today's names: the widest registered family, scalar last.
      EXPECT_EQ(nm.kernel, dispatch.best_nm());
      EXPECT_EQ(nm.batch_kernel, dispatch.best_nm_batch());
      EXPECT_EQ(dense.kernel, dispatch.best_dense());
      EXPECT_EQ(dense.batch_kernel, dispatch.best_dense_batch());
    }
    // The network-wide names (policy(), measure()) stay the wide chain.
    EXPECT_EQ(engine.options().nm_kernel, dispatch.best_nm());
  }
  for (const Index width : {0u, 9u, 64u}) {
    EXPECT_EQ(dispatch.best_nm(width), dispatch.best_nm());
    EXPECT_EQ(dispatch.best_dense(width), dispatch.best_dense());
    EXPECT_EQ(dispatch.best_nm_batch(width), dispatch.best_nm_batch());
    EXPECT_EQ(dispatch.best_dense_batch(width), dispatch.best_dense_batch());
  }
}

TEST(KernelSelection, ExplicitNamesAreKeptAtDecodeWidth) {
  // An explicit name is honoured at every width — the scalar pin of
  // fig16_real_system keeps working — and "auto" in one slot does not
  // leak into the explicitly named ones.
  CompileOptions pin;
  pin.nm_kernel = "row-parallel";
  pin.dense_kernel = "tiled-parallel";
  pin.nm_batch_kernel = "batch-packed";
  const auto engine = compile(tiny_net_at(1), mixed_configs(), pin);
  EXPECT_EQ(engine.layer(0).kernel, "row-parallel");
  EXPECT_EQ(engine.layer(0).batch_kernel, "batch-packed");
  EXPECT_EQ(engine.layer(1).kernel, "tiled-parallel");
  EXPECT_EQ(engine.layer(1).batch_kernel,
            GemmDispatch::instance().best_dense_batch(1));
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

TEST(KernelSelection, AutoSelectedKernelsStayBitExact) {
  // Whatever family "auto" bound: run() matches the direct kernel path
  // under the resolved policy bitwise at several thread counts, the
  // batched path matches looped run(), and the result agrees with the
  // scalar oracle to float tolerance.
  const auto net = tiny_net();
  const auto engine = compile(net, mixed_configs(), {});
  Rng rng(9200);
  const MatrixF b = random_dense(net.layers[0].k, 11, Dist::kNormalStd1, rng);
  const MatrixF w1 = dnn::materialize_weight(net.layers[1]);

  ExecPolicy resolved = engine.policy();
  const MatrixF dense_direct = dense_gemm(w1, b, resolved);
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

TEST(KernelSelection, EmptyNamesKeepRegistryDefaults) {
  // "" (the pre-auto spelling) still means the registry defaults, which
  // stay scalar — existing callers that pinned the defaults keep their
  // exact bits regardless of what hardware the process lands on.
  CompileOptions opt;
  opt.dense_kernel.clear();
  opt.nm_kernel.clear();
  opt.dense_batch_kernel.clear();
  opt.nm_batch_kernel.clear();
  const auto engine = compile(tiny_net(), mixed_configs(), opt);
  EXPECT_EQ(engine.options().dense_kernel, "");
  Rng rng(9300);
  const MatrixF b =
      random_dense(tiny_net().layers[0].k, 5, Dist::kNormalStd1, rng);
  CompileOptions scalar;
  scalar.dense_kernel = "tiled-parallel";
  scalar.nm_kernel = "row-parallel";
  scalar.dense_batch_kernel = "batch-packed";
  scalar.nm_batch_kernel = "batch-packed";
  const auto pinned = compile(tiny_net(), mixed_configs(), scalar);
  EXPECT_EQ(engine.run(0, b), pinned.run(0, b));
  EXPECT_EQ(engine.run(1, b), pinned.run(1, b));
}

TEST(KernelSelection, ScalarFallbackSelectionIsBitExactToPinnedScalar) {
  // When best == scalar (non-AVX2 machine or TASD_DISABLE_AVX2=1), the
  // auto artifact must be indistinguishable from explicitly pinning the
  // scalar kernels. On AVX2 machines this asserts the complementary
  // fact for the AVX2 family.
  const auto net = tiny_net();
  const auto auto_engine = compile(net, mixed_configs(), {});
  CompileOptions pin;
  pin.dense_kernel = auto_engine.options().dense_kernel;
  pin.nm_kernel = auto_engine.options().nm_kernel;
  pin.dense_batch_kernel = auto_engine.options().dense_batch_kernel;
  pin.nm_batch_kernel = auto_engine.options().nm_batch_kernel;
  const auto pinned = compile(net, mixed_configs(), pin);
  Rng rng(9400);
  const MatrixF b = random_dense(net.layers[0].k, 7, Dist::kNormalStd1, rng);
  EXPECT_EQ(auto_engine.run(0, b), pinned.run(0, b));
  EXPECT_EQ(auto_engine.run(1, b), pinned.run(1, b));
}

}  // namespace
}  // namespace tasd::rt
