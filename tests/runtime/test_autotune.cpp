// Per-layer kernel autotuning (ISSUE 10 tentpole): compile() under
// KernelPolicy::kAutotune micro-benches every registered candidate per
// layer and binds the winner. The measurement-override hook
// (set_autotune_timer) replaces the wall clock with injected timings so
// the selection logic is testable deterministically: fixed fake timings
// must yield a fixed binding, run after run.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "kernel_families.hpp"
#include "runtime/autotune.hpp"
#include "runtime/compiled_network.hpp"
#include "tensor/generator.hpp"

namespace tasd::rt {
namespace {

/// RAII: install a fake timer for one test, restore the wall clock on
/// exit so sibling tests (and wall-clock autotune tests) are unaffected.
struct TimerGuard {
  explicit TimerGuard(TuneTimer hook) { set_autotune_timer(std::move(hook)); }
  ~TimerGuard() { set_autotune_timer({}); }
};

dnn::NetworkWorkload two_layer_net() {
  dnn::NetworkWorkload net;
  net.name = "tune-net";
  net.sparse_weights = true;
  dnn::GemmWorkload l1;
  l1.name = "a";
  l1.m = 24;
  l1.k = 48;
  l1.n = 16;
  l1.weight_density = 0.3;
  l1.weight_seed = 7501;
  dnn::GemmWorkload l2 = l1;
  l2.name = "b";
  l2.weight_seed = 7502;
  net.layers = {l1, l2};
  return net;
}

std::vector<std::optional<TasdConfig>> mixed_configs() {
  return {TasdConfig::parse("2:4"), std::nullopt};
}

CompileOptions autotune_opt() {
  CompileOptions opt;
  opt.kernel_policy = KernelPolicy::kAutotune;
  opt.measure.repeats = 2;  // keep the wall-clock path cheap
  return opt;
}

bool contains(const std::vector<std::string>& names, const std::string& n) {
  return std::find(names.begin(), names.end(), n) != names.end();
}

/// The registered names autotune times for one slot.
std::vector<std::string> candidates(std::vector<std::string> registry) {
  std::erase_if(registry,
                [](const std::string& n) { return !autotune_candidate(n); });
  return registry;
}

TEST(Autotune, FixedFakeTimingsYieldAFixedBinding) {
  // The fake timer prefers a different kernel on each layer: the nm
  // layer "a" gets "row-parallel-twin"/"batch-packed-twin", the dense
  // layer "b" gets "tiled-parallel-twin"/"batch-packed-twin" —
  // deliberately NOT the static best_*() picks, so a pass proves the
  // injected measurements (and nothing else) drove the binding.
  testing::register_scalar_twins();
  const TimerGuard guard([](const TuneMeasurement& m) {
    std::string fast = "batch-packed-twin";
    if (!m.batch) fast = m.nm ? "row-parallel-twin" : "tiled-parallel-twin";
    return m.kernel == fast ? 1.0 : 9.0;
  });
  for (int round = 0; round < 2; ++round) {
    const auto engine = compile(two_layer_net(), mixed_configs(),
                                autotune_opt());
    ASSERT_TRUE(engine.tuning().has_value()) << "round " << round;
    const TuningResult& t = *engine.tuning();
    EXPECT_EQ(t.host_signature, cpu_signature());
    ASSERT_EQ(t.layers.size(), 2U);
    EXPECT_EQ(t.find("a")->chosen_single, "row-parallel-twin");
    EXPECT_EQ(t.find("a")->chosen_batch, "batch-packed-twin");
    EXPECT_EQ(t.find("b")->chosen_single, "tiled-parallel-twin");
    EXPECT_EQ(t.find("b")->chosen_batch, "batch-packed-twin");
    // The binding is per layer: layer_policy() overlays the chosen name
    // on the right slot of the network-wide policy.
    EXPECT_EQ(engine.layer_policy(0).nm_kernel, "row-parallel-twin");
    EXPECT_EQ(engine.layer_policy(0).nm_batch_kernel, "batch-packed-twin");
    EXPECT_EQ(engine.layer_policy(1).dense_kernel, "tiled-parallel-twin");
    EXPECT_EQ(engine.layer_policy(1).dense_batch_kernel, "batch-packed-twin");
    // Every candidate table covers the whole candidate pool and records
    // the injected timings verbatim.
    for (const LayerTuning& lt : t.layers) {
      EXPECT_EQ(lt.single.size(),
                candidates(lt.nm ? GemmDispatch::instance().nm_kernels()
                                 : GemmDispatch::instance().dense_kernels())
                    .size());
      for (const TuneCandidate& c : lt.single)
        EXPECT_TRUE(c.ms == 1.0 || c.ms == 9.0) << c.kernel;
    }
  }
}

TEST(Autotune, PerLayerWinnersDivergeWhenTimingsDo) {
  // Two dense layers, opposite preferences: the binding must differ per
  // layer even though both layers share one network-wide policy.
  testing::register_scalar_twins();
  auto net = two_layer_net();
  const std::vector<std::optional<TasdConfig>> both_dense = {std::nullopt,
                                                             std::nullopt};
  const TimerGuard guard([](const TuneMeasurement& m) {
    const bool fast = m.layer == "a" ? m.kernel == "tiled-parallel-twin"
                                     : m.kernel == "tiled-parallel";
    return fast ? 0.5 : 2.0;
  });
  const auto engine = compile(net, both_dense, autotune_opt());
  EXPECT_EQ(engine.layer_policy(0).dense_kernel, "tiled-parallel-twin");
  EXPECT_EQ(engine.layer_policy(1).dense_kernel, "tiled-parallel");
}

TEST(Autotune, SingleThreadAndOracleKernelsAreNeverCandidates) {
  // The fake timer makes every one-thread or oracle kernel look ten
  // times faster than anything else: none may be timed or bound. (A
  // wall-clock tune once bound "serial" on a 4% difference.)
  const std::vector<std::string> excluded = {"serial", "tiled-serial",
                                             "reference", "batch-loop"};
  const TimerGuard guard([&](const TuneMeasurement& m) {
    return contains(excluded, m.kernel) ? 0.1 : 1.0;
  });
  const auto engine =
      compile(two_layer_net(), mixed_configs(), autotune_opt());
  ASSERT_TRUE(engine.tuning().has_value());
  for (const LayerTuning& lt : engine.tuning()->layers) {
    for (const auto* table : {&lt.single, &lt.batch}) {
      ASSERT_FALSE(table->empty()) << lt.layer;
      for (const TuneCandidate& c : *table)
        EXPECT_FALSE(contains(excluded, c.kernel))
            << lt.layer << " " << c.kernel;
    }
    EXPECT_FALSE(contains(excluded, lt.chosen_single)) << lt.layer;
    EXPECT_FALSE(contains(excluded, lt.chosen_batch)) << lt.layer;
  }
  for (const std::string& name : excluded)
    EXPECT_FALSE(autotune_candidate(name)) << name;
  EXPECT_TRUE(autotune_candidate("row-parallel"));
  EXPECT_TRUE(autotune_candidate("batch-packed"));
}

TEST(Autotune, TunedRunMatchesTheStaticallyPinnedKernelBitwise) {
  testing::register_scalar_twins();
  const auto net = two_layer_net();
  const TimerGuard guard([](const TuneMeasurement& m) {
    return m.kernel == (m.nm ? "row-parallel-twin" : "tiled-parallel-twin") ||
                   m.kernel == "batch-packed-twin"
               ? 1.0
               : 9.0;
  });
  const auto tuned = compile(net, mixed_configs(), autotune_opt());
  CompileOptions pin;
  pin.nm_kernel = "row-parallel-twin";
  pin.dense_kernel = "tiled-parallel-twin";
  pin.nm_batch_kernel = "batch-packed-twin";
  pin.dense_batch_kernel = "batch-packed-twin";
  const auto pinned = compile(net, mixed_configs(), pin);
  Rng rng(7600);
  const MatrixF b = random_dense(net.layers[0].k, 9, Dist::kNormalStd1, rng);
  std::vector<MatrixF> bs;
  for (const Index cols : {3u, 0u, 7u})
    bs.push_back(random_dense(net.layers[0].k, cols, Dist::kNormalStd1, rng));
  for (std::size_t layer = 0; layer < 2; ++layer) {
    EXPECT_EQ(tuned.run(layer, b), pinned.run(layer, b)) << layer;
    const auto tb = tuned.run_batch(layer, bs);
    const auto pb = pinned.run_batch(layer, bs);
    for (std::size_t q = 0; q < bs.size(); ++q)
      EXPECT_EQ(tb[q], pb[q]) << layer << "/" << q;
  }
}

TEST(Autotune, WallClockTuningChoosesTheTableMinimum) {
  // No hook installed: real micro-bench timings. The absolute numbers
  // are noisy on CI, but the invariants are not — the chosen kernel is
  // the argmin of its own candidate table, the table is exactly the
  // slot's candidate pool, and timings are positive.
  const auto engine =
      compile(two_layer_net(), mixed_configs(), autotune_opt());
  ASSERT_TRUE(engine.tuning().has_value());
  for (const LayerTuning& lt : engine.tuning()->layers) {
    const auto check = [&](const std::vector<TuneCandidate>& table,
                           const std::string& chosen,
                           const std::vector<std::string>& registry) {
      ASSERT_FALSE(table.empty());
      EXPECT_EQ(table.size(), candidates(registry).size()) << lt.layer;
      double best = table.front().ms;
      for (const TuneCandidate& c : table) {
        EXPECT_GT(c.ms, 0.0) << c.kernel;
        EXPECT_TRUE(contains(candidates(registry), c.kernel)) << c.kernel;
        best = std::min(best, c.ms);
      }
      const auto it =
          std::find_if(table.begin(), table.end(),
                       [&](const TuneCandidate& c) { return c.kernel == chosen; });
      ASSERT_NE(it, table.end()) << chosen;
      EXPECT_EQ(it->ms, best) << lt.layer;
    };
    const auto& d = GemmDispatch::instance();
    check(lt.single, lt.chosen_single, lt.nm ? d.nm_kernels() : d.dense_kernels());
    check(lt.batch, lt.chosen_batch,
          lt.nm ? d.nm_batch_kernels() : d.dense_batch_kernels());
  }
}

TEST(Autotune, StaticPolicyCompilesWithoutTuning) {
  const auto engine = compile(two_layer_net(), mixed_configs(), {});
  EXPECT_FALSE(engine.tuning().has_value());
}

TEST(Autotune, CandidatePoolHonorsTheSimdDisableFlags) {
  // Forced-fallback coverage: under TASD_DISABLE_AVX512=1 (the avx2 CI
  // leg) no avx512 candidate may appear in any table; with
  // TASD_DISABLE_AVX2=1 stacked on top (the scalar leg) no avx kernel
  // at all. On a fully enabled host this asserts the complement — the
  // SIMD families are in the pool and autotune considered them.
  const TimerGuard guard([](const TuneMeasurement&) { return 1.0; });
  const auto engine =
      compile(two_layer_net(), mixed_configs(), autotune_opt());
  ASSERT_TRUE(engine.tuning().has_value());
  for (const LayerTuning& lt : engine.tuning()->layers) {
    for (const auto* table : {&lt.single, &lt.batch}) {
      const bool has512 = std::any_of(
          table->begin(), table->end(), [](const TuneCandidate& c) {
            return c.kernel.find("avx512") != std::string::npos;
          });
      const bool has2 = std::any_of(
          table->begin(), table->end(), [](const TuneCandidate& c) {
            return c.kernel.find("avx2") != std::string::npos;
          });
      EXPECT_EQ(has512, avx512_available()) << lt.layer;
      EXPECT_EQ(has2, avx2_available()) << lt.layer;
    }
  }
}

}  // namespace
}  // namespace tasd::rt
