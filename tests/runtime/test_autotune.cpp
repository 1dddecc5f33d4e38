// Per-layer kernel-family autotuning: compile() under
// KernelPolicy::kAutotune times every available family per layer on the
// layer's single-RHS and batch workloads and binds the family with the
// lowest sum. The measurement-override hook (set_autotune_timer)
// replaces the wall clock with injected timings so the selection logic
// is testable deterministically: fixed fake timings must yield a fixed
// binding, run after run.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/rng.hpp"
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

TEST(Autotune, FixedFakeTimingsYieldAFixedBinding) {
  // The fake timer makes the scalar family the fastest on both
  // workloads — deliberately NOT the static pick on SIMD hosts, so a
  // pass proves the injected measurements (and nothing else) drove the
  // binding.
  const TimerGuard guard([](const TuneMeasurement& m) {
    return m.family == "scalar" ? 1.0 : 9.0;
  });
  for (int round = 0; round < 2; ++round) {
    const auto engine = compile(two_layer_net(), mixed_configs(),
                                autotune_opt());
    ASSERT_TRUE(engine.tuning().has_value()) << "round " << round;
    const TuningResult& t = *engine.tuning();
    EXPECT_EQ(t.host_signature, cpu_signature());
    ASSERT_EQ(t.layers.size(), 2U);
    EXPECT_TRUE(t.layers[0].nm);
    EXPECT_FALSE(t.layers[1].nm);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(t.layers[i].chosen, "scalar");
      EXPECT_EQ(engine.layer(i).family, &scalar_family());
      EXPECT_EQ(engine.layer(i).kernel, "scalar");
      EXPECT_EQ(engine.layer(i).batch_kernel, "scalar");
    }
    // Every candidate table covers every available family, in table
    // order, and records the injected timings verbatim.
    for (const LayerTuning& lt : t.layers) {
      ASSERT_EQ(lt.candidates.size(), kernel_families().size());
      for (std::size_t c = 0; c < lt.candidates.size(); ++c) {
        const TuneCandidate& cand = lt.candidates[c];
        EXPECT_EQ(cand.family, kernel_families()[c]->name);
        const double want = cand.family == "scalar" ? 1.0 : 9.0;
        EXPECT_EQ(cand.single_ms, want) << cand.family;
        EXPECT_EQ(cand.batch_ms, want) << cand.family;
      }
    }
  }
}

TEST(Autotune, PerLayerWinnersDivergeWhenTimingsDo) {
  // Two dense layers, opposite preferences: the binding must differ per
  // layer. Needs two families (the scalar CI leg has one).
  if (kernel_families().size() < 2) GTEST_SKIP() << "one family available";
  const std::string last = kernel_families().back()->name;
  const std::vector<std::optional<TasdConfig>> both_dense = {std::nullopt,
                                                             std::nullopt};
  const TimerGuard guard([&](const TuneMeasurement& m) {
    const bool fast =
        m.layer == "a" ? m.family == last : m.family == "scalar";
    return fast ? 0.5 : 2.0;
  });
  const auto engine = compile(two_layer_net(), both_dense, autotune_opt());
  EXPECT_EQ(engine.layer(0).kernel, last);
  EXPECT_EQ(engine.layer(1).kernel, "scalar");
}

TEST(Autotune, BatchedEqualsLoopedAfterTuning) {
  // The mixed-family regression: a timer that favours one family on the
  // single-RHS workload and another on the batch workload. Binding the
  // two winners separately made run_network_batch differ bitwise from
  // looped run_network whenever they were in different rounding
  // families. Each layer must bind exactly one family, so the batched
  // network equals the loop at every thread count.
  const auto& families = kernel_families();
  if (families.size() < 2) GTEST_SKIP() << "one family available";
  const std::string single_fast = families.back()->name;
  const std::string batch_fast = families[families.size() - 2]->name;
  const TimerGuard guard([&](const TuneMeasurement& m) {
    if (!m.batch) return m.family == single_fast ? 1.0 : 5.0;
    return m.family == batch_fast ? 2.0 : 5.0;
  });

  // A three-layer chain at decode width (the serving shape): 2:4, dense,
  // mixed 2:8+1:8.
  dnn::NetworkWorkload net;
  net.name = "tune-chain";
  net.sparse_weights = true;
  const Index dims[] = {40, 56, 48, 32};
  for (int i = 0; i < 3; ++i) {
    dnn::GemmWorkload l;
    l.name = "l" + std::to_string(i);
    l.k = dims[i];
    l.m = dims[i + 1];
    l.n = 1;
    l.weight_density = 0.3;
    l.weight_seed = 7610 + i;
    net.layers.push_back(l);
  }
  const std::vector<std::optional<TasdConfig>> configs = {
      TasdConfig::parse("2:4"), std::nullopt, TasdConfig::parse("2:8+1:8")};

  Rng rng(7620);
  std::vector<MatrixF> inputs;
  for (int q = 0; q < 4; ++q)
    inputs.push_back(random_dense(dims[0], 1, Dist::kNormalStd1, rng));
  inputs.push_back(random_dense(dims[0], 3, Dist::kNormalStd1, rng));

  for (const std::size_t threads : {0u, 1u, 2u, 5u, 8u}) {
    CompileOptions opt = autotune_opt();
    opt.measure.num_threads = threads;
    const auto engine = compile(net, configs, opt);
    ASSERT_TRUE(engine.tuning().has_value());
    for (std::size_t i = 0; i < engine.layer_count(); ++i) {
      const auto& l = engine.layer(i);
      // 1 + 5 beats 5 + 2: the single-RHS winner takes both calls.
      EXPECT_EQ(engine.tuning()->layers[i].chosen, single_fast) << i;
      EXPECT_EQ(l.kernel, single_fast) << i;
      EXPECT_EQ(l.batch_kernel, l.kernel) << i;
      EXPECT_EQ(l.family, find_family(single_fast)) << i;
    }
    const auto batched = engine.run_network_batch(inputs);
    ASSERT_EQ(batched.size(), inputs.size());
    for (std::size_t q = 0; q < inputs.size(); ++q)
      EXPECT_EQ(batched[q], engine.run_network(inputs[q]))
          << "threads=" << threads << " item=" << q;
  }
}

TEST(Autotune, TunedRunMatchesTheStaticallyPinnedFamilyBitwise) {
  const auto net = two_layer_net();
  const TimerGuard guard([](const TuneMeasurement& m) {
    return m.family == "scalar" ? 1.0 : 9.0;
  });
  const auto tuned = compile(net, mixed_configs(), autotune_opt());
  CompileOptions pin;
  pin.kernel_family = "scalar";
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
  // are noisy on CI, but the invariants are not — the chosen family has
  // the lowest single + batch sum of its own table, the table is
  // exactly the available families, and timings are positive.
  const auto engine =
      compile(two_layer_net(), mixed_configs(), autotune_opt());
  ASSERT_TRUE(engine.tuning().has_value());
  for (const LayerTuning& lt : engine.tuning()->layers) {
    ASSERT_EQ(lt.candidates.size(), kernel_families().size());
    double best = lt.candidates.front().total_ms();
    for (std::size_t c = 0; c < lt.candidates.size(); ++c) {
      const TuneCandidate& cand = lt.candidates[c];
      EXPECT_EQ(cand.family, kernel_families()[c]->name);
      EXPECT_GT(cand.single_ms, 0.0) << cand.family;
      EXPECT_GT(cand.batch_ms, 0.0) << cand.family;
      best = std::min(best, cand.total_ms());
    }
    const auto it = std::find_if(
        lt.candidates.begin(), lt.candidates.end(),
        [&](const TuneCandidate& c) { return c.family == lt.chosen; });
    ASSERT_NE(it, lt.candidates.end()) << lt.chosen;
    EXPECT_EQ(it->total_ms(), best) << lt.layer;
  }
}

TEST(Autotune, StaticPolicyCompilesWithoutTuning) {
  const auto engine = compile(two_layer_net(), mixed_configs(), {});
  EXPECT_FALSE(engine.tuning().has_value());
}

TEST(Autotune, CandidatePoolHonorsTheSimdDisableFlags) {
  // Forced-fallback coverage: under TASD_DISABLE_AVX512=1 (the avx2 CI
  // leg) no avx512 family may appear in any table; with
  // TASD_DISABLE_AVX2=1 stacked on top (the scalar leg) no SIMD family
  // at all. On a fully enabled host this asserts the complement — the
  // SIMD families are in the pool and autotune considered them.
  const TimerGuard guard([](const TuneMeasurement&) { return 1.0; });
  const auto engine =
      compile(two_layer_net(), mixed_configs(), autotune_opt());
  ASSERT_TRUE(engine.tuning().has_value());
  for (const LayerTuning& lt : engine.tuning()->layers) {
    const auto has = [&](const std::string& needle) {
      return std::any_of(lt.candidates.begin(), lt.candidates.end(),
                         [&](const TuneCandidate& c) {
                           return c.family.find(needle) != std::string::npos;
                         });
    };
    EXPECT_EQ(has("avx512"), avx512_available()) << lt.layer;
    EXPECT_EQ(has("avx2"), avx2_available()) << lt.layer;
    EXPECT_TRUE(has("scalar")) << lt.layer;
    // Identical timings: ties break toward table order, scalar first.
    EXPECT_EQ(lt.chosen, "scalar") << lt.layer;
  }
}

}  // namespace
}  // namespace tasd::rt
