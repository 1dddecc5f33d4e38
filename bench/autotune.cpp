// Autotune bench: does per-layer family binding by measurement ever
// lose to the static best_family() chain, and does the tuned artifact
// round-trip?
//
// The network mixes layer shapes and patterns on purpose — a skinny
// GEMV-regime layer, a wide batch-friendly layer, a mixed 2:8+1:8
// series, a dense layer — so different families get a chance to win
// different layers. compile() under KernelPolicy::kAutotune times every
// available family per layer on its single-RHS and batch workloads with
// time_ms_min (min-of-N, untimed warmup); the emitted JSON carries the
// full candidate tables, the chosen family, and the static family's
// timing *from the same table*, so "chosen vs static" compares
// measurements taken identically in the same process.
//
// Hard gates (non-zero exit):
//  * per layer, chosen single + batch <= static single + batch — the
//    winner is the table argmin and the static family is in the table,
//    so autotuning can never regress a layer beyond measurement noise
//    (and the noise is shared: one table, one protocol);
//  * the tuned network matches a scalar-pinned compile of the same
//    network to 1e-4 on random inputs (tuning may change the rounding
//    family, never the math);
//  * save → load restores the binding verbatim with zero decompositions
//    and the loaded network runs bit-exact to the tuned one.
//
// Emits BENCH_autotune.json (schema tasd-bench-autotune-v2; see
// docs/reproducing.md).
//
// Usage: autotune [output.json] [--quick]
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "artifact/artifact.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/plan_cache.hpp"
#include "dnn/workloads.hpp"
#include "runtime/autotune.hpp"
#include "runtime/compiled_network.hpp"
#include "tensor/generator.hpp"
#include "tensor/norms.hpp"

namespace {

using namespace tasd;

dnn::NetworkWorkload bench_net(bool quick) {
  const Index scale = quick ? 1 : 2;
  dnn::NetworkWorkload net;
  net.name = "autotune-bench";
  net.sparse_weights = true;
  dnn::GemmWorkload skinny;  // GEMV regime: weight traversal dominates
  skinny.name = "skinny";
  skinny.m = 192 * scale;
  skinny.k = 256 * scale;
  skinny.n = 1;
  skinny.weight_density = 0.25;
  skinny.weight_seed = 7701;
  dnn::GemmWorkload wide = skinny;  // batch-friendly: wide RHS
  wide.name = "wide";
  wide.n = 64 * scale;
  wide.weight_seed = 7702;
  dnn::GemmWorkload mixed = skinny;  // two-term series, ragged K
  mixed.name = "mixed";
  mixed.k = 120 * scale;
  mixed.n = 16;
  mixed.weight_seed = 7703;
  dnn::GemmWorkload dense = skinny;  // dense slot
  dense.name = "dense";
  dense.weight_density = 1.0;
  dense.n = 24;
  dense.weight_seed = 7704;
  net.layers = {skinny, wide, mixed, dense};
  return net;
}

std::vector<std::optional<TasdConfig>> bench_configs() {
  return {TasdConfig::parse("2:4"), TasdConfig::parse("2:4"),
          TasdConfig::parse("2:8+1:8"), std::nullopt};
}

/// The candidate for `family` in a layer's table, or nullptr.
const rt::TuneCandidate* candidate(const rt::LayerTuning& lt,
                                   const std::string& family) {
  for (const auto& c : lt.candidates)
    if (c.family == family) return &c;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_autotune.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick")
      quick = true;
    else
      out_path = arg;
  }

  const auto net = bench_net(quick);
  const auto configs = bench_configs();

  rt::CompileOptions tune_opt;
  tune_opt.kernel_policy = rt::KernelPolicy::kAutotune;
  tune_opt.measure.repeats = quick ? 3 : 7;
  std::fprintf(stderr, "[autotune] compiling + tuning %zu layers on %s...\n",
               net.layers.size(), cpu_signature().c_str());
  const auto tuned = rt::compile(net, configs, tune_opt);
  if (!tuned.tuning().has_value()) {
    std::fprintf(stderr, "** kAutotune produced no TuningResult **\n");
    return 1;
  }
  const rt::TuningResult& result = *tuned.tuning();

  // The static chain's picks, for the chosen-vs-static comparison. The
  // static family sits in the same candidate table the tuner measured,
  // so both sides of every ratio share one measurement protocol.
  std::vector<std::string> static_family;
  bool never_slower = true;
  for (std::size_t i = 0; i < result.layers.size(); ++i) {
    const rt::LayerTuning& lt = result.layers[i];
    static_family.emplace_back(rt::best_family(net.layers[i].n).name);
    const rt::TuneCandidate* chosen = candidate(lt, lt.chosen);
    const rt::TuneCandidate* fixed = candidate(lt, static_family.back());
    if (chosen == nullptr || fixed == nullptr) {
      std::fprintf(stderr, "** %s: family missing from its table **\n",
                   lt.layer.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "[autotune] %-7s chosen %-12s %8.4f + %8.4f ms (static "
                 "%-12s %8.4f + %8.4f ms)\n",
                 lt.layer.c_str(), lt.chosen.c_str(), chosen->single_ms,
                 chosen->batch_ms, static_family.back().c_str(),
                 fixed->single_ms, fixed->batch_ms);
    if (chosen->total_ms() > fixed->total_ms()) {
      std::fprintf(stderr, "** autotuned binding slower than static on %s **\n",
                   lt.layer.c_str());
      never_slower = false;
    }
  }
  if (!never_slower) return 1;

  // Correctness gate: the tuned network against a scalar-pinned compile
  // of the same weights — whatever family won, the math must agree.
  rt::CompileOptions scalar_opt;
  scalar_opt.kernel_family = "scalar";
  const auto scalar = rt::compile(net, configs, scalar_opt);
  Rng rng(7790);
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const MatrixF b =
        random_dense(net.layers[i].k, 5, Dist::kNormalStd1, rng);
    if (!allclose(tuned.run(i, b), scalar.run(i, b), 1e-4, 1e-4)) {
      std::fprintf(stderr, "** tuned layer %zu diverges from scalar run **\n",
                   i);
      return 1;
    }
  }
  std::fprintf(stderr, "[autotune] scalar correctness gate passed\n");

  // Round-trip gate: the tuned artifact must come back with the binding
  // restored, zero decompositions, and bit-exact execution.
  const std::string art_path = out_path + ".tasdart";
  save_artifact(tuned, art_path);
  plan_cache().clear();
  const auto before = plan_cache().stats();
  const double load_ms = [&] {
    Timer t;
    const auto loaded = rt::load_artifact(art_path, {});
    const double ms = t.millis();
    const auto after = plan_cache().stats();
    if (after.decompositions != before.decompositions) {
      std::fprintf(stderr, "** tuned load decomposed **\n");
      std::exit(1);
    }
    if (!loaded.tuning().has_value()) {
      std::fprintf(stderr, "** tuned load dropped the binding **\n");
      std::exit(1);
    }
    for (std::size_t i = 0; i < loaded.layer_count(); ++i) {
      if (loaded.layer(i).family != tuned.layer(i).family) {
        std::fprintf(stderr, "** binding not restored on layer %zu **\n", i);
        std::exit(1);
      }
      Rng prng(7791 + i);
      const MatrixF b =
          random_dense(net.layers[i].k, 3, Dist::kNormalStd1, prng);
      if (!(loaded.run(i, b) == tuned.run(i, b))) {
        std::fprintf(stderr, "** loaded tuned network not bit-exact **\n");
        std::exit(1);
      }
    }
    return ms;
  }();
  std::remove(art_path.c_str());
  std::fprintf(stderr,
               "[autotune] round-trip gate passed (load %0.3f ms, zero "
               "decompositions)\n",
               load_ms);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::perror("autotune: cannot open output");
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": \"tasd-bench-autotune-v2\",\n");
  std::fprintf(f, "  \"host_signature\": \"%s\",\n",
               result.host_signature.c_str());
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"repeats\": %d,\n", tune_opt.measure.repeats);
  std::fprintf(f, "  \"never_slower_than_static\": true,\n");
  std::fprintf(f, "  \"scalar_correctness\": true,\n");
  std::fprintf(f, "  \"roundtrip_restored\": true,\n");
  std::fprintf(f, "  \"roundtrip_load_ms\": %.4f,\n", load_ms);
  std::fprintf(f, "  \"layers\": [\n");
  for (std::size_t i = 0; i < result.layers.size(); ++i) {
    const rt::LayerTuning& lt = result.layers[i];
    const rt::TuneCandidate& chosen = *candidate(lt, lt.chosen);
    const rt::TuneCandidate& fixed = *candidate(lt, static_family[i]);
    std::fprintf(f, "    {\n      \"layer\": \"%s\",\n", lt.layer.c_str());
    std::fprintf(f, "      \"nm\": %s,\n", lt.nm ? "true" : "false");
    std::fprintf(f, "      \"chosen\": \"%s\",\n", lt.chosen.c_str());
    std::fprintf(f, "      \"static\": \"%s\",\n", static_family[i].c_str());
    std::fprintf(f, "      \"chosen_ms\": %.6f,\n", chosen.total_ms());
    std::fprintf(f, "      \"static_ms\": %.6f,\n", fixed.total_ms());
    std::fprintf(f, "      \"candidates\": [");
    for (std::size_t c = 0; c < lt.candidates.size(); ++c)
      std::fprintf(f,
                   "%s{\"family\": \"%s\", \"single_ms\": %.6f, "
                   "\"batch_ms\": %.6f}",
                   c == 0 ? "" : ", ", lt.candidates[c].family.c_str(),
                   lt.candidates[c].single_ms, lt.candidates[c].batch_ms);
    std::fprintf(f, "]\n    }%s\n", i + 1 < result.layers.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[autotune] wrote %s\n", out_path.c_str());
  return 0;
}
