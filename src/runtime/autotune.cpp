#include "runtime/autotune.hpp"

#include <algorithm>
#include <utility>

#include "common/cpu_features.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/dense_gemm.hpp"
#include "tensor/generator.hpp"

namespace tasd::rt {

namespace {

// Measurement-override hook (test seam). Plain static: set/cleared from
// one thread before compiling, per the header contract.
TuneTimer& timer_hook() {
  static TuneTimer hook;
  return hook;
}

}  // namespace

void set_autotune_timer(TuneTimer hook) { timer_hook() = std::move(hook); }

const LayerTuning* TuningResult::find(const std::string& layer) const {
  for (const auto& l : layers)
    if (l.layer == layer) return &l;
  return nullptr;
}

namespace detail {

TuningResult run_autotune(CompiledNetwork& net) {
  const CompileOptions& opt = net.options();
  const TuneTimer& hook = timer_hook();

  TuningResult result;
  result.host_signature = cpu_signature();
  result.layers.reserve(net.layers_.size());

  Rng rng(opt.measure.data_seed);
  volatile float sink = 0.0F;  // defeat dead-code elimination
  for (auto& l : net.layers_) {
    LayerTuning lt;
    lt.layer = l.name;
    lt.nm = l.series.has_value();

    // The tuning workloads mirror what the artifact will execute: the
    // single-RHS call at measure()'s shrunk width (the n_divisor story —
    // both engines scale linearly in N, so the shrink preserves the
    // ranking), the batch call at autotune_batch_hint serving queries of
    // query_cols width each.
    const Index n_single = measured_n(l.n, opt.n_divisor);
    const MatrixF b = random_dense(l.k, n_single, Dist::kNormalStd1, rng);
    std::vector<MatrixF> bs;
    bs.reserve(opt.autotune_batch_hint);
    for (std::size_t q = 0; q < opt.autotune_batch_hint; ++q)
      bs.push_back(random_dense(l.k, opt.query_cols, Dist::kNormalStd1, rng));

    for (const KernelFamily* family : kernel_families()) {
      const ExecPolicy p{net.pool_.get(), family};
      TuneCandidate c;
      c.family = family->name;
      if (hook) {
        c.single_ms =
            hook({l.name, c.family, lt.nm, false, l.m, l.k, n_single, 0});
        c.batch_ms = hook({l.name, c.family, lt.nm, true, l.m, l.k,
                           opt.query_cols, bs.size()});
      } else {
        c.single_ms = time_ms_min(opt.measure.repeats, [&] {
          const MatrixF out = lt.nm ? l.series->multiply(b, p)
                                    : dense_gemm(l.weight, b, p);
          sink = sink + out(0, 0);
        });
        c.batch_ms = time_ms_min(opt.measure.repeats, [&] {
          const auto outs = lt.nm ? l.series->multiply_batch(bs, p)
                                  : dense_gemm_batch(l.weight, bs, p);
          sink = sink + outs[0](0, 0);
        });
      }
      lt.candidates.push_back(std::move(c));
    }

    // Lowest sum wins; ties break toward table order (scalar first), so
    // identical timings give a deterministic binding.
    const auto best = std::min_element(
        lt.candidates.begin(), lt.candidates.end(),
        [](const TuneCandidate& a, const TuneCandidate& c) {
          return a.total_ms() < c.total_ms();
        });
    lt.chosen = best->family;
    l.bind(*kernel_families()[best - lt.candidates.begin()]);
    result.layers.push_back(std::move(lt));
  }
  return result;
}

bool apply_tuning(CompiledNetwork& net, const TuningResult& tuning) {
  if (tuning.host_signature != cpu_signature()) return false;
  // All-or-nothing: validate every layer before touching any binding, so
  // a result that only half-transfers never leaves a mixed state.
  std::vector<const KernelFamily*> chosen;
  chosen.reserve(net.layers_.size());
  for (const auto& l : net.layers_) {
    const LayerTuning* lt = tuning.find(l.name);
    if (lt == nullptr || lt->nm != l.series.has_value()) return false;
    const KernelFamily* family = find_family(lt->chosen);
    if (family == nullptr) return false;
    chosen.push_back(family);
  }
  for (std::size_t i = 0; i < net.layers_.size(); ++i)
    net.layers_[i].bind(*chosen[i]);
  net.tuning_ = tuning;
  return true;
}

}  // namespace detail

}  // namespace tasd::rt
