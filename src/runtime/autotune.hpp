// Per-layer kernel-family autotuning: make rt::compile pick each layer's
// family by measurement instead of the static best_family() chain. The
// fastest family is a function of (shape, batch, threads) — the wide
// SIMD tile cores win at wide N, the GEMV family at decode widths — and
// SparseRT (PAPERS.md) shows the win of ahead-of-time per-matrix
// specialization.
//
// When CompileOptions::kernel_policy == KernelPolicy::kAutotune,
// assemble_network times every available family (kernel_families()) on
// each layer's two workloads — the single-RHS call at the measured
// width and the batch call at the batch hint — on the compiling host
// (min-of-N with an untimed warmup via time_ms_min), binds the family
// with the lowest sum, and records the full TuningResult (candidate
// tables, timings, chosen family, host CPU signature) on the
// CompiledNetwork. One family per layer serves both calls, so a tuned
// layer's run_batch() is bit-identical to looping its run(). save_artifact
// serializes the result into the artifact's tuning section;
// load_artifact restores the binding when tasd::cpu_signature() matches
// and falls back to best_family() when it doesn't (docs/artifact.md).
//
// Correctness is unaffected by construction: families agree to float
// tolerance (docs/kernels.md), so an autotuned network differs from a
// statically-bound one at most by family rounding.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"

namespace tasd::rt {

class CompiledNetwork;

/// One timed family: its min-of-N times on this layer's single-RHS and
/// batch workloads.
struct TuneCandidate {
  std::string family;
  double single_ms = 0.0;
  double batch_ms = 0.0;

  /// What the tuner minimizes: the layer serves both calls.
  [[nodiscard]] double total_ms() const { return single_ms + batch_ms; }
};

/// Tuning record of one layer: the full candidate table (so benches and
/// artifacts can report *why* a family won, not just which) and the
/// chosen family.
struct LayerTuning {
  std::string layer;
  bool nm = false;  ///< candidates timed the N:M entries (layer has a
                    ///< bound series) rather than the dense entries
  std::vector<TuneCandidate> candidates;
  std::string chosen;
};

/// A whole network's tuning: per-layer records plus the host signature
/// they were measured under (tasd::cpu_signature()). Only trusted —
/// restored from an artifact — on a host reporting the same signature.
struct TuningResult {
  std::string host_signature;
  std::vector<LayerTuning> layers;

  /// The record for `layer`, or nullptr.
  [[nodiscard]] const LayerTuning* find(const std::string& layer) const;
};

/// What one timer invocation measured — handed to the override hook so a
/// fake timer can key its answer on everything the real one depends on.
struct TuneMeasurement {
  std::string layer;
  std::string family;
  bool nm = false;     ///< N:M entry (vs dense entry)
  bool batch = false;  ///< batch workload (vs single-RHS workload)
  Index m = 0, k = 0, n = 0;   ///< timed operand shape (n = RHS width)
  std::size_t batch_items = 0;  ///< batch item count (0 for single)
};

/// Measurement override: when set, autotune calls the hook instead of
/// wall-clock timing — the deterministic-CI seam (fixed fake timings
/// must yield a fixed binding; tests/runtime/test_autotune.cpp). Pass an
/// empty function to restore wall-clock measurement. Not thread-safe:
/// set it before compiling, from one thread (a test fixture, not
/// production code).
using TuneTimer = std::function<double(const TuneMeasurement&)>;
void set_autotune_timer(TuneTimer hook);

namespace detail {

/// Time every available family for every layer of `net`, rebind each
/// layer to its winner, and return the full record. Called by
/// assemble_network under kAutotune; requires the layers to be bound.
TuningResult run_autotune(CompiledNetwork& net);

/// Rebind `net`'s layers from a deserialized tuning result. Returns
/// false — leaving the static binding untouched — when the result does
/// not transfer to this process: host signature mismatch, layer set
/// mismatch, or a chosen family that is not available here.
bool apply_tuning(CompiledNetwork& net, const TuningResult& tuning);

}  // namespace detail

}  // namespace tasd::rt
