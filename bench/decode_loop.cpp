// Autoregressive-decode bench: the two sequential execution paths on
// the transformer decode step, per kernel family.
//
// Each step is dnn::decode_step_workload — attention projections,
// score/value mixing against the KV cache, and the MLP pair, all at
// query_cols = 1. That is the GEMV regime: per-layer kernel cost is
// dominated by the weight traversal, so executing a batch of decode
// steps one item at a time (seq_loop — the natural per-request serving
// loop, CompiledNetwork::run_network per item) re-traverses every
// weight per item, while the layer-major batched path (seq_batch —
// run_network_batch) traverses each weight once per batch and pays one
// pool barrier per layer.
//
// The sweep runs per available kernel family (pinned for every layer),
// per pool size, per KV-cache length, per batch. Before timing, every
// cell's batched output is checked bit-exact (`==`) against the per-item
// loop of the same artifact — a wrong-but-fast batch path fails loudly
// here (non-zero exit). `speedup` is seq_loop over seq_batch.
//
// Emits BENCH_decode.json (schema tasd-bench-decode-v2; see
// docs/reproducing.md).
//
// Usage: decode_loop [output.json] [--quick]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "dnn/workloads.hpp"
#include "runtime/compiled_network.hpp"
#include "tensor/generator.hpp"

namespace {

using namespace tasd;

constexpr Index kHidden = 256;

/// 2:4 on the four pruned projection/MLP weights; the KV-cache layers
/// (scores, value mixing) stay dense — they are activations, not
/// weights (workload sets them density 1.0 and TASD-A-ineligible).
std::vector<std::optional<TasdConfig>> decode_configs(
    const dnn::NetworkWorkload& net) {
  std::vector<std::optional<TasdConfig>> configs;
  configs.reserve(net.layers.size());
  for (const auto& l : net.layers) {
    if (l.weight_density < 1.0)
      configs.emplace_back(TasdConfig::parse("2:4"));
    else
      configs.emplace_back(std::nullopt);
  }
  return configs;
}

struct Entry {
  std::size_t threads = 0;
  Index kv = 0;
  std::size_t batch = 0;
  double seq_loop_ms = 0.0;
  double seq_batch_ms = 0.0;
  [[nodiscard]] double speedup() const {
    return seq_batch_ms > 0.0 ? seq_loop_ms / seq_batch_ms : 0.0;
  }
};

struct KernelSetResult {
  std::string label;  ///< kernel family name
  std::vector<Entry> entries;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_decode.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else {
      out_path = arg;
    }
  }

  const std::vector<Index> kv_lens =
      quick ? std::vector<Index>{128, 512} : std::vector<Index>{128, 512, 2048};
  const std::vector<std::size_t> batches =
      quick ? std::vector<std::size_t>{1, 4, 8}
            : std::vector<std::size_t>{1, 4, 8, 16};
  const std::vector<std::size_t> pool_sizes =
      quick ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4};
  const int repeats = quick ? 5 : 9;

  rt::CompileOptions base;
  base.query_cols = 1;
  base.n_divisor = 1;  // decode layers are already n = 1
  base.measure.repeats = 1;

  std::vector<KernelSetResult> results;
  volatile float sink = 0.0F;  // defeat dead-code elimination
  for (const rt::KernelFamily* family : rt::kernel_families()) {
    const std::string label = family->name;
    KernelSetResult r;
    r.label = label;
    for (const std::size_t threads : pool_sizes) {
      for (const Index kv : kv_lens) {
        const auto net = dnn::decode_step_workload(kHidden, kv, true, 42);
        rt::CompileOptions opt = base;
        opt.kernel_family = label;
        opt.measure.num_threads = threads;
        // Plans are shared through the process-wide cache, so only the
        // first artifact per (weights, config) pair decomposes.
        const auto engine = rt::compile(net, decode_configs(net), opt);
        // Dedicated warmup for this family / pool / kv cell: spin
        // the pool up, fault the weights in, and let every execution
        // path touch its buffers once before anything is timed —
        // otherwise the first row of each sweep absorbs those one-time
        // costs and reads slower than the identical later rows.
        {
          Rng wrng(8001 + static_cast<std::uint64_t>(kv));
          const std::vector<MatrixF> warm = {
              random_dense(kHidden, 1, Dist::kNormalStd1, wrng)};
          (void)engine.run_network(warm[0]);
          (void)engine.run_network_batch(warm);
        }

        Rng rng(9001 + static_cast<std::uint64_t>(kv));
        for (const std::size_t batch : batches) {
          std::vector<MatrixF> inputs;
          inputs.reserve(batch);
          for (std::size_t i = 0; i < batch; ++i)
            inputs.push_back(
                random_dense(kHidden, 1, Dist::kNormalStd1, rng));

          // Bit-exactness gate: the batched path must reproduce the
          // per-item loop exactly before its timing means anything.
          const auto batch_out = engine.run_network_batch(inputs);
          for (std::size_t i = 0; i < batch; ++i) {
            if (!(engine.run_network(inputs[i]) == batch_out[i])) {
              std::fprintf(stderr,
                           "** NOT BIT-EXACT: %s threads=%zu kv=%zu "
                           "batch=%zu item %zu **\n",
                           label.c_str(), threads,
                           static_cast<std::size_t>(kv), batch, i);
              return 1;
            }
          }

          Entry e;
          e.threads = threads;
          e.kv = kv;
          e.batch = batch;
          e.seq_loop_ms = time_ms_min(repeats, [&] {
            for (const MatrixF& x : inputs)
              sink = sink + engine.run_network(x)(0, 0);
          });
          e.seq_batch_ms = time_ms_min(repeats, [&] {
            sink = sink + engine.run_network_batch(inputs)[0](0, 0);
          });
          std::fprintf(stderr,
                       "[%s] threads %zu  kv %5zu  batch %3zu  loop %9.4f ms  "
                       "batched %8.4f ms  speedup %.3fx\n",
                       label.c_str(), threads, static_cast<std::size_t>(kv),
                       batch, e.seq_loop_ms, e.seq_batch_ms, e.speedup());
          r.entries.push_back(e);
        }
      }
    }
    results.push_back(std::move(r));
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::perror("decode_loop: cannot open output");
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": \"tasd-bench-decode-v2\",\n");
  std::fprintf(f, "  \"workload\": \"decode_step\",\n");
  std::fprintf(f, "  \"hidden\": %zu,\n", static_cast<std::size_t>(kHidden));
  std::fprintf(f, "  \"config\": \"2:4\",\n");
  std::fprintf(f, "  \"query_cols\": 1,\n");
  std::fprintf(f, "  \"bit_exact\": true,\n");
  std::fprintf(f, "  \"kernel_sets\": [\n");
  for (std::size_t s = 0; s < results.size(); ++s) {
    const auto& r = results[s];
    std::fprintf(f, "    {\"kernels\": \"%s\",\n     \"entries\": [\n",
                 r.label.c_str());
    for (std::size_t i = 0; i < r.entries.size(); ++i) {
      const auto& e = r.entries[i];
      std::fprintf(f,
                   "      {\"threads\": %zu, \"kv\": %zu, \"batch\": %zu, "
                   "\"seq_loop_ms\": %.6f, \"seq_batch_ms\": %.6f, "
                   "\"speedup\": %.6f}%s\n",
                   e.threads, static_cast<std::size_t>(e.kv), e.batch,
                   e.seq_loop_ms, e.seq_batch_ms, e.speedup(),
                   i + 1 < r.entries.size() ? "," : "");
    }
    std::fprintf(f, "     ]}%s\n", s + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
