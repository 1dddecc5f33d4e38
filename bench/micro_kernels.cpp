// Kernel microbenchmarks: dense vs N:M-compressed vs TASD-series GEMM
// across the parallel execution layer's thread counts AND the kernel
// families (scalar vs AVX2/FMA side by side), plus
// decomposition and plan-cache throughput.
//
// Emits BENCH_kernels.json (schema tasd-bench-kernels-v4; see
// docs/reproducing.md). Every parallel measurement is checked bit-exact
// against the serial result of the *same* implementation before it is
// recorded — a wrong-but-fast kernel fails loudly here. The AVX2 rows
// additionally record speedup_vs_scalar: their win over the scalar
// implementation at the same thread count (the acceptance number of the
// SIMD backend).
//
// Usage: micro_kernels [output.json] [--quick]
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/decompose.hpp"
#include "core/plan_cache.hpp"
#include "runtime/dense_gemm.hpp"
#include "runtime/nm_gemm.hpp"
#include "tensor/generator.hpp"

namespace {

using namespace tasd;

struct Entry {
  std::string kernel;  ///< operation family: dense_gemm / nm_gemm / ...
  std::string impl;    ///< kernel family executing it
  Index m = 0, k = 0, n = 0;
  std::string config;
  double sparsity = 0.0;
  std::size_t threads = 1;
  double ms = 0.0;
  double gops = 0.0;
  double speedup_vs_serial = 1.0;
  double speedup_vs_scalar = 1.0;  ///< same op/shape/threads, scalar impl
  bool bit_exact = true;
};

/// Run `make_result` at every thread count, timing it and checking the
/// output bit-exact against the serial (1-thread) result of the same
/// implementation. `scalar_ms` maps threads -> the scalar impl's time for
/// this op/shape (filled by the scalar sweep, consumed by SIMD sweeps).
void sweep(const std::string& kernel, const std::string& impl, Index m,
           Index k, Index n, const std::string& config, double sparsity,
           double macs, int repeats,
           const std::vector<std::size_t>& thread_counts,
           const std::function<MatrixF(rt::ExecPolicy&)>& make_result,
           std::map<std::size_t, double>* scalar_ms,
           std::vector<Entry>& out) {
  const bool is_scalar_baseline = scalar_ms != nullptr && scalar_ms->empty();
  double serial_ms = 0.0;
  MatrixF serial_result;
  for (std::size_t threads : thread_counts) {
    rt::ThreadPool pool(threads);
    rt::ExecPolicy policy;
    policy.pool = &pool;
    MatrixF result = make_result(policy);
    const double ms =
        time_ms_min(repeats, [&] { result = make_result(policy); });
    Entry e{kernel, impl, m,  k,  n,   config, sparsity, threads,
            ms,     macs / (ms * 1e6),  // 1e9 ops/s from ms
            1.0,    1.0, true};
    if (threads == thread_counts.front()) {
      serial_ms = ms;
      serial_result = std::move(result);
    } else {
      e.speedup_vs_serial = serial_ms / ms;
      e.bit_exact = (result == serial_result);
    }
    if (scalar_ms != nullptr) {
      if (is_scalar_baseline)
        (*scalar_ms)[threads] = ms;
      else if (auto it = scalar_ms->find(threads); it != scalar_ms->end())
        e.speedup_vs_scalar = it->second / ms;
    }
    std::fprintf(stderr,
                 "%-10s %-16s %4zux%-4zux%-4zu %-8s t=%zu  %8.3f ms"
                 "  %5.2fx scalar%s\n",
                 kernel.c_str(), impl.c_str(), static_cast<std::size_t>(m),
                 static_cast<std::size_t>(k), static_cast<std::size_t>(n),
                 config.empty() ? "-" : config.c_str(), threads, e.ms,
                 e.speedup_vs_scalar,
                 e.bit_exact ? "" : "  ** NOT BIT-EXACT **");
    out.push_back(std::move(e));
  }
}

void write_json(const std::string& path, const std::vector<Entry>& entries) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::perror("micro_kernels: cannot open output");
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"tasd-bench-kernels-v4\",\n");
  std::fprintf(f, "  \"avx2_available\": %s,\n",
               avx2_available() ? "true" : "false");
  std::fprintf(f, "  \"entries\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(
        f,
        "    {\"kernel\": \"%s\", \"impl\": \"%s\", \"m\": %zu, \"k\": %zu, "
        "\"n\": %zu, \"config\": \"%s\", \"sparsity\": %.6f, "
        "\"threads\": %zu, \"ms\": %.6f, \"gops\": %.6f, "
        "\"speedup_vs_serial\": %.6f, \"speedup_vs_scalar\": %.6f, "
        "\"bit_exact\": %s}%s\n",
        e.kernel.c_str(), e.impl.c_str(), static_cast<std::size_t>(e.m),
        static_cast<std::size_t>(e.k), static_cast<std::size_t>(e.n),
        e.config.c_str(), e.sparsity, e.threads, e.ms, e.gops,
        e.speedup_vs_serial, e.speedup_vs_scalar,
        e.bit_exact ? "true" : "false", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// Families to sweep: scalar first (it seeds the speedup_vs_scalar
/// baseline), then avx2 when this process can run it.
std::vector<const rt::KernelFamily*> impls() {
  std::vector<const rt::KernelFamily*> out{&rt::scalar_family()};
  if (const rt::KernelFamily* avx2 = rt::find_family("avx2"))
    out.push_back(avx2);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernels.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else {
      out_path = arg;
    }
  }

  // Minimum-of-repeats absorbs scheduler jitter; 5 keeps the scalar/AVX2
  // per-thread-count comparisons stable even on a loaded single-core box.
  const int repeats = quick ? 1 : 5;
  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  const std::vector<Index> gemm_sizes =
      quick ? std::vector<Index>{128, 256} : std::vector<Index>{256, 512, 1024};

  const auto families = impls();

  std::vector<Entry> entries;
  Rng rng(9001);

  // Dense GEMM (every MAC executed), scalar vs AVX2.
  for (Index n : gemm_sizes) {
    const MatrixF a = random_dense(n, n, Dist::kNormalStd1, rng);
    const MatrixF b = random_dense(n, n, Dist::kNormalStd1, rng);
    std::map<std::size_t, double> scalar_ms;
    for (const rt::KernelFamily* impl : families)
      sweep("dense_gemm", impl->name, n, n, n, "", 0.0,
            2.0 * static_cast<double>(n) * n * n, repeats, thread_counts,
            [&](rt::ExecPolicy& p) {
              p.family = impl;
              return rt::dense_gemm(a, b, p);
            },
            &scalar_ms, entries);
  }

  // 2:4-compressed GEMM over a 50 %-sparse operand, scalar vs AVX2.
  for (Index n : gemm_sizes) {
    const MatrixF dense = random_dense(n, n, Dist::kNormalStd1, rng);
    const auto d = decompose(dense, TasdConfig::parse("2:4"));
    const sparse::NMSparseMatrix a = d.terms[0].compressed();
    const MatrixF b = random_dense(n, n, Dist::kNormalStd1, rng);
    std::map<std::size_t, double> scalar_ms;
    for (const rt::KernelFamily* impl : families)
      sweep("nm_gemm", impl->name, n, n, n, "2:4", 0.5,
            2.0 * static_cast<double>(a.nnz()) * n, repeats, thread_counts,
            [&](rt::ExecPolicy& p) {
              p.family = impl;
              return rt::nm_gemm(a, b, p);
            },
            &scalar_ms, entries);
  }

  // TASD-series GEMM (4:8+1:8) over a 90 %-sparse operand, executed from
  // a cached DecompositionPlan exactly the way the engine runs it; the
  // series' term loop routes through the selected family's N:M entry.
  for (Index n : gemm_sizes) {
    const MatrixF dense =
        random_unstructured(n, n, 0.1, Dist::kNormalStd1, rng);
    const auto plan =
        plan_cache().get_or_build(dense, TasdConfig::parse("4:8+1:8"));
    const rt::TasdSeriesGemm series(plan);
    const MatrixF b = random_dense(n, n, Dist::kNormalStd1, rng);
    std::map<std::size_t, double> scalar_ms;
    for (const rt::KernelFamily* impl : families)
      sweep("tasd_gemm", impl->name, n, n, n, "4:8+1:8", 0.9,
            2.0 * static_cast<double>(series.nnz()) * n, repeats,
            thread_counts,
            [&](rt::ExecPolicy& p) {
              p.family = impl;
              return series.multiply(b, p);
            },
            &scalar_ms, entries);
  }

  // Decomposition throughput: cold build_plan vs plan-cache hit.
  {
    const Index sz = quick ? 256 : 1024;
    const auto cfg = TasdConfig::parse("4:8+1:8");
    const MatrixF m =
        random_unstructured(sz, sz, 0.3, Dist::kNormalStd1, rng);
    const double cold_ms = time_ms_min(repeats, [&] {
      const auto p = build_plan(m, cfg);
      (void)p;
    });
    entries.push_back({"decompose_cold", "-", sz, sz, 0, cfg.str(), 0.7, 1,
                       cold_ms, 0.0, 1.0, 1.0, true});
    plan_cache().get_or_build(m, cfg);  // warm
    const double hit_ms = time_ms_min(repeats, [&] {
      const auto p = plan_cache().get_or_build(m, cfg);
      (void)p;
    });
    entries.push_back({"decompose_cached", "-", sz, sz, 0, cfg.str(), 0.7, 1,
                       hit_ms, 0.0, cold_ms / std::max(hit_ms, 1e-9), 1.0,
                       true});
  }

  write_json(out_path, entries);
  const bool all_exact =
      std::all_of(entries.begin(), entries.end(),
                  [](const Entry& e) { return e.bit_exact; });
  std::fprintf(stderr, "wrote %s (%zu entries)%s\n", out_path.c_str(),
               entries.size(), all_exact ? "" : "  ** EXACTNESS FAILURES **");
  return all_exact ? 0 : 1;
}
