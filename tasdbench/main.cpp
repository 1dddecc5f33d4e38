// TASD inference benchmark: one command, three workloads, each timing the
// library's public calls from outside under the default kernel policy
// ("auto" kernels, KernelPolicy::kStatic) and the process-default pool.
//
//   resnet34-b1        closed loop, one caller: 95 % unstructured-sparse
//                      ResNet-34, every layer TASD-W 2:4 at full-scale
//                      im2col shapes; one inference = run() on each of
//                      the 37 layers. Stresses the wide-N kernels and the
//                      decomposition done by rt::compile.
//   decode-gemv        closed loop, one caller: one transformer decode
//                      step (hidden 512, KV 512) per run_network() call at
//                      n = 1. Stresses per-call dispatch and GEMV width.
//   serve-decode-open  open loop, Poisson arrivals at a frozen rate into a
//                      default ServingEngine over the same decode model,
//                      loaded with rt::load_artifact. Stresses admission,
//                      batching and the batch kernels.
//
// Every workload runs a correctness gate before timing (fp64 GEMM
// references with a rounding bound derived from k and the operand
// magnitudes; bitwise equality of serving against run_network), and the
// timed loop re-checks every output. Any mismatch counts as a failed
// operation and makes the process exit 1.
//
// Usage:
//   tasdbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   tasdbench --probe-serving --seed <n>
// The last line of stdout is the JSON result; lines before it print the
// run stamp and every metric with its unit and sample count. --trace 1
// records spans and writes a Chrome trace to .bench_out/. --probe-serving
// measures the serving capacity and the unloaded latencies the frozen
// rate and latency limits below were derived from; normal runs never
// probe.
#include <algorithm>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "artifact/artifact.hpp"
#include "common/cpu_features.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/plan_cache.hpp"
#include "dnn/layer_binding.hpp"
#include "dnn/workloads.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/serving_engine.hpp"
#include "tensor/generator.hpp"
#include "trace.hpp"

namespace {

using namespace tasd;
using tasdbench::Clock;
using tasdbench::ScopedSpan;
using tasdbench::Tracer;

// ------------------------------------------------------------ constants

// Frozen latency limits and serving rate (never re-probed at run time),
// derived with `tasdbench --probe-serving --seed 1`; see
// tasdbench/README.md for the host and the figures. Each limit is 5x the
// workload's unloaded p50. The serving rate is kServeRateShare of the
// probed capacity (2000 req/s): far enough below it that a host running
// twice as slow builds no backlog, yet busy enough that the engine's
// threads rarely sleep between requests, whose wake-up times made the
// latency spread across runs three times wider at 400 req/s.
constexpr double kServeRateShare = 0.4;
constexpr double kServeRatePerS = 800.0;
constexpr double kServeLimitMs = 23.0;
constexpr double kResnetLimitMs = 281.0;
constexpr double kDecodeLimitMs = 12.5;

constexpr Index kDecodeHidden = 512;
constexpr Index kDecodeKv = 512;
constexpr std::size_t kInputPool = 64;       // decode/serve input vectors
constexpr std::size_t kGateColumns = 8;      // fp64-checked columns/layer
constexpr std::size_t kSampledOutputs = 32;  // re-checked outputs/layer
constexpr double kUnitRoundoff = 5.9604644775390625e-08;  // 2^-24

const char* const kResnetStages[] = {"stem", "s0", "s1", "s2", "s3", "fc"};
const char* const kDecodeLayers[] = {"q_proj",   "scores", "attn_v",
                                     "out_proj", "mlp_up", "mlp_down"};

// ------------------------------------------------------------ helpers

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolation percentile (q in [0,1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// CPU time this process has run, all threads, in ms. With the steal
/// clock of a paravirtualized guest, time the hypervisor gave to other
/// guests is not counted.
double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Host-wide CPU time counters from /proc/stat: total and stolen (time
/// the hypervisor ran other guests while this one wanted the CPU).
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  CpuTicks t;
  double v = 0.0;
  for (int i = 0; i < 8 && f >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Resident set size of this process in MB (VmRSS), 0 when unreadable.
double vm_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmRSS:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string env_or_empty(const char* name) {
  const char* v = std::getenv(name);
  return v ? v : "";
}

bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

bool same_bits(const MatrixF& a, const MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ------------------------------------------------------------ results

/// Operations of one phase. `wrong` counts the failures that break
/// correctness (a wrong output, a failed gate check, a broken setup
/// contract); a request the server shed or expired under load fails
/// without being wrong.
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  /// Closed-loop, gate and setup operations: every failure is wrong.
  void record(bool success) {
    ++attempted;
    ++(success ? ok : failed);
    if (!success) ++wrong;
  }
  /// Add an open-loop phase's request outcomes.
  template <typename Stats>
  void add(const Stats& s) {
    attempted += s.sent;
    ok += s.ok;
    failed += s.failed;
    wrong += s.wrong;
  }
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Everything one run reports: phase counters, the run stamp's
/// per-layer kernel names, and metrics by name.
struct Results {
  Phase setup, gate, warmup, timed;
  std::vector<std::pair<std::string, std::string>> kernels;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
  [[nodiscard]] std::uint64_t attempted() const {
    return setup.attempted + gate.attempted + warmup.attempted +
           timed.attempted;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return setup.failed + gate.failed + warmup.failed + timed.failed;
  }
  [[nodiscard]] std::uint64_t wrong() const {
    return setup.wrong + gate.wrong + warmup.wrong + timed.wrong;
  }
};

/// Wall-clock latency metrics shared by every workload, over every ok
/// sample of the timed phase. A tail percentile is capped at the highest
/// one with at least ten samples beyond it: a run of ~200 ResNet-34
/// inferences supports no p99, so its p99 metric reports about p95
/// (printed as a note); the decode workloads report the true p99.
void set_latency(Results& r, const std::vector<double>& lat,
                 double limit_ms, std::uint64_t sent) {
  for (const auto& [name, q] : {std::pair{"latency_ms_p50", 0.50},
                                std::pair{"latency_ms_p90", 0.90},
                                std::pair{"latency_ms_p99", 0.99}}) {
    const double used_q = std::max(
        0.5, std::min(q, 1.0 - 10.0 / static_cast<double>(lat.size())));
    r.set(name, percentile(lat, used_q), "ms", lat.size());
    if (used_q < q) {
      std::ostringstream note;
      note << name << " reports p" << used_q * 100.0 << ": " << lat.size()
           << " samples support no higher percentile";
      r.notes.push_back(note.str());
    }
  }
  std::size_t within = 0;
  for (double v : lat) within += v <= limit_ms ? 1 : 0;
  r.set("slo_attainment",
        sent ? static_cast<double>(within) / static_cast<double>(sent) : 0.0,
        "fraction", sent);
}

/// The nm-over-dense speed-up, printed but not gated: a faster dense
/// kernel lowers it.
void add_speedup_note(Results& r) {
  const double sparse = r.metrics["latency_ms_p50"].value;
  r.notes.push_back(
      "nm-over-dense speed-up (not gated): " +
      json_num(sparse > 0 ? r.metrics["dense_latency_ms_p50"].value / sparse
                          : 0.0));
}

void set_setup(Results& r, const std::vector<double>& setup_s) {
  r.set("setup_s", percentile(setup_s, 0.5), "s", setup_s.size());
  std::ostringstream reps;
  reps << "setup_s of each repetition:";
  for (double v : setup_s) reps << " " << json_num(v);
  r.notes.push_back(reps.str());
}

// ------------------------------------------------------------ kernel work

/// Computed (not measured) work of one bound layer at RHS width n.
struct LayerWork {
  double macs = 0.0;          ///< stored values x n (dense: m*k*n)
  double streamed_bytes = 0;  ///< real weight buffers + B + C, once each
  double real_bytes = 0.0;    ///< values + in-block index + block offsets
  double model_bytes = 0.0;   ///< storage_bytes(): hardware-style model
  double dense_bytes = 0.0;   ///< m*k*4
};

LayerWork layer_work(const rt::CompiledNetwork::BoundLayer& l, Index n) {
  LayerWork w;
  w.dense_bytes = static_cast<double>(l.m * l.k * sizeof(float));
  const double io_bytes =
      static_cast<double>((l.k + l.m) * n * sizeof(float));
  if (!l.plan) {
    w.macs = static_cast<double>(l.m * l.k * n);
    w.streamed_bytes = w.dense_bytes + io_bytes;
    return w;
  }
  for (const auto& t : l.plan->terms) {
    w.macs += static_cast<double>(t.nnz() * n);
    w.real_bytes += static_cast<double>(
        t.values().size() * sizeof(float) +
        t.in_block_index().size() * sizeof(std::uint8_t) +
        t.block_offsets().size() * sizeof(Index));
  }
  w.model_bytes = static_cast<double>(l.plan->storage_bytes());
  w.streamed_bytes = w.real_bytes + io_bytes;
  return w;
}

/// Model vs real compressed bytes of a network's configured layers.
void set_bytes(Results& r, const rt::CompiledNetwork& net) {
  double real = 0.0, model = 0.0, dense = 0.0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const auto& l = net.layer(i);
    if (!l.plan) continue;
    const LayerWork w = layer_work(l, 1);
    real += w.real_bytes;
    model += w.model_bytes;
    dense += w.dense_bytes;
  }
  r.set("core.model_bytes", static_cast<double>(net.plan_bytes()), "B", 1);
  r.set("runtime.nm_real_bytes", real, "B", 1);
  r.set("runtime.nm_real_over_model_bytes", model > 0 ? real / model : 0.0,
        "ratio", 1);
  r.set("runtime.nm_real_over_dense_bytes", dense > 0 ? real / dense : 0.0,
        "ratio", 1);
  r.set("core.model_over_dense_bytes", dense > 0 ? model / dense : 0.0,
        "ratio", 1);
}

void record_kernels(Results& r, const rt::CompiledNetwork& net) {
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const auto& l = net.layer(i);
    r.kernels.emplace_back(net.name() + "/" + l.name,
                           l.kernel + "|" + l.batch_kernel);
  }
}

// ------------------------------------------------------------ fp64 gate

/// Accumulated outcome of fp64 output checks.
struct GateStats {
  std::uint64_t mismatches = 0;
  double err_sq = 0.0;  ///< Σ (out - W x)^2 over TASD layers
  double ref_sq = 0.0;  ///< Σ (W x)^2 over TASD layers
  [[nodiscard]] double approx_rel_err() const {
    return ref_sq > 0.0 ? std::sqrt(err_sq / ref_sq) : 0.0;
  }
};

/// Columns the fp64 gate checks: the first, the last (tail handling) and
/// seeded random ones, at most kGateColumns.
std::vector<Index> gate_columns(Index n, Rng& rng) {
  std::vector<Index> cols{0};
  if (n > 1) cols.push_back(n - 1);
  while (cols.size() < std::min<Index>(n, kGateColumns)) {
    const auto c = static_cast<Index>(rng.uniform_int(0, n - 1));
    if (std::find(cols.begin(), cols.end(), c) == cols.end())
      cols.push_back(c);
  }
  return cols;
}

/// Check `out` (the layer's fp32 output for input x) on `cols` against an
/// fp64 GEMM over `executed` (what the kernel computes: the plan's
/// approximation, or the dense weight). An element passes when
/// |out - ref| <= (k*terms + 2) * u * Σ|w||x|, the worst-case rounding
/// bound of a length-k*terms float dot product. When `original` is given
/// (a TASD layer), the error of `out` against the fp64 GEMM over the
/// unapproximated weight accumulates into approx_rel_err.
void check_layer(const MatrixF& executed, const MatrixF* original,
                 const MatrixF& x, const MatrixF& out,
                 const std::vector<Index>& cols, std::size_t terms,
                 GateStats& g) {
  const Index m = executed.rows(), k = executed.cols();
  if (out.rows() != m || out.cols() != x.cols()) {
    ++g.mismatches;
    return;
  }
  const double bound =
      static_cast<double>(k * std::max<std::size_t>(terms, 1) + 2) *
      kUnitRoundoff;
  std::vector<double> xc(k);
  for (const Index j : cols) {
    for (Index kk = 0; kk < k; ++kk) xc[kk] = x(kk, j);
    for (Index r = 0; r < m; ++r) {
      const float* wr = executed.data() + r * k;
      double ref = 0.0, mag = 0.0;
      for (Index kk = 0; kk < k; ++kk) {
        ref += static_cast<double>(wr[kk]) * xc[kk];
        mag += std::fabs(static_cast<double>(wr[kk]) * xc[kk]);
      }
      const double got = out(r, j);
      if (!(std::fabs(got - ref) <= bound * mag + 1e-30)) ++g.mismatches;
      if (original) {
        const float* orow = original->data() + r * k;
        double exact = 0.0;
        for (Index kk = 0; kk < k; ++kk)
          exact += static_cast<double>(orow[kk]) * xc[kk];
        g.err_sq += (got - exact) * (got - exact);
        g.ref_sq += exact * exact;
      }
    }
  }
}

/// Gate-check one layer of `net` on input x with output out.
void check_net_layer(const rt::CompiledNetwork& net, std::size_t i,
                     const MatrixF& x, const MatrixF& out, Rng& rng,
                     GateStats& g) {
  const auto& l = net.layer(i);
  const auto cols = gate_columns(x.cols(), rng);
  if (l.plan) {
    check_layer(l.plan->approximation(), &l.weight, x, out, cols,
                l.plan->terms.size(), g);
  } else {
    check_layer(l.weight, nullptr, x, out, cols, 1, g);
  }
}

/// A few output elements of a gate-checked run, re-checked bitwise on
/// every timed execution (the kernels are deterministic).
struct OutputSample {
  std::vector<std::pair<Index, float>> points;

  OutputSample(const MatrixF& out, Rng& rng) {
    for (std::size_t s = 0; s < kSampledOutputs && out.size() > 0; ++s) {
      const auto idx =
          static_cast<Index>(rng.uniform_int(0, out.size() - 1));
      points.emplace_back(idx, out.data()[idx]);
    }
  }
  [[nodiscard]] bool matches(const MatrixF& out) const {
    for (const auto& [idx, v] : points)
      if (idx >= out.size() || !same_bits(out.data()[idx], v)) return false;
    return true;
  }
};

// ------------------------------------------------------------ setup

/// rt::compile with a cold PlanCache, repeated; returns the last network.
/// A throwing compile propagates (main counts it as a failed setup).
/// Records setup_s, resident_mb (VmRSS growth across the first compile),
/// runtime.compile_ms and core.decompositions (PlanCacheStats delta of
/// one compile).
rt::CompiledNetwork timed_compile(const std::string& name,
                                  const std::vector<dnn::LayerBinding>& b,
                                  int reps, Results& r, Tracer& tracer) {
  std::optional<rt::CompiledNetwork> net;
  std::vector<double> secs;
  std::uint64_t decompositions = 0;
  double rss_growth = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<dnn::LayerBinding> copy = b;  // compile consumes it
    net.reset();
    plan_cache().clear();
    const auto before = plan_cache().stats();
    const double rss0 = vm_rss_mb();
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "rt::compile", rep);
      net.emplace(rt::compile(name, std::move(copy)));
    }
    secs.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (rep == 0) rss_growth = vm_rss_mb() - rss0;
    decompositions =
        plan_cache().stats().decompositions - before.decompositions;
    r.setup.record(true);
  }
  set_setup(r, secs);
  r.set("resident_mb", rss_growth, "MB", 1);
  r.set("runtime.compile_ms", percentile(secs, 0.5) * 1e3, "ms", secs.size());
  r.set("core.decompositions", static_cast<double>(decompositions), "count",
        1);
  return std::move(*net);
}

/// build_plan() timed directly on every configured layer (traced runs).
void time_build_plan(const std::vector<dnn::LayerBinding>& b, Results& r,
                     Tracer& tracer) {
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (!b[i].config) continue;
    ScopedSpan span(tracer, "core::build_plan", i);
    const auto t0 = Clock::now();
    (void)build_plan(b[i].weight, *b[i].config);
    total += ms_between(t0, Clock::now());
    ++n;
  }
  r.set("core.build_plan_ms", total, "ms", n);
}

std::vector<dnn::LayerBinding> dense_copy(const rt::CompiledNetwork& net) {
  std::vector<dnn::LayerBinding> out;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const auto& l = net.layer(i);
    out.push_back(dnn::LayerBinding{l.name, l.weight, l.n, std::nullopt});
  }
  return out;
}

/// Split the timed phase's median between traced and untraced
/// iterations into the tracing-overhead metric.
void set_trace_overhead(Results& r, const std::vector<double>& traced,
                        const std::vector<double>& untraced) {
  const double u = percentile(untraced, 0.5);
  r.set("bench.trace_overhead_pct",
        u > 0 ? (percentile(traced, 0.5) / u - 1.0) * 100.0 : 0.0, "%",
        traced.size() + untraced.size());
}

// ------------------------------------------------------------ closed loop

/// Timed phase of a closed loop with one caller.
struct ClosedLoop {
  std::vector<double> lat;    ///< sparse network, ok operations
  std::vector<double> dense;  ///< dense twin, ok operations
  std::vector<double> cpu, dense_cpu;  ///< process CPU ms of the same
  std::uint64_t sparse_failed = 0;
  std::vector<double> traced, untraced;  ///< sparse, split for overhead
};

/// Run `sparse(it)` every iteration and `dense(it)` after every
/// `dense_every`-th one for `seconds`, interleaved so both see the same
/// machine state. Each returns false on a wrong output. Traced runs
/// record spans on even iterations only, for the overhead comparison.
template <typename Sparse, typename Dense>
ClosedLoop closed_loop(double seconds, std::uint64_t dense_every,
                       Tracer& tracer, Results& r, Sparse sparse,
                       Dense dense) {
  ClosedLoop loop;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(seconds);
  for (std::uint64_t it = 0; Clock::now() < end || loop.lat.size() < 5;
       ++it) {
    const bool record = it % 2 == 0;
    tracer.set_active(record);
    auto t0 = Clock::now();
    double c0 = process_cpu_ms();
    const bool ok = sparse(it);
    const double ms = ms_between(t0, Clock::now());
    const double cpu = process_cpu_ms() - c0;
    r.timed.record(ok);
    if (ok) {
      loop.lat.push_back(ms);
      loop.cpu.push_back(cpu);
      (record ? loop.traced : loop.untraced).push_back(ms);
    } else {
      ++loop.sparse_failed;
    }
    if (it % dense_every != 0) continue;
    t0 = Clock::now();
    c0 = process_cpu_ms();
    const bool dok = dense(it);
    const double dms = ms_between(t0, Clock::now());
    const double dcpu = process_cpu_ms() - c0;
    r.timed.record(dok);
    if (dok) {
      loop.dense.push_back(dms);
      loop.dense_cpu.push_back(dcpu);
    }
  }
  tracer.set_active(true);
  return loop;
}

/// The CPU-time and latency metrics of a closed loop.
void set_closed_loop(Results& r, const ClosedLoop& loop, double limit_ms) {
  r.set("cpu_ms_per_op", percentile(loop.cpu, 0.5), "ms", loop.cpu.size());
  r.set("dense_cpu_ms_per_op", percentile(loop.dense_cpu, 0.5), "ms",
        loop.dense_cpu.size());
  set_latency(r, loop.lat, limit_ms, loop.lat.size() + loop.sparse_failed);
  r.set("dense_latency_ms_p50", percentile(loop.dense, 0.5), "ms",
        loop.dense.size());
}

// ------------------------------------------------------------ resnet34-b1

std::string resnet_stage(const std::string& layer) {
  const auto dot = layer.find('.');
  return dot == std::string::npos ? layer : layer.substr(0, dot);
}

Results run_resnet(std::uint64_t seed, double seconds, Tracer& tracer) {
  Results r;
  const auto workload = dnn::resnet34_workload(true, seed);
  std::vector<std::optional<TasdConfig>> configs(workload.layers.size(),
                                                 TasdConfig::parse("2:4"));
  std::vector<dnn::LayerBinding> bindings =
      dnn::bind_layers(workload, configs);  // weights materialized here

  Rng act_rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<MatrixF> acts;
  for (const auto& l : workload.layers)
    acts.push_back(random_unstructured(l.k, l.n, l.act_density,
                                       Dist::kUniform01, act_rng));

  if (tracer.recording()) time_build_plan(bindings, r, tracer);
  const rt::CompiledNetwork net =
      timed_compile(workload.name, bindings, 9, r, tracer);
  bindings.clear();
  const rt::CompiledNetwork dense =
      rt::compile("dense_resnet34", dense_copy(net));
  record_kernels(r, net);
  record_kernels(r, dense);
  set_bytes(r, net);

  // Gate: every layer of both networks against fp64 references.
  Rng gate_rng(seed + 17);
  GateStats g;
  std::vector<OutputSample> sparse_ref, dense_ref;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const std::uint64_t before = g.mismatches;
    const MatrixF out = net.run(i, acts[i]);
    check_net_layer(net, i, acts[i], out, gate_rng, g);
    sparse_ref.emplace_back(out, gate_rng);
    const MatrixF dout = dense.run(i, acts[i]);
    check_net_layer(dense, i, acts[i], dout, gate_rng, g);
    dense_ref.emplace_back(dout, gate_rng);
    r.gate.record(g.mismatches == before);
  }
  r.set("approx_rel_err", g.approx_rel_err(), "ratio", net.layer_count());
  if (r.gate.failed) return r;

  double macs = 0.0, bytes = 0.0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const LayerWork w = layer_work(net.layer(i), net.layer(i).n);
    macs += w.macs;
    bytes += w.streamed_bytes;
  }

  // One inference = run() on every layer in order; outputs re-checked.
  std::uint64_t next_id = 0;
  const auto infer = [&](const rt::CompiledNetwork& n,
                         const std::vector<OutputSample>& ref,
                         const char* root) {
    ScopedSpan inference(tracer, root, next_id);
    bool ok = true;
    for (std::size_t i = 0; i < n.layer_count(); ++i) {
      ScopedSpan span(tracer, n.layer(i).name, next_id, inference.handle());
      ok = ref[i].matches(n.run(i, acts[i])) && ok;
    }
    ++next_id;
    return ok;
  };

  for (int w = 0; w < 2; ++w) {
    r.warmup.record(infer(net, sparse_ref, "warmup"));
    r.warmup.record(infer(dense, dense_ref, "warmup"));
  }

  // Timed: a dense inference follows every second sparse one, which
  // gives the sparse loop two thirds of the samples.
  const ClosedLoop loop = closed_loop(
      seconds, 2, tracer, r,
      [&](std::uint64_t) { return infer(net, sparse_ref, "inference"); },
      [&](std::uint64_t) {
        return infer(dense, dense_ref, "dense_inference");
      });
  set_closed_loop(r, loop, kResnetLimitMs);
  const double p50_s = r.metrics["latency_ms_p50"].value / 1e3;
  const std::size_t n = r.metrics["latency_ms_p50"].samples;
  r.set("runtime.gmacs", p50_s > 0 ? macs / p50_s / 1e9 : 0.0, "GMAC/s", n);
  r.set("runtime.gbps_computed", p50_s > 0 ? bytes / p50_s / 1e9 : 0.0,
        "GB/s", n);

  if (tracer.recording()) {
    set_trace_overhead(r, loop.traced, loop.untraced);
    // Per-stage time per inference, from the layer spans.
    const auto spans = tracer.spans();
    std::map<std::pair<std::string, std::uint64_t>, double> per_inference;
    for (const auto& s : spans) {
      if (s.parent < 0) continue;
      const std::string& root = spans[static_cast<std::size_t>(s.parent)].name;
      if (root != "inference" && root != "dense_inference") continue;
      const std::string prefix =
          root == "inference" ? "runtime.run_ms." : "runtime.dense_run_ms.";
      per_inference[{prefix + resnet_stage(s.name), s.id}] +=
          ms_between(s.start, s.end);
    }
    std::map<std::string, std::vector<double>> by_metric;
    for (const auto& [key, ms] : per_inference)
      by_metric[key.first].push_back(ms);
    for (const auto& [name, v] : by_metric)
      r.set(name, percentile(v, 0.5), "ms", v.size());
  }
  add_speedup_note(r);
  return r;
}

// ------------------------------------------------------------ decode model

struct DecodeModel {
  std::string name;
  std::vector<dnn::LayerBinding> bindings;
  std::vector<MatrixF> inputs;  ///< kInputPool token activations
};

DecodeModel make_decode(std::uint64_t seed) {
  const auto workload =
      dnn::decode_step_workload(kDecodeHidden, kDecodeKv, true, seed);
  std::vector<std::optional<TasdConfig>> configs;
  for (const auto& l : workload.layers)
    configs.push_back(l.weight_density < 1.0
                          ? std::optional(TasdConfig::parse("2:4"))
                          : std::nullopt);
  DecodeModel d{workload.name, dnn::bind_layers(workload, configs), {}};
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 2);
  for (std::size_t i = 0; i < kInputPool; ++i)
    d.inputs.push_back(
        random_dense(kDecodeHidden, 1, Dist::kNormalStd1, rng));
  return d;
}

std::string decode_layer_key(const std::string& layer) {
  const auto dot = layer.find('.');
  return dot == std::string::npos ? layer : layer.substr(dot + 1);
}

/// fp64 gate over every layer of a chained network for a few inputs,
/// plus the reference outputs of run_network for every pool input.
std::vector<MatrixF> gate_chain(const rt::CompiledNetwork& net,
                                const std::vector<MatrixF>& inputs,
                                std::uint64_t seed, Results& r,
                                GateStats& g) {
  Rng rng(seed + 23);
  std::vector<MatrixF> refs;
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    const std::uint64_t before = g.mismatches;
    MatrixF act = inputs[p];
    for (std::size_t i = 0; i < net.layer_count(); ++i) {
      MatrixF out = net.run(i, act);
      if (p < 16) check_net_layer(net, i, act, out, rng, g);
      act = std::move(out);
    }
    MatrixF whole = net.run_network(inputs[p]);
    if (!same_bits(whole, act)) ++g.mismatches;  // run_network == the loop
    refs.push_back(std::move(whole));
    r.gate.record(g.mismatches == before);
  }
  return refs;
}

// ------------------------------------------------------------ decode-gemv

Results run_decode(std::uint64_t seed, double seconds, Tracer& tracer) {
  Results r;
  DecodeModel d = make_decode(seed);
  if (tracer.recording()) time_build_plan(d.bindings, r, tracer);
  const rt::CompiledNetwork net =
      timed_compile(d.name, d.bindings, 15, r, tracer);
  const rt::CompiledNetwork dense =
      rt::compile("dense_" + d.name, dense_copy(net));
  record_kernels(r, net);
  record_kernels(r, dense);
  set_bytes(r, net);

  GateStats g;
  const auto refs = gate_chain(net, d.inputs, seed, r, g);
  r.set("approx_rel_err", g.approx_rel_err(), "ratio", 16);
  GateStats dense_g;
  const auto dense_refs = gate_chain(dense, d.inputs, seed, r, dense_g);
  if (r.gate.failed) return r;

  std::uint64_t next_id = 0;
  // Untraced tokens call run_network; traced tokens run the same loop
  // layer by layer (run_network is exactly that loop) inside spans.
  const auto token = [&](const rt::CompiledNetwork& n, std::size_t p,
                         const std::vector<MatrixF>& ref, const char* root) {
    ScopedSpan span(tracer, root, next_id);
    MatrixF out;
    if (tracer.recording() && &n == &net) {
      out = d.inputs[p];
      for (std::size_t i = 0; i < n.layer_count(); ++i) {
        ScopedSpan layer(tracer, n.layer(i).name, next_id, span.handle());
        out = n.run(i, out);
      }
    } else {
      out = n.run_network(d.inputs[p]);
    }
    ++next_id;
    return same_bits(out, ref[p]);
  };

  for (std::size_t w = 0; w < 200; ++w) {
    r.warmup.record(token(net, w % kInputPool, refs, "warmup"));
    r.warmup.record(token(dense, w % kInputPool, dense_refs, "warmup"));
  }

  const ClosedLoop loop = closed_loop(
      seconds, 1, tracer, r,
      [&](std::uint64_t it) {
        return token(net, it % kInputPool, refs, "token");
      },
      [&](std::uint64_t it) {
        return token(dense, it % kInputPool, dense_refs, "dense_token");
      });
  set_closed_loop(r, loop, kDecodeLimitMs);

  if (tracer.recording()) {
    set_trace_overhead(r, loop.traced, loop.untraced);
    const auto spans = tracer.spans();
    std::map<std::string, std::vector<double>> by_layer;
    for (const auto& s : spans) {
      if (s.parent < 0 ||
          spans[static_cast<std::size_t>(s.parent)].name != "token")
        continue;
      by_layer["runtime.run_ms." + decode_layer_key(s.name)].push_back(
          ms_between(s.start, s.end));
    }
    for (const auto& [name, v] : by_layer)
      r.set(name, percentile(v, 0.5), "ms", v.size());
  }
  add_speedup_note(r);
  return r;
}

// ------------------------------------------------------------ serving

/// One request of the open loop: a whole decode step submitted layer by
/// layer, each layer's completion submitting the next.
struct Request {
  Clock::time_point due;
  std::size_t input = 0;
  Clock::time_point hop_submit;
  std::int64_t span = Tracer::kNoSpan;
  bool done = false;
  bool ok = false;
  bool wrong = false;  ///< executed but its output differs from run_network
  double latency_ms = 0.0;
};

struct Completion {
  std::uint64_t id = 0;
  std::size_t layer = 0;
  rt::Response response;
  Clock::time_point at;
};

/// Per-hop and per-request outcome of one open-loop phase.
struct OpenLoopStats {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;         ///< shed, expired, failed or wrong
  std::uint64_t wrong = 0;          ///< wrong output
  std::vector<double> latency;     ///< ok requests, from due time
  std::vector<double> queue_ms;    ///< per layer hop
  std::vector<double> exec_ms;     ///< per layer hop
  std::vector<double> batch_size;  ///< per layer hop
  double generator_lag_ms_max = 0.0;
  std::uint64_t unfinished = 0;
};

/// Poisson arrivals at `rate` for `seconds` from one generator thread;
/// one continuation thread submits each request's next layer. Returns
/// once every sent request has resolved (or after a bounded wait).
OpenLoopStats open_loop(rt::ServingEngine& engine,
                        const std::vector<MatrixF>& inputs,
                        const std::vector<MatrixF>& refs, double rate,
                        double seconds, std::uint64_t seed, Tracer& tracer,
                        std::uint64_t id_base) {
  const std::size_t layers = engine.model(0).layer_count();
  const double expected = rate * seconds;
  const auto capacity =
      static_cast<std::size_t>(expected + 10.0 * std::sqrt(expected) + 64);
  std::vector<Request> reqs(capacity);
  OpenLoopStats st;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(seconds);

  std::mutex mu;
  std::condition_variable work_cv;  // continuation waits: completions
  std::condition_variable idle_cv;  // caller waits: nothing in flight
  std::deque<Completion> done;
  std::uint64_t in_flight = 0;
  bool generating = true;

  const auto submit = [&](std::uint64_t id, std::size_t layer, MatrixF x) {
    reqs[id].hop_submit = Clock::now();
    engine.submit_async(0, layer, std::move(x),
                        [&, id, layer](rt::Response resp) {
                          Completion c{id, layer, std::move(resp),
                                       Clock::now()};
                          // Notify under the lock: once it is released,
                          // open_loop may return and destroy work_cv.
                          std::lock_guard<std::mutex> lock(mu);
                          done.push_back(std::move(c));
                          work_cv.notify_one();
                        });
  };

  std::thread continuation([&] {
    for (;;) {
      Completion c;
      {
        std::unique_lock<std::mutex> lock(mu);
        work_cv.wait(lock, [&] {
          return !done.empty() || (!generating && in_flight == 0);
        });
        if (done.empty()) return;
        c = std::move(done.front());
        done.pop_front();
      }
      // mu is released here: submit_async may run a shed callback inline.
      Request& q = reqs[c.id];
      const rt::Response& resp = c.response;
      const auto hop_start = q.hop_submit;
      const auto dequeued =
          hop_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              resp.queue_ms));
      if (q.span != Tracer::kNoSpan) {
        const std::int64_t hop = tracer.add(
            "ServingEngine::submit_async L" + std::to_string(c.layer),
            id_base + c.id, q.span, hop_start, c.at);
        tracer.add("queue", id_base + c.id, hop, hop_start, dequeued);
        tracer.add("exec", id_base + c.id, hop, dequeued, c.at);
      }
      const bool ok = resp.status == rt::RequestStatus::kOk;
      if (ok) {
        st.queue_ms.push_back(resp.queue_ms);
        st.exec_ms.push_back(resp.latency_ms - resp.queue_ms);
        st.batch_size.push_back(static_cast<double>(resp.batch_size));
      }
      if (ok && c.layer + 1 < layers) {
        submit(c.id, c.layer + 1, std::move(c.response.output));
        continue;
      }
      q.wrong = ok && !same_bits(resp.output, refs[q.input]);
      q.ok = ok && !q.wrong;
      q.latency_ms = ms_between(q.due, c.at);
      q.done = true;
      tracer.end(q.span);
      std::lock_guard<std::mutex> lock(mu);
      if (--in_flight == 0) idle_cv.notify_all();
    }
  });

  std::thread generator([&] {
    Rng rng(seed);
    auto due = start;
    for (std::uint64_t id = 0; id < reqs.size(); ++id) {
      const double gap_s = -std::log(1.0 - rng.uniform()) / rate;
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap_s));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      const auto now = Clock::now();
      st.generator_lag_ms_max =
          std::max(st.generator_lag_ms_max, ms_between(due, now));
      Request& q = reqs[id];
      q.due = due;
      q.input = id % inputs.size();
      // Spans of every 8th request keep traced files small.
      if (id % 8 == 0) q.span = tracer.begin("request", id_base + id);
      {
        std::lock_guard<std::mutex> lock(mu);
        ++in_flight;
        ++st.sent;
      }
      submit(id, 0, inputs[q.input]);
    }
    std::lock_guard<std::mutex> lock(mu);
    generating = false;
    work_cv.notify_all();
  });

  generator.join();
  {
    // Bounded wait for the backlog to clear.
    std::unique_lock<std::mutex> lock(mu);
    idle_cv.wait_for(lock, std::chrono::seconds(30),
                     [&] { return in_flight == 0; });
    st.unfinished = in_flight;
  }
  // A stuck backlog resolves on drain (shed or flushed); every callback
  // has fired when drain() returns, so the continuation thread finishes.
  if (st.unfinished) engine.drain();
  continuation.join();

  for (std::uint64_t id = 0; id < st.sent; ++id) {
    if (reqs[id].done && reqs[id].ok) {
      ++st.ok;
      st.latency.push_back(reqs[id].latency_ms);
    } else {
      ++st.failed;
      if (reqs[id].wrong) ++st.wrong;
    }
  }
  return st;
}

/// The decode model compiled, saved as an artifact, and loaded back
/// (setup = load_artifact with a cold PlanCache, repeated).
rt::CompiledNetwork serve_setup(const DecodeModel& d, std::uint64_t seed,
                                Results& r, Tracer& tracer, int reps) {
  std::filesystem::create_directories(".bench_out");
  const std::string path =
      ".bench_out/serve-decode-s" + std::to_string(seed) + ".tasdart";
  {
    ScopedSpan span(tracer, "rt::save_artifact", 0);
    rt::save_artifact(rt::compile(d.name, d.bindings), path);
  }
  r.set("artifact.file_mb",
        static_cast<double>(std::filesystem::file_size(path)) / 1048576.0,
        "MB", 1);

  std::optional<rt::CompiledNetwork> net;
  std::vector<double> secs;
  std::uint64_t decompositions = 0;
  double rss_growth = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    net.reset();
    plan_cache().clear();
    const auto before = plan_cache().stats();
    const double rss0 = vm_rss_mb();
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "rt::load_artifact", rep);
      net.emplace(rt::load_artifact(path));
    }
    secs.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (rep == 0) rss_growth = vm_rss_mb() - rss0;
    const std::uint64_t delta =
        plan_cache().stats().decompositions - before.decompositions;
    decompositions += delta;
    r.setup.record(delta == 0);  // load must never decompose
  }
  std::filesystem::remove(path);
  set_setup(r, secs);
  r.set("resident_mb", rss_growth, "MB", 1);
  r.set("artifact.load_ms", percentile(secs, 0.5) * 1e3, "ms", secs.size());
  r.set("artifact.decompositions", static_cast<double>(decompositions),
        "count", secs.size());
  r.set("core.decompositions", static_cast<double>(decompositions), "count",
        secs.size());
  return std::move(*net);
}

/// Submit one whole request through the engine, layer by layer.
/// Submit whole requests together through the engine, layer by layer.
/// Each layer's hops are all queued within the batcher's admission
/// window, so a hop of n requests normally runs as one run_batch of n.
std::vector<rt::Response> serve_burst(rt::ServingEngine& engine,
                                      std::vector<MatrixF> inputs) {
  std::vector<rt::Response> resps(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    resps[i].status = rt::RequestStatus::kOk;
    resps[i].output = std::move(inputs[i]);
  }
  for (std::size_t l = 0; l < engine.model(0).layer_count(); ++l) {
    std::vector<std::future<rt::Response>> hops;
    for (auto& resp : resps)
      if (resp.status == rt::RequestStatus::kOk)
        hops.push_back(engine.submit(l, std::move(resp.output)));
    std::size_t h = 0;
    for (auto& resp : resps)
      if (resp.status == rt::RequestStatus::kOk) resp = hops[h++].get();
  }
  return resps;
}

rt::Response serve_one(rt::ServingEngine& engine, const MatrixF& input) {
  return serve_burst(engine, {input}).front();
}

Results run_serve(std::uint64_t seed, double seconds, Tracer& tracer) {
  Results r;
  DecodeModel d = make_decode(seed);
  rt::CompiledNetwork loaded = serve_setup(d, seed, r, tracer, 15);
  record_kernels(r, loaded);
  set_bytes(r, loaded);
  const rt::CompiledNetwork dense =
      rt::compile("dense_" + d.name, dense_copy(loaded));

  GateStats g;
  const auto refs = gate_chain(loaded, d.inputs, seed, r, g);
  r.set("approx_rel_err", g.approx_rel_err(), "ratio", 16);
  GateStats dense_g;
  const auto dense_refs = gate_chain(dense, d.inputs, seed, r, dense_g);
  if (r.gate.failed) return r;

  // Dense reference: a 4 s closed loop of run_network on the same model
  // bound dense (the baseline the north star must beat), after 200
  // untimed warm-up calls.
  const auto dense_token = [&](std::size_t i) {
    const MatrixF out = dense.run_network(d.inputs[i % kInputPool]);
    return same_bits(out, dense_refs[i % kInputPool]);
  };
  for (std::size_t i = 0; i < 200; ++i) r.warmup.record(dense_token(i));
  {
    constexpr double kDenseSeconds = 4.0;
    const auto start = Clock::now();
    std::vector<double> dense_lat, dense_cpu;
    for (std::size_t i = 0;
         Clock::now() < start + std::chrono::duration<double>(kDenseSeconds);
         ++i) {
      const auto t0 = Clock::now();
      const double c0 = process_cpu_ms();
      const bool ok = dense_token(i);
      r.timed.record(ok);
      if (!ok) continue;
      dense_lat.push_back(ms_between(t0, Clock::now()));
      dense_cpu.push_back(process_cpu_ms() - c0);
    }
    r.set("dense_latency_ms_p50", percentile(dense_lat, 0.5), "ms",
          dense_lat.size());
    r.set("dense_cpu_ms_per_op", percentile(dense_cpu, 0.5), "ms",
          dense_cpu.size());
  }

  rt::ServingEngine engine(std::move(loaded));
  // Gate: serving outputs bitwise equal to run_network on the artifact.
  for (std::size_t p = 0; p < kInputPool; ++p) {
    const rt::Response resp = serve_one(engine, d.inputs[p]);
    r.gate.record(resp.status == rt::RequestStatus::kOk &&
                  same_bits(resp.output, refs[p]));
  }
  if (r.gate.failed) return r;

  // Fixed batches: a closed loop of kBurst requests sent together. Their
  // CPU time per request is the bounded cost metric: the open loop's
  // falls when a slower host lets more requests share a batch.
  {
    constexpr std::size_t kBurst = 4;
    constexpr double kBurstSeconds = 4.0;
    std::vector<double> cpu, batch_size;
    const auto start = Clock::now();
    for (std::size_t i = 0;
         Clock::now() < start + std::chrono::duration<double>(kBurstSeconds);
         ++i) {
      std::vector<MatrixF> in;
      for (std::size_t j = 0; j < kBurst; ++j)
        in.push_back(d.inputs[(i * kBurst + j) % kInputPool]);
      const double c0 = process_cpu_ms();
      const auto resps = serve_burst(engine, std::move(in));
      const double c = process_cpu_ms() - c0;
      bool ok = true;
      for (std::size_t j = 0; j < kBurst; ++j) {
        const bool good =
            resps[j].status == rt::RequestStatus::kOk &&
            same_bits(resps[j].output, refs[(i * kBurst + j) % kInputPool]);
        r.timed.record(good);
        ok = ok && good;
        batch_size.push_back(static_cast<double>(resps[j].batch_size));
      }
      if (ok) cpu.push_back(c / static_cast<double>(kBurst));
    }
    r.set("cpu_ms_per_op", percentile(cpu, 0.5), "ms", cpu.size());
    r.notes.push_back("fixed-batch phase: " + std::to_string(kBurst) +
                      " requests per burst, last-hop batch size mean " +
                      json_num(mean(batch_size)));
  }

  r.warmup.add(open_loop(engine, d.inputs, refs, kServeRatePerS, 1.0,
                        seed + 1, tracer, 0));

  const auto snapshot = [&](std::uint64_t id) {
    ScopedSpan span(tracer, "ServingEngine::metrics", id);
    return std::pair{engine.metrics(), engine.engine_metrics()};
  };
  const auto [m0, e0] = snapshot(0);
  const std::uint64_t id_base = 1u << 30;
  const double cpu0 = process_cpu_ms();
  const OpenLoopStats st = open_loop(engine, d.inputs, refs, kServeRatePerS,
                                     seconds, seed + 2, tracer, id_base);
  const double cpu = process_cpu_ms() - cpu0;
  const auto [m1, e1] = snapshot(1);
  r.timed.add(st);
  r.notes.push_back(
      "open-loop CPU ms per request sent (engine, pool and load threads): " +
      json_num(st.sent ? cpu / static_cast<double>(st.sent) : 0.0));

  set_latency(r, st.latency, kServeLimitMs, st.sent);
  const double busy = e1.busy_ms - e0.busy_ms;
  const double idle = e1.idle_ms - e0.idle_ms;
  const auto batches = static_cast<double>(m1.batches - m0.batches);
  r.set("serving.queue_ms_p50", percentile(st.queue_ms, 0.5), "ms",
        st.queue_ms.size());
  r.set("serving.queue_ms_p99", percentile(st.queue_ms, 0.99), "ms",
        st.queue_ms.size());
  r.set("serving.exec_ms_p50", percentile(st.exec_ms, 0.5), "ms",
        st.exec_ms.size());
  r.set("serving.batch_size_mean", mean(st.batch_size), "requests",
        st.batch_size.size());
  r.set("serving.occupancy", busy + idle > 0 ? busy / (busy + idle) : 0.0,
        "fraction", 1);
  r.set("serving.batches", batches, "count", 1);
  r.set("serving.degraded_batches",
        static_cast<double>(m1.degraded_batches - m0.degraded_batches),
        "count", 1);
  r.set("serving.shed", static_cast<double>(m1.shed - m0.shed), "count", 1);
  r.set("serving.expired", static_cast<double>(m1.expired - m0.expired),
        "count", 1);
  r.set("bench.generator_lag_ms_max", st.generator_lag_ms_max, "ms",
        st.sent);
  r.notes.push_back("offered rate " + json_num(kServeRatePerS) +
                    " req/s, achieved ok rate " +
                    json_num(static_cast<double>(st.ok) / seconds) +
                    " req/s, unfinished at end " +
                    std::to_string(st.unfinished));
  if (tracer.recording()) {
    // Overhead: the same open loop with recording off, same length.
    tracer.set_active(false);
    const OpenLoopStats off = open_loop(engine, d.inputs, refs,
                                        kServeRatePerS, seconds, seed + 2,
                                        tracer, 2 * id_base);
    tracer.set_active(true);
    r.timed.add(off);
    set_trace_overhead(r, st.latency, off.latency);
  }
  return r;
}

/// Derives the frozen latency limits and serving rate; not part of any
/// workload. Unloaded p50: one request in flight at a time. Capacity:
/// the highest rate of an open-loop sweep at which every request
/// succeeds and the median request meets the limit, 5x the unloaded p50
/// (no growing backlog). Closed-loop p50: a 10 s run of each closed-loop
/// workload.
int probe_serving(std::uint64_t seed) {
  Results r;
  Tracer tracer(false);
  DecodeModel d = make_decode(seed);
  rt::ServingEngine engine(serve_setup(d, seed, r, tracer, 1));
  std::vector<MatrixF> refs;
  std::vector<double> unloaded;
  for (std::size_t i = 0; i < 3000; ++i) {
    const auto t0 = Clock::now();
    const rt::Response resp = serve_one(engine, d.inputs[i % kInputPool]);
    if (i >= 300 && resp.status == rt::RequestStatus::kOk)
      unloaded.push_back(ms_between(t0, Clock::now()));
    if (i < kInputPool) refs.push_back(resp.output);
  }
  const double p50 = percentile(unloaded, 0.5);
  std::printf("unloaded_p50_ms %.4f (n=%zu)\nlimit_ms %.3f\n", p50,
              unloaded.size(), 5.0 * p50);
  double capacity = 0.0;
  for (double rate = 250.0; rate <= 6000.0; rate += 250.0) {
    const OpenLoopStats st =
        open_loop(engine, d.inputs, refs, rate, 3.0, seed, tracer, 0);
    const double median = percentile(st.latency, 0.5);
    std::printf("rate %.0f sent %llu failed %llu p50_ms %.3f p99_ms %.3f\n",
                rate, static_cast<unsigned long long>(st.sent),
                static_cast<unsigned long long>(st.failed), median,
                percentile(st.latency, 0.99));
    if (st.failed > 0 || median > 5.0 * p50) break;
    capacity = rate;
  }
  std::printf("capacity_req_per_s %.0f\nrate_req_per_s %.0f\n", capacity,
              kServeRateShare * capacity);
  // The closed-loop limits: 5x each closed loop's p50 over a short run.
  for (const auto& [name, run] :
       {std::pair{"resnet34-b1", &run_resnet},
        std::pair{"decode-gemv", &run_decode}}) {
    const double closed =
        run(seed, 10.0, tracer).metrics["latency_ms_p50"].value;
    std::printf("%s closed_loop_p50_ms %.4f limit_ms %.3f\n", name, closed,
                5.0 * closed);
  }
  std::printf("host %s\npool_threads %zu\n", cpu_signature().c_str(),
              rt::default_num_threads());
  return 0;
}

// ------------------------------------------------------------ output

// Metric names and units in the order BENCHMARK.json lists them.
// The end-to-end metrics a bound applies to: none of them moves with the
// CPU time a shared host's hypervisor steals (see tasdbench/README.md).
const std::vector<std::pair<std::string, std::string>>& end_to_end_names() {
  static const std::vector<std::pair<std::string, std::string>> v = {
      {"setup_s", "s"},
      {"cpu_ms_per_op", "ms"},
      {"dense_cpu_ms_per_op", "ms"},
      {"ok_rate", "fraction"},
      {"resident_mb", "MB"},
      {"approx_rel_err", "ratio"},
  };
  return v;
}

// Wall-clock end-to-end metrics. Stolen CPU time stretches them by up to
// 4x, so they are listed with the per-layer metrics, which carry no
// bound, and printed as text on untraced runs.
const std::vector<std::pair<std::string, std::string>>& wall_clock_names() {
  static const std::vector<std::pair<std::string, std::string>> v = {
      {"latency_ms_p50", "ms"},
      {"latency_ms_p90", "ms"},
      {"latency_ms_p99", "ms"},
      {"dense_latency_ms_p50", "ms"},
      {"slo_attainment", "fraction"},
  };
  return v;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> v = [] {
    std::vector<std::pair<std::string, std::string>> out = wall_clock_names();
    for (const char* s : kResnetStages)
      out.emplace_back(std::string("runtime.run_ms.") + s, "ms");
    for (const char* s : kResnetStages)
      out.emplace_back(std::string("runtime.dense_run_ms.") + s, "ms");
    out.emplace_back("runtime.gmacs", "GMAC/s");
    out.emplace_back("runtime.gbps_computed", "GB/s");
    for (const char* s : kDecodeLayers)
      out.emplace_back(std::string("runtime.run_ms.") + s, "ms");
    for (const auto& [n, u] : std::vector<std::pair<std::string, std::string>>{
             {"serving.queue_ms_p50", "ms"},
             {"serving.queue_ms_p99", "ms"},
             {"serving.exec_ms_p50", "ms"},
             {"serving.batch_size_mean", "requests"},
             {"serving.occupancy", "fraction"},
             {"serving.batches", "count"},
             {"serving.degraded_batches", "count"},
             {"serving.shed", "count"},
             {"serving.expired", "count"},
             {"bench.generator_lag_ms_max", "ms"},
             {"core.build_plan_ms", "ms"},
             {"core.decompositions", "count"},
             {"runtime.compile_ms", "ms"},
             {"artifact.load_ms", "ms"},
             {"artifact.file_mb", "MB"},
             {"artifact.decompositions", "count"},
             {"core.model_bytes", "B"},
             {"runtime.nm_real_bytes", "B"},
             {"runtime.nm_real_over_model_bytes", "ratio"},
             {"runtime.nm_real_over_dense_bytes", "ratio"},
             {"core.model_over_dense_bytes", "ratio"},
             {"bench.trace_overhead_pct", "%"},
         })
      out.emplace_back(n, u);
    return out;
  }();
  return v;
}

std::string phase_json(const Phase& p) {
  return "{\"attempted\":" + std::to_string(p.attempted) +
         ",\"ok\":" + std::to_string(p.ok) +
         ",\"failed\":" + std::to_string(p.failed) +
         ",\"wrong\":" + std::to_string(p.wrong) + "}";
}

std::string simd_tier() {
  if (avx512_available()) return "avx512";
  if (avx2_available()) return "avx2";
  return "scalar";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool probe = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> v;
    if (k == "--probe-serving") {
      a.probe = true;
      continue;
    }
    if (!(v = value())) return std::nullopt;
    char* endp = nullptr;
    if (k == "--workload") {
      a.workload = *v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v->c_str(), &endp, 10);
      have_seed = *endp == '\0' && !v->empty();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v->c_str(), &endp);
      if (*endp != '\0') return std::nullopt;
    } else if (k == "--trace") {
      a.trace = *v == "0" ? 0 : *v == "1" ? 1 : -1;
    } else {
      return std::nullopt;
    }
  }
  if (!have_seed) return std::nullopt;
  if (a.probe) return a;
  if (a.workload.empty() || !(a.seconds > 0.0) || a.trace < 0)
    return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: tasdbench --workload <resnet34-b1|decode-gemv|"
                 "serve-decode-open> --seed <n> --seconds <s> --trace <0|1>\n"
                 "       tasdbench --probe-serving --seed <n>\n");
    return 2;
  }
  if (args->probe) return probe_serving(args->seed);

  Tracer tracer(args->trace == 1);
  Results r;
  const auto t_start = Clock::now();
  const CpuTicks ticks_start = cpu_ticks();
  try {
    if (args->workload == "resnet34-b1") {
      r = run_resnet(args->seed, args->seconds, tracer);
    } else if (args->workload == "decode-gemv") {
      r = run_decode(args->seed, args->seconds, tracer);
    } else if (args->workload == "serve-decode-open") {
      r = run_serve(args->seed, args->seconds, tracer);
    } else {
      std::fprintf(stderr, "tasdbench: unknown workload '%s'\n",
                   args->workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tasdbench: %s\n", e.what());
    r.setup.record(false);
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t_start).count();
  // Stolen CPU over the run: a noisy shared host shows here first.
  const CpuTicks ticks_end = cpu_ticks();
  const double ticks = ticks_end.total - ticks_start.total;
  const double steal_pct =
      ticks > 0 ? 100.0 * (ticks_end.steal - ticks_start.steal) / ticks : 0.0;

  const std::uint64_t attempted = std::max<std::uint64_t>(1, r.attempted());
  const std::uint64_t failed = r.failed();
  const bool correct = r.wrong() == 0 && r.gate.attempted > 0 &&
                       r.timed.attempted > 0;
  r.set("ok_rate",
        static_cast<double>(attempted - std::min(failed, attempted)) /
            static_cast<double>(attempted),
        "fraction", attempted);

  // Run stamp: what a reader needs to refuse a silent cross-host compare.
  std::ostringstream stamp;
  stamp << "{\"workload\":" << json_str(args->workload)
        << ",\"seed\":" << args->seed
        << ",\"seconds\":" << json_num(args->seconds)
        << ",\"trace\":" << args->trace
        << ",\"cpu_signature\":" << json_str(cpu_signature())
        << ",\"simd_tier\":" << json_str(simd_tier())
        << ",\"TASD_DISABLE_AVX2\":" << json_str(env_or_empty("TASD_DISABLE_AVX2"))
        << ",\"TASD_DISABLE_AVX512\":"
        << json_str(env_or_empty("TASD_DISABLE_AVX512"))
        << ",\"pool_threads\":" << rt::default_num_threads()
        << ",\"wall_s\":" << json_num(wall_s)
        << ",\"host_steal_pct\":" << json_num(steal_pct)
        << ",\"phases\":{\"setup\":" << phase_json(r.setup)
        << ",\"gate\":" << phase_json(r.gate)
        << ",\"warmup\":" << phase_json(r.warmup)
        << ",\"timed\":" << phase_json(r.timed) << "},\"kernels\":{";
  for (std::size_t i = 0; i < r.kernels.size(); ++i)
    stamp << (i ? "," : "") << json_str(r.kernels[i].first) << ":"
          << json_str(r.kernels[i].second);
  stamp << "}}";
  std::printf("stamp %s\n", stamp.str().c_str());
  for (const auto& note : r.notes) std::printf("note %s\n", note.c_str());

  const auto& names =
      args->trace == 1 ? per_layer_names() : end_to_end_names();
  const auto print_metric = [&](const std::string& name,
                                const std::string& unit,
                                const char* suffix) -> Metric {
    const auto it = r.metrics.find(name);
    const Metric m =
        it != r.metrics.end() ? it->second : Metric{0.0, unit, 0};
    std::printf("metric %-36s %14.6g %-9s n=%zu%s\n", name.c_str(), m.value,
                unit.c_str(), m.samples,
                it == r.metrics.end() ? "  (not measured by this workload)"
                                      : suffix);
    return m;
  };
  std::ostringstream metrics, full;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Metric m = print_metric(names[i].first, names[i].second, "");
    metrics << (i ? "," : "") << json_str(names[i].first)
            << ":{\"value\":" << json_num(m.value)
            << ",\"unit\":" << json_str(names[i].second) << "}";
  }
  if (args->trace == 0)
    for (const auto& [name, unit] : wall_clock_names())
      print_metric(name, unit, "  (wall clock, no bound)");
  for (const auto& [name, m] : r.metrics)
    full << (full.tellp() > 0 ? "," : "") << json_str(name)
         << ":{\"value\":" << json_num(m.value)
         << ",\"unit\":" << json_str(m.unit) << ",\"samples\":" << m.samples
         << "}";

  std::error_code ec;
  std::filesystem::create_directories(".bench_out", ec);
  const std::string base = ".bench_out/" + args->workload + "-s" +
                           std::to_string(args->seed) + "-trace" +
                           std::to_string(args->trace);
  std::ofstream out(base + ".json");
  out << "{\"stamp\":" << stamp.str() << ",\"notes\":[";
  for (std::size_t i = 0; i < r.notes.size(); ++i)
    out << (i ? "," : "") << json_str(r.notes[i]);
  out << "],\"metrics\":{" << full.str() << "}}\n";
  if (args->trace == 1) {
    for (const auto& [name, ms] : tracer.self_ms_by_name())
      std::printf("self_ms %-40s %12.3f\n", name.c_str(), ms);
    if (!tracer.write_chrome(base + ".trace.json", stamp.str()))
      std::fprintf(stderr, "tasdbench: cannot write %s.trace.json\n",
                   base.c_str());
    else
      std::printf("trace %s.trace.json\n", base.c_str());
  }

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
