// In-memory span recorder for the benchmark's traced mode.
//
// A span is one call into a library module, timed from outside: a name,
// start and end on the steady clock, the span that caused it (its
// parent) and an id shared by every span of one inference, token or
// request. Spans stay in memory while the benchmark runs and are written
// once, at exit, as Chrome trace-event JSON (chrome://tracing, Perfetto).
// When the tracer is off, begin() returns kNoSpan after one branch and
// nothing is recorded, so untraced runs pay no recording cost.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace tasdbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::uint64_t id = 0;      ///< inference / token / request id
  std::int64_t parent = -1;  ///< index of the causing span, -1 for a root
  Clock::time_point start;
  Clock::time_point end;
  std::uint32_t tid = 0;     ///< small per-thread number
};

class Tracer {
 public:
  static constexpr std::int64_t kNoSpan = -1;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Whether spans are recorded right now. A traced run switches
  /// recording off for alternate iterations to measure its own overhead.
  [[nodiscard]] bool recording() const {
    return enabled_ && active_.load(std::memory_order_relaxed);
  }
  void set_active(bool active) {
    active_.store(active, std::memory_order_relaxed);
  }

  /// Open a span starting now; returns its handle (kNoSpan when off).
  std::int64_t begin(std::string name, std::uint64_t id,
                     std::int64_t parent = kNoSpan);
  /// Close a span opened by begin() (no-op on kNoSpan).
  void end(std::int64_t span);
  /// Record a span whose times were taken elsewhere.
  std::int64_t add(std::string name, std::uint64_t id, std::int64_t parent,
                   Clock::time_point start, Clock::time_point end);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Total self time per span name in ms: each span's duration minus the
  /// part of its interval its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_ms_by_name() const;

  /// Write every span as a Chrome trace-event "X" event; `metadata_json`
  /// (a JSON object) is stored under the top-level "metadata" key.
  /// Returns false when the file cannot be written.
  bool write_chrome(const std::string& path,
                    const std::string& metadata_json) const;

 private:
  std::uint32_t thread_number();

  bool enabled_;
  std::atomic<bool> active_{true};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> threads_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, std::uint64_t id,
             std::int64_t parent = Tracer::kNoSpan)
      : t_(t), span_(t.begin(std::move(name), id, parent)) {}
  ~ScopedSpan() { t_.end(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t handle() const { return span_; }

 private:
  Tracer& t_;
  std::int64_t span_;
};

}  // namespace tasdbench
