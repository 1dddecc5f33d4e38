#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace tasdbench {

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::uint32_t Tracer::thread_number() {
  const auto next = static_cast<std::uint32_t>(threads_.size() + 1);
  return threads_.try_emplace(std::this_thread::get_id(), next).first->second;
}

std::int64_t Tracer::begin(std::string name, std::uint64_t id,
                           std::int64_t parent) {
  if (!recording()) return kNoSpan;
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), id, parent, now, now,
                        thread_number()});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::end(std::int64_t span) {
  if (span == kNoSpan) return;
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(span)].end = now;
}

std::int64_t Tracer::add(std::string name, std::uint64_t id,
                         std::int64_t parent, Clock::time_point start,
                         Clock::time_point end) {
  if (!recording()) return kNoSpan;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), id, parent, start, end,
                        thread_number()});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::size_t>> children(all.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    if (all[i].parent >= 0)
      children[static_cast<std::size_t>(all[i].parent)].push_back(i);

  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    for (std::size_t c : children[i])
      iv.emplace_back(std::max(all[c].start, s.start),
                      std::min(all[c].end, s.end));
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : iv) {
      const auto from = std::max(a, reach);
      if (b > from) {
        covered += ms_between(from, b);
        reach = b;
      }
    }
    out[s.name] += std::max(0.0, ms_between(s.start, s.end) - covered);
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& metadata_json) const {
  const std::vector<Span> all = spans();
  std::ofstream f(path);
  if (!f) return false;
  Clock::time_point origin = all.empty() ? Clock::now() : all.front().start;
  for (const Span& s : all) origin = std::min(origin, s.start);
  f << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << metadata_json
    << ",\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                  s.tid, ms_between(origin, s.start) * 1e3,
                  ms_between(s.start, s.end) * 1e3);
    f << (i ? ",\n" : "\n") << "{\"name\":\"" << json_escape(s.name) << "\","
      << buf << ",\"args\":{\"span\":" << i << ",\"id\":" << s.id
      << ",\"parent\":" << s.parent << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace tasdbench
