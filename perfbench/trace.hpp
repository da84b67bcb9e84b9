#pragma once
// Span recording for the benchmark's traced runs.  Spans are taken from the
// benchmark's side of each call into a library layer: a name, a start and
// end on the steady clock, the span that caused it, and the id of the
// operation (SA iteration or served request) it belongs to.  Spans stay in
// memory; the runner writes them out when the run ends.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string: the layer boundary crossed
  std::uint64_t op = 0;   ///< iteration or request id; shared by its spans
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::int32_t parent = -1;  ///< index into the same log; -1 for a root
};

/// One thread's spans.  Not thread-safe: each recording thread owns a log.
class SpanLog {
 public:
  /// Opens a span now and returns its index.
  std::int32_t open(const char* name, std::uint64_t op, std::int32_t parent = -1) {
    return add(name, op, now_ns(), 0, parent);
  }
  void close(std::int32_t index) { close_at(index, now_ns()); }
  void close_at(std::int32_t index, std::int64_t t) { spans_[static_cast<std::size_t>(index)].t1 = t; }
  /// Records a span whose both ends are already known.
  std::int32_t add(const char* name, std::uint64_t op, std::int64_t t0, std::int64_t t1,
                   std::int32_t parent = -1) {
    spans_.push_back(Span{name, op, t0, t1, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

struct LayerTime {
  double self_ms = 0.0;   ///< span time not covered by its child spans
  double total_ms = 0.0;  ///< span time including children
  std::uint64_t count = 0;
};

/// Self and total time per span name over the given logs.  Children of one
/// span are recorded from one thread and never overlap, so a span's self time
/// is its duration minus the sum of its children's durations.
inline std::map<std::string, LayerTime> layer_times(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, LayerTime> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      LayerTime& lt = out[spans[i].name];
      const std::int64_t dur = spans[i].t1 - spans[i].t0;
      lt.total_ms += static_cast<double>(dur) * 1e-6;
      lt.self_ms += static_cast<double>(dur - child_ns[i]) * 1e-6;
      ++lt.count;
    }
  }
  return out;
}

/// Writes the logs as Chrome trace-event JSON (viewable in Perfetto or
/// chrome://tracing).  At most `max_events` spans are written; the count of
/// spans left out is recorded in the file's metadata.
inline bool write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs,
                               std::size_t max_events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t base = INT64_MAX;
  std::size_t total = 0;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) base = std::min(base, s.t0);
    total += log->spans().size();
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  std::size_t written = 0;
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    for (const Span& s : logs[tid]->spans()) {
      if (written == max_events) break;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"op\":%llu,\"parent\":%d}}\n",
                   written == 0 ? "" : ",", s.name, tid,
                   static_cast<double>(s.t0 - base) * 1e-3,
                   static_cast<double>(s.t1 - s.t0) * 1e-3,
                   static_cast<unsigned long long>(s.op), s.parent);
      ++written;
    }
  }
  std::fprintf(f, "],\"metadata\":{\"spans\":%zu,\"written\":%zu}}\n", total, written);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
