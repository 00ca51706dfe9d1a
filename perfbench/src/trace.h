#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

/// \file
/// Span recording for the traced benchmark run. Spans are taken in the
/// benchmark's own code around calls into each library layer; nothing
/// inside the library is instrumented. Each thread owns one SpanLog, so
/// recording takes no locks. A log keeps every span in memory up to a cap
/// (the spans file) and per-name totals for all of them (the per-layer
/// metrics), and is written out when the benchmark ends.

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t request = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root.
  std::string_view name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  struct Stat {
    uint64_t count = 0;
    int64_t total_ns = 0;
  };

  explicit SpanLog(size_t max_kept = size_t{1} << 17) : max_kept_(max_kept) {}

  /// Reserves the id of a span that has started; Record() files it.
  uint32_t NextId() { return ++last_id_; }

  void Record(const Span& span) {
    Stat& stat = stats_[span.name];
    ++stat.count;
    stat.total_ns += span.end_ns - span.start_ns;
    if (spans_.size() < max_kept_) {
      spans_.push_back(span);
    } else {
      ++dropped_;
    }
  }

  Stat Get(std::string_view name) const {
    const auto it = stats_.find(name);
    return it == stats_.end() ? Stat{} : it->second;
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  size_t max_kept_;
  uint32_t last_id_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
  std::map<std::string_view, Stat, std::less<>> stats_;
};

/// Times one call into a layer. With a null log it records nothing, so the
/// untraced run pays only the null check.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string_view name, uint64_t request,
             uint32_t parent = 0)
      : log_(log) {
    if (log_ == nullptr) return;
    span_.name = name;
    span_.request = request;
    span_.parent = parent;
    span_.id = log_->NextId();
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    span_.end_ns = NowNs();
    log_->Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

/// Sums one span name's totals across thread logs.
inline SpanLog::Stat Total(const std::vector<const SpanLog*>& logs,
                           std::string_view name) {
  SpanLog::Stat total;
  for (const SpanLog* log : logs) {
    const SpanLog::Stat s = log->Get(name);
    total.count += s.count;
    total.total_ns += s.total_ns;
  }
  return total;
}

/// Mean span duration in `unit_ns` units (1 = ns, 1e3 = us, 1e6 = ms).
inline double MeanOf(const std::vector<const SpanLog*>& logs,
                     std::string_view name, double unit_ns) {
  const SpanLog::Stat s = Total(logs, name);
  return s.count == 0 ? 0.0
                      : static_cast<double>(s.total_ns) /
                            static_cast<double>(s.count) / unit_ns;
}

/// Writes every kept span as CSV (thread, request, span, parent, name,
/// start_ns, end_ns). Returns false on an I/O error.
inline bool WriteSpans(const std::string& path,
                       const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  uint64_t dropped = 0;
  for (const SpanLog* log : logs) dropped += log->dropped();
  std::fprintf(f, "# spans beyond the per-thread cap not kept: %llu\n",
               static_cast<unsigned long long>(dropped));
  std::fprintf(f, "thread,request,span,parent,name,start_ns,end_ns\n");
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t]->spans()) {
      std::fprintf(f, "%zu,%llu,%u,%u,%.*s,%lld,%lld\n", t,
                   static_cast<unsigned long long>(s.request), s.id, s.parent,
                   static_cast<int>(s.name.size()), s.name.data(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
