#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

/// \file
/// Run configuration, the result every workload fills in, and the JSON
/// the benchmark prints and saves. Values are written at full precision.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the smoke test; the figures mean nothing there.
  bool tiny = false;
  /// Where the result file and the spans file go.
  std::string out_dir = ".bench_out";
  /// Git sha or source digest of the code under test (set by run.py).
  std::string source_id = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (reported by the untraced run) and per-layer
  /// metrics (reported by the traced run).
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Sample counts and other context, saved in the result file only.
  std::vector<Metric> details;
  /// Where the traced run's spans were written.
  std::string spans_file;

  void EndToEnd(const std::string& name, double value,
                const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void Detail(const std::string& name, double value,
              const std::string& unit) {
    details.push_back({name, value, unit});
  }
  /// Records `count` failed checks or operations with a reason on stderr.
  void Fail(uint64_t count, const std::string& why);
};

/// One timed call, for the latency figures.
struct Sample {
  double end_s = 0.0;     // When it completed, since the timed phase began.
  double us = 0.0;        // How long it took.
  bool is_query = false;  // Read side (query_*) or write side (update_*).
};

/// One completed request, for the throughput figures.
struct Completion {
  double end_s = 0.0;    // Since the timed phase began.
  double busy_us = 0.0;  // Time the system under test spent on it.
  uint64_t items = 0;    // Items it carried (items_per_s).
};

/// The end-to-end throughput and latency figures of a timed phase. The
/// phase is cut into `windows` equal slices of wall time; each figure is
/// computed per slice and the median across slices is reported, so a burst
/// of interference on the host moves one slice, not the result. Throughput
/// divides by the slice's length, or with `busy_time` by the busy time of
/// its requests (single-threaded loops whose input generation sits between
/// requests).
void ReportWindowed(const std::vector<Completion>& requests,
                    const std::vector<Sample>& latencies, double seconds,
                    int windows, bool busy_time, RunResult* result);

/// Sorts `values` and returns the p-quantile (nearest rank); 0 if empty.
double Percentile(std::vector<double>& values, double p);

/// Median of a copy of `values`.
double Median(std::vector<double> values);

/// Peak resident set size of this process so far (VmHWM), in MiB.
double PeakRssMb();

/// Writes the traced run's spans, one log per recording thread, to the
/// spans file and names it in `result`.
void SaveSpans(const Config& config, const std::vector<const SpanLog*>& logs,
               RunResult* result);

/// Writes the result file, prints the provenance line and, last, the
/// result line. Returns false if the file could not be written.
bool Emit(const Config& config, const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
