#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "common/hugepage.h"
#include "simd/dispatch.h"

namespace perfbench {

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quoted(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) +
           ", \"unit\": " + Quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Processor model from /proc/cpuinfo, or "unknown".
std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string ProvenanceJson(const Config& config) {
  return "{\"workload\": " + Quoted(config.workload) +
         ", \"seed\": " + std::to_string(config.seed) +
         ", \"seconds\": " + Number(config.seconds) +
         ", \"trace\": " + (config.trace ? "1" : "0") +
         ", \"scale\": " + Quoted(config.tiny ? "tiny" : "full") +
         ", \"cpu_model\": " + Quoted(CpuModel()) +
         ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": " + Quoted(PERFBENCH_BUILD_TYPE) +
         ", \"source\": " + Quoted(config.source_id) +
         ", \"dispatch\": " + gems::simd::DispatchJson() +
         ", \"layout\": " + gems::LayoutJson() + "}";
}

}  // namespace

void RunResult::Fail(uint64_t count, const std::string& why) {
  correct = false;
  failed += count;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t at = std::min(
      values.size() - 1, static_cast<size_t>(std::max(rank, 1.0)) - 1);
  return values[at];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

void ReportWindowed(const std::vector<Completion>& requests,
                    const std::vector<Sample>& latencies, double seconds,
                    int windows, bool busy_time, RunResult* result) {
  struct Slice {
    uint64_t requests = 0;
    uint64_t items = 0;
    double busy_us = 0.0;
    std::vector<double> us[2];  // update, query
  };
  std::vector<Slice> slices(windows);
  const double width = seconds / windows;
  const auto slice_of = [&](double end_s) -> Slice& {
    return slices[std::clamp(static_cast<int>(end_s / width), 0, windows - 1)];
  };
  for (const Completion& c : requests) {
    Slice& slice = slice_of(c.end_s);
    ++slice.requests;
    slice.items += c.items;
    slice.busy_us += c.busy_us;
  }
  for (const Sample& s : latencies) {
    slice_of(s.end_s).us[s.is_query ? 1 : 0].push_back(s.us);
  }
  std::vector<double> items_per_s;
  std::vector<double> requests_per_s;
  std::vector<double> p50[2];
  std::vector<double> p90[2];
  size_t counts[2] = {0, 0};
  for (Slice& slice : slices) {
    if (slice.requests > 0) {
      const double span_s = busy_time ? slice.busy_us / 1e6 : width;
      items_per_s.push_back(static_cast<double>(slice.items) / span_s);
      requests_per_s.push_back(static_cast<double>(slice.requests) / span_s);
    }
    for (int kind = 0; kind < 2; ++kind) {
      counts[kind] += slice.us[kind].size();
      if (slice.us[kind].empty()) continue;
      p50[kind].push_back(Percentile(slice.us[kind], 0.50));
      p90[kind].push_back(Percentile(slice.us[kind], 0.90));
    }
  }
  result->EndToEnd("items_per_s", Median(items_per_s), "1/s");
  result->EndToEnd("requests_per_s", Median(requests_per_s), "1/s");
  result->EndToEnd("update_p50_us", Median(p50[0]), "us");
  result->EndToEnd("update_p90_us", Median(p90[0]), "us");
  result->EndToEnd("query_p50_us", Median(p50[1]), "us");
  result->EndToEnd("query_p90_us", Median(p90[1]), "us");
  result->Detail("requests", static_cast<double>(requests.size()), "count");
  result->Detail("update_samples", static_cast<double>(counts[0]), "count");
  result->Detail("query_samples", static_cast<double>(counts[1]), "count");
  for (size_t i = 0; i < requests_per_s.size(); ++i) {
    result->Detail("window" + std::to_string(i) + ".requests_per_s",
                   requests_per_s[i], "1/s");
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB.
    }
  }
  return 0.0;
}

namespace {

std::string FileStem(const Config& config) {
  return config.out_dir + "/" + config.workload + "_seed" +
         std::to_string(config.seed) + "_trace" + (config.trace ? "1" : "0");
}

}  // namespace

void SaveSpans(const Config& config, const std::vector<const SpanLog*>& logs,
               RunResult* result) {
  result->spans_file = FileStem(config) + "_spans.csv";
  if (!WriteSpans(result->spans_file, logs)) {
    result->Fail(1, "cannot write " + result->spans_file);
  }
}

bool Emit(const Config& config, const RunResult& result) {
  bool ok = true;
  const std::string provenance = ProvenanceJson(config);
  const std::string line =
      std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": " +
      MetricsJson(config.trace ? result.per_layer : result.end_to_end) + "}";
  const std::string saved =
      "{\"provenance\": " + provenance + ",\n \"spans_file\": " +
      Quoted(result.spans_file) + ",\n \"end_to_end\": " +
      MetricsJson(result.end_to_end) + ",\n \"per_layer\": " +
      MetricsJson(result.per_layer) + ",\n \"details\": " +
      MetricsJson(result.details) + ",\n \"result\": " + line + "}\n";
  const std::string result_path = FileStem(config) + ".json";
  if (std::FILE* f = std::fopen(result_path.c_str(), "wb")) {
    std::fwrite(saved.data(), 1, saved.size(), f);
    ok = std::fclose(f) == 0 && ok;
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s\n", result_path.c_str());
    ok = false;
  }
  std::printf("{\"provenance\": %s}\n%s\n", provenance.c_str(), line.c_str());
  std::fflush(stdout);
  return ok;
}

}  // namespace perfbench
