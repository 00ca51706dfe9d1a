#ifndef GEMS_BENCH_BENCH_HARNESS_H_
#define GEMS_BENCH_BENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/hugepage.h"
#include "simd/dispatch.h"

#ifndef GEMS_BENCH_BUILD_TYPE
#define GEMS_BENCH_BUILD_TYPE "unknown"
#endif

/// \file
/// The harness every JSON-emitting bench shares: a JSON builder, one
/// `--flag=value` parser, one best-of timer and one report writer. Every
/// report is `{"bench": <name>, <body members>, <provenance>}` where the
/// provenance is `dispatch` (SIMD level and CPU features), `layout`
/// (prefetch and hugepage counters), `cpu_model`, `nproc` and
/// `build_type`, so any artifact names the host and build it came from.
/// Numbers are written at full precision (`%.17g`); a non-finite number
/// is written as `null`.

namespace gems::bench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Best wall time of `reps` calls of `fn`, in seconds.
template <typename Fn>
double BestSeconds(int reps, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    fn();
    best = std::min(best, SecondsSince(start));
  }
  return best;
}

/// A JSON object or array, built member by member in insertion order.
/// Objects render on one line; arrays put one element per line, which
/// keeps a report's result rows readable on stdout.
class Json {
 public:
  static Json Object() { return Json('{', '}'); }
  static Json Array() { return Json('[', ']'); }

  Json& Set(std::string_view key, double v) { return Member(key, Number(v)); }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Json& Set(std::string_view key, T v) {
    return Member(key, std::to_string(v));
  }
  Json& Set(std::string_view key, bool v) {
    return Member(key, v ? "true" : "false");
  }
  Json& Set(std::string_view key, std::string_view v) {
    return Member(key, Quoted(v));
  }
  Json& Set(std::string_view key, const char* v) {
    return Set(key, std::string_view(v));
  }
  Json& Set(std::string_view key, const std::string& v) {
    return Set(key, std::string_view(v));
  }
  Json& Set(std::string_view key, const Json& v) {
    return Member(key, v.str());
  }
  /// A member whose value is already rendered JSON.
  Json& SetRaw(std::string_view key, std::string json) {
    return Member(key, std::move(json));
  }

  /// Appends the members of `other` to this object.
  Json& Append(const Json& other) {
    elements_.insert(elements_.end(), other.elements_.begin(),
                     other.elements_.end());
    return *this;
  }

  /// Appends an element to an array.
  Json& Push(const Json& v) {
    elements_.push_back(v.str());
    return *this;
  }

  std::string str() const {
    const bool array = open_ == '[';
    std::string out(1, open_);
    for (size_t i = 0; i < elements_.size(); ++i) {
      if (i > 0) out += ",";
      out += array ? "\n    " : (i > 0 ? " " : "");
      out += elements_[i];
    }
    if (array && !elements_.empty()) out += "\n  ";
    return out + close_;
  }

  /// The members of an object, one per line: the layout of a report.
  std::string Lines() const {
    std::string out = "{\n";
    for (size_t i = 0; i < elements_.size(); ++i) {
      out += "  " + elements_[i] + (i + 1 < elements_.size() ? ",\n" : "\n");
    }
    return out + "}\n";
  }

 private:
  Json(char open, char close) : open_(open), close_(close) {}

  static std::string Number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  static std::string Quoted(std::string_view s) {
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

  Json& Member(std::string_view key, std::string value) {
    elements_.push_back(Quoted(key) + ": " + std::move(value));
    return *this;
  }

  char open_;
  char close_;
  std::vector<std::string> elements_;
};

/// Processor model from /proc/cpuinfo, or "unknown".
inline std::string CpuModel() {
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

/// Writes `{"bench": name, body..., provenance...}` to `path`, then prints
/// it to stdout. Returns false (with a message on stderr) if the file
/// could not be opened, written or closed.
inline bool WriteReport(std::string_view name, const std::string& path,
                        const Json& body) {
  Json report = Json::Object();
  report.Set("bench", name)
      .Append(body)
      .SetRaw("dispatch", simd::DispatchJson())
      .SetRaw("layout", LayoutJson())
      .Set("cpu_model", CpuModel())
      .Set("nproc", std::thread::hardware_concurrency())
      .Set("build_type", GEMS_BENCH_BUILD_TYPE);
  const std::string text = report.Lines();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  bool ok = f != nullptr &&
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::fprintf(stderr, "%.*s: cannot write %s\n",
                 static_cast<int>(name.size()), name.data(), path.c_str());
  }
  std::fputs(text.c_str(), stdout);
  std::fflush(stdout);
  return ok;
}

/// `--name=value` flags. Each getter consumes the flags it matches (the
/// last occurrence wins); whatever no getter claimed is left for
/// `Unclaimed()`, which a bench reports as unknown or passes on.
class Flags {
 public:
  Flags(int argc, char** argv)
      : args_(argv + 1, argv + argc), claimed_(args_.size(), false) {}

  /// The flag's value, or "" when it is absent.
  std::string String(std::string_view name) {
    return Find(name).value_or("");
  }

  uint64_t U64(std::string_view name, uint64_t fallback) {
    const std::optional<std::string> v = Find(name);
    return v ? std::strtoull(v->c_str(), nullptr, 10) : fallback;
  }

  std::vector<char*> Unclaimed() const {
    std::vector<char*> out;
    for (size_t i = 0; i < args_.size(); ++i) {
      if (!claimed_[i]) out.push_back(args_[i]);
    }
    return out;
  }

  /// Reports every unclaimed flag on stderr; true if there were none.
  bool NoneUnclaimed(std::string_view bench) const {
    const std::vector<char*> rest = Unclaimed();
    for (const char* arg : rest) {
      std::fprintf(stderr, "%.*s: unknown flag %s\n",
                   static_cast<int>(bench.size()), bench.data(), arg);
    }
    return rest.empty();
  }

 private:
  std::optional<std::string> Find(std::string_view name) {
    std::optional<std::string> found;
    for (size_t i = 0; i < args_.size(); ++i) {
      const std::string_view arg(args_[i]);
      if (arg.size() > name.size() + 2 && arg.starts_with("--") &&
          arg.substr(2, name.size()) == name && arg[name.size() + 2] == '=') {
        claimed_[i] = true;
        found = std::string(arg.substr(name.size() + 3));
      }
    }
    return found;
  }

  std::vector<char*> args_;
  std::vector<bool> claimed_;
};

}  // namespace gems::bench

#endif  // GEMS_BENCH_BENCH_HARNESS_H_
