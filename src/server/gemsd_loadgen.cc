// gemsd_loadgen: closed-loop load generator for a running gemsd.
//
//   gemsd_loadgen [--host=127.0.0.1] [--port=7171] [--connections=8]
//                 [--keys=10000] [--ops=100000] [--batch=64]
//                 [--update-pct=90] [--type=hllpp] [--pipeline=1]
//
// Pre-creates `keys` sketches named k00000000.., then runs `connections`
// client threads, each issuing `ops` requests: an UPDATE of `batch`
// zipf-keyed items with probability update-pct, a QUERY otherwise.
// --pipeline=N > 1 ships requests in pipelined windows of N over each
// connection (one send, N responses), amortizing the RTT; per-request
// latency is then reported as window-time / N.
// Prints aggregate requests/s and client-observed latency percentiles.
// Exits nonzero if any connect, CREATE or request fails.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/client.h"
#include "server/load_driver.h"

namespace {

using gems::server::GemsdClient;
using gems::server::KeyName;

uint64_t FlagU64(const char* arg, const char* name, uint64_t fallback) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return fallback;
  return std::strtoull(arg + len, nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  gems::server::LoadOptions options;
  options.port = 7171;
  options.num_keys = 10000;
  options.ops_per_connection = 100000;
  options.seed = 0x10AD;
  std::string sketch_type = "hllpp";

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--host=", 7) == 0) {
      options.host = arg + 7;
    } else if (std::strncmp(arg, "--type=", 7) == 0) {
      sketch_type = arg + 7;
    } else {
      options.port =
          static_cast<uint16_t>(FlagU64(arg, "--port=", options.port));
      options.connections =
          FlagU64(arg, "--connections=", options.connections);
      options.num_keys = FlagU64(arg, "--keys=", options.num_keys);
      options.ops_per_connection =
          FlagU64(arg, "--ops=", options.ops_per_connection);
      options.batch = FlagU64(arg, "--batch=", options.batch);
      options.update_pct = FlagU64(arg, "--update-pct=", options.update_pct);
      options.pipeline = FlagU64(arg, "--pipeline=", options.pipeline);
    }
  }
  if (options.pipeline == 0) options.pipeline = 1;

  // Create the key population over one connection; tolerate rerunning
  // against a warm daemon (kAlreadyExists is fine).
  {
    gems::Result<GemsdClient> setup =
        GemsdClient::Connect(options.host, options.port);
    if (!setup.ok()) {
      std::fprintf(stderr, "loadgen: %s\n",
                   setup.status().ToString().c_str());
      return 1;
    }
    for (uint64_t k = 0; k < options.num_keys; ++k) {
      gems::Status s = setup.value().Create(KeyName(k), sketch_type);
      if (!s.ok() && s.code() != gems::StatusCode::kAlreadyExists) {
        std::fprintf(stderr, "loadgen: create %s: %s\n",
                     KeyName(k).c_str(), s.ToString().c_str());
        return 1;
      }
    }
  }

  gems::Result<gems::server::LoadResult> run =
      gems::server::RunLoad(options);
  if (!run.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const std::vector<double>& all_us = run.value().all_us;
  std::printf(
      "loadgen: %zu conns x %llu ops (%zu-item batches, %llu%% update, "
      "pipeline %zu) over %s:%u\n",
      options.connections,
      static_cast<unsigned long long>(options.ops_per_connection),
      options.batch, static_cast<unsigned long long>(options.update_pct),
      options.pipeline, options.host.c_str(), options.port);
  std::printf("  %.0f requests/s; latency p50 %.1f us, p99 %.1f us, "
              "max %.1f us\n",
              static_cast<double>(all_us.size()) / run.value().wall_s,
              gems::server::Percentile(all_us, 0.50),
              gems::server::Percentile(all_us, 0.99),
              all_us.empty() ? 0.0 : all_us.back());
  return 0;
}
