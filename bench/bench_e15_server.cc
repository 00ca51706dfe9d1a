// E15: gemsd end-to-end serving benchmark.
//
//   bench_e15_server --e15_server_json=out.json [--e15_keys=N]
//                    [--e15_ops=N] [--e15_connections=N] [--e15_batch=N]
//                    [--e15_threads=N]
//
// Stands up an in-process gemsd (real epoll server, real loopback
// sockets) over a keyspace of `keys` hllpp sketches, then drives three
// closed-loop scenarios (server/load_driver.h) at `connections` client
// threads:
//
//   update_heavy  90% UPDATE / 10% QUERY — the ingest-dominated shape
//   query_heavy   10% UPDATE / 90% QUERY — the read-dominated shape
//   query_idle   100% QUERY             — reader latency with no writers
//
// Reported per scenario: aggregate requests/s and client-observed
// latency percentiles, with QUERY latencies also broken out separately.
// The headline gate is `loaded_vs_idle_query_p99`: QUERY p99 while the
// same daemon absorbs concurrent writer traffic (the query_heavy mix),
// over QUERY p99 on an idle daemon with identical sketch state. Epoch-
// published reads mean writers never hold a lock a reader wants, so this
// ratio should stay small (CI gates it at 2x); a regression here means
// ingest started blocking the read path.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_harness.h"
#include "core/registry.h"
#include "server/keyspace.h"
#include "server/load_driver.h"
#include "server/server.h"

namespace {

using gems::server::KeyName;
using gems::server::Keyspace;
using gems::server::KeyspaceOptions;
using gems::server::LoadOptions;
using gems::server::Percentile;
using gems::server::Server;
using gems::server::ServerOptions;

struct ScenarioResult {
  std::string name;
  uint64_t update_pct = 0;
  double requests_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double query_p50_us = 0.0;
  double query_p99_us = 0.0;
  uint64_t total_requests = 0;
};

/// Runs one closed-loop mix; exits the process if any request fails.
ScenarioResult RunScenario(const std::string& name, LoadOptions options,
                           uint64_t update_pct) {
  options.update_pct = update_pct;
  gems::Result<gems::server::LoadResult> run = gems::server::RunLoad(options);
  if (!run.ok()) {
    std::fprintf(stderr, "e15: %s: %s\n", name.c_str(),
                 run.status().ToString().c_str());
    std::exit(1);
  }
  const gems::server::LoadResult& load = run.value();
  ScenarioResult result;
  result.name = name;
  result.update_pct = update_pct;
  result.total_requests = load.all_us.size();
  result.requests_per_sec =
      static_cast<double>(load.all_us.size()) / load.wall_s;
  result.p50_us = Percentile(load.all_us, 0.50);
  result.p99_us = Percentile(load.all_us, 0.99);
  result.query_p50_us = Percentile(load.query_us, 0.50);
  result.query_p99_us = Percentile(load.query_us, 0.99);
  std::printf(
      "e15 %-12s %8.0f req/s  p50 %7.1f us  p99 %7.1f us  "
      "(query p50 %7.1f us, p99 %7.1f us)\n",
      name.c_str(), result.requests_per_sec, result.p50_us, result.p99_us,
      result.query_p50_us, result.query_p99_us);
  std::fflush(stdout);
  return result;
}

gems::bench::Json ScenarioJson(const ScenarioResult& r) {
  return gems::bench::Json::Object()
      .Set("name", r.name)
      .Set("update_pct", r.update_pct)
      .Set("total_requests", r.total_requests)
      .Set("requests_per_sec", r.requests_per_sec)
      .Set("p50_us", r.p50_us)
      .Set("p99_us", r.p99_us)
      .Set("query_p50_us", r.query_p50_us)
      .Set("query_p99_us", r.query_p99_us);
}

}  // namespace

int main(int argc, char** argv) {
  gems::bench::Flags flags(argc, argv);
  const std::string json_path = flags.String("e15_server_json");
  LoadOptions load;
  load.num_keys = flags.U64("e15_keys", 100000);
  load.ops_per_connection = flags.U64("e15_ops", 20000);
  load.connections = flags.U64("e15_connections", 8);
  load.batch = flags.U64("e15_batch", 64);
  load.seed = 0xE15ull * 1315423911u;
  const size_t server_threads = flags.U64("e15_threads", 4);
  if (!flags.NoneUnclaimed("e15")) return 1;
  if (load.num_keys == 0 || load.ops_per_connection == 0 ||
      load.connections == 0 || load.batch == 0) {
    std::fprintf(stderr, "e15: all sizes must be nonzero\n");
    return 1;
  }

  gems::RegisterBuiltinSketches();

  // The keyspace is populated in-process (a million CREATE round trips
  // would measure the loopback, not the daemon).
  KeyspaceOptions keyspace_options;
  keyspace_options.num_shards = 256;
  Keyspace keyspace(keyspace_options);
  const gems::bench::Clock::time_point create_start =
      gems::bench::Clock::now();
  for (uint64_t k = 0; k < load.num_keys; ++k) {
    if (gems::Status s = keyspace.Create(KeyName(k), "hllpp"); !s.ok()) {
      std::fprintf(stderr, "e15: create: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::printf("e15: created %llu hllpp keys in %.1f s\n",
              static_cast<unsigned long long>(load.num_keys),
              gems::bench::SecondsSince(create_start));

  ServerOptions server_options;
  server_options.num_threads = server_threads;
  Server server(&keyspace, server_options);
  if (gems::Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "e15: start: %s\n", s.ToString().c_str());
    return 1;
  }
  load.port = server.port();

  // The throughput mixes run first, which doubles as warm-up: by the time
  // the idle baseline runs, the hot keys have real (dense) state, so the
  // loaded and idle query paths pay the same per-estimate cost and the
  // gate ratio isolates the effect of concurrent ingest rather than
  // comparing dense-sketch scans against empty-sketch scans.
  const ScenarioResult update_heavy = RunScenario("update_heavy", load, 90);
  const ScenarioResult query_heavy = RunScenario("query_heavy", load, 10);
  const ScenarioResult idle = RunScenario("query_idle", load, 0);
  server.Stop();

  // QUERY tail latency while the daemon absorbs concurrent writer
  // traffic, over the idle tail. query_heavy (not update_heavy) is the
  // numerator: its queries run against live concurrent ingest, while its
  // own closed-loop connections are not saturated with update service
  // time — so the ratio measures whether writers block or starve readers
  // (the epoch-publish contract), not how much more CPU an UPDATE costs
  // than a QUERY on a saturated host.
  const double ratio = idle.query_p99_us > 0.0
                           ? query_heavy.query_p99_us / idle.query_p99_us
                           : 0.0;
  std::printf("e15: loaded_vs_idle_query_p99 = %.2f\n", ratio);

  if (json_path.empty()) return 0;

  const gems::bench::Json body =
      gems::bench::Json::Object()
          .Set("keys", load.num_keys)
          .Set("connections", load.connections)
          .Set("batch", load.batch)
          .Set("ops_per_connection", load.ops_per_connection)
          .Set("server_threads", server_threads)
          .Set("scenarios", gems::bench::Json::Array()
                                .Push(ScenarioJson(idle))
                                .Push(ScenarioJson(update_heavy))
                                .Push(ScenarioJson(query_heavy)))
          .Set("loaded_vs_idle_query_p99", ratio);
  return gems::bench::WriteReport("e15_server", json_path, body) ? 0 : 1;
}
