#include "server/load_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <span>
#include <thread>

#include "common/random.h"
#include "server/client.h"
#include "server/protocol.h"

namespace gems {
namespace server {

namespace {

using Clock = std::chrono::steady_clock;

/// One connection's closed loop. Latencies go to `all_us` and, for
/// QUERYs, to `query_us`; `stop` set by a failing peer ends it early.
Status RunConnection(const LoadOptions& options, uint64_t seed,
                     const std::atomic<bool>& stop, std::vector<double>* all_us,
                     std::vector<double>* query_us) {
  Result<GemsdClient> connected = GemsdClient::Connect(options.host,
                                                       options.port);
  if (!connected.ok()) return connected.status();
  GemsdClient& client = connected.value();
  SplitMix64 rng(seed);
  const size_t pipeline = std::max<size_t>(1, options.pipeline);
  // Per-slot item storage outlives each send: requests borrow their spans.
  std::vector<std::vector<uint64_t>> items(
      pipeline, std::vector<uint64_t>(options.batch));
  std::vector<Request> requests(pipeline);
  std::vector<Status> statuses;
  all_us->reserve(options.ops_per_connection);
  for (uint64_t op = 0; op < options.ops_per_connection;) {
    if (stop.load(std::memory_order_relaxed)) break;
    const size_t window =
        std::min<uint64_t>(pipeline, options.ops_per_connection - op);
    for (size_t w = 0; w < window; ++w) {
      Request& request = requests[w];
      const double u = static_cast<double>(rng.Next() >> 11) * 0x1p-53;
      const uint64_t key_id = static_cast<uint64_t>(
          u * u * static_cast<double>(options.num_keys));
      request.key = KeyName(std::min(key_id, options.num_keys - 1));
      if (rng.Next() % 100 < options.update_pct) {
        for (uint64_t& item : items[w]) item = rng.Next();
        request.opcode = Opcode::kUpdate;
        request.items = items[w];
      } else {
        request.opcode = Opcode::kQuery;
        request.items = {};
      }
    }
    const Clock::time_point start = Clock::now();
    Status status;
    if (window == 1) {
      const Request& request = requests[0];
      status = request.opcode == Opcode::kUpdate
                   ? client.Update(request.key, request.items)
                   : client.Query(request.key).status();
    } else {
      status = client.Pipeline(std::span<Request>(requests.data(), window),
                               &statuses);
      for (const Status& s : statuses) {
        if (status.ok() && !s.ok()) status = s;
      }
    }
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count() /
        static_cast<double>(window);
    if (!status.ok()) return status;
    for (size_t w = 0; w < window; ++w) {
      all_us->push_back(us);
      if (requests[w].opcode == Opcode::kQuery) query_us->push_back(us);
    }
    op += window;
  }
  return Status::Ok();
}

}  // namespace

std::string KeyName(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%08llu",
                static_cast<unsigned long long>(i));
  return buf;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t at =
      std::min(sorted.size() - 1,
               static_cast<size_t>(p * static_cast<double>(sorted.size())));
  return sorted[at];
}

Result<LoadResult> RunLoad(const LoadOptions& options) {
  if (options.connections == 0 || options.num_keys == 0) {
    return Status::InvalidArgument("load needs connections and keys");
  }
  const size_t connections = options.connections;
  std::vector<std::vector<double>> all_us(connections);
  std::vector<std::vector<double>> query_us(connections);
  std::vector<Status> statuses(connections);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(connections);
  const Clock::time_point start = Clock::now();
  for (size_t c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      statuses[c] = RunConnection(options, options.seed + c, stop,
                                  &all_us[c], &query_us[c]);
      if (!statuses[c].ok()) stop.store(true, std::memory_order_relaxed);
    });
  }
  for (std::thread& worker : workers) worker.join();
  LoadResult result;
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (size_t c = 0; c < connections; ++c) {
    if (!statuses[c].ok()) return statuses[c];
    result.all_us.insert(result.all_us.end(), all_us[c].begin(),
                         all_us[c].end());
    result.query_us.insert(result.query_us.end(), query_us[c].begin(),
                           query_us[c].end());
  }
  std::sort(result.all_us.begin(), result.all_us.end());
  std::sort(result.query_us.begin(), result.query_us.end());
  return result;
}

}  // namespace server
}  // namespace gems
