#ifndef GEMS_SERVER_LOAD_DRIVER_H_
#define GEMS_SERVER_LOAD_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

/// \file
/// Closed-loop gemsd load: `connections` client threads, each issuing
/// `ops_per_connection` requests against keys named by KeyName(). Every
/// request draws a zipf-ish key (a squared uniform draw, so low key ids
/// dominate while the whole keyspace tail is still touched), then an
/// update coin, then — for an UPDATE — `batch` random items; the rest are
/// QUERYs. With `pipeline` > 1 each connection ships windows of that many
/// requests in one send and drains them in order; each request's latency
/// is then the window time over the window size. The E15 serving bench
/// and gemsd_loadgen both run this loop.

namespace gems {
namespace server {

/// Name of key `i`: "k" plus eight or more decimal digits.
std::string KeyName(uint64_t i);

/// The value at rank floor(p * n) of `sorted` (clamped to the last); 0 if
/// empty.
double Percentile(const std::vector<double>& sorted, double p);

struct LoadOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t connections = 8;
  uint64_t ops_per_connection = 1000;
  /// Items per UPDATE.
  size_t batch = 64;
  /// Percent of requests that are UPDATEs; the rest are QUERYs.
  uint64_t update_pct = 90;
  /// Keys KeyName(0) .. KeyName(num_keys - 1), which must already exist.
  uint64_t num_keys = 1;
  /// Requests per send; 1 is one round trip per request.
  size_t pipeline = 1;
  /// Connection c draws its requests from SplitMix64(seed + c).
  uint64_t seed = 0;
};

struct LoadResult {
  /// Per-request latencies in microseconds, sorted: every request, and
  /// the QUERYs alone.
  std::vector<double> all_us;
  std::vector<double> query_us;
  /// From the first connect to the last connection's end.
  double wall_s = 0.0;
};

/// Runs the closed loop to completion. Returns the first failing Status
/// (in connection order) if any connect or request failed; a failure ends
/// every connection at its next request.
Result<LoadResult> RunLoad(const LoadOptions& options);

}  // namespace server
}  // namespace gems

#endif  // GEMS_SERVER_LOAD_DRIVER_H_
