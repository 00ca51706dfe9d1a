// Quickstart: the five core sketches in ~60 lines.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Demonstrates distinct counting (HyperLogLog), membership (Bloom filter),
// frequency estimation (Count-Min), top-k (SpaceSaving), and quantiles
// (KLL) over one synthetic stream, against exact baselines.

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "gems.h"

int main() {
  using namespace gems;

  // A skewed stream of 1M events over 100k possible items.
  ZipfGenerator stream(100000, 1.2, /*seed=*/42);
  const size_t n = 1000000;

  // Advisor-driven constructors: state the accuracy target and let the
  // library size the sketch; invalid targets come back as a Status instead
  // of aborting.
  Result<HyperLogLog> distinct_or = HyperLogLog::ForRelativeError(0.01);
  Result<BloomFilter> seen_or = BloomFilter::ForFpr(100000, 0.01);
  Result<CountMinSketch> counts_or = CountMinSketch::ForErrorBound(0.001, 0.02);
  Result<SpaceSaving> top_or = SpaceSaving::ForThreshold(0.008);
  if (!distinct_or.ok() || !seen_or.ok() || !counts_or.ok() || !top_or.ok()) {
    std::fprintf(stderr, "bad sketch parameters\n");
    return 1;
  }
  HyperLogLog distinct = std::move(distinct_or).value();
  BloomFilter seen = std::move(seen_or).value();
  CountMinSketch counts = std::move(counts_or).value();
  SpaceSaving top = std::move(top_or).value();
  KllSketch latency(200);

  ExactDistinct exact_distinct;
  ExactFrequencies exact_counts;

  // Batched ingest: the hashing sketches take a chunk per call and hash it
  // in one hoisted loop; SpaceSaving, whose per-item Update is already
  // its fastest path, takes the items one at a time.
  std::vector<uint64_t> chunk;
  chunk.reserve(4096);
  for (size_t i = 0; i < n;) {
    chunk.clear();
    const size_t m = std::min<size_t>(chunk.capacity(), n - i);
    for (size_t j = 0; j < m; ++j) chunk.push_back(stream.Next());
    distinct.UpdateBatch(chunk);
    seen.InsertBatch(chunk);
    counts.UpdateBatch(chunk);
    for (uint64_t item : chunk) {
      top.Update(item);
      exact_distinct.Update(item);
      exact_counts.Update(item);
    }
    i += m;
  }
  Rng value_rng(7);
  for (size_t i = 0; i < n; ++i) {
    latency.Update(value_rng.NextExponential() * 10.0);  // Fake latency ms.
  }

  std::printf("stream: %zu events\n\n", n);

  std::printf("-- count distinct (HyperLogLog, 4 KiB) --\n");
  std::printf("   exact %lu   estimate %.0f   interval %s\n\n",
              (unsigned long)exact_distinct.Count(), distinct.Estimate(),
              distinct.EstimateWithBounds(0.95).ToString().c_str());

  const uint64_t probe = stream.Next();
  std::printf("-- membership (Bloom filter) --\n");
  std::printf("   seen item present? %s   fresh key present? %s\n\n",
              seen.MayContain(probe) ? "yes" : "no",
              seen.MayContain(0xDEADBEEFULL) ? "yes (false positive)" : "no");

  std::printf("-- frequency (Count-Min) + top-k (SpaceSaving) --\n");
  for (const auto& entry : top.TopK(5)) {
    std::printf("   item %20lu   exact %8ld   count-min %8lu   "
                "space-saving %8ld (+-%ld)\n",
                (unsigned long)entry.item,
                (long)exact_counts.Count(entry.item),
                (unsigned long)counts.Estimate(entry.item), (long)entry.count,
                (long)entry.error);
  }

  std::printf("\n-- quantiles (KLL over %lu fake latencies) --\n",
              (unsigned long)latency.Count());
  for (double q : {0.5, 0.95, 0.99}) {
    std::printf("   p%-4.0f %.2f ms\n", q * 100, latency.Quantile(q));
  }

  // Every sketch serializes and merges -- ship them between machines.
  const auto bytes = distinct.Serialize();
  auto restored = HyperLogLog::Deserialize(bytes);
  std::printf("\nserialized HLL: %zu bytes; restored estimate %.0f\n",
              bytes.size(), restored.value().Estimate());
  return 0;
}
