// sketch_ingest: a zipf flow stream through ShardedPipeline (one producer,
// two workers) into HyperLogLog, blocked Count-Min and blocked Bloom in
// turn. One pass builds one sketch from a slice of the stream: construct
// the pipeline, Push the slice in batches, Finish (drain + merge tree),
// tear down. Each pass's root is then queried once (HLL estimate, or 4096
// point lookups).
//
// The traced half wraps each pipeline call in a span, then times each
// kernel the workload reaches — the hash column and every family's batch
// ingest — single-threaded under the dispatched kernels and again under
// ForceScalarForTesting (the `.scalar` rows).
//
// Correctness: sampled pass roots must be byte-identical to one
// single-threaded UpdateBatch/InsertBatch of the same slice.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cardinality/hyperloglog.h"
#include "common/layout.h"
#include "common/random.h"
#include "distributed/sharded_pipeline.h"
#include "frequency/count_min.h"
#include "hash/hashed_batch.h"
#include "membership/blocked_bloom.h"
#include "report.h"
#include "simd/dispatch.h"
#include "trace.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Sizes {
  size_t stream_items;  // Distinct stream slices are cut from this.
  size_t pass_items;    // Items per pass (one sketch).
  size_t push_items;    // Items per Push call.
  size_t workers;
  size_t ring_capacity;
  size_t check_every;   // Check one pass in this many...
  size_t max_checked;   // ...up to this many per family.
  int setup_reps;
  double kernel_seconds;  // Budget per kernel row in the traced run.
  int windows;            // Slices of the timed phase (ReportWindowed).
};

Sizes SizesFor(const Config& config) {
  if (config.tiny) return {1 << 16, 1 << 14, 1 << 11, 2, 4, 1, 4, 2, 0.01, 2};
  return {1 << 22, 1 << 22, 1 << 14, 2, 4, 2, 8, 3, 0.2, 25};
}

constexpr size_t kChunkItems = 4096;  // ShardedPipeline's default chunk.
constexpr size_t kProbeItems = 4096;  // Keys looked up per Query.

gems::HyperLogLog MakeHll(uint64_t seed) { return gems::HyperLogLog(14, seed); }
gems::CountMinSketch MakeCountMin(uint64_t seed) {
  return gems::CountMinSketch(1 << 16, 4, seed, false,
                              gems::SketchLayout::kBlocked);
}
gems::BlockedBloomFilter MakeBloom(uint64_t seed) {
  return gems::BlockedBloomFilter(1 << 23, 8, seed);
}

/// One read of a finished sketch: the HLL's cardinality estimate, or
/// point lookups of every probe in Count-Min and Bloom.
template <typename S>
double Query(const S& sketch, std::span<const uint64_t> probes) {
  if constexpr (std::is_same_v<S, gems::HyperLogLog>) {
    return sketch.Estimate();
  } else if constexpr (std::is_same_v<S, gems::CountMinSketch>) {
    std::vector<uint64_t> counts(probes.size());
    sketch.EstimateBatch(probes, counts.data());
    return static_cast<double>(counts[0]);
  } else {
    std::vector<uint8_t> hits(probes.size());
    sketch.MayContainBatch(probes, hits.data());
    return hits[0];
  }
}

template <typename S>
void Ingest(S& sketch, std::span<const uint64_t> items) {
  if constexpr (std::is_same_v<S, gems::BlockedBloomFilter>) {
    sketch.InsertBatch(items);
  } else {
    sketch.UpdateBatch(items);
  }
}

struct PassTimes {
  double seconds = 0.0;
  std::vector<Sample> samples;  // Push calls (update), the root's Query.
  bool ok = true;
};

/// One pipeline pass over `slice`, then one Query of the merged root,
/// timed on its own. The root is serialized into `root` when non-null,
/// after the timed calls.
template <typename S>
PassTimes Pass(const S& prototype, const Sizes& sizes,
               std::span<const uint64_t> slice, Clock::time_point phase_start,
               SpanLog* log, uint64_t rid, std::vector<uint8_t>* root) {
  const auto sample = [&](Clock::time_point t0, bool is_query) {
    const Clock::time_point t1 = Clock::now();
    return Sample{std::chrono::duration<double>(t1 - phase_start).count(),
                  std::chrono::duration<double, std::micro>(t1 - t0).count(),
                  is_query};
  };
  PassTimes t;
  gems::Result<S> merged = gems::Status::Unimplemented("pass not run");
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan pass(log, "pipeline.pass", rid);
    typename gems::ShardedPipeline<S>::Options options;
    options.num_workers = sizes.workers;
    options.ring_capacity = sizes.ring_capacity;
    options.chunk_items = kChunkItems;
    std::unique_ptr<gems::ShardedPipeline<S>> pipeline;
    {
      ScopedSpan span(log, "pipeline.construct", rid, pass.id());
      pipeline = std::make_unique<gems::ShardedPipeline<S>>(prototype, options);
    }
    for (size_t at = 0; at < slice.size(); at += sizes.push_items) {
      ScopedSpan span(log, "pipeline.push", rid, pass.id());
      const Clock::time_point p0 = Clock::now();
      pipeline->Push(
          slice.subspan(at, std::min(sizes.push_items, slice.size() - at)));
      t.samples.push_back(sample(p0, false));
    }
    {
      ScopedSpan span(log, "pipeline.finish", rid, pass.id());
      merged = pipeline->Finish();
    }
    ScopedSpan span(log, "pipeline.teardown", rid, pass.id());
    pipeline.reset();
  }
  t.seconds = SecondsSince(start);
  t.ok = merged.ok();
  if (!t.ok) return t;
  const Clock::time_point q0 = Clock::now();
  t.ok = Query(merged.value(), slice.first(kProbeItems)) >= 0;
  t.samples.push_back(sample(q0, true));
  if (root != nullptr) *root = merged.value().Serialize();
  return t;
}

enum Family { kHll = 0, kCountMin = 1, kBloom = 2, kFamilies = 3 };

const char* const kKernelSpan[kFamilies][2] = {
    {"hll.update_batch", "hll.update_batch.scalar"},
    {"cm_blocked.update_batch", "cm_blocked.update_batch.scalar"},
    {"bloom_blocked.update_batch", "bloom_blocked.update_batch.scalar"}};

struct Prototypes {
  gems::HyperLogLog hll = MakeHll(1);
  gems::CountMinSketch count_min = MakeCountMin(1);
  gems::BlockedBloomFilter bloom = MakeBloom(1);
};

/// Calls `fn` with the family's prototype.
template <typename Fn>
auto WithFamily(const Prototypes& protos, int family, Fn&& fn) {
  switch (family) {
    case kHll:
      return fn(protos.hll);
    case kCountMin:
      return fn(protos.count_min);
    default:
      return fn(protos.bloom);
  }
}

/// A pass root kept for the check.
struct Kept {
  int family;
  size_t slice;
  std::vector<uint8_t> root;
};

struct Phase {
  std::vector<double> pass_s[kFamilies];
  std::vector<Completion> passes;
  std::vector<Sample> samples;
  double busy_s = 0.0;
};

/// Single-threaded batch ingest of `slice` in pipeline-sized chunks under
/// the active kernels, one span per chunk, for `seconds`.
template <typename S>
void KernelRow(const S& prototype, std::span<const uint64_t> slice,
               double seconds, const char* span_name, SpanLog* log) {
  S sketch = prototype;
  const Clock::time_point start = Clock::now();
  for (uint64_t i = 0; SecondsSince(start) < seconds; ++i) {
    const size_t at = (i * kChunkItems) % slice.size();
    const std::span<const uint64_t> chunk =
        slice.subspan(at, std::min(kChunkItems, slice.size() - at));
    ScopedSpan span(log, span_name, i);
    Ingest(sketch, chunk);
  }
}

}  // namespace

void RunSketchIngest(const Config& config, RunResult* result) {
  const Sizes sizes = SizesFor(config);
  std::vector<double> setup_s;
  std::vector<uint64_t> stream;
  for (int rep = 0; rep < sizes.setup_reps; ++rep) {
    const Clock::time_point start = Clock::now();
    gems::FlowGenerator::Options options;
    options.num_flows = 1 << 18;
    gems::FlowGenerator flows(options, config.seed);
    stream.assign(sizes.stream_items, 0);
    for (uint64_t& item : stream) item = flows.Next().FlowKey();
    setup_s.push_back(SecondsSince(start));
  }
  const Prototypes protos;
  const size_t num_slices = sizes.stream_items / sizes.pass_items;
  const auto slice_at = [&](size_t s) {
    return std::span<const uint64_t>(stream).subspan(s * sizes.pass_items,
                                                     sizes.pass_items);
  };

  std::vector<Kept> kept;
  size_t kept_per_family[kFamilies] = {0, 0, 0};
  uint64_t next_pass = 0;
  const auto run_for = [&](double seconds, SpanLog* log, Phase* phase) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    // Whole rounds, so every family gets the same number of passes.
    while (Clock::now() < deadline || phase->passes.empty()) {
      for (int family = 0; family < kFamilies; ++family) {
        const uint64_t round = next_pass / kFamilies;
        const size_t slice = round % num_slices;
        const bool keep = round % sizes.check_every == 0 &&
                          kept_per_family[family] < sizes.max_checked;
        std::vector<uint8_t> root;
        const PassTimes t = WithFamily(protos, family, [&](const auto& proto) {
          return Pass(proto, sizes, slice_at(slice), start, log, next_pass,
                      keep ? &root : nullptr);
        });
        ++next_pass;
        ++result->attempted;
        if (!t.ok) result->Fail(1, "pipeline Finish");
        if (keep) {
          kept.push_back({family, slice, std::move(root)});
          ++kept_per_family[family];
        }
        phase->pass_s[family].push_back(t.seconds);
        phase->passes.push_back(
            {t.samples.back().end_s, t.seconds * 1e6, sizes.pass_items});
        phase->samples.insert(phase->samples.end(), t.samples.begin(),
                              t.samples.end());
        phase->busy_s += t.seconds;
      }
    }
  };

  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  Phase untraced;
  run_for(untraced_s, nullptr, &untraced);
  SpanLog log;
  Phase traced;
  if (config.trace) run_for(config.seconds / 2, &log, &traced);
  const double peak_rss_mb = PeakRssMb();

  // Check: each kept root against single-threaded ingest of its slice.
  result->attempted += kept.size();
  for (const Kept& k : kept) {
    const std::vector<uint8_t> expected =
        WithFamily(protos, k.family, [&](const auto& proto) {
          auto sketch = proto;
          Ingest(sketch, slice_at(k.slice));
          return sketch.Serialize();
        });
    if (expected != k.root) {
      result->Fail(1, "pipeline root of family " + std::to_string(k.family) +
                          " differs from single-threaded ingest");
    }
  }

  result->EndToEnd("setup_s", Median(setup_s), "s");
  result->EndToEnd("peak_rss_mb", peak_rss_mb, "MB");
  ReportWindowed(untraced.passes, untraced.samples, untraced_s, sizes.windows,
                 /*busy_time=*/true, result);
  if (!config.trace) return;

  // Kernel rows: the hash column and each family's batch ingest, under
  // the dispatched kernels and then the scalar table.
  const std::span<const uint64_t> slice = slice_at(0);
  std::vector<uint64_t> hashes(kChunkItems);
  for (int scalar = 0; scalar < 2; ++scalar) {
    gems::simd::ForceScalarForTesting(scalar == 1);
    const char* hash_span = scalar ? "hash.batch.scalar" : "hash.batch";
    const Clock::time_point start = Clock::now();
    for (uint64_t i = 0; SecondsSince(start) < sizes.kernel_seconds; ++i) {
      const size_t at = (i * kChunkItems) % slice.size();
      const std::span<const uint64_t> chunk =
          slice.subspan(at, std::min(kChunkItems, slice.size() - at));
      ScopedSpan span(&log, hash_span, i);
      gems::HashBatch(chunk, 1, hashes.data());
    }
    for (int family = 0; family < kFamilies; ++family) {
      WithFamily(protos, family, [&](const auto& proto) {
        KernelRow(proto, slice, sizes.kernel_seconds,
                  kKernelSpan[family][scalar], &log);
        return 0;
      });
    }
  }
  gems::simd::ForceScalarForTesting(false);

  SaveSpans(config, {&log}, result);
  const std::vector<const SpanLog*> logs = {&log};
  const auto ns_per_item = [&](const char* name) {
    const SpanLog::Stat s = Total(logs, name);
    return s.count == 0 ? 0.0
                        : static_cast<double>(s.total_ns) /
                              static_cast<double>(s.count * kChunkItems);
  };
  result->Layer("hash.batch_ns_per_item", ns_per_item("hash.batch"), "ns");
  result->Layer("hash.batch_ns_per_item.scalar",
                ns_per_item("hash.batch.scalar"), "ns");
  const char* const row_names[kFamilies] = {"hll", "cm_blocked",
                                            "bloom_blocked"};
  double efficiency = 0.0;
  for (int family = 0; family < kFamilies; ++family) {
    const double dispatched = ns_per_item(kKernelSpan[family][0]);
    result->Layer(std::string(row_names[family]) + ".update_batch_ns_per_item",
                  dispatched, "ns");
    result->Layer(
        std::string(row_names[family]) + ".update_batch_ns_per_item.scalar",
        ns_per_item(kKernelSpan[family][1]), "ns");
    // Single-thread time for one pass over (workers x pipeline pass time).
    const double pass_ns = Median(traced.pass_s[family]) * 1e9;
    efficiency += dispatched * static_cast<double>(sizes.pass_items) /
                  (static_cast<double>(sizes.workers) * pass_ns) /
                  static_cast<double>(kFamilies);
  }
  const double traced_passes = static_cast<double>(traced.passes.size());
  result->Layer("pipeline.push_s",
                static_cast<double>(Total(logs, "pipeline.push").total_ns) /
                    traced_passes / 1e9,
                "s");
  result->Layer("pipeline.finish_ms", MeanOf(logs, "pipeline.finish", 1e6),
                "ms");
  result->Layer("pipeline.efficiency", efficiency, "ratio");
  // Busy time per pass, traced over untraced.
  result->Layer("trace.overhead_ratio",
                traced.busy_s / traced_passes /
                    (untraced.busy_s /
                     static_cast<double>(untraced.passes.size())),
                "ratio");
}

}  // namespace perfbench
