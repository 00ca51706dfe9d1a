// E16: the time dimension — windowed ingest overhead and decay-driven
// cache admission.
//
//   bench_e16_time --e16_time_json=out.json [--e16_items=N]
//                  [--e16_requests=N] [--e16_cache=N]
//
// Two questions, both about what promoting time to a first-class sketch
// dimension costs and buys:
//
//   1. Ingest overhead: the same batched stream pushed through a plain
//      (unbounded) HyperLogLog / Count-Min and through their windowed or
//      decayed counterparts. The pane ring adds a timestamp comparison
//      per run plus one merge per rotation; the decayed table adds one
//      scale multiply per deposit. Reported as mops and the
//      windowed-over-unbounded overhead ratio per family.
//
//   2. Cache admission (the TinyLFU shape): an LRU cache fronted by a
//      frequency filter — on a miss the candidate is admitted only if its
//      estimated frequency beats the would-be victim's. The workload hops
//      hot sets halfway through. A plain Count-Min never forgets the old
//      hot set, keeps vetoing the new one, and the hit rate collapses; a
//      decayed Count-Min forgets on a half-life, so the filter tracks the
//      regime change. The CI gate is simply decayed >= plain.
//
// The JSON also records a byte-identical checkpoint round trip (serialize
// -> registry deserialize -> serialize) for each of the four time-family
// types, which CI asserts.

#include <algorithm>
#include <cstdio>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench_harness.h"
#include "cardinality/hyperloglog.h"
#include "common/random.h"
#include "core/registry.h"
#include "frequency/count_min.h"
#include "time/decayed_count_min.h"
#include "time/exponential_histogram.h"
#include "time/sliding_count_min.h"
#include "time/sliding_hll.h"

namespace {

using gems::bench::Clock;
using gems::bench::SecondsSince;

double Mops(uint64_t items, double seconds) {
  return seconds > 0.0 ? static_cast<double>(items) / seconds / 1e6 : 0.0;
}

// ---------------------------------------------------------------- ingest

struct IngestResult {
  double plain_hll_mops = 0.0;
  double sliding_hll_mops = 0.0;
  double plain_cm_mops = 0.0;
  double decayed_cm_mops = 0.0;
  double sliding_cm_mops = 0.0;
  double hll_overhead = 0.0;  // plain / windowed throughput ratio.
  double cm_overhead = 0.0;
};

IngestResult RunIngest(uint64_t total_items) {
  const size_t kBatch = 4096;
  std::vector<uint64_t> items(kBatch);
  std::vector<uint64_t> timestamps(kBatch);
  IngestResult result;

  // One shared item/timestamp schedule so every sketch sees the same
  // stream: timestamps advance one unit every 256 items, so a pane of
  // width 64 rotates every 16k items — rotations are exercised, not
  // amortized away.
  auto fill = [&](uint64_t base) {
    gems::SplitMix64 rng(base * 0x9E3779B97F4A7C15ull + 1);
    for (size_t i = 0; i < kBatch; ++i) {
      items[i] = rng.Next();
      timestamps[i] = (base * kBatch + i) >> 8;
    }
  };

  // Throughput of `ingest` fed the whole schedule, batch by batch.
  const auto mops = [&](auto&& ingest) {
    const Clock::time_point start = Clock::now();
    for (uint64_t b = 0; b * kBatch < total_items; ++b) {
      fill(b);
      ingest();
    }
    return Mops(total_items, SecondsSince(start));
  };
  gems::HyperLogLog plain_hll(12, 7);
  result.plain_hll_mops = mops([&] { plain_hll.UpdateBatch(items); });
  gems::SlidingHyperLogLog sliding_hll(12, /*pane_width=*/64,
                                       /*num_panes=*/10, 7);
  result.sliding_hll_mops =
      mops([&] { sliding_hll.UpdateBatchTimed(timestamps, items); });
  gems::CountMinSketch plain_cm(2048, 4, 7);
  result.plain_cm_mops = mops([&] { plain_cm.UpdateBatch(items); });
  gems::DecayedCountMin decayed_cm(2048, 4, /*half_life=*/1000.0, 7);
  result.decayed_cm_mops =
      mops([&] { decayed_cm.UpdateBatchTimed(timestamps, items); });
  gems::SlidingCountMin sliding_cm(2048, 4, /*pane_width=*/64,
                                   /*num_panes=*/10, 7);
  result.sliding_cm_mops =
      mops([&] { sliding_cm.UpdateBatchTimed(timestamps, items); });

  result.hll_overhead = result.sliding_hll_mops > 0.0
                            ? result.plain_hll_mops / result.sliding_hll_mops
                            : 0.0;
  result.cm_overhead = result.decayed_cm_mops > 0.0
                           ? result.plain_cm_mops / result.decayed_cm_mops
                           : 0.0;
  std::printf(
      "e16 ingest  hll %.1f -> sliding %.1f mops (%.2fx)  "
      "cm %.1f -> decayed %.1f / sliding %.1f mops (%.2fx)\n",
      result.plain_hll_mops, result.sliding_hll_mops, result.hll_overhead,
      result.plain_cm_mops, result.decayed_cm_mops, result.sliding_cm_mops,
      result.cm_overhead);
  return result;
}

// ------------------------------------------------------- cache admission

// An LRU cache whose admission is vetoed by a frequency filter: the
// TinyLFU arrangement, with the filter abstracted so the same schedule
// drives a plain and a decayed Count-Min. On a miss with a full cache the
// candidate is admitted only if its estimated frequency beats the LRU
// victim's — the filter is the piece under test.
struct AdmissionRates {
  double overall = 0.0;
  double phase2 = 0.0;
};

template <typename RecordFn, typename EstimateFn>
AdmissionRates RunAdmission(const std::vector<uint64_t>& requests,
                            size_t cache_capacity, RecordFn record,
                            EstimateFn estimate) {
  std::list<uint64_t> lru;  // Front = most recent.
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> where;
  where.reserve(cache_capacity * 2);
  const size_t half = requests.size() / 2;
  uint64_t hits = 0, phase2_hits = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const uint64_t key = requests[i];
    record(i, key);
    bool hit = false;
    const auto it = where.find(key);
    if (it != where.end()) {
      hit = true;
      lru.splice(lru.begin(), lru, it->second);
    } else if (where.size() < cache_capacity) {
      lru.push_front(key);
      where[key] = lru.begin();
    } else {
      const uint64_t victim = lru.back();
      if (estimate(key) >= estimate(victim)) {
        where.erase(victim);
        lru.pop_back();
        lru.push_front(key);
        where[key] = lru.begin();
      }
    }
    if (hit) {
      ++hits;
      if (i >= half) ++phase2_hits;
    }
  }
  AdmissionRates rates;
  rates.overall =
      static_cast<double>(hits) / static_cast<double>(requests.size());
  rates.phase2 = static_cast<double>(phase2_hits) /
                 static_cast<double>(requests.size() - half);
  return rates;
}

struct AdmissionResult {
  double plain_hit_rate = 0.0;
  double decayed_hit_rate = 0.0;
  double phase2_plain_hit_rate = 0.0;
  double phase2_decayed_hit_rate = 0.0;
};

AdmissionResult RunAdmissionScenario(uint64_t num_requests,
                                     size_t cache_capacity) {
  // Phase 1 draws skewed traffic from one hot set, phase 2 from a
  // disjoint one. The skew (u^2 over 4096 keys) keeps a hot head well
  // inside the cache capacity.
  std::vector<uint64_t> requests(num_requests);
  gems::SplitMix64 rng(0xE16);
  const uint64_t kUniverse = 4096;
  for (uint64_t i = 0; i < num_requests; ++i) {
    const double u = static_cast<double>(rng.Next() >> 11) * 0x1p-53;
    const uint64_t rank =
        static_cast<uint64_t>(u * u * static_cast<double>(kUniverse));
    const uint64_t base = i < num_requests / 2 ? 0 : 1'000'000;
    requests[i] = base + std::min(rank, kUniverse - 1);
  }

  const double half_life = static_cast<double>(num_requests) / 16.0;
  AdmissionResult result;

  {
    gems::CountMinSketch filter(8192, 4, 3);
    const AdmissionRates rates = RunAdmission(
        requests, cache_capacity,
        [&](uint64_t, uint64_t key) { filter.Update(key); },
        [&](uint64_t key) {
          return static_cast<double>(filter.Estimate(key));
        });
    result.plain_hit_rate = rates.overall;
    result.phase2_plain_hit_rate = rates.phase2;
  }
  {
    gems::DecayedCountMin filter(8192, 4, half_life, 3);
    const AdmissionRates rates = RunAdmission(
        requests, cache_capacity,
        [&](uint64_t i, uint64_t key) { filter.UpdateAt(i, key); },
        [&](uint64_t key) { return filter.Estimate(key); });
    result.decayed_hit_rate = rates.overall;
    result.phase2_decayed_hit_rate = rates.phase2;
  }

  std::printf(
      "e16 admission  plain %.3f (phase2 %.3f)  decayed %.3f (phase2 %.3f)\n",
      result.plain_hit_rate, result.phase2_plain_hit_rate,
      result.decayed_hit_rate, result.phase2_decayed_hit_rate);
  return result;
}

// --------------------------------------------------- checkpoint fixpoint

bool RoundTripsByteIdentical(const gems::AnySketch& sketch) {
  const std::vector<uint8_t> bytes = sketch.Serialize();
  gems::Result<gems::AnySketch> revived =
      gems::SketchRegistry::Global().Deserialize(bytes);
  if (!revived.ok()) return false;
  return revived.value().Serialize() == bytes;
}

struct RoundTripResult {
  bool sliding_hll = false;
  bool sliding_cm = false;
  bool decayed_cm = false;
  bool exponential_histogram = false;
  bool all() const {
    return sliding_hll && sliding_cm && decayed_cm && exponential_histogram;
  }
};

RoundTripResult RunRoundTrips() {
  RoundTripResult result;
  const gems::SketchRegistry& registry = gems::SketchRegistry::Global();
  gems::SplitMix64 rng(0x516);
  std::vector<uint64_t> timestamps, items;
  for (uint64_t i = 0; i < 20000; ++i) {
    timestamps.push_back(i / 7);
    items.push_back(rng.Next() % 100000);
  }
  auto check = [&](const char* name, bool* flag) {
    gems::TimedSketchParams params;
    if (std::string_view(name) == "decayed_countmin") {
      params.half_life = 500.0;
    } else {
      params.pane_width = 100;
      if (std::string_view(name) != "exponential_histogram") {
        params.num_panes = 12;
      }
    }
    const gems::SketchRegistry::Entry* entry = registry.FindByName(name);
    if (entry == nullptr || entry->make_timed == nullptr) return;
    gems::Result<gems::AnySketch> made = entry->make_timed(params);
    if (!made.ok()) return;
    if (!made.value().UpdateBatchTimed(timestamps, items).ok()) return;
    *flag = RoundTripsByteIdentical(made.value());
  };
  check("sliding_hyperloglog", &result.sliding_hll);
  check("sliding_countmin", &result.sliding_cm);
  check("decayed_countmin", &result.decayed_cm);
  check("exponential_histogram", &result.exponential_histogram);
  std::printf(
      "e16 roundtrip  sliding_hll=%d sliding_cm=%d decayed_cm=%d eh=%d\n",
      result.sliding_hll, result.sliding_cm, result.decayed_cm,
      result.exponential_histogram);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  gems::bench::Flags flags(argc, argv);
  const std::string json_path = flags.String("e16_time_json");
  const uint64_t total_items = flags.U64("e16_items", 8'000'000);
  const uint64_t num_requests = flags.U64("e16_requests", 400'000);
  const size_t cache_capacity = flags.U64("e16_cache", 512);
  if (!flags.NoneUnclaimed("e16")) return 1;
  if (total_items == 0 || num_requests < 4 || cache_capacity == 0) {
    std::fprintf(stderr, "e16: all sizes must be nonzero\n");
    return 1;
  }

  gems::RegisterBuiltinSketches();

  const IngestResult ingest = RunIngest(total_items);
  const AdmissionResult admission =
      RunAdmissionScenario(num_requests, cache_capacity);
  const RoundTripResult round_trips = RunRoundTrips();

  if (json_path.empty()) return round_trips.all() ? 0 : 1;

  using gems::bench::Json;
  const Json body =
      Json::Object()
          .Set("items", total_items)
          .Set("requests", num_requests)
          .Set("cache_capacity", cache_capacity)
          .Set("ingest", Json::Object()
                             .Set("plain_hll_mops", ingest.plain_hll_mops)
                             .Set("sliding_hll_mops", ingest.sliding_hll_mops)
                             .Set("hll_overhead", ingest.hll_overhead)
                             .Set("plain_cm_mops", ingest.plain_cm_mops)
                             .Set("decayed_cm_mops", ingest.decayed_cm_mops)
                             .Set("sliding_cm_mops", ingest.sliding_cm_mops)
                             .Set("cm_overhead", ingest.cm_overhead))
          .Set("admission",
               Json::Object()
                   .Set("plain_hit_rate", admission.plain_hit_rate)
                   .Set("decayed_hit_rate", admission.decayed_hit_rate)
                   .Set("phase2_plain_hit_rate", admission.phase2_plain_hit_rate)
                   .Set("phase2_decayed_hit_rate",
                        admission.phase2_decayed_hit_rate))
          .Set("roundtrip",
               Json::Object()
                   .Set("sliding_hyperloglog", round_trips.sliding_hll)
                   .Set("sliding_countmin", round_trips.sliding_cm)
                   .Set("decayed_countmin", round_trips.decayed_cm)
                   .Set("exponential_histogram",
                        round_trips.exponential_histogram));
  const bool written = gems::bench::WriteReport("e16_time", json_path, body);
  return written && round_trips.all() ? 0 : 1;
}
