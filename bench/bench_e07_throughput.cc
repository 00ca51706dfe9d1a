// E7: update/query throughput of every sketch (google-benchmark), plus a
// batched-vs-per-item comparison of the hash-once ingest pipeline.
//
// Claim (paper section 2, "practical side" / DataSketches): production
// sketches sustain tens of millions of updates per second per core, which
// is what made them deployable inside stream engines and warehouses.
//
// Modes:
//   bench_e07_throughput [gbench flags]      # the usual google-benchmark run
//   bench_e07_throughput --e07_simd_json=out.json [--e07_simd_items=N]
//     # per-item vs batched ingest, with the batched side timed twice in
//     # one process: once with the dispatcher pinned to the scalar
//     # reference table and once with the startup selection. One row per
//     # sketch (HLL, HLL++, KMV, Count-Min, CountSketch, Bloom, blocked
//     # Bloom, MinHash) separates the batching win from the SIMD kernels'
//     # own contribution. A `kernels` array adds one row per SimdKernels
//     # entry, each called directly at a size the repo uses.
//   bench_e07_throughput --e07_scaling_json=out.json [--e07_scaling_items=N]
//     # thread-scaling harness: single-thread batched ingest vs the
//     # ShardedPipeline at 2/4/8 workers for HLL, Count-Min, Bloom, KLL;
//     # one JSON row per (sketch, worker count).
//   bench_e07_throughput --e07_layout_json=out.json [--e07_layout_items=N]
//     # flat-vs-blocked counter-layout comparison for Count-Min and
//     # CountSketch at LLC-busting widths: same zipf stream through both
//     # layouts' batched ingest in interleaved timed runs, plus a
//     # serialize->restore round trip of the blocked sketch through the
//     # flat wire format (byte-identical re-serialize + equal estimates).
//     # CI gates the countmin speedup.
//   bench_e07_throughput --e07_concurrent_json=out.json
//                        [--e07_concurrent_items=N]
//     # concurrent-summary harness: (A) fixed-work writer ingest at
//     # 1/2/4/8 writers through the wait-free local-buffer ConcurrentSummary
//     # vs an embedded replica of the striped-lock design it replaced, and
//     # (B) reader query throughput on a dedicated thread while 0/1/2/4/8
//     # writers saturate ingest, with mean staleness sampled against an
//     # exact written-items counter. Reader throughput is reported in both
//     # wall time and thread CPU time; the CPU-time ratio is what CI gates,
//     # so an oversubscribed runner can't fake a reader stall.
//
// Every JSON document is written by bench_harness.h and so carries the
// shared provenance (dispatch level, memory layout, CPU, build type).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <ctime>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_harness.h"
#include "cardinality/hllpp.h"
#include "cardinality/hyperloglog.h"
#include "cardinality/kmv.h"
#include "common/layout.h"
#include "distributed/concurrent/concurrent_summary.h"
#include "distributed/sharded_pipeline.h"
#include "frequency/count_min.h"
#include "frequency/count_sketch.h"
#include "frequency/misra_gries.h"
#include "frequency/space_saving.h"
#include "membership/blocked_bloom.h"
#include "membership/bloom.h"
#include "quantiles/kll.h"
#include "quantiles/mrl.h"
#include "quantiles/req.h"
#include "quantiles/tdigest.h"
#include "similarity/minhash.h"
#include "simd/dispatch.h"
#include "workload/generators.h"

namespace {

std::vector<uint64_t> TestItems() {
  static const std::vector<uint64_t> items =
      gems::ZipfGenerator(1 << 20, 1.1, 42).Take(1 << 16);
  return items;
}

void BM_HyperLogLogUpdate(benchmark::State& state) {
  gems::HyperLogLog sketch(static_cast<int>(state.range(0)), 1);
  const auto items = TestItems();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HyperLogLogUpdate)->Arg(10)->Arg(14);

void BM_HllPlusPlusUpdate(benchmark::State& state) {
  gems::HllPlusPlus sketch(12, 1);
  const auto items = TestItems();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HllPlusPlusUpdate);

void BM_KmvUpdate(benchmark::State& state) {
  gems::KmvSketch sketch(1024, 1);
  const auto items = TestItems();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KmvUpdate);

void BM_BloomInsert(benchmark::State& state) {
  gems::BloomFilter filter(1 << 23, static_cast<int>(state.range(0)), 1);
  const auto items = TestItems();
  size_t i = 0;
  for (auto _ : state) {
    filter.Insert(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomInsert)->Arg(4)->Arg(8);

void BM_BloomQuery(benchmark::State& state) {
  gems::BloomFilter filter(1 << 23, 7, 1);
  const auto items = TestItems();
  for (size_t i = 0; i < items.size() / 2; ++i) filter.Insert(items[i]);
  size_t i = 0;
  bool sink = false;
  for (auto _ : state) {
    sink ^= filter.MayContain(items[i++ & 0xFFFF]);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomQuery);

void BM_BlockedBloomQuery(benchmark::State& state) {
  gems::BlockedBloomFilter filter(1 << 23, 8, 1);
  const auto items = TestItems();
  for (size_t i = 0; i < items.size() / 2; ++i) filter.Insert(items[i]);
  size_t i = 0;
  bool sink = false;
  for (auto _ : state) {
    sink ^= filter.MayContain(items[i++ & 0xFFFF]);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockedBloomQuery);

void BM_CountMinUpdate(benchmark::State& state) {
  gems::CountMinSketch sketch(4096, static_cast<uint32_t>(state.range(0)),
                              1);
  const auto items = TestItems();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinUpdate)->Arg(4)->Arg(8);

void BM_CountSketchUpdate(benchmark::State& state) {
  gems::CountSketch sketch(4096, 5, 1);
  const auto items = TestItems();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountSketchUpdate);

void BM_SpaceSavingUpdate(benchmark::State& state) {
  gems::SpaceSaving sketch(static_cast<size_t>(state.range(0)));
  const auto items = TestItems();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSavingUpdate)->Arg(256)->Arg(4096);

void BM_MisraGriesUpdate(benchmark::State& state) {
  gems::MisraGries sketch(1024);
  const auto items = TestItems();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MisraGriesUpdate);

void BM_KllUpdate(benchmark::State& state) {
  gems::KllSketch sketch(200, 1);
  const auto values =
      gems::GenerateValues(gems::ValueDistribution::kGaussian, 1 << 16, 2);
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(values[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KllUpdate);

void BM_MrlUpdate(benchmark::State& state) {
  gems::MrlSketch sketch(10, 500);
  const auto values =
      gems::GenerateValues(gems::ValueDistribution::kGaussian, 1 << 16, 2);
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(values[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MrlUpdate);

void BM_ReqUpdate(benchmark::State& state) {
  gems::ReqSketch sketch(32, 1);
  const auto values =
      gems::GenerateValues(gems::ValueDistribution::kGaussian, 1 << 16, 2);
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(values[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReqUpdate);

void BM_MinHashUpdate(benchmark::State& state) {
  gems::MinHashSketch sketch(static_cast<uint32_t>(state.range(0)), 1);
  const auto items = TestItems();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MinHashUpdate)->Arg(64)->Arg(256);

void BM_TDigestUpdate(benchmark::State& state) {
  gems::TDigest sketch(100);
  const auto values =
      gems::GenerateValues(gems::ValueDistribution::kGaussian, 1 << 16, 2);
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(values[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TDigestUpdate);

// ---- batched ingest variants: whole-vector UpdateBatch per iteration ----

void BM_HyperLogLogUpdateBatch(benchmark::State& state) {
  gems::HyperLogLog sketch(static_cast<int>(state.range(0)), 1);
  const auto items = TestItems();
  for (auto _ : state) {
    sketch.UpdateBatch(items);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items.size()));
}
BENCHMARK(BM_HyperLogLogUpdateBatch)->Arg(10)->Arg(14);

void BM_HllPlusPlusUpdateBatch(benchmark::State& state) {
  gems::HllPlusPlus sketch(12, 1);
  const auto items = TestItems();
  for (auto _ : state) {
    sketch.UpdateBatch(items);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items.size()));
}
BENCHMARK(BM_HllPlusPlusUpdateBatch);

void BM_KmvUpdateBatch(benchmark::State& state) {
  gems::KmvSketch sketch(1024, 1);
  const auto items = TestItems();
  for (auto _ : state) {
    sketch.UpdateBatch(items);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items.size()));
}
BENCHMARK(BM_KmvUpdateBatch);

void BM_BloomInsertBatch(benchmark::State& state) {
  gems::BloomFilter filter(1 << 23, static_cast<int>(state.range(0)), 1);
  const auto items = TestItems();
  for (auto _ : state) {
    filter.InsertBatch(items);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items.size()));
}
BENCHMARK(BM_BloomInsertBatch)->Arg(4)->Arg(8);

void BM_CountMinUpdateBatch(benchmark::State& state) {
  gems::CountMinSketch sketch(4096, static_cast<uint32_t>(state.range(0)),
                              1);
  const auto items = TestItems();
  for (auto _ : state) {
    sketch.UpdateBatch(items);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items.size()));
}
BENCHMARK(BM_CountMinUpdateBatch)->Arg(4)->Arg(8);

void BM_HyperLogLogMerge(benchmark::State& state) {
  gems::HyperLogLog a(12, 1), b(12, 1);
  for (uint64_t item : gems::DistinctItems(100000, 3)) b.Update(item);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Merge(b));
  }
}
BENCHMARK(BM_HyperLogLogMerge);

void BM_HyperLogLogSerialize(benchmark::State& state) {
  gems::HyperLogLog sketch(12, 1);
  for (uint64_t item : gems::DistinctItems(100000, 3)) sketch.Update(item);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Serialize());
  }
}
BENCHMARK(BM_HyperLogLogSerialize);

// ------------------------- JSON comparison modes -------------------------
//
// Deterministic chrono harnesses (no google-benchmark adaptivity) so CI can
// assert on the output. Every mode feeds its sketches in kChunk-item
// IngestBatch calls and takes the best of kReps runs.

constexpr int kReps = 3;
constexpr size_t kChunk = 4096;

using gems::bench::BestSeconds;
using gems::bench::Json;

// Per-item ingest: `Insert` for membership filters, `Update` otherwise.
template <typename S>
void IngestOne(S& sketch, uint64_t item) {
  if constexpr (gems::InsertableSummary<S> && !gems::ItemSummary<S>) {
    sketch.Insert(item);
  } else {
    sketch.Update(item);
  }
}

// Feeds `items` to `sketch` in kChunk-item IngestBatch calls.
template <typename S>
void IngestChunked(S& sketch, std::span<const gems::IngestItem<S>> items) {
  for (size_t off = 0; off < items.size(); off += kChunk) {
    gems::IngestBatch(sketch,
                      items.subspan(off, std::min(kChunk, items.size() - off)));
  }
  benchmark::DoNotOptimize(sketch);
}

// ----------------- scalar-vs-dispatched kernel comparison -----------------
//
// Three configurations per sketch, which separate the two claims bundled
// into "batched ingest is faster": (1) per_item — the Update()/Insert()
// loop a caller without batching writes (it calls no SimdKernels entry, so
// the dispatch level does not move it); (2) batched_scalar — IngestBatch
// with the kernel table pinned to the scalar reference (the batching win
// alone: hash hoisting, modulo strength reduction, loop structure); (3)
// batched_simd — IngestBatch under the startup dispatch choice.
// `simd_speedup` is (3)/(2), the vector kernels' own contribution;
// `batched_ingest_speedup` is (3)/(1), the end-to-end win over scalar
// per-item ingest — the quantity the CI bench-smoke job gates at 1.5x for
// hyperloglog and countmin. All three configs run identical sketch code
// outside the kernel table, and bit identity means they produce the same
// sketch, so a speedup can never come from a wrong answer.

template <typename Make>
Json CompareSimd(const char* name, const std::vector<uint64_t>& items,
                    Make make) {
  const auto run_batched = [&] {
    auto sketch = make();
    IngestChunked(sketch, std::span<const uint64_t>(items));
  };
  gems::simd::ForceScalarForTesting(true);
  const double seq = BestSeconds(kReps, [&] {
    auto sketch = make();
    for (uint64_t item : items) IngestOne(sketch, item);
    benchmark::DoNotOptimize(sketch);
  });
  const double scalar = BestSeconds(kReps, run_batched);
  gems::simd::ForceScalarForTesting(false);
  const double dispatched = BestSeconds(kReps, run_batched);
  const double n = static_cast<double>(items.size());
  return Json::Object()
      .Set("sketch", name)
      .Set("per_item_mops", n / seq / 1e6)
      .Set("batched_scalar_mops", n / scalar / 1e6)
      .Set("batched_simd_mops", n / dispatched / 1e6)
      .Set("simd_speedup", scalar / dispatched)
      .Set("batched_ingest_speedup", seq / dispatched);
}

// Per-kernel rows: every SimdKernels entry called directly on fixed inputs
// at a size the repo uses, timed with the table pinned to the scalar
// reference and then as dispatched. `variant` is "scalar" where the
// dispatched table inherits the reference for that entry, so the rows show
// which vector variants exist and what each one buys.

// Entries in SimdKernels after its name: the count the kernel rows must
// match.
constexpr size_t kKernelEntries =
    (sizeof(gems::simd::SimdKernels) - sizeof(const char*)) /
    sizeof(void (*)());

// A timed run repeats the call until this many items have passed through
// it, so calls over small arrays still take milliseconds.
constexpr size_t kKernelItemsPerRun = size_t{1} << 21;

template <auto Entry, typename Call>
Json TimeKernel(const char* kernel, size_t size, Call call) {
  using gems::simd::Kernels;
  const size_t calls = std::max<size_t>(1, kKernelItemsPerRun / size);
  const auto run = [&] {
    const auto fn = Kernels().*Entry;
    for (size_t c = 0; c < calls; ++c) call(fn);
  };
  gems::simd::ForceScalarForTesting(true);
  const double scalar = BestSeconds(kReps, run);
  gems::simd::ForceScalarForTesting(false);
  const double dispatched = BestSeconds(kReps, run);
  const double items = static_cast<double>(calls * size);
  const bool inherits_scalar =
      Kernels().*Entry == gems::simd::ScalarKernels().*Entry;
  return Json::Object()
      .Set("kernel", kernel)
      .Set("variant", inherits_scalar ? "scalar" : Kernels().name)
      .Set("size", size)
      .Set("scalar_ns_per_item", scalar / items * 1e9)
      .Set("dispatched_ns_per_item", dispatched / items * 1e9)
      .Set("speedup", scalar / dispatched);
}

Json TimeKernels() {
  using gems::simd::SimdKernels;
  // Sizes: 64k keys per hashing/ingest call; HLL precision 14 (the
  // sketch_ingest workload); Count-Min/CountSketch rows of width 4096;
  // the sketch_ingest blocked Count-Min (2^16 x 4) and blocked Bloom
  // (8 Mbit, k = 8); an 8 Mbit flat Bloom with k = 7; 4 KiB merges.
  constexpr size_t kKeys = size_t{1} << 16;
  constexpr int kPrecision = 14;
  constexpr size_t kRegs = size_t{1} << kPrecision;
  constexpr uint64_t kWidth = 4096;
  constexpr uint64_t kCmBlocks = (uint64_t{1} << 16) / 2;  // cols 2, depth 4
  constexpr uint32_t kCmDepth = 4;
  constexpr uint32_t kCmCols = 2;
  constexpr uint64_t kBloomBits = uint64_t{1} << 23;
  constexpr uint64_t kBloomBlocks = kBloomBits / 512;
  constexpr size_t kSort = 1024;
  constexpr size_t kMerge = 512;
  constexpr uint64_t kSeed = 0x9E3779B97F4A7C15ULL;
  const SimdKernels& ref = gems::simd::ScalarKernels();

  const std::vector<uint64_t> keys = gems::DistinctItems(kKeys, 7);
  std::vector<uint64_t> hashes(kKeys), lo(kKeys), hi(kKeys), out(kKeys);
  ref.mix64_batch(keys.data(), kKeys, kSeed, hashes.data());
  ref.murmur3_batch_u64(keys.data(), kKeys, kSeed, lo.data(), hi.data());
  std::vector<int64_t> weights(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    weights[i] = static_cast<int64_t>(hashes[i] % 7) + 1;
  }
  std::vector<uint8_t> regs(kRegs), other_regs(kRegs), found(kKeys);
  ref.hll_ingest(other_regs.data(), kPrecision, keys.data(), kKeys, kSeed);
  std::vector<uint64_t> row(kWidth), cm_slots(kCmBlocks * 8);
  std::vector<int64_t> cs_row(kWidth), cs_slots(kCmBlocks * 8);
  std::vector<uint64_t> bloom(kBloomBits / 64), blocked_bloom(kBloomBits / 64);
  std::vector<uint64_t> dst(kMerge), src(hashes.begin(),
                                         hashes.begin() + kMerge);
  std::vector<int64_t> dst_i(kMerge), src_i(src.begin(), src.end());
  std::vector<double> unsorted(kSort), sort_buf(kSort), merged(kSort);
  for (size_t i = 0; i < kSort; ++i) {
    unsorted[i] = static_cast<double>(hashes[i] >> 11);
  }
  std::vector<double> run_a(unsorted.begin(), unsorted.begin() + kSort / 2);
  std::vector<double> run_b(unsorted.begin() + kSort / 2, unsorted.end());
  std::sort(run_a.begin(), run_a.end());
  std::sort(run_b.begin(), run_b.end());

  Json rows = Json::Array();
  // One row per entry; the row is named after the member it times.
#define KERNEL_ROW(entry, size, ...)                    \
  rows.Push(TimeKernel<&SimdKernels::entry>(#entry, size, \
                                            [&](auto fn) { __VA_ARGS__; }))
  KERNEL_ROW(mix64_batch, kKeys, fn(keys.data(), kKeys, kSeed, out.data()));
  KERNEL_ROW(mix64_min, kKeys,
             benchmark::DoNotOptimize(fn(keys.data(), kKeys, kSeed)));
  KERNEL_ROW(murmur3_batch_u64, kKeys,
             fn(keys.data(), kKeys, kSeed, lo.data(), hi.data()));
  KERNEL_ROW(hll_update_hashes, kKeys,
             fn(regs.data(), kPrecision, hashes.data(), kKeys));
  KERNEL_ROW(hll_ingest, kKeys,
             fn(regs.data(), kPrecision, keys.data(), kKeys, kSeed));
  KERNEL_ROW(u8_max, kRegs, fn(regs.data(), other_regs.data(), kRegs));
  KERNEL_ROW(hll_harmonic_sum, kRegs, double sum; uint32_t zeros;
             fn(regs.data(), kRegs, &sum, &zeros);
             benchmark::DoNotOptimize(sum + zeros));
  KERNEL_ROW(cm_row_add, kKeys, fn(row.data(), kWidth, hashes.data(), kKeys));
  KERNEL_ROW(cm_row_add_weighted, kKeys,
             fn(row.data(), kWidth, hashes.data(), weights.data(), kKeys));
  KERNEL_ROW(cm_row_min, kKeys,
             fn(row.data(), kWidth, hashes.data(), kKeys, out.data()));
  KERNEL_ROW(i64_sum_squares, kWidth,
             benchmark::DoNotOptimize(fn(cs_row.data(), kWidth)));
  KERNEL_ROW(cm_blocked_add, kKeys,
             fn(cm_slots.data(), kCmBlocks, kCmDepth, kCmCols, kSeed,
                keys.data(), kKeys));
  KERNEL_ROW(cm_blocked_add_weighted, kKeys,
             fn(cm_slots.data(), kCmBlocks, kCmDepth, kCmCols, kSeed,
                keys.data(), weights.data(), kKeys));
  KERNEL_ROW(cm_blocked_min, kKeys,
             fn(cm_slots.data(), kCmBlocks, kCmDepth, kCmCols, kSeed,
                keys.data(), kKeys, out.data()));
  KERNEL_ROW(cs_blocked_add, kKeys,
             fn(cs_slots.data(), kCmBlocks, kCmDepth, kCmCols, kSeed,
                keys.data(), nullptr, kKeys));
  KERNEL_ROW(bloom_insert, kKeys,
             fn(bloom.data(), kBloomBits, 7, lo.data(), hi.data(), kKeys));
  KERNEL_ROW(bloom_query, kKeys,
             fn(bloom.data(), kBloomBits, 7, lo.data(), hi.data(), kKeys,
                found.data()));
  KERNEL_ROW(blocked_bloom_insert, kKeys,
             fn(blocked_bloom.data(), kBloomBlocks, 8, kSeed, keys.data(),
                kKeys));
  KERNEL_ROW(blocked_bloom_query, kKeys,
             fn(blocked_bloom.data(), kBloomBlocks, 8, kSeed, keys.data(),
                kKeys, found.data()));
  KERNEL_ROW(sort_doubles, kSort, sort_buf = unsorted;
             fn(sort_buf.data(), kSort));
  KERNEL_ROW(merge_doubles, kSort,
             fn(run_a.data(), run_a.size(), run_b.data(), run_b.size(),
                merged.data()));
  KERNEL_ROW(u64_min, kMerge, fn(dst.data(), src.data(), kMerge));
  KERNEL_ROW(u64_or, kMerge, fn(dst.data(), src.data(), kMerge));
  KERNEL_ROW(u64_add, kMerge, fn(dst.data(), src.data(), kMerge));
  KERNEL_ROW(i64_add, kMerge, fn(dst_i.data(), src_i.data(), kMerge));
#undef KERNEL_ROW
  return rows;
}

int RunSimdComparison(const std::string& json_path, size_t num_items) {
  // Per-family representative workloads: cardinality/membership sketches
  // see the distinct-heavy keys of a bulk load (their hard case), while
  // frequency sketches see the skewed stream they exist to summarize.
  const std::vector<uint64_t> items = gems::DistinctItems(num_items, 42);
  const std::vector<uint64_t> zipf =
      gems::ZipfGenerator(1 << 20, 1.1, 42).Take(num_items);
  Json results = Json::Array();
  results
      .Push(CompareSimd("hyperloglog", items,
                        [] { return gems::HyperLogLog(12, 1); }))
      .Push(CompareSimd("hllpp", items, [] { return gems::HllPlusPlus(12, 1); }))
      .Push(CompareSimd("kmv", items, [] { return gems::KmvSketch(1024, 1); }))
      .Push(CompareSimd("countmin", zipf,
                        [] { return gems::CountMinSketch(4096, 4, 1); }))
      .Push(CompareSimd("countsketch", zipf,
                        [] {
                          return gems::CountSketch(
                              4096, 5, 1, gems::SketchLayout::kBlocked);
                        }))
      .Push(CompareSimd("bloom", items,
                        [] { return gems::BloomFilter(1 << 23, 7, 1); }))
      .Push(CompareSimd("blocked_bloom", items,
                        [] { return gems::BlockedBloomFilter(1 << 23, 8, 1); }))
      .Push(CompareSimd("minhash", items,
                        [] { return gems::MinHashSketch(64, 1); }));
  const Json body = Json::Object()
                        .Set("items", num_items)
                        .Set("chunk", kChunk)
                        .Set("results", results)
                        .Set("kernel_entries", kKernelEntries)
                        .Set("kernels", TimeKernels());
  return gems::bench::WriteReport("e07_simd_vs_scalar", json_path, body) ? 0
                                                                          : 1;
}

// ----------------- flat vs blocked counter-layout harness -----------------
//
// The memory-layout claim in isolation: the same zipf stream through the
// same sketch at an LLC-busting width, once in the classic flat row-major
// layout (depth cache lines touched per item) and once in the blocked
// layout (all depth counters in one 64-byte block — one line per item).
// Both sides run the identical UpdateBatch entry point; only the layout
// tag passed to the constructor differs. The round-trip leg then pushes
// the blocked sketch through the flat wire format (serialize -> restore)
// and checks byte-identical re-serialization plus equal estimates over a
// probe sample, so the layout can never buy speed by changing answers.

// Flat/blocked timed-run pairs per layout row.
constexpr int kLayoutPairs = 9;

template <typename Make, typename Est>
Json CompareLayout(const char* name, Make make,
                   const std::vector<uint64_t>& items, Est est) {
  using S = decltype(make(gems::SketchLayout::kFlat));
  const std::span<const uint64_t> span(items);
  // Interleaved pairs, alternating which layout runs first, so drift on a
  // shared host lands on both sides. Each timed run ingests into a fresh
  // sketch built (and its counter pages first touched) before the clock
  // starts: the ratio is ingest alone, not ingest plus a 32 MiB zero-fill.
  double best[2] = {1e100, 1e100};  // flat, blocked
  for (int pair = 0; pair < kLayoutPairs; ++pair) {
    for (int leg = 0; leg < 2; ++leg) {
      const int side = (pair + leg) % 2;
      S sketch = make(side == 0 ? gems::SketchLayout::kFlat
                                : gems::SketchLayout::kBlocked);
      const gems::bench::Clock::time_point start = gems::bench::Clock::now();
      IngestChunked(sketch, span);
      best[side] = std::min(best[side], gems::bench::SecondsSince(start));
    }
  }
  const double flat = best[0];
  const double blocked = best[1];

  S sketch = make(gems::SketchLayout::kBlocked);
  IngestChunked(sketch, span);
  const std::vector<uint8_t> bytes = sketch.Serialize();
  bool round_trip_ok = false;
  if (auto restored = S::Deserialize(bytes); restored.ok()) {
    round_trip_ok = restored.value().layout() == gems::SketchLayout::kBlocked &&
                    restored.value().Serialize() == bytes;
    for (size_t i = 0; round_trip_ok && i < 256; ++i) {
      const uint64_t probe = items[(i * 8191) % items.size()];
      round_trip_ok = est(restored.value(), probe) == est(sketch, probe);
    }
  }
  const double n = static_cast<double>(items.size());
  return Json::Object()
      .Set("sketch", name)
      .Set("flat_mops", n / flat / 1e6)
      .Set("blocked_mops", n / blocked / 1e6)
      .Set("speedup", flat / blocked)
      .Set("round_trip_ok", round_trip_ok);
}

int RunLayoutComparison(const std::string& json_path, size_t num_items) {
  // Width 2^20 x depth 4 = 32 MiB of counters — far past the LLC, so the
  // flat layout pays ~depth cache misses per item and blocked pays ~one.
  // Depth 4 also fills the block exactly (2 columns x 4 rows x 8 bytes).
  constexpr uint32_t kWidth = 1 << 20;
  constexpr uint32_t kDepth = 4;
  const std::vector<uint64_t> zipf =
      gems::ZipfGenerator(1 << 20, 1.1, 42).Take(num_items);

  Json results = Json::Array();
  results.Push(CompareLayout(
      "countmin",
      [&](gems::SketchLayout layout) {
        return gems::CountMinSketch(kWidth, kDepth, /*seed=*/1,
                                    /*conservative_update=*/false, layout);
      },
      zipf,
      [](const gems::CountMinSketch& s, uint64_t item) {
        return s.Estimate(item);
      }));
  results.Push(CompareLayout(
      "countsketch",
      [&](gems::SketchLayout layout) {
        return gems::CountSketch(kWidth, kDepth, /*seed=*/1, layout);
      },
      zipf,
      [](const gems::CountSketch& s, uint64_t item) {
        return s.Estimate(item);
      }));

  const Json body = Json::Object()
                        .Set("items", num_items)
                        .Set("chunk", kChunk)
                        .Set("width", kWidth)
                        .Set("depth", kDepth)
                        .Set("pairs", kLayoutPairs)
                        .Set("results", results);
  return gems::bench::WriteReport("e07_layout", json_path, body) ? 0 : 1;
}

// ------------------------- thread-scaling harness -------------------------
//
// Single-thread batched ingest (the PR 2 fast path) vs the ShardedPipeline
// at power-of-two worker counts up to the hardware concurrency, for the
// four hot families. Workers are pinned (first-touch shard placement +
// affinity) and the achieved pin count is part of each row's provenance.

// One scaling row: `pinned_workers` counts the workers the OS actually
// let us pin (0 for the baseline); `speedup` is over this sketch's
// 1-worker batched baseline.
Json ScalingRow(const char* sketch, size_t workers, size_t pinned,
                double mops, double speedup) {
  return Json::Object()
      .Set("sketch", sketch)
      .Set("workers", workers)
      .Set("pinned_workers", pinned)
      .Set("mops", mops)
      .Set("speedup", speedup);
}

// Power-of-two worker counts up to the hardware concurrency, always
// including the hardware concurrency itself (so a 12-core box reports
// 2/4/8/12 and CI's 2-core runner still reports 2).
std::vector<size_t> ScalingWorkerCounts() {
  const size_t hw =
      std::max<size_t>(2, std::thread::hardware_concurrency());
  std::vector<size_t> counts;
  for (size_t w = 2; w < hw; w *= 2) counts.push_back(w);
  counts.push_back(hw);
  return counts;
}

template <typename S>
void ScaleSketch(
    const char* name, const S& prototype,
    const std::vector<typename gems::ShardedPipeline<S>::Item>& stream,
    Json* rows) {
  using Item = typename gems::ShardedPipeline<S>::Item;
  const std::span<const Item> span(stream);
  const double n = static_cast<double>(stream.size());

  const double base = BestSeconds(kReps, [&] {
    S sketch = prototype;
    IngestChunked(sketch, span);
  });
  rows->Push(ScalingRow(name, 1, 0, n / base / 1e6, 1.0));

  for (const size_t workers : ScalingWorkerCounts()) {
    double best = 1e100;
    size_t pinned = 0;
    for (int r = 0; r < kReps; ++r) {
      // The pool spins up (and the shards get their first-touch + pinned
      // placement) outside the timed region; Push + Finish is the
      // steady-state cost a stream engine would pay.
      gems::ShardedPipeline<S> pipeline(prototype,
                                        {.num_workers = workers,
                                         .chunk_items = kChunk,
                                         .pin_workers = true});
      pinned = pipeline.pinned_workers();
      const gems::bench::Clock::time_point start = gems::bench::Clock::now();
      pipeline.Push(span);
      auto root = pipeline.Finish();
      best = std::min(best, gems::bench::SecondsSince(start));
      benchmark::DoNotOptimize(root);
    }
    rows->Push(ScalingRow(name, workers, pinned, n / best / 1e6, base / best));
  }
}

int RunThreadScaling(const std::string& json_path, size_t num_items) {
  const std::vector<uint64_t> items = gems::DistinctItems(num_items, 42);
  const std::vector<uint64_t> zipf =
      gems::ZipfGenerator(1 << 20, 1.1, 42).Take(num_items);
  std::vector<double> values;
  values.reserve(items.size());
  for (uint64_t item : items) {
    values.push_back(static_cast<double>(item % 1000000));
  }

  Json rows = Json::Array();
  ScaleSketch("hyperloglog", gems::HyperLogLog(12, 1), items, &rows);
  ScaleSketch("countmin", gems::CountMinSketch(4096, 4, 1), zipf, &rows);
  ScaleSketch("bloom", gems::BloomFilter(1 << 23, 7, 1), items, &rows);
  ScaleSketch("kll", gems::KllSketch(200, 1), values, &rows);

  const Json body = Json::Object()
                        .Set("items", num_items)
                        .Set("chunk", kChunk)
                        .Set("pin_workers", true)
                        .Set("results", rows);
  return gems::bench::WriteReport("e07_thread_scaling", json_path, body) ? 0
                                                                          : 1;
}

// ----------------- concurrent wait-free summary harness -----------------
//
// Two phases, both answering questions the unit tests can't:
//
//   Phase A (writer ingest): the same fixed item stream split evenly
//   across 1/2/4/8 writer threads, pushed per-item through (a) the
//   wait-free local-buffer ConcurrentSummary and (b) StripedLockSummary,
//   an embedded replica of the lock-per-update striped design this PR
//   replaced. The striped replica even gets its best case — one stripe
//   per writer, so its locks are uncontended — and the buffered design
//   must still win on the strength of batch-drained local sketches alone.
//
//   Phase B (reader under load): a dedicated reader thread runs a fixed
//   number of wait-free queries while 0 (idle) / 1 / 2 / 4 / 8 writers
//   saturate ingest with distinct items. Writers maintain an exact
//   written-items counter so the reader can sample staleness: the
//   fraction of written items not yet visible in Estimate(). Reader
//   throughput is recorded against wall time and CLOCK_THREAD_CPUTIME_ID;
//   the CPU-time ratio is the CI gate because on a small shared runner 9
//   runnable threads oversubscribe the cores, and wall time then measures
//   the scheduler, not the read path.

// Replica of the striped-lock ConcurrentSummary that
// src/distributed/concurrent/ replaced, kept verbatim-in-spirit as the
// bench baseline: per-thread stripe selected by a first-touch round-robin
// token, one mutex acquisition per update, merge-on-read snapshot.
template <typename S>
class StripedLockSummary {
 public:
  StripedLockSummary(const S& prototype, size_t num_stripes)
      : stripes_(RoundUpPow2(num_stripes)) {
    for (Stripe& stripe : stripes_) stripe.summary.emplace(prototype);
  }

  void Update(uint64_t item) {
    Stripe& stripe = stripes_[StripeIndex()];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.summary->Update(item);
  }

  S Snapshot() const {
    S merged = [&] {
      std::lock_guard<std::mutex> lock(stripes_[0].mutex);
      return *stripes_[0].summary;
    }();
    for (size_t i = 1; i < stripes_.size(); ++i) {
      std::lock_guard<std::mutex> lock(stripes_[i].mutex);
      (void)merged.Merge(*stripes_[i].summary);
    }
    return merged;
  }

 private:
  struct Stripe {
    mutable std::mutex mutex;
    std::optional<S> summary;
  };

  static size_t RoundUpPow2(size_t n) {
    size_t rounded = 1;
    while (rounded < n) rounded <<= 1;
    return rounded;
  }

  size_t StripeIndex() const {
    static std::atomic<size_t> next_token{0};
    thread_local const size_t token =
        next_token.fetch_add(1, std::memory_order_relaxed);
    return token & (stripes_.size() - 1);
  }

  std::vector<Stripe> stripes_;
};

// Fixed total work: `items` split evenly across the writers, per-item
// Update() on both designs (the contended path the rewrite targets; both
// keep batch entry points, which phase B's writers exercise via the drain).
// Each timed run ends with a Snapshot() so the concurrent side pays for
// its exit-hook folds and final publish inside the measurement.
template <typename S>
void ConcurrentWriterScale(const char* name, const S& prototype,
                           const std::vector<uint64_t>& items,
                           Json* rows) {
  const double n = static_cast<double>(items.size());
  for (const size_t writers :
       {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const size_t per = items.size() / writers;
    const auto run_writers = [&](auto& live) {
      std::vector<std::thread> threads;
      threads.reserve(writers);
      for (size_t w = 0; w < writers; ++w) {
        threads.emplace_back([&live, &items, per, writers, w] {
          const size_t begin = w * per;
          const size_t end =
              w + 1 == writers ? items.size() : begin + per;
          for (size_t i = begin; i < end; ++i) live.Update(items[i]);
        });
      }
      for (std::thread& t : threads) t.join();
    };
    const double concurrent = BestSeconds(kReps, [&] {
      gems::ConcurrentSummary<S> live(prototype);
      run_writers(live);
      auto snapshot = live.Snapshot();
      benchmark::DoNotOptimize(snapshot);
    });
    const double striped = BestSeconds(kReps, [&] {
      StripedLockSummary<S> live(prototype, writers);
      run_writers(live);
      S snapshot = live.Snapshot();
      benchmark::DoNotOptimize(snapshot);
    });
    rows->Push(Json::Object()
                   .Set("sketch", name)
                   .Set("writers", writers)
                   .Set("concurrent_writer_mops", n / concurrent / 1e6)
                   .Set("striped_writer_mops", n / striped / 1e6)
                   .Set("writer_speedup", striped / concurrent));
  }
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// One sketch's reader-under-load sweep. `read(live)` is the wait-free
// query under test and must return a double so the sum can't be
// dead-code-eliminated. Writers push globally distinct items (per-writer
// high bits, sequential low bits) so for HLL the exact written counter is
// also the true cardinality and staleness is directly observable; the
// counter only includes full 1024-item blocks, so it never runs ahead of
// what the writer actually called Update() with. Each row reports reader
// queries/s in wall and thread CPU time, both also relative to this
// sketch's writers:0 row (`reader_vs_idle_cpu` is the CI gate), and the
// mean staleness (written - visible) / written.
template <typename S, typename ReadFn>
void ConcurrentReaderUnderLoad(const char* name, const S& prototype,
                               ReadFn read, bool track_staleness,
                               size_t reader_iters,
                               Json* rows) {
  double idle_wall_mops = 0.0;
  double idle_cpu_mops = 0.0;
  for (const size_t writers :
       {size_t{0}, size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    gems::ConcurrentSummary<S> live(prototype);
    // Idle rows still read a populated sketch, not a freshly-zeroed one.
    for (uint64_t i = 0; i < 4096; ++i) live.Update(~uint64_t{0} - i);
    live.FlushLocal();

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> written{0};
    std::vector<std::thread> threads;
    threads.reserve(writers);
    for (size_t w = 0; w < writers; ++w) {
      threads.emplace_back([&live, &stop, &written, w] {
        const uint64_t base = (w + 1) << 40;
        uint64_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          for (int k = 0; k < 1024; ++k) live.Update(base + i++);
          written.fetch_add(1024, std::memory_order_relaxed);
        }
      });
    }
    if (writers > 0) {
      // Let the first propagation land so staleness samples measure the
      // steady state, not startup.
      const uint64_t start_epoch = live.epoch();
      while (live.epoch() == start_epoch) std::this_thread::yield();
    }

    double best_wall = 1e100;
    double best_cpu = 1e100;
    double staleness_sum = 0.0;
    size_t staleness_samples = 0;
    for (int r = 0; r < kReps; ++r) {
      const gems::bench::Clock::time_point start = gems::bench::Clock::now();
      const double c0 = ThreadCpuSeconds();
      double sum = 0.0;
      for (size_t i = 0; i < reader_iters; ++i) {
        sum += read(live);
        if constexpr (gems::EstimableSummary<S>) {
          if (track_staleness && writers > 0 && (i & 0xFFF) == 0) {
            const double w = static_cast<double>(
                written.load(std::memory_order_relaxed));
            if (w > 0) {
              const double lag = (w - live.Estimate()) / w;
              staleness_sum += lag > 0 ? lag : 0.0;
              ++staleness_samples;
            }
          }
        }
      }
      benchmark::DoNotOptimize(sum);
      const double cpu = ThreadCpuSeconds() - c0;
      const double wall = gems::bench::SecondsSince(start);
      best_wall = std::min(best_wall, wall);
      best_cpu = std::min(best_cpu, cpu);
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads) t.join();

    const double n = static_cast<double>(reader_iters);
    const double wall_mops = n / best_wall / 1e6;
    const double cpu_mops = n / best_cpu / 1e6;
    if (writers == 0) {
      idle_wall_mops = wall_mops;
      idle_cpu_mops = cpu_mops;
    }
    rows->Push(Json::Object()
                   .Set("sketch", name)
                   .Set("writers", writers)
                   .Set("reader_mops", wall_mops)
                   .Set("reader_cpu_mops", cpu_mops)
                   .Set("reader_vs_idle", wall_mops / idle_wall_mops)
                   .Set("reader_vs_idle_cpu", cpu_mops / idle_cpu_mops)
                   .Set("staleness_frac_mean",
                        staleness_samples > 0
                            ? staleness_sum / staleness_samples
                            : 0.0));
  }
}

int RunConcurrentBench(const std::string& json_path, size_t num_items) {
  const std::vector<uint64_t> items = gems::DistinctItems(num_items, 42);
  const std::vector<uint64_t> zipf =
      gems::ZipfGenerator(1 << 20, 1.1, 42).Take(num_items);

  Json writer_rows = Json::Array();
  ConcurrentWriterScale("hyperloglog", gems::HyperLogLog(12, 1), items,
                        &writer_rows);
  ConcurrentWriterScale("countmin", gems::CountMinSketch(4096, 4, 1), zipf,
                        &writer_rows);

  Json reader_rows = Json::Array();
  // HLL readers take the cached-estimate path: one atomic load per query.
  // This is the gated row — it must stay within 20% of idle (CPU time)
  // with 8 writers saturating ingest.
  ConcurrentReaderUnderLoad(
      "hyperloglog", gems::HyperLogLog(12, 1),
      [](const gems::ConcurrentSummary<gems::HyperLogLog>& live) {
        return live.Estimate();
      },
      /*track_staleness=*/true, /*reader_iters=*/std::min(num_items * 16,
                                                          size_t{1} << 25),
      &reader_rows);
  // Count-Min readers take the pinned-epoch Query path (point estimate of
  // one probe key) — the heavier read that actually touches the published
  // buffer. Informational: pin/unpin traffic is the cost being observed.
  const uint64_t probe = zipf[0];
  ConcurrentReaderUnderLoad(
      "countmin", gems::CountMinSketch(4096, 4, 1),
      [probe](const gems::ConcurrentSummary<gems::CountMinSketch>& live) {
        return live.Query([probe](const gems::CountMinSketch& s) {
          return static_cast<double>(s.Estimate(probe));
        });
      },
      /*track_staleness=*/false, /*reader_iters=*/std::min(num_items * 2,
                                                           size_t{1} << 22),
      &reader_rows);

  const Json body = Json::Object()
                        .Set("items", num_items)
                        .Set("writer_results", writer_rows)
                        .Set("reader_results", reader_rows);
  return gems::bench::WriteReport("e07_concurrent", json_path, body) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  gems::bench::Flags flags(argc, argv);
  // A mode's item count; 0 or absent picks the mode's default.
  const auto items = [&](std::string_view flag, size_t fallback) {
    const size_t n = flags.U64(flag, 0);
    return n == 0 ? fallback : n;
  };
  const std::string scaling_json = flags.String("e07_scaling_json");
  const size_t scaling_items = items("e07_scaling_items", 1 << 21);
  const std::string simd_json = flags.String("e07_simd_json");
  const size_t simd_items = items("e07_simd_items", 1 << 20);
  const std::string concurrent_json = flags.String("e07_concurrent_json");
  const size_t concurrent_items = items("e07_concurrent_items", 1 << 21);
  const std::string layout_json = flags.String("e07_layout_json");
  const size_t layout_items = items("e07_layout_items", 1 << 21);
  if (!layout_json.empty()) {
    return RunLayoutComparison(layout_json, layout_items);
  }
  if (!concurrent_json.empty()) {
    return RunConcurrentBench(concurrent_json, concurrent_items);
  }
  if (!simd_json.empty()) return RunSimdComparison(simd_json, simd_items);
  if (!scaling_json.empty()) {
    return RunThreadScaling(scaling_json, scaling_items);
  }
  std::vector<char*> passthrough = flags.Unclaimed();
  passthrough.insert(passthrough.begin(), argv[0]);
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
