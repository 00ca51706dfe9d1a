// E17: shared-ingest multi-query execution — hundreds of standing queries,
// one hash-once pass.
//
//   bench_e17_multiquery --e17_multiquery_json=out.json [--e17_events=N]
//                        [--e17_threads=N]
//
// The paper's headline workload is "maintain huge numbers of sketches in
// parallel": Gigascope-style telemetry where many continuous GROUP-BY
// sketch queries stand over one stream. The naive execution is N
// independent StreamQuerys — N passes over the stream, N filter
// evaluations per event, one hash per event per COUNT DISTINCT query. The
// MultiQueryEngine ingests once for all of them: each distinct predicate
// is evaluated once per event, the item column is hashed once per chunk
// (every query shares the engine seed), and queries with identical
// (options, filter set) share one physical sketch.
//
// The sweep runs 16/64/256 standing queries at several overlap factors
// (the fraction of queries duplicating an earlier one — the state-dedup
// opportunity) from the shared workload generator, measuring:
//
//   - independent_mevents: N independent StreamQuerys, ProcessBatch each
//     (the baseline's own hash-once batching enabled — this is the best
//     N-pass execution, not a strawman);
//   - shared_mevents: one MultiQueryEngine.ProcessBatch pass;
//   - parallel_mevents: MultiQueryEngine.ProcessBatchParallel over a
//     ThreadPool (one task per physical query per chunk);
//   - results_identical: every query's drained windows AND its checkpoint
//     (SerializeState) byte-identical between engine and independents.
//
// CI gates shared_speedup >= 2 at 256 queries / 50% overlap with
// results_identical == true. The bench exits nonzero if any equivalence
// check fails (speedup gating lives in CI, like the other experiments).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/bytes.h"
#include "core/registry.h"
#include "distributed/thread_pool.h"
#include "engine/multi_query.h"
#include "engine/stream_query.h"
#include "workload/multi_query.h"

namespace {

using gems::bench::Clock;
using gems::bench::SecondsSince;

double Mevents(uint64_t events, double seconds) {
  return seconds > 0.0 ? static_cast<double>(events) / seconds / 1e6 : 0.0;
}

std::vector<uint8_t> WindowBytes(const std::vector<gems::WindowResult>& w) {
  gems::ByteWriter writer;
  gems::engine_detail::SerializeWindows(
      writer, std::deque<gems::WindowResult>(w.begin(), w.end()));
  return std::move(writer).TakeBytes();
}

void RegisterAll(gems::MultiQueryEngine& engine,
                 const std::vector<gems::MultiQuerySpec>& specs) {
  std::vector<gems::MultiQueryEngine::FilterId> palette;
  for (size_t i = 0; i < gems::MultiQueryWorkload::PaletteSize(); ++i) {
    palette.push_back(
        engine.RegisterFilter(gems::MultiQueryWorkload::PaletteFilter(i)));
  }
  for (const gems::MultiQuerySpec& spec : specs) {
    std::vector<gems::MultiQueryEngine::FilterId> ids;
    for (size_t f : spec.filters) ids.push_back(palette[f]);
    engine.AddQuery(spec.options, ids);
  }
}

struct ConfigResult {
  size_t queries = 0;
  double overlap = 0.0;
  size_t physical = 0;
  double independent_mevents = 0.0;
  double shared_mevents = 0.0;
  double parallel_mevents = 0.0;
  double shared_speedup = 0.0;    // independent time / shared time.
  double parallel_speedup = 0.0;  // independent time / parallel time.
  bool results_identical = false;
};

ConfigResult RunConfig(size_t num_queries, double overlap, uint64_t num_events,
                       size_t num_threads) {
  const uint64_t seed = 2024;
  gems::MultiQueryWorkloadOptions wopt;
  wopt.num_queries = num_queries;
  wopt.overlap = overlap;
  wopt.num_groups = 64;
  wopt.window_size = 1024;
  wopt.events_per_tick = 8;
  wopt.seed = 17;
  gems::MultiQueryWorkload workload(wopt);
  const std::vector<gems::StreamEvent> events =
      workload.GenerateEvents(num_events);

  ConfigResult result;
  result.queries = num_queries;
  result.overlap = overlap;

  // N independent StreamQuerys — the baseline pays one pass per query.
  std::vector<gems::StreamQuery> independents;
  independents.reserve(workload.specs().size());
  for (const gems::MultiQuerySpec& spec : workload.specs()) {
    gems::StreamQuery query(spec.options, seed);
    for (size_t f : spec.filters) {
      query.AddFilter(gems::MultiQueryWorkload::PaletteFilter(f));
    }
    independents.push_back(std::move(query));
  }
  const auto indep_start = Clock::now();
  for (gems::StreamQuery& query : independents) {
    if (!query.ProcessBatch(events).ok()) std::abort();
  }
  const double indep_seconds = SecondsSince(indep_start);

  // One shared pass.
  gems::MultiQueryEngine shared(seed);
  RegisterAll(shared, workload.specs());
  result.physical = shared.num_physical_queries();
  const auto shared_start = Clock::now();
  if (!shared.ProcessBatch(events).ok()) std::abort();
  const double shared_seconds = SecondsSince(shared_start);

  // One shared pass, fan-out across the pool.
  gems::MultiQueryEngine parallel(seed);
  RegisterAll(parallel, workload.specs());
  gems::ThreadPool pool(num_threads);
  const auto parallel_start = Clock::now();
  if (!parallel.ProcessBatchParallel(events, pool).ok()) std::abort();
  const double parallel_seconds = SecondsSince(parallel_start);

  result.independent_mevents = Mevents(num_events, indep_seconds);
  result.shared_mevents = Mevents(num_events, shared_seconds);
  result.parallel_mevents = Mevents(num_events, parallel_seconds);
  result.shared_speedup =
      shared_seconds > 0.0 ? indep_seconds / shared_seconds : 0.0;
  result.parallel_speedup =
      parallel_seconds > 0.0 ? indep_seconds / parallel_seconds : 0.0;

  // Equivalence: every query's results and checkpoint byte-identical to
  // its independent twin, on all three execution strategies. Windows are
  // drained first so both sides compare checkpoints at the same poll
  // state (checkpoints include closed-but-unpolled windows).
  result.results_identical = true;
  for (size_t qid = 0; qid < independents.size(); ++qid) {
    const std::vector<uint8_t> solo_windows =
        WindowBytes(independents[qid].Poll());
    if (WindowBytes(shared.Poll(qid)) != solo_windows ||
        WindowBytes(parallel.Poll(qid)) != solo_windows) {
      result.results_identical = false;
      break;
    }
    const std::vector<uint8_t> solo_state = independents[qid].SerializeState();
    if (shared.SerializeQueryState(qid) != solo_state ||
        parallel.SerializeQueryState(qid) != solo_state) {
      result.results_identical = false;
      break;
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  gems::bench::Flags flags(argc, argv);
  const std::string json_path = flags.String("e17_multiquery_json");
  const uint64_t num_events = flags.U64("e17_events", 400'000);
  const size_t num_threads = flags.U64("e17_threads", 8);
  if (!flags.NoneUnclaimed("e17")) return 1;
  if (num_events < 10'000 || num_threads == 0) {
    std::fprintf(stderr, "e17: need >= 10000 events and >= 1 thread\n");
    return 1;
  }

  gems::RegisterBuiltinSketches();

  struct Config {
    size_t queries;
    double overlap;
  };
  const Config sweep[] = {
      {16, 0.5}, {64, 0.5}, {256, 0.25}, {256, 0.5}, {256, 0.75},
  };

  std::vector<ConfigResult> results;
  bool all_identical = true;
  for (const Config& config : sweep) {
    // The per-query cost of the baseline scales with the query count;
    // shrink the stream for the big configs so the sweep stays smoke-able.
    const uint64_t events =
        config.queries >= 256 ? num_events / 2 : num_events;
    ConfigResult r =
        RunConfig(config.queries, config.overlap, events, num_threads);
    std::fprintf(stderr,
                 "e17: q=%3zu overlap=%.2f physical=%3zu "
                 "indep=%.2fM/s shared=%.2fM/s (%.2fx) parallel=%.2fM/s "
                 "(%.2fx) identical=%d\n",
                 r.queries, r.overlap, r.physical, r.independent_mevents,
                 r.shared_mevents, r.shared_speedup, r.parallel_mevents,
                 r.parallel_speedup, r.results_identical ? 1 : 0);
    all_identical = all_identical && r.results_identical;
    results.push_back(r);
  }

  if (json_path.empty()) return all_identical ? 0 : 1;

  using gems::bench::Json;
  Json sweep_rows = Json::Array();
  for (const ConfigResult& r : results) {
    sweep_rows.Push(Json::Object()
                        .Set("queries", r.queries)
                        .Set("overlap", r.overlap)
                        .Set("physical", r.physical)
                        .Set("independent_mevents", r.independent_mevents)
                        .Set("shared_mevents", r.shared_mevents)
                        .Set("shared_speedup", r.shared_speedup)
                        .Set("parallel_mevents", r.parallel_mevents)
                        .Set("parallel_speedup", r.parallel_speedup)
                        .Set("results_identical", r.results_identical));
  }
  const Json body = Json::Object()
                        .Set("events", num_events)
                        .Set("threads", num_threads)
                        .Set("sweep", sweep_rows);
  const bool written =
      gems::bench::WriteReport("e17_multiquery", json_path, body);
  return written && all_identical ? 0 : 1;
}
