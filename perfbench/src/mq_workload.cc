// mq_stream: one MultiQueryEngine with 256 standing queries at 50%
// overlap (E17's population, 110 physical queries) over 1024-event
// micro-batches; after each ProcessBatch every query is polled.
//
// The query population is fixed (E17's generator seed); --seed picks the
// event stream. The traced half replays each batch through a shadow of the
// engine's internals built from public calls — one filter column per used
// palette predicate, one HashedBatch, and one StreamQuery per physical
// query fed through ProcessBatchPrehashed — so filter, hash and per-
// aggregate apply costs each get a span, and the engine's ProcessBatch
// minus their sum is the engine's unattributed residual.
//
// Correctness: the engine's windows over a prefix of the stream, and every
// query's checkpoint at the end of that prefix, must be byte-identical to
// independent StreamQuerys fed the same prefix.

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "engine/multi_query.h"
#include "engine/stream_query.h"
#include "hash/hashed_batch.h"
#include "report.h"
#include "trace.h"
#include "workload/multi_query.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gems::AggregateKind;
using gems::MultiQueryEngine;
using gems::MultiQuerySpec;
using gems::MultiQueryWorkload;
using gems::StreamEvent;
using gems::StreamQuery;
using gems::WindowResult;

/// E17's query population: 256 queries at 50% overlap -> 110 physical.
constexpr uint64_t kSpecSeed = 17;
constexpr uint64_t kEngineSeed = 2024;

struct Sizes {
  size_t queries;
  size_t batch;             // Events per ProcessBatch call.
  size_t warmup_batches;    // Untimed, in set-up (and for the shadow).
  size_t check_batches;     // Stream prefix the check replays.
  size_t block_batches;     // Batches generated at a time, untimed.
  int setup_reps;
  int windows;              // Slices of the timed phase (ReportWindowed).
};

Sizes SizesFor(const Config& config) {
  if (config.tiny) return {32, 256, 2, 6, 8, 2, 2};
  return {256, 1024, 16, 48, 64, 3, 5};
}

gems::MultiQueryWorkloadOptions WorkloadOptions(const Sizes& sizes,
                                                uint64_t seed) {
  gems::MultiQueryWorkloadOptions options;
  options.num_queries = sizes.queries;
  options.overlap = 0.5;
  options.num_groups = 64;
  options.window_size = 1024;
  options.events_per_tick = 8;
  options.seed = seed;
  return options;
}

uint64_t StreamSeed(uint64_t seed) {
  return gems::SplitMix64(seed ^ 0x6D7173747265616DULL).Next();
}

/// The event stream, generated a block at a time outside the timed calls.
class EventStream {
 public:
  EventStream(const Sizes& sizes, uint64_t seed)
      : sizes_(sizes), generator_(WorkloadOptions(sizes, StreamSeed(seed))) {}

  /// The next batch; valid until the following call.
  std::span<const StreamEvent> Next() {
    if (pos_ + sizes_.batch > block_.size()) {
      block_ = generator_.GenerateEvents(sizes_.batch * sizes_.block_batches);
      pos_ = 0;
    }
    const std::span<const StreamEvent> batch(block_.data() + pos_,
                                             sizes_.batch);
    pos_ += sizes_.batch;
    return batch;
  }

 private:
  Sizes sizes_;
  MultiQueryWorkload generator_;
  std::vector<StreamEvent> block_;
  size_t pos_ = 0;
};

std::vector<uint8_t> WindowBytes(const std::vector<WindowResult>& windows) {
  gems::ByteWriter writer;
  gems::engine_detail::SerializeWindows(
      writer, std::deque<WindowResult>(windows.begin(), windows.end()));
  return std::move(writer).TakeBytes();
}

struct Deployment {
  std::vector<MultiQuerySpec> specs;
  std::unique_ptr<MultiQueryEngine> engine;
  std::unique_ptr<EventStream> stream;
  uint64_t batches = 0;
  uint64_t windows = 0;
  std::vector<std::vector<WindowResult>> polled;
  /// Per query: windows polled over the check prefix, and the checkpoint
  /// at its end.
  std::vector<std::vector<WindowResult>> prefix_windows;
  std::vector<std::vector<uint8_t>> prefix_checkpoints;
};

struct StepTimes {
  double process_us = 0.0;
  double poll_us = 0.0;
  uint64_t windows = 0;  // Returned by this step's polls.
  bool ok = true;
};

/// One micro-batch: ProcessBatch, then Poll of every query.
StepTimes Step(const Sizes& sizes, Deployment& d,
               std::span<const StreamEvent> batch, SpanLog* log) {
  StepTimes t;
  const uint64_t rid = d.batches;
  ScopedSpan root(log, "mq.batch", rid);
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(log, "mq.process_batch", rid, root.id());
    t.ok = d.engine->ProcessBatch(batch).ok();
  }
  const Clock::time_point t1 = Clock::now();
  {
    ScopedSpan span(log, "mq.poll", rid, root.id());
    for (size_t q = 0; q < d.specs.size(); ++q) {
      d.polled[q] = d.engine->Poll(q);
      t.windows += d.polled[q].size();
    }
  }
  const Clock::time_point t2 = Clock::now();
  t.process_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  t.poll_us = std::chrono::duration<double, std::micro>(t2 - t1).count();
  ++d.batches;
  d.windows += t.windows;
  if (d.batches <= sizes.check_batches) {
    for (size_t q = 0; q < d.specs.size(); ++q) {
      for (WindowResult& w : d.polled[q]) {
        d.prefix_windows[q].push_back(std::move(w));
      }
    }
  }
  if (d.batches == sizes.check_batches) {
    for (size_t q = 0; q < d.specs.size(); ++q) {
      d.prefix_checkpoints[q] = d.engine->SerializeQueryState(q);
    }
  }
  return t;
}

void Deploy(const Sizes& sizes, uint64_t seed, Deployment* d,
            RunResult* result) {
  d->specs = MultiQueryWorkload(WorkloadOptions(sizes, kSpecSeed)).specs();
  d->engine = std::make_unique<MultiQueryEngine>(kEngineSeed);
  std::vector<MultiQueryEngine::FilterId> palette;
  for (size_t i = 0; i < MultiQueryWorkload::PaletteSize(); ++i) {
    palette.push_back(
        d->engine->RegisterFilter(MultiQueryWorkload::PaletteFilter(i)));
  }
  for (const MultiQuerySpec& spec : d->specs) {
    std::vector<MultiQueryEngine::FilterId> ids;
    for (size_t f : spec.filters) ids.push_back(palette[f]);
    d->engine->AddQuery(spec.options, ids);
  }
  d->stream = std::make_unique<EventStream>(sizes, seed);
  d->polled.resize(d->specs.size());
  d->prefix_windows.resize(d->specs.size());
  d->prefix_checkpoints.resize(d->specs.size());
  for (size_t b = 0; b < sizes.warmup_batches; ++b) {
    if (!Step(sizes, *d, d->stream->Next(), nullptr).ok) {
      result->Fail(1, "warm-up ProcessBatch");
    }
  }
}

const char* ApplySpanName(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCountDistinct:
      return "mq.apply.count_distinct";
    case AggregateKind::kTopK:
      return "mq.apply.topk";
    case AggregateKind::kQuantiles:
      return "mq.apply.quantiles";
    case AggregateKind::kSum:
      return "mq.apply.sum";
  }
  return "mq.apply.other";
}

/// The engine's per-chunk work rebuilt from public calls, one span per
/// layer: filter columns, the shared hash column, and each physical
/// query's ProcessBatchPrehashed.
class Shadow {
 public:
  explicit Shadow(const std::vector<MultiQuerySpec>& specs) {
    std::set<std::string> seen;
    used_.assign(MultiQueryWorkload::PaletteSize(), 0);
    columns_.resize(used_.size());
    for (const MultiQuerySpec& spec : specs) {
      std::vector<size_t> filters = spec.filters;
      std::sort(filters.begin(), filters.end());
      filters.erase(std::unique(filters.begin(), filters.end()),
                    filters.end());
      // The engine's state-dedup rule: equal relevant options and filters.
      const gems::engine_detail::OptionKnobs knobs =
          gems::engine_detail::RelevantKnobs(spec.options);
      gems::ByteWriter w;
      w.PutU8(static_cast<uint8_t>(spec.options.aggregate));
      w.PutU64(spec.options.window_size);
      w.PutU64(spec.options.slide);
      w.PutU8(knobs.hll_precision);
      w.PutVarint(knobs.top_k_capacity);
      w.PutVarint(knobs.top_k);
      w.PutU32(knobs.kll_k);
      if (spec.options.aggregate == AggregateKind::kQuantiles) {
        w.PutVarint(spec.options.quantile_points.size());
        for (double q : spec.options.quantile_points) w.PutDouble(q);
      }
      w.PutVarint(filters.size());
      for (size_t f : filters) w.PutVarint(f);
      const std::vector<uint8_t> bytes = std::move(w).TakeBytes();
      if (!seen.insert(std::string(bytes.begin(), bytes.end())).second) {
        continue;
      }
      for (size_t f : filters) used_[f] = 1;
      groups_.push_back({std::make_unique<StreamQuery>(spec.options,
                                                       kEngineSeed),
                         filters, ApplySpanName(spec.options.aggregate), {}});
    }
  }

  size_t num_physical() const { return groups_.size(); }

  /// Returns the number of (event, physical query) pairs accepted.
  uint64_t Process(std::span<const StreamEvent> batch, uint64_t rid,
                   SpanLog* log, bool* ok) {
    ScopedSpan root(log, "mq.shadow", rid);
    {
      ScopedSpan span(log, "mq.filter", rid, root.id());
      for (size_t f = 0; f < used_.size(); ++f) {
        if (!used_[f]) continue;
        const auto predicate = MultiQueryWorkload::PaletteFilter(f);
        std::vector<uint8_t>& col = columns_[f];
        col.resize(batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          col[i] = predicate(batch[i]) ? 1 : 0;
        }
      }
      for (Group& g : groups_) {
        g.accept.clear();
        if (g.filters.empty()) continue;
        g.accept = columns_[g.filters[0]];
        for (size_t k = 1; k < g.filters.size(); ++k) {
          const std::vector<uint8_t>& col = columns_[g.filters[k]];
          for (size_t i = 0; i < batch.size(); ++i) g.accept[i] &= col[i];
        }
      }
    }
    {
      ScopedSpan span(log, "mq.hash", rid, root.id());
      hashed_.ResetProjected(
          batch, [](const StreamEvent& e) { return e.item; }, kEngineSeed);
    }
    uint64_t accepted = 0;
    for (Group& g : groups_) {
      {
        ScopedSpan span(log, g.apply_span, rid, root.id());
        *ok = g.query->ProcessBatchPrehashed(batch, hashed_.hashes(),
                                             g.accept)
                  .ok() &&
              *ok;
      }
      g.query->Poll();
      accepted += g.filters.empty()
                      ? batch.size()
                      : static_cast<uint64_t>(std::count(
                            g.accept.begin(), g.accept.end(), uint8_t{1}));
    }
    return accepted;
  }

 private:
  struct Group {
    std::unique_ptr<StreamQuery> query;
    std::vector<size_t> filters;
    const char* apply_span;
    std::vector<uint8_t> accept;
  };
  std::vector<uint8_t> used_;
  std::vector<std::vector<uint8_t>> columns_;
  std::vector<Group> groups_;
  gems::HashedBatch hashed_;
};

/// Independent StreamQuerys over the check prefix versus the engine.
void Check(const Sizes& sizes, uint64_t seed, const Deployment& d,
           RunResult* result) {
  std::vector<StreamQuery> independents;
  for (const MultiQuerySpec& spec : d.specs) {
    StreamQuery query(spec.options, kEngineSeed);
    for (size_t f : spec.filters) {
      query.AddFilter(MultiQueryWorkload::PaletteFilter(f));
    }
    independents.push_back(std::move(query));
  }
  std::vector<std::vector<WindowResult>> windows(independents.size());
  EventStream stream(sizes, seed);
  for (size_t b = 0; b < sizes.check_batches; ++b) {
    const std::span<const StreamEvent> batch = stream.Next();
    for (size_t q = 0; q < independents.size(); ++q) {
      if (!independents[q].ProcessBatch(batch).ok()) {
        result->Fail(1, "independent ProcessBatch");
      }
      for (WindowResult& w : independents[q].Poll()) {
        windows[q].push_back(std::move(w));
      }
    }
  }
  result->attempted += independents.size();
  for (size_t q = 0; q < independents.size(); ++q) {
    if (WindowBytes(windows[q]) != WindowBytes(d.prefix_windows[q]) ||
        independents[q].SerializeState() != d.prefix_checkpoints[q]) {
      result->Fail(1, "query " + std::to_string(q) +
                          ": windows or checkpoint differ from an "
                          "independent StreamQuery");
    }
  }
}

}  // namespace

void RunMultiQuery(const Config& config, RunResult* result) {
  const Sizes sizes = SizesFor(config);
  std::vector<double> setup_s;
  Deployment d;
  for (int rep = 0; rep < sizes.setup_reps; ++rep) {
    d = Deployment();
    const Clock::time_point start = Clock::now();
    Deploy(sizes, config.seed, &d, result);
    setup_s.push_back(SecondsSince(start));
  }

  // A step is one request. Steps are split by whether their polls
  // returned a window: without one a step is pure ingest (update_*); with
  // one its time is the result latency (query_*).
  std::vector<Completion> steps;
  std::vector<Sample> samples;
  double busy_us = 0.0;
  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(untraced_s));
  while (Clock::now() < deadline || d.batches < sizes.check_batches) {
    const StepTimes t = Step(sizes, d, d.stream->Next(), nullptr);
    const double end_s = SecondsSince(start);
    ++result->attempted;
    if (!t.ok) result->Fail(1, "ProcessBatch");
    const double us = t.process_us + t.poll_us;
    steps.push_back({end_s, us, sizes.batch});
    samples.push_back({end_s, us, t.windows > 0});
    busy_us += us;
  }

  // Traced half: the shadow first warms on the live stream without spans,
  // then every batch runs engine and shadow with spans.
  SpanLog log;
  uint64_t traced_events = 0;
  uint64_t accepted = 0;
  std::vector<double> traced_step_us;
  if (config.trace) {
    Shadow shadow(d.specs);
    if (shadow.num_physical() != d.engine->num_physical_queries()) {
      result->Fail(1, "shadow physical-query count differs from the engine");
    }
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(config.seconds / 2));
    for (size_t b = 0; Clock::now() < deadline || b <= sizes.warmup_batches;
         ++b) {
      const bool spans = b >= sizes.warmup_batches;
      const std::span<const StreamEvent> batch = d.stream->Next();
      const uint64_t rid = d.batches;
      const StepTimes t = Step(sizes, d, batch, spans ? &log : nullptr);
      bool ok = t.ok;
      const uint64_t a = shadow.Process(batch, rid, spans ? &log : nullptr, &ok);
      ++result->attempted;
      if (!ok) result->Fail(1, "traced ProcessBatch");
      if (!spans) continue;
      traced_step_us.push_back(t.process_us + t.poll_us);
      traced_events += batch.size();
      accepted += a;
    }
  }
  const double peak_rss_mb = PeakRssMb();

  std::vector<uint8_t> state;
  {
    ScopedSpan span(config.trace ? &log : nullptr, "mq.checkpoint", 0);
    state = d.engine->SerializeState();
  }
  Check(sizes, config.seed, d, result);

  result->EndToEnd("setup_s", Median(setup_s), "s");
  result->EndToEnd("peak_rss_mb", peak_rss_mb, "MB");
  ReportWindowed(steps, samples, untraced_s, sizes.windows,
                 /*busy_time=*/true, result);
  result->Detail("physical_queries",
                 static_cast<double>(d.engine->num_physical_queries()),
                 "count");
  if (!config.trace) return;

  SaveSpans(config, {&log}, result);
  const std::vector<const SpanLog*> logs = {&log};
  const double events = static_cast<double>(traced_events);
  const auto per_event = [&](const char* name) {
    return events > 0 ? static_cast<double>(Total(logs, name).total_ns) / events
                      : 0.0;
  };
  double attributed = 0.0;
  for (const char* name :
       {"mq.filter", "mq.hash", "mq.apply.count_distinct", "mq.apply.topk",
        "mq.apply.quantiles", "mq.apply.sum"}) {
    attributed += per_event(name);
  }
  const double physical =
      static_cast<double>(d.engine->num_physical_queries());
  result->Layer("mq.filter_ns_per_event", per_event("mq.filter"), "ns");
  result->Layer("mq.hash_ns_per_event", per_event("mq.hash"), "ns");
  result->Layer("mq.apply_count_distinct_ns_per_event",
                per_event("mq.apply.count_distinct"), "ns");
  result->Layer("mq.apply_topk_ns_per_event", per_event("mq.apply.topk"),
                "ns");
  result->Layer("mq.apply_quantiles_ns_per_event",
                per_event("mq.apply.quantiles"), "ns");
  result->Layer("mq.apply_sum_ns_per_event", per_event("mq.apply.sum"), "ns");
  result->Layer("mq.poll_us_per_batch", MeanOf(logs, "mq.poll", 1e3), "us");
  result->Layer("mq.unattributed_ns_per_event",
                per_event("mq.process_batch") - attributed, "ns");
  result->Layer("mq.checkpoint_ms", MeanOf(logs, "mq.checkpoint", 1e6), "ms");
  result->Layer("mq.state_bytes", static_cast<double>(state.size()), "bytes");
  result->Layer("mq.logical_queries", static_cast<double>(d.specs.size()),
                "count");
  result->Layer("mq.physical_queries", physical, "count");
  result->Layer("mq.dedup_ratio",
                static_cast<double>(d.specs.size()) / physical, "ratio");
  result->Layer("mq.accept_ratio",
                events > 0 ? static_cast<double>(accepted) / (events * physical)
                           : 0.0,
                "ratio");
  result->Layer("mq.windows_emitted", static_cast<double>(d.windows),
                "count");
  const double untraced_mean = busy_us / static_cast<double>(steps.size());
  double traced_sum = 0.0;
  for (double us : traced_step_us) traced_sum += us;
  result->Layer("trace.overhead_ratio",
                traced_step_us.empty()
                    ? 0.0
                    : traced_sum / static_cast<double>(traced_step_us.size()) /
                          untraced_mean,
                "ratio");
}

}  // namespace perfbench
