#include "engine/multi_query.h"

#include <algorithm>
#include <utility>

#include "common/bytes.h"
#include "common/check.h"

namespace gems {

namespace {

/// Engine-unit checkpoint framing; the per-query payloads inside are
/// ordinary StreamQuery checkpoints ("GEMQ" images), themselves built from
/// standard registry envelopes.
constexpr uint32_t kEngineMagic = 0x4D4D4547;  // "GEMM" little-endian.
constexpr uint8_t kEngineVersion = 1;

/// Canonical identity of a physical query: every option that shapes state
/// or results for this aggregate — knobs the aggregate does not read are
/// canonicalized away (engine_detail::RelevantKnobs), so e.g. two SUM
/// queries that differ only in kll_k share one physical query. The key
/// adds quantile_points for QUANTILES (the StreamQuery checkpoint
/// fingerprint omits them because they only affect emitted results — two
/// queries reading different quantile points from the same KLL must NOT
/// share result views), plus the canonical filter set. Byte-equality of
/// this key is the state-dedup rule.
std::string CanonicalKey(const StreamQuery::Options& options,
                         const std::vector<size_t>& filters) {
  const engine_detail::OptionKnobs knobs =
      engine_detail::RelevantKnobs(options);
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(options.aggregate));
  w.PutU64(options.window_size);
  w.PutU64(options.slide);
  w.PutU8(knobs.hll_precision);
  w.PutVarint(knobs.top_k_capacity);
  w.PutVarint(knobs.top_k);
  w.PutU32(knobs.kll_k);
  if (options.aggregate == AggregateKind::kQuantiles) {
    w.PutVarint(options.quantile_points.size());
    for (double q : options.quantile_points) w.PutDouble(q);
  }
  w.PutVarint(filters.size());
  for (size_t f : filters) w.PutVarint(f);
  const std::vector<uint8_t> bytes = std::move(w).TakeBytes();
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace

MultiQueryEngine::MultiQueryEngine(uint64_t seed) : seed_(seed) {}

MultiQueryEngine::FilterId MultiQueryEngine::RegisterFilter(
    std::function<bool(const StreamEvent&)> predicate) {
  GEMS_CHECK(predicate != nullptr);
  filters_.push_back(std::move(predicate));
  filter_used_.push_back(0);
  filter_cols_.emplace_back();
  return filters_.size() - 1;
}

MultiQueryEngine::QueryId MultiQueryEngine::AddQuery(
    const StreamQuery::Options& options, std::span<const FilterId> filters) {
  GEMS_CHECK(!ingest_started_);
  std::vector<FilterId> canonical(filters.begin(), filters.end());
  std::sort(canonical.begin(), canonical.end());
  canonical.erase(std::unique(canonical.begin(), canonical.end()),
                  canonical.end());
  for (FilterId f : canonical) GEMS_CHECK(f < filters_.size());

  const std::string key = CanonicalKey(options, canonical);
  auto [it, inserted] = group_index_.try_emplace(key, groups_.size());
  if (inserted) {
    for (FilterId f : canonical) filter_used_[f] = 1;
    groups_.emplace_back(options, seed_, std::move(canonical));
  }
  ExecGroup& group = groups_[it->second];
  const QueryId id = views_.size();
  group.members.push_back(id);
  views_.push_back(View{it->second, 0});
  return id;
}

void MultiQueryEngine::PrepareChunk(std::span<const StreamEvent> chunk) {
  // One gather + one hash loop for the whole chunk; every COUNT DISTINCT
  // query consumes the same words (all were built with seed_).
  batch_.ResetProjected(
      chunk, [](const StreamEvent& event) { return event.item; }, seed_);
  // One evaluation per (event, distinct predicate) — queries referencing
  // the same FilterId share the column.
  for (size_t f = 0; f < filters_.size(); ++f) {
    if (!filter_used_[f]) continue;
    std::vector<uint8_t>& col = filter_cols_[f];
    col.resize(chunk.size());
    const auto& predicate = filters_[f];
    for (size_t i = 0; i < chunk.size(); ++i) {
      col[i] = predicate(chunk[i]) ? 1 : 0;
    }
  }
  // Each group's accept column is the AND of its filter columns; byte
  // AND-loops, no per-event std::function dispatch.
  for (ExecGroup& group : groups_) {
    if (group.filters.empty()) {
      group.accept.clear();
      continue;
    }
    const std::vector<uint8_t>& first = filter_cols_[group.filters[0]];
    group.accept.assign(first.begin(), first.end());
    for (size_t k = 1; k < group.filters.size(); ++k) {
      const std::vector<uint8_t>& col = filter_cols_[group.filters[k]];
      for (size_t i = 0; i < group.accept.size(); ++i) {
        group.accept[i] &= col[i];
      }
    }
  }
}

Status MultiQueryEngine::ProcessBatch(std::span<const StreamEvent> events) {
  return IngestChunks(events, nullptr);
}

Status MultiQueryEngine::ProcessBatchParallel(
    std::span<const StreamEvent> events, ThreadPool& pool) {
  const bool fan_out = pool.num_threads() > 1 && groups_.size() > 1;
  return IngestChunks(events, fan_out ? &pool : nullptr);
}

Status MultiQueryEngine::IngestChunks(std::span<const StreamEvent> events,
                                      ThreadPool* pool) {
  ingest_started_ = true;
  constexpr size_t kChunk = 32768;
  std::vector<Status> statuses(groups_.size(), Status::Ok());
  std::vector<std::function<void()>> tasks;
  while (!events.empty()) {
    const std::span<const StreamEvent> chunk =
        events.first(std::min(events.size(), kChunk));
    // Shared columns are computed once on this thread; the per-query
    // dispatch only reads them. Each physical query owns its entire state,
    // so the pool fan-out takes no locks and leaves every query
    // byte-identical to the sequential dispatch order.
    PrepareChunk(chunk);
    const std::span<const uint64_t> hashes = batch_.hashes();
    auto dispatch = [&, chunk, hashes](size_t g) {
      statuses[g] = groups_[g].query.ProcessBatchPrehashed(
          chunk, hashes, groups_[g].accept);
    };
    if (pool == nullptr) {
      for (size_t g = 0; g < groups_.size(); ++g) dispatch(g);
    } else {
      tasks.clear();
      for (size_t g = 0; g < groups_.size(); ++g) {
        tasks.push_back([&dispatch, g] { dispatch(g); });
      }
      pool->RunAll(std::move(tasks));
    }
    // The whole chunk reached every physical query even on error, so no
    // query silently misses events another one ingested; report the first
    // failure by group index.
    for (const Status& status : statuses) {
      if (!status.ok()) return status;
    }
    events = events.subspan(chunk.size());
  }
  return Status::Ok();
}

void MultiQueryEngine::DrainGroup(ExecGroup& group) {
  for (WindowResult& window : group.query.Poll()) {
    group.cache.push_back(std::move(window));
  }
}

void MultiQueryEngine::TrimCache(ExecGroup& group) {
  uint64_t min_cursor = ~uint64_t{0};
  for (QueryId member : group.members) {
    min_cursor = std::min(min_cursor, views_[member].cursor);
  }
  while (group.cache_base < min_cursor && !group.cache.empty()) {
    group.cache.pop_front();
    ++group.cache_base;
  }
}

std::vector<WindowResult> MultiQueryEngine::Poll(QueryId id) {
  GEMS_CHECK(id < views_.size());
  View& view = views_[id];
  ExecGroup& group = groups_[view.group];
  DrainGroup(group);
  std::vector<WindowResult> out;
  const uint64_t end = group.cache_base + group.cache.size();
  out.reserve(end - view.cursor);
  for (uint64_t i = view.cursor; i < end; ++i) {
    out.push_back(group.cache[i - group.cache_base]);
  }
  view.cursor = end;
  TrimCache(group);
  return out;
}

void MultiQueryEngine::Flush() {
  for (ExecGroup& group : groups_) {
    for (WindowResult& window : group.query.Flush()) {
      group.cache.push_back(std::move(window));
    }
  }
}

std::vector<uint8_t> MultiQueryEngine::SerializeQueryState(QueryId id) const {
  GEMS_CHECK(id < views_.size());
  return groups_[views_[id].group].query.SerializeState();
}

std::vector<uint8_t> MultiQueryEngine::SerializeState() const {
  ByteWriter w;
  w.PutU32(kEngineMagic);
  w.PutU8(kEngineVersion);
  w.PutU64(seed_);
  // Registration shape, so a checkpoint cannot be restored into an engine
  // wired differently (predicates themselves are code, not state).
  w.PutVarint(filters_.size());
  w.PutVarint(groups_.size());
  for (const ExecGroup& group : groups_) {
    w.PutVarint(group.filters.size());
    for (FilterId f : group.filters) w.PutVarint(f);
    w.PutVarint(group.members.size());
    for (QueryId member : group.members) w.PutVarint(member);
    const std::vector<uint8_t> nested = group.query.SerializeState();
    w.PutBytes(nested.data(), nested.size());
    w.PutU64(group.cache_base);
    engine_detail::SerializeWindows(w, group.cache);
  }
  w.PutVarint(views_.size());
  for (const View& view : views_) {
    w.PutVarint(view.group);
    w.PutU64(view.cursor);
  }
  return engine_detail::SealCheckpoint(std::move(w).TakeBytes(),
                                       engine_detail::kEngineCheckpointSeed);
}

Status MultiQueryEngine::RestoreState(std::span<const uint8_t> bytes) {
  Result<std::span<const uint8_t>> body = engine_detail::OpenCheckpoint(
      bytes, engine_detail::kEngineCheckpointSeed, "multi-query checkpoint");
  if (!body.ok()) return body.status();
  ByteReader r(body.value());
  uint32_t magic;
  uint8_t version;
  uint64_t seed, num_filters, num_groups;
  if (Status s = r.GetU32(&magic); !s.ok()) return s;
  if (magic != kEngineMagic) {
    return Status::Corruption("multi-query checkpoint: bad magic");
  }
  if (Status s = r.GetU8(&version); !s.ok()) return s;
  if (version != kEngineVersion) {
    return Status::Corruption("multi-query checkpoint: unsupported version");
  }
  if (Status s = r.GetU64(&seed); !s.ok()) return s;
  if (Status s = r.GetVarint(&num_filters); !s.ok()) return s;
  if (Status s = r.GetVarint(&num_groups); !s.ok()) return s;
  if (seed != seed_ || num_filters != filters_.size() ||
      num_groups != groups_.size()) {
    return Status::InvalidArgument(
        "multi-query checkpoint was taken with a different registration");
  }

  // Parse and validate everything into scratch state first; the engine is
  // only mutated once the whole image checks out.
  struct RestoredGroup {
    std::vector<uint8_t> nested;
    uint64_t cache_base = 0;
    std::deque<WindowResult> cache;
  };
  std::vector<RestoredGroup> restored_groups(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    const ExecGroup& group = groups_[g];
    uint64_t group_filters, group_members;
    if (Status s = r.GetVarint(&group_filters); !s.ok()) return s;
    if (group_filters != group.filters.size()) {
      return Status::InvalidArgument(
          "multi-query checkpoint: filter set mismatch");
    }
    for (size_t k = 0; k < group.filters.size(); ++k) {
      uint64_t f;
      if (Status s = r.GetVarint(&f); !s.ok()) return s;
      if (f != group.filters[k]) {
        return Status::InvalidArgument(
            "multi-query checkpoint: filter set mismatch");
      }
    }
    if (Status s = r.GetVarint(&group_members); !s.ok()) return s;
    if (group_members != group.members.size()) {
      return Status::InvalidArgument(
          "multi-query checkpoint: query membership mismatch");
    }
    for (size_t k = 0; k < group.members.size(); ++k) {
      uint64_t member;
      if (Status s = r.GetVarint(&member); !s.ok()) return s;
      if (member != group.members[k]) {
        return Status::InvalidArgument(
            "multi-query checkpoint: query membership mismatch");
      }
    }
    std::span<const uint8_t> nested;
    if (Status s = r.GetBytesView(&nested); !s.ok()) return s;
    restored_groups[g].nested.assign(nested.begin(), nested.end());
    if (Status s = r.GetU64(&restored_groups[g].cache_base); !s.ok()) return s;
    if (Status s =
            engine_detail::DeserializeWindows(r, &restored_groups[g].cache);
        !s.ok()) {
      return s;
    }
  }
  uint64_t num_views;
  if (Status s = r.GetVarint(&num_views); !s.ok()) return s;
  if (num_views != views_.size()) {
    return Status::InvalidArgument(
        "multi-query checkpoint: query count mismatch");
  }
  std::vector<View> restored_views(views_.size());
  for (size_t q = 0; q < views_.size(); ++q) {
    uint64_t group;
    if (Status s = r.GetVarint(&group); !s.ok()) return s;
    if (group != views_[q].group) {
      return Status::InvalidArgument(
          "multi-query checkpoint: query-to-group mapping mismatch");
    }
    restored_views[q].group = views_[q].group;
    if (Status s = r.GetU64(&restored_views[q].cursor); !s.ok()) return s;
    // A cursor outside its group's cache would make Poll read before the
    // cache or size its result from a negative span.
    const RestoredGroup& restored = restored_groups[group];
    if (restored_views[q].cursor < restored.cache_base ||
        restored_views[q].cursor - restored.cache_base >
            restored.cache.size()) {
      return Status::Corruption(
          "multi-query checkpoint: view cursor outside its result cache");
    }
  }
  if (!r.AtEnd()) {
    return Status::Corruption("multi-query checkpoint: trailing bytes");
  }

  // Restore the nested query states into fresh queries (so a bad nested
  // image leaves this engine untouched), then commit everything.
  std::vector<StreamQuery> restored_queries;
  restored_queries.reserve(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    StreamQuery query(groups_[g].query.options(), seed_);
    if (Status s = query.RestoreState(restored_groups[g].nested); !s.ok()) {
      return s;
    }
    restored_queries.push_back(std::move(query));
  }
  for (size_t g = 0; g < groups_.size(); ++g) {
    groups_[g].query = std::move(restored_queries[g]);
    groups_[g].cache_base = restored_groups[g].cache_base;
    groups_[g].cache = std::move(restored_groups[g].cache);
  }
  views_ = std::move(restored_views);
  ingest_started_ = true;
  return Status::Ok();
}

}  // namespace gems
