#include "engine/stream_query.h"

#include <algorithm>
#include <utility>

#include "common/bytes.h"
#include "common/check.h"
#include "core/registry.h"
#include "hash/hash.h"
#include "hash/hashed_batch.h"
#include "hash/xxhash.h"

namespace gems {

namespace {

/// Magic + version for the checkpoint container. The sketches inside are
/// standard wire envelopes; this header frames the engine-level state
/// around them, and engine_detail::SealCheckpoint closes it with a
/// checksum. Only version 3 is written or read.
constexpr uint32_t kCheckpointMagic = 0x514D4547;  // "GEMQ" little-endian.
constexpr uint8_t kCheckpointVersion = 3;

/// Presence bits for the per-group sketch. Each group holds exactly the one
/// sketch its query's aggregate owns (OwnedPresence), so a checkpoint's
/// presence byte is redundant with the fingerprint and checked against it.
constexpr uint8_t kHasDistinct = 1;
constexpr uint8_t kHasTop = 2;
constexpr uint8_t kHasQuantiles = 4;
constexpr uint8_t kHasSliding = 8;
constexpr uint8_t kHasSlidingTop = 16;
constexpr uint8_t kHasSlidingQuantiles = 32;

/// The presence bit of the one sketch every group of a query with these
/// options holds (StateFor); SUM groups hold none.
uint8_t OwnedPresence(const StreamQuery::Options& options) {
  const bool sliding = options.slide > 0;
  switch (options.aggregate) {
    case AggregateKind::kCountDistinct:
      return sliding ? kHasSliding : kHasDistinct;
    case AggregateKind::kTopK:
      return sliding ? kHasSlidingTop : kHasTop;
    case AggregateKind::kQuantiles:
      return sliding ? kHasSlidingQuantiles : kHasQuantiles;
    case AggregateKind::kSum:
      break;
  }
  return 0;
}

void PutEnvelope(ByteWriter& w, const std::vector<uint8_t>& bytes) {
  w.PutBytes(bytes.data(), bytes.size());
}

/// Restores one sketch envelope through the registry, downcasting to the
/// concrete type the engine expects for this aggregate. The envelope is
/// parsed in place (a borrowed view of the checkpoint body), so restore
/// never copies sketch bytes into an intermediate buffer.
template <typename S>
Status RestoreSketch(ByteReader* reader, std::optional<S>* out) {
  std::span<const uint8_t> envelope;
  if (Status s = reader->GetBytesView(&envelope); !s.ok()) return s;
  Result<AnySketch> any = SketchRegistry::Global().Deserialize(envelope);
  if (!any.ok()) return any.status();
  const S* sketch = any.value().template As<S>();
  if (sketch == nullptr) {
    return Status::Corruption(
        std::string("checkpoint: unexpected sketch type ") +
        any.value().type_name());
  }
  out->emplace(*sketch);
  return Status::Ok();
}

/// Serializes a pane ring as engine-level state: the ring clock, then each
/// live pane as (pane id, standard wire envelope) — so a registry-aware
/// reader can still inspect every sketch inside a checkpoint. Sliding
/// COUNT DISTINCT state is instead one SlidingHyperLogLog envelope.
template <typename S>
void SerializeRing(ByteWriter& w, const PaneRing<S>& ring) {
  w.PutU64(ring.last_timestamp());
  w.PutVarint(ring.NumLivePanes());
  ring.ForEachPane([&w](uint64_t id, const S& summary) {
    w.PutU64(id);
    PutEnvelope(w, summary.Serialize());
  });
}

/// Restores a pane ring serialized by SerializeRing into a ring built from
/// `prototype` with the query's pane geometry.
template <typename S>
Status RestoreRing(ByteReader* reader, const S& prototype, uint64_t pane_width,
                   size_t num_panes, std::optional<PaneRing<S>>* out) {
  uint64_t last_timestamp, count;
  if (Status s = reader->GetU64(&last_timestamp); !s.ok()) return s;
  if (Status s = reader->GetVarint(&count); !s.ok()) return s;
  PaneRing<S> ring(prototype, pane_width, num_panes);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id;
    std::span<const uint8_t> envelope;
    if (Status s = reader->GetU64(&id); !s.ok()) return s;
    if (Status s = reader->GetBytesView(&envelope); !s.ok()) return s;
    Result<S> pane = S::Deserialize(envelope);
    if (!pane.ok()) return pane.status();
    if (Status s = ring.AppendPane(id, std::move(pane).value()); !s.ok()) {
      return s;
    }
  }
  // Restore the ring clock; AppendPane left it at zero.
  if (ring.started()) ring.Advance(last_timestamp);
  out->emplace(std::move(ring));
  return Status::Ok();
}

}  // namespace

namespace engine_detail {

OptionKnobs RelevantKnobs(const StreamQuery::Options& options) {
  OptionKnobs knobs;
  switch (options.aggregate) {
    case AggregateKind::kCountDistinct:
      knobs.hll_precision = static_cast<uint8_t>(options.hll_precision);
      break;
    case AggregateKind::kTopK:
      knobs.top_k_capacity = options.top_k_capacity;
      knobs.top_k = options.top_k;
      break;
    case AggregateKind::kQuantiles:
      knobs.kll_k = options.kll_k;
      break;
    case AggregateKind::kSum:
      break;
  }
  return knobs;
}

void SerializeWindows(ByteWriter& w, const std::deque<WindowResult>& windows) {
  w.PutVarint(windows.size());
  for (const WindowResult& window : windows) {
    w.PutU64(window.window_start);
    w.PutU64(window.window_end);
    w.PutVarint(window.groups.size());
    for (const GroupAggregate& aggregate : window.groups) {
      w.PutU64(aggregate.group);
      w.PutDouble(aggregate.scalar);
      w.PutVarint(aggregate.top_items.size());
      for (const auto& [item, count] : aggregate.top_items) {
        w.PutU64(item);
        w.PutI64(count);
      }
      w.PutVarint(aggregate.quantiles.size());
      for (double q : aggregate.quantiles) w.PutDouble(q);
    }
  }
}

Status DeserializeWindows(ByteReader& r, std::deque<WindowResult>* out) {
  uint64_t num_windows;
  if (Status s = r.GetVarint(&num_windows); !s.ok()) return s;
  std::deque<WindowResult> windows;
  for (uint64_t i = 0; i < num_windows; ++i) {
    WindowResult window;
    uint64_t num_window_groups;
    if (Status s = r.GetU64(&window.window_start); !s.ok()) return s;
    if (Status s = r.GetU64(&window.window_end); !s.ok()) return s;
    if (Status s = r.GetVarint(&num_window_groups); !s.ok()) return s;
    for (uint64_t g = 0; g < num_window_groups; ++g) {
      GroupAggregate aggregate_row;
      uint64_t num_top, num_quantiles;
      if (Status s = r.GetU64(&aggregate_row.group); !s.ok()) return s;
      if (Status s = r.GetDouble(&aggregate_row.scalar); !s.ok()) return s;
      if (Status s = r.GetVarint(&num_top); !s.ok()) return s;
      for (uint64_t t = 0; t < num_top; ++t) {
        uint64_t item;
        int64_t count;
        if (Status s = r.GetU64(&item); !s.ok()) return s;
        if (Status s = r.GetI64(&count); !s.ok()) return s;
        aggregate_row.top_items.emplace_back(item, count);
      }
      if (Status s = r.GetVarint(&num_quantiles); !s.ok()) return s;
      for (uint64_t q = 0; q < num_quantiles; ++q) {
        double value;
        if (Status s = r.GetDouble(&value); !s.ok()) return s;
        aggregate_row.quantiles.push_back(value);
      }
      window.groups.push_back(std::move(aggregate_row));
    }
    windows.push_back(std::move(window));
  }
  *out = std::move(windows);
  return Status::Ok();
}

std::vector<uint8_t> SealCheckpoint(std::vector<uint8_t> body, uint64_t seed) {
  const uint64_t checksum = XxHash64(body.data(), body.size(), seed);
  for (int shift = 0; shift < 64; shift += 8) {
    body.push_back(static_cast<uint8_t>(checksum >> shift));
  }
  return body;
}

Result<std::span<const uint8_t>> OpenCheckpoint(std::span<const uint8_t> image,
                                                uint64_t seed,
                                                const std::string& what) {
  if (image.size() < 8) return Status::Corruption(what + ": too short");
  const std::span<const uint8_t> body = image.first(image.size() - 8);
  uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<uint64_t>(image[body.size() + i]) << (8 * i);
  }
  if (XxHash64(body.data(), body.size(), seed) != stored) {
    return Status::Corruption(what + ": checksum mismatch");
  }
  return body;
}

}  // namespace engine_detail

StreamQuery::StreamQuery(const Options& options, uint64_t seed)
    : options_(options), seed_(seed) {
  GEMS_CHECK(options.hll_precision >= 4 && options.hll_precision <= 18);
  GEMS_CHECK(options.top_k_capacity >= options.top_k);
}

StreamQuery& StreamQuery::AddFilter(
    std::function<bool(const StreamEvent&)> predicate) {
  filters_.push_back(std::move(predicate));
  return *this;
}

StreamQuery::GroupState& StreamQuery::StateFor(uint64_t group) {
  GroupState& state = groups_[group];
  const size_t num_panes =
      options_.slide > 0 ? options_.window_size / options_.slide : 0;
  switch (options_.aggregate) {
    case AggregateKind::kCountDistinct:
      if (options_.slide > 0) {
        if (!state.sliding.has_value()) {
          state.sliding.emplace(options_.hll_precision, options_.slide,
                                num_panes, seed_);
        }
      } else if (!state.distinct.has_value()) {
        state.distinct.emplace(options_.hll_precision, seed_);
      }
      break;
    case AggregateKind::kTopK:
      if (options_.slide > 0) {
        if (!state.sliding_top.has_value()) {
          state.sliding_top.emplace(SpaceSaving(options_.top_k_capacity),
                                    options_.slide, num_panes);
        }
      } else if (!state.top.has_value()) {
        state.top.emplace(options_.top_k_capacity);
      }
      break;
    case AggregateKind::kQuantiles:
      if (options_.slide > 0) {
        if (!state.sliding_quantiles.has_value()) {
          state.sliding_quantiles.emplace(
              KllSketch(options_.kll_k, Hash64(group, seed_)), options_.slide,
              num_panes);
        }
      } else if (!state.quantiles.has_value()) {
        state.quantiles.emplace(options_.kll_k, Hash64(group, seed_));
      }
      break;
    case AggregateKind::kSum:
      break;
  }
  return state;
}

Status StreamQuery::AdvanceWindow(const StreamEvent& event) {
  if (window_initialized_ && event.timestamp < last_timestamp_) {
    return Status::FailedPrecondition("timestamps must be non-decreasing");
  }
  if (options_.slide > 0) {
    // Sliding mode: current_window_start_ tracks the newest slide
    // boundary; a crossing emits the trailing window, and groups persist.
    if (options_.window_size == 0 ||
        options_.window_size % options_.slide != 0) {
      return Status::InvalidArgument(
          "sliding queries need window_size to be a nonzero multiple of "
          "slide");
    }
    if (options_.aggregate == AggregateKind::kSum) {
      return Status::Unimplemented(
          "sliding windows need a sketch aggregate (COUNT DISTINCT, TOP-K, "
          "or QUANTILES)");
    }
    const uint64_t boundary =
        event.timestamp / options_.slide * options_.slide;
    if (!window_initialized_) {
      window_initialized_ = true;
      current_window_start_ = boundary;
    } else if (boundary > current_window_start_) {
      EmitSlidingWindow(boundary);
    }
    last_timestamp_ = event.timestamp;
    return Status::Ok();
  }
  if (!window_initialized_) {
    window_initialized_ = true;
    current_window_start_ =
        options_.window_size == 0
            ? event.timestamp
            : event.timestamp / options_.window_size * options_.window_size;
  }
  last_timestamp_ = event.timestamp;

  if (options_.window_size > 0) {
    const uint64_t window_start =
        event.timestamp / options_.window_size * options_.window_size;
    if (window_start > current_window_start_) CloseWindow(window_start);
  }
  return Status::Ok();
}

bool StreamQuery::PassesFilters(const StreamEvent& event) const {
  for (const auto& predicate : filters_) {
    if (!predicate(event)) return false;
  }
  return true;
}

void StreamQuery::ApplyEvent(const StreamEvent& event, const uint64_t* hash) {
  GroupState& state = StateFor(event.group);
  switch (options_.aggregate) {
    case AggregateKind::kCountDistinct:
      if (options_.slide > 0) {
        state.sliding->UpdateAt(event.timestamp, event.item);
      } else if (hash != nullptr) {
        state.distinct->UpdateHash(*hash);
      } else {
        state.distinct->Update(event.item);
      }
      break;
    case AggregateKind::kTopK:
      if (options_.slide > 0) {
        state.sliding_top->Update(event.timestamp, event.item,
                                  std::max<int64_t>(1, event.value));
      } else {
        state.top->Update(event.item, std::max<int64_t>(1, event.value));
      }
      break;
    case AggregateKind::kQuantiles:
      if (options_.slide > 0) {
        state.sliding_quantiles->Update(event.timestamp,
                                        static_cast<double>(event.value));
      } else {
        state.quantiles->Update(static_cast<double>(event.value));
      }
      break;
    case AggregateKind::kSum:
      state.sum += event.value;
      break;
  }
}

Status StreamQuery::Process(const StreamEvent& event) {
  return ProcessBatchPrehashed({&event, 1}, {}, {});
}

Status StreamQuery::ProcessBatch(std::span<const StreamEvent> events) {
  // Only non-sliding COUNT DISTINCT consumes hash words (sliding mode
  // routes each item through its group's pane ring, which hashes itself).
  if (options_.aggregate != AggregateKind::kCountDistinct ||
      options_.slide > 0) {
    return ProcessBatchPrehashed(events, {}, {});
  }
  // Hash-once pipeline: every group's HLL is built with the query seed, so
  // one Hash64 per event serves whichever group the event lands in. The
  // chunk's hash words are computed in a tight hoisted loop up front; the
  // ingest core then only routes (window, filters, group lookup) and
  // applies the precomputed hash.
  uint64_t items[256];
  uint64_t hashes[256];
  while (!events.empty()) {
    const size_t n = std::min(events.size(), std::size(items));
    for (size_t i = 0; i < n; ++i) items[i] = events[i].item;
    HashBatch(std::span<const uint64_t>(items, n), seed_, hashes);
    if (Status s = ProcessBatchPrehashed(
            events.first(n), std::span<const uint64_t>(hashes, n), {});
        !s.ok()) {
      return s;
    }
    events = events.subspan(n);
  }
  return Status::Ok();
}

Status StreamQuery::ProcessBatchPrehashed(std::span<const StreamEvent> events,
                                          std::span<const uint64_t> hashes,
                                          std::span<const uint8_t> accept) {
  GEMS_CHECK(hashes.empty() || hashes.size() == events.size());
  GEMS_CHECK(accept.empty() || accept.size() == events.size());
  const bool use_hashes = !hashes.empty() &&
                          options_.aggregate == AggregateKind::kCountDistinct &&
                          options_.slide == 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const StreamEvent& event = events[i];
    if (Status s = AdvanceWindow(event); !s.ok()) return s;
    if (!accept.empty() && accept[i] == 0) continue;
    if (!PassesFilters(event)) continue;
    ApplyEvent(event, use_hashes ? &hashes[i] : nullptr);
  }
  return Status::Ok();
}

GroupAggregate StreamQuery::Snapshot(uint64_t group, GroupState& state,
                                     uint64_t boundary) const {
  GroupAggregate aggregate;
  aggregate.group = group;
  // Sliding groups first advance their pane ring to the last instant before
  // the boundary: that expires panes older than the window without opening
  // the boundary's own pane, and the memoized WindowSummary() re-merges
  // only if the group mutated since the last emission.
  const bool sliding = options_.slide > 0;
  switch (options_.aggregate) {
    case AggregateKind::kCountDistinct:
      if (sliding) {
        state.sliding->Advance(boundary - 1);
        aggregate.scalar = state.sliding->WindowSummary().Estimate();
      } else {
        aggregate.scalar = state.distinct->Estimate();
      }
      break;
    case AggregateKind::kTopK: {
      if (sliding) state.sliding_top->Advance(boundary - 1);
      const SpaceSaving& top =
          sliding ? state.sliding_top->WindowSummary() : *state.top;
      for (const SpaceSaving::Entry& entry : top.TopK(options_.top_k)) {
        aggregate.top_items.emplace_back(entry.item, entry.count);
      }
      break;
    }
    case AggregateKind::kQuantiles: {
      if (sliding) state.sliding_quantiles->Advance(boundary - 1);
      const KllSketch& kll =
          sliding ? state.sliding_quantiles->WindowSummary() : *state.quantiles;
      if (kll.Count() == 0) {
        aggregate.quantiles.assign(options_.quantile_points.size(), 0.0);
      } else {
        aggregate.quantiles = kll.Quantiles(options_.quantile_points);
      }
      break;
    }
    case AggregateKind::kSum:
      aggregate.scalar = static_cast<double>(state.sum);
      break;
  }
  return aggregate;
}

std::vector<std::pair<uint64_t, StreamQuery::GroupState*>>
StreamQuery::SortedGroups() const {
  std::vector<std::pair<uint64_t, GroupState*>> out;
  out.reserve(groups_.size());
  // The flat table iterates in hash order; every ordered consumer (window
  // snapshots, checkpoints) funnels through this sort, which is what keeps
  // results and SerializeState independent of group insertion order.
  const_cast<FlatMap64<GroupState>&>(groups_).ForEach(
      [&out](uint64_t group, GroupState& state) {
        out.emplace_back(group, &state);
      });
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void StreamQuery::CloseWindow(uint64_t next_window_start) {
  WindowResult result;
  result.window_start = current_window_start_;
  result.window_end = options_.window_size == 0
                          ? last_timestamp_ + 1
                          : current_window_start_ + options_.window_size;
  for (const auto& [group, state] : SortedGroups()) {
    result.groups.push_back(Snapshot(group, *state, result.window_end));
  }
  closed_.push_back(std::move(result));
  groups_.Clear();
  current_window_start_ = next_window_start;
}

void StreamQuery::EmitSlidingWindow(uint64_t boundary) {
  WindowResult result;
  result.window_start = boundary >= options_.window_size
                            ? boundary - options_.window_size
                            : 0;
  result.window_end = boundary;
  for (const auto& [group, state] : SortedGroups()) {
    result.groups.push_back(Snapshot(group, *state, boundary));
  }
  closed_.push_back(std::move(result));
  current_window_start_ = boundary;
}

std::vector<WindowResult> StreamQuery::Poll() {
  std::vector<WindowResult> out(closed_.begin(), closed_.end());
  closed_.clear();
  return out;
}

std::vector<WindowResult> StreamQuery::Flush() {
  if (window_initialized_ && !groups_.empty()) {
    if (options_.slide > 0) {
      // Emit the window ending at the next slide boundary (it covers
      // every event seen); the group table persists, since a sliding
      // query's window conceptually keeps moving.
      EmitSlidingWindow((last_timestamp_ / options_.slide + 1) *
                        options_.slide);
    } else {
      CloseWindow(current_window_start_ + std::max<uint64_t>(
                                              options_.window_size, 1));
    }
  }
  return Poll();
}

size_t StreamQuery::NumOpenGroups() const { return groups_.size(); }

std::vector<uint8_t> StreamQuery::SerializeState() const {
  ByteWriter w;
  w.PutU32(kCheckpointMagic);
  w.PutU8(kCheckpointVersion);
  // Option fingerprint, so a checkpoint cannot be restored into a query
  // with an incompatible shape. Knobs the aggregate does not read are
  // written as zero (engine_detail::RelevantKnobs), so queries that
  // differ only in unused knobs produce byte-identical checkpoints.
  const engine_detail::OptionKnobs knobs = engine_detail::RelevantKnobs(options_);
  w.PutU8(static_cast<uint8_t>(options_.aggregate));
  w.PutU64(options_.window_size);
  w.PutU64(options_.slide);
  w.PutU8(knobs.hll_precision);
  w.PutVarint(knobs.top_k_capacity);
  w.PutVarint(knobs.top_k);
  w.PutU32(knobs.kll_k);
  w.PutU64(seed_);
  // Window bookkeeping.
  w.PutU8(window_initialized_ ? 1 : 0);
  w.PutU64(current_window_start_);
  w.PutU64(last_timestamp_);
  // Open groups, sorted by group id (the flat table's own order is
  // insertion-dependent); each sketch is a standard wire envelope, so any
  // registry-aware reader can inspect a checkpoint's sketches.
  const uint8_t present = OwnedPresence(options_);
  w.PutVarint(groups_.size());
  for (const auto& [group, state] : SortedGroups()) {
    w.PutU64(group);
    w.PutI64(state->sum);
    w.PutU8(present);
    switch (present) {
      case kHasDistinct:
        PutEnvelope(w, state->distinct->Serialize());
        break;
      case kHasSliding:
        PutEnvelope(w, state->sliding->Serialize());
        break;
      case kHasSlidingTop:
        SerializeRing(w, *state->sliding_top);
        break;
      case kHasSlidingQuantiles:
        SerializeRing(w, *state->sliding_quantiles);
        break;
      case kHasTop:
        PutEnvelope(w, state->top->Serialize());
        break;
      case kHasQuantiles:
        PutEnvelope(w, state->quantiles->Serialize());
        break;
    }
  }
  // Closed-but-unpolled windows (already materialized results).
  engine_detail::SerializeWindows(w, closed_);
  return engine_detail::SealCheckpoint(std::move(w).TakeBytes(),
                                       engine_detail::kQueryCheckpointSeed);
}

Status StreamQuery::RestoreState(std::span<const uint8_t> bytes) {
  RegisterBuiltinSketches();
  Result<std::span<const uint8_t>> body = engine_detail::OpenCheckpoint(
      bytes, engine_detail::kQueryCheckpointSeed, "stream query checkpoint");
  if (!body.ok()) return body.status();
  ByteReader r(body.value());
  uint32_t magic;
  uint8_t version;
  if (Status s = r.GetU32(&magic); !s.ok()) return s;
  if (magic != kCheckpointMagic) {
    return Status::Corruption("stream query checkpoint: bad magic");
  }
  if (Status s = r.GetU8(&version); !s.ok()) return s;
  if (version != kCheckpointVersion) {
    return Status::Corruption(
        "stream query checkpoint: unsupported version");
  }
  uint8_t aggregate, hll_precision;
  uint64_t window_size, slide, top_capacity, top_k, seed;
  uint32_t kll_k;
  if (Status s = r.GetU8(&aggregate); !s.ok()) return s;
  if (Status s = r.GetU64(&window_size); !s.ok()) return s;
  if (Status s = r.GetU64(&slide); !s.ok()) return s;
  if (Status s = r.GetU8(&hll_precision); !s.ok()) return s;
  if (Status s = r.GetVarint(&top_capacity); !s.ok()) return s;
  if (Status s = r.GetVarint(&top_k); !s.ok()) return s;
  if (Status s = r.GetU32(&kll_k); !s.ok()) return s;
  if (Status s = r.GetU64(&seed); !s.ok()) return s;
  const engine_detail::OptionKnobs expected =
      engine_detail::RelevantKnobs(options_);
  if (aggregate != static_cast<uint8_t>(options_.aggregate) ||
      window_size != options_.window_size || slide != options_.slide ||
      hll_precision != expected.hll_precision ||
      top_capacity != expected.top_k_capacity || top_k != expected.top_k ||
      kll_k != expected.kll_k || seed != seed_) {
    return Status::InvalidArgument(
        "stream query checkpoint was taken with different options or seed");
  }

  uint8_t initialized;
  uint64_t window_start, last_timestamp, num_groups;
  if (Status s = r.GetU8(&initialized); !s.ok()) return s;
  if (initialized > 1) {
    return Status::Corruption("stream query checkpoint: bad bool");
  }
  if (Status s = r.GetU64(&window_start); !s.ok()) return s;
  if (Status s = r.GetU64(&last_timestamp); !s.ok()) return s;
  if (Status s = r.GetVarint(&num_groups); !s.ok()) return s;

  const uint8_t owned = OwnedPresence(options_);
  const size_t ring_panes =
      options_.slide > 0 ? options_.window_size / options_.slide : 0;
  FlatMap64<GroupState> groups;
  for (uint64_t i = 0; i < num_groups; ++i) {
    uint64_t group;
    uint8_t present;
    GroupState state;
    if (Status s = r.GetU64(&group); !s.ok()) return s;
    if (Status s = r.GetI64(&state.sum); !s.ok()) return s;
    if (Status s = r.GetU8(&present); !s.ok()) return s;
    // Every group of a live query holds exactly the sketch its aggregate
    // owns; any other mask is a forged or damaged image that would leave
    // Snapshot reading an empty sketch slot.
    if (present != owned) {
      return Status::Corruption(
          "stream query checkpoint: group sketch does not match the "
          "query's aggregate");
    }
    Status s = Status::Ok();
    switch (present) {
      case kHasDistinct:
        s = RestoreSketch(&r, &state.distinct);
        break;
      case kHasSliding:
        s = RestoreSketch(&r, &state.sliding);
        break;
      case kHasSlidingTop:
        s = RestoreRing(&r, SpaceSaving(options_.top_k_capacity),
                        options_.slide, ring_panes, &state.sliding_top);
        break;
      case kHasSlidingQuantiles:
        s = RestoreRing(&r, KllSketch(options_.kll_k, Hash64(group, seed_)),
                        options_.slide, ring_panes, &state.sliding_quantiles);
        break;
      case kHasTop:
        s = RestoreSketch(&r, &state.top);
        break;
      case kHasQuantiles:
        s = RestoreSketch(&r, &state.quantiles);
        break;
    }
    if (!s.ok()) return s;
    groups[group] = std::move(state);
  }

  std::deque<WindowResult> closed;
  if (Status s = engine_detail::DeserializeWindows(r, &closed); !s.ok()) {
    return s;
  }
  if (!r.AtEnd()) {
    return Status::Corruption("stream query checkpoint: trailing bytes");
  }

  window_initialized_ = initialized == 1;
  current_window_start_ = window_start;
  last_timestamp_ = last_timestamp;
  groups_ = std::move(groups);
  closed_ = std::move(closed);
  return Status::Ok();
}

}  // namespace gems
