#ifndef GEMS_ENGINE_STREAM_QUERY_H_
#define GEMS_ENGINE_STREAM_QUERY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cardinality/hyperloglog.h"
#include "common/bytes.h"
#include "common/flat_map.h"
#include "common/status.h"
#include "frequency/space_saving.h"
#include "quantiles/kll.h"
#include "time/pane_ring.h"
#include "time/sliding_hll.h"

/// \file
/// A miniature stream-query engine in the mold of the network-era systems
/// the paper surveys (AT&T's Gigascope, Sprint's CMON): continuous
/// GROUP BY aggregate queries over event streams, where each group's
/// aggregate is a sketch rather than exact state — the "maintain huge
/// numbers of sketches in parallel" workload the paper emphasizes.
/// Supports filters, tumbling windows, sliding windows (COUNT DISTINCT,
/// TOP-K, and QUANTILES over per-group pane rings), and three sketch
/// aggregates (COUNT DISTINCT via HLL, TOP-K via SpaceSaving, QUANTILES
/// via KLL). Many standing queries over one stream share a single ingest
/// pass through MultiQueryEngine (engine/multi_query.h).

namespace gems {

/// One input event: a timestamped (group, item, value) record. For the IP
/// monitoring scenario: group = destination, item = source, value = bytes.
struct StreamEvent {
  uint64_t timestamp = 0;
  uint64_t group = 0;
  uint64_t item = 0;
  int64_t value = 1;
};

/// Aggregate computed per group.
enum class AggregateKind {
  kCountDistinct,  // # distinct items per group (HLL).
  kTopK,           // Heaviest items per group by value (SpaceSaving).
  kQuantiles,      // Quantiles of value per group (KLL).
  kSum,            // Exact sum of value per group (baseline aggregate).
};

/// Result for one group in one closed window.
struct GroupAggregate {
  uint64_t group = 0;
  /// kCountDistinct / kSum: the estimate or exact sum.
  double scalar = 0.0;
  /// kTopK: (item, estimated count), heaviest first.
  std::vector<std::pair<uint64_t, int64_t>> top_items;
  /// kQuantiles: values at the query's configured quantile points.
  std::vector<double> quantiles;
};

/// One closed tumbling window.
struct WindowResult {
  uint64_t window_start = 0;
  uint64_t window_end = 0;  // Exclusive.
  std::vector<GroupAggregate> groups;  // Sorted by group id.
};

/// A continuous GROUP BY sketch-aggregate query.
class StreamQuery {
 public:
  struct Options {
    AggregateKind aggregate = AggregateKind::kCountDistinct;
    /// Tumbling window size in timestamp units; 0 = one unbounded window
    /// (results only via Flush()).
    uint64_t window_size = 0;
    /// Sliding mode: when nonzero, a result covering the trailing
    /// window_size units is emitted every `slide` units instead of the
    /// window tumbling. Requires window_size > 0 with window_size a
    /// multiple of slide, and a sketch aggregate (kCountDistinct, kTopK,
    /// or kQuantiles — kSum has no mergeable summary to put in a pane) —
    /// each group's state becomes a pane ring with pane_width = slide,
    /// and groups persist across slide boundaries.
    uint64_t slide = 0;
    /// HLL precision for kCountDistinct.
    int hll_precision = 12;
    /// SpaceSaving capacity and reported k for kTopK.
    size_t top_k_capacity = 64;
    size_t top_k = 10;
    /// KLL parameter and query points for kQuantiles.
    uint32_t kll_k = 200;
    std::vector<double> quantile_points = {0.5, 0.95, 0.99};
  };

  StreamQuery(const Options& options, uint64_t seed);

  StreamQuery(const StreamQuery&) = delete;
  StreamQuery& operator=(const StreamQuery&) = delete;
  StreamQuery(StreamQuery&&) = default;
  StreamQuery& operator=(StreamQuery&&) = default;

  /// Optional pre-aggregation filter; events failing any filter are
  /// dropped. Returns *this for chaining.
  StreamQuery& AddFilter(std::function<bool(const StreamEvent&)> predicate);

  /// Processes one event. Timestamps must be non-decreasing; an event in a
  /// later window closes the current one.
  Status Process(const StreamEvent& event);

  /// Processes a batch of events with the hash-once ingest pipeline: for
  /// non-sliding COUNT DISTINCT queries each event's item is hashed exactly
  /// once per chunk (all groups' HLLs share the query seed, so the hash
  /// word feeds whichever group the event lands in), instead of once per
  /// sketch probe. Window, ordering, and filter semantics are identical to
  /// calling Process() per event, and the resulting state is
  /// byte-identical. Stops at the first error.
  Status ProcessBatch(std::span<const StreamEvent> events);

  /// The ingest core: Process and ProcessBatch funnel into it, and
  /// MultiQueryEngine calls it directly with a batch whose item column has
  /// already been hashed once under this query's seed, with filter
  /// decisions precomputed per event.
  ///
  ///  - `hashes`, when non-empty, parallels `events` with
  ///    hashes[i] == Hash64(events[i].item, seed); non-sliding COUNT
  ///    DISTINCT feeds the words straight into each group's HLL instead of
  ///    re-hashing. Ignored (and may be empty) for other aggregates.
  ///  - `accept`, when non-empty, parallels `events`; an event with
  ///    accept[i] == 0 is dropped exactly as if a filter rejected it
  ///    (after window advancement, like PassesFilters). Filters attached
  ///    with AddFilter() still apply on top.
  ///
  /// Window, ordering, and error semantics are identical to
  /// ProcessBatch(), and the resulting state is byte-identical
  /// (SerializeState) to processing the same accepted events there.
  Status ProcessBatchPrehashed(std::span<const StreamEvent> events,
                               std::span<const uint64_t> hashes,
                               std::span<const uint8_t> accept);

  /// Drains windows closed so far.
  std::vector<WindowResult> Poll();

  /// Closes the current window regardless of time and returns all results.
  std::vector<WindowResult> Flush();

  /// Number of sketches currently held (open window groups).
  size_t NumOpenGroups() const;

  /// Serializes the query's dynamic state — window bookkeeping, every open
  /// group's sketches (as standard wire envelopes via the sketch registry),
  /// and windows closed but not yet polled — so a long-running query can be
  /// checkpointed and resumed after a restart. Filters are code, not state,
  /// and are not serialized.
  std::vector<uint8_t> SerializeState() const;

  /// Restores state produced by SerializeState into this query. The query
  /// must have been constructed with the same Options and seed (mismatches
  /// are kInvalidArgument); malformed bytes are kCorruption and leave the
  /// query untouched. Existing dynamic state is replaced on success.
  Status RestoreState(std::span<const uint8_t> bytes);

  const Options& options() const { return options_; }

 private:
  struct GroupState {
    std::optional<HyperLogLog> distinct;
    std::optional<SlidingHyperLogLog> sliding;  // Sliding kCountDistinct.
    std::optional<PaneRing<SpaceSaving>> sliding_top;       // Sliding kTopK.
    std::optional<PaneRing<KllSketch>> sliding_quantiles;   // Sliding kQuantiles.
    std::optional<SpaceSaving> top;
    std::optional<KllSketch> quantiles;
    int64_t sum = 0;
  };

  GroupState& StateFor(uint64_t group);
  /// Validates ordering, initializes/advances the tumbling window, and
  /// updates last_timestamp_ for one event.
  Status AdvanceWindow(const StreamEvent& event);
  bool PassesFilters(const StreamEvent& event) const;
  /// Applies one accepted event to its group's aggregate state. `hash`,
  /// when non-null, is the event item's precomputed Hash64 under seed_
  /// (non-sliding COUNT DISTINCT consumes it; other aggregates ignore it).
  void ApplyEvent(const StreamEvent& event, const uint64_t* hash);
  void CloseWindow(uint64_t next_window_start);
  /// Sliding mode: emits the window ending at `boundary` (exclusive) over
  /// every group's pane ring, without clearing the group table.
  void EmitSlidingWindow(uint64_t boundary);
  /// One group's result row for the window ending at `boundary`
  /// (exclusive; sliding groups advance their pane ring to it).
  GroupAggregate Snapshot(uint64_t group, GroupState& state,
                          uint64_t boundary) const;
  /// The open groups as (group id, state) pairs sorted by group id — the
  /// flat table iterates in hash order, so ordered emission (window
  /// snapshots, checkpoints) sorts here.
  std::vector<std::pair<uint64_t, GroupState*>> SortedGroups() const;

  Options options_;
  uint64_t seed_;
  std::vector<std::function<bool(const StreamEvent&)>> filters_;
  uint64_t current_window_start_ = 0;
  bool window_initialized_ = false;
  uint64_t last_timestamp_ = 0;
  FlatMap64<GroupState> groups_;
  std::deque<WindowResult> closed_;
};

namespace engine_detail {

/// Serialization of materialized window results, shared between the
/// StreamQuery checkpoint and the MultiQueryEngine's per-view result
/// caches (multi_query.cc).
void SerializeWindows(ByteWriter& w, const std::deque<WindowResult>& windows);
Status DeserializeWindows(ByteReader& r, std::deque<WindowResult>* out);

/// The sketch knobs that actually shape a query's state and results,
/// with every knob the aggregate does not read zeroed out: a SUM query's
/// kll_k setting, a COUNT DISTINCT query's top_k_capacity, and so on are
/// canonicalized away. Checkpoint fingerprints and the
/// MultiQueryEngine's state-dedup key are built from this, so two queries
/// that differ only in unused knobs are byte-identical — and shareable.
struct OptionKnobs {
  uint8_t hll_precision = 0;
  uint64_t top_k_capacity = 0;
  uint64_t top_k = 0;
  uint32_t kll_k = 0;
};

OptionKnobs RelevantKnobs(const StreamQuery::Options& options);

/// Checkpoint framing shared by StreamQuery and MultiQueryEngine images:
/// the body, then its XXH64 (little-endian) under a per-format seed, so
/// damage to engine-level fields (sums, window bounds, cursors) is caught
/// as reliably as damage inside a sketch envelope.
inline constexpr uint64_t kQueryCheckpointSeed = 0x474D5351;   // "QSMG".
inline constexpr uint64_t kEngineCheckpointSeed = 0x4D4D5347;  // "GSMM".

/// Appends the checksum trailer to `body` and returns the sealed image.
std::vector<uint8_t> SealCheckpoint(std::vector<uint8_t> body, uint64_t seed);

/// Checks a sealed image's length and checksum and returns the body in
/// front of the trailer; failures are kCorruption prefixed with `what`.
Result<std::span<const uint8_t>> OpenCheckpoint(std::span<const uint8_t> image,
                                                uint64_t seed,
                                                const std::string& what);

}  // namespace engine_detail

}  // namespace gems

#endif  // GEMS_ENGINE_STREAM_QUERY_H_
