#ifndef GEMS_CORE_SUMMARY_H_
#define GEMS_CORE_SUMMARY_H_

#include <concepts>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "core/estimate.h"
#include "core/io.h"
#include "core/view.h"

/// \file
/// Compile-time contracts for summaries, following the "Mergeable
/// Summaries" framing (Agarwal et al., PODS 2012) the paper highlights:
/// a summary supports single-item streaming updates (the streaming model)
/// and pairwise merge (the distributed model), and merging must not degrade
/// the error guarantee relative to streaming the concatenated input.
///
/// These concepts are used by the distributed aggregation substrate and the
/// property tests, which are written once against the concept and
/// instantiated for every conforming sketch.

namespace gems {

/// A summary that can absorb another summary of the same type.
/// `a.Merge(b)` must leave `a` summarizing the union of both inputs.
template <typename S>
concept MergeableSummary = requires(S s, const S& other) {
  { s.Merge(other) } -> std::same_as<Status>;
};

namespace summary_internal {

/// Converts to `T` and to nothing else, not even through a standard
/// conversion after the user-defined one: the conversion operator is a
/// template that only deduces `T`. Passing one to `Update` therefore asks
/// whether the summary takes exactly a `T`, where a plain `uint64_t` or
/// `double` argument would also bind to the other type's overload.
template <typename T>
struct Exactly {
  template <typename U>
    requires std::same_as<U, T>
  operator U() const;
};

}  // namespace summary_internal

/// A summary over unweighted 64-bit items (sets / multisets of keys):
/// `Update` takes a `uint64_t` as its only required argument. Detected
/// exactly, so a value summary's `Update(double)` does not qualify.
template <typename S>
concept ItemSummary =
    requires(S s, summary_internal::Exactly<uint64_t> item) {
      { s.Update(item) };
    };

/// A summary over weighted items (frequency vectors).
template <typename S>
concept WeightedItemSummary = requires(S s, uint64_t item, int64_t weight) {
  { s.Update(item, weight) };
};

/// A summary over real values (quantile sketches): `Update` takes a
/// `double`. Detected exactly, like ItemSummary.
template <typename S>
concept ValueSummary = requires(S s, summary_internal::Exactly<double> value) {
  { s.Update(value) };
};

/// A membership filter: items go in through `Insert(uint64_t)`.
template <typename S>
concept InsertableSummary =
    requires(S s, summary_internal::Exactly<uint64_t> key) {
      { s.Insert(key) };
    };

/// A summary with one of the three per-item ingest shapes above.
template <typename S>
concept IngestibleSummary =
    ItemSummary<S> || InsertableSummary<S> || ValueSummary<S>;

/// The element type of a summary's per-item ingest: `double` for value
/// summaries, `uint64_t` for everything else.
template <typename S>
using IngestItem =
    std::conditional_t<ValueSummary<S> && !ItemSummary<S> &&
                           !InsertableSummary<S>,
                       double, uint64_t>;

/// A summary with a native batched ingest path over its element type.
/// The contract (verified by tests/batch_test.cc) is strict:
/// `UpdateBatch(items)` must leave the summary in a state byte-identical
/// (after Serialize) to feeding the same items through `Update` one at a
/// time, in order.
template <typename S>
concept BatchItemSummary =
    IngestibleSummary<S> &&
    requires(S s, std::span<const IngestItem<S>> items) {
      { s.UpdateBatch(items) };
    };

/// A membership filter with a batched insert path (same byte-identical
/// contract as BatchItemSummary, against Insert).
template <typename S>
concept BatchInsertableSummary =
    InsertableSummary<S> && requires(S s, std::span<const uint64_t> keys) {
      { s.InsertBatch(keys) };
    };

/// Feeds `items` to `summary`: through its native `UpdateBatch` or
/// `InsertBatch` when it has one, else one `Update` or `Insert` per item.
/// The one place batch ingest picks its path, so a family keeps a batch
/// method only where it measurably beats the per-item loop.
template <typename S>
  requires IngestibleSummary<S>
void IngestBatch(S& summary, std::span<const IngestItem<S>> items) {
  if constexpr (BatchItemSummary<S>) {
    summary.UpdateBatch(items);
  } else if constexpr (BatchInsertableSummary<S>) {
    summary.InsertBatch(items);
  } else if constexpr (InsertableSummary<S> && !ItemSummary<S>) {
    for (const uint64_t key : items) summary.Insert(key);
  } else {
    for (const IngestItem<S> item : items) summary.Update(item);
  }
}

/// A summary with a no-argument point estimate (the unified Estimate()
/// surface of the cardinality / counting families). The concurrent
/// wrapper caches this value atomically at each publication so its
/// Estimate() is a single load.
template <typename S>
concept EstimableSummary = requires(const S& s) {
  { s.Estimate() } -> std::convertible_to<double>;
};

/// A summary with the unified no-argument interval estimate
/// (`EstimateWithBounds(confidence)` of the cardinality / counting
/// families). Used by the concurrent wrapper and the type-erased query
/// surface the gemsd server serves from.
///
/// The EstimableSummary conjunct is load-bearing, not redundant: a
/// per-item `EstimateWithBounds(uint64_t item, double confidence = ...)`
/// is also callable with a single double (the confidence converts to an
/// item id), so the call expression alone would classify every frequency
/// sketch as whole-sketch estimable and silently answer whole-sketch
/// queries with the frequency of item 0. Requiring the no-argument
/// `Estimate()` too pins this concept to families that genuinely have a
/// whole-sketch figure.
template <typename S>
concept BoundedPointEstimableSummary =
    EstimableSummary<S> &&
    requires(const S& s, double confidence) {
      { s.EstimateWithBounds(confidence) } -> std::same_as<gems::Estimate>;
    };

/// A summary with a per-item point estimate (the frequency families'
/// `Estimate(item)` surface).
template <typename S>
concept ItemEstimableSummary = requires(const S& s, uint64_t item) {
  { s.Estimate(item) } -> std::convertible_to<double>;
};

/// A summary with a per-item interval estimate
/// (`EstimateWithBounds(item, confidence)`).
template <typename S>
concept ItemBoundedEstimableSummary =
    requires(const S& s, uint64_t item, double confidence) {
      { s.EstimateWithBounds(item, confidence) } -> std::same_as<gems::Estimate>;
    };

/// The contract the engine (and the future gemsd server) expects of a
/// concurrent, queryable-under-ingest summary wrapper: thread-safe item
/// ingest, a way to force the calling thread's residual state visible
/// (FlushLocal), wait-free point estimates, a monotone publication epoch
/// usable as a staleness probe, and a consistent snapshot. Satisfied by
/// ConcurrentSummary<S> whenever S itself is estimable.
template <typename C>
concept ConcurrentEstimableSummary =
    requires(C c, const C& cc, uint64_t item) {
      { c.Update(item) };
      { cc.FlushLocal() };
      { cc.Estimate() } -> std::convertible_to<double>;
      { cc.epoch() } -> std::convertible_to<uint64_t>;
      { cc.Snapshot() };
    };

/// A summary that models time as a first-class dimension: its state is a
/// function of a window or decay clock that can advance without data
/// (rotating/expiring panes, decaying counts). Advancing with a timestamp
/// earlier than the newest one seen must clamp, never abort — servers see
/// unsorted input.
template <typename S>
concept TimedSummary = requires(S s, const S& cs, uint64_t timestamp) {
  { s.Advance(timestamp) };
  { cs.last_timestamp() } -> std::convertible_to<uint64_t>;
};

/// A timed summary over 64-bit items with an explicit per-update timestamp.
template <typename S>
concept TimedItemSummary =
    TimedSummary<S> && requires(S s, uint64_t timestamp, uint64_t item) {
      { s.UpdateAt(timestamp, item) };
    };

/// A timed summary with a batched timestamped ingest path: `timestamps`
/// parallels `items`. The contract mirrors BatchItemSummary's: state must
/// be byte-identical (after Serialize) to calling UpdateAt per item, in
/// order.
template <typename S>
concept BatchTimedItemSummary =
    TimedSummary<S> &&
    requires(S s, std::span<const uint64_t> timestamps,
             std::span<const uint64_t> items) {
      { s.UpdateBatchTimed(timestamps, items) };
    };

/// A summary that serializes to bytes and back. Deserialize takes a
/// borrowed span, so callers holding mmap'd or ring-buffer bytes never
/// copy into a vector first.
template <typename S>
concept SerializableSummary = requires(const S& s, ByteSpan bytes) {
  { s.Serialize() } -> std::same_as<std::vector<uint8_t>>;
  { S::Deserialize(bytes) } -> std::same_as<Result<S>>;
};

/// A summary that can append its wire envelope into a caller-owned buffer
/// (an arena, a checkpoint body) with no intermediate allocation. The
/// contract is strict: the appended bytes must equal Serialize()'s output
/// exactly, so the two forms are interchangeable on the wire.
template <typename S>
concept SinkSerializableSummary = requires(const S& s, ByteSink& sink) {
  { s.SerializeTo(sink) };
};

/// A summary that can absorb a *wrapped* serialized peer without
/// materializing it — the zero-copy half of the distributed-merge model.
/// The contract (pinned by tests/view_test.cc) is strict: after
/// `a.MergeFromView(v)`, `a.Serialize()` must be byte-identical to the
/// deserialize-then-merge path `a.Merge(*v.Materialize())` from the same
/// starting state, and malformed or incompatible views must yield Status
/// errors, never UB.
template <typename S>
concept ViewMergeableSummary = requires(S s, const View<S>& view) {
  { s.MergeFromView(view) } -> std::same_as<Status>;
};

}  // namespace gems

#endif  // GEMS_CORE_SUMMARY_H_
