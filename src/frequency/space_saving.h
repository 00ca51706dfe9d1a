#ifndef GEMS_FREQUENCY_SPACE_SAVING_H_
#define GEMS_FREQUENCY_SPACE_SAVING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/estimate.h"
#include "core/io.h"
#include "core/view.h"

/// \file
/// SpaceSaving (Metwally, Agrawal & El Abbadi 2005): the "stream-summary"
/// deterministic top-k/heavy-hitter sketch. Tracks exactly k items; a new
/// item evicts the current minimum and inherits its count (recorded as that
/// item's error). Guarantees: every item with true count > N/k is tracked;
/// estimates overestimate by at most the recorded per-item error <= N/k.
/// The paper later notes its equivalence to Misra-Gries (counts differ by
/// exactly the MG decrement total) — a property the tests verify.

namespace gems {

/// SpaceSaving summary tracking `capacity` items.
///
/// Storage is one flat unsorted vector of (item, count, error) slots.
/// Practical capacities are small (tens to a few hundred — 1/phi), where a
/// linear scan over a contiguous ~16-byte-per-slot array beats the classic
/// hash-map-plus-heap layout: no per-node allocation, no pointer chasing,
/// and copies/merges are plain memcpy-and-sort. Sliding-window pane rings
/// copy and merge these summaries on every pane rotation, which is where
/// the flat layout pays off most.
class SpaceSaving {
 public:
  /// Wire-format type tag, for View<SpaceSaving> wrapping.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kSpaceSaving;

  explicit SpaceSaving(size_t capacity);

  /// Advisor-driven constructor: capacity ceil(1/phi) so every item with
  /// frequency > phi*N is guaranteed tracked. kInvalidArgument if `phi` is
  /// outside (0, 1].
  static Result<SpaceSaving> ForThreshold(double phi);

  SpaceSaving(const SpaceSaving&) = default;
  SpaceSaving& operator=(const SpaceSaving&) = default;
  SpaceSaving(SpaceSaving&&) = default;
  SpaceSaving& operator=(SpaceSaving&&) = default;

  /// Adds `weight` (>= 1) occurrences of `item`. On eviction, ties on the
  /// minimum count break toward the smallest item id — a content-determined
  /// rule, so two summaries holding the same logical state evolve
  /// identically regardless of the order their slots were populated in
  /// (e.g. one restored from a checkpoint, one that kept running).
  void Update(uint64_t item, int64_t weight = 1);

  /// Overestimate of the item's count; untracked items get the current
  /// minimum count (the correct upper bound for them).
  int64_t Estimate(uint64_t item) const;

  /// Point estimate with the deterministic SpaceSaving envelope:
  /// [count - error, count] for tracked items, [0, MinCount()] for
  /// untracked ones. The bound is exact, so `confidence` is reported
  /// as-is.
  gems::Estimate EstimateWithBounds(uint64_t item,
                                    double confidence = 0.95) const;

  /// Guaranteed overestimation error for a tracked item (0 if untracked or
  /// never evicted anyone).
  int64_t ErrorOf(uint64_t item) const;

  /// True if the item's estimate is *guaranteed* correct (error == 0).
  bool IsGuaranteedExact(uint64_t item) const;

  /// Items with estimated count >= phi * N (no false negatives).
  std::vector<uint64_t> HeavyHitterCandidates(double phi) const;

  /// Tracked items (item, count, error), largest count first.
  struct Entry {
    uint64_t item;
    int64_t count;
    int64_t error;
  };
  std::vector<Entry> Entries() const;

  /// Top-k by estimated count.
  std::vector<Entry> TopK(size_t k) const;

  /// Merge preserving the SpaceSaving error guarantees (combined counts and
  /// errors added for shared items; then truncated back to capacity, with
  /// the truncation folded into the kept items' admissible error).
  Status Merge(const SpaceSaving& other);

  /// Merges a wrapped serialized peer. The merge rebuilds the tracked set
  /// (combine, sort, truncate), so this materializes one temporary from
  /// the view (skipping only the caller-side envelope copy) —
  /// byte-identical to Merge(*view.Materialize()) by construction.
  Status MergeFromView(const View<SpaceSaving>& view);

  int64_t TotalWeight() const { return total_; }
  size_t capacity() const { return capacity_; }
  size_t NumTracked() const { return slots_.size(); }
  int64_t MinCount() const;

  std::vector<uint8_t> Serialize() const;
  /// Appends the wire envelope into a caller-owned buffer; byte-identical
  /// to Serialize().
  void SerializeTo(ByteSink& sink) const;
  static Result<SpaceSaving> Deserialize(std::span<const uint8_t> bytes);

 private:
  struct Slot {
    uint64_t item;
    int64_t count;
    int64_t error;
  };

  /// Index of `item`'s slot, or slots_.size() if untracked.
  size_t FindSlot(uint64_t item) const;

  size_t capacity_;
  int64_t total_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace gems

#endif  // GEMS_FREQUENCY_SPACE_SAVING_H_
