#ifndef GEMS_FREQUENCY_MISRA_GRIES_H_
#define GEMS_FREQUENCY_MISRA_GRIES_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/estimate.h"

/// \file
/// Misra-Gries frequent items (1982), the generalization of Boyer-Moore
/// majority voting: k-1 counters guarantee every item with true count
/// > N/k is retained, and every retained count underestimates the truth by
/// at most N/k. Its merge rule — add counters, then subtract the k-th
/// largest from all and drop non-positives — is one of the flagship results
/// of the "Mergeable Summaries" paper (PODS 2012 test-of-time) that this
/// library's distributed substrate exercises.

namespace gems {

/// Misra-Gries summary with at most `num_counters` tracked items.
class MisraGries {
 public:
  explicit MisraGries(size_t num_counters);

  MisraGries(const MisraGries&) = default;
  MisraGries& operator=(const MisraGries&) = default;
  MisraGries(MisraGries&&) = default;
  MisraGries& operator=(MisraGries&&) = default;

  /// Adds `weight` (>= 1) occurrences of `item`.
  void Update(uint64_t item, int64_t weight = 1);

  /// Lower-bound estimate of the item's count (0 if not tracked).
  /// True count is in [estimate, estimate + error_bound()].
  int64_t Estimate(uint64_t item) const;

  /// Point estimate with the deterministic Misra-Gries envelope:
  /// [estimate, estimate + ErrorBound()]. The bound is exact, so
  /// `confidence` is reported as-is.
  gems::Estimate EstimateWithBounds(uint64_t item,
                                    double confidence = 0.95) const;

  /// Maximum undercount: total decremented weight so far (<= N/k).
  int64_t ErrorBound() const { return decrement_total_; }

  /// Items that may have count >= phi * N (no false negatives).
  std::vector<uint64_t> HeavyHitterCandidates(double phi) const;

  /// Tracked items with counts, largest first.
  std::vector<std::pair<uint64_t, int64_t>> Entries() const;

  /// Mergeable-summaries merge: combine counters, subtract the
  /// (num_counters+1)-th largest, drop non-positive.
  Status Merge(const MisraGries& other);

  int64_t TotalWeight() const { return total_; }
  size_t num_counters() const { return num_counters_; }
  size_t NumTracked() const { return counters_.size(); }

  std::vector<uint8_t> Serialize() const;
  static Result<MisraGries> Deserialize(std::span<const uint8_t> bytes);

 private:
  size_t num_counters_;
  int64_t total_ = 0;
  int64_t decrement_total_ = 0;
  std::unordered_map<uint64_t, int64_t> counters_;
};

}  // namespace gems

#endif  // GEMS_FREQUENCY_MISRA_GRIES_H_
