#include "frequency/space_saving.h"

#include <algorithm>

#include "common/check.h"
#include "core/params.h"
#include "core/wire.h"

namespace gems {

SpaceSaving::SpaceSaving(size_t capacity) : capacity_(capacity) {
  GEMS_CHECK(capacity >= 1);
}

Result<SpaceSaving> SpaceSaving::ForThreshold(double phi) {
  if (!(phi > 0.0 && phi <= 1.0)) {
    return Status::InvalidArgument(
        "SpaceSaving threshold phi must be in (0, 1]");
  }
  return SpaceSaving(SpaceSavingCapacityFor(phi));
}

size_t SpaceSaving::FindSlot(uint64_t item) const {
  size_t i = 0;
  for (; i < slots_.size(); ++i) {
    if (slots_[i].item == item) break;
  }
  return i;
}

void SpaceSaving::Update(uint64_t item, int64_t weight) {
  GEMS_CHECK(weight >= 1);
  total_ += weight;

  const size_t found = FindSlot(item);
  if (found < slots_.size()) {
    slots_[found].count += weight;
    return;
  }
  if (slots_.size() < capacity_) {
    slots_.push_back(Slot{item, weight, 0});
    return;
  }
  // Evict the minimum (smallest item id among tied counts — see Update's
  // contract); the newcomer inherits its count as error, in place.
  size_t weakest = 0;
  for (size_t i = 1; i < slots_.size(); ++i) {
    if (slots_[i].count < slots_[weakest].count ||
        (slots_[i].count == slots_[weakest].count &&
         slots_[i].item < slots_[weakest].item)) {
      weakest = i;
    }
  }
  const int64_t min_count = slots_[weakest].count;
  slots_[weakest] = Slot{item, min_count + weight, min_count};
}

int64_t SpaceSaving::Estimate(uint64_t item) const {
  const size_t i = FindSlot(item);
  if (i < slots_.size()) return slots_[i].count;
  return MinCount();
}

gems::Estimate SpaceSaving::EstimateWithBounds(uint64_t item,
                                               double confidence) const {
  gems::Estimate e;
  const size_t i = FindSlot(item);
  if (i < slots_.size()) {
    e.value = static_cast<double>(slots_[i].count);
    e.upper = e.value;
    e.lower = e.value - static_cast<double>(slots_[i].error);
  } else {
    e.value = static_cast<double>(MinCount());
    e.upper = e.value;
    e.lower = 0.0;
  }
  e.confidence = confidence;
  return e;
}

int64_t SpaceSaving::ErrorOf(uint64_t item) const {
  const size_t i = FindSlot(item);
  return i < slots_.size() ? slots_[i].error : MinCount();
}

bool SpaceSaving::IsGuaranteedExact(uint64_t item) const {
  const size_t i = FindSlot(item);
  return i < slots_.size() && slots_[i].error == 0;
}

int64_t SpaceSaving::MinCount() const {
  if (slots_.size() < capacity_ || slots_.empty()) return 0;
  int64_t min_count = slots_[0].count;
  for (const Slot& slot : slots_) min_count = std::min(min_count, slot.count);
  return min_count;
}

std::vector<uint64_t> SpaceSaving::HeavyHitterCandidates(double phi) const {
  const double threshold = phi * static_cast<double>(total_);
  std::vector<uint64_t> out;
  for (const Slot& slot : slots_) {
    if (static_cast<double>(slot.count) >= threshold) out.push_back(slot.item);
  }
  return out;
}

std::vector<SpaceSaving::Entry> SpaceSaving::Entries() const {
  std::vector<Entry> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    out.push_back(Entry{slot.item, slot.count, slot.error});
  }
  // Canonical order: count desc, then item asc (stable across round trips).
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.item < b.item;
  });
  return out;
}

std::vector<SpaceSaving::Entry> SpaceSaving::TopK(size_t k) const {
  std::vector<Entry> all = Entries();
  if (all.size() > k) all.resize(k);
  return all;
}

Status SpaceSaving::Merge(const SpaceSaving& other) {
  if (capacity_ != other.capacity_) {
    return Status::InvalidArgument("SpaceSaving merge requires equal capacity");
  }
  // Combine: items in both get summed counts and errors; items in only one
  // side could have appeared up to the other side's MinCount times unseen,
  // which stays within the inherited-error accounting below. Both tracked
  // sets are small flat arrays: concatenate, sort by item, fold adjacent
  // duplicates — no hashing, no node allocation.
  std::vector<Slot> all;
  all.reserve(slots_.size() + other.slots_.size());
  all.insert(all.end(), slots_.begin(), slots_.end());
  all.insert(all.end(), other.slots_.begin(), other.slots_.end());
  std::sort(all.begin(), all.end(),
            [](const Slot& a, const Slot& b) { return a.item < b.item; });
  size_t out = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    if (out > 0 && all[out - 1].item == all[i].item) {
      all[out - 1].count += all[i].count;
      all[out - 1].error += all[i].error;
    } else {
      all[out++] = all[i];
    }
  }
  all.resize(out);
  // Keep the `capacity_` largest by count; surviving items are unchanged
  // (their counts remain valid overestimates of their true totals).
  std::sort(all.begin(), all.end(), [](const Slot& a, const Slot& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.item < b.item;
  });
  if (all.size() > capacity_) all.resize(capacity_);
  slots_ = std::move(all);
  total_ += other.total_;
  return Status::Ok();
}

Status SpaceSaving::MergeFromView(const View<SpaceSaving>& view) {
  Result<SpaceSaving> other = view.Materialize();
  if (!other.ok()) return other.status();
  return Merge(other.value());
}

std::vector<uint8_t> SpaceSaving::Serialize() const {
  std::vector<uint8_t> out;
  ByteSink sink(&out);
  SerializeTo(sink);
  return out;
}

void SpaceSaving::SerializeTo(ByteSink& sink) const {
  EnvelopeBuilder env(sink, kTypeId);
  sink.PutVarint(capacity_);
  sink.PutI64(total_);
  sink.PutVarint(slots_.size());
  // Canonical (entry) order so identical summaries serialize identically.
  for (const Entry& entry : Entries()) {
    sink.PutU64(entry.item);
    sink.PutI64(entry.count);
    sink.PutI64(entry.error);
  }
}

Result<SpaceSaving> SpaceSaving::Deserialize(
    std::span<const uint8_t> bytes) {
  Result<ByteReader> payload = OpenEnvelope(SketchTypeId::kSpaceSaving, bytes);
  if (!payload.ok()) return payload.status();
  ByteReader r = std::move(payload).value();
  uint64_t capacity, num_entries;
  int64_t total;
  if (Status sc = r.GetVarint(&capacity); !sc.ok()) return sc;
  if (Status st = r.GetI64(&total); !st.ok()) return st;
  if (Status se = r.GetVarint(&num_entries); !se.ok()) return se;
  if (capacity == 0 || num_entries > capacity) {
    return Status::Corruption("invalid SpaceSaving header");
  }
  SpaceSaving ss(capacity);
  ss.total_ = total;
  ss.slots_.reserve(num_entries);
  for (uint64_t i = 0; i < num_entries; ++i) {
    uint64_t item;
    int64_t count, error;
    if (Status si = r.GetU64(&item); !si.ok()) return si;
    if (Status sn = r.GetI64(&count); !sn.ok()) return sn;
    if (Status sx = r.GetI64(&error); !sx.ok()) return sx;
    if (count <= 0 || error < 0 || error > count) {
      return Status::Corruption("invalid SpaceSaving entry");
    }
    ss.slots_.push_back(Slot{item, count, error});
  }
  return ss;
}

}  // namespace gems
