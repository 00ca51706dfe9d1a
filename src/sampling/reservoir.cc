#include "sampling/reservoir.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/wire.h"

namespace gems {

ReservoirSampler::ReservoirSampler(size_t k, uint64_t seed)
    : k_(k), rng_(seed) {
  GEMS_CHECK(k >= 1);
  sample_.reserve(k);
}

void ReservoirSampler::Update(uint64_t item) {
  ++seen_;
  if (sample_.size() < k_) {
    sample_.push_back(item);
    return;
  }
  // Algorithm R: replace a uniform slot with probability k/seen.
  const uint64_t j = rng_.NextBounded(seen_);
  if (j < k_) sample_[j] = item;
}

Status ReservoirSampler::Merge(const ReservoirSampler& other) {
  if (k_ != other.k_) {
    return Status::InvalidArgument("Reservoir merge requires equal k");
  }
  if (other.seen_ == 0) return Status::Ok();
  if (seen_ == 0) {
    sample_ = other.sample_;
    seen_ = other.seen_;
    return Status::Ok();
  }
  // Draw each output slot from this or other proportionally to stream
  // sizes, sampling without replacement within each source.
  std::vector<uint64_t> mine = sample_;
  std::vector<uint64_t> theirs = other.sample_;
  std::vector<uint64_t> merged;
  const size_t target = std::min(
      k_, static_cast<size_t>(std::min<uint64_t>(seen_ + other.seen_, k_)));
  uint64_t remaining_mine = seen_;
  uint64_t remaining_theirs = other.seen_;
  while (merged.size() < target && (!mine.empty() || !theirs.empty())) {
    const double p_mine =
        static_cast<double>(remaining_mine) /
        static_cast<double>(remaining_mine + remaining_theirs);
    const bool take_mine =
        !mine.empty() && (theirs.empty() || rng_.NextBernoulli(p_mine));
    std::vector<uint64_t>& source = take_mine ? mine : theirs;
    uint64_t& remaining = take_mine ? remaining_mine : remaining_theirs;
    const size_t idx = rng_.NextBounded(source.size());
    merged.push_back(source[idx]);
    source[idx] = source.back();
    source.pop_back();
    if (remaining > 0) --remaining;
  }
  sample_ = std::move(merged);
  seen_ += other.seen_;
  return Status::Ok();
}

Status ReservoirSampler::MergeFromView(const View<ReservoirSampler>& view) {
  Result<ReservoirSampler> other = view.Materialize();
  if (!other.ok()) return other.status();
  return Merge(other.value());
}

std::vector<uint8_t> ReservoirSampler::Serialize() const {
  std::vector<uint8_t> out;
  ByteSink sink(&out);
  SerializeTo(sink);
  return out;
}

void ReservoirSampler::SerializeTo(ByteSink& sink) const {
  EnvelopeBuilder env(sink, kTypeId);
  sink.PutVarint(k_);
  sink.PutU64(seen_);
  sink.PutVarint(sample_.size());
  for (uint64_t item : sample_) sink.PutU64(item);
}

Result<ReservoirSampler> ReservoirSampler::Deserialize(
    std::span<const uint8_t> bytes) {
  Result<ByteReader> payload = OpenEnvelope(SketchTypeId::kReservoir, bytes);
  if (!payload.ok()) return payload.status();
  ByteReader r = std::move(payload).value();
  uint64_t k, seen, size;
  if (Status sk = r.GetVarint(&k); !sk.ok()) return sk;
  if (Status sn = r.GetU64(&seen); !sn.ok()) return sn;
  if (Status sz = r.GetVarint(&size); !sz.ok()) return sz;
  if (k == 0 || size > k || size > seen) {
    return Status::Corruption("invalid reservoir header");
  }
  ReservoirSampler sampler(k, seen ^ 0x5EED);
  sampler.seen_ = seen;
  sampler.sample_.resize(size);
  for (uint64_t& item : sampler.sample_) {
    if (Status si = r.GetU64(&item); !si.ok()) return si;
  }
  return sampler;
}

WeightedReservoirSampler::WeightedReservoirSampler(size_t k, uint64_t seed)
    : k_(k), rng_(seed) {
  GEMS_CHECK(k >= 1);
}

void WeightedReservoirSampler::Offer(double key, uint64_t item) {
  if (heap_.size() < k_) {
    heap_.push_back(Keyed{key, item});
    std::push_heap(heap_.begin(), heap_.end(),
                   [](const Keyed& a, const Keyed& b) { return a.key > b.key; });
    return;
  }
  if (key > heap_.front().key) {
    std::pop_heap(heap_.begin(), heap_.end(),
                  [](const Keyed& a, const Keyed& b) { return a.key > b.key; });
    heap_.back() = Keyed{key, item};
    std::push_heap(heap_.begin(), heap_.end(),
                   [](const Keyed& a, const Keyed& b) { return a.key > b.key; });
  }
}

void WeightedReservoirSampler::Update(uint64_t item, double weight) {
  GEMS_CHECK(weight > 0.0);
  // A-ES key: u^(1/w) for u ~ U(0,1); larger weight -> larger typical key.
  double u = rng_.NextDouble();
  while (u <= 0.0) u = rng_.NextDouble();
  const double key = std::pow(u, 1.0 / weight);
  Offer(key, item);
}

std::vector<uint64_t> WeightedReservoirSampler::Sample() const {
  std::vector<uint64_t> out;
  out.reserve(heap_.size());
  for (const Keyed& keyed : heap_) out.push_back(keyed.item);
  return out;
}

Status WeightedReservoirSampler::Merge(
    const WeightedReservoirSampler& other) {
  if (k_ != other.k_) {
    return Status::InvalidArgument(
        "WeightedReservoir merge requires equal k");
  }
  for (const Keyed& keyed : other.heap_) Offer(keyed.key, keyed.item);
  return Status::Ok();
}

}  // namespace gems
