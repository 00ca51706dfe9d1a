#include "moments/ams.h"

#include <cmath>

#include "common/check.h"
#include "common/numeric.h"
#include "core/wire.h"
#include "hash/hash.h"
#include "simd/dispatch.h"

namespace gems {

AmsSketch::AmsSketch(uint32_t estimators_per_group, uint32_t num_groups,
                     uint64_t seed)
    : s1_(estimators_per_group), s2_(num_groups), seed_(seed) {
  GEMS_CHECK(estimators_per_group >= 1);
  GEMS_CHECK(num_groups >= 1);
  const size_t total = static_cast<size_t>(s1_) * s2_;
  sign_hashes_.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    sign_hashes_.emplace_back(4, DeriveSeed(seed, i));
  }
  counters_.assign(total, 0);
}

void AmsSketch::Update(uint64_t item, int64_t weight) {
  // Signed update in unsigned arithmetic, as CountSketch::Update does: at
  // the extremes of int64 the counter wraps in two's complement instead of
  // overflowing.
  const uint64_t mag = static_cast<uint64_t>(weight);
  for (size_t i = 0; i < counters_.size(); ++i) {
    const uint64_t delta =
        sign_hashes_[i].EvalSign(item) > 0 ? mag : uint64_t{0} - mag;
    counters_[i] =
        static_cast<int64_t>(static_cast<uint64_t>(counters_[i]) + delta);
  }
}

double AmsSketch::EstimateF2() const {
  std::vector<double> group_means;
  group_means.reserve(s2_);
  for (uint32_t group = 0; group < s2_; ++group) {
    double mean = 0;
    for (uint32_t j = 0; j < s1_; ++j) {
      const double z =
          static_cast<double>(counters_[static_cast<size_t>(group) * s1_ + j]);
      mean += z * z;
    }
    group_means.push_back(mean / static_cast<double>(s1_));
  }
  return Median(std::move(group_means));
}

Estimate AmsSketch::F2Estimate(double confidence) const {
  const double f2 = EstimateF2();
  const double std_error = std::sqrt(2.0 / static_cast<double>(s1_)) * f2;
  return EstimateFromStdError(f2, std_error, confidence);
}

Result<double> AmsSketch::InnerProduct(const AmsSketch& other) const {
  if (s1_ != other.s1_ || s2_ != other.s2_ || seed_ != other.seed_) {
    return Status::InvalidArgument(
        "AMS inner product requires identical shape and seed");
  }
  std::vector<double> group_means;
  group_means.reserve(s2_);
  for (uint32_t group = 0; group < s2_; ++group) {
    double mean = 0;
    for (uint32_t j = 0; j < s1_; ++j) {
      const size_t i = static_cast<size_t>(group) * s1_ + j;
      mean += static_cast<double>(counters_[i]) *
              static_cast<double>(other.counters_[i]);
    }
    group_means.push_back(mean / static_cast<double>(s1_));
  }
  return Median(std::move(group_means));
}

Status AmsSketch::Merge(const AmsSketch& other) {
  if (s1_ != other.s1_ || s2_ != other.s2_ || seed_ != other.seed_) {
    return Status::InvalidArgument(
        "AMS merge requires identical shape and seed");
  }
  simd::Kernels().i64_add(counters_.data(), other.counters_.data(),
                          counters_.size());
  return Status::Ok();
}

std::vector<uint8_t> AmsSketch::Serialize() const {
  ByteWriter w;
  w.PutU32(s1_);
  w.PutU32(s2_);
  w.PutU64(seed_);
  for (int64_t counter : counters_) w.PutI64(counter);
  return WrapEnvelope(SketchTypeId::kAmsSketch,
                      std::move(w).TakeBytes());
}

Result<AmsSketch> AmsSketch::Deserialize(std::span<const uint8_t> bytes) {
  Result<ByteReader> payload = OpenEnvelope(SketchTypeId::kAmsSketch, bytes);
  if (!payload.ok()) return payload.status();
  ByteReader r = std::move(payload).value();
  uint32_t s1, s2;
  uint64_t seed;
  if (Status sa = r.GetU32(&s1); !sa.ok()) return sa;
  if (Status sb = r.GetU32(&s2); !sb.ok()) return sb;
  if (Status sc = r.GetU64(&seed); !sc.ok()) return sc;
  if (s1 == 0 || s2 == 0 ||
      static_cast<uint64_t>(s1) * s2 > (uint64_t{1} << 24)) {
    return Status::Corruption("invalid AMS shape");
  }
  AmsSketch sketch(s1, s2, seed);
  for (int64_t& counter : sketch.counters_) {
    if (Status sv = r.GetI64(&counter); !sv.ok()) return sv;
  }
  return sketch;
}

}  // namespace gems
