#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "engine/multi_query.h"
#include "engine/stream_query.h"
#include "hash/xxhash.h"

namespace gems {
namespace {

constexpr uint64_t kSeed = 17;

/// The checkpoint shapes: every aggregate tumbling, every sketch aggregate
/// sliding (SUM has no sliding mode).
struct Shape {
  AggregateKind aggregate;
  bool sliding;
};

constexpr Shape kShapes[] = {
    {AggregateKind::kCountDistinct, false}, {AggregateKind::kTopK, false},
    {AggregateKind::kQuantiles, false},     {AggregateKind::kSum, false},
    {AggregateKind::kCountDistinct, true},  {AggregateKind::kTopK, true},
    {AggregateKind::kQuantiles, true},
};

std::string Name(Shape shape) {
  return "aggregate " + std::to_string(static_cast<int>(shape.aggregate)) +
         (shape.sliding ? " sliding" : " tumbling");
}

/// Small sketches keep every image a few hundred bytes, so the hostile
/// tests below can afford to mutate each byte.
StreamQuery::Options ShapeOptions(Shape shape) {
  StreamQuery::Options options;
  options.aggregate = shape.aggregate;
  options.window_size = 100;
  options.slide = shape.sliding ? 25 : 0;
  options.hll_precision = 4;
  options.top_k_capacity = 8;
  options.top_k = 3;
  options.kll_k = 8;
  return options;
}

/// Four events per tick over five groups: `n` = 1000 closes two tumbling
/// windows and ten slide boundaries, and leaves them unpolled in the image.
std::vector<StreamEvent> FixedStream(size_t n) {
  std::vector<StreamEvent> events;
  for (uint64_t i = 0; i < n; ++i) {
    events.push_back(StreamEvent{i / 4, i % 5,
                                 (i * 0x9E3779B97F4A7C15ull) >> 58,
                                 static_cast<int64_t>(i % 17)});
  }
  return events;
}

/// Twelve events ten ticks apart over three groups: images small enough
/// to mutate byte by byte that still close a tumbling window and four
/// slide boundaries.
std::vector<StreamEvent> SparseStream() {
  std::vector<StreamEvent> events;
  for (uint64_t i = 0; i < 12; ++i) {
    events.push_back(
        StreamEvent{i * 10, i % 3, i % 7, static_cast<int64_t>(i)});
  }
  return events;
}

std::vector<uint8_t> QueryImage(Shape shape,
                                const std::vector<StreamEvent>& events) {
  StreamQuery query(ShapeOptions(shape), kSeed);
  for (const StreamEvent& event : events) {
    EXPECT_TRUE(query.Process(event).ok());
  }
  return query.SerializeState();
}

/// Registers every shape once, a filtered twin of the first, and a
/// duplicate of the second (which shares its physical query).
void RegisterShapes(MultiQueryEngine& engine) {
  const MultiQueryEngine::FilterId odd = engine.RegisterFilter(
      [](const StreamEvent& e) { return e.item % 2 == 1; });
  for (Shape shape : kShapes) engine.AddQuery(ShapeOptions(shape));
  const MultiQueryEngine::FilterId filters[] = {odd};
  engine.AddQuery(ShapeOptions(kShapes[0]), filters);
  engine.AddQuery(ShapeOptions(kShapes[1]));
}

uint64_t Digest(const std::vector<uint8_t>& image) {
  return XxHash64(image.data(), image.size(), 0);
}

// Pinned digests of the v3 checkpoint bytes. A change here is a format
// change: it breaks every stored image and needs a version bump.
TEST(CheckpointGoldenTest, QueryImagesMatchPinnedDigests) {
  const uint64_t kDigests[] = {
      0x13cacb980c52d174ull, 0x24076ca89df06ce2ull, 0xf7adcd0bc6373130ull,
      0x40b33357e9f75da4ull, 0x83c7e9aa4a2a408full, 0xe5f9b1a35502c823ull,
      0xd725d6c69514edbaull,
  };
  for (size_t i = 0; i < std::size(kShapes); ++i) {
    const uint64_t digest = Digest(QueryImage(kShapes[i], FixedStream(1000)));
    EXPECT_EQ(digest, kDigests[i])
        << Name(kShapes[i]) << ": 0x" << std::hex << digest;
  }
}

TEST(CheckpointGoldenTest, EngineImageMatchesPinnedDigest) {
  MultiQueryEngine engine(kSeed);
  RegisterShapes(engine);
  ASSERT_TRUE(engine.ProcessBatch(FixedStream(1000)).ok());
  engine.Poll(0);
  engine.Poll(8);
  const uint64_t digest = Digest(engine.SerializeState());
  EXPECT_EQ(digest, 0x17e781eccbbbf37aull) << "0x" << std::hex << digest;
}

// ------------------------------------------------------ Hostile images
//
// Bit flips are caught by the checksum before the parser runs, so these
// tests mutate the body and reseal it: the parser itself must then refuse
// the image with a typed status, or accept it into a state that checkpoints
// to a fixpoint and flushes without crashing.

std::vector<uint8_t> Unseal(const std::vector<uint8_t>& image) {
  return std::vector<uint8_t>(image.begin(), image.end() - 8);
}

Status Restore(StreamQuery& query, std::vector<uint8_t> body) {
  return query.RestoreState(engine_detail::SealCheckpoint(
      std::move(body), engine_detail::kQueryCheckpointSeed));
}

Status Restore(MultiQueryEngine& engine, std::vector<uint8_t> body) {
  return engine.RestoreState(engine_detail::SealCheckpoint(
      std::move(body), engine_detail::kEngineCheckpointSeed));
}

bool IsTypedRefusal(const Status& s) {
  return s.code() == StatusCode::kCorruption ||
         s.code() == StatusCode::kInvalidArgument;
}

/// Low and high bit flips, and both extremes.
std::vector<uint8_t> Mutations(uint8_t byte) {
  return {static_cast<uint8_t>(byte ^ 0x01), static_cast<uint8_t>(byte ^ 0x80),
          0x00, 0xFF};
}

void ExpectQuerySurvives(Shape shape, std::vector<uint8_t> body,
                         const std::string& what) {
  StreamQuery query(ShapeOptions(shape), kSeed);
  if (const Status s = Restore(query, std::move(body)); !s.ok()) {
    EXPECT_TRUE(IsTypedRefusal(s)) << what << ": " << s.ToString();
    return;
  }
  const std::vector<uint8_t> image = query.SerializeState();
  StreamQuery twin(ShapeOptions(shape), kSeed);
  ASSERT_TRUE(twin.RestoreState(image).ok()) << what;
  EXPECT_EQ(twin.SerializeState(), image) << what;
  query.Flush();
}

void ExpectEngineSurvives(std::vector<uint8_t> body, const std::string& what) {
  MultiQueryEngine engine(kSeed);
  RegisterShapes(engine);
  if (const Status s = Restore(engine, std::move(body)); !s.ok()) {
    EXPECT_TRUE(IsTypedRefusal(s)) << what << ": " << s.ToString();
    return;
  }
  const std::vector<uint8_t> image = engine.SerializeState();
  MultiQueryEngine twin(kSeed);
  RegisterShapes(twin);
  ASSERT_TRUE(twin.RestoreState(image).ok()) << what;
  EXPECT_EQ(twin.SerializeState(), image) << what;
  engine.Flush();
  for (size_t q = 0; q < engine.num_queries(); ++q) engine.Poll(q);
}

TEST(HostileCheckpointTest, QueryImagesRefuseTruncationAndOldVersions) {
  for (Shape shape : kShapes) {
    const std::vector<uint8_t> body = Unseal(QueryImage(shape, SparseStream()));
    for (size_t len = 0; len < body.size(); ++len) {
      StreamQuery query(ShapeOptions(shape), kSeed);
      EXPECT_EQ(Restore(query, {body.begin(), body.begin() + len}).code(),
                StatusCode::kCorruption)
          << Name(shape) << " truncated to " << len;
    }
    // Byte 4 is the version; only version 3 is readable.
    for (uint8_t version : {0, 1, 2, 4}) {
      std::vector<uint8_t> old = body;
      old[4] = version;
      StreamQuery query(ShapeOptions(shape), kSeed);
      EXPECT_EQ(Restore(query, old).code(), StatusCode::kCorruption)
          << Name(shape) << " as version " << int{version};
    }
  }
}

TEST(HostileCheckpointTest, QueryImagesSurviveEveryByteMutation) {
  for (Shape shape : kShapes) {
    const std::vector<uint8_t> body = Unseal(QueryImage(shape, SparseStream()));
    for (size_t pos = 0; pos < body.size(); ++pos) {
      for (uint8_t value : Mutations(body[pos])) {
        std::vector<uint8_t> mutated = body;
        mutated[pos] = value;
        ExpectQuerySurvives(shape, std::move(mutated),
                            Name(shape) + " byte " + std::to_string(pos) +
                                " = " + std::to_string(value));
      }
    }
  }
}

TEST(HostileCheckpointTest, PresenceBitsMustMatchTheAggregate) {
  // With one group and one-byte varints the group's presence byte sits at
  // offset 71: magic 4, version 1, fingerprint 32, bookkeeping 17, group
  // count 1, group id 8, sum 8.
  constexpr size_t kPresence = 71;
  for (Shape shape : kShapes) {
    const std::vector<uint8_t> body = Unseal(QueryImage(shape, FixedStream(1)));
    ASSERT_EQ(std::popcount(body[kPresence]),
              shape.aggregate == AggregateKind::kSum ? 0 : 1);
    for (int value = 0; value < 256; ++value) {
      if (value == body[kPresence]) continue;
      std::vector<uint8_t> forged = body;
      forged[kPresence] = static_cast<uint8_t>(value);
      StreamQuery query(ShapeOptions(shape), kSeed);
      EXPECT_EQ(Restore(query, forged).code(), StatusCode::kCorruption)
          << Name(shape) << " presence " << value;
    }
  }
}

TEST(HostileCheckpointTest, EngineImageSurvivesTruncationAndMutation) {
  MultiQueryEngine engine(kSeed);
  RegisterShapes(engine);
  ASSERT_TRUE(engine.ProcessBatch(SparseStream()).ok());
  engine.Poll(0);
  engine.Poll(8);  // Leaves view 1 behind in the shared cache.
  const std::vector<uint8_t> body = Unseal(engine.SerializeState());
  // Nested query images are attacked above; here only the engine-level
  // bytes around them (their length prefixes included) are.
  std::vector<bool> nested(body.size(), false);
  for (size_t q = 0; q < engine.num_queries(); ++q) {
    const std::vector<uint8_t> image = engine.SerializeQueryState(q);
    const auto at =
        std::search(body.begin(), body.end(), image.begin(), image.end());
    ASSERT_NE(at, body.end());
    std::fill_n(nested.begin() + (at - body.begin()), image.size(), true);
  }
  for (size_t pos = 0; pos < body.size(); ++pos) {
    if (nested[pos]) continue;
    MultiQueryEngine victim(kSeed);
    RegisterShapes(victim);
    EXPECT_EQ(Restore(victim, {body.begin(), body.begin() + pos}).code(),
              StatusCode::kCorruption)
        << "truncated to " << pos;
    for (uint8_t value : Mutations(body[pos])) {
      std::vector<uint8_t> mutated = body;
      mutated[pos] = value;
      ExpectEngineSurvives(std::move(mutated), "byte " + std::to_string(pos) +
                                                   " = " +
                                                   std::to_string(value));
    }
  }
}

TEST(HostileCheckpointTest, ViewCursorsMustStayInsideTheirCache) {
  // One SUM query, two windows closed and polled: the cache is empty, and
  // its base and the view cursor (the body's last eight bytes) are 2.
  MultiQueryEngine engine(kSeed);
  engine.AddQuery(ShapeOptions(kShapes[3]));
  ASSERT_TRUE(engine.ProcessBatch(FixedStream(880)).ok());
  ASSERT_EQ(engine.Poll(0).size(), 2u);
  const std::vector<uint8_t> body = Unseal(engine.SerializeState());
  ASSERT_EQ(body[body.size() - 8], 2);
  for (uint8_t cursor : {0, 1, 3, 5}) {
    std::vector<uint8_t> forged = body;
    forged[forged.size() - 8] = cursor;
    MultiQueryEngine victim(kSeed);
    victim.AddQuery(ShapeOptions(kShapes[3]));
    EXPECT_EQ(Restore(victim, forged).code(), StatusCode::kCorruption)
        << "cursor " << int{cursor};
  }
}

}  // namespace
}  // namespace gems
