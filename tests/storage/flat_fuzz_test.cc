// Failure-injection tests for the flat decoders: corrupted or truncated
// blobs must produce error statuses, never crashes or invalid values
// slipping past the validating factories.

#include <gtest/gtest.h>

#include <random>

#include "db/relation_io.h"
#include "gen/region_gen.h"
#include "gen/trajectory_gen.h"
#include "storage/flat.h"

namespace modb {
namespace {

std::string SampleMovingPointBlob() {
  std::mt19937_64 rng(1);
  TrajectoryOptions opts;
  opts.num_units = 12;
  return SerializeFlat(ToFlat(*RandomWalkPoint(rng, opts)));
}

std::string SampleRegionBlob() {
  std::mt19937_64 rng(2);
  RegionGenOptions opts;
  opts.num_vertices = 12;
  opts.with_hole = true;
  return SerializeFlat(ToFlat(*GenerateRegion(rng, opts)));
}

TEST(FlatFuzz, TruncationsAlwaysError) {
  std::string blob = SampleMovingPointBlob();
  for (std::size_t len = 0; len < blob.size(); len += 7) {
    auto parsed = ParseFlat(std::string_view(blob).substr(0, len));
    if (!parsed.ok()) continue;
    // Parsing may succeed only for... it cannot: truncation removes
    // trailing array bytes and the parser demands exact consumption.
    ADD_FAILURE() << "truncated blob of " << len << " bytes parsed";
  }
}

TEST(FlatFuzz, SingleByteCorruptionNeverCrashes) {
  std::string blob = SampleMovingPointBlob();
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::size_t> pos(0, blob.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  int decoded_ok = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = blob;
    mutated[pos(rng)] ^= char(1 << bit(rng));
    auto parsed = ParseFlat(mutated);
    if (!parsed.ok()) continue;
    auto back = MovingPointFromFlat(*parsed);
    if (back.ok()) {
      // A flipped coordinate bit can still decode to a *valid* moving
      // point; what matters is that the value passed validation.
      ++decoded_ok;
      for (const UPoint& u : back->units()) {
        EXPECT_LE(u.interval().start(), u.interval().end());
      }
    }
  }
  SUCCEED() << decoded_ok << " mutations decoded to valid values";
}

TEST(FlatFuzz, RegionCorruptionNeverCrashes) {
  std::string blob = SampleRegionBlob();
  std::mt19937_64 rng(4);
  std::uniform_int_distribution<std::size_t> pos(0, blob.size() - 1);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = blob;
    mutated[pos(rng)] = char(rng());
    auto parsed = ParseFlat(mutated);
    if (!parsed.ok()) continue;
    auto back = RegionFromFlat(*parsed);
    if (back.ok()) {
      // Structural invariants that FromParts guarantees even for mutated
      // geometry: link indices stay in range.
      for (const HalfSegment& h : back->halfsegments()) {
        EXPECT_GE(h.cycle, 0);
        EXPECT_LT(std::size_t(h.cycle), back->NumCycles());
        EXPECT_LT(std::size_t(h.next_in_cycle),
                  back->halfsegments().size());
      }
    }
  }
  SUCCEED();
}

// Random bytes added after the last record of a count-driven database
// array, with the array's length prefix grown to match so the blob
// itself stays well-formed, never decode.
TEST(FlatFuzz, BytesAfterCountedRecordsAlwaysError) {
  const std::string mpoint = SampleMovingPointBlob();
  const std::string region = SampleRegionBlob();
  std::mt19937_64 rng(6);
  for (int trial = 0; trial < 200; ++trial) {
    const bool is_region = trial % 2 == 1;
    Result<FlatView> view = ParseFlat(is_region ? region : mpoint);
    ASSERT_TRUE(view.ok());
    FlatValue grown{std::string(view->root),
                    {view->arrays.begin(), view->arrays.end()}};
    std::string& array = grown.arrays[is_region ? rng() % 3 : 0];
    for (std::size_t extra = 1 + rng() % 64; extra > 0; --extra) {
      array.push_back(char(rng()));
    }
    const std::string blob = SerializeFlat(grown);
    Result<FlatView> parsed = ParseFlat(blob);
    ASSERT_TRUE(parsed.ok());
    const Status s = is_region ? RegionFromFlat(*parsed).status()
                               : MovingPointFromFlat(*parsed).status();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "trial " << trial;
  }
}

TEST(FlatFuzz, AttributeBlobCorruption) {
  std::mt19937_64 rng(5);
  TrajectoryOptions opts;
  opts.num_units = 6;
  AttributeValue value(*RandomWalkPoint(rng, opts));
  std::string blob = *SerializeAttribute(value);
  std::uniform_int_distribution<std::size_t> pos(0, blob.size() - 1);
  int survived = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = blob;
    mutated[pos(rng)] = char(rng());
    auto back = DeserializeAttribute(mutated);  // Must not crash.
    if (back.ok()) ++survived;
  }
  SUCCEED() << survived << " mutations decoded to valid values";
}

}  // namespace
}  // namespace modb
