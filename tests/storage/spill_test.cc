#include "storage/spill.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>

#include "gen/trajectory_gen.h"
#include "storage/page_store.h"

namespace modb {
namespace {

TimeInterval TI(double s, double e, bool lc = true, bool rc = true) {
  return *TimeInterval::Make(s, e, lc, rc);
}

MovingPoint MakeTrajectory(int num_units, int seed = 7) {
  std::mt19937_64 rng{std::uint64_t(seed)};
  TrajectoryOptions opts;
  opts.num_units = num_units;
  return *RandomWalkPoint(rng, opts);
}

// Spills `value` as the versioned store roots it: its flat serialization.
template <typename M>
Result<SpillLocator> SpillValue(const M& value, PageDevice* device) {
  Result<FlatValue> flat = spill_internal::EncodeToFlat(value);
  if (!flat.ok()) return flat.status();
  return SpillBlob(device, SerializeFlat(*flat));
}

// Reads a spilled value back along recovery's path: verified pages, then
// the flat parse, then the type's decoder.
template <typename M>
Result<M> LoadValue(BufferPool* pool, const SpillLocator& loc) {
  Result<std::string> blob = ReadSpilledBlob(pool, loc);
  if (!blob.ok()) return blob.status();
  Result<FlatView> flat = ParseFlat(*blob);
  if (!flat.ok()) return flat.status();
  return FlatCodec<M>::FromFlat(*flat);
}

TEST(SpillBlobTest, RoundTripIsByteIdentical) {
  PageStore store;
  BufferPool pool(&store, 8);
  std::string blob;
  for (int i = 0; i < int(kSpillPayloadSize * 3 + 17); ++i) {
    blob.push_back(char(i * 31 + 7));
  }
  auto loc = SpillBlob(&store, blob);
  ASSERT_TRUE(loc.ok()) << loc.status();
  EXPECT_EQ(loc->num_pages, 4u);
  EXPECT_EQ(loc->num_bytes, blob.size());
  auto back = ReadSpilledBlob(&pool, *loc);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, blob);  // byte identity, not just equivalence
}

TEST(SpillBlobTest, EmptyAndSinglePageBlobs) {
  PageStore store;
  BufferPool pool(&store, 4);
  auto empty = SpillBlob(&store, "");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_pages, 1u);  // an empty value still roots a page
  auto back = ReadSpilledBlob(&pool, *empty);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());

  auto small = SpillBlob(&store, "hello");
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->num_pages, 1u);
  EXPECT_EQ(*ReadSpilledBlob(&pool, *small), "hello");
}

TEST(SpillBlobTest, CorruptedPayloadIsRejectedByChecksum) {
  PageStore store;
  BufferPool pool(&store, 4);
  std::string blob(kSpillPayloadSize + 100, 'm');
  auto loc = SpillBlob(&store, blob);
  ASSERT_TRUE(loc.ok());

  // Flip one payload byte on the second page, behind the pool's back.
  char page[kPageSize];
  ASSERT_TRUE(store.ReadPage(loc->first_page + 1, page).ok());
  page[kSpillHeaderSize + 5] ^= 0x40;
  ASSERT_TRUE(store.WritePage(loc->first_page + 1, page).ok());

  BufferPool fresh(&store, 4);
  auto back = ReadSpilledBlob(&fresh, *loc);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("checksum"), std::string::npos)
      << back.status();
}

TEST(SpillBlobTest, BadHeaderFieldsAreRejected) {
  PageStore store;
  BufferPool pool(&store, 4);
  auto loc = SpillBlob(&store, std::string(64, 'h'));
  ASSERT_TRUE(loc.ok());

  char good[kPageSize];
  ASSERT_TRUE(store.ReadPage(loc->first_page, good).ok());

  // Bad magic.
  char page[kPageSize];
  std::memcpy(page, good, kPageSize);
  page[0] = 'X';
  ASSERT_TRUE(store.WritePage(loc->first_page, page).ok());
  {
    BufferPool fresh(&store, 4);
    auto r = ReadSpilledBlob(&fresh, *loc);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("magic"), std::string::npos);
  }

  // Bad version byte (offset 4 in the header).
  std::memcpy(page, good, kPageSize);
  page[4] = 99;
  ASSERT_TRUE(store.WritePage(loc->first_page, page).ok());
  {
    BufferPool fresh(&store, 4);
    auto r = ReadSpilledBlob(&fresh, *loc);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("version"), std::string::npos);
  }

  // Restore, then lie in the locator about the byte count.
  ASSERT_TRUE(store.WritePage(loc->first_page, good).ok());
  SpillLocator wrong = *loc;
  wrong.num_bytes = 63;
  BufferPool fresh(&store, 4);
  EXPECT_FALSE(ReadSpilledBlob(&fresh, wrong).ok());
  wrong.num_bytes = std::uint32_t(2 * kSpillPayloadSize);
  EXPECT_FALSE(ReadSpilledBlob(&fresh, wrong).ok());
}

TEST(SpilledValueTest, MovingRealRoundTrip) {
  MovingReal mr = *MovingReal::Make(
      {*UReal::Make(TI(0, 1, true, false), 1, 2, 3, false),
       *UReal::Make(TI(1, 2), 0, 0, 9, true)});
  PageStore store;
  BufferPool pool(&store, 8);
  auto loc = SpillValue(mr, &store);
  ASSERT_TRUE(loc.ok()) << loc.status();

  auto loaded = LoadValue<MovingReal>(&pool, *loc);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumUnits(), 2u);
  EXPECT_DOUBLE_EQ(loaded->AtInstant(0.5).val(), 1 * 0.25 + 2 * 0.5 + 3);

  // The on-device bytes are exactly the flat serialization of the value.
  auto flat = ToFlat(mr);
  auto blob = ReadSpilledBlob(&pool, *loc);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, SerializeFlat(flat));
}

TEST(SpilledValueTest, SurvivesSaveAndLoadThroughFile) {
  MovingPoint mp = MakeTrajectory(150, /*seed=*/3);
  PageStore store;
  auto loc = SpillValue(mp, &store);
  ASSERT_TRUE(loc.ok()) << loc.status();
  ASSERT_GT(loc->num_pages, 1u) << "want a multi-page value";

  const std::string path = ::testing::TempDir() + "/modb_spill_file.bin";
  ASSERT_TRUE(store.SaveToFile(path).ok());
  auto device = FilePageDevice::Open(path);
  ASSERT_TRUE(device.ok()) << device.status();

  BufferPool pool(&*device, 8);
  auto loaded = LoadValue<MovingPoint>(&pool, *loc);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumUnits(), mp.NumUnits());
  EXPECT_EQ(loaded->AtInstant(42.5).val(), mp.AtInstant(42.5).val());
}

}  // namespace
}  // namespace modb
