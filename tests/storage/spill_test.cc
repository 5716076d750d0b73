#include "storage/spill.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "gen/trajectory_gen.h"
#include "storage/page_store.h"
#include "temporal/paged_ops.h"

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
  auto spilled = Spilled<MovingReal>::Spill(mr, &store);
  ASSERT_TRUE(spilled.ok()) << spilled.status();
  EXPECT_FALSE(spilled->IsLoaded());

  auto loaded = spilled->Load(&pool);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(spilled->IsLoaded());
  EXPECT_EQ((*loaded)->NumUnits(), 2u);
  EXPECT_DOUBLE_EQ((*loaded)->AtInstant(0.5).val(), 1 * 0.25 + 2 * 0.5 + 3);

  // The on-device bytes are exactly the flat serialization of the value.
  auto flat = ToFlat(mr);
  auto blob = ReadSpilledBlob(&pool, spilled->locator());
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, SerializeFlat(flat));
}

TEST(SpilledValueTest, ReleaseDropsAndReloads) {
  MovingPoint mp = MakeTrajectory(300);
  PageStore store;
  auto spilled = Spilled<MovingPoint>::Spill(mp, &store);
  ASSERT_TRUE(spilled.ok()) << spilled.status();
  ASSERT_GT(spilled->locator().num_pages, 1u) << "want a multi-page value";

  BufferPool pool(&store, 4);  // smaller than the value: must recycle frames
  auto first = spilled->Load(&pool);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ((*first)->NumUnits(), mp.NumUnits());
  spilled->Release();
  EXPECT_FALSE(spilled->IsLoaded());
  auto second = spilled->Load(&pool);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->NumUnits(), mp.NumUnits());
}

TEST(PagedOpsTest, AtInstantBatchSpilledMatchesInMemory) {
  MovingPoint mp = MakeTrajectory(200, /*seed=*/11);
  PageStore store;
  auto spilled = Spilled<MovingPoint>::Spill(mp, &store);
  ASSERT_TRUE(spilled.ok()) << spilled.status();

  std::vector<Instant> instants;
  for (double t = -2; t < 205; t += 0.25) instants.push_back(t);

  std::vector<Intime<Point>> expect;
  ASSERT_TRUE(AtInstantBatchInto(mp, instants, &expect).ok());

  BufferPool pool(&store, 8);
  std::vector<Intime<Point>> got;
  ASSERT_TRUE(
      AtInstantBatchSpilled(&*spilled, &pool, instants, &got).ok());
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].defined, expect[i].defined);
    if (got[i].defined) {
      EXPECT_EQ(got[i].value, expect[i].value);
    }
  }

  std::vector<std::uint8_t> present_expect, present_got;
  ASSERT_TRUE(PresentBatchInto(mp, instants, &present_expect).ok());
  ASSERT_TRUE(
      PresentBatchSpilled(&*spilled, &pool, instants, &present_got).ok());
  EXPECT_EQ(present_got, present_expect);

  auto p = PresentSpilled(&*spilled, &pool, 0.5);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, mp.Present(0.5));
}

TEST(PagedOpsTest, SpilledRelationLargerThanPool) {
  // Ten trajectories spilled to one device, read back through a pool that
  // can hold only a fraction of their pages at once.
  PageStore store;
  std::vector<Spilled<MovingPoint>> rows;
  std::vector<MovingPoint> originals;
  for (int i = 0; i < 10; ++i) {
    originals.push_back(MakeTrajectory(120, /*seed=*/100 + i));
    auto s = Spilled<MovingPoint>::Spill(originals.back(), &store);
    ASSERT_TRUE(s.ok()) << s.status();
    rows.push_back(std::move(*s));
  }
  BufferPool pool(&store, 6);
  std::vector<Instant> instants = {0.5, 10.5, 60.25, 119.5};
  for (int i = 0; i < 10; ++i) {
    std::vector<Intime<Point>> got;
    ASSERT_TRUE(
        AtInstantBatchSpilled(&rows[i], &pool, instants, &got).ok());
    for (std::size_t k = 0; k < instants.size(); ++k) {
      ASSERT_TRUE(got[k].defined);
      EXPECT_EQ(got[k].value, originals[i].AtInstant(instants[k]).val());
    }
    rows[i].Release();  // keep resident set small, like a real scan
  }
  // Every byte came through the pool.
  BufferPoolStats stats = pool.stats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(SpilledValueTest, SurvivesSaveAndLoadThroughFile) {
  MovingPoint mp = MakeTrajectory(150, /*seed=*/3);
  PageStore store;
  auto spilled = Spilled<MovingPoint>::Spill(mp, &store);
  ASSERT_TRUE(spilled.ok());

  const std::string path = ::testing::TempDir() + "/modb_spill_file.bin";
  ASSERT_TRUE(store.SaveToFile(path).ok());
  auto device = FilePageDevice::Open(path);
  ASSERT_TRUE(device.ok()) << device.status();

  BufferPool pool(&*device, 8);
  Spilled<MovingPoint> reopened(spilled->locator());
  auto loaded = reopened.Load(&pool);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->NumUnits(), mp.NumUnits());
  EXPECT_EQ((*loaded)->AtInstant(42.5).val(), mp.AtInstant(42.5).val());
}

}  // namespace
}  // namespace modb
