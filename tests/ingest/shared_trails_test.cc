// Live trails and the shared unit arrays of Mapping (core/cow_array.h).
// A query result holds copies of the trails it returns, which share the
// live trail's unit array; the next ingest batch must clone a trail
// only while such a copy is alive, and the copy must keep the values it
// was taken with. With no result alive, ingest appends in place: the
// array a trail started with is the array it ends with. The ingest
// label runs under the ThreadSanitizer tree too.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "db/modb.h"
#include "serve/wire.h"
#include "storage/recovery.h"
#include "temporal/moving.h"

namespace modb {
namespace {

constexpr int kObjects = 8;
constexpr char kFleet[] = "fleet";

// One fleet tick: a fix per object, on wobbling walks.
MutationRequest Tick(int t) {
  MutationRequest req;
  req.kind = MutationRequest::Kind::kIngest;
  req.relation = kFleet;
  for (int o = 0; o < kObjects; ++o) {
    req.fixes.push_back({"obj" + std::to_string(o), double(t),
                         double(o * 40 + t) + double((t * 7 + o) % 5),
                         double(o * 10 + t) + double((t * 3 + o) % 7)});
  }
  return req;
}

QueryRequest SelectAll() {
  QueryRequest q;
  q.kind = QueryRequest::Kind::kSelect;
  q.relation = kFleet;
  return q;
}

QueryRequest FleetJoin() {
  QueryRequest q;
  q.kind = QueryRequest::Kind::kIndexJoin;
  q.relation = kFleet;
  q.join_relation = kFleet;
  q.attr = "trail";
  q.join_attr = "trail";
  q.distance = 1e300;  // every pair that shares an instant
  q.distinct_pairs = true;
  return q;
}

// The unit array of every trail in a select over the live relation:
// the copies share it with the live trails, so this is the live trails'
// arrays.
std::vector<const void*> TrailArrays(const Db& db) {
  Result<QueryResult> r = db.Run(SelectAll());
  EXPECT_TRUE(r.ok()) << r.status();
  std::vector<const void*> arrays;
  if (!r.ok()) return arrays;
  for (const Tuple& t : r->rows.tuples()) {
    arrays.push_back(&std::get<MovingPoint>(t[1]).units());
  }
  return arrays;
}

std::string Block(const QueryResult& r) {
  Result<std::string> block = serve::EncodeResultBlock(r);
  EXPECT_TRUE(block.ok()) << block.status();
  return block.ok() ? *block : std::string();
}

// A whole durable fleet-style ingest with queries between the batches:
// every result is gone before the next batch, so no batch clones a
// trail and each trail keeps the array it started with.
TEST(SharedTrails, TrailsWithNoLiveCopyAreNeverCloned) {
  const std::string path = ::testing::TempDir() + "/shared_trails_store.bin";
  Result<VersionedSpillStore> store = VersionedSpillStore::Create(path);
  ASSERT_TRUE(store.ok()) << store.status();
  Db db;
  ASSERT_TRUE(db.RegisterLive(kFleet).ok());
  ASSERT_TRUE(db.AttachLiveStore(kFleet, &*store).ok());
  ASSERT_TRUE(db.Apply(Tick(0)).ok());
  ASSERT_TRUE(db.Apply(Tick(1)).ok());
  const std::vector<const void*> arrays = TrailArrays(db);
  ASSERT_EQ(arrays.size(), std::size_t(kObjects));
  for (int t = 2; t < 400; ++t) {
    ASSERT_TRUE(db.Apply(Tick(t)).ok());
    if (t % 16 == 0) {
      Result<QueryResult> join = db.Run(FleetJoin());
      ASSERT_TRUE(join.ok()) << join.status();
      EXPECT_GT(join->rows.NumTuples(), 0u);
      ASSERT_TRUE(db.MergeLive(kFleet).ok());
    }
  }
  EXPECT_EQ(TrailArrays(db), arrays);
  ASSERT_TRUE(db.DrainLive(kFleet).ok());
  EXPECT_EQ(TrailArrays(db), arrays);
  Result<QueryResult> all = db.Run(SelectAll());
  ASSERT_TRUE(all.ok());
  EXPECT_GT(std::get<MovingPoint>(all->rows.tuple(0)[1]).NumUnits(), 300u);
}

// A result held across Db::Apply keeps its pre-batch values, byte for
// byte, while the live relation moves on; the batch cloned the trails
// the result shares, so the live trails now have arrays of their own.
TEST(SharedTrails, ResultHeldAcrossApplyKeepsItsValues) {
  Db db;
  ASSERT_TRUE(db.RegisterLive(kFleet).ok());
  for (int t = 0; t < 64; ++t) ASSERT_TRUE(db.Apply(Tick(t)).ok());
  Result<QueryResult> join = db.Run(FleetJoin());
  ASSERT_TRUE(join.ok()) << join.status();
  ASSERT_GT(join->rows.NumTuples(), 0u);
  Result<QueryResult> all = db.Run(SelectAll());
  ASSERT_TRUE(all.ok());
  const std::string join_before = Block(*join);
  const std::string all_before = Block(*all);
  const std::vector<const void*> held = TrailArrays(db);
  const MovingPoint& trail0 = std::get<MovingPoint>(all->rows.tuple(0)[1]);
  const std::size_t units = trail0.NumUnits();

  for (int t = 64; t < 96; ++t) ASSERT_TRUE(db.Apply(Tick(t)).ok());
  EXPECT_EQ(Block(*join), join_before);
  EXPECT_EQ(Block(*all), all_before);
  EXPECT_EQ(trail0.NumUnits(), units);
  const std::vector<const void*> now = TrailArrays(db);
  for (std::size_t i = 0; i < now.size(); ++i) EXPECT_NE(now[i], held[i]);
  Result<QueryResult> later = db.Run(FleetJoin());
  ASSERT_TRUE(later.ok());
  EXPECT_NE(Block(*later), join_before);
}

// Db::Run with a consumer (modbd encodes its reply there) drops the
// result before the query lets go of the Db: a writer queued behind the
// query runs only after that, finds every trail unshared and appends in
// place.
TEST(SharedTrails, ConsumedResultsAreGoneBeforeTheWriterRuns) {
  Db db;
  ASSERT_TRUE(db.RegisterLive(kFleet).ok());
  for (int t = 0; t < 64; ++t) ASSERT_TRUE(db.Apply(Tick(t)).ok());
  const std::vector<const void*> arrays = TrailArrays(db);
  std::atomic<bool> consumed{false};
  bool applied_after_consume = false;
  std::thread writer;
  std::string block;
  const Status run = db.Run(FleetJoin(), {}, [&](QueryResult& r) {
    writer = std::thread([&] {
      EXPECT_TRUE(db.Apply(Tick(64)).ok());
      applied_after_consume = consumed.load();
    });
    // Give the writer time to queue on the Db while the result lives.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    block = Block(r);
    consumed.store(true);
    return Status::OK();
  });
  writer.join();
  ASSERT_TRUE(run.ok()) << run;
  EXPECT_FALSE(block.empty());
  EXPECT_TRUE(applied_after_consume);
  EXPECT_EQ(TrailArrays(db), arrays);

  // The consumer's error comes back; a query error skips the consumer.
  EXPECT_EQ(db.Run(SelectAll(), {},
                   [](QueryResult&) { return Status::OutOfRange("big"); })
                .code(),
            StatusCode::kOutOfRange);
  QueryRequest missing = SelectAll();
  missing.relation = "ships";
  bool called = false;
  EXPECT_EQ(db.Run(missing, {},
                   [&called](QueryResult&) {
                     called = true;
                     return Status::OK();
                   })
                .code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(called);
}

// Readers hold and encode results outside the Db lock while the writer
// appends: every held result must encode the same bytes before and
// after the batches that ran meanwhile (the ThreadSanitizer tree runs
// this too).
TEST(SharedTrails, ConcurrentReadersKeepTheirSnapshots) {
  Db db;
  ASSERT_TRUE(db.RegisterLive(kFleet).ok());
  for (int t = 0; t < 16; ++t) ASSERT_TRUE(db.Apply(Tick(t)).ok());
  std::atomic<bool> done{false};
  std::atomic<int> changed{0};
  std::atomic<int> checked{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      do {
        Result<QueryResult> res = db.Run(r == 0 ? FleetJoin() : SelectAll());
        if (!res.ok()) {
          changed.fetch_add(1);
          return;
        }
        const std::string first = Block(*res);
        std::this_thread::yield();
        if (Block(*res) != first) changed.fetch_add(1);
        checked.fetch_add(1);
      } while (!done.load());
    });
  }
  for (int t = 16; t < 200; ++t) {
    ASSERT_TRUE(db.Apply(Tick(t)).ok());
    if (t % 32 == 0) std::this_thread::yield();
  }
  done.store(true);
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(changed.load(), 0);
  EXPECT_GT(checked.load(), 0);
}

}  // namespace
}  // namespace modb
