// The durable ingest path's cost must follow the batch, not the history.
// Measured deterministically — pages the store's buffer pool writes to
// the device, never time — per one-tick Persist after histories of 1k
// and of 16k fixes per object. Rewriting every touched trail per commit
// grows that count linearly with the history (71 to 802 pages per tick
// across these two points); the fix log plus size-triggered checkpoints
// grows it at most with the square root of the history (4x), since a
// checkpoint's bytes are amortized over the commits whose restaged log
// bytes paid for it (3.5 to 9.7 pages per tick).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/live_relation.h"
#include "storage/recovery.h"

namespace modb {
namespace ingest {
namespace {

constexpr int kObjects = 4;
// Enough one-tick batches to span several checkpoint cycles at either
// history length, so the average does not depend on where one starts.
constexpr int kMeasuredTicks = 768;

// Fix of object o at tick t: a wobbling walk, so consecutive units
// never merge and every tick adds one unit per object.
IngestFix FixAt(int o, int t) {
  return {"obj" + std::to_string(o), double(t),
          double(o * 100 + t) + double((t * 7 + o) % 5),
          double(o * -50 + t) + double((t * 3 + o) % 7)};
}

// Device page writes per one-tick Ingest + Persist after `history`
// fixes per object (loaded in large durable batches first).
double PageWritesPerTick(int history) {
  const std::string path = ::testing::TempDir() + "/persist_cost_store.bin";
  Result<VersionedSpillStore> store = VersionedSpillStore::Create(path);
  EXPECT_TRUE(store.ok()) << store.status();
  if (!store.ok()) return 0;
  LiveRelation live("fleet");
  EXPECT_TRUE(live.AttachStore(&*store).ok());
  constexpr int kHistoryBatchTicks = 512;
  for (int t0 = 0; t0 < history; t0 += kHistoryBatchTicks) {
    std::vector<IngestFix> batch;
    for (int t = t0; t < std::min(history, t0 + kHistoryBatchTicks); ++t) {
      for (int o = 0; o < kObjects; ++o) batch.push_back(FixAt(o, t));
    }
    EXPECT_TRUE(live.Ingest(batch).ok());
    EXPECT_TRUE(live.Persist().ok());
  }
  const std::uint64_t before = store->pool()->stats().writebacks;
  for (int t = history; t < history + kMeasuredTicks; ++t) {
    std::vector<IngestFix> tick;
    for (int o = 0; o < kObjects; ++o) tick.push_back(FixAt(o, t));
    EXPECT_TRUE(live.Ingest(tick).ok());
    EXPECT_TRUE(live.Persist().ok());
  }
  const std::uint64_t written = store->pool()->stats().writebacks - before;
  EXPECT_GT(live.checkpoints(), 1u);
  return double(written) / kMeasuredTicks;
}

TEST(LiveCost, PersistPageWritesPerTickGrowAtMostFourfoldFrom1kTo16kFixes) {
  const double at_1k = PageWritesPerTick(1024);
  const double at_16k = PageWritesPerTick(16384);
  ASSERT_GT(at_1k, 0);
  RecordProperty("pages_per_tick_1k", std::to_string(at_1k));
  RecordProperty("pages_per_tick_16k", std::to_string(at_16k));
  EXPECT_LE(at_16k, 4 * at_1k) << "1k: " << at_1k << ", 16k: " << at_16k;
}

}  // namespace
}  // namespace ingest
}  // namespace modb
