#include "storage/fault.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "storage/retry.h"
#include "storage/spill.h"

namespace modb {
namespace {

// Every test disarms on both ends so no plan leaks across tests (the
// injector is process-global).
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kFaultsEnabled) {
      GTEST_SKIP() << "built without MODB_FAULTS";
    }
    FaultInjector::Global().Disarm();
  }
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

TEST_F(FaultTest, NthReadFailsThenRecovers) {
  PageStore store;
  ASSERT_TRUE(store.AllocatePages(3).ok());
  char page[kPageSize];
  FaultInjector::Global().FailNth(FaultOp::kRead, 1);
  EXPECT_TRUE(store.ReadPage(0, page).ok());   // op 0: clean
  Status failed = store.ReadPage(1, page);     // op 1: injected
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kInternal);
  EXPECT_NE(failed.message().find("injected read fault"), std::string::npos);
  EXPECT_TRUE(store.ReadPage(1, page).ok());   // plan is one-shot
  EXPECT_GE(FaultInjector::Global().OpCount(FaultOp::kRead), 3u);
}

TEST_F(FaultTest, ReadFaultSurfacesThroughBufferPool) {
  PageStore store;
  ASSERT_TRUE(store.AllocatePages(2).ok());
  BufferPool pool(&store, 2);
  FaultInjector::Global().FailNth(FaultOp::kRead, 0);
  auto ref = pool.Pin(0);
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.status().code(), StatusCode::kInternal);
  EXPECT_EQ(pool.stats().read_errors, 1u);
  EXPECT_FALSE(pool.IsResident(0));
  // The failed frame went back on the free list; the pool still works.
  auto retry = pool.Pin(0);
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(pool.NumResident(), 1u);
}

TEST_F(FaultTest, WritebackFailureKeepsDirtyPageResident) {
  PageStore store;
  ASSERT_TRUE(store.AllocatePages(2).ok());
  BufferPool pool(&store, 1);
  {
    auto ref = pool.Pin(0);
    ASSERT_TRUE(ref.ok());
    ref->mutable_data()[0] = 'D';
  }
  FaultInjector::Global().FailNth(FaultOp::kWrite, 0);
  // Evicting page 0 requires a writeback, which fails; the pin must fail
  // without losing the dirty bytes.
  auto blocked = pool.Pin(1);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(pool.IsResident(0));
  EXPECT_EQ(pool.stats().write_errors, 1u);

  // Once the device heals, the same eviction succeeds and the bytes land.
  auto ok = pool.Pin(1);
  ASSERT_TRUE(ok.ok()) << ok.status();
  char page[kPageSize];
  ASSERT_TRUE(store.ReadPage(0, page).ok());
  EXPECT_EQ(page[0], 'D');
}

TEST_F(FaultTest, FlushAllSurfacesInjectedWriteFailure) {
  PageStore store;
  ASSERT_TRUE(store.AllocatePages(1).ok());
  BufferPool pool(&store, 1);
  {
    auto ref = pool.Pin(0);
    ASSERT_TRUE(ref.ok());
    ref->MarkDirty();
  }
  FaultInjector::Global().FailNth(FaultOp::kWrite, 0);
  EXPECT_FALSE(pool.FlushAll().ok());
  EXPECT_TRUE(pool.FlushAll().ok());  // retry after the one-shot plan fired
}

TEST_F(FaultTest, SpillWriteFailureSurfacesAsError) {
  PageStore store;
  FaultInjector::Global().FailNth(FaultOp::kWrite, 1);
  // Page 0 writes fine, page 1 fails: SpillBlob must report the error.
  auto loc = SpillBlob(&store, std::string(kSpillPayloadSize * 3, 's'));
  ASSERT_FALSE(loc.ok());
  EXPECT_EQ(loc.status().code(), StatusCode::kInternal);
}

TEST_F(FaultTest, TornSpillWriteIsCaughtByChecksumOnRead) {
  PageStore store;
  std::string blob(kSpillPayloadSize + 500, 't');
  // Tear the second page: header survives (first 16 bytes of the write),
  // but only 100 payload bytes persist, so its CRC cannot match.
  FaultInjector::Global().TearNth(1, kSpillHeaderSize + 100);
  auto loc = SpillBlob(&store, blob);
  ASSERT_TRUE(loc.ok()) << loc.status();  // torn writes are silent

  BufferPool pool(&store, 4);
  auto back = ReadSpilledBlob(&pool, *loc);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("checksum"), std::string::npos)
      << back.status();
}

TEST_F(FaultTest, TornHeaderIsCaughtByMagicCheck) {
  PageStore store;
  // Keep only 3 bytes of the first page: even the magic is incomplete.
  FaultInjector::Global().TearNth(0, 3);
  auto loc = SpillBlob(&store, std::string(64, 'u'));
  ASSERT_TRUE(loc.ok());
  BufferPool pool(&store, 4);
  auto back = ReadSpilledBlob(&pool, *loc);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FaultTest, TornSpilledValueNeverDecodes) {
  MovingInt mi = *MovingInt::Make(
      {*UInt::Make(*TimeInterval::Make(0, 5, true, true), 7)});
  const std::string blob = SerializeFlat(ToFlat(mi));
  PageStore store;
  FaultInjector::Global().TearNth(0, kSpillHeaderSize + 4);
  auto loc = SpillBlob(&store, blob);
  ASSERT_TRUE(loc.ok()) << loc.status();  // torn writes are silent
  // Recovery's read path (ReadSpilledBlob → ParseFlat → FlatCodec) stops
  // at the page check: no byte of the torn value reaches the decoder.
  BufferPool pool(&store, 4);
  auto back = ReadSpilledBlob(&pool, *loc);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("checksum"), std::string::npos)
      << back.status();
}

TEST_F(FaultTest, FilePageDeviceReadAndWriteFaults) {
  const std::string path = ::testing::TempDir() + "/modb_fault_device.bin";
  auto device = FilePageDevice::Create(path);
  ASSERT_TRUE(device.ok()) << device.status();
  // Create's header write counted as a write op; re-arm from zero now.
  FaultInjector::Global().Disarm();
  ASSERT_TRUE(device->AllocatePages(2).ok());

  char page[kPageSize];
  FaultInjector::Global().FailNth(FaultOp::kRead, 0);
  EXPECT_FALSE(device->ReadPage(0, page).ok());
  EXPECT_TRUE(device->ReadPage(0, page).ok());

  FaultInjector::Global().FailNth(FaultOp::kWrite, 0);
  EXPECT_FALSE(device->WritePage(0, page).ok());
  EXPECT_TRUE(device->WritePage(0, page).ok());
}

TEST_F(FaultTest, TornFileGrowthFailsLaterReads) {
  const std::string path = ::testing::TempDir() + "/modb_fault_grow.bin";
  auto device = FilePageDevice::Create(path);
  ASSERT_TRUE(device.ok()) << device.status();
  FaultInjector::Global().Disarm();
  // The grow tears after one page's worth of bytes: pages 1..3 are never
  // materialized even though the header admits them.
  FaultInjector::Global().TearNth(0, kPageSize);
  ASSERT_TRUE(device->AllocatePages(4).ok());
  char page[kPageSize];
  EXPECT_TRUE(device->ReadPage(0, page).ok());
  EXPECT_FALSE(device->ReadPage(3, page).ok());
}

TEST_F(FaultTest, ShortReadReportsDataLossWithOffsetAndCounts) {
  const std::string path = ::testing::TempDir() + "/modb_fault_short_read.bin";
  auto device = FilePageDevice::Create(path);
  ASSERT_TRUE(device.ok()) << device.status();
  FaultInjector::Global().Disarm();
  // Tear the growth after one page: pages 1..3 are phantoms the header
  // admits but the file never materialized.
  FaultInjector::Global().TearNth(0, kPageSize);
  ASSERT_TRUE(device->AllocatePages(4).ok());

  char page[kPageSize];
  Status lost = device->ReadPage(3, page);
  ASSERT_FALSE(lost.ok());
  // A short read is permanent data loss — retrying cannot help — and the
  // Status must carry enough detail to locate the hole: file, byte
  // offset (24-byte header + 3 pages), expected and actual counts.
  EXPECT_EQ(lost.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(IsTransient(lost));
  EXPECT_NE(lost.message().find(path), std::string::npos) << lost;
  EXPECT_NE(lost.message().find("offset " + std::to_string(24 + 3 * kPageSize)),
            std::string::npos)
      << lost;
  EXPECT_NE(lost.message().find("expected " + std::to_string(kPageSize)),
            std::string::npos)
      << lost;
  EXPECT_NE(lost.message().find("got "), std::string::npos) << lost;
}

TEST_F(FaultTest, ExternallyTruncatedFileReadsAsDataLoss) {
  const std::string path = ::testing::TempDir() + "/modb_fault_truncated.bin";
  auto device = FilePageDevice::Create(path);
  ASSERT_TRUE(device.ok()) << device.status();
  FaultInjector::Global().Disarm();
  ASSERT_TRUE(device->AllocatePages(2).ok());
  char page[kPageSize];
  for (std::size_t i = 0; i < kPageSize; ++i) page[i] = 'x';
  ASSERT_TRUE(device->WritePage(1, page).ok());

  // Cut the file mid-way through page 1, as a crashed filesystem might.
  std::filesystem::resize_file(path, 24 + kPageSize + 100);

  Status lost = device->ReadPage(1, page);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.code(), StatusCode::kDataLoss);
  EXPECT_NE(lost.message().find("offset " + std::to_string(24 + kPageSize)),
            std::string::npos)
      << lost;
  EXPECT_NE(lost.message().find("got 100"), std::string::npos) << lost;
  // Page 0 is still intact: the loss report is per-page, not per-file.
  EXPECT_TRUE(device->ReadPage(0, page).ok());
}

TEST_F(FaultTest, TornSaveToFileIsRejectedOnLoad) {
  PageStore store;
  ASSERT_TRUE(store.AllocatePages(3).ok());
  const std::string path = ::testing::TempDir() + "/modb_fault_save.bin";

  FaultInjector::Global().FailNth(FaultOp::kWrite, 0);
  EXPECT_FALSE(store.SaveToFile(path).ok());

  // A torn save persists the header plus one page of a three-page store.
  FaultInjector::Global().TearNth(0, 24 + kPageSize);
  ASSERT_TRUE(store.SaveToFile(path).ok());
  auto loaded = PageStore::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos)
      << loaded.status();

  // Healed device: the round trip works again.
  ASSERT_TRUE(store.SaveToFile(path).ok());
  EXPECT_TRUE(PageStore::LoadFromFile(path).ok());
}

}  // namespace
}  // namespace modb
