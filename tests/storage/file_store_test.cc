// The store and spill contracts on the on-disk device: spills round-trip
// through the buffer pool, torn writes are caught by page checksums, and
// VersionedSpillStore commits, recovers and validates through
// FilePageDevice.

#include <gtest/gtest.h>

#include <string>

#include "storage/buffer_pool.h"
#include "storage/fault.h"
#include "storage/page_store.h"
#include "storage/recovery.h"
#include "storage/spill.h"

namespace modb {
namespace {

class FileStoreTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Disarm(); }
  void TearDown() override { FaultInjector::Global().Disarm(); }

  static VersionedSpillStore::Options StoreOptions() {
    VersionedSpillStore::Options options;
    options.pool_capacity = 16;
    return options;
  }

  static std::string TempPath(const char* name) {
    return ::testing::TempDir() + "/" + name + "_file.bin";
  }
};

TEST_F(FileStoreTest, SpillRoundTripThroughBufferPool) {
  const std::string path = TempPath("modb_dev_spill");
  auto dev = FilePageDevice::Create(path);
  ASSERT_TRUE(dev.ok()) << dev.status();

  const std::string blob(kSpillPayloadSize * 2 + 700, 'q');
  auto loc = SpillBlob(&*dev, blob);
  ASSERT_TRUE(loc.ok()) << loc.status();

  BufferPool pool(&*dev, 8);
  auto back = ReadSpilledBlob(&pool, *loc);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, blob);
}

TEST_F(FileStoreTest, TornSpillWriteIsCaughtByChecksumOnRead) {
  if (!kFaultsEnabled) GTEST_SKIP() << "built without MODB_FAULTS";
  const std::string path = TempPath("modb_dev_torn");
  auto dev = FilePageDevice::Create(path);
  ASSERT_TRUE(dev.ok()) << dev.status();
  FaultInjector::Global().Disarm();  // drop Create's header-write count

  // Tear the second spill page after 100 payload bytes: the device
  // reports success but the page CRC cannot match on read.
  std::string blob(kSpillPayloadSize + 500, 't');
  FaultInjector::Global().TearNth(1, kSpillHeaderSize + 100);
  auto loc = SpillBlob(&*dev, blob);
  ASSERT_TRUE(loc.ok()) << loc.status();

  BufferPool pool(&*dev, 8);
  auto back = ReadSpilledBlob(&pool, *loc);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("checksum"), std::string::npos)
      << back.status();
}

TEST_F(FileStoreTest, StoreCreateCommitReopenRoundTrip) {
  const std::string path = TempPath("modb_dev_store");
  auto store = VersionedSpillStore::Create(path, StoreOptions());
  ASSERT_TRUE(store.ok()) << store.status();

  const std::string a(5000, 'a');
  const std::string b(123, 'b');
  ASSERT_TRUE(store->StageBlob(a, SpillValueType::kOpaque).ok());
  ASSERT_TRUE(store->StageBlob(b, SpillValueType::kOpaque).ok());
  ASSERT_TRUE(store->Commit().ok());
  EXPECT_EQ(store->epoch(), 1u);
  EXPECT_TRUE(store->VerifyAccounting().ok());

  auto reopened = VersionedSpillStore::Open(path, StoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->epoch(), 1u);
  ASSERT_EQ(reopened->NumRoots(), 2u);
  auto back_a = reopened->ReadRootBlob(0);
  auto back_b = reopened->ReadRootBlob(1);
  ASSERT_TRUE(back_a.ok()) << back_a.status();
  ASSERT_TRUE(back_b.ok()) << back_b.status();
  EXPECT_EQ(*back_a, a);
  EXPECT_EQ(*back_b, b);
  EXPECT_TRUE(reopened->VerifyAccounting().ok());
}

TEST_F(FileStoreTest, AbandonedCommitRecoversToPreviousEpoch) {
  const std::string path = TempPath("modb_dev_abandon");
  auto store = VersionedSpillStore::Create(path, StoreOptions());
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(
      store->StageBlob(std::string(2000, '1'), SpillValueType::kOpaque).ok());
  ASSERT_TRUE(store->Commit().ok());

  // Stage epoch 2 but die before Commit: the staged pages are orphans
  // a reopen must reclaim, and the committed state must be epoch 1.
  ASSERT_TRUE(
      store->RestageBlob(0, std::string(2000, '2'), SpillValueType::kOpaque)
          .ok());
  ASSERT_TRUE(store->Abandon().ok());

  auto reopened = VersionedSpillStore::Open(path, StoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->epoch(), 1u);
  auto blob = reopened->ReadRootBlob(0);
  ASSERT_TRUE(blob.ok()) << blob.status();
  EXPECT_EQ(*blob, std::string(2000, '1'));
  EXPECT_TRUE(reopened->VerifyAccounting().ok());
}

TEST_F(FileStoreTest, TypedValueSurvivesCommitAndValidatedReopen) {
  const std::string path = TempPath("modb_dev_typed");
  auto store = VersionedSpillStore::Create(path, StoreOptions());
  ASSERT_TRUE(store.ok()) << store.status();

  MovingInt mi = *MovingInt::Make(
      {*UInt::Make(*TimeInterval::Make(0, 5, true, true), 7),
       *UInt::Make(*TimeInterval::Make(5, 9, false, true), 11)});
  auto idx = store->StageValue(mi);
  ASSERT_TRUE(idx.ok()) << idx.status();
  ASSERT_TRUE(store->Commit().ok());

  auto reopened = VersionedSpillStore::Open(path, StoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto back = reopened->LoadRoot<MovingInt>(*idx);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->NumUnits(), 2u);
}

}  // namespace
}  // namespace modb
