// Epoch-pinned snapshot readers over VersionedSpillStore: a pin takes an
// immutable view of one committed epoch, reads through it are lock-free
// against a committing writer, and the pages a commit replaces stay
// parked (retired) until the last pin that could reference them drains.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "storage/fault.h"
#include "storage/recovery.h"

namespace modb {
namespace {

class EpochPinTest : public ::testing::Test {
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

  /// A blob big enough to occupy real pages, unique per (tag, epoch).
  static std::string Payload(char tag, std::uint64_t epoch) {
    std::string blob(5000, tag);
    for (std::size_t i = 0; i < blob.size(); i += 7) {
      blob[i] = char('0' + (epoch % 10));
    }
    return blob;
  }
};

TEST_F(EpochPinTest, PinObservesTheEpochItWasTakenOn) {
  const std::string path = TempPath("modb_pin_basic");
  auto store = VersionedSpillStore::Create(path, StoreOptions());
  ASSERT_TRUE(store.ok()) << store.status();

  VersionedSpillStore::EpochPin empty;
  EXPECT_FALSE(empty);

  ASSERT_TRUE(store->StageBlob(Payload('a', 1), SpillValueType::kOpaque).ok());
  ASSERT_TRUE(store->Commit().ok());

  VersionedSpillStore::EpochPin pin = store->PinEpoch();
  ASSERT_TRUE(bool(pin));
  EXPECT_EQ(pin.epoch(), 1u);
  ASSERT_EQ(pin.NumRoots(), 1u);
  EXPECT_EQ(store->NumPinnedEpochs(), 1u);

  auto blob = store->ReadRootBlob(pin, 0);
  ASSERT_TRUE(blob.ok()) << blob.status();
  EXPECT_EQ(*blob, Payload('a', 1));

  pin.Release();
  EXPECT_FALSE(pin);
  EXPECT_EQ(store->NumPinnedEpochs(), 0u);
  // Releasing twice is harmless.
  pin.Release();
}

TEST_F(EpochPinTest, PinnedViewSurvivesReplacingCommitByteIdentical) {
  const std::string path = TempPath("modb_pin_replace");
  auto store = VersionedSpillStore::Create(path, StoreOptions());
  ASSERT_TRUE(store.ok()) << store.status();

  ASSERT_TRUE(store->StageBlob(Payload('a', 1), SpillValueType::kOpaque).ok());
  ASSERT_TRUE(store->Commit().ok());

  VersionedSpillStore::EpochPin pin = store->PinEpoch();
  ASSERT_EQ(pin.epoch(), 1u);

  // The writer replaces root 0 and commits epoch 2: the replaced pages
  // must be retired, not freed, while the pin is alive.
  ASSERT_TRUE(
      store->RestageBlob(0, Payload('b', 2), SpillValueType::kOpaque).ok());
  ASSERT_TRUE(store->Commit().ok());
  EXPECT_EQ(store->epoch(), 2u);
  EXPECT_GT(store->NumRetiredPages(), 0u);
  EXPECT_TRUE(store->VerifyAccounting().ok());

  // The pinned view is byte-identical to the pre-commit state; the
  // unpinned read sees the new epoch.
  auto pinned = store->ReadRootBlob(pin, 0);
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  EXPECT_EQ(*pinned, Payload('a', 1));
  auto current = store->ReadRootBlob(0);
  ASSERT_TRUE(current.ok()) << current.status();
  EXPECT_EQ(*current, Payload('b', 2));

  // Dropping the last pin drains the retired run back into free.
  pin.Release();
  EXPECT_EQ(store->NumRetiredPages(), 0u);
  EXPECT_TRUE(store->VerifyAccounting().ok());
}

TEST_F(EpochPinTest, RetiredRunsDrainInPinOrder) {
  const std::string path = TempPath("modb_pin_order");
  auto store = VersionedSpillStore::Create(path, StoreOptions());
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->StageBlob(Payload('a', 1), SpillValueType::kOpaque).ok());
  ASSERT_TRUE(store->Commit().ok());

  VersionedSpillStore::EpochPin pin1 = store->PinEpoch();  // epoch 1
  ASSERT_TRUE(
      store->RestageBlob(0, Payload('b', 2), SpillValueType::kOpaque).ok());
  ASSERT_TRUE(store->Commit().ok());
  const std::size_t retired_after_2 = store->NumRetiredPages();
  EXPECT_GT(retired_after_2, 0u);

  VersionedSpillStore::EpochPin pin2 = store->PinEpoch();  // epoch 2
  ASSERT_TRUE(
      store->RestageBlob(0, Payload('c', 3), SpillValueType::kOpaque).ok());
  ASSERT_TRUE(store->Commit().ok());
  EXPECT_GT(store->NumRetiredPages(), retired_after_2);
  EXPECT_EQ(store->NumPinnedEpochs(), 2u);

  // Releasing the older pin frees only the runs no remaining pin could
  // reference: epoch 2's replaced pages stay parked for pin2.
  pin1.Release();
  EXPECT_GT(store->NumRetiredPages(), 0u);
  EXPECT_TRUE(store->VerifyAccounting().ok());
  auto view2 = store->ReadRootBlob(pin2, 0);
  ASSERT_TRUE(view2.ok()) << view2.status();
  EXPECT_EQ(*view2, Payload('b', 2));

  pin2.Release();
  EXPECT_EQ(store->NumRetiredPages(), 0u);
  EXPECT_EQ(store->NumPinnedEpochs(), 0u);
  EXPECT_TRUE(store->VerifyAccounting().ok());
}

TEST_F(EpochPinTest, PinSurvivesStoreMove) {
  const std::string path = TempPath("modb_pin_move");
  auto created = VersionedSpillStore::Create(path, StoreOptions());
  ASSERT_TRUE(created.ok()) << created.status();
  VersionedSpillStore store = std::move(*created);
  ASSERT_TRUE(store.StageBlob(Payload('m', 1), SpillValueType::kOpaque).ok());
  ASSERT_TRUE(store.Commit().ok());

  VersionedSpillStore::EpochPin pin = store.PinEpoch();
  VersionedSpillStore moved = std::move(store);  // pin must stay valid
  EXPECT_EQ(moved.NumPinnedEpochs(), 1u);
  auto blob = moved.ReadRootBlob(pin, 0);
  ASSERT_TRUE(blob.ok()) << blob.status();
  EXPECT_EQ(*blob, Payload('m', 1));
  pin.Release();
  EXPECT_EQ(moved.NumPinnedEpochs(), 0u);
}

TEST_F(EpochPinTest, PinOutlivingTheStoreReleasesSafely) {
  const std::string path = TempPath("modb_pin_outlive");
  VersionedSpillStore::EpochPin pin;
  {
    auto store = VersionedSpillStore::Create(path, StoreOptions());
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(
        store->StageBlob(Payload('o', 1), SpillValueType::kOpaque).ok());
    ASSERT_TRUE(store->Commit().ok());
    pin = store->PinEpoch();
    EXPECT_EQ(pin.epoch(), 1u);
  }
  // The store is gone; the pin still holds the snapshot metadata and
  // must release without touching freed store state.
  EXPECT_EQ(pin.NumRoots(), 1u);
  pin.Release();
}

TEST_F(EpochPinTest, ConcurrentReadersSeeFrozenViewsWhileWriterCommits) {
  const std::string path = TempPath("modb_pin_concurrent");
  auto store = VersionedSpillStore::Create(path, StoreOptions());
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->StageBlob(Payload('w', 1), SpillValueType::kOpaque).ok());
  ASSERT_TRUE(store->Commit().ok());

  // Record the expected bytes of every epoch the writer will commit
  // *before* any thread starts, so readers verify against ground truth.
  constexpr std::uint64_t kLastEpoch = 12;
  std::map<std::uint64_t, std::string> expected;
  expected[1] = Payload('w', 1);
  for (std::uint64_t e = 2; e <= kLastEpoch; ++e) {
    expected[e] = Payload('w', e);
  }

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> read_failures{0};
  std::atomic<int> views_verified{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        VersionedSpillStore::EpochPin pin = store->PinEpoch();
        const std::string& want = expected.at(pin.epoch());
        // Read the pinned root several times while the writer plows
        // ahead: the view must never change under the pin.
        for (int i = 0; i < 3; ++i) {
          auto blob = store->ReadRootBlob(pin, 0);
          if (!blob.ok()) {
            read_failures.fetch_add(1);
          } else if (*blob != want) {
            mismatches.fetch_add(1);
          } else {
            views_verified.fetch_add(1);
          }
        }
      }
    });
  }

  for (std::uint64_t e = 2; e <= kLastEpoch; ++e) {
    ASSERT_TRUE(
        store->RestageBlob(0, expected[e], SpillValueType::kOpaque).ok());
    ASSERT_TRUE(store->Commit().ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(read_failures.load(), 0);
  EXPECT_GT(views_verified.load(), 0);
  // All pins drained: no retired pages may survive, and every device
  // page must be accounted for — the zero-leak contract.
  EXPECT_EQ(store->NumPinnedEpochs(), 0u);
  EXPECT_EQ(store->NumRetiredPages(), 0u);
  EXPECT_TRUE(store->VerifyAccounting().ok());
}

TEST_F(EpochPinTest, ReopenStartsWithNoPinsAndNoRetiredPages) {
  const std::string path = TempPath("modb_pin_reopen");
  {
    auto store = VersionedSpillStore::Create(path, StoreOptions());
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(
        store->StageBlob(Payload('r', 1), SpillValueType::kOpaque).ok());
    ASSERT_TRUE(store->Commit().ok());
    // Die with a pin outstanding and retired pages parked: neither is
    // durable state, so recovery must reclaim everything.
    VersionedSpillStore::EpochPin pin = store->PinEpoch();
    ASSERT_TRUE(
        store->RestageBlob(0, Payload('r', 2), SpillValueType::kOpaque).ok());
    ASSERT_TRUE(store->Commit().ok());
    EXPECT_GT(store->NumRetiredPages(), 0u);
    ASSERT_TRUE(store->Abandon().ok());
    pin.Release();
  }
  auto reopened = VersionedSpillStore::Open(path, StoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->epoch(), 2u);
  EXPECT_EQ(reopened->NumPinnedEpochs(), 0u);
  EXPECT_EQ(reopened->NumRetiredPages(), 0u);
  EXPECT_TRUE(reopened->VerifyAccounting().ok());
  auto blob = reopened->ReadRootBlob(0);
  ASSERT_TRUE(blob.ok()) << blob.status();
  EXPECT_EQ(*blob, Payload('r', 2));
}

// The file shrinking underneath an open store (an external truncate, a
// lost extent) surfaces as a typed kDataLoss naming the file and the
// offset on the next read of an evicted page, never as a signal: the
// process keeps running and keeps serving the pages it still has.
TEST_F(EpochPinTest, TruncatedFileUnderOpenStoreReadsAsDataLoss) {
  const std::string path = TempPath("modb_pin_truncated");
  VersionedSpillStore::Options options = StoreOptions();
  options.pool_capacity = 4;
  auto store = VersionedSpillStore::Create(path, options);
  ASSERT_TRUE(store.ok()) << store.status();
  // Four two-page blobs: twice the pool, so committing them evicts the
  // first blob's pages.
  for (char tag : {'a', 'b', 'c', 'd'}) {
    ASSERT_TRUE(
        store->StageBlob(Payload(tag, 1), SpillValueType::kOpaque).ok());
  }
  ASSERT_TRUE(store->Commit().ok());

  VersionedSpillStore::EpochPin pin = store->PinEpoch();
  const SpillLocator first = pin.roots()[0].locator;
  ASSERT_FALSE(store->pool()->IsResident(first.first_page));

  // Cut the file just past the root slots: every blob page is gone.
  std::filesystem::resize_file(path, kPageFileHeaderSize + 2 * kPageSize);

  auto lost = store->ReadRootBlob(pin, 0);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kDataLoss) << lost.status();
  const std::string offset = std::to_string(
      kPageFileHeaderSize + std::uint64_t(first.first_page) * kPageSize);
  EXPECT_NE(lost.status().message().find(path), std::string::npos)
      << lost.status();
  EXPECT_NE(lost.status().message().find("offset " + offset),
            std::string::npos)
      << lost.status();

  // The store is still usable: a later read fails the same typed way,
  // and the pin releases cleanly.
  EXPECT_EQ(store->ReadRootBlob(pin, 0).status().code(),
            StatusCode::kDataLoss);
  pin.Release();
  EXPECT_EQ(store->NumPinnedEpochs(), 0u);
}

}  // namespace
}  // namespace modb
