// Failure-injection tests for the spill page format: corrupted page
// headers, mutated locators, and lying payload lengths must surface as
// clean error statuses — never crashes, hangs, or unbounded allocation.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "storage/recovery.h"
#include "storage/spill.h"

namespace modb {
namespace {

std::string SampleBlob(std::size_t n) {
  std::string b(n, '\0');
  for (std::size_t i = 0; i < n; ++i) b[i] = char((i * 37u + 5u) & 0xffu);
  return b;
}

struct SpilledFixture {
  PageStore device;
  SpillLocator loc;
  std::string blob;
};

SpilledFixture MakeFixture(std::size_t n) {
  SpilledFixture f;
  f.blob = SampleBlob(n);
  f.loc = *SpillBlob(&f.device, f.blob);
  return f;
}

TEST(SpillFuzz, PageHeaderByteCorruptionAlwaysErrors) {
  SpilledFixture f = MakeFixture(9000);
  // Every byte of every page header, every bit: magic, version, flags,
  // sequence number, payload length, checksum.
  for (std::uint32_t p = 0; p < f.loc.num_pages; ++p) {
    char original[kPageSize];
    ASSERT_TRUE(f.device.ReadPage(f.loc.first_page + p, original).ok());
    for (std::size_t byte = 0; byte < kSpillHeaderSize; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        char mutated[kPageSize];
        std::memcpy(mutated, original, kPageSize);
        mutated[byte] ^= char(1 << bit);
        ASSERT_TRUE(
            f.device.WritePage(f.loc.first_page + p, mutated).ok());
        BufferPool pool(&f.device, 8);
        auto read = ReadSpilledBlob(&pool, f.loc);
        // The only header bits a reader may tolerate are the reserved
        // flag bits (byte 5, bits 1-7) — they are outside both the
        // checked flag mask and the payload checksum. Even then the
        // decoded bytes must be pristine.
        const bool reserved_flag_bit = (byte == 5 && bit != 0);
        if (read.ok()) {
          EXPECT_TRUE(reserved_flag_bit)
              << "page " << p << " header byte " << byte << " bit " << bit
              << " flipped but the blob still decoded";
          EXPECT_EQ(*read, f.blob);
        }
      }
    }
    ASSERT_TRUE(f.device.WritePage(f.loc.first_page + p, original).ok());
  }
  // Control: the pristine pages round-trip.
  BufferPool pool(&f.device, 8);
  auto read = ReadSpilledBlob(&pool, f.loc);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, f.blob);
}

TEST(SpillFuzz, PayloadCorruptionAlwaysErrors) {
  SpilledFixture f = MakeFixture(6000);
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<std::uint32_t> page(0, f.loc.num_pages - 1);
  std::uniform_int_distribution<std::size_t> pos(kSpillHeaderSize,
                                                 kPageSize - 1);
  for (int trial = 0; trial < 300; ++trial) {
    std::uint32_t p = f.loc.first_page + page(rng);
    char original[kPageSize];
    ASSERT_TRUE(f.device.ReadPage(p, original).ok());
    char mutated[kPageSize];
    std::memcpy(mutated, original, kPageSize);
    std::size_t at = pos(rng);
    mutated[at] ^= char(1 << (rng() % 8));
    ASSERT_TRUE(f.device.WritePage(p, mutated).ok());
    BufferPool pool(&f.device, 8);
    auto read = ReadSpilledBlob(&pool, f.loc);
    // A flip past the used payload prefix of the last page is outside
    // the checksummed region; anywhere else it must error.
    if (read.ok()) {
      EXPECT_EQ(*read, f.blob) << "corrupt payload decoded at byte " << at;
    }
    ASSERT_TRUE(f.device.WritePage(p, original).ok());
  }
}

TEST(SpillFuzz, MutatedLocatorsNeverCrashOrOverallocate) {
  SpilledFixture f = MakeFixture(9000);
  BufferPool pool(&f.device, 8);
  const std::uint32_t kEdge[] = {
      0u,       1u,
      f.loc.first_page, f.loc.num_pages, f.loc.num_bytes,
      std::uint32_t(f.device.NumPages()),
      std::numeric_limits<std::uint32_t>::max() - 1,
      std::numeric_limits<std::uint32_t>::max()};
  for (std::uint32_t first : kEdge) {
    for (std::uint32_t pages : kEdge) {
      for (std::uint32_t bytes : kEdge) {
        SpillLocator mutated{first, pages, bytes};
        // Must return a clean Status (or, for the identity locator, the
        // original bytes) without touching out-of-range memory or
        // reserving gigabytes for a lying num_bytes.
        auto read = ReadSpilledBlob(&pool, mutated);
        if (read.ok()) {
          EXPECT_TRUE(*read == f.blob)
              << "locator {" << first << ", " << pages << ", " << bytes
              << "} decoded " << read->size() << " unexpected bytes";
        }
      }
    }
  }
}

TEST(SpillFuzz, RandomLocatorFuzzIsAlwaysClean) {
  SpilledFixture f = MakeFixture(5000);
  BufferPool pool(&f.device, 8);
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 2000; ++trial) {
    SpillLocator loc{std::uint32_t(rng()), std::uint32_t(rng()),
                     std::uint32_t(rng())};
    auto read = ReadSpilledBlob(&pool, loc);  // must not crash or throw
    if (read.ok()) {
      EXPECT_EQ(*read, f.blob);
    }
  }
}

TEST(SpillFuzz, CorruptRootRecordsNeverCrashRecovery) {
  const std::string path = ::testing::TempDir() + "/modb_spill_fuzz_root.bin";
  {
    auto store = VersionedSpillStore::Create(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->StageBlob(SampleBlob(3000),
                                 SpillValueType::kOpaque).ok());
    ASSERT_TRUE(store->Commit().ok());
  }
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    // Corrupt a random byte of a random root slot on the real file, then
    // reopen: recovery must either fall back to the other slot or fail
    // with a clean Status — never crash, never serve corrupt roots.
    {
      auto dev = FilePageDevice::Open(path);
      ASSERT_TRUE(dev.ok());
      std::uint32_t slot = kRootSlotPages[rng() % 2];
      char page[kPageSize];
      ASSERT_TRUE(dev->ReadPage(slot, page).ok());
      char original = page[rng() % kPageSize];
      page[rng() % kPageSize] = char(rng());
      ASSERT_TRUE(dev->WritePage(slot, page).ok());
      (void)original;
    }
    auto reopened = VersionedSpillStore::Open(path);
    if (reopened.ok()) {
      EXPECT_TRUE(reopened->VerifyAccounting().ok());
      for (std::size_t i = 0; i < reopened->NumRoots(); ++i) {
        auto blob = reopened->ReadRootBlob(i);
        if (blob.ok()) {
          EXPECT_EQ(blob->size(), 3000u);
        }
      }
      // Repair the store for the next trial by committing fresh state.
      ASSERT_TRUE(reopened->Commit().ok());
    } else {
      // Both slots dead: rebuild and continue fuzzing.
      auto rebuilt = VersionedSpillStore::Create(path);
      ASSERT_TRUE(rebuilt.ok());
      ASSERT_TRUE(rebuilt->StageBlob(SampleBlob(3000),
                                     SpillValueType::kOpaque).ok());
      ASSERT_TRUE(rebuilt->Commit().ok());
    }
  }
}

}  // namespace
}  // namespace modb
