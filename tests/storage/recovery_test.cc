#include "storage/recovery.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/range_set.h"
#include "storage/fault.h"
#include "storage/spill.h"
#include "validate/validate.h"

namespace modb {
namespace {

VersionedSpillStore::Options FastOptions() {
  VersionedSpillStore::Options o;
  o.pool_capacity = 8;
  o.retry.base_delay_micros = 0;
  return o;
}

std::string Blob(std::size_t n, unsigned seed) {
  std::string b(n, '\0');
  for (std::size_t i = 0; i < n; ++i) b[i] = char((seed + i * 131u) & 0xffu);
  return b;
}

Result<MovingInt> SomeMovingInt() {
  std::vector<UInt> units;
  for (int i = 0; i < 3; ++i) {
    auto iv = TimeInterval::Make(i * 2.0, i * 2.0 + 1.0, true, false);
    if (!iv.ok()) return iv.status();
    auto u = UInt::Make(*iv, 10 + i);
    if (!u.ok()) return u.status();
    units.push_back(*u);
  }
  return MovingInt::Make(std::move(units));
}

/// A Region whose stored halfsegment array breaks the ROSE order — the
/// trusted FromParts path accepts it; only the validator can object.
Result<Region> BrokenRegion() {
  Result<Region> good = Region::FromPolygon(
      {Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)});
  if (!good.ok()) return good.status();
  std::vector<HalfSegment> hs = good->halfsegments();
  std::swap(hs.front(), hs.back());
  return Region::FromParts(hs, good->cycles(), good->faces(), good->Area(),
                           good->Perimeter(), good->BoundingBox());
}

/// Post-recovery liveness: the store must still accept a fresh commit.
bool StoreCommittable(VersionedSpillStore* store) {
  auto idx = store->StageBlob("liveness", SpillValueType::kOpaque);
  return idx.ok() && store->Commit().ok() && store->VerifyAccounting().ok();
}

TEST(VersionedSpillStore, CreateOpenRoundTrip) {
  const std::string path = ::testing::TempDir() + "/modb_recovery_rt.bin";
  auto store = VersionedSpillStore::Create(path, FastOptions());
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->epoch(), 0u);
  EXPECT_EQ(store->NumRoots(), 0u);

  const std::string opaque = Blob(9000, 1);
  auto i0 = store->StageBlob(opaque, SpillValueType::kOpaque);
  ASSERT_TRUE(i0.ok());
  auto mi = SomeMovingInt();
  ASSERT_TRUE(mi.ok());
  auto i1 = store->StageValue(*mi);
  ASSERT_TRUE(i1.ok());
  // Staged state is invisible until Commit.
  EXPECT_EQ(store->NumRoots(), 0u);
  ASSERT_TRUE(store->Commit().ok());
  EXPECT_EQ(store->epoch(), 1u);
  ASSERT_EQ(store->NumRoots(), 2u);
  EXPECT_TRUE(store->VerifyAccounting().ok());

  auto reopened = VersionedSpillStore::Open(path, FastOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->epoch(), 1u);
  ASSERT_EQ(reopened->NumRoots(), 2u);
  auto blob = reopened->ReadRootBlob(0);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, opaque);
  auto loaded = reopened->LoadRoot<MovingInt>(1);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->units().size(), mi->units().size());
  EXPECT_TRUE(reopened->VerifyAccounting().ok());
  EXPECT_EQ(reopened->recovery_info().epoch, 1u);
  EXPECT_EQ(reopened->recovery_info().roots_rejected, 0u);
}

TEST(VersionedSpillStore, CommittedBytesUntouchedWhileStaging) {
  const std::string path = ::testing::TempDir() + "/modb_recovery_shadow.bin";
  auto store = VersionedSpillStore::Create(path, FastOptions());
  ASSERT_TRUE(store.ok());
  const std::string v1 = Blob(5000, 1);
  const std::string v2 = Blob(6000, 2);
  ASSERT_TRUE(store->StageBlob(v1, SpillValueType::kOpaque).ok());
  ASSERT_TRUE(store->Commit().ok());

  // Restage a new version: the committed root must keep serving the old
  // bytes until the commit point — shadow pages only.
  ASSERT_TRUE(store->RestageBlob(0, v2, SpillValueType::kOpaque).ok());
  auto before = store->ReadRootBlob(0);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, v1);
  ASSERT_TRUE(store->Commit().ok());
  auto after = store->ReadRootBlob(0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, v2);
  EXPECT_TRUE(store->VerifyAccounting().ok());
}

TEST(VersionedSpillStore, ReplacedPagesAreReusedNotLeaked) {
  const std::string path = ::testing::TempDir() + "/modb_recovery_reuse.bin";
  auto store = VersionedSpillStore::Create(path, FastOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->StageBlob(Blob(9000, 0), SpillValueType::kOpaque).ok());
  ASSERT_TRUE(store->Commit().ok());

  // Alternating same-size rewrites must ping-pong between the value's
  // pages and its shadow copy; the device stops growing.
  for (unsigned gen = 1; gen <= 2; ++gen) {
    ASSERT_TRUE(
        store->RestageBlob(0, Blob(9000, gen), SpillValueType::kOpaque).ok());
    ASSERT_TRUE(store->Commit().ok());
  }
  const std::size_t pages_after_warmup = store->NumDevicePages();
  for (unsigned gen = 3; gen <= 8; ++gen) {
    ASSERT_TRUE(
        store->RestageBlob(0, Blob(9000, gen), SpillValueType::kOpaque).ok());
    ASSERT_TRUE(store->Commit().ok());
    EXPECT_TRUE(store->VerifyAccounting().ok());
  }
  EXPECT_EQ(store->NumDevicePages(), pages_after_warmup);
  auto final = store->ReadRootBlob(0);
  ASSERT_TRUE(final.ok());
  EXPECT_EQ(*final, Blob(9000, 8));
}

TEST(VersionedSpillStore, TornRootRecordFallsBackToPreviousEpoch) {
  const std::string path = ::testing::TempDir() + "/modb_recovery_torn.bin";
  const std::string v1 = Blob(3000, 1);
  {
    auto store = VersionedSpillStore::Create(path, FastOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->StageBlob(v1, SpillValueType::kOpaque).ok());
    ASSERT_TRUE(store->Commit().ok());  // epoch 1, slot 1
  }
  // Simulate a commit of epoch 2 crashing mid-root-write: garbage lands
  // in slot 0 (over the old epoch-0 record).
  {
    auto dev = FilePageDevice::Open(path);
    ASSERT_TRUE(dev.ok());
    char junk[kPageSize];
    for (std::size_t i = 0; i < kPageSize; ++i) junk[i] = char(i * 7 + 1);
    ASSERT_TRUE(dev->WritePage(kRootSlotPages[0], junk).ok());
  }
  auto reopened = VersionedSpillStore::Open(path, FastOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->epoch(), 1u);
  EXPECT_EQ(reopened->recovery_info().roots_rejected, 1u);
  auto blob = reopened->ReadRootBlob(0);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, v1);
  // And the store must be able to commit over the junk slot.
  ASSERT_TRUE(StoreCommittable(&*reopened));
}

TEST(VersionedSpillStore, ValidationRejectsStructurallyBrokenRoot) {
  const std::string path = ::testing::TempDir() + "/modb_recovery_invalid.bin";
  auto broken = BrokenRegion();
  ASSERT_TRUE(broken.ok()) << broken.status();
  {
    auto store = VersionedSpillStore::Create(path, FastOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->StageValue(*broken).ok());
    ASSERT_TRUE(store->Commit().ok());  // epoch 1: checksummed but invalid
  }
  // With validation on (the default), recovery refuses to serve the
  // broken epoch and falls back to the intact empty epoch 0.
  auto validated = VersionedSpillStore::Open(path, FastOptions());
  ASSERT_TRUE(validated.ok()) << validated.status();
  EXPECT_EQ(validated->epoch(), 0u);
  EXPECT_EQ(validated->NumRoots(), 0u);
  EXPECT_GE(validated->recovery_info().roots_rejected, 1u);
  // With validation off, CRC trust alone accepts the bytes — which is
  // exactly why the validated path is the default.
  VersionedSpillStore::Options trusting = FastOptions();
  trusting.validate_on_open = false;
  auto unvalidated = VersionedSpillStore::Open(path, trusting);
  ASSERT_TRUE(unvalidated.ok());
  EXPECT_EQ(unvalidated->epoch(), 1u);
}

// The two halves of recovery's decode-then-validate pass on one value:
// FlatCodec accepts the broken region's bytes (FromParts only
// bounds-checks), and the Section-3 validator rejects the decoded value.
TEST(SpilledLoadValidated, RejectsValueTheDecoderTrusts) {
  auto broken = BrokenRegion();
  ASSERT_TRUE(broken.ok());
  const std::string blob = SerializeFlat(ToFlat(*broken));
  auto flat = ParseFlat(blob);
  ASSERT_TRUE(flat.ok()) << flat.status();
  auto decoded = FlatCodec<Region>::FromFlat(*flat);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_FALSE(validate::ValidateRegion(*decoded).ok());
  EXPECT_FALSE(
      DecodeAndValidateRootBlob(SpillValueType::kRegion, blob).ok());
}

TEST(VersionedSpillStore, TransientReadFaultsAbsorbedByRetry) {
  if (!kFaultsEnabled) GTEST_SKIP() << "faults compiled out";
  const std::string path = ::testing::TempDir() + "/modb_recovery_retry.bin";
  const std::string payload = Blob(9000, 9);
  {
    auto store = VersionedSpillStore::Create(path, FastOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->StageBlob(payload, SpillValueType::kOpaque).ok());
    ASSERT_TRUE(store->Commit().ok());
  }
  FaultInjector::Global().Disarm();
  FaultInjector::Global().FailNth(FaultOp::kRead, 2);
  auto reopened = VersionedSpillStore::Open(path, FastOptions());
  FaultInjector::Global().Disarm();
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto blob = reopened->ReadRootBlob(0);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, payload);
}

TEST(VersionedSpillStore, AbandonDropsUnflushedStagingBytes) {
  const std::string path = ::testing::TempDir() + "/modb_recovery_abandon.bin";
  const std::string v1 = Blob(2000, 1);
  auto store = VersionedSpillStore::Create(path, FastOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->StageBlob(v1, SpillValueType::kOpaque).ok());
  ASSERT_TRUE(store->Commit().ok());
  ASSERT_TRUE(store->RestageBlob(0, Blob(2000, 2),
                                 SpillValueType::kOpaque).ok());
  ASSERT_TRUE(store->Abandon().ok());
  EXPECT_FALSE(store->Commit().ok());

  auto reopened = VersionedSpillStore::Open(path, FastOptions());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->epoch(), 1u);
  auto blob = reopened->ReadRootBlob(0);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, v1);
}

}  // namespace
}  // namespace modb
