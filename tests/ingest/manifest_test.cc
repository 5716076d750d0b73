// Live-relation manifest compatibility and hardening. Stores written by
// older builds — v1 (ids + last fixes) and v2 (+ the dedup window), both
// without a fix log — must still recover, byte for byte, and go on
// ingesting; a v3 manifest whose fix log is truncated, names an unknown
// row or goes back in time must fail typed (kDataLoss), never crash.

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/live_relation.h"
#include "ingest/tail.h"
#include "storage/recovery.h"

namespace modb {
namespace ingest {
namespace {

void PutU32(std::string* out, std::uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}
void PutU64(std::string* out, std::uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}
void PutF64(std::string* out, double v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

struct Object {
  std::string id;
  std::vector<IngestFix> fixes;
  TailSeries tail;
  MovingPoint trail;
};

// Two objects: "a" with three fixes (a trail root), "b" with one (the
// placeholder root).
std::vector<Object> Objects() {
  std::vector<Object> objects(2);
  objects[0].id = "a";
  objects[0].fixes = {{"a", 0, 0, 0}, {"a", 1, 3, 1}, {"a", 2, 4, 5}};
  objects[1].id = "b";
  objects[1].fixes = {{"b", 0.5, -1, -1}};
  for (Object& o : objects) {
    for (const IngestFix& f : o.fixes) {
      EXPECT_TRUE(o.tail.Absorb(f.t, Point(f.x, f.y), &o.trail).ok());
    }
  }
  return objects;
}

// A hand-encoded v1 or v2 manifest of `objects` (v2 with one client
// window holding acks for seqs 1 and 2).
std::string OldManifest(std::uint32_t version,
                        const std::vector<Object>& objects) {
  std::string out = "MOLV";
  PutU32(&out, version);
  PutU32(&out, std::uint32_t(objects.size()));
  for (const Object& o : objects) {
    PutU32(&out, std::uint32_t(o.id.size()));
    out += o.id;
    out.push_back(o.trail.IsEmpty() ? 0 : 1);
    PutF64(&out, o.tail.last_time());
    PutF64(&out, o.tail.last_point().x);
    PutF64(&out, o.tail.last_point().y);
  }
  if (version >= 2) {
    PutU32(&out, 1);
    PutU32(&out, 6);
    out += "client";
    PutU32(&out, 2);
    for (std::uint64_t seq = 1; seq <= 2; ++seq) {
      PutU64(&out, seq);
      for (std::uint64_t field = 0; field < 7; ++field) {
        PutU64(&out, seq * 10 + field);
      }
    }
  }
  return out;
}

// Writes `manifest` plus one root per object, as an old build did.
void WriteOldStore(const std::string& path, const std::string& manifest,
                   const std::vector<Object>& objects) {
  Result<VersionedSpillStore> store = VersionedSpillStore::Create(path);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->StageBlob(manifest, SpillValueType::kOpaque).ok());
  for (const Object& o : objects) {
    if (o.trail.IsEmpty()) {
      ASSERT_TRUE(store
                      ->StageBlob(std::string_view("\0", 1),
                                  SpillValueType::kOpaque)
                      .ok());
    } else {
      ASSERT_TRUE(store->StageValue(o.trail).ok());
    }
  }
  ASSERT_TRUE(store->Commit().ok());
}

void ExpectSameTrails(const LiveRelation& got, const LiveRelation& want) {
  ASSERT_EQ(got.NumObjects(), want.NumObjects());
  for (std::size_t row = 0; row < want.NumObjects(); ++row) {
    const std::vector<UPoint>& g = got.trail(row).units();
    const std::vector<UPoint>& w = want.trail(row).units();
    ASSERT_EQ(g.size(), w.size()) << "row " << row;
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double gd[6] = {g[i].interval().start(), g[i].interval().end(),
                            g[i].motion().x0,        g[i].motion().x1,
                            g[i].motion().y0,        g[i].motion().y1};
      const double wd[6] = {w[i].interval().start(), w[i].interval().end(),
                            w[i].motion().x0,        w[i].motion().x1,
                            w[i].motion().y0,        w[i].motion().y1};
      EXPECT_EQ(0, std::memcmp(gd, wd, sizeof gd))
          << "row " << row << " unit " << i;
      EXPECT_EQ(g[i].interval().right_closed(), w[i].interval().right_closed());
    }
    EXPECT_EQ(got.tail(row).last_time(), want.tail(row).last_time());
  }
}

// Recovers an old-version store, ingests on, commits in the current
// format, recovers again, and compares with a relation that absorbed
// every fix without a store.
void ExpectOldStoreRecovers(std::uint32_t version) {
  const std::string path = ::testing::TempDir() + "/manifest_v" +
                           std::to_string(version) + "_store.bin";
  const std::vector<Object> objects = Objects();
  WriteOldStore(path, OldManifest(version, objects), objects);

  const std::vector<IngestFix> more = {
      {"a", 3, 6, 2}, {"b", 1.5, 0, 2}, {"c", 2, 9, 9}, {"c", 3, 8, 7}};
  LiveRelation reference("fleet");
  for (const Object& o : objects) ASSERT_TRUE(reference.Ingest(o.fixes).ok());
  {
    Result<VersionedSpillStore> store = VersionedSpillStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status();
    LiveRelation live("fleet");
    ASSERT_TRUE(live.AttachStore(&*store).ok());
    ExpectSameTrails(live, reference);
    EXPECT_EQ(0u, live.LogFixes());
    if (version >= 2) {
      EXPECT_EQ(2u, live.DedupEntries());
      std::optional<IngestAck> ack = live.DedupLookup("client", 2);
      ASSERT_TRUE(ack.has_value());
      EXPECT_EQ(20u, ack->accepted);
      EXPECT_EQ(26u, ack->epoch);
    } else {
      EXPECT_EQ(0u, live.DedupEntries());
    }
    ASSERT_TRUE(live.Ingest(more).ok());
    ASSERT_TRUE(live.Persist().ok());
  }
  ASSERT_TRUE(reference.Ingest(more).ok());
  Result<VersionedSpillStore> store = VersionedSpillStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  LiveRelation recovered("fleet");
  ASSERT_TRUE(recovered.AttachStore(&*store).ok());
  ExpectSameTrails(recovered, reference);
  EXPECT_EQ(version >= 2 ? 2u : 0u, recovered.DedupEntries());
}

TEST(ManifestCompat, V1ManifestWithoutDedupWindowOrLogRecovers) {
  ExpectOldStoreRecovers(1);
}

TEST(ManifestCompat, V2ManifestWithoutLogRecoversItsDedupWindow) {
  ExpectOldStoreRecovers(2);
}

// A store whose last commit is log-only: objects "a" and "b" checkpointed
// at t=0, then two one-tick batches in the log, so the log holds
// (row 0, t=1) (row 1, t=1) (row 0, t=2) (row 1, t=2). Returns the
// committed manifest bytes.
std::string WriteLoggedStore(const std::string& path) {
  Result<VersionedSpillStore> store = VersionedSpillStore::Create(path);
  EXPECT_TRUE(store.ok()) << store.status();
  LiveRelation live("fleet");
  EXPECT_TRUE(live.AttachStore(&*store).ok());
  for (int t = 0; t < 3; ++t) {
    EXPECT_TRUE(live.Ingest({{"a", double(t), double(t), 0},
                             {"b", double(t), 0, double(t * t)}})
                    .ok());
    EXPECT_TRUE(live.Persist().ok());
  }
  EXPECT_EQ(1u, live.checkpoints());
  EXPECT_EQ(4u, live.LogFixes());
  Result<std::string> manifest = store->ReadRootBlob(0);
  EXPECT_TRUE(manifest.ok());
  return manifest.ok() ? *manifest : std::string();
}

constexpr std::size_t kLogFixBytes = 4 + 3 * 8;

// Recommits `manifest` over the store's root 0 and recovers.
Status RecoverWithManifest(const std::string& path,
                           const std::string& manifest) {
  {
    Result<VersionedSpillStore> store = VersionedSpillStore::Open(path);
    MODB_RETURN_IF_ERROR(store.status());
    MODB_RETURN_IF_ERROR(
        store->RestageBlob(0, manifest, SpillValueType::kOpaque));
    MODB_RETURN_IF_ERROR(store->Commit());
  }
  Result<VersionedSpillStore> store = VersionedSpillStore::Open(path);
  MODB_RETURN_IF_ERROR(store.status());
  LiveRelation live("fleet");
  return live.AttachStore(&*store);
}

TEST(ManifestCompat, CorruptV3LogIsTypedDataLoss) {
  const std::string path =
      ::testing::TempDir() + "/manifest_corrupt_v3_store.bin";
  const std::string good = WriteLoggedStore(path);
  ASSERT_GT(good.size(), 4 + 4 * kLogFixBytes);
  const std::size_t log_start = good.size() - 4 * kLogFixBytes;
  // Control: the untouched manifest recovers.
  ASSERT_TRUE(RecoverWithManifest(path, good).ok());

  // Truncated inside the last fix, and a count claiming a fifth fix.
  std::string truncated = good.substr(0, good.size() - 10);
  EXPECT_EQ(StatusCode::kDataLoss,
            RecoverWithManifest(path, truncated).code());
  std::string overcount = good;
  const std::uint32_t five = 5;
  std::memcpy(&overcount[log_start - 4], &five, sizeof five);
  EXPECT_EQ(StatusCode::kDataLoss,
            RecoverWithManifest(path, overcount).code());

  // A fix for row 7 of a two-object relation.
  std::string unknown_row = good;
  const std::uint32_t row7 = 7;
  std::memcpy(&unknown_row[log_start], &row7, sizeof row7);
  EXPECT_EQ(StatusCode::kDataLoss,
            RecoverWithManifest(path, unknown_row).code());

  // Row 0's second logged fix moved back to t=1, its first fix's time.
  std::string backwards = good;
  const double t1 = 1.0;
  std::memcpy(&backwards[log_start + 2 * kLogFixBytes + 4], &t1, sizeof t1);
  EXPECT_EQ(StatusCode::kDataLoss,
            RecoverWithManifest(path, backwards).code());

  // Still recoverable once the good manifest is back.
  EXPECT_TRUE(RecoverWithManifest(path, good).ok());
}

}  // namespace
}  // namespace ingest
}  // namespace modb
