// Crash campaign over the live-ingest durability path: every device
// write of a multi-batch ingest+persist workload (with LSM merges
// between batches — the "mid-merge era") is crashed, both as a hard
// failure and as a torn write, and recovery must land on a committed
// batch prefix: the store opens, accounts for every page, and the
// recovered tails are BITWISE identical to replaying exactly the
// committed batches. An acked batch (Persist returned OK) must never
// be lost.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/live_relation.h"
#include "storage/fault.h"
#include "storage/recovery.h"

namespace modb {
namespace ingest {
namespace {

constexpr int kTicks = 16;
constexpr int kLateObjectTick = 6;

// One batch per tick: objects 0..2 from tick 0, object 3 first seen at
// tick kLateObjectTick. Small on purpose — the campaign replays the
// workload once per write site — yet long enough that the commits
// include log-only ones and checkpoints the size rule triggers (the
// clean pass asserts both), and that object 3 first lives in the log
// alone.
std::vector<std::vector<IngestFix>> Batches() {
  std::vector<std::vector<IngestFix>> batches;
  for (int t = 0; t < kTicks; ++t) {
    std::vector<IngestFix> cur;
    for (int o = 0; o < 4; ++o) {
      if (o == 3 && t < kLateObjectTick) continue;
      // A bend every tick (y grows with t*t) so no two units merge.
      cur.push_back({"obj" + std::to_string(o), double(t),
                     double(o * 10 + t), double(o * -5 - t * t)});
    }
    batches.push_back(cur);
  }
  return batches;
}

// Replays the workload: per batch Ingest + Persist, with an inline
// merge after every even batch so commits land in distinct merge eras.
// Returns the number of batches ACKED. A batch is acked only if Persist
// returned OK *and* no fault fired during it: a torn write is silent
// (the Commit may "succeed"), but firing means the process died inside
// the call, so the ack never reached the client — exactly how the PR-5
// crash campaign counts its commit points.
std::size_t RunWorkload(LiveRelation* live,
                        const std::vector<std::vector<IngestFix>>& batches) {
  std::size_t acked = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (!live->Ingest(batches[b]).ok()) break;
    const Status persisted = live->Persist();
    if (FaultInjector::Global().FiredCount() > 0) break;
    if (!persisted.ok()) break;
    ++acked;
    if (b % 2 == 0) live->MergeNow();
  }
  return acked;
}

void ExpectTailsMatch(const LiveRelation& got, const LiveRelation& want) {
  ASSERT_EQ(got.NumObjects(), want.NumObjects());
  for (std::size_t row = 0; row < want.NumObjects(); ++row) {
    const TailSeries& g = got.tail(row);
    const TailSeries& w = want.tail(row);
    const MovingPoint& gt = got.trail(row);
    const MovingPoint& wt = want.trail(row);
    ASSERT_EQ(gt.NumUnits(), wt.NumUnits()) << "row " << row;
    for (std::size_t i = 0; i < wt.NumUnits(); ++i) {
      const UPoint& gu = gt.unit(i);
      const UPoint& wu = wt.unit(i);
      const double gd[6] = {gu.interval().start(), gu.interval().end(),
                            gu.motion().x0,        gu.motion().x1,
                            gu.motion().y0,        gu.motion().y1};
      const double wd[6] = {wu.interval().start(), wu.interval().end(),
                            wu.motion().x0,        wu.motion().x1,
                            wu.motion().y0,        wu.motion().y1};
      EXPECT_EQ(0, std::memcmp(gd, wd, sizeof gd))
          << "row " << row << " unit " << i;
      EXPECT_EQ(gu.interval().left_closed(), wu.interval().left_closed());
      EXPECT_EQ(gu.interval().right_closed(), wu.interval().right_closed());
    }
    const double ga[2] = {g.last_point().x, g.last_point().y};
    const double wa[2] = {w.last_point().x, w.last_point().y};
    EXPECT_EQ(g.last_time(), w.last_time()) << "row " << row;
    EXPECT_EQ(0, std::memcmp(ga, wa, sizeof ga)) << "row " << row;
  }
}

TEST(IngestCrash, EveryWriteSiteRecoversToACommittedBatchPrefix) {
  if (!kFaultsEnabled) GTEST_SKIP() << "faults compiled out (MODB_FAULTS=OFF)";
  const std::string path = ::testing::TempDir() + "/ingest_crash_store.bin";
  const std::vector<std::vector<IngestFix>> batches = Batches();
  FaultInjector& injector = FaultInjector::Global();

  // Clean pass: enumerate the workload's write sites.
  std::uint64_t write_sites = 0;
  std::uint64_t base_epoch = 0;
  {
    Result<VersionedSpillStore> store = VersionedSpillStore::Create(path);
    ASSERT_TRUE(store.ok()) << store.status();
    base_epoch = store->epoch();
    LiveRelation live("fleet", LiveOptions{2, 8, 16});
    ASSERT_TRUE(live.AttachStore(&*store).ok());
    injector.Disarm();  // count from here: the workload's own writes
    ASSERT_EQ(batches.size(), RunWorkload(&live, batches));
    write_sites = injector.OpCount(FaultOp::kWrite);
    // The campaign must cover both commit kinds: log-only commits, and
    // checkpoints beyond the first commit (which always checkpoints).
    EXPECT_GE(live.checkpoints(), 2u);
    EXPECT_GE(batches.size() - live.checkpoints(), 1u);
  }
  ASSERT_GT(write_sites, 0u);

  std::uint64_t crashes = 0, recoveries = 0;
  for (int torn = 0; torn < 2; ++torn) {
    for (std::uint64_t site = 0; site < write_sites; ++site) {
      injector.Disarm();
      {
        Result<VersionedSpillStore> store = VersionedSpillStore::Create(path);
        ASSERT_TRUE(store.ok());
        LiveRelation live("fleet", LiveOptions{2, 8, 16});
        ASSERT_TRUE(live.AttachStore(&*store).ok());
        if (torn != 0) {
          injector.TearNth(site, 7);  // persist 7 bytes, then die
        } else {
          injector.FailNth(FaultOp::kWrite, site);
        }
        injector.HaltAfterFire();
        const std::size_t acked = RunWorkload(&live, batches);
        ASSERT_GT(injector.FiredCount(), 0u)
            << "site " << site << " never fired";
        ++crashes;
        injector.Disarm();
        store->Abandon();  // the dead process's handle

        // Recovery: reopen and re-attach, as modbd --store does.
        Result<VersionedSpillStore> reopened =
            VersionedSpillStore::Open(path);
        ASSERT_TRUE(reopened.ok())
            << "site " << site << ": " << reopened.status();
        ASSERT_TRUE(reopened->VerifyAccounting().ok())
            << "site " << site << " leaked pages";
        const std::uint64_t committed = reopened->epoch() - base_epoch;
        // Acked implies durable; at most the in-flight batch beyond it
        // can have committed before the crash point.
        ASSERT_GE(committed, acked) << "site " << site << " lost an ack";
        ASSERT_LE(committed, acked + 1) << "site " << site;
        ASSERT_LE(committed, batches.size()) << "site " << site;

        LiveRelation recovered("fleet", LiveOptions{2, 8, 16});
        ASSERT_TRUE(recovered.AttachStore(&*reopened).ok())
            << "site " << site;
        LiveRelation reference("fleet", LiveOptions{2, 8, 16});
        for (std::size_t b = 0; b < committed; ++b) {
          ASSERT_TRUE(reference.Ingest(batches[b]).ok());
        }
        ExpectTailsMatch(recovered, reference);

        // The recovered relation must accept the remaining batches.
        for (std::size_t b = committed; b < batches.size(); ++b) {
          ASSERT_TRUE(recovered.Ingest(batches[b]).ok()) << "site " << site;
          ASSERT_TRUE(recovered.Persist().ok()) << "site " << site;
        }
        ++recoveries;
      }
    }
  }
  injector.Disarm();
  EXPECT_EQ(crashes, 2 * write_sites);
  EXPECT_EQ(recoveries, crashes);
}

// An object first seen after the last checkpoint has no store root: it
// lives in the manifest's fix log alone. Crash with such a log
// committed (and the next batch in flight), and recovery must rebuild
// that object from the log — bitwise, and able to go on ingesting.
TEST(IngestCrash, ObjectFirstSeenAfterTheCheckpointRecoversFromTheLogAlone) {
  if (!kFaultsEnabled) GTEST_SKIP() << "faults compiled out (MODB_FAULTS=OFF)";
  const std::string path = ::testing::TempDir() + "/ingest_late_object.bin";
  const std::vector<std::vector<IngestFix>> batches = Batches();
  FaultInjector& injector = FaultInjector::Global();
  injector.Disarm();

  // A clean probe run finds the last commit before the first checkpoint
  // after object 3's arrival; the crash run commits through it — every
  // fix of object 3 then sits in the log — and dies inside the next
  // Persist.
  std::size_t committed = 0;
  {
    Result<VersionedSpillStore> probe_store = VersionedSpillStore::Create(path);
    ASSERT_TRUE(probe_store.ok()) << probe_store.status();
    LiveRelation probe("fleet", LiveOptions{2, 8, 16});
    ASSERT_TRUE(probe.AttachStore(&*probe_store).ok());
    std::uint64_t checkpoints_at_arrival = 0;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      ASSERT_TRUE(probe.Ingest(batches[b]).ok());
      ASSERT_TRUE(probe.Persist().ok());
      if (b + 1 == std::size_t(kLateObjectTick)) {
        checkpoints_at_arrival = probe.checkpoints();
      }
      if (b >= std::size_t(kLateObjectTick) &&
          probe.checkpoints() > checkpoints_at_arrival) {
        break;
      }
      committed = b + 1;
    }
  }
  ASSERT_GE(committed, std::size_t(kLateObjectTick) + 2)
      << "object 3 needs two logged fixes (one unit) before a checkpoint";
  ASSERT_LT(committed, batches.size());
  {
    Result<VersionedSpillStore> store = VersionedSpillStore::Create(path);
    ASSERT_TRUE(store.ok()) << store.status();
    LiveRelation live("fleet", LiveOptions{2, 8, 16});
    ASSERT_TRUE(live.AttachStore(&*store).ok());
    for (std::size_t b = 0; b < committed; ++b) {
      ASSERT_TRUE(live.Ingest(batches[b]).ok());
      ASSERT_TRUE(live.Persist().ok());
    }
    ASSERT_GE(live.LogFixes(), committed - std::size_t(kLateObjectTick));

    ASSERT_TRUE(live.Ingest(batches[committed]).ok());
    injector.FailNth(FaultOp::kWrite, 0);
    injector.HaltAfterFire();
    EXPECT_FALSE(live.Persist().ok());
    ASSERT_GT(injector.FiredCount(), 0u);
    injector.Disarm();
    store->Abandon();
  }

  Result<VersionedSpillStore> reopened = VersionedSpillStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_TRUE(reopened->VerifyAccounting().ok());
  LiveRelation recovered("fleet", LiveOptions{2, 8, 16});
  ASSERT_TRUE(recovered.AttachStore(&*reopened).ok());
  ASSERT_EQ(4u, recovered.NumObjects());
  EXPECT_GE(recovered.LogFixes(), committed - std::size_t(kLateObjectTick));
  LiveRelation reference("fleet", LiveOptions{2, 8, 16});
  for (std::size_t b = 0; b < committed; ++b) {
    ASSERT_TRUE(reference.Ingest(batches[b]).ok());
  }
  ExpectTailsMatch(recovered, reference);
  EXPECT_GT(recovered.trail(3).NumUnits(), 0u);

  for (std::size_t b = committed; b < batches.size(); ++b) {
    ASSERT_TRUE(recovered.Ingest(batches[b]).ok());
    ASSERT_TRUE(reference.Ingest(batches[b]).ok());
    ASSERT_TRUE(recovered.Persist().ok());
  }
  ExpectTailsMatch(recovered, reference);
}

// The hostile-network schedule the idempotency window exists for:
//
//   1. client sends keyed batches 1 and 2; both acked and committed,
//   2. the ack of batch 3 is LOST after Persist succeeded (applied,
//      durable, client never heard),
//   3. the server crashes mid-Persist of batch 4,
//   4. a new server recovers the store; the client retries batch 3 and
//      continues with batch 4.
//
// Exactly-once means: the retry of batch 3 is answered from the
// PERSISTED dedup window with the original ack (never re-applied),
// batch 4 applies normally, and the recovered tails are bitwise what a
// single clean application of every batch produces.
TEST(IngestCrash, PersistedDedupWindowReAcksLostAckExactlyOnceAfterCrash) {
  if (!kFaultsEnabled) GTEST_SKIP() << "faults compiled out (MODB_FAULTS=OFF)";
  const std::string path = ::testing::TempDir() + "/ingest_dedup_crash.bin";
  std::vector<std::vector<IngestFix>> batches = Batches();
  batches.resize(4);
  FaultInjector& injector = FaultInjector::Global();
  injector.Disarm();
  const std::string client = "tracker-A";

  // Mirrors Db::Apply's keyed path: record the ack (predicted epoch:
  // the one this Persist will commit) BEFORE Persist so the entry rides
  // the same manifest commit as the batch itself.
  const auto apply_keyed = [&](LiveRelation* live, std::uint64_t seq,
                               const std::vector<IngestFix>& fixes)
      -> std::optional<IngestAck> {
    if (!live->Ingest(fixes).ok()) return std::nullopt;
    IngestAck ack;
    ack.accepted = fixes.size();
    ack.objects = live->NumObjects();
    ack.epoch = live->epoch() + 1;
    live->RecordAck(client, seq, ack);
    const Status persisted = live->Persist();
    if (injector.FiredCount() > 0 || !persisted.ok()) return std::nullopt;
    return ack;
  };

  IngestAck lost_ack;  // the ack of batch 3 the client never saw
  {
    Result<VersionedSpillStore> store = VersionedSpillStore::Create(path);
    ASSERT_TRUE(store.ok()) << store.status();
    LiveRelation live("fleet", LiveOptions{2, 8, 16});
    ASSERT_TRUE(live.AttachStore(&*store).ok());

    // Batches 1..3 apply and commit; the client received acks 1 and 2.
    for (std::uint64_t seq = 1; seq <= 3; ++seq) {
      std::optional<IngestAck> ack =
          apply_keyed(&live, seq, batches[seq - 1]);
      ASSERT_TRUE(ack.has_value()) << "seq " << seq;
      if (seq == 3) lost_ack = *ack;  // ack dropped on the wire
    }

    // A live (pre-crash) retry of batch 3 is already answered from the
    // window, not re-applied.
    std::optional<IngestAck> replayed = live.DedupLookup(client, 3);
    ASSERT_TRUE(replayed.has_value());
    EXPECT_EQ(replayed->accepted, lost_ack.accepted);
    EXPECT_EQ(replayed->epoch, lost_ack.epoch);

    // Crash on the first device write of batch 4's Persist: the batch
    // is applied in memory, its dedup entry recorded, and none of it
    // durable.
    injector.FailNth(FaultOp::kWrite, 0);
    injector.HaltAfterFire();
    EXPECT_FALSE(apply_keyed(&live, 4, batches[3]).has_value());
    ASSERT_GT(injector.FiredCount(), 0u);
    injector.Disarm();
    store->Abandon();
  }

  // Recovery: a fresh server process reopens the store.
  Result<VersionedSpillStore> reopened = VersionedSpillStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_TRUE(reopened->VerifyAccounting().ok());
  LiveRelation recovered("fleet", LiveOptions{2, 8, 16});
  ASSERT_TRUE(recovered.AttachStore(&*reopened).ok());

  // The dedup window came back from the manifest: exactly the three
  // committed acks, and the lost one is answered verbatim.
  EXPECT_EQ(recovered.DedupEntries(), 3u);
  std::optional<IngestAck> reack = recovered.DedupLookup(client, 3);
  ASSERT_TRUE(reack.has_value()) << "lost ack fell out of the window";
  EXPECT_EQ(reack->accepted, lost_ack.accepted);
  EXPECT_EQ(reack->objects, lost_ack.objects);
  EXPECT_EQ(reack->epoch, lost_ack.epoch);

  // Batch 4 died with the crash: no window entry, so the retry applies.
  EXPECT_FALSE(recovered.DedupLookup(client, 4).has_value());
  std::optional<IngestAck> ack4 = apply_keyed(&recovered, 4, batches[3]);
  ASSERT_TRUE(ack4.has_value());

  // Exactly-once: the recovered relation is bitwise a single clean
  // application of every batch...
  LiveRelation reference("fleet", LiveOptions{2, 8, 16});
  for (const std::vector<IngestFix>& b : batches) {
    ASSERT_TRUE(reference.Ingest(b).ok());
  }
  ExpectTailsMatch(recovered, reference);

  // ...and a replay that somehow bypassed the window cannot double-
  // apply silently: the fixes sit at the tail frontier and are rejected
  // typed.
  Status replay = recovered.Ingest(batches[0]);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace ingest
}  // namespace modb
