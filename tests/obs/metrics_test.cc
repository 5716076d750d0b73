#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "core/range_set.h"
#include "db/modb.h"
#include "obs/json.h"
#include "serve/net.h"
#include "serve/server.h"
#include "storage/recovery.h"
#include "validate/validate.h"

namespace modb {
namespace obs {
namespace {

#ifndef MODB_NO_METRICS

TEST(Counter, IncValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, BucketsByBitWidth) {
  Histogram h;
  h.Record(0);     // bit width 0
  h.Record(1);     // 1
  h.Record(2);     // 2
  h.Record(3);     // 2
  h.Record(4);     // 3
  h.Record(1024);  // 11
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 1024);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(11), 1u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.bucket(2), 0u);
}

TEST(MetricsRegistry, SameNameSamePointer) {
  Metrics m;
  Counter* a = m.counter("x");
  Counter* b = m.counter("x");
  Counter* c = m.counter("y");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(m.histogram("h"), m.histogram("h"));
}

TEST(MetricsRegistry, SnapshotsAreNameSorted) {
  Metrics m;
  m.counter("zulu")->Inc(1);
  m.counter("alpha")->Inc(2);
  m.counter("mike")->Inc(3);
  auto snap = m.SnapshotCounters();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "alpha");
  EXPECT_EQ(snap[1].name, "mike");
  EXPECT_EQ(snap[2].name, "zulu");
  EXPECT_EQ(snap[0].value, 2u);
}

TEST(MetricsRegistry, ResetAllKeepsRegistrations) {
  Metrics m;
  Counter* c = m.counter("c");
  c->Inc(7);
  m.histogram("h")->Record(9);
  m.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(m.counter("c"), c);  // still registered
  EXPECT_EQ(m.histogram("h")->count(), 0u);
}

// The correctness property the whole hot-path design rests on: relaxed
// atomic increments from concurrent workers lose nothing — the final
// counter equals the serial total at every worker count.
TEST(MetricsRegistry, CountsUnderConcurrentWorkersMatchSerial) {
  Metrics m;
  const std::size_t n = 10000;
  for (std::size_t workers : {1u, 2u, 7u, 64u}) {
    Counter* c = m.counter("parallel_sum");
    c->Reset();
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        // Local-accumulate-then-flush, as the library does.
        std::uint64_t local = 0;
        for (std::size_t i = w * n / workers; i < (w + 1) * n / workers; ++i) {
          local += i;
        }
        c->Inc(local);
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(c->value(), std::uint64_t(n) * (n - 1) / 2) << workers;
  }
}

TEST(MetricsRegistry, ScopedTimerRecords) {
  Metrics m;
  Histogram* h = m.histogram("t");
  { ScopedTimer timer(h); }
  { ScopedTimer timer(h); }
  EXPECT_EQ(h->count(), 2u);
}

TEST(MetricsRegistry, MacrosHitTheGlobalRegistry) {
  Counter* c = Metrics::Global().counter("test.macro_counter");
  const std::uint64_t before = c->value();
  for (int i = 0; i < 5; ++i) MODB_COUNTER_INC("test.macro_counter");
  MODB_COUNTER_ADD("test.macro_counter", 10);
  EXPECT_EQ(c->value(), before + 15);
}

// The recovery and validation subsystems must flush their counters to
// the global registry — CI dashboards (tools/verify.sh) read them from
// the ToJson() export, so a silently-dead counter is an observability
// regression even when the code paths themselves work.
TEST(MetricsRegistry, RecoveryAndValidationCountersFlush) {
  Metrics& g = Metrics::Global();
  const std::uint64_t checks0 = g.counter("validate.checks")->value();
  const std::uint64_t violations0 = g.counter("validate.violations")->value();
  const std::uint64_t replays0 =
      g.counter("storage.recovery.replays")->value();
  const std::uint64_t orphans0 =
      g.counter("storage.recovery.orphans_reclaimed")->value();
  const std::uint64_t rejected0 =
      g.counter("storage.recovery.root_rejected")->value();

  // A failing invariant check bumps both validate counters.
  Periods overlapping = Periods::MakeTrusted(
      {*TimeInterval::Make(0, 5, true, false),
       *TimeInterval::Make(3, 8, true, false)});
  EXPECT_FALSE(validate::ValidateRangeSet(overlapping).ok());
  EXPECT_GT(g.counter("validate.checks")->value(), checks0);
  EXPECT_GT(g.counter("validate.violations")->value(), violations0);

  // One commit + abandoned restage + reopen: the recovery replay runs
  // and reclaims the abandoned shadow pages as orphans.
  const std::string path =
      ::testing::TempDir() + "/modb_metrics_recovery.bin";
  {
    auto store = VersionedSpillStore::Create(path);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(store->StageBlob(std::string(9000, 'm'),
                                 SpillValueType::kOpaque).ok());
    ASSERT_TRUE(store->Commit().ok());
    ASSERT_TRUE(store->RestageBlob(0, std::string(9000, 'n'),
                                   SpillValueType::kOpaque).ok());
    ASSERT_TRUE(store->Abandon().ok());
  }
  {
    auto reopened = VersionedSpillStore::Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_GT(reopened->recovery_info().orphans_reclaimed, 0u);
  }
  EXPECT_GT(g.counter("storage.recovery.replays")->value(), replays0);
  EXPECT_GT(g.counter("storage.recovery.orphans_reclaimed")->value(),
            orphans0);

  // A garbage root slot bumps the rejection counter on the next open.
  {
    auto dev = FilePageDevice::Open(path);
    ASSERT_TRUE(dev.ok());
    char junk[kPageSize];
    for (std::size_t i = 0; i < kPageSize; ++i) junk[i] = char(i * 3 + 1);
    ASSERT_TRUE(dev->WritePage(kRootSlotPages[0], junk).ok());
  }
  ASSERT_TRUE(VersionedSpillStore::Open(path).ok());
  EXPECT_GT(g.counter("storage.recovery.root_rejected")->value(), rejected0);
}

// The PR-10 robustness counters must reach the global registry the
// same way: verify.sh's chaos smoke reads serve.timeouts,
// serve.deadline_rejects, and ingest.dedup_hits out of the /metrics
// JSON, so each is driven through its real code path here.
TEST(MetricsRegistry, RobustnessCountersFlush) {
  Metrics& g = Metrics::Global();
  const std::uint64_t timeouts0 = g.counter("serve.timeouts")->value();
  const std::uint64_t rejects0 =
      g.counter("serve.deadline_rejects")->value();
  const std::uint64_t dedup0 = g.counter("ingest.dedup_hits")->value();

  // serve.deadline_rejects: seed the admission EWMA with a long hold,
  // occupy the budget, then offer a request whose deadline the
  // predicted queue wait already exceeds.
  serve::AdmissionController ac(1, 4);
  ASSERT_TRUE(ac.Acquire(1).ok());
  ac.Release(1, 50u * 1000 * 1000);  // ~50ms hold
  ASSERT_TRUE(ac.Acquire(1).ok());
  EXPECT_EQ(ac.Acquire(1, 1000 * 1000).code(),
            StatusCode::kResourceExhausted);
  ac.Release(1);
  EXPECT_GT(g.counter("serve.deadline_rejects")->value(), rejects0);

  // serve.timeouts: a server with a tight idle deadline reaps a
  // connection that never finishes a frame header.
  Db db;
  serve::ServerOptions options;
  options.idle_timeout_ms = 50;
  serve::Server server(&db, options);
  ASSERT_TRUE(server.Start().ok());
  Result<int> fd = serve::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  ASSERT_TRUE(serve::WriteFull(*fd, "MO", 2).ok());
  Result<std::optional<serve::Frame>> eof = serve::ReadFrame(*fd);
  ASSERT_TRUE(eof.ok()) << eof.status();
  EXPECT_FALSE(eof->has_value());
  serve::CloseFd(*fd);
  server.Stop();
  EXPECT_GT(g.counter("serve.timeouts")->value(), timeouts0);

  // ingest.dedup_hits: the same keyed batch applied twice — the second
  // Apply answers from the window with the original ack.
  ASSERT_TRUE(db.RegisterLive("fleet").ok());
  MutationRequest ingest;
  ingest.kind = MutationRequest::Kind::kIngest;
  ingest.relation = "fleet";
  ingest.fixes = {{"obj1", 1.0, 2.0, 3.0}, {"obj2", 1.0, -2.0, -3.0}};
  ingest.client_id = "metrics-test";
  ingest.batch_seq = 1;
  Result<MutationResult> first = db.Apply(ingest);
  ASSERT_TRUE(first.ok()) << first.status();
  Result<MutationResult> replay = db.Apply(ingest);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->accepted, first->accepted);
  EXPECT_EQ(replay->epoch, first->epoch);
  EXPECT_GT(g.counter("ingest.dedup_hits")->value(), dedup0);
}

#else  // MODB_NO_METRICS

TEST(MetricsRegistry, CompiledOutStubsAreInert) {
  Counter* c = Metrics::Global().counter("anything");
  c->Inc(100);
  EXPECT_EQ(c->value(), 0u);
  MODB_COUNTER_INC("anything");
  EXPECT_EQ(c->value(), 0u);
  EXPECT_TRUE(Metrics::Global().SnapshotCounters().empty());
  EXPECT_TRUE(Metrics::Global().SnapshotHistograms().empty());
}

#endif  // MODB_NO_METRICS

// In both builds ToJson() must be a valid document with the two
// top-level sections (empty when compiled out) — the bench JSON export
// and tools/json_check rely on this.
TEST(MetricsRegistry, ToJsonIsValidJson) {
#ifndef MODB_NO_METRICS
  Metrics m;
  m.counter("a.b")->Inc(3);
  m.histogram("c\"quoted\"")->Record(5);
  const std::string json = m.ToJson();
#else
  const std::string json = Metrics::Global().ToJson();
#endif
  auto doc = JsonValue::Parse(json);
  ASSERT_TRUE(doc.ok()) << doc.status() << " in " << json;
  ASSERT_EQ(doc->kind(), JsonValue::Kind::kObject);
  const JsonValue* counters = doc->Find("counters");
  const JsonValue* histograms = doc->Find("histograms");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(histograms, nullptr);
#ifndef MODB_NO_METRICS
  const JsonValue* a = counters->Find("a.b");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->uint_value(), 3u);
  const JsonValue* h = histograms->Find("c\"quoted\"");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Find("count")->uint_value(), 1u);
  EXPECT_EQ(h->Find("sum")->uint_value(), 5u);
#endif
}

}  // namespace
}  // namespace obs
}  // namespace modb
