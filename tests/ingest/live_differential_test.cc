// The PR-8 identity theorem, end to end: a live relation grown fix by
// fix through Db::Apply — tails absorbing, seals feeding the delta run,
// merges compacting — must answer EVERY query kind with result blocks
// BYTE-IDENTICAL to a static relation bulk-built from the same fixes.
// The comparison is on serve::EncodeResultBlock bytes, the same bytes
// loadgen --verify compares over the wire, so nothing (row order, unit
// slicing, float rounding, index layering) can hide.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/interval.h"
#include "db/modb.h"
#include "db/relation.h"
#include "db/value.h"
#include "gen/flights_gen.h"
#include "ingest/live_relation.h"
#include "serve/wire.h"
#include "temporal/mapping.h"
#include "temporal/upoint.h"

namespace modb {
namespace {

struct Fix {
  std::string id;
  Instant t;
  double x, y;
};

// Deterministic interleaved walks: object o gets fixes at t = 0,1,2,...
// with an LCG step, exactly the shape loadgen --ingest streams.
std::vector<Fix> FleetFixes(int objects, int steps, std::uint64_t seed) {
  const std::size_t n = std::size_t(objects);
  std::vector<std::uint64_t> rng(n);
  std::vector<double> px(n), py(n);
  std::vector<Fix> fixes;
  for (int o = 0; o < objects; ++o) {
    rng[std::size_t(o)] = seed * 6364136223846793005ULL +
                          std::uint64_t(o + 1) * 1442695040888963407ULL;
    px[std::size_t(o)] = o * 10.0;
    py[std::size_t(o)] = o * -5.0;
  }
  auto step = [&rng](int o) {
    std::uint64_t& s = rng[std::size_t(o)];
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return double(std::int64_t((s >> 33) % 2001) - 1000) / 100.0;
  };
  for (int t = 0; t < steps; ++t) {
    for (int o = 0; o < objects; ++o) {
      px[std::size_t(o)] += step(o);
      py[std::size_t(o)] += step(o);
      fixes.push_back({"obj" + std::to_string(o), double(t),
                       px[std::size_t(o)], py[std::size_t(o)]});
    }
  }
  return fixes;
}

// The bulk reference: one static relation, trails built through
// MappingBuilder with the generator slicing convention.
Relation BulkRelation(const std::string& name, const std::vector<Fix>& fixes,
                      int objects) {
  Relation rel(name, Schema({{"id", AttributeType::kString},
                             {"trail", AttributeType::kMovingPoint}}));
  for (int o = 0; o < objects; ++o) {
    const std::string id = "obj" + std::to_string(o);
    std::vector<Fix> own;
    for (const Fix& f : fixes) {
      if (f.id == id) own.push_back(f);
    }
    MappingBuilder<UPoint> builder;
    for (std::size_t i = 0; i + 1 < own.size(); ++i) {
      const bool last = i + 2 == own.size();
      Result<TimeInterval> iv =
          TimeInterval::Make(own[i].t, own[i + 1].t, true, last);
      EXPECT_TRUE(iv.ok());
      Result<UPoint> u = UPoint::FromEndpoints(
          *iv, Point(own[i].x, own[i].y), Point(own[i + 1].x, own[i + 1].y));
      EXPECT_TRUE(u.ok());
      EXPECT_TRUE(builder.Append(*u).ok());
    }
    Result<MovingPoint> mp = builder.Build();
    EXPECT_TRUE(mp.ok());
    Tuple tuple;
    tuple.emplace_back(StringValue(id));
    tuple.emplace_back(*std::move(mp));
    EXPECT_TRUE(rel.Insert(std::move(tuple)).ok());
  }
  return rel;
}

// Ingests `fixes` into `db`'s live relation `name` in batches of
// `batch` fixes via the same mutation path the server uses.
void IngestAll(Db* db, const std::string& name, const std::vector<Fix>& fixes,
               std::size_t batch) {
  MutationRequest req;
  req.kind = MutationRequest::Kind::kIngest;
  req.relation = name;
  for (const Fix& f : fixes) {
    req.fixes.push_back({f.id, f.t, f.x, f.y});
    if (req.fixes.size() >= batch) {
      ASSERT_TRUE(db->Apply(req).ok());
      req.fixes.clear();
    }
  }
  if (!req.fixes.empty()) {
    ASSERT_TRUE(db->Apply(req).ok());
  }
}

// Every query kind, aimed at relation `rel`.
std::vector<QueryRequest> AllKinds(const std::string& rel, int steps) {
  std::vector<QueryRequest> kinds;
  {
    QueryRequest q;
    q.kind = QueryRequest::Kind::kSelect;
    q.relation = rel;
    q.filters.push_back({FilterSpec::Kind::kDeftimeIntersects, "trail", "", 0,
                         1.0, double(steps) / 2});
    kinds.push_back(q);
  }
  {
    QueryRequest q;
    q.kind = QueryRequest::Kind::kProject;
    q.relation = rel;
    q.filters.push_back(
        {FilterSpec::Kind::kPresentAt, "trail", "", 0, 1.5, 0});
    q.project = {"id"};
    kinds.push_back(q);
  }
  {
    QueryRequest q;
    q.kind = QueryRequest::Kind::kJoin;
    q.relation = rel;
    q.join_relation = rel;
    q.attr = "trail";
    q.join_attr = "trail";
    q.distance = 40;
    q.distinct_pairs = true;
    kinds.push_back(q);
  }
  {
    QueryRequest q;
    q.kind = QueryRequest::Kind::kIndexJoin;
    q.relation = rel;
    q.join_relation = rel;
    q.attr = "trail";
    q.join_attr = "trail";
    q.distance = 40;
    q.distinct_pairs = true;
    kinds.push_back(q);
  }
  {
    QueryRequest q;
    q.kind = QueryRequest::Kind::kAtInstantBatch;
    q.relation = rel;
    q.attr = "trail";
    for (int t = 0; t < steps; ++t) q.instants.push_back(t + 0.25);
    kinds.push_back(q);
  }
  {
    QueryRequest q;
    q.kind = QueryRequest::Kind::kPresentBatch;
    q.relation = rel;
    q.attr = "trail";
    for (int t = 0; t < steps; ++t) q.instants.push_back(t + 0.25);
    kinds.push_back(q);
  }
  {
    QueryRequest q;
    q.kind = QueryRequest::Kind::kWindowAggregate;
    q.relation = rel;
    q.attr = "trail";
    q.window_t0 = 0;
    q.window_t1 = steps;
    q.window_width = 3;
    q.window_step = 2;  // sliding: width > step
    kinds.push_back(q);
  }
  return kinds;
}

// Window grids beyond AllKinds' sliding one: tumbling, gapped (step >
// width), and sliding inside a rect, with windows before the first fix
// and past the last.
std::vector<QueryRequest> WindowVariants(const std::string& rel, int steps) {
  std::vector<QueryRequest> out;
  const double grids[][2] = {{2, 2}, {1.5, 4}, {3, 1}};
  for (const auto& g : grids) {
    QueryRequest q;
    q.kind = QueryRequest::Kind::kWindowAggregate;
    q.relation = rel;
    q.attr = "trail";
    q.window_t0 = -3;
    q.window_t1 = steps + 4;
    q.window_width = g[0];
    q.window_step = g[1];
    out.push_back(q);
  }
  out.back().min_x = -20;
  out.back().min_y = -40;
  out.back().max_x = 40;
  out.back().max_y = 20;
  return out;
}

std::string RunBlock(const Db& db, const QueryRequest& req) {
  Result<QueryResult> result = db.Run(req);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return std::string();
  Result<std::string> block = serve::EncodeResultBlock(*result);
  EXPECT_TRUE(block.ok());
  return block.ok() ? *block : std::string();
}

TEST(LiveDifferential, EveryQueryKindIsByteIdenticalToBulk) {
  const int kObjects = 6, kSteps = 24;
  const std::vector<Fix> fixes = FleetFixes(kObjects, kSteps, 7);

  Db bulk;
  ASSERT_TRUE(bulk.Register(BulkRelation("fleet", fixes, kObjects)).ok());
  ASSERT_TRUE(bulk.BuildIndex("fleet", "trail").ok());

  Db live;
  ingest::LiveOptions opts;
  opts.seal_units = 2;       // seal often: delta sees real traffic
  opts.merge_threshold = 16;  // and inline merges actually fire
  ASSERT_TRUE(live.RegisterLive("fleet", opts).ok());
  IngestAll(&live, "fleet", fixes, 5);

  const std::vector<QueryRequest> kinds = AllKinds("fleet", kSteps);
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    EXPECT_EQ(RunBlock(bulk, kinds[k]), RunBlock(live, kinds[k]))
        << "query kind #" << k << " diverged after ingest";
  }

  // An LSM maintenance round must be invisible in the bytes...
  ASSERT_TRUE(live.MergeLive("fleet").ok());
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    EXPECT_EQ(RunBlock(bulk, kinds[k]), RunBlock(live, kinds[k]))
        << "query kind #" << k << " diverged after MergeLive";
  }

  // ...and so must the shutdown drain (seal everything, compact).
  ASSERT_TRUE(live.DrainLive("fleet").ok());
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    EXPECT_EQ(RunBlock(bulk, kinds[k]), RunBlock(live, kinds[k]))
        << "query kind #" << k << " diverged after DrainLive";
  }
}

// The serial ≡ parallel half of the contract over a live source: every
// kind, and a filtered window with a rect, answers with the same bytes
// at 1, 2, 4 and 8 workers while the relation is mid-ingest (tails,
// delta and mem layers all populated).
TEST(LiveDifferential, EveryQueryKindIsByteIdenticalAcrossThreadCounts) {
  const int kObjects = 6, kSteps = 24;
  const std::vector<Fix> fixes = FleetFixes(kObjects, kSteps, 13);
  Db live;
  ingest::LiveOptions opts;
  opts.seal_units = 3;
  ASSERT_TRUE(live.RegisterLive("fleet", opts).ok());
  IngestAll(&live, "fleet", fixes, 7);

  std::vector<QueryRequest> kinds = AllKinds("fleet", kSteps);
  QueryRequest window = kinds.back();
  ASSERT_EQ(window.kind, QueryRequest::Kind::kWindowAggregate);
  window.filters.push_back({FilterSpec::Kind::kDeftimeIntersects, "trail", "",
                            0, 2.0, double(kSteps)});
  window.min_x = -20;
  window.min_y = -40;
  window.max_x = 40;
  window.max_y = 20;
  kinds.push_back(window);
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const std::string expect = RunBlock(live, kinds[k]);
    for (int threads : {2, 4, 8}) {
      ExecOptions options;
      options.parallel.num_threads = threads;
      Result<QueryResult> r = live.Run(kinds[k], options);
      ASSERT_TRUE(r.ok()) << r.status();
      Result<std::string> block = serve::EncodeResultBlock(*r);
      ASSERT_TRUE(block.ok());
      EXPECT_EQ(*block, expect) << "kind #" << k << " threads " << threads;
    }
  }
}

TEST(LiveDifferential, SealPolicyNeverShowsInTheBytes) {
  // Two live Dbs with maximally different layering policies must agree
  // byte for byte: layering is an implementation detail of the union.
  const int kObjects = 4, kSteps = 16;
  const std::vector<Fix> fixes = FleetFixes(kObjects, kSteps, 11);

  Db eager;  // seal after every unit, merge constantly
  ingest::LiveOptions eager_opts;
  eager_opts.seal_units = 1;
  eager_opts.merge_threshold = 1;
  ASSERT_TRUE(eager.RegisterLive("fleet", eager_opts).ok());
  IngestAll(&eager, "fleet", fixes, 3);

  Db lazy;  // never seal, never merge: everything stays in mem
  ingest::LiveOptions lazy_opts;
  lazy_opts.seal_units = 1u << 20;
  lazy_opts.merge_threshold = 1u << 20;
  ASSERT_TRUE(lazy.RegisterLive("fleet", lazy_opts).ok());
  IngestAll(&lazy, "fleet", fixes, 7);  // different batching too

  for (const QueryRequest& q : AllKinds("fleet", kSteps)) {
    EXPECT_EQ(RunBlock(eager, q), RunBlock(lazy, q));
  }
}

TEST(LiveDifferential, MutationErrorTaxonomy) {
  Db db;
  ASSERT_TRUE(db.RegisterLive("fleet").ok());

  // Ingest into an unknown relation is a typed NotFound.
  MutationRequest req;
  req.kind = MutationRequest::Kind::kIngest;
  req.relation = "nowhere";
  req.fixes.push_back({"a", 0, 0, 0});
  EXPECT_EQ(StatusCode::kNotFound, db.Apply(req).status().code());

  // Ingest into a static relation is FailedPrecondition.
  FlightsOptions gen;
  gen.num_flights = 2;
  Result<Relation> planes = GeneratePlanes(gen);
  ASSERT_TRUE(planes.ok());
  ASSERT_TRUE(db.Register(*std::move(planes)).ok());
  req.relation = "planes";
  EXPECT_EQ(StatusCode::kFailedPrecondition, db.Apply(req).status().code());

  // Registering a taken name is FailedPrecondition.
  MutationRequest reg;
  reg.kind = MutationRequest::Kind::kRegisterLive;
  reg.relation = "fleet";
  EXPECT_EQ(StatusCode::kFailedPrecondition, db.Apply(reg).status().code());

  // BuildIndex on a live relation is FailedPrecondition (it maintains
  // its own layered index).
  EXPECT_EQ(StatusCode::kFailedPrecondition,
            db.BuildIndex("fleet", "trail").code());

  // A batch with one bad fix (stale timestamp) is rejected whole: the
  // good fixes must NOT land.
  MutationRequest good;
  good.kind = MutationRequest::Kind::kIngest;
  good.relation = "fleet";
  good.fixes.push_back({"a", 1.0, 0, 0});
  good.fixes.push_back({"a", 2.0, 1, 1});
  ASSERT_TRUE(db.Apply(good).ok());
  MutationRequest bad;
  bad.kind = MutationRequest::Kind::kIngest;
  bad.relation = "fleet";
  bad.fixes.push_back({"b", 5.0, 0, 0});   // fine on its own
  bad.fixes.push_back({"a", 1.5, 2, 2});   // stale vs a's frontier
  Result<MutationResult> r = db.Apply(bad);
  EXPECT_EQ(StatusCode::kOutOfRange, r.status().code());
  // "b" must not exist: the batch was atomic.
  QueryRequest q;
  q.kind = QueryRequest::Kind::kSelect;
  q.relation = "fleet";
  Result<QueryResult> rows = db.Run(q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(1u, rows->rows.NumTuples());

  // Drop takes the live relation with it.
  MutationRequest drop;
  drop.kind = MutationRequest::Kind::kDropRelation;
  drop.relation = "fleet";
  ASSERT_TRUE(db.Apply(drop).ok());
  EXPECT_EQ(StatusCode::kNotFound, db.Run(q).status().code());
}

TEST(LiveDifferential, WindowBoundaryFixLandsInExactlyOneWindow) {
  // One object whose motion ends exactly on a window boundary: the
  // trajectory covers [0, 2] (last unit right-CLOSED at t = 2). Windows
  // are closed-open [s, s+2), so instant 2 belongs to [2, 4) and NOT to
  // [0, 2) — the object must be counted in the second window purely by
  // its boundary instant, contributing zero distance there.
  Db db;
  ASSERT_TRUE(db.RegisterLive("edge").ok());
  MutationRequest req;
  req.kind = MutationRequest::Kind::kIngest;
  req.relation = "edge";
  req.fixes = {{"a", 0.0, 0, 0}, {"a", 1.0, 3, 4}, {"a", 2.0, 6, 8}};
  ASSERT_TRUE(db.Apply(req).ok());

  QueryRequest q;
  q.kind = QueryRequest::Kind::kWindowAggregate;
  q.relation = "edge";
  q.attr = "trail";
  q.window_t0 = 0;
  q.window_t1 = 8;
  q.window_width = 2;
  q.window_step = 2;  // tumbling: [0,2) [2,4) [4,6) [6,8)
  Result<QueryResult> result = db.Run(q);
  ASSERT_TRUE(result.ok()) << result.status();
  const Relation& rows = result->rows;
  ASSERT_EQ(4u, rows.NumTuples());
  auto count_of = [&rows](std::size_t row) {
    return std::get<IntValue>(rows.tuples()[row][2]).value();
  };
  auto distance_of = [&rows](std::size_t row) {
    return std::get<RealValue>(rows.tuples()[row][3]).value();
  };
  // [0,2): present, moving at speed 5 for 2 time units.
  EXPECT_EQ(1, count_of(0));
  EXPECT_DOUBLE_EQ(10.0, distance_of(0));
  // [2,4): present only at the degenerate boundary instant t = 2.
  EXPECT_EQ(1, count_of(1));
  EXPECT_DOUBLE_EQ(0.0, distance_of(1));
  // [4,6), [6,8): empty windows still emit rows, with count 0.
  EXPECT_EQ(0, count_of(2));
  EXPECT_EQ(0, count_of(3));
  EXPECT_DOUBLE_EQ(0.0, distance_of(2));
  EXPECT_DOUBLE_EQ(0.0, distance_of(3));
}

TEST(LiveDifferential, WindowSpatialRectGatesQualification) {
  // Object a sits still at (0, 0); object b sits still at (100, 100).
  // A rect around the origin must count only a, in every window where a
  // is defined.
  Db db;
  ASSERT_TRUE(db.RegisterLive("still").ok());
  MutationRequest req;
  req.kind = MutationRequest::Kind::kIngest;
  req.relation = "still";
  req.fixes = {{"a", 0.0, 0, 0},
               {"a", 4.0, 0, 0},
               {"b", 0.0, 100, 100},
               {"b", 4.0, 100, 100}};
  ASSERT_TRUE(db.Apply(req).ok());

  QueryRequest q;
  q.kind = QueryRequest::Kind::kWindowAggregate;
  q.relation = "still";
  q.attr = "trail";
  q.window_t0 = 0;
  q.window_t1 = 4;
  q.window_width = 2;
  q.window_step = 2;
  q.min_x = -1;
  q.min_y = -1;
  q.max_x = 1;
  q.max_y = 1;
  Result<QueryResult> result = db.Run(q);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(2u, result->rows.NumTuples());
  for (std::size_t w = 0; w < 2; ++w) {
    EXPECT_EQ(1, std::get<IntValue>(result->rows.tuples()[w][2]).value());
  }
}

TEST(LiveDifferential, WindowValidationIsTyped) {
  Db db;
  ASSERT_TRUE(db.RegisterLive("v").ok());
  QueryRequest q;
  q.kind = QueryRequest::Kind::kWindowAggregate;
  q.relation = "v";
  q.attr = "trail";
  q.window_t0 = 0;
  q.window_t1 = 10;
  q.window_width = 0;  // must be > 0
  q.window_step = 1;
  EXPECT_EQ(StatusCode::kInvalidArgument, db.Run(q).status().code());
  q.window_width = 1;
  q.window_step = 0;  // must be > 0
  EXPECT_EQ(StatusCode::kInvalidArgument, db.Run(q).status().code());
  q.window_step = 1;
  q.window_t1 = -1;  // t1 < t0
  EXPECT_EQ(StatusCode::kInvalidArgument, db.Run(q).status().code());
  q.window_t1 = 1e18;  // way past the window-count cap
  q.window_step = 1e-9;
  EXPECT_EQ(StatusCode::kInvalidArgument, db.Run(q).status().code());
}

// Ingests fixes[0, cut) into a store-backed Db, "crashes" (drops the
// Db, reopens the store), ingests fixes[cut, end), and compares every
// query kind against an uninterrupted bulk build of all the fixes.
void ExpectResumeByteIdentical(const std::vector<Fix>& fixes, std::size_t cut,
                               int objects, int steps, std::size_t batch,
                               const ingest::LiveOptions& opts) {
  const std::vector<Fix> first(fixes.begin(), fixes.begin() + long(cut));
  const std::vector<Fix> second(fixes.begin() + long(cut), fixes.end());
  const std::string path =
      ::testing::TempDir() + "/live_differential_store.bin";
  {
    Result<VersionedSpillStore> store = VersionedSpillStore::Create(path);
    ASSERT_TRUE(store.ok());
    Db db;
    ASSERT_TRUE(db.RegisterLive("fleet", opts).ok());
    ASSERT_TRUE(db.AttachLiveStore("fleet", &*store).ok());
    IngestAll(&db, "fleet", first, batch);
    // No DrainLive: the last acked batch IS the recovery point.
  }

  Result<VersionedSpillStore> store = VersionedSpillStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->VerifyAccounting().ok());
  Db live;
  ASSERT_TRUE(live.RegisterLive("fleet", opts).ok());
  ASSERT_TRUE(live.AttachLiveStore("fleet", &*store).ok());
  IngestAll(&live, "fleet", second, batch);

  Db bulk;
  ASSERT_TRUE(bulk.Register(BulkRelation("fleet", fixes, objects)).ok());
  ASSERT_TRUE(bulk.BuildIndex("fleet", "trail").ok());
  std::vector<QueryRequest> kinds = AllKinds("fleet", steps);
  for (const QueryRequest& q : WindowVariants("fleet", steps)) {
    kinds.push_back(q);
  }
  for (const QueryRequest& q : kinds) {
    EXPECT_EQ(RunBlock(bulk, q), RunBlock(live, q)) << "cut at fix " << cut;
  }
}

TEST(LiveDifferential, PersistAndRecoverResumeByteIdentically) {
  // Recovery at two kinds of points: mid-log (the last commits before
  // the crash restaged only the manifest, so recovery replays logged
  // fixes onto checkpointed trails) and right after a checkpoint (the
  // log is empty, the roots hold everything).
  const int kObjects = 4, kSteps = 16;
  const std::size_t kBatch = 6;
  const std::vector<Fix> fixes = FleetFixes(kObjects, kSteps, 13);
  ingest::LiveOptions opts;
  opts.seal_units = 2;

  // Db::Apply persists each batch once, and which commits checkpoint
  // depends on the batches alone, so a bare LiveRelation fed the same
  // batches reports where the checkpoints fall.
  std::vector<std::size_t> log_after;  // log fixes after each batch's commit
  {
    const std::string path = ::testing::TempDir() + "/live_probe_store.bin";
    Result<VersionedSpillStore> store = VersionedSpillStore::Create(path);
    ASSERT_TRUE(store.ok());
    ingest::LiveRelation probe("fleet", opts);
    ASSERT_TRUE(probe.AttachStore(&*store).ok());
    for (std::size_t b = 0; b * kBatch < fixes.size(); ++b) {
      std::vector<ingest::IngestFix> batch;
      for (std::size_t i = b * kBatch;
           i < std::min(fixes.size(), (b + 1) * kBatch); ++i) {
        batch.push_back({fixes[i].id, fixes[i].t, fixes[i].x, fixes[i].y});
      }
      ASSERT_TRUE(probe.Ingest(batch).ok());
      ASSERT_TRUE(probe.Persist().ok());
      log_after.push_back(probe.LogFixes());
    }
  }
  // Cut after batch b: mid-log once the log spans two commits, after a
  // checkpoint once a later commit emptied it again.
  std::size_t mid_log = 0, after_checkpoint = 0;
  for (std::size_t b = 1; b + 1 < log_after.size(); ++b) {
    if (mid_log == 0 && log_after[b] > log_after[b - 1] &&
        log_after[b - 1] > 0) {
      mid_log = b + 1;
    }
    if (after_checkpoint == 0 && log_after[b] == 0) after_checkpoint = b + 1;
  }
  ASSERT_GT(mid_log, 0u) << "no commit left a log spanning two batches";
  ASSERT_GT(after_checkpoint, 0u) << "no checkpoint after the first commit";
  ExpectResumeByteIdentical(fixes, mid_log * kBatch, kObjects, kSteps, kBatch,
                            opts);
  ExpectResumeByteIdentical(fixes, after_checkpoint * kBatch, kObjects, kSteps,
                            kBatch, opts);
}

}  // namespace
}  // namespace modb
