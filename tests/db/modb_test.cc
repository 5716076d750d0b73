// modb::Db facade tests: registration lifecycle, typed request
// validation (unknown relations/attributes/type mismatches are typed
// errors that name the offender), result payloads matching direct
// operator calls, and the determinism contract — byte-identical result
// blocks for every thread count.

#include "db/modb.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "db/relation.h"
#include "gen/flights_gen.h"
#include "obs/metrics.h"
#include "serve/wire.h"
#include "spatial/point.h"
#include "temporal/batch_ops.h"
#include "temporal/lifted_ops.h"
#include "temporal/moving.h"

namespace modb {
namespace {

Relation Planes(int flights = 16) {
  FlightsOptions gen;
  gen.num_flights = flights;
  gen.seed = 99;
  Result<Relation> planes = GeneratePlanes(gen);
  EXPECT_TRUE(planes.ok()) << planes.status();
  return *std::move(planes);
}

std::string Airline(const Relation& rel, std::size_t i) {
  return std::get<StringValue>(rel.tuple(i)[kFlightAttrAirline]).value();
}

const MovingPoint& Flight(const Relation& rel, std::size_t i) {
  return std::get<MovingPoint>(rel.tuple(i)[kFlightAttrFlight]);
}

std::string Block(const QueryResult& result) {
  Result<std::string> block = serve::EncodeResultBlock(result);
  EXPECT_TRUE(block.ok()) << block.status();
  return block.ok() ? *block : std::string();
}

// ---------------------------------------------------------------------------
// Registration lifecycle.
// ---------------------------------------------------------------------------

TEST(DbLifecycle, RegisterDropAndIntrospection) {
  Db db;
  ASSERT_TRUE(db.Register(Planes()).ok());
  EXPECT_EQ(db.RelationNames(), std::vector<std::string>{"planes"});
  Result<std::uint64_t> n = db.NumTuples("planes");
  ASSERT_TRUE(n.ok());
  EXPECT_GT(*n, 0u);

  // Duplicate name, empty name, unknown drops.
  EXPECT_EQ(db.Register(Planes()).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.Register(Relation("", Schema{})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.Drop("ships").code(), StatusCode::kNotFound);
  EXPECT_EQ(db.NumTuples("ships").status().code(), StatusCode::kNotFound);

  EXPECT_TRUE(db.Drop("planes").ok());
  EXPECT_TRUE(db.RelationNames().empty());
}

TEST(DbLifecycle, BuildIndexValidatesRelationAndAttribute) {
  Db db;
  ASSERT_TRUE(db.Register(Planes()).ok());
  EXPECT_EQ(db.BuildIndex("ships", "flight").code(), StatusCode::kNotFound);

  Status bad_attr = db.BuildIndex("planes", "altitude");
  EXPECT_EQ(bad_attr.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_attr.message().find("altitude"), std::string::npos);

  // airline is a string, not an mpoint — the message names both types.
  Status bad_type = db.BuildIndex("planes", "airline");
  EXPECT_EQ(bad_type.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_type.message().find("string"), std::string::npos);
  EXPECT_NE(bad_type.message().find("mpoint"), std::string::npos);

  EXPECT_TRUE(db.BuildIndex("planes", "flight").ok());
}

// ---------------------------------------------------------------------------
// Request validation.
// ---------------------------------------------------------------------------

TEST(DbRun, TypedErrorsNameTheOffender) {
  Db db;
  ASSERT_TRUE(db.Register(Planes()).ok());

  QueryRequest req;
  req.relation = "ships";
  EXPECT_EQ(db.Run(req).status().code(), StatusCode::kNotFound);

  req.relation = "planes";
  FilterSpec f;
  f.kind = FilterSpec::Kind::kStringEquals;
  f.attr = "altitude";
  req.filters = {f};
  Result<QueryResult> r = db.Run(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("altitude"), std::string::npos);

  // Type mismatch: string-equals over the mpoint attribute.
  f.attr = "flight";
  req.filters = {f};
  r = db.Run(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("mpoint"), std::string::npos);

  // Empty deftime window.
  f.kind = FilterSpec::Kind::kDeftimeIntersects;
  f.t0 = 5;
  f.t1 = 1;
  req.filters = {f};
  r = db.Run(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // Project onto an unknown attribute.
  req.filters.clear();
  req.kind = QueryRequest::Kind::kProject;
  req.project = {"altitude"};
  r = db.Run(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // Project with no attributes at all.
  req.project.clear();
  EXPECT_EQ(db.Run(req).status().code(), StatusCode::kInvalidArgument);

  // Join against an unregistered inner.
  req.kind = QueryRequest::Kind::kJoin;
  req.join_relation = "ships";
  req.attr = "flight";
  req.join_attr = "flight";
  EXPECT_EQ(db.Run(req).status().code(), StatusCode::kNotFound);
}

TEST(DbRun, InvalidThreadCountFailsTheSharedValidation) {
  Db db;
  ASSERT_TRUE(db.Register(Planes()).ok());
  QueryRequest req;
  req.relation = "planes";
  ExecOptions options;
  options.parallel.num_threads = 5000;  // past kMaxQueryThreads = 4096
  Result<QueryResult> r = db.Run(req, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("num_threads"), std::string::npos);
  EXPECT_NE(r.status().message().find("4096"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Payloads match direct operator evaluation.
// ---------------------------------------------------------------------------

TEST(DbRun, SelectMatchesBruteForce) {
  const Relation planes = Planes();
  Db db;
  ASSERT_TRUE(db.Register(planes).ok());

  // Filter on the airline of the first tuple: guaranteed non-empty.
  const std::string airline = Airline(planes, 0);
  std::size_t expect = 0;
  for (std::size_t i = 0; i < planes.NumTuples(); ++i) {
    if (Airline(planes, i) == airline) ++expect;
  }

  QueryRequest req;
  req.kind = QueryRequest::Kind::kSelect;
  req.relation = "planes";
  FilterSpec f;
  f.kind = FilterSpec::Kind::kStringEquals;
  f.attr = "airline";
  f.value = airline;
  req.filters = {f};
  Result<QueryResult> r = db.Run(req);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->payload, QueryResult::Payload::kRows);
  EXPECT_EQ(r->rows.NumTuples(), expect);
  EXPECT_GT(expect, 0u);
  EXPECT_FALSE(r->stats.op.empty());
}

TEST(DbRun, PresentAtFilterMatchesDirectPresent) {
  const Relation planes = Planes();
  Db db;
  ASSERT_TRUE(db.Register(planes).ok());

  const Instant t = 12.0;
  std::size_t expect = 0;
  for (std::size_t i = 0; i < planes.NumTuples(); ++i) {
    if (Flight(planes, i).Present(t)) ++expect;
  }

  QueryRequest req;
  req.relation = "planes";
  FilterSpec f;
  f.kind = FilterSpec::Kind::kPresentAt;
  f.attr = "flight";
  f.t0 = t;
  req.filters = {f};
  Result<QueryResult> r = db.Run(req);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows.NumTuples(), expect);
}

TEST(DbRun, ProjectKeepsNamedAttributesInOrder) {
  Db db;
  ASSERT_TRUE(db.Register(Planes()).ok());
  QueryRequest req;
  req.kind = QueryRequest::Kind::kProject;
  req.relation = "planes";
  req.project = {"id", "airline"};
  Result<QueryResult> r = db.Run(req);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->rows.schema().NumAttributes(), 2u);
  EXPECT_EQ(r->rows.schema().attribute(0).name, "id");
  EXPECT_EQ(r->rows.schema().attribute(1).name, "airline");
  Result<std::uint64_t> n = db.NumTuples("planes");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(r->rows.NumTuples(), *n);
}

TEST(DbRun, IndexJoinMatchesNestedLoopJoin) {
  Db db;
  ASSERT_TRUE(db.Register(Planes(12)).ok());
  ASSERT_TRUE(db.BuildIndex("planes", "flight").ok());

  QueryRequest req;
  req.kind = QueryRequest::Kind::kJoin;
  req.relation = "planes";
  req.join_relation = "planes";
  req.attr = "flight";
  req.join_attr = "flight";
  req.distance = 500.0;
  req.distinct_pairs = true;
  Result<QueryResult> nested = db.Run(req);
  ASSERT_TRUE(nested.ok()) << nested.status();

  req.kind = QueryRequest::Kind::kIndexJoin;
  Result<QueryResult> indexed = db.Run(req);
  ASSERT_TRUE(indexed.ok()) << indexed.status();

  // The engine names the output relations differently per algorithm
  // (planes_x_planes vs planes_ix_planes); the contract is on schema and
  // tuples. Re-materialize both under one name and compare the blocks.
  auto renamed = [](const QueryResult& r) {
    QueryResult out;
    out.rows = Relation("joined", r.rows.schema());
    for (const Tuple& t : r.rows.tuples()) {
      EXPECT_TRUE(out.rows.Insert(t).ok());
    }
    return out;
  };
  EXPECT_GT(nested->rows.NumTuples(), 0u);
  EXPECT_EQ(Block(renamed(*nested)), Block(renamed(*indexed)));
  // The prebuilt index was reused, not rebuilt inside the plan.
  EXPECT_EQ(indexed->stats.index_builds, 0u);
}

// Q2's distance edge semantics, the same for both join kinds: no
// distance is below d <= 0 or d = NaN, and every pair of flights that
// share an instant is closer than +inf and than 1e300 (whose square
// overflows).
TEST(DbRun, JoinDistanceEdgeSemantics) {
  const Relation planes = Planes(64);
  std::uint64_t coexisting = 0;
  for (std::size_t i = 0; i < planes.NumTuples(); ++i) {
    for (std::size_t j = i + 1; j < planes.NumTuples(); ++j) {
      if (!LiftedDistance(Flight(planes, i), Flight(planes, j))->IsEmpty()) {
        ++coexisting;
      }
    }
  }
  EXPECT_EQ(coexisting, 747u);

  Db db;
  ASSERT_TRUE(db.Register(Planes(64)).ok());
  ASSERT_TRUE(db.BuildIndex("planes", "flight").ok());
  QueryRequest req;
  req.relation = "planes";
  req.join_relation = "planes";
  req.attr = "flight";
  req.join_attr = "flight";
  req.distinct_pairs = true;
  for (QueryRequest::Kind kind :
       {QueryRequest::Kind::kJoin, QueryRequest::Kind::kIndexJoin}) {
    req.kind = kind;
    for (double d : {-50.0, 0.0, std::nan("")}) {
      req.distance = d;
      Result<QueryResult> r = db.Run(req);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->rows.NumTuples(), 0u) << "d=" << d;
    }
    for (double d : {std::numeric_limits<double>::infinity(), 1e300}) {
      req.distance = d;
      Result<QueryResult> r = db.Run(req);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->rows.NumTuples(), coexisting) << "d=" << d;
    }
  }
}

// The join stage reports the EverWithin sweep's work in its ExecStats.
TEST(DbRun, JoinStatsCountPredicateIntervals) {
  Db db;
  ASSERT_TRUE(db.Register(Planes(64)).ok());
  ASSERT_TRUE(db.BuildIndex("planes", "flight").ok());
  QueryRequest req;
  req.kind = QueryRequest::Kind::kIndexJoin;
  req.relation = "planes";
  req.join_relation = "planes";
  req.attr = "flight";
  req.join_attr = "flight";
  req.distance = 50;
  req.distinct_pairs = true;
  Result<QueryResult> r = db.Run(req);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_FALSE(r->stats.children.empty());
  const ExecStats& join = r->stats.children.back();
  EXPECT_EQ(join.op, "join_probe");
#ifdef MODB_NO_METRICS
  EXPECT_EQ(join.predicate_intervals, 0u);
#else
  EXPECT_GT(join.predicate_intervals, 0u);
#endif
  EXPECT_EQ(r->stats.predicate_intervals, join.predicate_intervals);
  EXPECT_EQ(r->stats.predicate_fallbacks, join.predicate_fallbacks);
}

TEST(DbRun, AtInstantBatchMatchesPerTupleKernels) {
  const Relation planes = Planes();
  Db db;
  ASSERT_TRUE(db.Register(planes).ok());

  std::vector<Instant> instants;
  for (Instant t = 0; t <= 24.0; t += 1.0) instants.push_back(t);

  QueryRequest req;
  req.kind = QueryRequest::Kind::kAtInstantBatch;
  req.relation = "planes";
  req.attr = "flight";
  req.instants = instants;
  Result<QueryResult> r = db.Run(req);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->payload, QueryResult::Payload::kXY);
  ASSERT_EQ(r->batch_tuples, planes.NumTuples());
  ASSERT_EQ(r->batch_instants, instants.size());
  const std::size_t cells = planes.NumTuples() * instants.size();
  ASSERT_EQ(r->defined.size(), cells);

  // Compact: one coordinate pair per defined cell, in cell order. Walk
  // the defined cells against each row's own kernel output.
  BatchScratch scratch;
  std::size_t next = 0;  // the result's coordinate slot of the next defined cell
  for (std::size_t i = 0; i < planes.NumTuples(); ++i) {
    BatchXYOutput xy;
    ASSERT_TRUE(
        AtInstantBatchXYInto(Flight(planes, i), instants, &xy, &scratch).ok());
    ASSERT_EQ(xy.defined.size(), instants.size());
    ASSERT_EQ(xy.xs.size(), xy.ys.size());
    std::size_t row_slot = 0;
    for (std::size_t k = 0; k < instants.size(); ++k) {
      const std::size_t cell = i * instants.size() + k;
      ASSERT_EQ(r->defined[cell], xy.defined[k]);
      const Intime<Point> one = Flight(planes, i).AtInstant(instants[k]);
      ASSERT_EQ(xy.defined[k] != 0, one.defined);
      if (xy.defined[k] == 0) continue;
      ASSERT_LT(next, r->xs.size());
      ASSERT_LT(row_slot, xy.xs.size());
      EXPECT_EQ(r->xs[next], xy.xs[row_slot]);
      EXPECT_EQ(r->ys[next], xy.ys[row_slot]);
      EXPECT_EQ(r->xs[next], one.value.x);
      EXPECT_EQ(r->ys[next], one.value.y);
      ++next;
      ++row_slot;
    }
    EXPECT_EQ(row_slot, xy.xs.size());
  }
  EXPECT_EQ(next, r->xs.size());
  EXPECT_EQ(next, r->ys.size());
  EXPECT_GT(next, 0u);
  EXPECT_LT(next, cells);
}

TEST(DbRun, PresentBatchMatchesDirectPresent) {
  const Relation planes = Planes();
  Db db;
  ASSERT_TRUE(db.Register(planes).ok());

  const std::vector<Instant> instants = {0.0, 6.0, 12.0, 18.0, 24.0};
  QueryRequest req;
  req.kind = QueryRequest::Kind::kPresentBatch;
  req.relation = "planes";
  req.attr = "flight";
  req.instants = instants;
  Result<QueryResult> r = db.Run(req);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->payload, QueryResult::Payload::kPresent);
  ASSERT_EQ(r->present.size(), planes.NumTuples() * instants.size());
  for (std::size_t i = 0; i < planes.NumTuples(); ++i) {
    for (std::size_t k = 0; k < instants.size(); ++k) {
      EXPECT_EQ(r->present[i * instants.size() + k] != 0,
                Flight(planes, i).Present(instants[k]))
          << "tuple " << i << " instant " << instants[k];
    }
  }
  EXPECT_EQ(r->stats.op, "present_batch_many");
}

// The batch terminal adds its kernels' counters once per morsel; the
// totals of one Db::Run are what the kernels add called row by row,
// each flushing its own.
TEST(DbRun, BatchCounterDeltasMatchPerCallKernels) {
#ifndef MODB_NO_METRICS
  static constexpr const char* kNames[] = {
      "temporal.batch.atinstant_xy_calls",
      "temporal.batch.present_calls",
      "temporal.batch.atinstant_instants",
      "temporal.batch.present_instants",
      "temporal.batch.units_scanned",
      "temporal.batch.sweep_cursor_hits",
      "temporal.batch.sweep_gallop_searches",
      "temporal.batch.sweep_bbox_skips"};
  using Deltas = std::vector<std::uint64_t>;
  auto deltas = [](auto run) {
    Deltas before, delta;
    for (const char* name : kNames) {
      before.push_back(obs::Metrics::Global().counter(name)->value());
    }
    run();
    for (std::size_t i = 0; i < before.size(); ++i) {
      delta.push_back(obs::Metrics::Global().counter(kNames[i])->value() -
                      before[i]);
    }
    return delta;
  };
  const Relation planes = Planes(64);
  Db db;
  ASSERT_TRUE(db.Register(planes).ok());
  // Dense and sparse instants, so both sweep regimes count.
  for (const std::vector<Instant>& instants :
       {std::vector<Instant>{0.0, 6.0, 12.0, 18.0, 24.0},
        std::vector<Instant>{3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0,
                             7.5, 8.0, 8.5, 9.0, 9.5, 10.0, 10.5, 11.0}}) {
    const Deltas present = deltas([&] {
      std::vector<std::uint8_t> flags;
      for (std::size_t i = 0; i < planes.NumTuples(); ++i) {
        ASSERT_TRUE(PresentBatchInto(Flight(planes, i), instants, &flags).ok());
      }
    });
    const Deltas xy = deltas([&] {
      BatchScratch scratch;
      BatchXYOutput out;
      for (std::size_t i = 0; i < planes.NumTuples(); ++i) {
        ASSERT_TRUE(
            AtInstantBatchXYInto(Flight(planes, i), instants, &out, &scratch)
                .ok());
      }
    });
    EXPECT_GT(present[1], 0u);
    EXPECT_GT(xy[0], 0u);
    for (int threads : {1, 4}) {
      ExecOptions options;
      options.parallel.num_threads = threads;
      QueryRequest req;
      req.relation = "planes";
      req.attr = "flight";
      req.instants = instants;
      req.kind = QueryRequest::Kind::kPresentBatch;
      EXPECT_EQ(deltas([&] { ASSERT_TRUE(db.Run(req, options).ok()); }),
                present)
          << threads << " threads";
      req.kind = QueryRequest::Kind::kAtInstantBatch;
      EXPECT_EQ(deltas([&] { ASSERT_TRUE(db.Run(req, options).ok()); }), xy)
          << threads << " threads";
    }
  }
#endif
}

TEST(DbRun, BatchKindsRejectUnsortedInstants) {
  Db db;
  ASSERT_TRUE(db.Register(Planes()).ok());
  QueryRequest req;
  req.kind = QueryRequest::Kind::kAtInstantBatch;
  req.relation = "planes";
  req.attr = "flight";
  req.instants = {2.0, 1.0};
  EXPECT_EQ(db.Run(req).status().code(), StatusCode::kInvalidArgument);
  req.kind = QueryRequest::Kind::kPresentBatch;
  EXPECT_EQ(db.Run(req).status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Determinism: byte-identical result blocks for every thread count.
// ---------------------------------------------------------------------------

TEST(DbRun, ResultBlocksAreByteIdenticalAcrossThreadCounts) {
  Db db;
  ASSERT_TRUE(db.Register(Planes(12)).ok());
  ASSERT_TRUE(db.BuildIndex("planes", "flight").ok());

  std::vector<QueryRequest> requests;
  QueryRequest select;
  select.kind = QueryRequest::Kind::kSelect;
  select.relation = "planes";
  FilterSpec f;
  f.kind = FilterSpec::Kind::kTrajectoryLengthAtLeast;
  f.attr = "flight";
  f.threshold = 5000.0;
  select.filters = {f};
  requests.push_back(select);

  QueryRequest join;
  join.kind = QueryRequest::Kind::kIndexJoin;
  join.relation = "planes";
  join.join_relation = "planes";
  join.attr = "flight";
  join.join_attr = "flight";
  join.distance = 500.0;
  requests.push_back(join);

  QueryRequest project;
  project.kind = QueryRequest::Kind::kProject;
  project.relation = "planes";
  project.filters = {f};
  project.project = {"id", "airline"};
  requests.push_back(project);

  join.kind = QueryRequest::Kind::kJoin;
  requests.push_back(join);

  QueryRequest batch;
  batch.kind = QueryRequest::Kind::kAtInstantBatch;
  batch.relation = "planes";
  batch.attr = "flight";
  for (Instant t = 0; t <= 24.0; t += 0.5) batch.instants.push_back(t);
  requests.push_back(batch);

  batch.kind = QueryRequest::Kind::kPresentBatch;
  requests.push_back(batch);

  QueryRequest window;
  window.kind = QueryRequest::Kind::kWindowAggregate;
  window.relation = "planes";
  window.attr = "flight";
  window.filters = {f};
  window.window_t0 = 0;
  window.window_t1 = 30;
  window.window_width = 2;
  window.window_step = 0.5;
  window.min_x = 2500;
  window.min_y = 2500;
  window.max_x = 7500;
  window.max_y = 7500;
  requests.push_back(window);
  ASSERT_EQ(requests.size(), 7u);  // every QueryRequest kind

  for (const QueryRequest& req : requests) {
    ExecOptions serial;
    serial.parallel.num_threads = 1;
    Result<QueryResult> base = db.Run(req, serial);
    ASSERT_TRUE(base.ok()) << base.status();
    const std::string expect = Block(*base);
    for (int threads : {2, 4, 8}) {
      ExecOptions options;
      options.parallel.num_threads = threads;
      Result<QueryResult> r = db.Run(req, options);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(Block(*r), expect)
          << "kind " << int(req.kind) << " threads " << threads;
    }
  }
}

TEST(DbRun, StatsMirrorIntoCallerSink) {
  Db db;
  ASSERT_TRUE(db.Register(Planes()).ok());
  QueryRequest req;
  req.relation = "planes";
  ExecStats stats;
  ExecOptions options;
  options.stats = &stats;
  Result<QueryResult> r = db.Run(req, options);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(stats.op, r->stats.op);
  EXPECT_EQ(stats.tuples_out, r->stats.tuples_out);
  EXPECT_FALSE(stats.op.empty());
}

}  // namespace
}  // namespace modb
