// Experiments Q1/Q2 (Section 2): the two example queries on the planes
// relation, plus the D4 ablation (unit bounding cubes + R-tree for the
// spatio-temporal join), and the reply codec on the results modbd
// serves most.

#include <benchmark/benchmark.h>

#include <random>
#include <string>

#include "db/modb.h"
#include "exec/planner.h"
#include "gen/flights_gen.h"
#include "gen/trajectory_gen.h"
#include "serve/wire.h"
#include "temporal/lifted_ops.h"

namespace modb {
namespace {

Relation Planes(int flights) {
  FlightsOptions opts;
  opts.num_airports = 12;
  opts.num_flights = flights;
  opts.extent = 10000;
  opts.units_per_flight = 8;
  opts.speed = 800;
  opts.departure_window = 24;
  opts.seed = 99;
  return *GeneratePlanes(opts);
}

using JoinAlgorithm = exec::LogicalQuery::JoinSpec::Algorithm;

// Plans `q` once and runs it every iteration.
void RunQueryLoop(benchmark::State& state, const exec::LogicalQuery& q) {
  const exec::PhysicalPlan plan = *exec::PlanQuery(q);
  for (auto _ : state) {
    Relation r = std::move(exec::RunPlan(plan, ExecOptions{})->rows);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}

// Q1: SELECT … WHERE airline = "Lufthansa" AND
//     length(trajectory(flight)) > 5000.
void BM_Q1_TrajectoryLength(benchmark::State& state) {
  Relation planes = Planes(int(state.range(0)));
  exec::LogicalQuery q;
  q.rel = &planes;
  q.filters.push_back([](const Tuple& t) {
    return std::get<StringValue>(t[kFlightAttrAirline]).value() ==
               "Lufthansa" &&
           Trajectory(std::get<MovingPoint>(t[kFlightAttrFlight])).Length() >
               5000;
  });
  RunQueryLoop(state, q);
}
BENCHMARK(BM_Q1_TrajectoryLength)->RangeMultiplier(2)->Range(16, 256)
    ->Complexity(benchmark::oN);

// The Q2 predicate modbd runs: the fused EverWithin sweep.
bool ClosePred(const Tuple& a, const Tuple& b, int attr, double dist,
               EverWithinStats* stats) {
  return EverWithin(std::get<MovingPoint>(a[std::size_t(attr)]),
                    std::get<MovingPoint>(b[std::size_t(attr)]), dist, stats);
}

// The Q2 self-join of `rel` on its moving point `attr` at distance 50.
exec::LogicalQuery Q2(const Relation& rel, JoinAlgorithm algorithm,
                      const RTree3D* prebuilt = nullptr,
                      int attr = kFlightAttrFlight) {
  exec::LogicalQuery q;
  q.rel = &rel;
  q.join.emplace();
  q.join->algorithm = algorithm;
  q.join->inner = &rel;
  q.join->attr_outer = attr;
  q.join->attr_inner = attr;
  q.join->expand = 50;
  q.join->pred = [attr](const Tuple& a, std::size_t, const Tuple& b,
                        std::size_t, EverWithinStats* stats) {
    return ClosePred(a, b, attr, 50, stats);
  };
  q.join->distinct_pairs = true;
  q.join->prebuilt = prebuilt;
  return q;
}

// Q2: the spatio-temporal join via
//     val(initial(atmin(distance(p, q)))) < 50.
void BM_Q2_Join_NestedLoop(benchmark::State& state) {
  Relation planes = Planes(int(state.range(0)));
  RunQueryLoop(state, Q2(planes, JoinAlgorithm::kNestedLoop));
}
BENCHMARK(BM_Q2_Join_NestedLoop)->RangeMultiplier(2)->Range(16, 256)
    ->Complexity(benchmark::oNSquared);

// D4 ablation: R-tree over unit bounding cubes prunes candidate pairs.
void BM_Q2_Join_RTree(benchmark::State& state) {
  Relation planes = Planes(int(state.range(0)));
  RunQueryLoop(state, Q2(planes, JoinAlgorithm::kIndex));
}
BENCHMARK(BM_Q2_Join_RTree)->RangeMultiplier(2)->Range(16, 256)
    ->Complexity();

// The probe loop in isolation: the R-tree is built once outside the
// timed region, so iterations measure candidate probing + refinement
// only — the loop the flattened SoA layout and zero-allocation scratch
// target.
void BM_Q2_Join_RTree_Prebuilt(benchmark::State& state) {
  Relation planes = Planes(int(state.range(0)));
  RTree3D index = *exec::BuildMovingPointIndex(planes, kFlightAttrFlight);
  RunQueryLoop(state, Q2(planes, JoinAlgorithm::kIndex, &index));
}
BENCHMARK(BM_Q2_Join_RTree_Prebuilt)->RangeMultiplier(2)->Range(16, 256)
    ->Complexity();

// The fleet workload's relation: eight yard tractors, random walks of
// `units` 10 s units at up to 15 m/s on a 2 km site, so every pair
// passes within 50 m many times.
constexpr int kTrailAttr = 1;

Relation FleetTrails(int units) {
  std::mt19937_64 rng(5);
  TrajectoryOptions opts;
  opts.num_units = units;
  opts.unit_duration = 10;
  opts.extent = 2000;
  opts.max_step = 150;
  Relation rel("fleet", Schema({{"id", AttributeType::kInt},
                                {"trail", AttributeType::kMovingPoint}}));
  for (int i = 0; i < 8; ++i) {
    (void)rel.Insert({IntValue(i), *RandomWalkPoint(rng, opts)});
  }
  return rel;
}

// The fleet's Q2 over a prebuilt tree: a probe that finds every other
// tractor within a few units of each trail, then 28 refinements.
void BM_IndexJoinProbe_FleetTrails(benchmark::State& state) {
  const Relation fleet = FleetTrails(int(state.range(0)));
  RTree3D index = *exec::BuildMovingPointIndex(fleet, kTrailAttr);
  RunQueryLoop(state, Q2(fleet, JoinAlgorithm::kIndex, &index, kTrailAttr));
}
BENCHMARK(BM_IndexJoinProbe_FleetTrails)->Arg(4600);

// The join predicate in isolation, composed as the paper writes it:
// distance + atmin + initial. The reference EverWithin must agree with.
bool ComposedClose(const MovingPoint& p, const MovingPoint& q, double dist) {
  auto d = LiftedDistance(p, q);
  if (!d.ok() || d->IsEmpty()) return false;
  auto am = AtMin(*d);
  return am.ok() && !am->IsEmpty() && am->Initial().val() < dist;
}

// Flight 0 against every other flight of planes(64) at distance 50.
template <bool (*Close)(const MovingPoint&, const MovingPoint&, double)>
void PlanesPredicateLoop(benchmark::State& state) {
  Relation planes = Planes(64);
  const auto& p = std::get<MovingPoint>(planes.tuple(0)[kFlightAttrFlight]);
  for (auto _ : state) {
    int hits = 0;
    for (std::size_t j = 1; j < planes.NumTuples(); ++j) {
      const auto& q =
          std::get<MovingPoint>(planes.tuple(j)[kFlightAttrFlight]);
      if (Close(p, q, 50)) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
}

// One pair of fleet-like trails: random walks of state.range(0) units
// over the same period, tested at distance 50.
template <bool (*Close)(const MovingPoint&, const MovingPoint&, double)>
void TrailPairPredicateLoop(benchmark::State& state) {
  std::mt19937_64 rng(7);
  TrajectoryOptions opts;
  opts.num_units = int(state.range(0));
  const MovingPoint p = *RandomWalkPoint(rng, opts);
  const MovingPoint q = *RandomWalkPoint(rng, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Close(p, q, 50));
  }
}

bool FusedClose(const MovingPoint& p, const MovingPoint& q, double dist) {
  return EverWithin(p, q, dist);
}

void BM_Q2_PredicateOnly(benchmark::State& state) {
  PlanesPredicateLoop<ComposedClose>(state);
}
BENCHMARK(BM_Q2_PredicateOnly);

void BM_Q2_PredicateOnly_Trails(benchmark::State& state) {
  TrailPairPredicateLoop<ComposedClose>(state);
}
BENCHMARK(BM_Q2_PredicateOnly_Trails)->Arg(1250);

// The fused kernel on the same inputs.
void BM_Q2_EverWithinOnly(benchmark::State& state) {
  PlanesPredicateLoop<FusedClose>(state);
}
BENCHMARK(BM_Q2_EverWithinOnly);

void BM_Q2_EverWithinOnly_Trails(benchmark::State& state) {
  TrailPairPredicateLoop<FusedClose>(state);
}
BENCHMARK(BM_Q2_EverWithinOnly_Trails)->Arg(1250);

// planes_scan's window, present and atinstant requests over 1024
// flights through Db::Run on one worker. The trails carry no search
// index, as in every relation modbd serves, so the batch kinds sweep
// the unit records.
void RunPlanesScanKind(benchmark::State& state, const QueryRequest& req) {
  Db db;
  (void)db.Register(Planes(int(state.range(0))));
  ExecOptions options;
  options.parallel.num_threads = 1;
  for (auto _ : state) {
    Result<QueryResult> r = db.Run(req, options);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r);
  }
}

QueryRequest PlanesScanBatch(QueryRequest::Kind kind) {
  QueryRequest req;  // 49 half-hourly instants over the departure window
  req.kind = kind;
  req.relation = "planes";
  req.attr = "flight";
  for (int i = 0; i <= 48; ++i) req.instants.push_back(0.25 + 0.5 * i);
  return req;
}

void BM_WindowAggregate_Planes(benchmark::State& state) {
  QueryRequest req;  // 36 sliding 2 h windows inside a rect
  req.kind = QueryRequest::Kind::kWindowAggregate;
  req.relation = "planes";
  req.attr = "flight";
  req.window_t0 = 0.5;
  req.window_t1 = 36.5;
  req.window_width = 2;
  req.window_step = 1;
  req.min_x = 2500;
  req.min_y = 2500;
  req.max_x = 7500;
  req.max_y = 7500;
  RunPlanesScanKind(state, req);
}
BENCHMARK(BM_WindowAggregate_Planes)->Arg(1024);

void BM_PresentBatch_Planes(benchmark::State& state) {
  RunPlanesScanKind(state,
                    PlanesScanBatch(QueryRequest::Kind::kPresentBatch));
}
BENCHMARK(BM_PresentBatch_Planes)->Arg(1024);

void BM_AtInstantBatchXY_Planes(benchmark::State& state) {
  RunPlanesScanKind(state,
                    PlanesScanBatch(QueryRequest::Kind::kAtInstantBatch));
}
BENCHMARK(BM_AtInstantBatchXY_Planes)->Arg(1024);

// The reply codec: a result encoded into a reply payload (what modbd
// does per query) and decoded back into a QueryResult (what its client
// does), on the atinstant xy block of 1024 flights x 49 half-hourly
// instants, on the rows of the 256-flight Q2 join and on the fleet
// join's rows of 4600-unit trails.
QueryResult RunOnPlanes(int flights, const QueryRequest& req) {
  Db db;
  (void)db.Register(Planes(flights));
  (void)db.BuildIndex("planes", "flight");
  return *db.Run(req);
}

const QueryResult& AtInstantXY() {
  static const QueryResult result = [] {
    QueryRequest req;
    req.kind = QueryRequest::Kind::kAtInstantBatch;
    req.relation = "planes";
    req.attr = "flight";
    for (int i = 0; i <= 48; ++i) req.instants.push_back(0.5 * i);
    return RunOnPlanes(1024, req);
  }();
  return result;
}

const QueryResult& JoinRows() {
  static const QueryResult result = [] {
    QueryRequest req;
    req.kind = QueryRequest::Kind::kIndexJoin;
    req.relation = "planes";
    req.join_relation = "planes";
    req.attr = "flight";
    req.join_attr = "flight";
    req.distance = 50;
    req.distinct_pairs = true;
    return RunOnPlanes(256, req);
  }();
  return result;
}

// The fleet join's reply: both 4600-unit trails of every pair, each
// trail sent once and referenced by every later row that repeats it.
const QueryResult& FleetJoinRows() {
  static const QueryResult result = [] {
    Db db;
    (void)db.Register(FleetTrails(4600));
    (void)db.BuildIndex("fleet", "trail");
    QueryRequest req;
    req.kind = QueryRequest::Kind::kIndexJoin;
    req.relation = "fleet";
    req.join_relation = "fleet";
    req.attr = "trail";
    req.join_attr = "trail";
    req.distance = 50;
    req.distinct_pairs = true;
    return *db.Run(req);
  }();
  return result;
}

void EncodeReplyLoop(benchmark::State& state, const QueryResult& result) {
  std::size_t bytes = 0;
  for (auto _ : state) {
    Result<std::string> payload = serve::EncodeReply(Status::OK(), &result);
    bytes = payload->size();
    benchmark::DoNotOptimize(payload->data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(std::int64_t(state.iterations() * bytes));
}

void DecodeReplyLoop(benchmark::State& state, const QueryResult& result) {
  const std::string payload = *serve::EncodeReply(Status::OK(), &result);
  for (auto _ : state) {
    Result<serve::WireReply> wire = serve::DecodeReply(payload);
    Result<QueryResult> back = serve::DecodeResultBlock(wire->result_block);
    if (!back.ok()) state.SkipWithError("reply did not decode");
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(std::int64_t(state.iterations() * payload.size()));
}

void BM_EncodeReply_XY(benchmark::State& state) {
  EncodeReplyLoop(state, AtInstantXY());
}
BENCHMARK(BM_EncodeReply_XY);

void BM_DecodeReply_XY(benchmark::State& state) {
  DecodeReplyLoop(state, AtInstantXY());
}
BENCHMARK(BM_DecodeReply_XY);

void BM_EncodeReply_JoinRows(benchmark::State& state) {
  EncodeReplyLoop(state, JoinRows());
}
BENCHMARK(BM_EncodeReply_JoinRows);

void BM_DecodeReply_JoinRows(benchmark::State& state) {
  DecodeReplyLoop(state, JoinRows());
}
BENCHMARK(BM_DecodeReply_JoinRows);

void BM_EncodeReply_FleetJoinRows(benchmark::State& state) {
  EncodeReplyLoop(state, FleetJoinRows());
}
BENCHMARK(BM_EncodeReply_FleetJoinRows);

void BM_DecodeReply_FleetJoinRows(benchmark::State& state) {
  DecodeReplyLoop(state, FleetJoinRows());
}
BENCHMARK(BM_DecodeReply_FleetJoinRows);

}  // namespace
}  // namespace modb
