#include "db/relation.h"

#include <gtest/gtest.h>

#include "exec/planner.h"
#include "gen/flights_gen.h"
#include "temporal/lifted_ops.h"

namespace modb {
namespace {

using JoinAlgorithm = exec::LogicalQuery::JoinSpec::Algorithm;

// Plans and runs `q` on the exec engine; the output relation.
Relation Execute(const exec::LogicalQuery& q) {
  Result<exec::PhysicalPlan> plan = exec::PlanQuery(q);
  EXPECT_TRUE(plan.ok()) << plan.status();
  Result<exec::PlanOutput> out = exec::RunPlan(*plan, ExecOptions{});
  EXPECT_TRUE(out.ok()) << out.status();
  return std::move(out->rows);
}

// σ_pred(rel) on the exec engine.
Relation Select(const Relation& rel, std::function<bool(const Tuple&)> pred) {
  exec::LogicalQuery q;
  q.rel = &rel;
  q.filters.push_back(std::move(pred));
  return Execute(q);
}

// The self join of `rel` on its flight attribute under `pred`.
Relation SelfJoin(const Relation& rel, JoinAlgorithm algorithm,
                  exec::JoinPred pred, double expand = 0) {
  exec::LogicalQuery q;
  q.rel = &rel;
  q.join.emplace();
  q.join->algorithm = algorithm;
  q.join->inner = &rel;
  q.join->attr_outer = kFlightAttrFlight;
  q.join->attr_inner = kFlightAttrFlight;
  q.join->expand = expand;
  q.join->pred = std::move(pred);
  return Execute(q);
}

Relation MakePlanesSmall() {
  // Two planes crossing paths (closest approach 0 at t=5, position (5,0))
  // and one far away.
  Relation planes("planes", Schema({{"airline", AttributeType::kString},
                                    {"id", AttributeType::kString},
                                    {"flight", AttributeType::kMovingPoint}}));
  auto ti = *TimeInterval::Make(0, 10, true, true);
  MovingPoint f1 = *MovingPoint::Make(
      {*UPoint::FromEndpoints(ti, Point(0, 0), Point(10, 0))});
  MovingPoint f2 = *MovingPoint::Make(
      {*UPoint::FromEndpoints(ti, Point(5, -5), Point(5, 5))});
  MovingPoint f3 = *MovingPoint::Make(
      {*UPoint::FromEndpoints(ti, Point(100, 100), Point(120, 100))});
  EXPECT_TRUE(planes
                  .Insert({StringValue(std::string("Lufthansa")),
                           StringValue(std::string("LH1")), f1})
                  .ok());
  EXPECT_TRUE(planes
                  .Insert({StringValue(std::string("KLM")),
                           StringValue(std::string("KL2")), f2})
                  .ok());
  EXPECT_TRUE(planes
                  .Insert({StringValue(std::string("Lufthansa")),
                           StringValue(std::string("LH3")), f3})
                  .ok());
  return planes;
}

TEST(SchemaTest, IndexLookup) {
  Schema s({{"a", AttributeType::kInt}, {"b", AttributeType::kReal}});
  EXPECT_EQ(s.IndexOf("b"), 1);
  EXPECT_EQ(s.IndexOf("zzz"), -1);
}

TEST(RelationInsert, TypeChecking) {
  Relation r("t", Schema({{"x", AttributeType::kInt}}));
  EXPECT_TRUE(r.Insert({IntValue(1)}).ok());
  EXPECT_FALSE(r.Insert({RealValue(1.0)}).ok());   // Wrong type.
  EXPECT_FALSE(r.Insert({IntValue(1), IntValue(2)}).ok());  // Wrong arity.
  EXPECT_EQ(r.NumTuples(), 1u);
}

TEST(QueryOps, SelectAndProject) {
  Relation planes = MakePlanesSmall();
  Relation lh = Select(planes, [](const Tuple& t) {
    return std::get<StringValue>(t[0]).value() == "Lufthansa";
  });
  EXPECT_EQ(lh.NumTuples(), 2u);
  exec::LogicalQuery project;
  project.rel = &lh;
  project.project = std::vector<int>{1};
  Relation ids = Execute(project);
  EXPECT_EQ(ids.schema().NumAttributes(), 1u);
  EXPECT_EQ(std::get<StringValue>(ids.tuple(0)[0]).value(), "LH1");
  project.project = std::vector<int>{3};
  EXPECT_FALSE(exec::PlanQuery(project).ok());
}

// The paper's first query: SELECT airline, id FROM planes WHERE
// airline = "Lufthansa" AND length(trajectory(flight)) > 5000.
TEST(PaperQueries, TrajectoryLengthFilter) {
  Relation planes = *GeneratePlanes({.num_airports = 8,
                                     .num_flights = 30,
                                     .extent = 10000,
                                     .units_per_flight = 4,
                                     .speed = 800,
                                     .departure_window = 24,
                                     .seed = 1});
  Relation result = Select(planes, [](const Tuple& t) {
    return std::get<StringValue>(t[kFlightAttrAirline]).value() ==
               "Lufthansa" &&
           Trajectory(std::get<MovingPoint>(t[kFlightAttrFlight])).Length() >
               5000;
  });
  // Sanity: all results really are long Lufthansa flights, and the
  // filter is non-trivial in both directions.
  for (const Tuple& t : result.tuples()) {
    EXPECT_EQ(std::get<StringValue>(t[0]).value(), "Lufthansa");
    EXPECT_GT(Trajectory(std::get<MovingPoint>(t[2])).Length(), 5000);
  }
  EXPECT_LT(result.NumTuples(), planes.NumTuples());
}

// The paper's second query: pairs of planes that came closer than 0.5:
// val(initial(atmin(distance(p.flight, q.flight)))) < 0.5.
TEST(PaperQueries, SpatioTemporalJoin) {
  Relation planes = MakePlanesSmall();
  auto close_pred = [](const Tuple& a, std::size_t i, const Tuple& b,
                       std::size_t j, EverWithinStats*) {
    if (i >= j) return false;  // Dedup self-join pairs.
    auto d = LiftedDistance(std::get<MovingPoint>(a[2]),
                            std::get<MovingPoint>(b[2]));
    if (!d.ok() || d->IsEmpty()) return false;
    auto am = AtMin(*d);
    if (!am.ok()) return false;
    return am->Initial().val() < 0.5;
  };
  Relation pairs = SelfJoin(planes, JoinAlgorithm::kNestedLoop, close_pred);
  ASSERT_EQ(pairs.NumTuples(), 1u);
  EXPECT_EQ(std::get<StringValue>(pairs.tuple(0)[1]).value(), "LH1");
  EXPECT_EQ(std::get<StringValue>(pairs.tuple(0)[4]).value(), "KL2");
}

TEST(QueryOps, IndexJoinMatchesNestedLoop) {
  Relation planes = *GeneratePlanes({.num_airports = 6,
                                     .num_flights = 25,
                                     .extent = 1000,
                                     .units_per_flight = 4,
                                     .speed = 100,
                                     .departure_window = 5,
                                     .seed = 3});
  const double kDist = 40;
  auto pred = [kDist](const Tuple& a, std::size_t i, const Tuple& b,
                      std::size_t j, EverWithinStats*) {
    if (i >= j) return false;
    auto d = LiftedDistance(std::get<MovingPoint>(a[2]),
                            std::get<MovingPoint>(b[2]));
    if (!d.ok() || d->IsEmpty()) return false;
    auto mv = MinValue(*d);
    return mv.has_value() && *mv < kDist;
  };
  Relation nl = SelfJoin(planes, JoinAlgorithm::kNestedLoop, pred, kDist);
  Relation ix = SelfJoin(planes, JoinAlgorithm::kIndex, pred, kDist);
  EXPECT_EQ(ix.NumTuples(), nl.NumTuples());
  EXPECT_GT(nl.NumTuples(), 0u);
}

TEST(AttributeTypes, NamesAndTypeOf) {
  EXPECT_STREQ(AttributeTypeName(AttributeType::kMovingPoint), "mpoint");
  AttributeValue v = IntValue(1);
  EXPECT_EQ(TypeOf(v), AttributeType::kInt);
  AttributeValue m = MovingPoint();
  EXPECT_EQ(TypeOf(m), AttributeType::kMovingPoint);
}

}  // namespace
}  // namespace modb
