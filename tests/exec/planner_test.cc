#include "exec/planner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/flights_gen.h"

namespace modb {
namespace exec {
namespace {

Relation TestPlanes(int num_flights, std::uint64_t seed) {
  FlightsOptions opt;
  opt.num_flights = num_flights;
  opt.seed = seed;
  auto rel = GeneratePlanes(opt);
  EXPECT_TRUE(rel.ok()) << rel.status();
  return *rel;
}

bool AnyPair(const Tuple&, std::size_t, const Tuple&, std::size_t,
             EverWithinStats*) {
  return true;
}

LogicalQuery JoinQuery(const Relation* outer, const Relation* inner,
                       LogicalQuery::JoinSpec::Algorithm algorithm =
                           LogicalQuery::JoinSpec::Algorithm::kAuto) {
  LogicalQuery q;
  q.rel = outer;
  LogicalQuery::JoinSpec join;
  join.algorithm = algorithm;
  join.inner = inner;
  join.attr_outer = kFlightAttrFlight;
  join.attr_inner = kFlightAttrFlight;
  join.expand = 100.0;
  join.pred = AnyPair;
  q.join = std::move(join);
  return q;
}

// ---------------------------------------------------------------------------
// The one rule: join algorithm choice.
// ---------------------------------------------------------------------------

// Tiny join: outer×inner below the eval budget, nested loop wins (no
// build step, probe kind kNestedLoop).
TEST(Planner, AutoPicksNestedLoopForTinyJoin) {
  Relation a = TestPlanes(8, 1);
  Relation b = TestPlanes(8, 2);
  auto plan = PlanQuery(JoinQuery(&a, &b));
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(plan->build.has_value());
  ASSERT_TRUE(plan->pipe.join.has_value());
  EXPECT_EQ(plan->pipe.join->kind, JoinProbeOp::Kind::kNestedLoop);
  EXPECT_EQ(plan->out_name, "planes_x_planes");
}

// Large join: the index pays for its build; the plan grows a build step
// whose tree the probe uses.
TEST(Planner, AutoPicksIndexJoinForLargeJoin) {
  Relation a = TestPlanes(100, 3);
  Relation b = TestPlanes(100, 4);
  auto plan = PlanQuery(JoinQuery(&a, &b));
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(plan->build.has_value());
  EXPECT_EQ(plan->build->rel, &b);
  const Pipeline& pipe = plan->pipe;
  ASSERT_TRUE(pipe.join.has_value());
  EXPECT_EQ(pipe.join->kind, JoinProbeOp::Kind::kIndex);
  EXPECT_EQ(pipe.join->tree, nullptr);
  EXPECT_EQ(plan->out_name, "planes_ix_planes");
}

// A kAuto join's plan is a pure function of its query: planning a
// 64×64 join first must not change the plan of a 64×127 join, whose
// 8128 predicate evaluations are over the nested-loop budget.
TEST(Planner, AutoJoinPlanDependsOnlyOnTheQuery) {
  Relation a = TestPlanes(64, 9);
  Relation small = TestPlanes(64, 10);
  Relation large = TestPlanes(127, 10);
  auto first = PlanQuery(JoinQuery(&a, &small));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->out_name, "planes_x_planes");

  auto plan = PlanQuery(JoinQuery(&a, &large));
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->out_name, "planes_ix_planes");
  EXPECT_TRUE(plan->build.has_value());
  ASSERT_TRUE(plan->pipe.join.has_value());
  EXPECT_EQ(plan->pipe.join->kind, JoinProbeOp::Kind::kIndex);
}

// A prebuilt tree makes the index free: chosen even for tiny inputs,
// with no build step.
TEST(Planner, PrebuiltTreeForcesIndexJoinWithoutBuildStep) {
  Relation a = TestPlanes(4, 5);
  Relation b = TestPlanes(4, 6);
  auto tree = BuildMovingPointIndex(b, kFlightAttrFlight);
  ASSERT_TRUE(tree.ok()) << tree.status();
  LogicalQuery q = JoinQuery(&a, &b);
  q.join->prebuilt = &*tree;
  auto plan = PlanQuery(q);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(plan->build.has_value());
  ASSERT_TRUE(plan->pipe.join.has_value());
  EXPECT_EQ(plan->pipe.join->kind, JoinProbeOp::Kind::kIndex);
  EXPECT_EQ(plan->pipe.join->tree, &*tree);
}

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------

TEST(Planner, RejectsMalformedQueries) {
  Relation planes = TestPlanes(4, 11);

  LogicalQuery no_source;
  EXPECT_FALSE(PlanQuery(no_source).ok());

  LogicalQuery both_terminals;
  both_terminals.rel = &planes;
  both_terminals.project = std::vector<int>{0};
  both_terminals.join = LogicalQuery::JoinSpec{};
  both_terminals.join->inner = &planes;
  both_terminals.join->pred = AnyPair;
  EXPECT_FALSE(PlanQuery(both_terminals).ok());

  LogicalQuery bad_proj;
  bad_proj.rel = &planes;
  bad_proj.project = std::vector<int>{99};
  EXPECT_FALSE(PlanQuery(bad_proj).ok());

  LogicalQuery no_inner;
  no_inner.rel = &planes;
  no_inner.join = LogicalQuery::JoinSpec{};
  no_inner.join->pred = AnyPair;
  EXPECT_FALSE(PlanQuery(no_inner).ok());

  // Index join over a non-moving-point outer attribute.
  LogicalQuery bad_attr = JoinQuery(&planes, &planes,
                                    LogicalQuery::JoinSpec::Algorithm::kIndex);
  bad_attr.join->attr_outer = kFlightAttrAirline;
  EXPECT_FALSE(PlanQuery(bad_attr).ok());

  // Nested loop has no attribute requirements.
  LogicalQuery nl = JoinQuery(&planes, &planes,
                              LogicalQuery::JoinSpec::Algorithm::kNestedLoop);
  nl.join->attr_outer = -1;
  nl.join->attr_inner = -1;
  EXPECT_TRUE(PlanQuery(nl).ok());

  // Batch and window terminals need a moving-point attribute.
  LogicalQuery bad_batch;
  bad_batch.rel = &planes;
  bad_batch.batch = BatchOp{BatchOp::Kind::kPresent, kFlightAttrAirline, {}};
  EXPECT_FALSE(PlanQuery(bad_batch).ok());
  LogicalQuery bad_window;
  bad_window.rel = &planes;
  bad_window.window = WindowAggregateOp{kFlightAttrAirline, 0, 1, 1, 1,
                                        0,                  0, -1, -1};
  EXPECT_FALSE(PlanQuery(bad_window).ok());
}

}  // namespace
}  // namespace exec
}  // namespace modb
