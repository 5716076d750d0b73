// The paper's running example (Section 2): the relation
//   planes(airline: string, id: string, flight: mpoint)
// and its two queries:
//   Q1  SELECT airline, id FROM planes
//       WHERE airline = "Lufthansa" AND length(trajectory(flight)) > 5000
//   Q2  SELECT p.airline, p.id, q.airline, q.id FROM planes p, planes q
//       WHERE val(initial(atmin(distance(p.flight, q.flight)))) < 0.5
//
// Build & run:  ./build/examples/flights

#include <cstdio>

#include "db/expr.h"
#include "exec/planner.h"
#include "gen/flights_gen.h"
#include "obs/report.h"
#include "temporal/lifted_ops.h"

using namespace modb;

// Plans `q` and runs it on the exec engine.
Relation Run(const exec::LogicalQuery& q, const ExecOptions& options = {}) {
  return std::move(exec::RunPlan(*exec::PlanQuery(q), options)->rows);
}

int main() {
  FlightsOptions options;
  options.num_airports = 10;
  options.num_flights = 60;
  options.extent = 10000;  // A 10000 km square world.
  options.units_per_flight = 8;
  options.speed = 800;  // km/h.
  options.departure_window = 24;
  Relation planes = *GeneratePlanes(options);
  std::printf("planes relation: %zu tuples, schema (", planes.NumTuples());
  for (std::size_t i = 0; i < planes.schema().NumAttributes(); ++i) {
    const AttributeDef& d = planes.schema().attribute(i);
    std::printf("%s%s: %s", i ? ", " : "", d.name.c_str(),
                AttributeTypeName(d.type));
  }
  std::printf(")\n\n");

  // ---- Q1: long Lufthansa flights ---------------------------------------
  exec::LogicalQuery q1_query;
  q1_query.rel = &planes;
  q1_query.filters.push_back([](const Tuple& t) {
    return std::get<StringValue>(t[kFlightAttrAirline]).value() ==
               "Lufthansa" &&
           Trajectory(std::get<MovingPoint>(t[kFlightAttrFlight])).Length() >
               5000;
  });
  Relation q1 = Run(q1_query);
  std::printf("Q1: Lufthansa flights longer than 5000 km (%zu rows)\n",
              q1.NumTuples());
  for (const Tuple& t : q1.tuples()) {
    std::printf("  %-10s %-6s  length %.0f km\n",
                std::get<StringValue>(t[0]).value().c_str(),
                std::get<StringValue>(t[1]).value().c_str(),
                Trajectory(std::get<MovingPoint>(t[2])).Length());
  }

  // ---- Q2: close encounters ----------------------------------------------
  const double kCloser = 50;  // "closer than 50 km" for the synthetic data.
  auto close_pred = [kCloser](const Tuple& a, std::size_t, const Tuple& b,
                              std::size_t, EverWithinStats*) {
    auto d = LiftedDistance(std::get<MovingPoint>(a[kFlightAttrFlight]),
                            std::get<MovingPoint>(b[kFlightAttrFlight]));
    if (!d.ok() || d->IsEmpty()) return false;
    auto am = AtMin(*d);
    if (!am.ok() || am->IsEmpty()) return false;
    // The paper's expression: val(initial(atmin(distance(p, q)))) < c.
    return am->Initial().val() < kCloser;
  };
  exec::LogicalQuery q2_query;
  q2_query.rel = &planes;
  q2_query.join.emplace();
  q2_query.join->algorithm =
      exec::LogicalQuery::JoinSpec::Algorithm::kNestedLoop;
  q2_query.join->inner = &planes;
  q2_query.join->attr_outer = kFlightAttrFlight;
  q2_query.join->attr_inner = kFlightAttrFlight;
  q2_query.join->expand = kCloser;
  q2_query.join->pred = close_pred;
  q2_query.join->distinct_pairs = true;  // each pair once
  Relation q2 = Run(q2_query);
  std::printf("\nQ2: pairs of planes closer than %.0f km (%zu pairs)\n",
              kCloser, q2.NumTuples());
  for (const Tuple& t : q2.tuples()) {
    auto d = *LiftedDistance(std::get<MovingPoint>(t[2]),
                             std::get<MovingPoint>(t[5]));
    auto am = *AtMin(d);
    std::printf("  %-6s / %-6s  min distance %6.2f km at t=%.2f h\n",
                std::get<StringValue>(t[1]).value().c_str(),
                std::get<StringValue>(t[4]).value().c_str(),
                am.Initial().val(), am.Initial().inst());
  }

  // ---- Q1 again, declaratively (the expression layer) ---------------------
  ExprPtr q1_pred =
      And(Eq(Attr("airline"), Lit("Lufthansa")),
          Gt(Call("length", {Call("trajectory", {Attr("flight")})}),
             Lit(5000.0)));
  Relation q1_expr = *SelectWhere(planes, q1_pred);
  std::printf("\nQ1 via expression tree finds the same %zu rows: %s\n",
              q1_expr.NumTuples(),
              q1_expr.NumTuples() == q1.NumTuples() ? "yes" : "NO (bug!)");

  // ---- Q2 again, accelerated with the unit R-tree -------------------------
  // Request an ExecStats tree to see where the join's work went: how
  // many candidate pairs the R-tree produced vs how many survived the
  // exact lifted-distance predicate.
  ExecStats join_stats;
  ExecOptions exec;
  exec.stats = &join_stats;
  q2_query.join->algorithm = exec::LogicalQuery::JoinSpec::Algorithm::kIndex;
  q2_query.root_op = "index_join_on_moving_point";
  Relation q2ix = Run(q2_query, exec);
  std::printf("\nindex-accelerated join finds the same %zu pairs: %s\n",
              q2ix.NumTuples(),
              q2ix.NumTuples() == q2.NumTuples() ? "yes" : "NO (bug!)");

  // ---- Observability: what did all of the above cost? ---------------------
  std::printf("\n%s", obs::DumpStats(&join_stats).c_str());
  std::printf("index join stats as JSON: %s\n", join_stats.ToJson().c_str());
  return 0;
}
