// Thread-scaling sweep (Experiment P6): the same three workloads at
// every thread count from --modb_threads (default 1,2,4,8). A run with
// T workers uses the calling thread plus T - 1 helpers on the shared
// ThreadPool (sized to the hardware), exactly as a served query does;
// helpers beyond the pool size queue behind the others. Benchmarks are
// registered at runtime via the strong RegisterScalingBenchmarks
// override (the weak default in bench_main.cc is a no-op for the other
// binaries):
//
//   BM_Scaling_Select/T             σ with the Q1 trajectory predicate
//   BM_Scaling_IndexJoin/T          prebuilt R-tree spatio-temporal join
//   BM_Scaling_PipelinedSelectJoin/T  fused Select→Join plan (exec engine)
//
// bench_compare --scaling gates the /1 vs /4 real-time ratio of the
// pipelined plan. Real time (not CPU time) is the honest scaling
// metric: pool workers' CPU seconds grow with T even when wall time
// does not.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "db/parallel.h"
#include "exec/pipeline.h"
#include "exec/planner.h"
#include "gen/flights_gen.h"
#include "temporal/lifted_ops.h"

namespace modb_bench {

// Strong override of the weak hook in bench_main.cc.
void RegisterScalingBenchmarks(const std::vector<int>& threads);

namespace {

using namespace modb;  // NOLINT — bench TU, mirrors bench_queries.cc idiom.

// Same generator settings as bench_queries.cc so numbers line up with
// the Q1/Q2 records.
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

bool Q1Pred(const Tuple& t) {
  return std::get<StringValue>(t[kFlightAttrAirline]).value() == "Lufthansa" &&
         Trajectory(std::get<MovingPoint>(t[kFlightAttrFlight])).Length() >
             5000;
}

// The Q2 predicate modbd runs: the fused EverWithin sweep.
bool ClosePred(const Tuple& a, const Tuple& b, double dist,
               EverWithinStats* stats) {
  return EverWithin(std::get<MovingPoint>(a[kFlightAttrFlight]),
                    std::get<MovingPoint>(b[kFlightAttrFlight]), dist, stats);
}

// Relations, prebuilt trees, and the fused plan live here; the plan
// holds pointers into this struct, so it is heap-allocated once and
// shared by every registered benchmark.
struct ScalingContext {
  Relation select_src;
  Relation join_src;
  RTree3D join_tree;
  Relation pipe_src;
  RTree3D pipe_tree;
  exec::PhysicalPlan select_plan;
  exec::PhysicalPlan join_plan;
  exec::PhysicalPlan pipe_plan;
};

// The Q2 close-pair index join of `src` with itself on `tree`, after
// `filters`.
exec::PhysicalPlan CloseJoinPlan(const Relation* src, const RTree3D* tree,
                                 std::vector<exec::Predicate> filters = {}) {
  exec::LogicalQuery q;
  q.rel = src;
  q.filters = std::move(filters);
  q.join.emplace();
  q.join->algorithm = exec::LogicalQuery::JoinSpec::Algorithm::kIndex;
  q.join->inner = src;
  q.join->attr_outer = kFlightAttrFlight;
  q.join->attr_inner = kFlightAttrFlight;
  q.join->expand = 50;
  q.join->pred = [](const Tuple& a, std::size_t, const Tuple& b,
                    std::size_t, EverWithinStats* stats) {
    return ClosePred(a, b, 50, stats);
  };
  q.join->distinct_pairs = true;
  q.join->prebuilt = tree;
  return *exec::PlanQuery(q);
}

std::shared_ptr<ScalingContext> MakeContext() {
  auto ctx = std::make_shared<ScalingContext>();
  ctx->select_src = Planes(256);
  ctx->join_src = Planes(64);
  ctx->join_tree =
      *exec::BuildMovingPointIndex(ctx->join_src, kFlightAttrFlight);
  ctx->pipe_src = Planes(96);
  ctx->pipe_tree =
      *exec::BuildMovingPointIndex(ctx->pipe_src, kFlightAttrFlight);
  exec::LogicalQuery select;
  select.rel = &ctx->select_src;
  select.filters.push_back(Q1Pred);
  ctx->select_plan = *exec::PlanQuery(select);
  ctx->join_plan = CloseJoinPlan(&ctx->join_src, &ctx->join_tree);

  // The fused plan: filter out one airline, index-join the survivors
  // against the full relation on the prebuilt tree. Cheap filter +
  // heavy probe keeps the morsel stage chain dominated by
  // parallelizable work.
  ctx->pipe_plan = CloseJoinPlan(
      &ctx->pipe_src, &ctx->pipe_tree,
      {[](const Tuple& t) {
        return std::get<StringValue>(t[kFlightAttrAirline]).value() !=
               "Lufthansa";
      }});
  return ctx;
}

// Runs the context's `plan` on `threads` workers.
void RunPlanAt(benchmark::State& state, std::shared_ptr<ScalingContext> ctx,
               exec::PhysicalPlan ScalingContext::*plan, int threads) {
  ExecOptions options;
  options.parallel.num_threads = threads;
  for (auto _ : state) {
    Relation r = std::move(exec::RunPlan((*ctx).*plan, options)->rows);
    benchmark::DoNotOptimize(r);
  }
}

}  // namespace

void RegisterScalingBenchmarks(const std::vector<int>& threads) {
  auto ctx = MakeContext();
  const std::pair<const char*, exec::PhysicalPlan ScalingContext::*>
      plans[] = {{"BM_Scaling_Select", &ScalingContext::select_plan},
                 {"BM_Scaling_IndexJoin", &ScalingContext::join_plan},
                 {"BM_Scaling_PipelinedSelectJoin", &ScalingContext::pipe_plan}};
  for (int t : threads) {
    for (const auto& [name, plan] : plans) {
      benchmark::RegisterBenchmark(
          (std::string(name) + "/" + std::to_string(t)).c_str(), RunPlanAt,
          ctx, plan, t)
          ->UseRealTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace modb_bench
