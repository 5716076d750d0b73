// Batch/parallel execution experiments: the O(n+k) AtInstantBatch merge
// sweep over the unit records vs. k independent O(log n) AtInstant
// searches (BM_AtInstant_Batch sweeps k across the dense/sparse cut), the
// in-place co-defined interval walk, and parallel query plans on the
// morsel engine.

#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "db/relation_io.h"
#include "exec/planner.h"
#include "gen/flights_gen.h"
#include "temporal/batch_ops.h"
#include "temporal/lifted_ops.h"
#include "temporal/refinement.h"

namespace modb {
namespace {

// A 10k-unit moving point: contiguous half-open [i, i+1) slices with
// alternating velocities so adjacent units cannot be merged away.
MovingPoint DenseTrack(int units) {
  MappingBuilder<UPoint> builder;
  builder.Reserve(std::size_t(units));
  double x = 0;
  for (int i = 0; i < units; ++i) {
    double vx = (i % 2 == 0) ? 1.0 : -0.5;
    auto iv = *TimeInterval::Make(i, i + 1, true, false);
    (void)builder.Append(*UPoint::Make(iv, LinearMotion{x, vx, 0.0, 0.25}));
    x += vx;
  }
  return *builder.Build();
}

std::vector<Instant> SortedInstants(int k, int units, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(0.0, double(units));
  std::vector<Instant> out(static_cast<std::size_t>(k), 0.0);
  for (Instant& t : out) t = d(rng);
  std::sort(out.begin(), out.end());
  return out;
}

// Baseline: k independent binary searches over the unit records,
// O(k log n).
void BM_AtInstant_Loop(benchmark::State& state) {
  const int units = int(state.range(0));
  const int k = int(state.range(1));
  MovingPoint mp = DenseTrack(units);
  std::vector<Instant> instants = SortedInstants(k, units, 7);
  for (auto _ : state) {
    double acc = 0;
    for (Instant t : instants) {
      Intime<Point> it = mp.AtInstant(t);
      if (it.defined) acc += it.value.x;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * k);
}
BENCHMARK(BM_AtInstant_Loop)
    ->ArgsProduct({{10000}, {8, 16, 32, 64, 128, 256, 1024, 8192}});

// The merge sweep: one forward pass over units and instants, O(n + k)
// dense / O(k log n) sparse via galloping.
void BM_AtInstant_Batch(benchmark::State& state) {
  const int units = int(state.range(0));
  const int k = int(state.range(1));
  MovingPoint mp = DenseTrack(units);
  std::vector<Instant> instants = SortedInstants(k, units, 7);
  std::vector<Intime<Point>> out;
  for (auto _ : state) {
    (void)AtInstantBatchInto(mp, instants, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * k);
}
BENCHMARK(BM_AtInstant_Batch)
    ->ArgsProduct({{10000, 16384},
                   {8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192,
                    16384}});

// 1 024 independent FindUnit probes on a 10 000-unit track.
void BM_FindUnit(benchmark::State& state) {
  MovingPoint mp = DenseTrack(10000);
  std::vector<Instant> instants = SortedInstants(1024, 10000, 11);
  for (auto _ : state) {
    std::size_t acc = 0;
    for (Instant t : instants) acc += mp.FindUnit(t).value_or(0);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 1024);
}
BENCHMARK(BM_FindUnit);

// Refinement partition: the whole partition, allocated per pair (the
// test reference), vs. the in-place walk the operators run.
MovingReal DenseReal(int units, double offset) {
  MappingBuilder<UReal> builder;
  builder.Reserve(std::size_t(units));
  for (int i = 0; i < units; ++i) {
    auto iv = *TimeInterval::Make(offset + i, offset + i + 1, true, false);
    (void)builder.Append(*UReal::Make(iv, 0, (i % 3) - 1.0, double(i), false));
  }
  return *builder.Build();
}

void BM_Refinement_Alloc(benchmark::State& state) {
  MovingReal a = DenseReal(int(state.range(0)), 0.0);
  MovingReal b = DenseReal(int(state.range(0)), 0.25);
  for (auto _ : state) {
    auto rp = RefinementPartition(a, b);
    benchmark::DoNotOptimize(rp);
  }
}
BENCHMARK(BM_Refinement_Alloc)->Arg(256)->Arg(2048);

// The co-defined intervals of the same pair, walked in place with no
// partition vector.
void BM_Refinement_CommonIntervals(benchmark::State& state) {
  MovingReal a = DenseReal(int(state.range(0)), 0.0);
  MovingReal b = DenseReal(int(state.range(0)), 0.25);
  for (auto _ : state) {
    std::size_t pairs = 0;
    (void)ForEachCommonInterval(
        a, b, [&pairs](const TimeInterval&, std::size_t, std::size_t) {
          ++pairs;
          return Status::OK();
        });
    benchmark::DoNotOptimize(pairs);
  }
}
BENCHMARK(BM_Refinement_CommonIntervals)->Arg(256)->Arg(2048);

// ---------------------------------------------------------------------------
// Parallel operators. arg = thread count (0 = serial operator).
// ---------------------------------------------------------------------------

Relation Planes(int flights, std::uint64_t seed) {
  FlightsOptions opts;
  opts.num_flights = flights;
  opts.seed = seed;
  return *GeneratePlanes(opts);
}

// The Q2 predicate modbd runs: the fused EverWithin sweep.
bool ClosePred(const Tuple& a, const Tuple& b, double dist,
               EverWithinStats* stats) {
  return EverWithin(std::get<MovingPoint>(a[kFlightAttrFlight]),
                    std::get<MovingPoint>(b[kFlightAttrFlight]), dist, stats);
}

// One-time check that the parallel join is byte-identical to serial
// (the bench asserts what the tests verify exhaustively).
bool JoinsMatch(const Relation& serial, const Relation& parallel) {
  if (serial.NumTuples() != parallel.NumTuples()) return false;
  for (std::size_t i = 0; i < serial.NumTuples(); ++i) {
    for (std::size_t j = 0; j < serial.tuple(i).size(); ++j) {
      auto sa = SerializeAttribute(serial.tuple(i)[j]);
      auto sb = SerializeAttribute(parallel.tuple(i)[j]);
      if (!sa.ok() || !sb.ok() || *sa != *sb) return false;
    }
  }
  return true;
}

// Runs `plan` every iteration: serially inline for threads == 0, else
// on that many workers.
void RunPlanLoop(benchmark::State& state, const exec::PhysicalPlan& plan,
                 int threads) {
  ExecOptions options;
  if (threads > 0) options.parallel.num_threads = threads;
  for (auto _ : state) {
    Relation r = std::move(exec::RunPlan(plan, options)->rows);
    benchmark::DoNotOptimize(r);
  }
}

void BM_IndexJoin_Parallel(benchmark::State& state) {
  const int threads = int(state.range(0));
  Relation planes = Planes(96, 99);
  exec::LogicalQuery q;
  q.rel = &planes;
  q.join.emplace();
  q.join->algorithm = exec::LogicalQuery::JoinSpec::Algorithm::kIndex;
  q.join->inner = &planes;
  q.join->attr_outer = kFlightAttrFlight;
  q.join->attr_inner = kFlightAttrFlight;
  q.join->expand = 50;
  q.join->pred = [](const Tuple& a, std::size_t, const Tuple& b,
                    std::size_t, EverWithinStats* stats) {
    return ClosePred(a, b, 50, stats);
  };
  q.join->distinct_pairs = true;
  const exec::PhysicalPlan plan = *exec::PlanQuery(q);
  if (threads > 0) {
    ExecOptions options;
    options.parallel.num_threads = threads;
    if (!JoinsMatch(exec::RunPlan(plan, ExecOptions{})->rows,
                    exec::RunPlan(plan, options)->rows)) {
      state.SkipWithError("parallel join output differs from serial");
      return;
    }
  }
  RunPlanLoop(state, plan, threads);
}
BENCHMARK(BM_IndexJoin_Parallel)->Arg(0)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Select_Parallel(benchmark::State& state) {
  const int threads = int(state.range(0));
  Relation planes = Planes(192, 99);
  auto pred = [](const Tuple& t) {
    return Trajectory(std::get<MovingPoint>(t[kFlightAttrFlight])).Length() >
           5000;
  };
  exec::LogicalQuery q;
  q.rel = &planes;
  q.filters.push_back(pred);
  RunPlanLoop(state, *exec::PlanQuery(q), threads);
}
BENCHMARK(BM_Select_Parallel)->Arg(0)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace modb
