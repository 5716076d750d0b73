#include "db/parallel.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "db/relation_io.h"
#include "exec/planner.h"
#include "gen/flights_gen.h"

namespace modb {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool.
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  std::mutex mu;
  std::condition_variable cv;
  int count = 0;  // guarded by mu
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    // Count and notify under the lock: the waiter can neither miss the
    // last notify nor destroy cv while a task is still inside it.
    pool.Submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      if (++count == kTasks) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return count == kTasks; });
  EXPECT_EQ(count, kTasks);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1);
  EXPECT_GE(ThreadPool::Shared().num_threads(), 1);
}

// ---------------------------------------------------------------------------
// Parallel plans: byte-identical to the serial plan at every thread
// count (per-morsel outputs concatenated in morsel order).
// ---------------------------------------------------------------------------

// AttributeValue has no operator==, so compare through the storage
// serialization: two relations are byte-identical iff every serialized
// attribute of every tuple matches, in order.
void ExpectByteIdentical(const Relation& a, const Relation& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.schema().NumAttributes(), b.schema().NumAttributes());
  ASSERT_EQ(a.NumTuples(), b.NumTuples());
  for (std::size_t i = 0; i < a.NumTuples(); ++i) {
    const Tuple& ta = a.tuple(i);
    const Tuple& tb = b.tuple(i);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t j = 0; j < ta.size(); ++j) {
      auto sa = SerializeAttribute(ta[j]);
      auto sb = SerializeAttribute(tb[j]);
      ASSERT_TRUE(sa.ok() && sb.ok());
      ASSERT_EQ(*sa, *sb) << "tuple " << i << " attr " << j;
    }
  }
}

Relation TestPlanes(int num_flights, std::uint64_t seed) {
  FlightsOptions opt;
  opt.num_flights = num_flights;
  opt.seed = seed;
  auto rel = GeneratePlanes(opt);
  EXPECT_TRUE(rel.ok()) << rel.status();
  return *rel;
}

const std::vector<int> kThreadCounts = {1, 2, 4, 7};

using JoinAlgorithm = exec::LogicalQuery::JoinSpec::Algorithm;

// Plans and runs `q` on the exec engine.
Result<Relation> Execute(const exec::LogicalQuery& q,
                         const ExecOptions& options = {}) {
  Result<exec::PhysicalPlan> plan = exec::PlanQuery(q);
  if (!plan.ok()) return plan.status();
  Result<exec::PlanOutput> out = exec::RunPlan(*plan, options);
  if (!out.ok()) return out.status();
  return std::move(out->rows);
}

exec::LogicalQuery SelectQuery(const Relation& rel,
                               std::function<bool(const Tuple&)> pred) {
  exec::LogicalQuery q;
  q.rel = &rel;
  q.filters.push_back(std::move(pred));
  q.root_op = "select";
  return q;
}

exec::LogicalQuery JoinQuery(const Relation& a, const Relation& b,
                             JoinAlgorithm algorithm, exec::JoinPred pred) {
  exec::LogicalQuery q;
  q.rel = &a;
  q.join.emplace();
  q.join->algorithm = algorithm;
  q.join->inner = &b;
  q.join->attr_outer = kFlightAttrFlight;
  q.join->attr_inner = kFlightAttrFlight;
  q.join->expand = 500.0;
  q.join->pred = std::move(pred);
  return q;
}

// ExecOptions running `threads` workers.
ExecOptions ThreadedOptions(int threads) {
  ExecOptions options;
  options.parallel.num_threads = threads;
  return options;
}

TEST(ParallelOperators, SelectMatchesSerial) {
  Relation planes = TestPlanes(60, 1);
  auto pred = [](const Tuple& t) {
    const auto& mp = std::get<MovingPoint>(t[std::size_t(kFlightAttrFlight)]);
    return mp.NumUnits() % 2 == 0;
  };
  const exec::LogicalQuery q = SelectQuery(planes, pred);
  Relation serial = *Execute(q);
  EXPECT_GT(serial.NumTuples(), 0u);
  EXPECT_LT(serial.NumTuples(), planes.NumTuples());
  for (int threads : kThreadCounts) {
    ExpectByteIdentical(serial, *Execute(q, ThreadedOptions(threads)));
  }
}

TEST(ParallelOperators, NestedLoopJoinMatchesSerial) {
  Relation a = TestPlanes(24, 2);
  Relation b = TestPlanes(24, 3);
  // Join flights whose deftimes overlap.
  auto pred = [&](const Tuple& ta, std::size_t, const Tuple& tb,
                  std::size_t, EverWithinStats*) {
    const auto& ma = std::get<MovingPoint>(ta[std::size_t(kFlightAttrFlight)]);
    const auto& mb = std::get<MovingPoint>(tb[std::size_t(kFlightAttrFlight)]);
    if (ma.IsEmpty() || mb.IsEmpty()) return false;
    return ma.units().front().interval().start() <=
               mb.units().back().interval().end() &&
           mb.units().front().interval().start() <=
               ma.units().back().interval().end();
  };
  const exec::LogicalQuery q =
      JoinQuery(a, b, JoinAlgorithm::kNestedLoop, pred);
  Relation serial = *Execute(q);
  EXPECT_GT(serial.NumTuples(), 0u);
  for (int threads : kThreadCounts) {
    ExpectByteIdentical(serial, *Execute(q, ThreadedOptions(threads)));
  }
}

TEST(ParallelOperators, IndexJoinMatchesSerial) {
  Relation a = TestPlanes(32, 4);
  Relation b = TestPlanes(32, 5);
  auto pred = [](const Tuple&, std::size_t i, const Tuple&, std::size_t j,
                 EverWithinStats*) {
    return i != j;
  };
  const exec::LogicalQuery q = JoinQuery(a, b, JoinAlgorithm::kIndex, pred);
  Relation serial = *Execute(q);
  EXPECT_GT(serial.NumTuples(), 0u);
  for (int threads : kThreadCounts) {
    ExpectByteIdentical(serial, *Execute(q, ThreadedOptions(threads)));
  }
}

// A prebuilt index must produce a byte-identical relation to the plan
// that builds its own, serial and parallel, and the ExecStats tree must
// expose the rebuild count (1 building, 0 reusing).
TEST(ParallelOperators, PrebuiltIndexMatchesBuildingOverload) {
  Relation a = TestPlanes(32, 4);
  Relation b = TestPlanes(32, 5);
  auto pred = [](const Tuple&, std::size_t i, const Tuple&, std::size_t j,
                 EverWithinStats*) {
    return i != j;
  };
  exec::LogicalQuery q = JoinQuery(a, b, JoinAlgorithm::kIndex, pred);
  ExecStats stats_built;
  ExecOptions opts_built;
  opts_built.stats = &stats_built;
  Relation built = *Execute(q, opts_built);
  EXPECT_EQ(stats_built.index_builds, 1u);

  Result<RTree3D> index = exec::BuildMovingPointIndex(b, kFlightAttrFlight);
  ASSERT_TRUE(index.ok());
  q.join->prebuilt = &*index;
  ExecStats stats_pre;
  ExecOptions opts_pre;
  opts_pre.stats = &stats_pre;
  Relation pre = *Execute(q, opts_pre);
  ExpectByteIdentical(built, pre);
  EXPECT_EQ(stats_pre.index_builds, 0u);

  for (int threads : kThreadCounts) {
    ExpectByteIdentical(built, *Execute(q, ThreadedOptions(threads)));
  }

  // Bad attribute index / non-moving-point attribute are rejected, not
  // fatal.
  EXPECT_FALSE(exec::BuildMovingPointIndex(b, 999).ok());
  EXPECT_FALSE(exec::BuildMovingPointIndex(b, -1).ok());
}

TEST(ParallelOperators, EmptyRelationAndMoreChunksThanTuples) {
  Relation planes = TestPlanes(3, 6);
  Relation empty("planes", planes.schema());
  auto all = [](const Tuple&) { return true; };
  ExecOptions options;
  options.parallel.num_threads = 8;  // more workers than tuples
  ExpectByteIdentical(*Execute(SelectQuery(empty, all)),
                      *Execute(SelectQuery(empty, all), options));
  ExpectByteIdentical(*Execute(SelectQuery(planes, all)),
                      *Execute(SelectQuery(planes, all), options));
}

TEST(ParallelOperators, RejectsAbsurdThreadCounts) {
  Relation planes = TestPlanes(3, 6);
  auto all = [](const Tuple&) { return true; };
  ExecOptions options;
  options.parallel.num_threads = kMaxQueryThreads + 1;
  auto r = Execute(SelectQuery(planes, all), options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // <= 0 means "auto" and stays valid.
  options.parallel.num_threads = -5;
  EXPECT_TRUE(Execute(SelectQuery(planes, all), options).ok());
  options.parallel.num_threads = kMaxQueryThreads;
  EXPECT_TRUE(Execute(SelectQuery(planes, all), options).ok());
}

// Requesting an ExecStats sink must not change the produced relation
// (the differential guarantee the instrumentation relies on), and the
// tree must describe the work that actually happened.
TEST(ParallelOperators, StatsSinkDoesNotChangeOutput) {
  Relation planes = TestPlanes(40, 7);
  auto pred = [](const Tuple& t) {
    const auto& mp = std::get<MovingPoint>(t[std::size_t(kFlightAttrFlight)]);
    return mp.NumUnits() % 2 == 1;
  };
  const exec::LogicalQuery q = SelectQuery(planes, pred);
  Relation plain = *Execute(q);
  for (int threads : kThreadCounts) {
    ExecStats stats;
    ExecOptions options = ThreadedOptions(threads);
    options.stats = &stats;
    ExpectByteIdentical(plain, *Execute(q, options));
    EXPECT_EQ(stats.op, "select");
    EXPECT_EQ(stats.tuples_in, planes.NumTuples());
    EXPECT_EQ(stats.tuples_out, plain.NumTuples());
    EXPECT_EQ(stats.predicate_evals, planes.NumTuples());
    EXPECT_EQ(stats.workers, std::uint64_t(threads));
    // The pipelined engine reports one child per fused stage: the scan,
    // the selection, and the ordered sink.
    ASSERT_EQ(stats.children.size(), 3u);
    EXPECT_EQ(stats.children[0].op, "scan");
    EXPECT_EQ(stats.children[1].op, "select");
    EXPECT_EQ(stats.children[2].op, "sink");
    EXPECT_EQ(stats.children[0].tuples_in, planes.NumTuples());
    EXPECT_EQ(stats.children[1].predicate_evals, planes.NumTuples());
    EXPECT_EQ(stats.children[2].tuples_out, plain.NumTuples());
    // Exactly one relation materialized (the sink), every morsel
    // accounted for.
    EXPECT_EQ(stats.materializations, 1u);
    EXPECT_GE(stats.morsels, 1u);
  }
}

}  // namespace
}  // namespace modb
