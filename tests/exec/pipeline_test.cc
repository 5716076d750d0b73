#include "exec/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "db/parallel.h"
#include "db/relation_io.h"
#include "exec/planner.h"
#include "gen/flights_gen.h"
#include "gen/trajectory_gen.h"
#include "index/delta_index.h"
#include "obs/metrics.h"
#include "temporal/lifted_ops.h"

namespace modb {
namespace exec {
namespace {

// AttributeValue has no operator==; compare through the storage
// serialization, name and schema included — the "byte-identical"
// contract the engine promises against composed single-operator plans.
void ExpectByteIdentical(const Relation& a, const Relation& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.schema().NumAttributes(), b.schema().NumAttributes());
  for (std::size_t j = 0; j < a.schema().NumAttributes(); ++j) {
    EXPECT_EQ(a.schema().attribute(j).name, b.schema().attribute(j).name);
  }
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

bool EvenUnits(const Tuple& t) {
  const auto& mp = std::get<MovingPoint>(t[std::size_t(kFlightAttrFlight)]);
  return mp.NumUnits() % 2 == 0;
}

const std::vector<int> kThreadCounts = {1, 2, 4, 7};

ExecOptions ThreadedOptions(int threads, ExecStats* stats = nullptr) {
  ExecOptions options;
  options.parallel.num_threads = threads;
  options.stats = stats;
  return options;
}

// Plans and runs `q` serially; the output relation. Composing these
// (one materialized Relation per operator) is the reference the fused
// pipelines are checked against.
Relation Execute(const LogicalQuery& q) {
  auto plan = PlanQuery(q);
  EXPECT_TRUE(plan.ok()) << plan.status();
  auto out = RunPlan(*plan, ExecOptions{});
  EXPECT_TRUE(out.ok()) << out.status();
  return std::move(out->rows);
}

// σ_pred(rel) as its own plan.
Relation Select(const Relation& rel, std::function<bool(const Tuple&)> pred) {
  LogicalQuery q;
  q.rel = &rel;
  q.filters.push_back(std::move(pred));
  return Execute(q);
}

// outer ⋈ join.inner as its own plan.
Relation Join(const Relation& outer, LogicalQuery::JoinSpec join) {
  LogicalQuery q;
  q.rel = &outer;
  q.join = std::move(join);
  return Execute(q);
}

// Counter deltas can only be asserted when the metrics registry is
// compiled in; under MODB_NO_METRICS every counter reads 0.
std::uint64_t CounterValue(const char* name) {
#ifdef MODB_NO_METRICS
  (void)name;
  return 0;
#else
  return obs::Metrics::Global().counter(name)->value();
#endif
}

// ---------------------------------------------------------------------------
// Differential: fused pipelines vs composed single-operator plans.
// ---------------------------------------------------------------------------

// Select → Project as ONE pipeline must equal a select plan then a
// project plan (two materialized relations), byte-for-byte, at every
// thread count — and must materialize exactly one Relation doing it.
TEST(PipelinedPlans, SelectProjectMatchesComposedOperators) {
  Relation planes = TestPlanes(60, 11);
  const Relation selected = Select(planes, EvenUnits);
  LogicalQuery project;
  project.rel = &selected;
  project.project = std::vector<int>{kFlightAttrAirline, kFlightAttrFlight};
  Relation composed = Execute(project);

  LogicalQuery q;
  q.rel = &planes;
  q.filters.push_back(EvenUnits);
  q.project = std::vector<int>{kFlightAttrAirline, kFlightAttrFlight};
  auto plan = PlanQuery(q);
  ASSERT_TRUE(plan.ok()) << plan.status();

  for (int threads : kThreadCounts) {
    ExecStats stats;
    const std::uint64_t sinks_before =
        CounterValue("exec.relations_materialized");
    auto out = RunPlan(*plan, ThreadedOptions(threads, &stats));
    ASSERT_TRUE(out.ok()) << out.status();
    ExpectByteIdentical(composed, out->rows);
    // Zero intermediate materializations: the fused plan builds one
    // Relation (the sink) where the composed chain builds two.
    EXPECT_EQ(stats.materializations, 1u);
#ifndef MODB_NO_METRICS
    EXPECT_EQ(CounterValue("exec.relations_materialized"), sinks_before + 1);
#else
    (void)sinks_before;
#endif
    EXPECT_EQ(stats.workers, std::uint64_t(threads));
    EXPECT_GE(stats.morsels, 1u);
    // Stage children: scan → select → project.
    ASSERT_EQ(stats.children.size(), 3u);
    EXPECT_EQ(stats.children[0].op, "scan");
    EXPECT_EQ(stats.children[1].op, "select");
    EXPECT_EQ(stats.children[2].op, "project");
    EXPECT_EQ(stats.children[1].predicate_evals, planes.NumTuples());
    EXPECT_EQ(stats.children[2].tuples_out, composed.NumTuples());
  }
}

// Select → index join as one pipeline vs the composed two-plan chain.
// The join predicate must not depend on the outer ordinal: the fused
// plan passes SOURCE row indices, the composed chain post-select
// ordinals.
TEST(PipelinedPlans, SelectIndexJoinMatchesComposedOperators) {
  Relation planes = TestPlanes(32, 12);
  Relation other = TestPlanes(32, 13);
  auto join_pred = [](const Tuple& ta, std::size_t, const Tuple& tb,
                      std::size_t, EverWithinStats*) {
    const auto& ma = std::get<MovingPoint>(ta[std::size_t(kFlightAttrFlight)]);
    const auto& mb = std::get<MovingPoint>(tb[std::size_t(kFlightAttrFlight)]);
    return !ma.IsEmpty() && !mb.IsEmpty();
  };

  LogicalQuery::JoinSpec join;
  join.algorithm = LogicalQuery::JoinSpec::Algorithm::kIndex;
  join.inner = &other;
  join.attr_outer = kFlightAttrFlight;
  join.attr_inner = kFlightAttrFlight;
  join.expand = 500.0;
  join.pred = join_pred;
  Relation composed = Join(Select(planes, EvenUnits), join);

  LogicalQuery q;
  q.rel = &planes;
  q.filters.push_back(EvenUnits);
  q.join = std::move(join);
  auto plan = PlanQuery(q);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Index plan: a build step feeding the probe pipeline.
  EXPECT_TRUE(plan->build.has_value());

  for (int threads : kThreadCounts) {
    ExecStats stats;
    auto out = RunPlan(*plan, ThreadedOptions(threads, &stats));
    ASSERT_TRUE(out.ok()) << out.status();
    ExpectByteIdentical(composed, out->rows);
    EXPECT_EQ(stats.materializations, 1u);
    EXPECT_EQ(stats.index_builds, 1u);
    ASSERT_EQ(stats.children.size(), 4u);
    EXPECT_EQ(stats.children[0].op, "build_index");
    EXPECT_EQ(stats.children[3].op, "join_probe");
  }
}

// The nested-loop variant of the same fused plan.
TEST(PipelinedPlans, SelectNestedLoopJoinMatchesComposedOperators) {
  Relation planes = TestPlanes(16, 14);
  Relation other = TestPlanes(12, 15);
  auto join_pred = [](const Tuple& ta, std::size_t, const Tuple& tb,
                      std::size_t, EverWithinStats*) {
    return std::get<StringValue>(ta[std::size_t(kFlightAttrAirline)]) <
           std::get<StringValue>(tb[std::size_t(kFlightAttrAirline)]);
  };
  LogicalQuery::JoinSpec join;
  join.algorithm = LogicalQuery::JoinSpec::Algorithm::kNestedLoop;
  join.inner = &other;
  join.pred = join_pred;
  Relation composed = Join(Select(planes, EvenUnits), join);

  LogicalQuery q;
  q.rel = &planes;
  q.filters.push_back(EvenUnits);
  q.join = std::move(join);
  auto plan = PlanQuery(q);
  ASSERT_TRUE(plan.ok()) << plan.status();
  for (int threads : kThreadCounts) {
    auto out = RunPlan(*plan, ThreadedOptions(threads));
    ASSERT_TRUE(out.ok()) << out.status();
    ExpectByteIdentical(composed, out->rows);
  }
}

TEST(PipelinedPlans, EmptySourceProducesEmptyOutput) {
  Relation planes = TestPlanes(3, 16);
  Relation empty("planes", planes.schema());
  LogicalQuery q;
  q.rel = &empty;
  q.filters.push_back(EvenUnits);
  auto plan = PlanQuery(q);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ExecStats stats;
  ExecOptions options;
  options.stats = &stats;
  auto out = RunPlan(*plan, options);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->rows.NumTuples(), 0u);
  EXPECT_EQ(out->rows.name(), "planes_sel");
  EXPECT_EQ(stats.workers, 1u);
}

// ---------------------------------------------------------------------------
// Morsel failures.
// ---------------------------------------------------------------------------

// A failing morsel must surface the SAME error whatever the schedule:
// the engine reports the smallest failing morsel. Descending instants
// make the batch kernel fail on every row.
TEST(PipelinedPlans, MorselErrorIsDeterministic) {
  Relation planes = TestPlanes(12, 19);
  LogicalQuery q;
  q.rel = &planes;
  q.batch = BatchOp{BatchOp::Kind::kAtInstant, kFlightAttrFlight,
                    {9.0, 5.0, 1.0}};
  q.morsel_rows = 1;
  auto plan = PlanQuery(q);
  ASSERT_TRUE(plan.ok()) << plan.status();

  auto serial_out = RunPlan(*plan, ThreadedOptions(1));
  ASSERT_FALSE(serial_out.ok());
  EXPECT_EQ(serial_out.status().code(), StatusCode::kInvalidArgument);
  for (int threads : {2, 4}) {
    auto out = RunPlan(*plan, ThreadedOptions(threads));
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().ToString(), serial_out.status().ToString());
  }
}

// Morsels 5, 9 and 17 fail, each with its own status, and the one that
// fails first in time varies: a worker stalled on morsel 5 lets the
// others fail 9 or 17 before it. Morsel 5's status must win at every
// thread count and under every stall.
TEST(PipelinedPlans, SmallestFailingMorselWinsTheTieBreak) {
  Relation planes = TestPlanes(40, 23);
  LogicalQuery q;
  q.rel = &planes;
  q.morsel_rows = 1;
  auto plan = PlanQuery(q);
  ASSERT_TRUE(plan.ok()) << plan.status();

  const std::vector<std::size_t> failing = {5, 9, 17};
  for (int threads : {1, 2, 4}) {
    for (std::size_t stalled : {std::size_t(0), std::size_t(5)}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, stall "
                                      << stalled);
      ExecTestHooks hooks;
      hooks.before_morsel = [stalled](std::size_t, std::size_t seq) {
        if (stalled != 0 && seq == stalled) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      };
      std::atomic<int> failed{0};
      hooks.morsel_status = [&failing, &failed](std::size_t seq) {
        for (std::size_t f : failing) {
          if (seq == f) {
            failed.fetch_add(1);
            return Status::Internal("morsel " + std::to_string(seq));
          }
        }
        return Status::OK();
      };
      SetExecTestHooks(&hooks);
      auto out = RunPlan(*plan, ThreadedOptions(threads));
      SetExecTestHooks(nullptr);
      ASSERT_FALSE(out.ok());
      EXPECT_EQ(out.status().code(), StatusCode::kInternal);
      EXPECT_EQ(out.status().message(), "morsel 5");
      if (threads == 1) {
        EXPECT_EQ(failed.load(), 1);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Morsel claims: determinism under permuted completion orders, and
// worker 0 on the calling thread.
// ---------------------------------------------------------------------------

// Fixed thread count, 1-row morsels, and a hook that stalls one chosen
// worker per run: completion order (and who claims what) is permuted
// across runs, the output must not move a byte, and the stalled worker
// must leave most morsels to its peers.
TEST(PipelinedPlans, StalledWorkerPermutationsAreByteIdentical) {
  Relation planes = TestPlanes(40, 20);
  LogicalQuery q;
  q.rel = &planes;
  q.filters.push_back(EvenUnits);
  q.morsel_rows = 1;  // maximize scheduling freedom
  auto plan = PlanQuery(q);
  ASSERT_TRUE(plan.ok()) << plan.status();

  ExecOptions serial;
  auto baseline = RunPlan(*plan, serial);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  for (std::size_t slow_worker = 0; slow_worker < 4; ++slow_worker) {
    SCOPED_TRACE(testing::Message() << "slow worker " << slow_worker);
    std::array<std::atomic<std::uint64_t>, 4> claimed{};
    ExecTestHooks hooks;
    hooks.before_morsel = [slow_worker, &claimed](std::size_t worker,
                                                  std::size_t) {
      claimed[worker].fetch_add(1, std::memory_order_relaxed);
      if (worker == slow_worker) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    };
    SetExecTestHooks(&hooks);
    ExecStats stats;
    auto out = RunPlan(*plan, ThreadedOptions(4, &stats));
    SetExecTestHooks(nullptr);
    ASSERT_TRUE(out.ok()) << out.status();
    ExpectByteIdentical(baseline->rows, out->rows);
    // Every morsel claimed exactly once regardless of who ran it.
    EXPECT_EQ(stats.morsels, 40u);
    // The stalled worker runs fewer than its even share of 10.
    EXPECT_LT(claimed[slow_worker].load(), 10u);
  }
}

// Worker 0 is the calling thread: with four workers its morsels run on
// the caller and the helpers' on pool threads, and with one worker
// every morsel runs on the caller.
TEST(PipelinedPlans, CallingThreadIsWorkerZero) {
  Relation planes = TestPlanes(40, 21);
  LogicalQuery q;
  q.rel = &planes;
  q.morsel_rows = 1;
  auto plan = PlanQuery(q);
  ASSERT_TRUE(plan.ok()) << plan.status();

  const std::thread::id caller = std::this_thread::get_id();
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::thread::id>> seen;
    ExecTestHooks hooks;
    hooks.before_morsel = [&](std::size_t worker, std::size_t) {
      {
        std::lock_guard<std::mutex> lock(mu);
        seen.emplace_back(worker, std::this_thread::get_id());
      }
      // Stall the helpers so the caller claims morsels too.
      if (worker != 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    };
    SetExecTestHooks(&hooks);
    ExecStats stats;
    auto out = RunPlan(*plan, ThreadedOptions(threads, &stats));
    SetExecTestHooks(nullptr);
    ASSERT_TRUE(out.ok()) << out.status();
    ASSERT_EQ(seen.size(), 40u);
    std::size_t on_caller = 0;
    for (const auto& [worker, id] : seen) {
      EXPECT_EQ(worker == 0, id == caller) << "worker " << worker;
      on_caller += id == caller ? 1 : 0;
    }
    if (threads == 1) {
      EXPECT_EQ(on_caller, 40u);
    } else {
      EXPECT_GT(on_caller, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Index probe: candidates deduplicated as they arrive, and an outer
// row's probe stops once every inner row is a candidate.
// ---------------------------------------------------------------------------

constexpr int kTrailAttr = 1;

// {id, trail}: `n` random walks of `units` 10 s units at up to 15 m/s
// on a `site` m square — the fleet workload's yard tractors.
Relation WalkTrails(int n, int units, double site, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  TrajectoryOptions opts;
  opts.num_units = units;
  opts.unit_duration = 10;
  opts.extent = site;
  opts.max_step = 150;
  Relation rel("trails", Schema({{"id", AttributeType::kInt},
                                 {"trail", AttributeType::kMovingPoint}}));
  for (int i = 0; i < n; ++i) {
    Tuple t;
    t.emplace_back(IntValue(i));
    t.emplace_back(*RandomWalkPoint(rng, opts));
    EXPECT_TRUE(rel.Insert(std::move(t)).ok());
  }
  return rel;
}

// The probe cube of unit `u`: its bounding cube grown by `expand`.
Cube ProbeCube(const UPoint& u, double expand) {
  Cube c = u.BoundingCube();
  c.rect.min_x -= expand;
  c.rect.min_y -= expand;
  c.rect.max_x += expand;
  c.rect.max_y += expand;
  return c;
}

// The probe as it ran before the early exit: one query per outer unit
// (each flushing its own counters), every raw hit kept, then
// sort + unique.
std::vector<std::int64_t> ReferenceCandidates(const MovingPoint& mp,
                                              double expand,
                                              const IndexLayersView& view) {
  std::vector<std::int64_t> ids;
  for (const UPoint& u : mp.units()) {
    const Cube c = ProbeCube(u, expand);
    if (!Cube::Intersect(c, view.Bounds())) continue;
    view.QueryVisit(c, [&ids](std::int64_t id) { ids.push_back(id); });
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

// outer ⋈ inner through `view`, with a predicate that accepts every
// candidate: the output is then each outer row joined to its candidate
// list, in order.
LogicalQuery AcceptAllJoin(const Relation& outer, const Relation& inner,
                           int attr, double expand,
                           const IndexLayersView& view) {
  LogicalQuery q;
  q.rel = &outer;
  q.join.emplace();
  q.join->algorithm = LogicalQuery::JoinSpec::Algorithm::kIndex;
  q.join->inner = &inner;
  q.join->attr_outer = attr;
  q.join->attr_inner = attr;
  q.join->expand = expand;
  q.join->pred = [](const Tuple&, std::size_t, const Tuple&, std::size_t,
                    EverWithinStats*) { return true; };
  q.join->layers = view;
  return q;
}

// Checks the probe's candidate lists, index_candidates and
// predicate_evals against ReferenceCandidates, serially and in
// parallel; returns units_scanned, which must not depend on the
// schedule either.
std::uint64_t ExpectReferenceCandidates(const Relation& outer,
                                        const Relation& inner, int attr,
                                        double expand,
                                        const IndexLayersView& view) {
  auto plan = PlanQuery(AcceptAllJoin(outer, inner, attr, expand, view));
  EXPECT_TRUE(plan.ok()) << plan.status();
  std::uint64_t units_scanned = 0;
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    ExecStats stats;
    auto out = RunPlan(*plan, ThreadedOptions(threads, &stats));
    EXPECT_TRUE(out.ok()) << out.status();
    if (!out.ok()) return 0;
    Relation expected(out->rows.name(), out->rows.schema());
    std::uint64_t candidates = 0;
    for (std::size_t i = 0; i < outer.NumTuples(); ++i) {
      const auto& mp = std::get<MovingPoint>(outer.tuple(i)[std::size_t(attr)]);
      for (std::int64_t j : ReferenceCandidates(mp, expand, view)) {
        Tuple joined = outer.tuple(i);
        const Tuple& b = inner.tuple(std::size_t(j));
        joined.insert(joined.end(), b.begin(), b.end());
        EXPECT_TRUE(expected.Insert(std::move(joined)).ok());
        ++candidates;
      }
    }
    ExpectByteIdentical(expected, out->rows);
    EXPECT_EQ(stats.index_candidates, candidates);
    EXPECT_EQ(stats.predicate_evals, candidates);
    if (threads > 1) {
      EXPECT_EQ(stats.units_scanned, units_scanned);
    }
    units_scanned = stats.units_scanned;
  }
  return units_scanned;
}

std::uint64_t TotalUnits(const Relation& rel, int attr) {
  std::uint64_t n = 0;
  for (const Tuple& t : rel.tuples()) {
    n += std::get<MovingPoint>(t[std::size_t(attr)]).NumUnits();
  }
  return n;
}

// Eight tractors on a 2 km site all meet within 50 m early on, so each
// outer row's probe ends long before its last unit.
TEST(IndexProbe, SaturatingFleetStopsEarlyWithTheSameCandidates) {
  const Relation fleet = WalkTrails(8, 600, 2000, 3);
  auto tree = BuildMovingPointIndex(fleet, kTrailAttr);
  ASSERT_TRUE(tree.ok()) << tree.status();
  const std::uint64_t scanned = ExpectReferenceCandidates(
      fleet, fleet, kTrailAttr, 50, IndexLayersView::Single(&*tree));
  EXPECT_GT(scanned, 0u);
  EXPECT_LT(scanned, TotalUnits(fleet, kTrailAttr));
}

// On 64 flights no flight comes near every other, so the exit never
// fires: every outer unit is probed, and the one counter flush per row
// adds exactly what one flush per query added.
TEST(IndexProbe, PlanesNeverSaturateAndCountTheSameTreeWork) {
  const Relation planes = TestPlanes(64, 22);
  auto tree = BuildMovingPointIndex(planes, kFlightAttrFlight);
  ASSERT_TRUE(tree.ok()) << tree.status();
  const IndexLayersView view = IndexLayersView::Single(&*tree);
  EXPECT_EQ(ExpectReferenceCandidates(planes, planes, kFlightAttrFlight, 50,
                                      view),
            TotalUnits(planes, kFlightAttrFlight));

#ifndef MODB_NO_METRICS
  static constexpr const char* kNames[4] = {
      "index.rtree3d.queries", "index.rtree3d.node_visits",
      "index.rtree3d.leaf_entry_tests", "index.rtree3d.leaf_hits"};
  auto deltas = [](auto run) {
    std::array<std::uint64_t, 4> before, delta;
    for (int i = 0; i < 4; ++i) before[i] = CounterValue(kNames[i]);
    run();
    for (int i = 0; i < 4; ++i) delta[i] = CounterValue(kNames[i]) - before[i];
    return delta;
  };
  const auto reference = deltas([&] {
    for (const Tuple& t : planes.tuples()) {
      (void)ReferenceCandidates(
          std::get<MovingPoint>(t[std::size_t(kFlightAttrFlight)]), 50, view);
    }
  });
  auto plan = PlanQuery(
      AcceptAllJoin(planes, planes, kFlightAttrFlight, 50, view));
  ASSERT_TRUE(plan.ok()) << plan.status();
  const auto probe = deltas([&] { ASSERT_TRUE(RunPlan(*plan, {}).ok()); });
  EXPECT_EQ(probe, reference);
  EXPECT_GT(reference[0], 0u);
#endif
}

// A live view of `fleet`: each trail's units split across base, delta
// and mem, so every id repeats within and across layers.
void SplitIntoLayers(const Relation& fleet, IndexSnapshot* stack) {
  std::vector<RTree3D::Entry> base, delta;
  std::vector<std::vector<RTree3D::Entry>> mem(fleet.NumTuples());
  for (std::size_t j = 0; j < fleet.NumTuples(); ++j) {
    const auto& units =
        std::get<MovingPoint>(fleet.tuple(j)[kTrailAttr]).units();
    for (std::size_t k = 0; k < units.size(); ++k) {
      const RTree3D::Entry e{units[k].BoundingCube(), std::int64_t(j)};
      const std::size_t part = k * 10 / units.size();
      (part < 6 ? base : part < 9 ? delta : mem[j]).push_back(e);
    }
  }
  stack->ResetBase(std::move(base), 16);
  stack->AppendToDelta(delta, 16);
  for (std::size_t j = 0; j < mem.size(); ++j) {
    stack->SetMemRow(std::int64_t(j), mem[j]);
  }
  ASSERT_GT(stack->MemEntries(), 0u);
  ASSERT_GT(stack->DeltaEntries(), 0u);
}

TEST(IndexProbe, LiveLayersWithRepeatedIdsMatchTheReference) {
  const Relation fleet = WalkTrails(8, 300, 6000, 5);
  IndexSnapshot stack;
  SplitIntoLayers(fleet, &stack);
  ExpectReferenceCandidates(fleet, fleet, kTrailAttr, 50, stack.View());
}

// ---------------------------------------------------------------------------
// Distinct pairs: the probe keeps inner rows past the outer row only.
// ---------------------------------------------------------------------------

std::int64_t RowId(const Tuple& t) {
  return std::get<IntValue>(t[0]).value();
}

// Checks the distinct-pairs self-join of `trails` (ids = row numbers)
// through `view`: with an accept-all predicate it equals the plain
// probe's output filtered to outer id < inner id and counts exactly
// those candidates, at every thread count, and scans no more units; with
// the Q2 predicate the nested loop agrees with it; and an outer row
// alone at the end of the relation probes nothing.
void ExpectDistinctProbe(const Relation& trails, double expand,
                         const IndexLayersView& view) {
  LogicalQuery all = AcceptAllJoin(trails, trails, kTrailAttr, expand, view);
  auto all_plan = PlanQuery(all);
  ASSERT_TRUE(all_plan.ok()) << all_plan.status();
  ExecStats all_stats;
  auto all_out = RunPlan(*all_plan, ThreadedOptions(1, &all_stats));
  ASSERT_TRUE(all_out.ok()) << all_out.status();
  Relation expected(all_out->rows.name(), all_out->rows.schema());
  const std::size_t width = trails.schema().NumAttributes();
  for (const Tuple& t : all_out->rows.tuples()) {
    if (RowId(t) < std::get<IntValue>(t[width]).value()) {
      ASSERT_TRUE(expected.Insert(t).ok());
    }
  }
  ASSERT_GT(expected.NumTuples(), 0u);
  ASSERT_LT(expected.NumTuples(), all_out->rows.NumTuples());

  LogicalQuery distinct = all;
  distinct.join->distinct_pairs = true;
  distinct.join->pred = [](const Tuple& a, std::size_t i, const Tuple& b,
                           std::size_t j, EverWithinStats*) {
    EXPECT_LT(i, j);
    EXPECT_EQ(std::size_t(RowId(a)), i);
    EXPECT_EQ(std::size_t(RowId(b)), j);
    return true;
  };
  auto plan = PlanQuery(distinct);
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::uint64_t units_scanned = 0;
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    ExecStats stats;
    auto out = RunPlan(*plan, ThreadedOptions(threads, &stats));
    ASSERT_TRUE(out.ok()) << out.status();
    ExpectByteIdentical(expected, out->rows);
    EXPECT_EQ(stats.index_candidates, expected.NumTuples());
    EXPECT_EQ(stats.predicate_evals, expected.NumTuples());
    EXPECT_LE(stats.units_scanned, all_stats.units_scanned);
    if (threads > 1) {
      EXPECT_EQ(stats.units_scanned, units_scanned);
    }
    units_scanned = stats.units_scanned;
  }

  // Q2's predicate implies the probe envelope, so the nested loop finds
  // the same pairs.
  LogicalQuery q2 = distinct;
  q2.join->pred = [expand](const Tuple& a, std::size_t i, const Tuple& b,
                           std::size_t j, EverWithinStats* stats) {
    EXPECT_LT(i, j);
    return EverWithin(std::get<MovingPoint>(a[kTrailAttr]),
                      std::get<MovingPoint>(b[kTrailAttr]), expand, stats);
  };
  const Relation indexed = Execute(q2);
  q2.join->algorithm = LogicalQuery::JoinSpec::Algorithm::kNestedLoop;
  q2.join->layers.reset();
  q2.out_name = indexed.name();
  EXPECT_GT(indexed.NumTuples(), 0u);
  ExpectByteIdentical(indexed, Execute(q2));

  // The last row alone: nothing past it to pair with, so no unit is
  // probed and the tree sees no query.
  LogicalQuery last = distinct;
  const std::int64_t last_id = std::int64_t(trails.NumTuples()) - 1;
  last.filters.push_back(
      [last_id](const Tuple& t) { return RowId(t) == last_id; });
  auto last_plan = PlanQuery(last);
  ASSERT_TRUE(last_plan.ok()) << last_plan.status();
  ExecStats last_stats;
  const std::uint64_t queries_before = CounterValue("index.rtree3d.queries");
  auto last_out = RunPlan(*last_plan, ThreadedOptions(1, &last_stats));
  ASSERT_TRUE(last_out.ok()) << last_out.status();
  EXPECT_EQ(last_out->rows.NumTuples(), 0u);
  EXPECT_EQ(last_stats.units_scanned, 0u);
  EXPECT_EQ(last_stats.index_candidates, 0u);
  EXPECT_EQ(CounterValue("index.rtree3d.queries"), queries_before);
}

TEST(IndexProbe, DistinctPairsOnOneTree) {
  const Relation fleet = WalkTrails(8, 600, 2000, 3);
  auto tree = BuildMovingPointIndex(fleet, kTrailAttr);
  ASSERT_TRUE(tree.ok()) << tree.status();
  ExpectDistinctProbe(fleet, 50, IndexLayersView::Single(&*tree));
  // Sparse trails, where few rows meet: the probe runs every unit.
  const Relation spread = WalkTrails(24, 120, 20000, 6);
  auto spread_tree = BuildMovingPointIndex(spread, kTrailAttr);
  ASSERT_TRUE(spread_tree.ok()) << spread_tree.status();
  ExpectDistinctProbe(spread, 400, IndexLayersView::Single(&*spread_tree));
}

TEST(IndexProbe, DistinctPairsOnLiveLayers) {
  const Relation fleet = WalkTrails(8, 300, 6000, 5);
  IndexSnapshot stack;
  SplitIntoLayers(fleet, &stack);
  ExpectDistinctProbe(fleet, 50, stack.View());
}

// ---------------------------------------------------------------------------
// Plan validation.
// ---------------------------------------------------------------------------

TEST(RunPlanValidation, RejectsMalformedPlans) {
  Relation planes = TestPlanes(3, 21);
  ExecOptions options;
  // No source.
  PhysicalPlan no_source;
  no_source.out_schema = planes.schema();
  EXPECT_FALSE(RunPlan(no_source, options).ok());

  // Index probe with no index to probe: no layers, tree or build step.
  PhysicalPlan no_index;
  no_index.out_name = "x";
  no_index.pipe.rel = &planes;
  no_index.pipe.join = JoinProbeOp{};
  no_index.pipe.join->inner = &planes;
  EXPECT_FALSE(RunPlan(no_index, options).ok());

  // Thread-count sanity bound comes from the shared helper.
  PhysicalPlan ok_plan;
  ok_plan.out_name = "y";
  ok_plan.out_schema = planes.schema();
  ok_plan.pipe.rel = &planes;
  ExecOptions absurd;
  absurd.parallel.num_threads = kMaxQueryThreads + 1;
  auto r = RunPlan(ok_plan, absurd);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace exec
}  // namespace modb
