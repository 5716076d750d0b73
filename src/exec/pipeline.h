// The pipelined execution engine — the one place queries run. A
// physical plan is at most one index build followed by one *pipeline*
// that streams fixed-size morsels (row ranges over its source) through
// a fused stage chain
//
//   Scan → Select* → (Project | Join probe | Batch | Window | none) → Sink
//
// on the calling thread (worker 0) plus helper workers on the shared
// ThreadPool: each worker claims the next morsel from one cursor, runs
// it through every stage on its own stack (no Relation is materialized
// between stages), and deposits the result in the morsel's output
// slot. The sink concatenates slots in morsel order, so output is
// byte-identical to a serial loop for any worker count and any claim
// schedule. The window terminal adds a second morsel pass over its
// window grid, scheduled the same way.
//
// Determinism argument, in full:
//   1. Morsel boundaries depend only on (row count, worker count,
//      requested morsel size) — never on scheduling.
//   2. Each morsel is claimed exactly once, and its stage chain is a
//      pure function of the morsel's rows (per-worker scratch is
//      reset per morsel; stats are commutative counters).
//   3. The sink concatenates per-morsel outputs in ascending sequence
//      order, which equals ascending source-row order — exactly the
//      order a serial loop produces.
//
// Parallelism, deadline checkpoints and ExecStats live here and nowhere
// else. Plans are built by the rule-based planner (exec/planner.h).

#ifndef MODB_EXEC_PIPELINE_H_
#define MODB_EXEC_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/instant.h"
#include "core/status.h"
#include "db/parallel.h"
#include "db/relation.h"
#include "exec/morsel.h"
#include "index/delta_index.h"
#include "index/rtree3d.h"
#include "obs/exec_stats.h"

namespace modb {

struct EverWithinStats;  // temporal/lifted_ops.h

namespace exec {

/// A selection predicate: the row test a Select stage runs.
using Predicate = std::function<bool(const Tuple&)>;

/// A join predicate over (outer tuple, outer row, inner tuple, inner
/// row). In a pipelined plan the outer row id is the SOURCE row index
/// (stable under upstream filters), not the ordinal within the
/// filtered stream. A predicate that runs EverWithin passes it the
/// last argument, the join stage's counters; others ignore it.
using JoinPred = std::function<bool(const Tuple&, std::size_t, const Tuple&,
                                    std::size_t, EverWithinStats*)>;

/// Terminal projection stage: emit the given attribute slots, in order.
struct ProjectOp {
  std::vector<int> indices;
};

/// Terminal join-probe stage. kIndex probes an index over the inner
/// attribute's unit bounding cubes (a prebuilt tree, a live relation's
/// layered base/delta/mem stack, or else the tree of the plan's build
/// step) with each outer unit cube expanded by `expand`; kNestedLoop
/// tests every inner row. Both emit surviving pairs as (outer row
/// ascending, inner row ascending), so their outputs coincide whenever
/// the predicate implies the expanded-cube envelope — the contract
/// under which the planner may choose freely. The probe sorts and
/// deduplicates candidate ids before evaluating the predicate, so any
/// layering of the same entry set (one tree, or base+delta+mem) yields
/// byte-identical output. With `distinct_pairs` only inner rows j > i
/// pair with outer source row i: the index probe drops the others as
/// they arrive and stops once every inner row past i is a candidate
/// (so the last row probes nothing), the nested loop starts at i + 1,
/// and neither hands the predicate a pair with j <= i or counts one.
struct JoinProbeOp {
  enum class Kind { kIndex, kNestedLoop };
  Kind kind = Kind::kIndex;
  const Relation* inner = nullptr;
  int attr_outer = -1;
  double expand = 0;
  JoinPred pred;
  bool distinct_pairs = false;
  /// Layered index view (kIndex only). Takes precedence over `tree`.
  std::optional<IndexLayersView> layers;
  /// Prebuilt index (kIndex only); with neither this nor `layers` the
  /// probe uses the tree of the plan's build step.
  const RTree3D* tree = nullptr;
};

/// Terminal batch evaluation: each surviving row's moving-point
/// attribute `attr` at every one of `instants` (ascending). kAtInstant
/// appends the row's defined flags to PlanOutput `flags` and its
/// positions at the defined instants alone to xs/ys (the compact
/// BatchXYOutput form); kPresent appends its present flags to `flags`.
struct BatchOp {
  enum class Kind { kAtInstant, kPresent };
  Kind kind = Kind::kAtInstant;
  int attr = -1;
  std::vector<Instant> instants;
};

/// Terminal window aggregation over moving-point attribute `attr`:
/// windows [s, s + width) with s = t0 + i*step while s < t1. Each
/// window becomes one output row {w_start, w_end, count, distance,
/// avg_speed} over the surviving rows: how many are inside the closed
/// rect at some instant of the window, the distance they travel during
/// it, and their average speed. An inverted rect (min > max on either
/// axis) means no spatial constraint. Each window sums its rows in row
/// order; the grid is what runs in parallel, never a sum.
struct WindowAggregateOp {
  int attr = -1;
  Instant t0 = 0;
  Instant t1 = 0;
  Instant width = 0;
  Instant step = 0;
  double min_x = 0;
  double min_y = 0;
  double max_x = -1;
  double max_y = -1;
};

/// Hard ceiling on a window sweep's windows: one output row each.
inline constexpr std::uint64_t kMaxWindows = std::uint64_t(1) << 20;

/// One streaming pipeline: one source relation, filters, and at most
/// one terminal op.
struct Pipeline {
  const Relation* rel = nullptr;
  std::vector<Predicate> filters;
  std::optional<ProjectOp> project;
  std::optional<JoinProbeOp> join;
  std::optional<BatchOp> batch;
  std::optional<WindowAggregateOp> window;
  /// Rows per morsel; 0 = PickMorselRows default.
  std::size_t morsel_rows = 0;
};

/// Serial R-tree construction over a relation's moving-point attribute.
struct BuildIndexOp {
  const Relation* rel = nullptr;
  int attr = -1;
};

/// A physical plan: at most one index build, then one pipeline, which
/// produces the output (out_name / out_schema for relational output).
/// legacy_tuples_in carries the operator-semantics cardinality for the
/// root ExecStats node (outer + inner for joins, rows × instants for
/// batches).
struct PhysicalPlan {
  std::optional<BuildIndexOp> build;
  Pipeline pipe;
  std::string out_name;
  Schema out_schema;
  std::string root_op = "pipeline";
  std::uint64_t legacy_tuples_in = 0;
};

/// What a plan produces. Relational and window terminals fill `rows`;
/// the batch terminals fill row-major [row][instant] columns instead:
/// `flags` has one byte per cell, and for atinstant xs/ys hold the
/// defined cells alone (xs.size() == ys.size() == the set flags).
struct PlanOutput {
  Relation rows;
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<std::uint8_t> flags;
};

/// Executes the plan: the build step (if any) serially, then the
/// pipeline morsel-parallel per `options.parallel` with per-worker
/// ExecStats accumulation and one deadline checkpoint per morsel.
/// When `options.stats` is set, the node gets one child per stage
/// ("build_index", "scan", "select", then the terminal) with rows
/// in/out, and the root counts workers and morsels; the root's
/// `materializations` counts Relations the plan materialized — always
/// exactly 1 (the sink), which is what "zero intermediate
/// materializations" means operationally.
Result<PlanOutput> RunPlan(const PhysicalPlan& plan,
                           const ExecOptions& options);

/// Builds the R-tree an index join probes: one entry per unit bounding
/// cube of `rel`'s moving-point attribute `attr`, entry id = owning
/// tuple index. The tree stays valid as long as `rel` is unchanged.
Result<RTree3D> BuildMovingPointIndex(const Relation& rel, int attr);

}  // namespace exec
}  // namespace modb

#endif  // MODB_EXEC_PIPELINE_H_
