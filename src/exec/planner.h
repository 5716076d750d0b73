// The rule-based planner: turns a LogicalQuery (source, filters,
// terminal) into a PhysicalPlan for the pipelined engine. One rule,
// join algorithm choice: kAuto picks the index join vs nested loop from
// cheap cardinality stats (outer rows × inner rows against a budget
// standing in for the index build). kAuto is only sound under the
// envelope contract: the predicate must imply that some outer unit cube
// expanded by `expand` intersects a matching inner unit cube — the same
// contract under which a caller may pin kIndex by hand. Callers whose
// predicate does not satisfy it must pin kNestedLoop.
//
// The rule is a pure function of the query, so the same query always
// gets the same plan.

#ifndef MODB_EXEC_PLANNER_H_
#define MODB_EXEC_PLANNER_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/status.h"
#include "exec/pipeline.h"

namespace modb {
namespace exec {

/// Declarative query description. `rel` is the source; filters apply
/// in order; at most one of project/join/batch/window is the terminal.
/// The planner copies predicates into the plan but only points at
/// relations/indexes — sources must outlive the returned
/// PhysicalPlan's execution.
struct LogicalQuery {
  const Relation* rel = nullptr;

  std::vector<Predicate> filters;

  /// Projection: attribute slots of the source schema, in output order.
  std::optional<std::vector<int>> project;

  struct JoinSpec {
    enum class Algorithm { kAuto, kNestedLoop, kIndex };
    Algorithm algorithm = Algorithm::kAuto;
    const Relation* inner = nullptr;
    /// Moving-point join attributes (outer slot in the source schema,
    /// inner slot in `inner`'s). Only consulted for the index variant,
    /// but kAuto requires both so either choice is executable.
    int attr_outer = -1;
    int attr_inner = -1;
    /// Spatial slack added to each probe cube (the join distance).
    double expand = 0;
    JoinPred pred;
    /// Emit only pairs whose inner row id exceeds the outer source row
    /// id (a self-join's distinct pairs); the predicate never sees the
    /// others.
    bool distinct_pairs = false;
    /// Optional prebuilt R-tree over `inner`'s join attribute; forces
    /// the index variant without a build step.
    const RTree3D* prebuilt = nullptr;
    /// Optional layered index view (live relations: base + delta + mem
    /// over `inner`'s join attribute); forces the index variant without
    /// a build step and takes precedence over `prebuilt`. The referenced
    /// layers must outlive the plan's execution.
    std::optional<IndexLayersView> layers;
  };
  std::optional<JoinSpec> join;

  /// Batch terminal: atinstant / present of every surviving row.
  std::optional<BatchOp> batch;
  /// Window-aggregation terminal over the surviving rows.
  std::optional<WindowAggregateOp> window;

  /// Output relation name; "" derives the operator-chain name (source +
  /// "_sel" / "_proj" / "_x_" / "_ix_" suffixes, or "_win" for windows).
  std::string out_name;
  /// Root ExecStats op label ("select", "pipeline", ...).
  std::string root_op = "pipeline";
  /// Rows per morsel; 0 = engine default.
  std::size_t morsel_rows = 0;
};

/// Plans `q`. Fails with InvalidArgument on malformed queries (no
/// source, several terminals, attribute slots out of range or of the
/// wrong type, an invalid window sweep).
Result<PhysicalPlan> PlanQuery(const LogicalQuery& q);

}  // namespace exec
}  // namespace modb

#endif  // MODB_EXEC_PLANNER_H_
