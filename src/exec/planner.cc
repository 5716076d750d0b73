#include "exec/planner.h"

#include <cmath>
#include <utility>

#include "db/value.h"
#include "obs/metrics.h"

namespace modb {
namespace exec {

namespace {

// Below this many predicate evaluations a nested loop beats paying for
// an R-tree build: at ~a few thousand evals the O(U log U) bulk load
// plus per-probe descents cost more than just testing every pair.
constexpr std::uint64_t kNestedLoopEvalBudget = 4096;

// `attr` must be a moving-point slot of `schema`; `what` names the
// role in the error.
Status CheckMovingPointSlot(const Schema& schema, int attr,
                            const std::string& what) {
  if (attr < 0 || std::size_t(attr) >= schema.NumAttributes()) {
    return Status::InvalidArgument(what + " attribute " +
                                   std::to_string(attr) + " out of range");
  }
  if (schema.attribute(std::size_t(attr)).type != AttributeType::kMovingPoint) {
    return Status::InvalidArgument(what + " attribute " +
                                   std::to_string(attr) +
                                   " is not a moving point");
  }
  return Status::OK();
}

Status ValidateWindow(const WindowAggregateOp& w) {
  if (!(w.width > 0) || !(w.step > 0)) {
    return Status::InvalidArgument(
        "window aggregate requires window_width > 0 and window_step > 0");
  }
  if (!std::isfinite(w.t0) || !std::isfinite(w.t1) ||
      !std::isfinite(w.width) || !std::isfinite(w.step)) {
    return Status::InvalidArgument("window aggregate fields must be finite");
  }
  if (w.t1 < w.t0) {
    return Status::InvalidArgument(
        "window sweep is inverted: window_t1 < window_t0");
  }
  if ((w.t1 - w.t0) / w.step > double(kMaxWindows)) {
    return Status::InvalidArgument("window sweep would emit more than " +
                                   std::to_string(kMaxWindows) + " windows");
  }
  return Status::OK();
}

Status ValidateQuery(const LogicalQuery& q) {
  if (q.rel == nullptr) {
    return Status::InvalidArgument("logical query has no source relation");
  }
  if (int(q.project.has_value()) + int(q.join.has_value()) +
          int(q.batch.has_value()) + int(q.window.has_value()) >
      1) {
    return Status::InvalidArgument(
        "a pipeline has at most one terminal (projection, join, batch or "
        "window)");
  }
  const Schema& schema = q.rel->schema();
  for (const Predicate& p : q.filters) {
    if (!p) return Status::InvalidArgument("filter predicate is empty");
  }
  if (q.project) {
    for (int idx : *q.project) {
      if (idx < 0 || std::size_t(idx) >= schema.NumAttributes()) {
        return Status::InvalidArgument("projection attribute " +
                                       std::to_string(idx) + " out of range");
      }
    }
  }
  if (q.batch) {
    MODB_RETURN_IF_ERROR(CheckMovingPointSlot(schema, q.batch->attr, "batch"));
  }
  if (q.window) {
    MODB_RETURN_IF_ERROR(
        CheckMovingPointSlot(schema, q.window->attr, "window"));
    MODB_RETURN_IF_ERROR(ValidateWindow(*q.window));
  }
  if (q.join) {
    const LogicalQuery::JoinSpec& j = *q.join;
    if (j.inner == nullptr) {
      return Status::InvalidArgument("join has no inner relation");
    }
    if (!j.pred) {
      return Status::InvalidArgument("join predicate is empty");
    }
    if (j.algorithm != LogicalQuery::JoinSpec::Algorithm::kNestedLoop) {
      MODB_RETURN_IF_ERROR(
          CheckMovingPointSlot(schema, j.attr_outer, "join outer"));
      if (j.prebuilt == nullptr && !j.layers &&
          (j.attr_inner < 0 ||
           std::size_t(j.attr_inner) >= j.inner->schema().NumAttributes())) {
        return Status::InvalidArgument(
            "join inner attribute " + std::to_string(j.attr_inner) +
            " out of range");
      }
    }
  }
  return Status::OK();
}

// Join algorithm rule: pinned algorithms are honoured; kAuto compares
// the nested loop's predicate evaluations (outer rows × inner rows)
// against a budget that stands in for the index build + probe
// overhead. Tiny inputs stay nested-loop; anything sizable takes the
// index. A prebuilt tree or layered view makes the index free, so it
// always wins.
bool UseIndexJoin(const LogicalQuery& q) {
  const LogicalQuery::JoinSpec& j = *q.join;
  switch (j.algorithm) {
    case LogicalQuery::JoinSpec::Algorithm::kIndex:
      return true;
    case LogicalQuery::JoinSpec::Algorithm::kNestedLoop:
      return false;
    case LogicalQuery::JoinSpec::Algorithm::kAuto:
      break;
  }
  if (j.prebuilt != nullptr || j.layers) return true;
  return q.rel->NumTuples() * j.inner->NumTuples() > kNestedLoopEvalBudget;
}

std::string DeriveOutName(const LogicalQuery& q, bool use_index_join) {
  std::string name = q.rel->name();
  if (q.window) return name + "_win";
  if (!q.filters.empty()) name += "_sel";
  if (q.join) {
    name += use_index_join ? "_ix_" : "_x_";
    name += q.join->inner->name();
  } else if (q.project) {
    name += "_proj";
  }
  return name;
}

}  // namespace

Result<PhysicalPlan> PlanQuery(const LogicalQuery& q) {
  MODB_RETURN_IF_ERROR(ValidateQuery(q));

  const bool use_index_join = q.join && UseIndexJoin(q);
  // One counter name per call site: the macro caches its counter.
  if (use_index_join) {
    MODB_COUNTER_INC("exec.planner.chose_index_join");
  } else if (q.join) {
    MODB_COUNTER_INC("exec.planner.chose_nested_loop");
  }

  PhysicalPlan plan;
  plan.root_op = q.root_op;
  plan.out_name =
      !q.out_name.empty() ? q.out_name : DeriveOutName(q, use_index_join);
  plan.legacy_tuples_in = q.rel->NumTuples();

  Pipeline& pipe = plan.pipe;
  pipe.rel = q.rel;
  pipe.filters = q.filters;
  pipe.morsel_rows = q.morsel_rows;

  const Schema& schema = q.rel->schema();
  if (q.join) {
    const LogicalQuery::JoinSpec& j = *q.join;
    plan.legacy_tuples_in += j.inner->NumTuples();
    const std::string outer_name =
        q.rel->name() + (q.filters.empty() ? "" : "_sel");
    plan.out_schema =
        Schema::Concat(schema, outer_name + ".", j.inner->schema(),
                       j.inner->name() + ".");
    JoinProbeOp op;
    op.kind = use_index_join ? JoinProbeOp::Kind::kIndex
                             : JoinProbeOp::Kind::kNestedLoop;
    op.inner = j.inner;
    op.attr_outer = j.attr_outer;
    op.expand = j.expand;
    op.pred = j.pred;
    op.distinct_pairs = j.distinct_pairs;
    if (use_index_join) {
      if (j.layers) {
        op.layers = j.layers;
      } else if (j.prebuilt != nullptr) {
        op.tree = j.prebuilt;
      } else {
        plan.build = BuildIndexOp{j.inner, j.attr_inner};
      }
    }
    pipe.join = std::move(op);
  } else if (q.project) {
    std::vector<AttributeDef> defs;
    defs.reserve(q.project->size());
    for (int idx : *q.project) defs.push_back(schema.attribute(std::size_t(idx)));
    plan.out_schema = Schema(std::move(defs));
    pipe.project = ProjectOp{*q.project};
  } else if (q.batch) {
    plan.legacy_tuples_in *= q.batch->instants.size();
    pipe.batch = q.batch;
  } else if (q.window) {
    plan.out_schema = Schema({{"w_start", AttributeType::kReal},
                              {"w_end", AttributeType::kReal},
                              {"count", AttributeType::kInt},
                              {"distance", AttributeType::kReal},
                              {"avg_speed", AttributeType::kReal}});
    pipe.window = q.window;
  } else {
    plan.out_schema = schema;
  }
  return plan;
}

}  // namespace exec
}  // namespace modb
