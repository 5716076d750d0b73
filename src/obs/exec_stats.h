// ExecStats: the per-query-node execution profile tree. The exec engine
// (exec/pipeline.h) fills one node when ExecOptions.stats is set:
// cardinalities in/out, predicate evaluations, index candidates vs
// hits, and units touched, plus wall time and one child per pipeline
// stage. Stage counters are sums over workers, so two runs of the same
// query produce the same counters regardless of thread scheduling.
//
// Unlike the obs/metrics.h registry (process-global, always-on counters),
// an ExecStats tree is caller-owned and opt-in: operators pay for
// plain local increments only, and skip even the clock reads when no
// tree was requested. ToJson/FromJson round-trip exactly, so stats can
// ride alongside the BENCH_*.json files and be diffed across runs.

#ifndef MODB_OBS_EXEC_STATS_H_
#define MODB_OBS_EXEC_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace modb {
namespace obs {

struct ExecStats {
  /// Operator or stage label: "pipeline", "window_aggregate",
  /// "present_batch_many", "scan", "select", "join_probe", ...
  std::string op;

  // Cardinalities. For joins, tuples_in counts outer + inner tuples.
  std::uint64_t tuples_in = 0;
  std::uint64_t tuples_out = 0;

  /// Times the caller's predicate ran (after any index pruning).
  std::uint64_t predicate_evals = 0;

  /// Q2's EverWithin join predicate: refinement intervals its sweep
  /// examined, and pairs it handed to the composed operators because
  /// the minimum distance was too close to call. Always 0 under
  /// MODB_NO_METRICS.
  std::uint64_t predicate_intervals = 0;
  std::uint64_t predicate_fallbacks = 0;

  /// Index join: candidate tuples the index produced, and candidates
  /// that survived the exact predicate. candidates - hits = wasted
  /// refinements; tuples_in(outer) - candidates = pruning power.
  std::uint64_t index_candidates = 0;
  std::uint64_t index_hits = 0;

  /// Index structures built by this operator call (0 when a prebuilt
  /// index was reused — the rebuild-per-call antipattern shows up here).
  std::uint64_t index_builds = 0;

  /// Moving-object units touched while probing/evaluating: for the
  /// index join, the outer units actually probed. The probe of an outer
  /// row stops once every inner row is a candidate, so this can be less
  /// than the outer relation's unit total.
  std::uint64_t units_scanned = 0;

  /// Workers the operator ran on (1 = serial inline).
  std::uint64_t workers = 0;

  /// Pipelined engine (src/exec/): morsels this node processed.
  std::uint64_t morsels = 0;

  /// Relations this node materialized. A pipelined plan reports exactly
  /// 1 (the sink); a composed chain of materializing operators reports
  /// one per operator — the difference is the engine's whole point.
  std::uint64_t materializations = 0;

  /// Operator wall time; 0 unless a stats tree was requested.
  std::uint64_t wall_ns = 0;

  /// Sub-operator (stage) nodes, in pipeline order.
  std::vector<ExecStats> children;

  /// Sums every counter of `other` into this node, workers included.
  /// op and children are untouched, and wall_ns is NOT summed — wall
  /// time is not additive across concurrent workers; the parent
  /// measures its own.
  void MergeCountersFrom(const ExecStats& other);

  /// Compact JSON; zero-valued fields are omitted, so dumps stay small.
  std::string ToJson() const;

  /// Inverse of ToJson (unknown keys are rejected, missing keys are 0).
  static Result<ExecStats> FromJson(const std::string& json);
};

}  // namespace obs

// The query layer exposes the type in the modb namespace.
using ExecStats = obs::ExecStats;

}  // namespace modb

#endif  // MODB_OBS_EXEC_STATS_H_
