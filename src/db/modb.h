// modb::Db — the supported embedding facade and the serving layer's
// execution target. A Db holds named relations and prebuilt moving-point
// R-trees resident and answers typed QueryRequests: a closed, fully
// serializable query model (no std::function, no pointers) that a remote
// client can ship over the wire and a local embedder can construct
// directly. Db::Run lowers a request onto the rule-based planner and the
// morsel-driven pipelined engine (src/exec/), so results are
// byte-identical for any thread count — the property the serving layer's
// concurrent-client determinism contract rests on.
//
// Thread model: Register/Drop/BuildIndex take the writer lock; Run takes
// the reader lock for its whole execution, so queries run concurrently
// with each other and never observe a half-registered relation. Results
// are materialized copies — safe to use after the lock is released.
// A store-backed ingest (Apply kIngest) holds the writer lock only for
// the in-memory mutation; the durability commit runs under the reader
// lock, concurrently with queries, each of which pins the store epoch it
// started on (storage/recovery.h) so reclamation can never pull pages
// out from under a running request.

#ifndef MODB_DB_MODB_H_
#define MODB_DB_MODB_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/instant.h"
#include "core/status.h"
#include "db/parallel.h"
#include "db/relation.h"
#include "index/rtree3d.h"
#include "ingest/live_relation.h"
#include "obs/exec_stats.h"

namespace modb {

/// One selection filter of the closed request model. `attr` names an
/// attribute of the source relation; which other fields are read depends
/// on `kind`. Unknown attributes and type mismatches are
/// InvalidArgument at Run time, never undefined behavior.
struct FilterSpec {
  enum class Kind : std::uint8_t {
    /// String attribute equals `value` (Q1's airline = "Lufthansa").
    kStringEquals = 0,
    /// length(trajectory(mpoint attr)) >= `threshold` (Q1's second
    /// conjunct).
    kTrajectoryLengthAtLeast = 1,
    /// Moving-point attr is defined at instant `t0`.
    kPresentAt = 2,
    /// Moving-point attr's deftime intersects [t0, t1].
    kDeftimeIntersects = 3,
  };
  Kind kind = Kind::kStringEquals;
  std::string attr;
  std::string value;      // kStringEquals
  double threshold = 0;   // kTrajectoryLengthAtLeast
  Instant t0 = 0;         // kPresentAt, kDeftimeIntersects
  Instant t1 = 0;         // kDeftimeIntersects
};

/// A typed query against a Db. Pure data: serve/wire.h encodes it 1:1.
struct QueryRequest {
  enum class Kind : std::uint8_t {
    /// σ(relation) under `filters`.
    kSelect = 0,
    /// π(σ(relation)) onto the `project` attribute names.
    kProject = 1,
    /// Nested-loop ever-closer-than join of relation × join_relation.
    kJoin = 2,
    /// Same join through the R-tree (prebuilt via Db::BuildIndex when
    /// available, else built inside the plan).
    kIndexJoin = 3,
    /// atinstant of every tuple's `attr` at each of `instants`
    /// (ascending) — defined flags row-major [tuple][instant], xs/ys
    /// for the defined cells alone (see QueryResult).
    kAtInstantBatch = 4,
    /// present of every tuple's `attr` at each of `instants`.
    kPresentBatch = 5,
    /// Continuous-window aggregation over `attr`: tumbling (step ==
    /// width) or sliding (step < width) windows [s, s + width) with
    /// s = window_t0 + i*window_step while s < window_t1. Per window,
    /// over the (optionally filtered) source: how many objects are
    /// inside the rect at some instant of the window, the distance
    /// those objects travel during it, and their average speed. Emits
    /// one row per window (empty windows included) as rows payload
    /// {w_start, w_end, count, distance, avg_speed}.
    kWindowAggregate = 6,
  };
  Kind kind = Kind::kSelect;

  /// Source relation name (join outer).
  std::string relation;
  /// Pre-filters, applied in order (every kind but the batch kinds).
  std::vector<FilterSpec> filters;
  /// Output attribute names, in order (kProject).
  std::vector<std::string> project;

  /// Join inner relation (may equal `relation` — Q2's self join).
  std::string join_relation;
  /// Moving-point attribute on the source: the join outer attribute for
  /// kJoin/kIndexJoin, the evaluation target for the batch kinds.
  std::string attr;
  /// Moving-point attribute on `join_relation`.
  std::string join_attr;
  /// Join predicate: val(initial(atmin(distance(a, b)))) < distance.
  double distance = 0;
  /// Self-join dedup: emit only pairs with outer row < inner row.
  bool distinct_pairs = true;

  /// Evaluation instants for the batch kinds; must be ascending.
  std::vector<Instant> instants;

  /// kWindowAggregate: the window sweep [window_t0, window_t1) cut into
  /// windows of `window_width` advancing by `window_step` (both > 0).
  Instant window_t0 = 0;
  Instant window_t1 = 0;
  Instant window_width = 0;
  Instant window_step = 0;
  /// kWindowAggregate: the query rect, closed on all sides. An inverted
  /// rect (min > max on either axis — the default) means "no spatial
  /// constraint": every defined instant qualifies.
  double min_x = 0;
  double min_y = 0;
  double max_x = -1;
  double max_y = -1;

  /// Wire-level execution hint: the worker count the client asks for.
  /// The server copies it into ExecOptions.parallel and the shared
  /// ValidateParallelOptions bound applies; Db::Run itself executes
  /// under the ExecOptions it is given, not this field.
  std::int64_t num_threads = 1;

  /// Wire-level execution deadline in milliseconds from the moment the
  /// server starts handling the request; 0 (or negative) means none.
  /// The server turns it into ExecOptions.deadline, checked
  /// cooperatively at morsel boundaries — expiry is a typed
  /// kDeadlineExceeded reply, and admission rejects up front when the
  /// predicted queue wait alone would consume the whole budget.
  std::int64_t deadline_ms = 0;
};

/// The answer to a QueryRequest. Exactly one payload is populated —
/// `payload` says which: `rows` for the relational kinds, xs/ys/defined
/// for kAtInstantBatch, `present` for kPresentBatch. `stats` is always
/// filled.
struct QueryResult {
  enum class Payload : std::uint8_t { kRows = 0, kXY = 1, kPresent = 2 };
  Payload payload = Payload::kRows;

  Relation rows;

  /// Batch payload geometry: row-major [tuple][instant] flattening.
  /// `defined` and `present` hold one 0/1 byte per cell. xy is compact:
  /// xs / ys carry the defined cells alone, in the same order, so
  /// xs.size() == ys.size() == the number of set `defined` flags and an
  /// undefined cell has no coordinates at all.
  std::uint64_t batch_tuples = 0;
  std::uint64_t batch_instants = 0;
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<std::uint8_t> defined;
  std::vector<std::uint8_t> present;

  ExecStats stats;
};

/// A typed mutation against a Db — the write-side counterpart of
/// QueryRequest, equally closed and wire-encodable (serve/wire.h).
struct MutationRequest {
  enum class Kind : std::uint8_t {
    /// Creates an empty live relation named `relation` (schema
    /// {id: string, trail: mpoint}); `seal_units` > 0 overrides the
    /// default seal threshold.
    kRegisterLive = 0,
    /// Drops `relation` (live or not) and everything derived from it.
    kDropRelation = 1,
    /// Appends `fixes` to live relation `relation`, atomically: the
    /// whole batch is validated first and rejected as a unit. When the
    /// relation is store-backed the batch is committed before the ack —
    /// an acknowledged ingest is durable.
    kIngest = 2,
  };
  Kind kind = Kind::kIngest;
  std::string relation;

  struct Fix {
    std::string object_id;
    Instant t = 0;
    double x = 0;
    double y = 0;
  };
  std::vector<Fix> fixes;

  /// kRegisterLive: 0 keeps the LiveOptions default.
  std::uint64_t seal_units = 0;

  /// kIngest idempotency key. A non-empty client_id makes the batch
  /// retry-safe: the live relation remembers recently applied
  /// (client_id, batch_seq) pairs and re-acks a duplicate with the
  /// original ack instead of applying it twice (the dedup window is
  /// bounded — see ingest::LiveRelation). Empty client_id = unkeyed,
  /// applied unconditionally.
  std::string client_id;
  std::uint64_t batch_seq = 0;
};

/// The ack for a MutationRequest: what was applied plus a snapshot of
/// the live relation's layer sizes (zeros for kRegisterLive/kDrop).
struct MutationResult {
  std::uint64_t accepted = 0;
  std::uint64_t objects = 0;
  std::uint64_t mem_units = 0;
  std::uint64_t delta_entries = 0;
  std::uint64_t base_entries = 0;
  std::uint64_t merges = 0;
  /// Store epoch after the mutation; 0 when no store is attached.
  std::uint64_t epoch = 0;
};

/// The resident database: named relations plus prebuilt R-trees over
/// their moving-point attributes.
class Db {
 public:
  Db() = default;
  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  /// Registers `rel` under its name. FailedPrecondition if the name is
  /// taken, InvalidArgument on an empty name.
  Status Register(Relation rel);

  /// Drops the relation and any indexes built over it. NotFound if
  /// absent.
  Status Drop(const std::string& name);

  /// Builds (or rebuilds) the R-tree over `relation`'s moving-point
  /// attribute `attr` and keeps it resident; subsequent kIndexJoin
  /// requests with this inner attribute probe it without a build step.
  /// FailedPrecondition on live relations — they maintain their own
  /// layered index.
  Status BuildIndex(const std::string& relation, const std::string& attr);

  /// Creates an empty live relation (ingest target). Name rules as for
  /// Register.
  Status RegisterLive(const std::string& name,
                      ingest::LiveOptions options = ingest::LiveOptions());

  /// Attaches a durability store to live relation `name` (adopting an
  /// empty store or recovering a populated one — see
  /// ingest::LiveRelation::AttachStore). The store must outlive the Db
  /// entry.
  Status AttachLiveStore(const std::string& name, VersionedSpillStore* store);

  /// Applies a mutation. The in-memory effect happens under the writer
  /// lock; for a store-backed kIngest the durability commit then runs
  /// under the reader lock (concurrently with queries) before the ack
  /// returns, so an acknowledged batch is still always durable. The ack
  /// reflects the post-batch (and, when store-backed, post-commit)
  /// state.
  Result<MutationResult> Apply(const MutationRequest& req);

  /// One LSM maintenance round for live relation `name`: snapshots the
  /// base+delta union under the reader lock, bulk-loads the merged tree
  /// with NO lock held, and installs it under the writer lock unless a
  /// seal intervened (in which case the round is a no-op and a later
  /// round retries). Queries are never blocked on the build.
  Status MergeLive(const std::string& name);

  /// Final drain for live relation `name` (modbd's shutdown path):
  /// seals every tail, compacts delta into base, and — when
  /// store-backed — commits one final epoch, so recovery reopens to
  /// exactly this state. NotFound if absent, FailedPrecondition if not
  /// live.
  Status DrainLive(const std::string& name);

  /// Registered relation names, sorted.
  std::vector<std::string> RelationNames() const;
  /// Tuple count of a registered relation; NotFound if absent.
  Result<std::uint64_t> NumTuples(const std::string& name) const;

  /// Executes `req` under `options` (policy + optional extra stats
  /// sink; the result's own `stats` member is always populated).
  /// Deterministic: for a fixed Db state and request, the payload is
  /// byte-identical for every valid options.parallel.num_threads.
  Result<QueryResult> Run(const QueryRequest& req,
                          const ExecOptions& options = {}) const;

  /// Run, handing the result to `consume` before the query releases the
  /// Db: the result, whose values share unit arrays with the relations,
  /// is dropped while no writer can run, so no writer ever clones a
  /// trail for it. modbd encodes its reply here. Returns the query's
  /// error or consume's.
  Status Run(const QueryRequest& req, const ExecOptions& options,
             const std::function<Status(QueryResult&)>& consume) const;

 private:
  struct Entry {
    Relation rel;
    /// Prebuilt R-trees by attribute slot.
    std::map<int, RTree3D> indexes;
    /// Set for live relations; `rel` is then unused and the relation's
    /// tuples live inside (live->relation()).
    std::unique_ptr<ingest::LiveRelation> live;
  };

  /// The queryable relation of an entry (live or static).
  static const Relation& RelOf(const Entry& e) {
    return e.live != nullptr ? e.live->relation() : e.rel;
  }

  mutable std::shared_mutex mu_;
  std::map<std::string, Entry> relations_;
};

}  // namespace modb

#endif  // MODB_DB_MODB_H_
