// A live relation: the ingest-facing owner of one fleet of moving
// points. It glues together three pieces —
//
//   * the {id: string, trail: mpoint} Relation whose trail attribute is
//     the ONE home of each object's units: Ingest appends to it in place
//     (so every existing query operator works on live data unchanged),
//   * per-object TailSeries (ingest/tail.h) holding only the anchor and
//     seal frontier, absorbing fixes into that trail with the
//     bitwise-identity guarantee, and
//   * the LSM-layered IndexSnapshot (index/delta_index.h) whose
//     base/delta/mem union always equals the bulk entry set over the
//     current relation: one {unit cube, row} entry per trajectory unit.
//
// Batch atomicity: Ingest validates the WHOLE batch first (per-object
// strictly increasing timestamps, both within the batch and against the
// tail frontier; finite coordinates; object cap when a store is
// attached) and only then mutates — a rejected batch leaves relation,
// tails and index untouched.
//
// Cost: a batch costs what it changed. Each fix replaces or appends one
// unit of its trail (checked against its predecessor only — the prefix
// is already a valid mapping), and only the touched rows' mem entries
// are rewritten. Nothing per batch walks an object's history.
//
// Layer invariant (why live queries match batch queries byte for byte):
// Absorb only ever mutates the LAST unit of a tail, and a right-bound
// flip never moves that unit's cube; sealed units [0, frontier) are
// frozen. So entries handed to delta on Seal() stay valid forever, a
// touched row's mem entries are rewritten from its unsealed suffix
// after each batch, and
//   base ∪ delta ∪ mem  =  { (unit cube, row) : all units of all rows }
// which is exactly what RTree3D bulk-built over the relation holds. The
// probe's sort+dedupe makes the layering invisible (delta_index.h).
//
// Durability (optional VersionedSpillStore), one epoch per acknowledged
// batch, so an ingest ack implies durability. Root 0 is a manifest;
// root i+1 is object row i's trajectory as of the last *checkpoint*
// (kMovingPoint, or a 1-byte kOpaque placeholder while it had a single
// fix and no units). The manifest (v3, layout in live_relation.cc)
// carries each object's id and checkpoint anchor — the exact last fix
// the checkpoint saw, verbatim, because recomputing it from motion
// coefficients would round and break bitwise resume — the dedup window,
// and the fix log: every fix absorbed since the checkpoint, in commit
// order. A commit restages the manifest alone; a checkpoint also
// rewrites the touched trails and empties the log, and runs when the
// log bytes restaged since the last checkpoint reach the bytes the
// checkpoint would write. Recovery resumes the checkpointed trails from
// their anchors and replays the log through Absorb — deterministic, so
// the trails come back byte for byte — and reopens fully compacted:
// every unit except each tail's newest lands in base, the newest units
// form mem, delta is empty. The index itself is never persisted — it is
// derived state, rebuilt from the trajectories on open.

#ifndef MODB_INGEST_LIVE_RELATION_H_
#define MODB_INGEST_LIVE_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/status.h"
#include "db/relation.h"
#include "index/delta_index.h"
#include "ingest/tail.h"
#include "storage/recovery.h"

namespace modb {
namespace ingest {

/// One GPS fix as it arrives over the wire.
struct IngestFix {
  std::string object_id;
  Instant t = 0;
  double x = 0;
  double y = 0;
};

/// The remembered ack of an applied keyed batch — mirrors the fields of
/// db::MutationResult (which this header cannot include without a
/// cycle). Stored in the dedup window and re-sent verbatim when a
/// client retries a batch whose original ack it never saw.
struct IngestAck {
  std::uint64_t accepted = 0;
  std::uint64_t objects = 0;
  std::uint64_t mem_units = 0;
  std::uint64_t delta_entries = 0;
  std::uint64_t base_entries = 0;
  std::uint64_t merges = 0;
  std::uint64_t epoch = 0;
};

struct LiveOptions {
  /// Seal a tail once its unsealed suffix exceeds this many units.
  std::size_t seal_units = 8;
  /// Inline-compact delta into base once it holds this many entries.
  std::size_t merge_threshold = 1024;
  /// STR fanout for every bulk load this relation performs.
  int fanout = 16;
};

class LiveRelation {
 public:
  static constexpr int kIdSlot = 0;
  static constexpr int kTrailSlot = 1;
  /// Store layout is manifest + one root per object, and a store holds
  /// at most kMaxRootsPerStore roots.
  static constexpr std::size_t kMaxStoredObjects = kMaxRootsPerStore - 1;

  explicit LiveRelation(std::string name, LiveOptions options = LiveOptions());

  /// Absorbs a batch of fixes atomically (all or nothing), refreshes the
  /// relation's trail attributes, reseals/retiles the index layers, and
  /// inline-merges past the delta threshold. New object ids register
  /// rows on first sight.
  Status Ingest(const std::vector<IngestFix>& fixes);

  /// Seals every tail to its frontier and compacts delta into base (the
  /// drain path: makes in-memory state match what recovery rebuilds).
  void SealAll();

  /// Inline base+delta compaction (maintenance path when the off-lock
  /// protocol below is not needed).
  void MergeNow() { index_.MergeInline(options_.fanout); }

  /// Off-lock merge protocol passthrough: PrepareMerge under a reader
  /// lock, bulk-load with no lock, ApplyMerge under the writer lock.
  std::optional<MergePlan> PrepareMerge() const {
    return index_.PrepareMerge();
  }
  bool ApplyMerge(const MergePlan& plan, RTree3D merged) {
    return index_.ApplyMerge(plan, std::move(merged));
  }

  /// Attaches a durability store. An empty store is adopted as-is (the
  /// first Persist checkpoints every object); a non-empty one must be
  /// attached to a fresh LiveRelation and is recovered into it (rows in
  /// persisted order, fully compacted index). A malformed manifest is
  /// kDataLoss, after which the relation must be discarded. The store
  /// must outlive this relation.
  Status AttachStore(VersionedSpillStore* store);
  bool HasStore() const { return store_ != nullptr; }

  /// Commits one epoch holding every absorbed fix: the manifest with
  /// the fix log, or at a checkpoint the manifest with an empty log plus
  /// every trail touched since the last checkpoint. FailedPrecondition
  /// without an attached store.
  ///
  /// Concurrency: Persist serializes against other Persist calls on an
  /// internal mutex, and its reads of the in-memory state must not
  /// overlap an Ingest (Db::Apply guarantees this by mutating under the
  /// writer lock and persisting under the reader lock). It runs safely
  /// alongside queries — the commit's I/O no longer stalls readers.
  Status Persist();

  /// Pins the store's current committed epoch (empty pin when no store
  /// is attached). Queries take one per request so a concurrent
  /// Persist commit can never reclaim the pages their snapshot could
  /// still resolve blobs from.
  VersionedSpillStore::EpochPin PinStoreEpoch() const {
    return store_ != nullptr ? store_->PinEpoch()
                             : VersionedSpillStore::EpochPin();
  }

  const Relation& relation() const { return rel_; }
  IndexLayersView View() const { return index_.View(); }
  const IndexSnapshot& index() const { return index_; }
  std::size_t NumObjects() const { return objects_.size(); }
  const LiveOptions& options() const { return options_; }
  std::uint64_t epoch() const { return store_ != nullptr ? store_->epoch() : 0; }

  /// Row of `object_id`, or nullopt.
  std::optional<std::size_t> RowOf(const std::string& object_id) const;
  const TailSeries& tail(std::size_t row) const { return objects_[row].tail; }
  /// Row `row`'s trajectory: the relation's trail attribute.
  const MovingPoint& trail(std::size_t row) const {
    return std::get<MovingPoint>(rel_.tuple(row)[std::size_t(kTrailSlot)]);
  }

  /// Fixes absorbed since the last checkpoint (the fix log the next
  /// commit carries); always 0 without a store.
  std::size_t LogFixes() const { return log_.size(); }
  /// Checkpoint commits that succeeded since the store was attached.
  std::uint64_t checkpoints() const { return checkpoints_; }

  /// ---- ingest idempotency window -----------------------------------
  ///
  /// A bounded memory of recently applied keyed batches: at most
  /// kDedupMaxClients client ids, each remembering the acks of its
  /// kDedupMaxSeqsPerClient HIGHEST batch_seqs (lowest seq evicted
  /// first; when a new client would exceed the client cap, the least
  /// recently recording client is dropped). The window rides inside the
  /// manifest (since v2), so every Persist commits the batch and its dedup
  /// entry atomically and recovery re-acks exactly what a pre-crash
  /// server would have. A retry that fell out of the window is NOT
  /// silently re-applied: its fixes sit at or below the tail frontier,
  /// so Ingest rejects them with a typed kOutOfRange.
  static constexpr std::size_t kDedupMaxClients = 64;
  static constexpr std::size_t kDedupMaxSeqsPerClient = 128;

  /// The remembered ack for (client_id, batch_seq), or nullopt if the
  /// window has no entry (never seen, or evicted).
  std::optional<IngestAck> DedupLookup(const std::string& client_id,
                                       std::uint64_t batch_seq) const;
  /// Records (or overwrites — the caller re-records after Persist with
  /// the epoch it actually acked) the ack for (client_id, batch_seq).
  void RecordAck(const std::string& client_id, std::uint64_t batch_seq,
                 const IngestAck& ack);
  /// Total remembered acks across all clients (tests).
  std::size_t DedupEntries() const;

 private:
  /// An object's exact last fix as a checkpoint recorded it.
  struct Anchor {
    Instant t = 0;
    Point p;
    bool has_units = false;
  };
  struct ObjectState {
    TailSeries tail;
    /// Set by Ingest, cleared by a checkpoint: this object's root is
    /// stale and the next checkpoint rewrites it.
    bool dirty = false;
    /// Valid for rows < rooted_objects_.
    Anchor checkpoint;
  };
  /// One fix of the log, by row.
  struct LoggedFix {
    std::uint32_t row = 0;
    Instant t = 0;
    Point p;
  };

  /// Registers a new object row (relation tuple + tail + row map).
  Result<std::size_t> AddObject(const std::string& object_id);
  MovingPoint& TrailOf(std::size_t row) {
    return *rel_.MutableValueAs<MovingPoint>(row, std::size_t(kTrailSlot));
  }
  /// Rewrites row `row`'s mem entries from its unsealed suffix.
  void UpdateMem(std::size_t row);
  /// Blob bytes the next checkpoint would stage.
  std::size_t CheckpointBytes() const;
  std::string EncodeManifest(bool checkpoint) const;
  Status RecoverFrom(VersionedSpillStore* store);

  LiveOptions options_;
  Relation rel_;
  std::vector<ObjectState> objects_;  // row i <-> objects_[i]
  std::unordered_map<std::string, std::size_t> rows_;
  IndexSnapshot index_;

  struct ClientWindow {
    /// seq -> the ack sent for that batch, ascending (std::map so the
    /// manifest encoding — and thus the commit bytes — are
    /// deterministic, and lowest-seq eviction is begin()).
    std::map<std::uint64_t, IngestAck> acks;
    /// Recency stamp for deterministic client eviction.
    std::uint64_t last_stamp = 0;
  };
  /// Guarded by dedup_mu_: RecordAck's post-Persist fix-up runs under
  /// the Db reader lock, concurrently with another request's
  /// EncodeManifest.
  mutable std::mutex dedup_mu_;
  std::map<std::string, ClientWindow> dedup_;
  std::uint64_t dedup_stamp_ = 0;

  VersionedSpillStore* store_ = nullptr;
  bool manifest_root_exists_ = false;
  /// Rows whose root slot exists in the store (committed or staged);
  /// rows >= this stage fresh roots at the next checkpoint. Unless a
  /// checkpoint is pending, these are the rows the last checkpoint
  /// wrote, and later rows are rebuilt from the log alone.
  std::size_t rooted_objects_ = 0;
  /// Fixes absorbed since the last checkpoint, in commit order.
  std::vector<LoggedFix> log_;
  /// Log bytes committed since the last checkpoint (each commit restages
  /// the whole log) — the checkpoint rule's running cost.
  std::size_t log_restaged_bytes_ = 0;
  /// Set while a checkpoint has begun staging but not committed: its
  /// staged roots ride whatever commits next, so that commit must be a
  /// checkpoint too. Also set on attaching an empty store.
  bool checkpoint_pending_ = false;
  std::uint64_t checkpoints_ = 0;
  /// Serializes Persist against itself (writer-vs-writer); readers are
  /// never behind it.
  std::mutex persist_mu_;
};

}  // namespace ingest
}  // namespace modb

#endif  // MODB_INGEST_LIVE_RELATION_H_
