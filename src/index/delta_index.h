// LSM-style layering over the flattened SoA R-tree (index/rtree3d.h):
// RTree3D::BulkLoad is static, so a live relation cannot afford to
// rebuild the whole tree per ingest batch. Instead the index is kept as
// three layers queried as a union —
//
//   base   large immutable STR-bulk-loaded tree (all long-sealed units)
//   delta  small STR-tiled run over recently sealed units, rebuilt
//          cheaply at each seal event and periodically merged into base
//   mem    the unsealed tail units, a plain entry array scanned linearly
//          (bounded by objects x seal threshold, so a scan beats a tree)
//
// Correctness rests on a set-union argument, not on tree shape: the
// index-join probe collects candidate ids across layers, deduplicating
// them as they arrive, and sorts them (exec/pipeline.cc) before
// evaluating the exact predicate in ascending id order. Two indexes
// over the same entry set therefore produce byte-identical join output
// no matter how the entries are partitioned into layers — which is why
// a bulk-built single tree and an incrementally grown base+delta+mem
// stack are interchangeable, the property the differential tests pin
// down.
//
// Concurrency: a snapshot is mutated only under the owning Db's writer
// lock; queries run under the reader lock and see a frozen layer stack.
// Merges are prepared off-lock (PrepareMerge copies the entries, the
// caller bulk-loads without holding any lock) and applied under the
// writer lock only if no seal intervened (generation check) — the LSM
// background-merge protocol without ever blocking readers on a build.

#ifndef MODB_INDEX_DELTA_INDEX_H_
#define MODB_INDEX_DELTA_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "index/rtree3d.h"
#include "spatial/bbox.h"

namespace modb {

/// A borrowed, read-only view of the layer stack: what the exec engine
/// probes. Either tree pointer may be null (layer empty); `mem` is a
/// borrowed span. Everything pointed at must outlive the view — in the
/// serving path that is guaranteed by the Db reader lock.
struct IndexLayersView {
  const RTree3D* base = nullptr;
  const RTree3D* delta = nullptr;
  const RTree3D::Entry* mem = nullptr;
  std::size_t mem_count = 0;
  /// Union of the layer bounds; empty cube when all layers are empty.
  /// Callers prefilter probe cubes against it exactly as they would
  /// against a single tree's Bounds().
  Cube bounds;

  /// Wraps a single classic tree (the batch-built path) so one probe
  /// implementation serves both worlds.
  static IndexLayersView Single(const RTree3D* tree);

  /// Builds a view over an explicit layer stack, computing the bounds
  /// union.
  static IndexLayersView Over(const RTree3D* base, const RTree3D* delta,
                              const RTree3D::Entry* mem,
                              std::size_t mem_count);

  const Cube& Bounds() const { return bounds; }

  bool HasEntries() const {
    return (base != nullptr && base->NumEntries() > 0) ||
           (delta != nullptr && delta->NumEntries() > 0) || mem_count > 0;
  }

  /// Visits every entry id whose cube intersects `query`, across all
  /// layers. Ids may repeat across and within layers — callers dedupe,
  /// exactly as they already must for a single tree (one id per unit).
  template <typename Fn>
  void QueryVisit(const Cube& query, Fn&& fn) const {
    if (base != nullptr) base->QueryVisit(query, fn);
    if (delta != nullptr) delta->QueryVisit(query, fn);
    VisitMem(query, fn);
  }

  /// QueryVisit that adds the trees' traversal work to `*counters`
  /// instead of flushing it per layer and query; the caller flushes.
  template <typename Fn>
  void QueryVisit(const Cube& query, Fn&& fn,
                  RTree3D::QueryCounters* counters) const {
    if (base != nullptr) base->QueryVisit(query, fn, counters);
    if (delta != nullptr) delta->QueryVisit(query, fn, counters);
    VisitMem(query, fn);
  }

 private:
  template <typename Fn>
  void VisitMem(const Cube& query, Fn& fn) const {
    for (std::size_t i = 0; i < mem_count; ++i) {
      if (Cube::Intersect(mem[i].cube, query)) fn(mem[i].id);
    }
  }
};

/// A prepared base+delta compaction: the entry union to bulk-load and
/// the generation it was prepared against.
struct MergePlan {
  std::vector<RTree3D::Entry> entries;
  std::uint64_t generation = 0;
};

/// The owning layer stack of one live relation's moving-point index.
class IndexSnapshot {
 public:
  IndexSnapshot() = default;

  IndexLayersView View() const {
    return IndexLayersView::Over(&base_, &delta_, mem_.data(), mem_.size());
  }

  /// Replaces object `id`'s mem entries (its unsealed tail units) with
  /// `entries`, whose ids must all be `id`. Costs O(old + new entries of
  /// this object): the live path calls it for the rows a batch touched
  /// only. Entry order inside mem is unspecified — probes dedupe by id.
  void SetMemRow(std::int64_t id, const std::vector<RTree3D::Entry>& entries);

  /// Appends newly sealed units to the delta run and re-tiles it (STR
  /// bulk load over the accumulated run — small by construction).
  void AppendToDelta(const std::vector<RTree3D::Entry>& sealed, int fanout);

  /// Snapshot of base+delta for an off-lock merge build; nullopt when
  /// the delta run is empty (nothing to compact).
  std::optional<MergePlan> PrepareMerge() const;

  /// Installs an off-lock-built merged tree. Returns false (and
  /// discards) when a seal advanced the generation since PrepareMerge —
  /// the merge must be re-prepared.
  bool ApplyMerge(const MergePlan& plan, RTree3D merged);

  /// Inline compaction under the writer lock (attached-store commit
  /// path and tests).
  void MergeInline(int fanout);

  /// Rebuilds base from scratch over `entries` and clears delta/mem
  /// (recovery: the reopened state is fully compacted).
  void ResetBase(std::vector<RTree3D::Entry> entries, int fanout);

  std::size_t MemEntries() const { return mem_.size(); }
  std::size_t DeltaEntries() const { return delta_entries_.size(); }
  std::size_t BaseEntries() const { return base_entries_.size(); }
  std::uint64_t generation() const { return generation_; }
  std::uint64_t merges() const { return merges_; }

 private:
  RTree3D base_;
  std::vector<RTree3D::Entry> base_entries_;
  RTree3D delta_;
  std::vector<RTree3D::Entry> delta_entries_;
  std::vector<RTree3D::Entry> mem_;
  /// mem_slots_[id] = the positions in mem_ holding object id's entries
  /// (ids are dense live-relation rows).
  std::vector<std::vector<std::size_t>> mem_slots_;
  /// Bumped by every delta/base mutation; guards ApplyMerge.
  std::uint64_t generation_ = 0;
  std::uint64_t merges_ = 0;
};

}  // namespace modb

#endif  // MODB_INDEX_DELTA_INDEX_H_
