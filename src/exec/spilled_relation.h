// A relation whose moving-point attribute lives on checksummed pages
// (storage/spill.h) instead of RAM, plus the per-value statistics the
// planner's pushdown rule consults. Spilling records, for every value,
// its deftime bounds, bounding cube, and unit count — a 48-byte stats
// record that stays resident. A pipelined scan with a pushed-down time
// window tests the stats record first and only faults qualifying
// values into the BufferPool: tuples that provably cannot satisfy the
// predicate are skipped without a single page read.

#ifndef MODB_EXEC_SPILLED_RELATION_H_
#define MODB_EXEC_SPILLED_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/instant.h"
#include "core/status.h"
#include "db/relation.h"
#include "spatial/bbox.h"
#include "storage/buffer_pool.h"
#include "storage/spill.h"

namespace modb {
namespace exec {

/// Resident statistics for one spilled moving-point value, recorded at
/// spill time. Enough for the planner's conservative pushdown tests
/// without faulting the value in.
struct SpilledStats {
  /// Deftime bounds: [min_start, max_end] contains every unit interval.
  /// An empty mapping keeps the inverted defaults (min_start > max_end).
  Instant min_start = std::numeric_limits<Instant>::infinity();
  Instant max_end = -std::numeric_limits<Instant>::infinity();
  /// Union of the unit bounding cubes (IsEmpty() for an empty mapping).
  Cube bbox;
  std::uint32_t num_units = 0;

  bool IsEmpty() const { return num_units == 0; }

  /// Conservative test: can any unit interval intersect the closed
  /// window [t0, t1]? A false here proves `present` over the window is
  /// false (and so is any predicate that implies it); a true decides
  /// nothing — the exact predicate still runs on the loaded value.
  bool MayIntersectWindow(Instant t0, Instant t1) const {
    return num_units > 0 && !(max_end < t0) && !(t1 < min_start);
  }
};

/// A relation with one moving-point attribute spilled to pages. The
/// skeleton keeps every other attribute in RAM (the spilled slot holds
/// an empty placeholder); handles are load-on-demand Spilled<> values
/// that read through the given BufferPool.
///
/// Thread-safety: concurrent MaterializeTuple calls on *distinct* rows
/// are safe (the BufferPool serializes page I/O internally; each row
/// owns its handle). The engine partitions rows into disjoint morsels,
/// so a pipeline scan never touches one row from two workers.
class SpilledRelation {
 public:
  /// Spills attribute `attr` (must be kMovingPoint) of every tuple of
  /// `rel` to `device`, recording per-value stats. Reads at query time
  /// go through `pool`, which must be backed by `device`.
  static Result<SpilledRelation> Spill(const Relation& rel, int attr,
                                       PageDevice* device, BufferPool* pool);

  const std::string& name() const { return skeleton_.name(); }
  const Schema& schema() const { return skeleton_.schema(); }
  std::size_t NumTuples() const { return skeleton_.NumTuples(); }
  int spilled_attr() const { return attr_; }
  const SpilledStats& stats(std::size_t i) const { return stats_[i]; }

  /// Whether row i's spilled value has been faulted in (decoded and
  /// memoized). The pushdown tests assert this stays false for rows a
  /// scan skipped.
  bool IsLoaded(std::size_t i) const { return handles_[i].IsLoaded(); }

  /// Row i with the spilled value loaded (faulting its pages through
  /// the pool on first touch) and substituted into the spilled slot.
  /// The value is memoized on the handle, so repeated materialization
  /// reads no pages; the copy into the tuple shares the memoized unit
  /// array.
  Result<Tuple> MaterializeTuple(std::size_t i);

  /// Readahead hint for row i's page run (no-op once the row is
  /// loaded). Scans call this for every qualifying row of a morsel
  /// before materializing any of them, so cold sequential faults
  /// overlap with decode/predicate compute.
  void PrefetchRow(std::size_t i) const {
    if (handles_[i].IsLoaded()) return;
    const SpillLocator& loc = handles_[i].locator();
    pool_->Prefetch(loc.first_page, loc.num_pages);
  }

  /// The fully in-memory relation (loads every value): the legacy-path
  /// input the differential tests compare pipelined spilled scans
  /// against. Name and schema match the spilled source, so results are
  /// byte-identical.
  Result<Relation> MaterializeAll();

 private:
  SpilledRelation(Relation skeleton, int attr, BufferPool* pool,
                  std::vector<Spilled<MovingPoint>> handles,
                  std::vector<SpilledStats> stats)
      : skeleton_(std::move(skeleton)),
        attr_(attr),
        pool_(pool),
        handles_(std::move(handles)),
        stats_(std::move(stats)) {}

  Relation skeleton_;
  int attr_ = -1;
  BufferPool* pool_ = nullptr;
  std::vector<Spilled<MovingPoint>> handles_;
  std::vector<SpilledStats> stats_;
};

}  // namespace exec
}  // namespace modb

#endif  // MODB_EXEC_SPILLED_RELATION_H_
