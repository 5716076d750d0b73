// The live append path for moving points (ROADMAP item 1): a per-object
// mutable *tail* of upoint units that absorbs GPS fixes one at a time
// and stays unit-for-unit BITWISE identical to bulk-building the same
// fix sequence through MappingBuilder with the generator slicing
// convention (trajectory_gen.cc): interior units right-open, the last
// unit right-closed, coefficients from UPoint::FromEndpoints.
//
// Why bitwise identity is achievable incrementally:
//   * FromEndpoints derives the motion coefficients from the interval's
//     numeric endpoints and the two positions only — interval
//     *closedness* never enters the arithmetic. So re-deriving a unit
//     after flipping its right bound open (because a successor arrived)
//     cannot change its coefficients.
//   * MappingBuilder::Append's merge rule (adjacent intervals + equal
//     motion ⇒ one unit carrying the NEW unit's coefficients over the
//     merged interval) is a pure function of the previous unit and the
//     appended one; Absorb replicates it verbatim.
//   * A unit's BoundingCube is also closedness-independent, so a right
//     bound flip never moves an index entry.
//
// Consequence (the identity theorem the differential tests enforce):
// after absorbing fixes (t_0,p_0)..(t_k,p_k) in order, the trail equals —
// byte for byte — what MappingBuilder produces for the unit sequence
//   FromEndpoints([t_i, t_{i+1}) right-open except the last, p_i, p_{i+1})
// and therefore every query over the incrementally built state returns
// byte-identical results to the batch-built one.
//
// One home per unit: a TailSeries holds no units. They live in the
// object's trajectory (a MovingPoint — in a live relation, the trail
// attribute itself), which Absorb extends in place through
// Mapping::AppendUnit / ReplaceLastUnit, so a fix costs O(1) whatever
// the history. The tail keeps only the metadata the next fix needs: the
// exact last fix (the anchor) and the seal frontier.
//
// Sealing: sealed() is the index-layer frontier — units below it are
// frozen (Absorb only ever mutates the LAST unit: a right-bound flip,
// which keeps the cube, or a motion-equal merge). Seal() advances the
// frontier to size-1, always keeping the newest unit "hot", so sealed
// units can be handed to an immutable index run and never touched again.

#ifndef MODB_INGEST_TAIL_H_
#define MODB_INGEST_TAIL_H_

#include <cstddef>

#include "core/status.h"
#include "spatial/point.h"
#include "temporal/moving.h"
#include "temporal/upoint.h"

namespace modb {
namespace ingest {

class TailSeries {
 public:
  TailSeries() = default;

  /// Absorbs one fix into `trail`, which must hold exactly the units
  /// this tail's earlier Absorb calls built (or the mapping it was
  /// Resumed from). The first fix only records an anchor (a linear unit
  /// needs two observations); every later fix must be strictly after
  /// the previous one — a stale or duplicate timestamp is OutOfRange
  /// and leaves tail and trail untouched. An accepted fix replaces the
  /// trail's last unit and/or appends one, in place.
  Status Absorb(Instant t, const Point& p, MovingPoint* trail);

  bool has_fix() const { return has_fix_; }
  Instant last_time() const { return last_t_; }
  const Point& last_point() const { return last_p_; }

  /// Frontier of immutable units: the trail's units [0, sealed()) will
  /// never change again. Always < the trail's unit count while it is
  /// non-empty.
  std::size_t sealed() const { return sealed_; }

  /// Advances the frontier to trail.NumUnits() - 1 (the newest unit
  /// stays mutable — the next Absorb may flip or merge into it).
  /// Returns the new frontier.
  std::size_t Seal(const MovingPoint& trail);

  /// The tail of a persisted trajectory plus the exact last fix
  /// (persisted separately: recomputing the anchor from the motion
  /// coefficients would round, breaking bitwise resume). Every persisted
  /// unit is immediately below the sealed frontier except the last; the
  /// caller keeps `persisted` as the trail later Absorb calls extend.
  static Result<TailSeries> Resume(const MovingPoint& persisted, Instant last_t,
                                   const Point& last_p);

 private:
  std::size_t sealed_ = 0;
  bool has_fix_ = false;
  Instant last_t_ = 0;
  Point last_p_;
};

}  // namespace ingest
}  // namespace modb

#endif  // MODB_INGEST_TAIL_H_
