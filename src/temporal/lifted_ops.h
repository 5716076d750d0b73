// Temporally lifted operations ([GBE+98] Section 2; paper Sections 2 and
// 5): operations on non-temporal types made applicable to moving types,
// plus the projection/interaction operations of the temporal algebra.
//
// All binary operations follow the generic scheme of Section 5.2: compute
// the refinement partition, solve the problem per unit pair, concatenate
// (merging value-equal adjacent units).

#ifndef MODB_TEMPORAL_LIFTED_OPS_H_
#define MODB_TEMPORAL_LIFTED_OPS_H_

#include <cstdint>

#include "core/range_set.h"
#include "spatial/line.h"
#include "spatial/region.h"
#include "temporal/moving.h"

namespace modb {

// ---------------------------------------------------------------------------
// moving(bool) algebra.
// ---------------------------------------------------------------------------

/// Logical negation, lifted.
MovingBool Not(const MovingBool& b);
/// Logical and/or, lifted; defined where both operands are defined.
Result<MovingBool> And(const MovingBool& a, const MovingBool& b);
Result<MovingBool> Or(const MovingBool& a, const MovingBool& b);
/// The time periods during which the moving bool is true (the `when`
/// projection used to restrict other moving values).
Periods WhenTrue(const MovingBool& b);

// ---------------------------------------------------------------------------
// moving(real) operations.
// ---------------------------------------------------------------------------

/// Lifted Euclidean distance between two moving points; each refinement
/// unit yields one ureal with the root flag set (the paper's motivation
/// for the √quadratic class, Section 3.2.5).
Result<MovingReal> LiftedDistance(const MovingPoint& a, const MovingPoint& b);
/// Lifted distance between a moving and a fixed point.
Result<MovingReal> LiftedDistance(const MovingPoint& a, const Point& p);

/// Lifted distance between a moving point and a moving point *set*: the
/// pointwise minimum over the members. Exact: within a refinement unit
/// the minimum switches members only where two squared distances (both
/// quadratics) are equal, so the result is piecewise √quadratic.
Result<MovingReal> LiftedDistance(const MovingPoint& a,
                                  const MovingPoints& b);

/// Lifted inside of a moving point in a moving point set: true exactly
/// at the instants the point coincides with some member.
Result<MovingBool> Inside(const MovingPoint& a, const MovingPoints& b);

/// Global minimum/maximum of a moving real (over its deftime).
/// Undefined (returns empty optional) for the empty moving real.
std::optional<double> MinValue(const MovingReal& m);
std::optional<double> MaxValue(const MovingReal& m);

/// atmin/atmax: the moving real restricted to the times where it takes
/// its global minimum/maximum value (Section 2).
Result<MovingReal> AtMin(const MovingReal& m);
Result<MovingReal> AtMax(const MovingReal& m);

enum class CmpOp { kLt, kLe, kGt, kGe, kEq, kNe };

/// Work counters of EverWithin, summed by the caller (the join stage
/// reports them in its ExecStats).
struct EverWithinStats {
  /// Refinement intervals on which both moving points are defined that
  /// the sweep examined.
  std::uint64_t intervals = 0;
  /// Pairs too close to call that the composed operators decided.
  std::uint64_t fallbacks = 0;
};

/// Q2's join predicate (Section 2), "were a and b ever closer than d":
///   val(initial(atmin(distance(a, b)))) < d.
/// Returns exactly what LiftedDistance → AtMin → Initial().val() < d
/// returns, without building either moving real. One merge sweep over
/// the two unit arrays walks the refinement partition (Section 5.2,
/// Figure 8) in place, merges value-equal adjacent units as the
/// MappingBuilder would, and takes each unit's closed-form minimum of
/// the squared-distance quadratic at its endpoints and vertex. A pair
/// whose minimum lies within the core/real.h tolerance of d, or whose
/// minimum sits on an open endpoint that a neighbouring unit does not
/// continue, is handed to the composed operators (counted in
/// `stats->fallbacks`). d <= 0 and NaN give false. Allocates nothing
/// unless it falls back.
bool EverWithin(const MovingPoint& a, const MovingPoint& b, double d,
                EverWithinStats* stats = nullptr);

/// Lifted comparison of a moving real against a constant, e.g.
/// distance(p, q) < 0.5.
Result<MovingBool> Compare(const MovingReal& m, double c, CmpOp op);

/// Lifted comparison of two moving reals. Supported exactly when at most
/// one operand per refinement unit carries the root flag (the difference
/// must reduce to sign analysis of a quadratic); returns
/// kUnimplemented otherwise.
Result<MovingBool> Compare(const MovingReal& a, const MovingReal& b,
                           CmpOp op);

/// Lifted sum/difference of moving reals (non-root units only; the class
/// is not closed under adding square roots — mirrors the paper's
/// discussion of closure limits).
Result<MovingReal> Plus(const MovingReal& a, const MovingReal& b);
Result<MovingReal> Minus(const MovingReal& a, const MovingReal& b);

/// rangevalues: projection of a moving real onto its value range.
RealRange RangeValues(const MovingReal& m);

/// at: the moving real restricted to the times its value equals v.
Result<MovingReal> At(const MovingReal& m, double v);

/// at with a range argument: restriction to the times the value lies in
/// the (closed) interval [lo, hi].
Result<MovingReal> AtRange(const MovingReal& m, double lo, double hi);

/// passes: does the moving real ever take the value v?
bool Passes(const MovingReal& m, double v);

// ---------------------------------------------------------------------------
// moving(point) operations.
// ---------------------------------------------------------------------------

/// trajectory: the 1-dimensional parts of the projection of a moving
/// point into the plane (Section 2). Stationary episodes contribute no
/// segments (use Locations for the 0-dimensional parts).
Line Trajectory(const MovingPoint& mp);

/// The 0-dimensional projection parts: positions of stationary units.
Points Locations(const MovingPoint& mp);

/// speed: |velocity|, constant per unit.
Result<MovingReal> Speed(const MovingPoint& mp);

/// mdirection: heading in degrees [0, 360), constant per unit; stationary
/// units are skipped (undefined direction).
Result<MovingReal> MDirection(const MovingPoint& mp);

/// velocity: the derivative of a upoint is representable (constant per
/// unit); returned as a moving point whose position encodes the velocity
/// vector.
Result<MovingPoint> Velocity(const MovingPoint& mp);

/// passes: does the moving point ever run through p?
bool Passes(const MovingPoint& mp, const Point& p);

/// at: the moving point restricted to the times it is located at p.
Result<MovingPoint> At(const MovingPoint& mp, const Point& p);

/// Lifted intersection with a line value: the moving point restricted to
/// the times it lies on `l` — isolated crossing instants, plus whole
/// intervals when a unit's motion rides along a segment of the line.
Result<MovingPoint> Intersection(const MovingPoint& mp, const Line& l);

/// Lifted inside against a line value (derived from Intersection): true
/// exactly while the moving point lies on the line; defined on the whole
/// deftime of mp.
Result<MovingBool> Inside(const MovingPoint& mp, const Line& l);

/// Lifted equality of two moving points.
Result<MovingBool> Equals(const MovingPoint& a, const MovingPoint& b);

// ---------------------------------------------------------------------------
// inside (Section 5.2).
// ---------------------------------------------------------------------------

/// Options for the moving-point/moving-region inside algorithm.
struct InsideOptions {
  /// Use the per-unit-pair 3D bounding-cube filter (the paper's O(n+m)
  /// fast path when the objects are far apart).
  bool use_bounding_boxes = true;
};

/// inside(mp, mr): when was the moving point inside the moving region?
/// Implements algorithm `inside` + `upoint_uregion_inside` of Section
/// 5.2: refinement partition, per pair intersection of the 3D line with
/// the moving-segment trapeziums, alternation of boolean units.
/// Result defined wherever both arguments are defined (a deliberate
/// strengthening of the paper's pseudo-code, which returns no units for
/// bounding-box-disjoint pairs).
Result<MovingBool> Inside(const MovingPoint& mp, const MovingRegion& mr,
                          const InsideOptions& options = {});

/// inside against a fixed region (region treated as static msegs).
Result<MovingBool> Inside(const MovingPoint& mp, const Region& r);

/// inside of a fixed point in a moving region: when does the region cover
/// p? (The dual of the Section 5.2 algorithm with a stationary 3D line.)
Result<MovingBool> Inside(const Point& p, const MovingRegion& mr);

/// passes lifted to regions: does the moving region ever cover p?
bool Passes(const MovingRegion& mr, const Point& p);

/// at: the moving point restricted to the times it is inside the moving
/// region (derived: atperiods(mp, whentrue(inside(mp, mr)))).
Result<MovingPoint> At(const MovingPoint& mp, const MovingRegion& mr);
Result<MovingPoint> At(const MovingPoint& mp, const Region& r);

}  // namespace modb

#endif  // MODB_TEMPORAL_LIFTED_OPS_H_
