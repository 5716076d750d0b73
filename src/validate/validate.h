// Structural validators for the Section-3 carrier-set invariants — the
// constraints a value must satisfy to *be* a value of its type:
//
//   * range(α), §3.2.3: an ordered set of pairwise disjoint,
//     non-adjacent intervals.
//   * mapping(U), §3.2.4: unit intervals pairwise disjoint and in
//     ascending order, and adjacent intervals carry distinct unit
//     functions (the representation is minimal).
//   * halfsegment arrays, §4.1: strictly ascending in the ROSE total
//     order, every segment present exactly twice (once per dominating
//     endpoint).
//
// The validating factories (Mapping::Make, Line::Make, RegionBuilder)
// enforce these at construction, but the storage layer also has trusted
// paths (MakeTrusted, Region::FromParts) that skip them for speed —
// and a recovered store must not serve a value whose bytes were
// silently damaged in ways the per-page CRC cannot see (a checksummed
// page of *wrong but well-formed* bytes, a stale shadow page stitched
// into a torn commit). Recovery therefore re-checks every loaded root
// with these validators before it is served (storage/recovery.h).
//
// Every check bumps validate.checks; every rejection bumps
// validate.violations. All rejections are descriptive InvalidArgument
// statuses naming the violated invariant.

#ifndef MODB_VALIDATE_VALIDATE_H_
#define MODB_VALIDATE_VALIDATE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/range_set.h"
#include "core/status.h"
#include "obs/metrics.h"
#include "spatial/halfsegment.h"
#include "spatial/line.h"
#include "spatial/region.h"
#include "temporal/mapping.h"

namespace modb {
namespace validate {

namespace internal {

/// Counts and wraps a rejection: a descriptive InvalidArgument that
/// also bumps validate.violations.
Status Violation(std::string message);

/// Bumps validate.checks (one per validator invocation).
void RecordCheck();

}  // namespace internal

/// range(α) invariants (§3.2.3): intervals in ascending order, pairwise
/// disjoint, and non-adjacent (the canonical, minimal representation).
template <typename T>
Status ValidateRangeSet(const RangeSet<T>& r) {
  internal::RecordCheck();
  const std::vector<Interval<T>>& ivs = r.intervals();
  for (std::size_t i = 0; i + 1 < ivs.size(); ++i) {
    const Interval<T>& u = ivs[i];
    const Interval<T>& v = ivs[i + 1];
    if (!Interval<T>::Disjoint(u, v)) {
      return internal::Violation("range intervals overlap: " + u.ToString() +
                                 " and " + v.ToString());
    }
    if (!Interval<T>::RDisjoint(u, v)) {
      return internal::Violation("range intervals out of order: " +
                                 u.ToString() + " before " + v.ToString());
    }
    if (Interval<T>::Adjacent(u, v)) {
      return internal::Violation(
          "range intervals adjacent (not canonical/minimal): " +
          u.ToString() + " and " + v.ToString());
    }
  }
  return Status::OK();
}

/// mapping(U) invariants (§3.2.4): unit intervals in ascending order and
/// pairwise disjoint; adjacent intervals must carry distinct unit
/// functions (otherwise the representation is not minimal).
template <typename U>
Status ValidateMapping(const Mapping<U>& m) {
  internal::RecordCheck();
  const std::vector<U>& units = m.units();
  for (std::size_t i = 0; i + 1 < units.size(); ++i) {
    const TimeInterval& u = units[i].interval();
    const TimeInterval& v = units[i + 1].interval();
    if (!TimeInterval::Disjoint(u, v)) {
      return internal::Violation("mapping unit intervals overlap: " +
                                 u.ToString() + " and " + v.ToString());
    }
    if (!TimeInterval::RDisjoint(u, v)) {
      return internal::Violation("mapping units out of time order: " +
                                 u.ToString() + " before " + v.ToString());
    }
    if (TimeInterval::Adjacent(u, v) &&
        U::FunctionEqual(units[i], units[i + 1])) {
      return internal::Violation(
          "adjacent mapping units with equal unit function (not minimal): " +
          u.ToString() + " and " + v.ToString());
    }
  }
  return Status::OK();
}

/// Halfsegment-array invariants (§4.1): strictly ascending in the ROSE
/// total order, and each underlying segment stored exactly twice — once
/// left-dominating, once right-dominating.
Status ValidateHalfSegmentOrder(const std::vector<HalfSegment>& hs);

/// Line invariants: segments strictly ascending and unique (the sorted
/// array the halfsegment order is derived from).
Status ValidateLine(const Line& line);

/// Region invariants: the stored halfsegment array is ROSE-ordered and
/// paired, and every cycle/face/next-in-cycle link index is in range.
Status ValidateRegion(const Region& region);

/// Callable adapter recovery's decode-then-validate pass dispatches the
/// moving types through: validates the mapping invariants of any moving
/// type's sliced representation.
struct MappingValidator {
  template <typename U>
  Status operator()(const Mapping<U>& m) const {
    return ValidateMapping(m);
  }
};

}  // namespace validate
}  // namespace modb

#endif  // MODB_VALIDATE_VALIDATE_H_
