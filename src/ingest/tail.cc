#include "ingest/tail.h"

#include <string>
#include <utility>

#include "core/interval.h"

namespace modb {
namespace ingest {

Status TailSeries::Absorb(Instant t, const Point& p, MovingPoint* trail) {
  if (!has_fix_) {
    has_fix_ = true;
    last_t_ = t;
    last_p_ = p;
    return Status::OK();
  }
  if (!(t > last_t_)) {
    return Status::OutOfRange(
        "fix at t = " + std::to_string(t) +
        " is not after the object's last fix at t = " + std::to_string(last_t_));
  }

  Result<TimeInterval> iv = TimeInterval::Make(last_t_, t, true, true);
  MODB_RETURN_IF_ERROR(iv.status());
  Result<UPoint> unit = UPoint::FromEndpoints(*iv, last_p_, p);
  MODB_RETURN_IF_ERROR(unit.status());

  if (trail->IsEmpty()) {
    MODB_RETURN_IF_ERROR(trail->AppendUnit(*std::move(unit)));
  } else {
    // The current last unit is about to gain a successor: flip its
    // right bound open, matching the generator convention (interior
    // units right-open). The motion coefficients and the bounding cube
    // are both closedness-independent, so this is representation-only.
    UPoint back = trail->units().back();
    if (back.interval().right_closed()) {
      Result<TimeInterval> open =
          TimeInterval::Make(back.interval().start(), back.interval().end(),
                             back.interval().left_closed(), false);
      MODB_RETURN_IF_ERROR(open.status());
      Result<UPoint> flipped = UPoint::Make(*open, back.motion());
      MODB_RETURN_IF_ERROR(flipped.status());
      back = *std::move(flipped);
    }
    // MappingBuilder::Append's merge rule, verbatim: adjacent interval +
    // equal unit function collapse into one unit that keeps the NEW
    // unit's coefficients over the merged interval. Replicating the
    // exact rule (not just an equivalent one) is what keeps the
    // incremental trail bitwise equal to the bulk-built one.
    if (TimeInterval::Adjacent(back.interval(), unit->interval()) &&
        UPoint::FunctionEqual(back, *unit)) {
      Result<UPoint> merged = unit->WithInterval(
          TimeInterval::Merge(back.interval(), unit->interval()));
      MODB_RETURN_IF_ERROR(merged.status());
      MODB_RETURN_IF_ERROR(trail->ReplaceLastUnit(*std::move(merged)));
    } else {
      MODB_RETURN_IF_ERROR(trail->ReplaceLastUnit(std::move(back)));
      MODB_RETURN_IF_ERROR(trail->AppendUnit(*std::move(unit)));
    }
  }
  last_t_ = t;
  last_p_ = p;
  return Status::OK();
}

std::size_t TailSeries::Seal(const MovingPoint& trail) {
  if (!trail.IsEmpty()) sealed_ = trail.NumUnits() - 1;
  return sealed_;
}

Result<TailSeries> TailSeries::Resume(const MovingPoint& persisted,
                                      Instant last_t, const Point& last_p) {
  TailSeries tail;
  if (!persisted.IsEmpty()) {
    const TimeInterval& back = persisted.units().back().interval();
    if (!back.right_closed() || back.end() != last_t) {
      return Status::InvalidArgument(
          "persisted tail does not end closed at the recorded last fix (" +
          back.ToString() + " vs t = " + std::to_string(last_t) + ")");
    }
    tail.sealed_ = persisted.NumUnits() - 1;
  }
  tail.has_fix_ = true;
  tail.last_t_ = last_t;
  tail.last_p_ = last_p;
  return tail;
}

}  // namespace ingest
}  // namespace modb
