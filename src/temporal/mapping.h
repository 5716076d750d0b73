// The mapping(α) type constructor (Section 3.2.4) — the sliced
// representation. A mapping is a finite set of temporal units with
//   (i)  equal intervals ⇒ equal unit functions,
//   (ii) distinct intervals ⇒ disjoint, and adjacent ⇒ distinct unit
//        functions,
// stored as an array of unit records ordered by time interval (Section
// 4.3, Figure 7). Units are located by binary search (the O(log n) step
// of the atinstant algorithm, Section 5.1). Make validates every
// adjacent pair; the in-place growth of a live trail (AppendUnit,
// ReplaceLastUnit) validates only the new unit against its predecessor,
// which keeps the constraints by induction at O(1) per unit.
//
// The unit array is a shared database array (Section 4, core/cow_array.h):
// copying a mapping — into a join row, a query result, a decoded reply —
// bumps a count instead of copying units. A live trail is the only owner
// of its array at rest, so AppendUnit and ReplaceLastUnit write in place;
// while a copy is alive they clone the array first, and the copy keeps
// the units it was taken with.
//
// A unit type U must provide:
//   using ValueType = ...;
//   const TimeInterval& interval() const;
//   ValueType ValueAt(Instant) const;
//   static bool FunctionEqual(const U&, const U&);
//   Result<U> WithInterval(TimeInterval) const;

#ifndef MODB_TEMPORAL_MAPPING_H_
#define MODB_TEMPORAL_MAPPING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cow_array.h"
#include "core/interval.h"
#include "core/intime.h"
#include "core/range_set.h"
#include "core/status.h"

namespace modb {

template <typename U>
class Mapping {
 public:
  using UnitType = U;
  using ValueType = typename U::ValueType;

  /// The empty mapping (a moving value that is nowhere defined).
  Mapping() = default;

  /// Validating factory: enforces the Mapping(S) constraints. Units
  /// already in time order (a decoded trail, a builder's output) are
  /// checked in place; only out-of-order input is sorted first.
  static Result<Mapping> Make(std::vector<U> units) {
    auto by_interval = [](const U& a, const U& b) {
      return a.interval() < b.interval();
    };
    if (!std::is_sorted(units.begin(), units.end(), by_interval)) {
      std::sort(units.begin(), units.end(), by_interval);
    }
    for (std::size_t i = 0; i + 1 < units.size(); ++i) {
      Status pair = CheckPair(units[i], units[i + 1]);
      if (!pair.ok()) return pair;
    }
    return Mapping(std::move(units));
  }

  /// Appends `unit` in place — the O(1) `concat` of Section 5.2 (the
  /// live-ingest path). `unit` must start after the last unit and pass
  /// the pair test Make applies to every adjacent pair; the prefix was
  /// already valid, so the whole mapping stays valid by induction. On
  /// error the mapping is unchanged.
  Status AppendUnit(U unit) {
    if (!IsEmpty()) {
      Status next = CheckSuccessor(units().back(), unit);
      if (!next.ok()) return next;
    }
    units_.Mutable().push_back(std::move(unit));
    return Status::OK();
  }

  /// Replaces the last unit in place (the live path's right-bound flip
  /// or merge into the newest unit), checked against its predecessor
  /// only, exactly as AppendUnit checks. On error the mapping is
  /// unchanged.
  Status ReplaceLastUnit(U unit) {
    const std::vector<U>& us = units();
    if (us.empty()) {
      return Status::FailedPrecondition("no last unit to replace");
    }
    if (us.size() > 1) {
      Status next = CheckSuccessor(us[us.size() - 2], unit);
      if (!next.ok()) return next;
    }
    units_.Mutable().back() = std::move(unit);
    return Status::OK();
  }

  /// Non-validating factory for the storage layer: `units` must already
  /// be sorted and satisfy the Mapping(S) constraints.
  static Mapping MakeTrusted(std::vector<U> units) {
    return Mapping(std::move(units));
  }

  bool IsEmpty() const { return units().empty(); }
  std::size_t NumUnits() const { return units().size(); }
  /// The unit array. Copies of a mapping return the same vector until
  /// one of them is written, so `&units()` identifies a shared array.
  const std::vector<U>& units() const { return units_.get(); }
  const U& unit(std::size_t i) const { return units()[i]; }

  /// Binary search for the unit whose interval contains t (the first step
  /// of the atinstant algorithm of Section 5.1). O(log n) over the unit
  /// records.
  std::optional<std::size_t> FindUnit(Instant t) const {
    const std::vector<U>& us = units();
    auto it = std::upper_bound(
        us.begin(), us.end(), t, [](Instant v, const U& u) {
          return v < u.interval().start();
        });
    if (it == us.begin()) return std::nullopt;
    std::size_t idx = std::size_t(std::distance(us.begin(), it)) - 1;
    if (us[idx].interval().Contains(t)) return idx;
    // t may coincide with the left-open start of unit idx while the
    // previous unit ends (closed) exactly there.
    if (idx > 0 && us[idx - 1].interval().Contains(t)) return idx - 1;
    return std::nullopt;
  }

  /// Linear-scan variant (the baseline against which bench_atinstant
  /// demonstrates the O(log n) claim).
  std::optional<std::size_t> FindUnitLinear(Instant t) const {
    const std::vector<U>& us = units();
    for (std::size_t i = 0; i < us.size(); ++i) {
      if (us[i].interval().Contains(t)) return i;
      if (us[i].interval().start() > t) break;
    }
    return std::nullopt;
  }

  /// atinstant: the value at time t, or an undefined Intime.
  Intime<ValueType> AtInstant(Instant t) const {
    std::optional<std::size_t> idx = FindUnit(t);
    if (!idx) return Intime<ValueType>::Undefined();
    return Intime<ValueType>(t, unit(*idx).ValueAt(t));
  }

  /// present: is the moving value defined at t?
  bool Present(Instant t) const { return FindUnit(t).has_value(); }

  /// present lifted to periods: defined at some instant of the periods?
  /// Two-pointer merge over the two sorted interval sequences, O(n + m)
  /// (Section 5.2).
  bool Present(const Periods& periods) const {
    const std::vector<U>& us = units();
    const std::vector<TimeInterval>& ivs = periods.intervals();
    std::size_t i = 0, j = 0;
    while (i < us.size() && j < ivs.size()) {
      const TimeInterval& u = us[i].interval();
      const TimeInterval& v = ivs[j];
      if (TimeInterval::RDisjoint(u, v)) {
        ++i;
      } else if (TimeInterval::RDisjoint(v, u)) {
        ++j;
      } else {
        return true;
      }
    }
    return false;
  }

  /// deftime: the projection onto the time domain.
  Periods DefTime() const {
    const std::vector<U>& us = units();
    std::vector<TimeInterval> ivs;
    ivs.reserve(us.size());
    for (const U& u : us) ivs.push_back(u.interval());
    return Periods::FromIntervals(std::move(ivs));
  }

  /// atperiods: restriction of the moving value to the given periods.
  /// Two-pointer merge over the sorted unit and period sequences,
  /// O(n + m + output) (Section 5.2).
  Result<Mapping> AtPeriods(const Periods& periods) const {
    const std::vector<U>& us = units();
    const std::vector<TimeInterval>& ivs = periods.intervals();
    std::vector<U> out;
    std::size_t i = 0, j = 0;
    while (i < us.size() && j < ivs.size()) {
      const TimeInterval& u = us[i].interval();
      const TimeInterval& v = ivs[j];
      if (TimeInterval::RDisjoint(u, v)) {
        ++i;
        continue;
      }
      if (TimeInterval::RDisjoint(v, u)) {
        ++j;
        continue;
      }
      if (auto inter = TimeInterval::Intersect(u, v)) {
        Result<U> piece = us[i].WithInterval(*inter);
        if (!piece.ok()) return piece.status();
        out.push_back(std::move(*piece));
      }
      // Advance the side whose interval ends first; the other may still
      // overlap what follows.
      if (u.end() < v.end() ||
          (u.end() == v.end() && !u.right_closed())) {
        ++i;
      } else {
        ++j;
      }
    }
    return Make(std::move(out));
  }

  /// initial: the (instant, value) pair at the earliest defined instant.
  Intime<ValueType> Initial() const {
    if (IsEmpty()) return Intime<ValueType>::Undefined();
    const U& u = units().front();
    return Intime<ValueType>(u.interval().start(),
                             u.ValueAt(u.interval().start()));
  }

  /// final: the (instant, value) pair at the latest defined instant.
  Intime<ValueType> Final() const {
    if (IsEmpty()) return Intime<ValueType>::Undefined();
    const U& u = units().back();
    return Intime<ValueType>(u.interval().end(), u.ValueAt(u.interval().end()));
  }

  /// Total time span covered.
  double TotalDuration() const {
    double d = 0;
    for (const U& u : units()) d += Duration(u.interval());
    return d;
  }

 private:
  explicit Mapping(std::vector<U> sorted_units)
      : units_(std::move(sorted_units)) {}

  /// CheckPair for a unit placed after `prev` without Make's sort: it
  /// must also sort after `prev`.
  static Status CheckSuccessor(const U& prev, const U& next) {
    if (!(prev.interval() < next.interval())) {
      return Status::InvalidArgument(
          "mapping unit out of time order: " + next.interval().ToString() +
          " after " + prev.interval().ToString());
    }
    return CheckPair(prev, next);
  }

  /// The Mapping(S) test for two units adjacent in time order: disjoint,
  /// and not mergeable (adjacent intervals need distinct functions).
  static Status CheckPair(const U& prev, const U& next) {
    const TimeInterval& u = prev.interval();
    const TimeInterval& v = next.interval();
    if (!TimeInterval::Disjoint(u, v)) {
      return Status::InvalidArgument("mapping units overlap in time: " +
                                     u.ToString() + " and " + v.ToString());
    }
    if (TimeInterval::Adjacent(u, v) && U::FunctionEqual(prev, next)) {
      return Status::InvalidArgument(
          "adjacent mapping units with equal unit function (not minimal): " +
          u.ToString() + " and " + v.ToString());
    }
    return Status::OK();
  }

  CowArray<U> units_;
};

/// Builder that assembles a mapping unit by unit, merging units with
/// adjacent intervals and equal unit functions (keeping the
/// representation minimal, as `concat` in Section 5.2 does in O(1) per
/// append). Appends must be in increasing time order.
template <typename U>
class MappingBuilder {
 public:
  /// Appends a unit; merges with the previous one when the intervals are
  /// adjacent and the unit functions equal.
  Status Append(U unit) {
    if (!units_.empty()) {
      const TimeInterval& prev = units_.back().interval();
      const TimeInterval& cur = unit.interval();
      if (!TimeInterval::Disjoint(prev, cur)) {
        return Status::InvalidArgument(
            "units appended out of order or overlapping: " + prev.ToString() +
            " then " + cur.ToString());
      }
      if (!TimeInterval::RDisjoint(prev, cur)) {
        return Status::InvalidArgument("units appended out of time order");
      }
      if (TimeInterval::Adjacent(prev, cur) &&
          U::FunctionEqual(units_.back(), unit)) {
        TimeInterval merged = TimeInterval::Merge(prev, cur);
        Result<U> m = unit.WithInterval(merged);
        if (!m.ok()) return m.status();
        units_.back() = std::move(*m);
        return Status::OK();
      }
    }
    units_.push_back(std::move(unit));
    return Status::OK();
  }

  std::size_t NumUnits() const { return units_.size(); }

  /// Pre-allocates capacity for n units (bulk assembly fast path).
  void Reserve(std::size_t n) { units_.reserve(n); }

  /// Finalizes into a mapping. The builder is left empty.
  Result<Mapping<U>> Build() {
    return Mapping<U>::Make(std::move(units_));
  }

 private:
  std::vector<U> units_;
};

}  // namespace modb

#endif  // MODB_TEMPORAL_MAPPING_H_
