// The refinement partition of the time axis (Figure 8): given two unit
// lists ordered by time interval, a parallel scan produces the common
// subdivision, pairing each refinement interval with the unit (if any) of
// each mapping valid on it. This is the generic first stage of every
// binary lifted operation (Section 5.2: "algorithms for binary operations
// on moving objects can generally be reduced to simpler algorithms on
// pairs of units").

#ifndef MODB_TEMPORAL_REFINEMENT_H_
#define MODB_TEMPORAL_REFINEMENT_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/interval.h"
#include "core/status.h"
#include "temporal/mapping.h"

namespace modb {

/// One interval of the refinement partition. unit_a/unit_b are indices
/// into the respective mappings, or kNoUnit when that mapping is not
/// defined on the interval. Indices are int32_t; RefinementPartition
/// rejects mappings with more units than int32_t can address rather than
/// letting the narrowing wrap.
struct RefinementEntry {
  static constexpr std::int32_t kNoUnit = -1;

  TimeInterval interval = TimeInterval::At(0);
  std::int32_t unit_a = kNoUnit;
  std::int32_t unit_b = kNoUnit;

  bool HasBoth() const { return unit_a != kNoUnit && unit_b != kNoUnit; }
};

/// Largest unit count addressable by a RefinementEntry index.
inline constexpr std::size_t kMaxRefinementUnits =
    std::size_t(std::numeric_limits<std::int32_t>::max());

namespace refinement_internal {

/// The part of `whole` strictly before `common` (sharing whole's left
/// boundary), or nullopt when empty.
inline std::optional<TimeInterval> LeadingPiece(const TimeInterval& whole,
                                                const TimeInterval& common) {
  if (whole.start() < common.start()) {
    auto piece = TimeInterval::Make(whole.start(), common.start(),
                                    whole.left_closed(),
                                    !common.left_closed());
    if (piece.ok()) return *piece;
    return std::nullopt;
  }
  if (whole.start() == common.start() && whole.left_closed() &&
      !common.left_closed()) {
    return TimeInterval::At(whole.start());
  }
  return std::nullopt;
}

/// The part of `whole` strictly after `common`, or nullopt when empty.
inline std::optional<TimeInterval> TrailingPiece(const TimeInterval& whole,
                                                 const TimeInterval& common) {
  if (common.end() < whole.end()) {
    auto piece = TimeInterval::Make(common.end(), whole.end(),
                                    !common.right_closed(),
                                    whole.right_closed());
    if (piece.ok()) return *piece;
    return std::nullopt;
  }
  if (whole.end() == common.end() && whole.right_closed() &&
      !common.right_closed()) {
    return TimeInterval::At(whole.end());
  }
  return std::nullopt;
}

}  // namespace refinement_internal

/// The whole refinement partition of the deftimes of two mappings, in
/// O(n + m): the co-defined intervals and the ones where only one mapping
/// is defined (intervals where neither is defined are omitted). Operators
/// walk only the co-defined intervals, with ForEachCommonInterval; this
/// full partition is the reference the tests hold that walk to.
template <typename UA, typename UB>
std::vector<RefinementEntry> RefinementPartition(const Mapping<UA>& a,
                                                 const Mapping<UB>& b) {
  using refinement_internal::LeadingPiece;
  using refinement_internal::TrailingPiece;

  std::vector<RefinementEntry> out;
  const std::size_t n = a.NumUnits(), m = b.NumUnits();
  if (n > kMaxRefinementUnits || m > kMaxRefinementUnits) {
    // Past 2^31-1 units per mapping; unreachable through the validating
    // factories on any realistic memory budget.
    assert(false && "refinement partition supports at most 2^31-1 units");
    return out;
  }
  std::size_t i = 0, j = 0;
  // The not-yet-emitted remainder of the current unit on each side.
  std::optional<TimeInterval> cur_a =
      n ? std::optional(a.unit(0).interval()) : std::nullopt;
  std::optional<TimeInterval> cur_b =
      m ? std::optional(b.unit(0).interval()) : std::nullopt;
  auto advance_a = [&] {
    ++i;
    cur_a = (i < n) ? std::optional(a.unit(i).interval()) : std::nullopt;
  };
  auto advance_b = [&] {
    ++j;
    cur_b = (j < m) ? std::optional(b.unit(j).interval()) : std::nullopt;
  };
  auto ia = [&] { return std::int32_t(i); };
  auto ib = [&] { return std::int32_t(j); };

  while (cur_a || cur_b) {
    if (!cur_b) {
      out.push_back({*cur_a, ia(), RefinementEntry::kNoUnit});
      advance_a();
      continue;
    }
    if (!cur_a) {
      out.push_back({*cur_b, RefinementEntry::kNoUnit, ib()});
      advance_b();
      continue;
    }
    if (TimeInterval::RDisjoint(*cur_a, *cur_b)) {
      out.push_back({*cur_a, ia(), RefinementEntry::kNoUnit});
      advance_a();
      continue;
    }
    if (TimeInterval::RDisjoint(*cur_b, *cur_a)) {
      out.push_back({*cur_b, RefinementEntry::kNoUnit, ib()});
      advance_b();
      continue;
    }
    auto common = TimeInterval::Intersect(*cur_a, *cur_b);
    // Overlap implies a non-empty intersection.
    if (auto lead = LeadingPiece(*cur_a, *common)) {
      out.push_back({*lead, ia(), RefinementEntry::kNoUnit});
    }
    if (auto lead = LeadingPiece(*cur_b, *common)) {
      out.push_back({*lead, RefinementEntry::kNoUnit, ib()});
    }
    out.push_back({*common, ia(), ib()});
    std::optional<TimeInterval> trail_a = TrailingPiece(*cur_a, *common);
    std::optional<TimeInterval> trail_b = TrailingPiece(*cur_b, *common);
    if (trail_a) {
      cur_a = trail_a;
    } else {
      advance_a();
    }
    if (trail_b) {
      cur_b = trail_b;
    } else {
      advance_b();
    }
  }
  return out;
}

/// The refinement partition walked in place, restricted to where both
/// mappings are defined: calls fn(interval, i, j) for exactly the
/// HasBoth() entries of RefinementPartition, in the same order, without
/// building the partition. Each such interval is the non-empty
/// intersection of unit i of `a` with unit j of `b`. The scan advances
/// whichever unit ends first, O(n + m): on a tie the one open there, or
/// both when they end alike, as units on a shared time grid do. A
/// disjoint pair intersects to nothing and is skipped the same way.
/// `fn` returns a Status; the walk stops at the first non-OK one and
/// returns it.
template <typename UA, typename UB, typename Fn>
Status ForEachCommonInterval(const Mapping<UA>& a, const Mapping<UB>& b,
                             Fn&& fn) {
  const std::vector<UA>& ua = a.units();
  const std::vector<UB>& ub = b.units();
  const std::size_t n = ua.size(), m = ub.size();
  std::size_t i = 0, j = 0;
  while (i < n && j < m) {
    const TimeInterval& u = ua[i].interval();
    const TimeInterval& v = ub[j].interval();
    if (std::optional<TimeInterval> common = TimeInterval::Intersect(u, v)) {
      MODB_RETURN_IF_ERROR(fn(*common, i, j));
    }
    if (u.end() == v.end() && u.right_closed() == v.right_closed()) {
      ++i;
      ++j;
    } else if (u.end() < v.end() ||
               (u.end() == v.end() && !u.right_closed())) {
      ++i;
    } else {
      ++j;
    }
  }
  return Status::OK();
}

}  // namespace modb

#endif  // MODB_TEMPORAL_REFINEMENT_H_
