// Batch sweep kernels over the sliced representation. The paper's
// Section-5 complexity claims are per operation — atinstant is
// O(log n), binary lifted ops are O(n + m) via the refinement partition
// — but realistic workloads (the Section-2 queries, bench_queries, the
// examples) evaluate them over many instants and many tuple pairs. The
// kernels here amortize that:
//
//   * AtInstantBatch / AtInstantBatchXY / PresentBatch: k ascending
//     instants against n units in one forward sweep. The cursor only
//     moves forward: a two-pointer merge when the instants are dense in
//     the units, O(n + k), and galloping (exponential probe + binary
//     search) when they are sparse, O(k log n) — never worse than k
//     independent binary searches, and without their repeated
//     cold-cache descents.
//
// The sweep reads the mapping's unit records where they lie (the unit
// array of Section 4); no kernel keeps a second copy of them.

#ifndef MODB_TEMPORAL_BATCH_OPS_H_
#define MODB_TEMPORAL_BATCH_OPS_H_

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/instant.h"
#include "core/intime.h"
#include "core/status.h"
#include "obs/metrics.h"
#include "spatial/point.h"
#include "temporal/mapping.h"

namespace modb {

namespace batch_internal {

/// Accessor over the unit records: the sweep predicates read each unit's
/// interval where it lies in the mapping's unit array.
template <typename U>
struct UnitsView {
  explicit UnitsView(const std::vector<U>* u)
      : units(u),
        min_start(u->empty() ? 0 : u->front().interval().start()),
        max_end(u->empty() ? 0 : u->back().interval().end()) {}

  const std::vector<U>* units;
  Instant min_start;  // the first unit's start
  Instant max_end;    // the last unit's end

  std::size_t size() const { return units->size(); }
  /// Deftime-bounds prefilter: the units are disjoint and in time order,
  /// so t strictly outside [first start, last end] is undefined. An
  /// instant on either edge still goes to the sweep, which knows whether
  /// that end is closed.
  bool certainly_undefined(Instant t) const {
    return units->empty() || t < min_start || max_end < t;
  }
  /// Unit k lies entirely before t (r-disjoint from [t, t]).
  bool before(std::size_t k, Instant t) const {
    const TimeInterval& iv = (*units)[k].interval();
    return iv.end() < t || (iv.end() == t && !iv.right_closed());
  }
  /// Unit k starts at or before t.
  bool starts_by(std::size_t k, Instant t) const {
    const TimeInterval& iv = (*units)[k].interval();
    return iv.start() < t || (iv.start() == t && iv.left_closed());
  }
  /// End of unit k, for interpolation probe seeding.
  Instant end_approx(std::size_t k) const {
    return (*units)[k].interval().end();
  }
  /// First index in [lo, hi) that is not before t, or hi.
  std::size_t first_not_before(std::size_t lo, std::size_t hi,
                               Instant t) const {
    while (lo < hi) {
      std::size_t mid = lo + (hi - lo) / 2;
      if (before(mid, t)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
  /// First index at or after i that is not before t (may be size()).
  std::size_t advance_to(std::size_t i, Instant t) const {
    const std::size_t n = size();
    while (i < n && before(i, t)) ++i;
    return i;
  }
  /// Containment test for an advance_to result.
  bool contains_at(std::size_t i, Instant t) const {
    return i < size() && starts_by(i, t);
  }
};

/// Per-batch tallies of how each instant was resolved: straight off the
/// forward cursor, or by dispatching a gallop + binary search. Kernels
/// accumulate into plain locals and flush once per batch, so the sweep
/// inner loop carries no atomics (and under MODB_NO_METRICS the flush is
/// a no-op and the locals fold away).
struct SweepCounters {
  std::uint64_t cursor_hits = 0;     // resolved by the sweep cursor as-is
  std::uint64_t gallop_searches = 0; // needed the gallop/binary-search path
  std::uint64_t bbox_skips = 0;      // resolved by the deftime-bounds prefilter
};

/// "No unit contains this instant."
inline constexpr std::size_t kNpos = std::size_t(-1);

/// One step of the sparse sweep: the index of the unit containing t, or
/// kNpos. `*cursor` only moves forward; with ascending queries the total
/// advance over a whole batch is O(n + k) (galloping keeps each
/// individual advance at O(log jump)).
template <typename U>
std::size_t SweepFind(const UnitsView<U>& v, Instant t, std::size_t* cursor,
                      std::size_t hint, SweepCounters* counters) {
  const std::size_t n = v.size();
  std::size_t i = *cursor;
  bool needs_advance = i < n && v.before(i, t);
  if (needs_advance) {
    // Short steps: clustered instants often advance only a handful of
    // adjacent units — resolve those with single compares before
    // falling into the interpolation/gallop machinery below.
    for (int s = 0; s < 3 && needs_advance; ++s) {
      ++i;
      needs_advance = i < n && v.before(i, t);
    }
  }
  ++(needs_advance ? counters->gallop_searches : counters->cursor_hits);
  if (needs_advance) {
    // First probe: interpolate t's position within the remaining unit
    // ends. On near-uniform unit durations (the common case for sliced
    // trajectories) this lands within a few units of the target, so a
    // query costs O(1) probes; badly skewed durations only degrade the
    // seed, and the gallop below restores the O(log jump) bound.
    std::size_t g = hint;
    const Instant lo_e = v.end_approx(i), hi_e = v.end_approx(n - 1);
    if (hi_e > lo_e && t > lo_e) {
      const double f = (t - lo_e) / (hi_e - lo_e) * double(n - 1 - i);
      g = f < 1 ? 1
                : (f >= double(n - i) ? n - i : std::size_t(f) + 1);
    }
    std::size_t pos = std::min(i + g, n - 1);
    if (v.before(pos, t)) {
      // Gallop forward: exponential probe, then search the bracket. The
      // first not-before unit is in (i, i + step] (or absent).
      i = pos;
      std::size_t step = std::max<std::size_t>(g, 1);
      while (i + step < n && v.before(i + step, t)) {
        i += step;
        step *= 2;
      }
      i = v.first_not_before(i + 1, std::min(i + step + 1, n), t);
    } else {
      // Overshot: gallop backward for the first not-before in (i, pos].
      std::size_t step = 1, hi2 = pos;
      while (hi2 > i + step && !v.before(hi2 - step, t)) {
        hi2 -= step;
        step *= 2;
      }
      std::size_t lo2 = hi2 > i + step ? hi2 - step + 1 : i + 1;
      i = v.first_not_before(lo2, hi2 + 1, t);
    }
  }
  *cursor = i;
  if (i >= n) return kNpos;
  // Not before t, so t <= end (closed there). Containment only needs the
  // start side.
  return v.starts_by(i, t) ? i : kNpos;
}

inline Status NotAscending() {
  return Status::InvalidArgument(
      "batch kernels require instants in ascending order");
}

/// Sentinel unit index for "undefined at this instant" in resolved
/// index arrays.
inline constexpr std::int32_t kUndefinedUnit = -1;

/// The dense/sparse cut of ResolveAscending: k instants over n units take
/// the two-pointer merge when k * kDenseRatio >= n, and the gallop
/// otherwise. On the unit records the merge costs about 0.5 ns per unit
/// stepped over and the gallop about 10 ns per instant, so the two cross
/// near k = n/19 (EXPERIMENTS.md P20).
inline constexpr std::size_t kDenseRatio = 16;

/// The resolve pass every batch kernel runs: hands each instant's
/// containing unit index, or kNpos where the mapping is undefined, to
/// `emit(q, unit)` in instant order, combining the deftime-bounds
/// prefilter with the forward merge sweep. Returns false when the
/// instants are not ascending, possibly after emitting some of them.
template <typename U, typename Emit>
bool ResolveAscending(const std::vector<U>& units,
                      const std::vector<Instant>& instants,
                      std::size_t* cursor, SweepCounters* counters,
                      Emit&& emit) {
  const UnitsView<U> v(&units);
  const std::size_t n = v.size();
  const std::size_t k = instants.size();
  const Instant* ts = instants.data();
  // The ascending check rides on the loops below, one compare per
  // adjacent pair. With sorted instants the deftime-bounds prefilter
  // hits exactly a prefix (t before the first unit) and a suffix (t
  // after the last), so both hoist out of the sweep.
  std::size_t lo = 0, hi = k;
  for (; lo < hi && v.certainly_undefined(ts[lo]); ++lo) {
    if (lo > 0 && ts[lo] < ts[lo - 1]) return false;
  }
  for (; hi > lo && v.certainly_undefined(ts[hi - 1]); --hi) {
    if (hi < k && ts[hi] < ts[hi - 1]) return false;
  }
  // The pair across the sweep's end and the suffix's start.
  if (hi > 0 && hi < k && ts[hi] < ts[hi - 1]) return false;
  counters->bbox_skips += lo + (k - hi);
  for (std::size_t q = 0; q < lo; ++q) emit(q, kNpos);
  if (k * kDenseRatio >= n) {
    // Dense: the cursor advances by about n/k <= kDenseRatio units per
    // instant, so a pure two-pointer merge, one compare per unit stepped
    // over, beats dispatching the interpolation/gallop machinery. Still
    // O(n + k) in total.
    std::size_t i = *cursor;
    for (std::size_t q = lo; q < hi; ++q) {
      const Instant t = ts[q];
      if (q > 0 && t < ts[q - 1]) return false;
      i = v.advance_to(i, t);
      emit(q, v.contains_at(i, t) ? i : kNpos);
    }
    counters->cursor_hits += hi - lo;
    *cursor = i;
  } else {
    const std::size_t hint =
        std::max<std::size_t>(1, n / std::max<std::size_t>(1, k));
    for (std::size_t q = lo; q < hi; ++q) {
      if (q > 0 && ts[q] < ts[q - 1]) return false;
      emit(q, SweepFind(v, ts[q], cursor, hint, counters));
    }
  }
  for (std::size_t q = hi; q < k; ++q) emit(q, kNpos);
  return true;
}

inline void FlushSweepCounters(const SweepCounters& sweep,
                               std::size_t units_scanned) {
  MODB_COUNTER_ADD("temporal.batch.units_scanned", units_scanned);
  MODB_COUNTER_ADD("temporal.batch.sweep_cursor_hits", sweep.cursor_hits);
  MODB_COUNTER_ADD("temporal.batch.sweep_gallop_searches",
                   sweep.gallop_searches);
  MODB_COUNTER_ADD("temporal.batch.sweep_bbox_skips", sweep.bbox_skips);
}

}  // namespace batch_internal

/// Work tallies of the batch kernels. The kernels add to one when they
/// succeed; the caller flushes it to the metrics registry once per
/// batch of calls (a morsel, or one call for the kernels that take
/// none), so the sweep carries no atomics.
struct BatchCounters {
  std::uint64_t atinstant_xy_calls = 0;
  std::uint64_t present_calls = 0;
  std::uint64_t atinstant_instants = 0;
  std::uint64_t present_instants = 0;
  std::uint64_t units_scanned = 0;
  batch_internal::SweepCounters sweep;

  /// Adds every nonzero tally to the registry and zeroes them all.
  /// Out of line (batch_ops.cc), so the kernels stay small.
  void Flush();

  /// A successful kernel call's sweep.
  void AddSweep(const batch_internal::SweepCounters& s,
                std::size_t units) {
    units_scanned += units;
    sweep.cursor_hits += s.cursor_hits;
    sweep.gallop_searches += s.gallop_searches;
    sweep.bbox_skips += s.bbox_skips;
  }
};

/// Reusable buffer for AtInstantBatchXYInto: hoist one instance out of a
/// per-tuple loop and the kernel allocates nothing after warmup.
struct BatchScratch {
  std::vector<std::int32_t> unit_idx;
};

/// Compact output of batched position evaluation: one 0/1 `defined`
/// flag per (mapping, instant) cell, and `xs` / `ys` only for the defined
/// cells, in the same order. Undefined cells take no coordinate slot, so
/// xs.size() == ys.size() == the number of set flags; the cell behind
/// xs[j] is the j-th set flag.
struct BatchXYOutput {
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<std::uint8_t> defined;
};

// ---------------------------------------------------------------------------
// Front-ends. Each runs batch_internal::ResolveAscending over the unit
// records and says what to emit per instant. The merge sweeps are
// inherently serial and run inline on the calling thread; parallelism
// over many mappings belongs to the morsel engine's batch terminal
// (exec/pipeline.h).
// ---------------------------------------------------------------------------

/// atinstant over a batch of ascending instants: one merge sweep instead
/// of k independent O(log n) searches. Instants outside the deftime
/// yield undefined Intime values, exactly like Mapping::AtInstant.
/// Fills `*out` with one value per instant, reusing its capacity — hoist
/// the buffer out of a per-tuple loop to evaluate many batches without
/// reallocating. On error `*out` is left empty.
template <typename U>
Status AtInstantBatchInto(const Mapping<U>& m,
                          const std::vector<Instant>& instants,
                          std::vector<Intime<typename U::ValueType>>* out) {
  using Out = Intime<typename U::ValueType>;
  const std::vector<U>& units = m.units();
  // resize without a clear: a warm same-size buffer skips the element
  // re-initialization pass (the sweep overwrites every slot).
  out->resize(instants.size());
  Out* dst = out->data();
  std::size_t cursor = 0;
  batch_internal::SweepCounters sweep;
  if (!batch_internal::ResolveAscending(
          units, instants, &cursor, &sweep, [&](std::size_t q, std::size_t j) {
            dst[q] = j == batch_internal::kNpos
                         ? Out::Undefined()
                         : Out(instants[q], units[j].ValueAt(instants[q]));
          })) {
    out->clear();
    return batch_internal::NotAscending();
  }
  MODB_COUNTER_INC("temporal.batch.atinstant_calls");
  MODB_COUNTER_ADD("temporal.batch.atinstant_instants", instants.size());
  batch_internal::FlushSweepCounters(sweep, cursor);
  return Status::OK();
}

/// Allocating convenience wrapper around AtInstantBatchInto.
template <typename U>
Result<std::vector<Intime<typename U::ValueType>>> AtInstantBatch(
    const Mapping<U>& m, const std::vector<Instant>& instants) {
  std::vector<Intime<typename U::ValueType>> out;
  MODB_RETURN_IF_ERROR(AtInstantBatchInto(m, instants, &out));
  return out;
}

/// Batched upoint position evaluation into a compact BatchXYOutput:
/// appends instants.size() flags to out->defined and one (x, y) to
/// out->xs / out->ys per defined instant, so the cost past the resolve
/// pass (the same one AtInstantBatchInto runs) is what the batch
/// returns. Appending lets a caller collect many mappings' rows in one
/// output without a copy. Requires ascending instants; on error `*out`
/// is left as it was. Adds its work to `*counters`, which the caller
/// flushes.
template <typename U>
  requires requires(const U& u) {
    { u.motion().x0 } -> std::convertible_to<double>;
  }
Status AtInstantBatchXYInto(const Mapping<U>& m,
                            const std::vector<Instant>& instants,
                            BatchXYOutput* out, BatchScratch* scratch,
                            BatchCounters* counters) {
  const std::vector<U>& units = m.units();
  const std::size_t k = instants.size();
  scratch->unit_idx.resize(k);
  std::int32_t* idx = scratch->unit_idx.data();
  std::size_t hits = 0;
  std::size_t cursor = 0;
  batch_internal::SweepCounters sweep;
  if (!batch_internal::ResolveAscending(
          units, instants, &cursor, &sweep, [&](std::size_t q, std::size_t j) {
            const bool hit = j != batch_internal::kNpos;
            idx[q] = hit ? std::int32_t(j) : batch_internal::kUndefinedUnit;
            hits += hit;
          })) {
    return batch_internal::NotAscending();
  }
  const std::size_t f0 = out->defined.size();
  out->defined.resize(f0 + k);
  std::uint8_t* flags = out->defined.data() + f0;
  for (std::size_t i = 0; i < k; ++i) flags[i] = std::uint8_t(idx[i] >= 0);
  const std::size_t c0 = out->xs.size();
  out->xs.resize(c0 + hits);
  out->ys.resize(c0 + hits);
  double* xs = out->xs.data() + c0;
  double* ys = out->ys.data() + c0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::int32_t j = idx[i];
    if (j < 0) continue;
    const Point p = units[std::size_t(j)].ValueAt(instants[i]);
    *xs++ = p.x;
    *ys++ = p.y;
  }
  ++counters->atinstant_xy_calls;
  counters->atinstant_instants += k;
  counters->AddSweep(sweep, cursor);
  return Status::OK();
}

/// AtInstantBatchXYInto that flushes its own counters.
template <typename U>
  requires requires(const U& u) {
    { u.motion().x0 } -> std::convertible_to<double>;
  }
Status AtInstantBatchXYInto(const Mapping<U>& m,
                            const std::vector<Instant>& instants,
                            BatchXYOutput* out, BatchScratch* scratch) {
  BatchCounters counters;
  Status s = AtInstantBatchXYInto(m, instants, out, scratch, &counters);
  counters.Flush();
  return s;
}

/// Many-mapping front-end for AtInstantBatchXYInto: evaluates every
/// mapping of `maps` at the same ascending instants, replacing (*outs)[i]
/// with maps[i]'s compact output, with one warm BatchScratch, and
/// flushes the counters of the whole call once. On error, the lowest
/// failing mapping index's Status is returned.
template <typename U>
  requires requires(const U& u) {
    { u.motion().x0 } -> std::convertible_to<double>;
  }
Status AtInstantBatchManyXY(const std::vector<const Mapping<U>*>& maps,
                            const std::vector<Instant>& instants,
                            std::vector<BatchXYOutput>* outs) {
  outs->resize(maps.size());
  BatchScratch scratch;
  BatchCounters counters;
  Status status;
  for (std::size_t i = 0; i < maps.size(); ++i) {
    BatchXYOutput& out = (*outs)[i];
    out.xs.clear();
    out.ys.clear();
    out.defined.clear();
    // Each column gets one allocation of the batch's size, whichever
    // instants turn out defined: in a long-lived process, blocks sized
    // by the data fragment the heap, and a fresh `outs` then cost about
    // twice the kernel's own time.
    out.xs.reserve(instants.size());
    out.ys.reserve(instants.size());
    out.defined.reserve(instants.size());
    status = AtInstantBatchXYInto(*maps[i], instants, &out, &scratch,
                                  &counters);
    if (!status.ok()) break;
  }
  counters.Flush();
  return status;
}

/// present over a batch of ascending instants: writes instants.size()
/// flags to `dst`, 1 iff the moving value is defined at that instant.
/// On error some of them may be written. Adds its work to `*counters`,
/// which the caller flushes.
template <typename U>
Status PresentBatchFill(const Mapping<U>& m,
                        const std::vector<Instant>& instants,
                        std::uint8_t* dst, BatchCounters* counters) {
  std::size_t cursor = 0;
  batch_internal::SweepCounters sweep;
  if (!batch_internal::ResolveAscending(
          m.units(), instants, &cursor, &sweep,
          [dst](std::size_t q, std::size_t j) {
            dst[q] = std::uint8_t(j != batch_internal::kNpos);
          })) {
    return batch_internal::NotAscending();
  }
  ++counters->present_calls;
  counters->present_instants += instants.size();
  counters->AddSweep(sweep, cursor);
  return Status::OK();
}

/// present over a batch of ascending instants; (*out)[i] is 1 iff the
/// moving value is defined at instants[i]. Clears and fills `*out`,
/// reusing its capacity, and flushes its own counters; on error `*out`
/// is left empty.
template <typename U>
Status PresentBatchInto(const Mapping<U>& m,
                        const std::vector<Instant>& instants,
                        std::vector<std::uint8_t>* out) {
  // resize without a clear: the sweep overwrites every slot.
  out->resize(instants.size());
  BatchCounters counters;
  Status s = PresentBatchFill(m, instants, out->data(), &counters);
  if (!s.ok()) out->clear();
  counters.Flush();
  return s;
}

/// Allocating convenience wrapper around PresentBatchInto.
template <typename U>
Result<std::vector<std::uint8_t>> PresentBatch(
    const Mapping<U>& m, const std::vector<Instant>& instants) {
  std::vector<std::uint8_t> out;
  MODB_RETURN_IF_ERROR(PresentBatchInto(m, instants, &out));
  return out;
}

}  // namespace modb

#endif  // MODB_TEMPORAL_BATCH_OPS_H_
