// Batch sweep kernels over the sliced representation. The paper's
// Section-5 complexity claims are per operation — atinstant is
// O(log n), binary lifted ops are O(n + m) via the refinement partition
// — but realistic workloads (the Section-2 queries, bench_queries, the
// examples) evaluate them over many instants and many tuple pairs. The
// kernels here amortize that:
//
//   * AtInstantBatch / PresentBatch: k ascending instants against n
//     units in one forward merge sweep. The cursor only moves forward
//     and advances by galloping (exponential probe + binary search), so
//     the cost is O(n + k) when the instants are dense in the units and
//     O(k log n) when they are sparse — never worse than k independent
//     binary searches, and without their repeated cold-cache descents.
//
// All kernels use the Mapping's SoA search index when it has been built
// (Mapping::BuildSearchIndex), falling back to the unit records.

#ifndef MODB_TEMPORAL_BATCH_OPS_H_
#define MODB_TEMPORAL_BATCH_OPS_H_

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/instant.h"
#include "core/intime.h"
#include "core/status.h"
#include "obs/metrics.h"
#include "temporal/mapping.h"

namespace modb {

namespace batch_internal {

/// Accessor over the packed SoA arrays of a MappingSearchIndex. The
/// precomputed key arrays make both sweep predicates a single double
/// compare on one contiguous array.
struct SoAView {
  const MappingSearchIndex* ix;

  std::size_t size() const { return ix->start.size(); }
  /// Deftime-bounds prefilter: t strictly outside [min start, max end]
  /// is undefined without probing the key arrays (cached bounds, one
  /// compare pair per instant).
  bool certainly_undefined(Instant t) const {
    return ix->start.empty() || t < ix->min_start || ix->max_end < t;
  }
  /// Unit k lies entirely before t (r-disjoint from [t, t]).
  bool before(std::size_t k, Instant t) const { return ix->end_key[k] < t; }
  /// Unit k starts at or before t.
  bool starts_by(std::size_t k, Instant t) const {
    return ix->start_key[k] <= t;
  }
  /// Approximate end of unit k, for interpolation probe seeding.
  Instant end_approx(std::size_t k) const { return ix->end_key[k]; }
  /// First index at or after i that is not before t (may be size()).
  /// The +inf sentinel slot lets the sweep advance without bounds
  /// checks, and the two leading steps are unconditional compare+adds
  /// (no branch to mispredict) covering the common dense-merge case of
  /// advancing 0–2 units per instant.
  std::size_t advance_to(std::size_t i, Instant t) const {
    const Instant* ek = ix->end_key.data();
    i += std::size_t(ek[i] < t);
    i += std::size_t(ek[i] < t);
    while (ek[i] < t) ++i;
    return i;
  }
  /// Containment test for an advance_to result (sentinel-safe: i ==
  /// size() reads the +inf start_key slot and reports false).
  bool contains_at(std::size_t i, Instant t) const {
    return ix->start_key[i] <= t;
  }
  /// First index in [lo, hi) that is not before t, or hi. Branchless
  /// binary search over the packed key array (the comparison result
  /// feeds a conditional move, not a branch, so random probe outcomes
  /// cost no mispredictions).
  std::size_t first_not_before(std::size_t lo, std::size_t hi,
                               Instant t) const {
    const Instant* data = ix->end_key.data();
    const Instant* base = data + lo;
    std::size_t len = hi - lo;
    while (len > 1) {
      std::size_t half = len / 2;
      base += (base[half - 1] < t) ? half : 0;
      len -= half;
    }
    if (len == 1 && *base < t) ++base;
    return std::size_t(base - data);
  }
};

/// Accessor over the full unit records (no index built).
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
  /// Deftime-bounds prefilter, as SoAView's: the units are disjoint and
  /// in time order, so t strictly outside [first start, last end] is
  /// undefined. An instant on either edge still goes to the sweep,
  /// which knows whether that end is closed.
  bool certainly_undefined(Instant t) const {
    return units->empty() || t < min_start || max_end < t;
  }
  bool before(std::size_t k, Instant t) const {
    const TimeInterval& iv = (*units)[k].interval();
    return iv.end() < t || (iv.end() == t && !iv.right_closed());
  }
  bool starts_by(std::size_t k, Instant t) const {
    const TimeInterval& iv = (*units)[k].interval();
    return iv.start() < t || (iv.start() == t && iv.left_closed());
  }
  Instant end_approx(std::size_t k) const {
    return (*units)[k].interval().end();
  }
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
  /// Guarded equivalents of SoAView's sentinel-based sweep steps.
  std::size_t advance_to(std::size_t i, Instant t) const {
    const std::size_t n = size();
    while (i < n && before(i, t)) ++i;
    return i;
  }
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

/// One step of the merge sweep: the index of the unit containing t, or
/// npos. `*cursor` only moves forward; with ascending queries the total
/// advance over a whole batch is O(n + k) (galloping keeps each
/// individual advance at O(log jump)).
inline constexpr std::size_t kNpos = std::size_t(-1);

template <typename View>
std::size_t SweepFind(const View& v, Instant t, std::size_t* cursor,
                      std::size_t hint = 1,
                      SweepCounters* counters = nullptr) {
  const std::size_t n = v.size();
  std::size_t i = *cursor;
  bool needs_advance = i < n && v.before(i, t);
  if (needs_advance) {
    // Dense fast steps: with instants about as dense as the units (the
    // k ≈ n sweep case) the advance is almost always a handful of
    // adjacent units — resolve those with single compares before
    // falling into the interpolation/gallop machinery below.
    for (int s = 0; s < 3 && needs_advance; ++s) {
      ++i;
      needs_advance = i < n && v.before(i, t);
    }
  }
  if (counters != nullptr) {
    ++(needs_advance ? counters->gallop_searches : counters->cursor_hits);
  }
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

/// Phase 1 of the split batch kernels: resolves every instant to its
/// containing unit index (kUndefinedUnit when undefined), combining the
/// deftime-bounds prefilter with the forward merge sweep. Returns false
/// when the instants are not ascending. idx must hold instant count
/// slots.
template <typename View>
bool ResolveAscending(const View& v, const std::vector<Instant>& instants,
                      std::int32_t* idx, std::size_t* cursor,
                      SweepCounters* counters) {
  const std::size_t n = v.size();
  const std::size_t k = instants.size();
  Instant prev = -std::numeric_limits<Instant>::infinity();
  if (k * 4 >= n) {
    // Dense regime (k ≳ n/4): the cursor advances by ~n/k ≤ 4 units per
    // instant, so a pure two-pointer merge — one compare per unit
    // stepped over — beats dispatching the interpolation/gallop
    // machinery. Still O(n + k) in total. The ascending check is one
    // predictable up-front pass, and with sorted instants the
    // deftime-bounds prefilter hits exactly a prefix (t before the
    // first unit) and a suffix (t after the last), so both hoist out
    // and the merge loop is two compares per instant.
    if (!std::is_sorted(instants.begin(), instants.end())) return false;
    std::size_t lo = 0, hi = k;
    while (lo < hi && v.certainly_undefined(instants[lo])) {
      idx[lo++] = kUndefinedUnit;
    }
    while (hi > lo && v.certainly_undefined(instants[hi - 1])) {
      idx[--hi] = kUndefinedUnit;
    }
    counters->bbox_skips += lo + (k - hi);
    std::size_t i = *cursor;
    for (std::size_t q = lo; q < hi; ++q) {
      const Instant t = instants[q];
      i = v.advance_to(i, t);
      idx[q] = v.contains_at(i, t) ? std::int32_t(i) : kUndefinedUnit;
    }
    counters->cursor_hits += hi - lo;
    *cursor = i;
    return true;
  }
  const std::size_t hint =
      std::max<std::size_t>(1, n / std::max<std::size_t>(1, k));
  for (std::size_t q = 0; q < k; ++q) {
    const Instant t = instants[q];
    if (t < prev) return false;
    prev = t;
    if (v.certainly_undefined(t)) {
      ++counters->bbox_skips;
      idx[q] = kUndefinedUnit;
      continue;
    }
    const std::size_t r = SweepFind(v, t, cursor, hint, counters);
    idx[q] = r == kNpos ? kUndefinedUnit : std::int32_t(r);
  }
  return true;
}

/// Phase 2 kernel over the packed motion-coefficient arrays
/// (MappingSearchIndex::motion_*): a scalar reference core with an AVX2
/// specialization (gather + multiply-then-add, never FMA, so the two
/// paths are byte-identical) dispatched at runtime via core/simd.h.
/// Undefined slots (idx < 0) produce zeroed outputs with the defined
/// flag clear, exactly like Intime::Undefined(). Defined in
/// batch_ops.cc.
void EvalMotionPositions(const MappingSearchIndex& ix, const Instant* ts,
                         const std::int32_t* idx, std::size_t n,
                         Intime<Point>* out);

inline void FlushSweepCounters(const SweepCounters& sweep,
                               std::size_t units_scanned) {
  MODB_COUNTER_ADD("temporal.batch.units_scanned", units_scanned);
  MODB_COUNTER_ADD("temporal.batch.sweep_cursor_hits", sweep.cursor_hits);
  MODB_COUNTER_ADD("temporal.batch.sweep_gallop_searches",
                   sweep.gallop_searches);
  MODB_COUNTER_ADD("temporal.batch.sweep_bbox_skips", sweep.bbox_skips);
}

}  // namespace batch_internal

/// Reusable buffers for the split (resolve, then evaluate) batch
/// kernels: hoist one instance out of a per-tuple loop and the kernels
/// allocate nothing after warmup.
struct BatchScratch {
  std::vector<std::int32_t> unit_idx;
};

/// Compact SoA output of batched position evaluation: one 0/1
/// `defined` flag per (mapping, instant) cell, and `xs` / `ys` only for
/// the defined cells, in the same order. Undefined cells take no
/// coordinate slot, so xs.size() == ys.size() == the number of set
/// flags; the cell behind xs[j] is the j-th set flag.
struct BatchXYOutput {
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<std::uint8_t> defined;
};

// ---------------------------------------------------------------------------
// Front-ends. The merge sweeps are inherently serial and run inline on
// the calling thread; parallelism over many mappings belongs to the
// morsel engine's batch terminal (exec/pipeline.h). The paged twins in
// temporal/paged_ops.h run the same kernels.
// ---------------------------------------------------------------------------

/// atinstant over a batch of ascending instants: one merge sweep instead
/// of k independent O(log n) searches. Instants outside the deftime
/// yield undefined Intime values, exactly like Mapping::AtInstant.
/// Clears and fills `*out`, reusing its capacity — hoist the buffer and
/// the BatchScratch out of a per-tuple loop to evaluate many batches
/// without reallocating.
///
/// When the mapping has a SoA search index with packed motion
/// coefficients (upoint), the kernel splits into a resolve pass (merge
/// sweep filling `scratch->unit_idx`) and a vectorized evaluation pass
/// over the contiguous coefficient arrays — byte-identical output to
/// the generic path.
template <typename U>
Status AtInstantBatchInto(const Mapping<U>& m,
                          const std::vector<Instant>& instants,
                          std::vector<Intime<typename U::ValueType>>* out,
                          BatchScratch* scratch) {
  using Out = Intime<typename U::ValueType>;
  std::size_t cursor = 0;
  batch_internal::SweepCounters sweep;
  const MappingSearchIndex* ix = m.search_index();
  bool ok;
  if constexpr (std::is_same_v<typename U::ValueType, Point>) {
    if (ix != nullptr && (ix->has_motion() || ix->start.empty())) {
      // Split fast path: resolve into the scratch index array, then
      // evaluate positions off the packed coefficients in one
      // vectorizable pass.
      const std::size_t k = instants.size();
      scratch->unit_idx.resize(k);
      if (!batch_internal::ResolveAscending(batch_internal::SoAView{ix},
                                            instants, scratch->unit_idx.data(),
                                            &cursor, &sweep)) {
        out->clear();
        return batch_internal::NotAscending();
      }
      // resize without a clear: a warm same-size buffer skips the
      // element re-initialization pass (the evaluate kernel overwrites
      // every slot, defined or not).
      out->resize(k);
      batch_internal::EvalMotionPositions(*ix, instants.data(),
                                          scratch->unit_idx.data(), k,
                                          out->data());
      MODB_COUNTER_INC("temporal.batch.atinstant_calls");
      MODB_COUNTER_ADD("temporal.batch.atinstant_instants", k);
      MODB_COUNTER_INC("temporal.batch.dispatch_soa_index");
      batch_internal::FlushSweepCounters(sweep, cursor);
      return Status::OK();
    }
  }
  out->clear();
  out->reserve(instants.size());
  auto run = [&](const auto& view) {
    Instant prev = -std::numeric_limits<Instant>::infinity();
    const std::size_t hint = std::max<std::size_t>(
        1, view.size() / std::max<std::size_t>(1, instants.size()));
    for (Instant t : instants) {
      if (t < prev) return false;
      prev = t;
      if (view.certainly_undefined(t)) {
        ++sweep.bbox_skips;
        out->push_back(Out::Undefined());
        continue;
      }
      std::size_t idx =
          batch_internal::SweepFind(view, t, &cursor, hint, &sweep);
      if (idx == batch_internal::kNpos) {
        out->push_back(Out::Undefined());
      } else {
        out->push_back(Out(t, m.unit(idx).ValueAt(t)));
      }
    }
    return true;
  };
  ok = ix != nullptr ? run(batch_internal::SoAView{ix})
                     : run(batch_internal::UnitsView<U>{&m.units()});
  if (!ok) return batch_internal::NotAscending();
  MODB_COUNTER_INC("temporal.batch.atinstant_calls");
  MODB_COUNTER_ADD("temporal.batch.atinstant_instants", instants.size());
  batch_internal::FlushSweepCounters(sweep, cursor);
  if (ix != nullptr) {
    MODB_COUNTER_INC("temporal.batch.dispatch_soa_index");
  } else {
    MODB_COUNTER_INC("temporal.batch.dispatch_unit_records");
  }
  return Status::OK();
}


/// Allocating convenience wrapper around AtInstantBatchInto.
template <typename U>
Result<std::vector<Intime<typename U::ValueType>>> AtInstantBatch(
    const Mapping<U>& m, const std::vector<Instant>& instants) {
  std::vector<Intime<typename U::ValueType>> out;
  BatchScratch scratch;
  MODB_RETURN_IF_ERROR(AtInstantBatchInto(m, instants, &out, &scratch));
  return out;
}

/// Batched upoint position evaluation into a compact BatchXYOutput:
/// appends instants.size() flags to out->defined and one (x, y) to
/// out->xs / out->ys per defined instant, so the cost past the resolve
/// pass (the same one AtInstantBatchInto runs) is what the batch
/// returns. Appending lets a caller collect many mappings' rows in one
/// output without a copy. Requires ascending instants; on error `*out`
/// is left as it was.
template <typename U>
  requires requires(const U& u) {
    { u.motion().x0 } -> std::convertible_to<double>;
  }
Status AtInstantBatchXYInto(const Mapping<U>& m,
                            const std::vector<Instant>& instants,
                            BatchXYOutput* out, BatchScratch* scratch) {
  const std::size_t k = instants.size();
  std::size_t cursor = 0;
  batch_internal::SweepCounters sweep;
  scratch->unit_idx.resize(k);
  const std::int32_t* idx = scratch->unit_idx.data();
  bool ok;
  const MappingSearchIndex* ix = m.search_index();
  if (ix != nullptr) {
    ok = batch_internal::ResolveAscending(batch_internal::SoAView{ix},
                                          instants, scratch->unit_idx.data(),
                                          &cursor, &sweep);
  } else {
    ok = batch_internal::ResolveAscending(
        batch_internal::UnitsView<U>{&m.units()}, instants,
        scratch->unit_idx.data(), &cursor, &sweep);
  }
  if (!ok) return batch_internal::NotAscending();
  const std::size_t f0 = out->defined.size();
  out->defined.resize(f0 + k);
  std::uint8_t* flags = out->defined.data() + f0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < k; ++i) {
    flags[i] = std::uint8_t(idx[i] >= 0);
    hits += flags[i];
  }
  const std::size_t c0 = out->xs.size();
  out->xs.resize(c0 + hits);
  out->ys.resize(c0 + hits);
  double* xs = out->xs.data() + c0;
  double* ys = out->ys.data() + c0;
  if (ix != nullptr && ix->has_motion()) {
    // x0 + x1*t / y0 + y1*t off the packed coefficients: exactly
    // LinearMotion::At, so both branches give the same doubles.
    const double* x0 = ix->motion_x0.data();
    const double* x1 = ix->motion_x1.data();
    const double* y0 = ix->motion_y0.data();
    const double* y1 = ix->motion_y1.data();
    for (std::size_t i = 0; i < k; ++i) {
      const std::int32_t j = idx[i];
      if (j < 0) continue;
      const double t = instants[i];
      *xs++ = x0[j] + x1[j] * t;
      *ys++ = y0[j] + y1[j] * t;
    }
  } else {
    for (std::size_t i = 0; i < k; ++i) {
      const std::int32_t j = idx[i];
      if (j < 0) continue;
      const Point p = m.unit(std::size_t(j)).ValueAt(instants[i]);
      *xs++ = p.x;
      *ys++ = p.y;
    }
  }
  MODB_COUNTER_INC("temporal.batch.atinstant_xy_calls");
  MODB_COUNTER_ADD("temporal.batch.atinstant_instants", k);
  batch_internal::FlushSweepCounters(sweep, cursor);
  return Status::OK();
}

/// Many-mapping front-end for AtInstantBatchXYInto: evaluates every
/// mapping of `maps` at the same ascending instants, replacing (*outs)[i]
/// with maps[i]'s compact output, with one warm BatchScratch. On error,
/// the lowest failing mapping index's Status is returned.
template <typename U>
  requires requires(const U& u) {
    { u.motion().x0 } -> std::convertible_to<double>;
  }
Status AtInstantBatchManyXY(const std::vector<const Mapping<U>*>& maps,
                            const std::vector<Instant>& instants,
                            std::vector<BatchXYOutput>* outs) {
  outs->resize(maps.size());
  BatchScratch scratch;
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
    MODB_RETURN_IF_ERROR(
        AtInstantBatchXYInto(*maps[i], instants, &out, &scratch));
  }
  return Status::OK();
}

/// present over a batch of ascending instants; (*out)[i] is 1 iff the
/// moving value is defined at instants[i]. Clears and fills `*out`,
/// reusing its capacity.
template <typename U>
Status PresentBatchInto(const Mapping<U>& m,
                        const std::vector<Instant>& instants,
                        std::vector<std::uint8_t>* out) {
  out->clear();
  out->reserve(instants.size());
  std::size_t cursor = 0;
  Instant prev = -std::numeric_limits<Instant>::infinity();
  batch_internal::SweepCounters sweep;
  auto run = [&](const auto& view) {
    const std::size_t hint = std::max<std::size_t>(
        1, view.size() / std::max<std::size_t>(1, instants.size()));
    for (Instant t : instants) {
      if (t < prev) return false;
      prev = t;
      if (view.certainly_undefined(t)) {
        ++sweep.bbox_skips;
        out->push_back(0);
        continue;
      }
      out->push_back(batch_internal::SweepFind(view, t, &cursor, hint,
                                               &sweep) !=
                             batch_internal::kNpos
                         ? 1
                         : 0);
    }
    return true;
  };
  bool ok = m.search_index()
                ? run(batch_internal::SoAView{m.search_index()})
                : run(batch_internal::UnitsView<U>{&m.units()});
  if (!ok) return batch_internal::NotAscending();
  MODB_COUNTER_INC("temporal.batch.present_calls");
  MODB_COUNTER_ADD("temporal.batch.present_instants", instants.size());
  batch_internal::FlushSweepCounters(sweep, cursor);
  return Status::OK();
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
