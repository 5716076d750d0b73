// A 3D (x, y, t) R-tree over unit bounding cubes. Section 4.2 stores a
// bounding cube with every variable-size unit; this index puts those
// cubes to work for spatio-temporal joins (the ablation of
// bench_queries). Built by Sort-Tile-Recursive bulk loading.
//
// Layout (Section 4's pointer-free "database arrays" applied to the
// query side): the tree is flattened into level-ordered implicit
// arrays. Every node owns a fixed stride of child slots, and the child
// bounding cubes are stored as six SoA plane arrays (min/max per axis),
// so a node's full fanout intersection test is one branchless pass
// producing a hit bitmask — an autovectorizable scalar core with an
// AVX2 specialization dispatched at runtime (core/simd.h, MODB_SIMD;
// the only kernel that dispatch serves).
// Leaf slots carry the entry ids in the same position, so the leaf
// mask IS the entry filter and no per-entry records are chased.

#ifndef MODB_INDEX_RTREE3D_H_
#define MODB_INDEX_RTREE3D_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "spatial/bbox.h"

namespace modb {

namespace rtree_internal {

/// Base pointers of the six SoA child-cube plane arrays.
struct Planes {
  const double* min_x;
  const double* min_y;
  const double* min_t;
  const double* max_x;
  const double* max_y;
  const double* max_t;
};

/// Computes the intersection bitmask of `stride` child slots starting at
/// `base` against the query cube (bit s set ⟺ slot s hits). Padding
/// slots store inverted cubes (min = +inf, max = -inf) and never hit.
using MaskFn = std::uint32_t (*)(const Planes&, std::size_t base,
                                 std::int32_t stride, const Cube& query);

/// The kernel the runtime dispatch selects right now (rtree3d.cc):
/// AVX2 when available and not disabled, else the scalar core.
MaskFn ActiveMaskFn();

/// The scalar reference kernel, always available (differential tests
/// compare the dispatched kernel against it).
std::uint32_t HitMaskScalar(const Planes& p, std::size_t base,
                            std::int32_t stride, const Cube& query);

}  // namespace rtree_internal

class RTree3D {
 public:
  struct Entry {
    Cube cube;
    int64_t id = 0;
  };

  RTree3D() = default;

  /// Builds the tree from all entries at once (STR bulk load). The
  /// fanout is clamped to [2, 32] (the hit mask is 32 bits wide).
  static RTree3D BulkLoad(std::vector<Entry> entries, int fanout = 16);

  /// Ids of all entries whose cubes intersect the query cube.
  std::vector<int64_t> Query(const Cube& query) const;

  /// Caller-buffer overload: clears `*out` and fills it with the hit
  /// ids, reusing its capacity. Zero allocations after warmup.
  void Query(const Cube& query, std::vector<int64_t>* out) const;

  /// Traversal tallies of one or more queries; Flush (rtree3d.cc) adds
  /// them to the "index.rtree3d.*" counters and is empty under
  /// MODB_NO_METRICS.
  struct QueryCounters {
    std::uint64_t queries = 0;
    std::uint64_t node_visits = 0;
    std::uint64_t leaf_entry_tests = 0;
    std::uint64_t leaf_hits = 0;
#ifdef MODB_NO_METRICS
    // Inline no-op so the local tallies above are provably dead and the
    // compiler strips the increments from the traversal.
    void Flush() const {}
#else
    void Flush() const;  // rtree3d.cc
#endif
  };

  /// Visits intersecting entries without materializing the id vector.
  /// Traversal work (node visits, leaf entry tests/hits) is accumulated
  /// in locals and flushed to the obs metrics registry once per query —
  /// a no-op (and fully optimized out) under MODB_NO_METRICS.
  template <typename Fn>
  void QueryVisit(const Cube& query, Fn&& fn) const {
    QueryCounters counters;
    QueryVisit(query, fn, &counters);
    counters.Flush();
  }

  /// QueryVisit that adds its traversal work to `*counters` instead of
  /// flushing it, so a caller issuing many queries flushes once.
  template <typename Fn>
  void QueryVisit(const Cube& query, Fn&& fn, QueryCounters* counters) const {
    // Tallied in locals (the visitor could alias *counters) and added
    // once at the end.
    std::uint64_t node_visits = 0, leaf_entry_tests = 0, leaf_hits = 0;
    if (!leaf_.empty() && Cube::Intersect(bounds_, query)) {
      const rtree_internal::MaskFn mask_fn = rtree_internal::ActiveMaskFn();
      const rtree_internal::Planes planes{min_x_.data(), min_y_.data(),
                                          min_t_.data(), max_x_.data(),
                                          max_y_.data(), max_t_.data()};
      // DFS over node indices. The bound holds because the height is at
      // most kMaxHeight and a pop pushes at most stride_ - 1 net nodes.
      std::int32_t stack[kMaxHeight * 31 + 1];
      int sp = 0;
      stack[sp++] = 0;
      while (sp > 0) {
        const std::int32_t n = stack[--sp];
        ++node_visits;
        const std::size_t base = std::size_t(n) * std::size_t(stride_);
        std::uint32_t mask = mask_fn(planes, base, stride_, query);
        if (leaf_[std::size_t(n)]) {
          leaf_entry_tests += count_[std::size_t(n)];
          leaf_hits += std::uint32_t(std::popcount(mask));
          while (mask != 0) {
            const int s = std::countr_zero(mask);
            mask &= mask - 1;
            fn(slot_[base + std::size_t(s)]);
          }
        } else {
          // Push hits high-slot first so they pop in ascending slot
          // order — the same DFS order as the pointer-tree recursion.
          while (mask != 0) {
            const int s = 31 - std::countl_zero(mask);
            mask &= ~(std::uint32_t(1) << s);
            stack[sp++] = std::int32_t(slot_[base + std::size_t(s)]);
          }
        }
      }
    }
    ++counters->queries;
    counters->node_visits += node_visits;
    counters->leaf_entry_tests += leaf_entry_tests;
    counters->leaf_hits += leaf_hits;
  }

  /// Bounding cube of the whole tree (empty cube when no entries). Lets
  /// callers prefilter probe cubes before descending.
  const Cube& Bounds() const { return bounds_; }

  std::size_t NumEntries() const { return num_entries_; }
  std::size_t NumNodes() const { return leaf_.size(); }
  int Height() const { return height_; }

  /// Child-slot stride per node (fanout rounded up to the vector width).
  std::int32_t SlotStride() const { return stride_; }

 private:
  // With fanout >= 2 every level at least halves the node count, so
  // int32 node indices bound the height well under 32.
  static constexpr int kMaxHeight = 32;

  // Level-ordered flat arrays. Node i owns child slots
  // [i * stride_, (i + 1) * stride_); the root is node 0 and every
  // node's children are contiguous in node order. Slot planes live in
  // the six SoA arrays; slot_ holds the child node index (internal
  // nodes) or the entry id (leaves). Padding slots hold inverted cubes
  // and are never visited.
  std::int32_t stride_ = 0;
  std::vector<double> min_x_, min_y_, min_t_, max_x_, max_y_, max_t_;
  std::vector<std::int64_t> slot_;
  std::vector<std::uint8_t> leaf_;    // per node
  std::vector<std::uint16_t> count_;  // per node: live (non-pad) slots
  Cube bounds_;
  std::size_t num_entries_ = 0;
  int height_ = 0;
};

}  // namespace modb

#endif  // MODB_INDEX_RTREE3D_H_
