#include "index/rtree3d.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/simd.h"
#include "obs/metrics.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace modb {

namespace {

double CenterX(const Cube& c) { return (c.rect.min_x + c.rect.max_x) / 2; }
double CenterY(const Cube& c) { return (c.rect.min_y + c.rect.max_y) / 2; }
double CenterT(const Cube& c) { return (c.min_t + c.max_t) / 2; }

// Sort-Tile-Recursive grouping: partitions `items` (ordered arbitrarily)
// into groups of at most `fanout`, tiling by x slabs, then y runs, then t.
template <typename GetCube>
std::vector<std::vector<int32_t>> StrGroups(std::vector<int32_t> items,
                                            int fanout, GetCube cube_of) {
  const std::size_t n = items.size();
  const std::size_t num_groups = (n + fanout - 1) / std::size_t(fanout);
  const int s = std::max(1, int(std::ceil(std::cbrt(double(num_groups)))));
  std::sort(items.begin(), items.end(), [&](int32_t a, int32_t b) {
    return CenterX(cube_of(a)) < CenterX(cube_of(b));
  });
  std::vector<std::vector<int32_t>> groups;
  const std::size_t slab = (n + s - 1) / std::size_t(s);
  for (std::size_t x0 = 0; x0 < n; x0 += slab) {
    std::size_t x1 = std::min(n, x0 + slab);
    std::sort(items.begin() + x0, items.begin() + x1,
              [&](int32_t a, int32_t b) {
                return CenterY(cube_of(a)) < CenterY(cube_of(b));
              });
    const std::size_t run = (x1 - x0 + s - 1) / std::size_t(s);
    for (std::size_t y0 = x0; y0 < x1; y0 += run) {
      std::size_t y1 = std::min(x1, y0 + run);
      std::sort(items.begin() + y0, items.begin() + y1,
                [&](int32_t a, int32_t b) {
                  return CenterT(cube_of(a)) < CenterT(cube_of(b));
                });
      for (std::size_t t0 = y0; t0 < y1; t0 += std::size_t(fanout)) {
        std::size_t t1 = std::min(y1, t0 + std::size_t(fanout));
        groups.emplace_back(items.begin() + t0, items.begin() + t1);
      }
    }
  }
  return groups;
}

// Build-time tree shape: the STR levels before flattening. Leaf nodes
// reference entry ordinals, internal nodes reference other temp nodes.
struct TempNode {
  Cube cube;
  bool leaf = true;
  std::vector<int32_t> children;
};

}  // namespace

namespace rtree_internal {

std::uint32_t HitMaskScalar(const Planes& p, std::size_t base,
                            std::int32_t stride, const Cube& q) {
  const double qmin_x = q.rect.min_x, qmax_x = q.rect.max_x;
  const double qmin_y = q.rect.min_y, qmax_y = q.rect.max_y;
  const double qmin_t = q.min_t, qmax_t = q.max_t;
  std::uint32_t mask = 0;
  for (std::int32_t s = 0; s < stride; ++s) {
    const std::size_t i = base + std::size_t(s);
    // Single-pass branchless conjunction; padding slots (min = +inf,
    // max = -inf) fail every comparison.
    const bool hit = unsigned(p.min_x[i] <= qmax_x) &
                     unsigned(qmin_x <= p.max_x[i]) &
                     unsigned(p.min_y[i] <= qmax_y) &
                     unsigned(qmin_y <= p.max_y[i]) &
                     unsigned(p.min_t[i] <= qmax_t) &
                     unsigned(qmin_t <= p.max_t[i]);
    mask |= std::uint32_t(hit) << s;
  }
  return mask;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

// Four slots per iteration: six plane compares folded with vector ANDs,
// one movemask per group. _CMP_LE_OQ matches the scalar <= exactly, so
// the two kernels are bit-for-bit interchangeable.
__attribute__((target("avx2"))) std::uint32_t HitMaskAvx2(
    const Planes& p, std::size_t base, std::int32_t stride, const Cube& q) {
  const __m256d qmin_x = _mm256_set1_pd(q.rect.min_x);
  const __m256d qmax_x = _mm256_set1_pd(q.rect.max_x);
  const __m256d qmin_y = _mm256_set1_pd(q.rect.min_y);
  const __m256d qmax_y = _mm256_set1_pd(q.rect.max_y);
  const __m256d qmin_t = _mm256_set1_pd(q.min_t);
  const __m256d qmax_t = _mm256_set1_pd(q.max_t);
  std::uint32_t mask = 0;
  for (std::int32_t s = 0; s < stride; s += 4) {
    const std::size_t i = base + std::size_t(s);
    __m256d hit = _mm256_and_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(p.min_x + i), qmax_x, _CMP_LE_OQ),
        _mm256_cmp_pd(qmin_x, _mm256_loadu_pd(p.max_x + i), _CMP_LE_OQ));
    hit = _mm256_and_pd(
        hit,
        _mm256_cmp_pd(_mm256_loadu_pd(p.min_y + i), qmax_y, _CMP_LE_OQ));
    hit = _mm256_and_pd(
        hit,
        _mm256_cmp_pd(qmin_y, _mm256_loadu_pd(p.max_y + i), _CMP_LE_OQ));
    hit = _mm256_and_pd(
        hit,
        _mm256_cmp_pd(_mm256_loadu_pd(p.min_t + i), qmax_t, _CMP_LE_OQ));
    hit = _mm256_and_pd(
        hit,
        _mm256_cmp_pd(qmin_t, _mm256_loadu_pd(p.max_t + i), _CMP_LE_OQ));
    mask |= std::uint32_t(_mm256_movemask_pd(hit)) << s;
  }
  return mask;
}

#endif  // __x86_64__

MaskFn ActiveMaskFn() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (simd::UseAvx2()) return &HitMaskAvx2;
#endif
  return &HitMaskScalar;
}

}  // namespace rtree_internal

#ifndef MODB_NO_METRICS
void RTree3D::QueryCounters::Flush() const {
  MODB_COUNTER_ADD("index.rtree3d.queries", queries);
  MODB_COUNTER_ADD("index.rtree3d.node_visits", node_visits);
  MODB_COUNTER_ADD("index.rtree3d.leaf_entry_tests", leaf_entry_tests);
  MODB_COUNTER_ADD("index.rtree3d.leaf_hits", leaf_hits);
}
#endif

RTree3D RTree3D::BulkLoad(std::vector<Entry> entries, int fanout) {
  fanout = std::clamp(fanout, 2, 32);
  RTree3D tree;
  tree.num_entries_ = entries.size();
  MODB_COUNTER_INC("index.rtree3d.bulk_loads");
  MODB_COUNTER_ADD("index.rtree3d.entries_loaded", tree.num_entries_);
  if (entries.empty()) return tree;

  // STR levels, bottom-up (same grouping as the historical pointer
  // tree, so the DFS visit order is preserved). The root is the last
  // temp node.
  std::vector<TempNode> tmp;
  std::vector<int32_t> ids(entries.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = int32_t(i);
  auto entry_cube = [&entries](int32_t i) -> const Cube& {
    return entries[std::size_t(i)].cube;
  };
  std::vector<int32_t> level;
  for (auto& group : StrGroups(std::move(ids), fanout, entry_cube)) {
    TempNode node;
    node.leaf = true;
    node.children = std::move(group);
    for (int32_t e : node.children) node.cube.Extend(entry_cube(e));
    tmp.push_back(std::move(node));
    level.push_back(int32_t(tmp.size()) - 1);
  }
  tree.height_ = 1;
  auto node_cube = [&tmp](int32_t i) -> const Cube& {
    return tmp[std::size_t(i)].cube;
  };
  while (level.size() > 1) {
    const std::size_t prev = level.size();
    auto groups = StrGroups(std::move(level), fanout, node_cube);
    if (groups.size() >= prev) {
      // Degenerate tiling: at small fanout the slab/run arithmetic can
      // emit one group per input, so the level would never shrink.
      // Re-chunk the (already STR-sorted) sequence into runs of
      // `fanout`; with fanout >= 2 this strictly reduces the level.
      std::vector<int32_t> seq;
      seq.reserve(prev);
      for (auto& g : groups) seq.insert(seq.end(), g.begin(), g.end());
      groups.clear();
      for (std::size_t i = 0; i < seq.size(); i += std::size_t(fanout)) {
        const std::size_t j = std::min(seq.size(), i + std::size_t(fanout));
        groups.emplace_back(seq.begin() + i, seq.begin() + j);
      }
    }
    std::vector<int32_t> next;
    for (auto& group : groups) {
      TempNode node;
      node.leaf = false;
      node.children = std::move(group);
      for (int32_t c : node.children) node.cube.Extend(node_cube(c));
      tmp.push_back(std::move(node));
      next.push_back(int32_t(tmp.size()) - 1);
    }
    level = std::move(next);
    ++tree.height_;
  }

  // Flatten in BFS order: the root becomes node 0 and every node's
  // children occupy consecutive flat indices. Pass 1 assigns indices,
  // pass 2 fills the SoA slot planes.
  const int32_t root_tmp = int32_t(tmp.size()) - 1;
  tree.bounds_ = tmp[std::size_t(root_tmp)].cube;
  tree.stride_ = int32_t(fanout + 3) & ~int32_t(3);
  std::vector<int32_t> order;  // BFS sequence of temp indices
  std::vector<int32_t> flat_of(tmp.size(), -1);
  order.reserve(tmp.size());
  order.push_back(root_tmp);
  flat_of[std::size_t(root_tmp)] = 0;
  for (std::size_t head = 0; head < order.size(); ++head) {
    const TempNode& node = tmp[std::size_t(order[head])];
    if (node.leaf) continue;
    for (int32_t c : node.children) {
      flat_of[std::size_t(c)] = int32_t(order.size());
      order.push_back(c);
    }
  }

  const std::size_t num_nodes = order.size();
  const std::size_t num_slots = num_nodes * std::size_t(tree.stride_);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  tree.min_x_.assign(num_slots, kInf);
  tree.min_y_.assign(num_slots, kInf);
  tree.min_t_.assign(num_slots, kInf);
  tree.max_x_.assign(num_slots, -kInf);
  tree.max_y_.assign(num_slots, -kInf);
  tree.max_t_.assign(num_slots, -kInf);
  tree.slot_.assign(num_slots, 0);
  tree.leaf_.resize(num_nodes);
  tree.count_.resize(num_nodes);
  for (std::size_t f = 0; f < num_nodes; ++f) {
    const TempNode& node = tmp[std::size_t(order[f])];
    tree.leaf_[f] = node.leaf ? 1 : 0;
    tree.count_[f] = std::uint16_t(node.children.size());
    const std::size_t base = f * std::size_t(tree.stride_);
    for (std::size_t s = 0; s < node.children.size(); ++s) {
      const int32_t c = node.children[s];
      const Cube& cube =
          node.leaf ? entries[std::size_t(c)].cube : tmp[std::size_t(c)].cube;
      tree.min_x_[base + s] = cube.rect.min_x;
      tree.min_y_[base + s] = cube.rect.min_y;
      tree.min_t_[base + s] = cube.min_t;
      tree.max_x_[base + s] = cube.rect.max_x;
      tree.max_y_[base + s] = cube.rect.max_y;
      tree.max_t_[base + s] = cube.max_t;
      tree.slot_[base + s] = node.leaf ? entries[std::size_t(c)].id
                                       : int64_t(flat_of[std::size_t(c)]);
    }
  }
  return tree;
}

std::vector<int64_t> RTree3D::Query(const Cube& query) const {
  std::vector<int64_t> out;
  Query(query, &out);
  return out;
}

void RTree3D::Query(const Cube& query, std::vector<int64_t>* out) const {
  out->clear();
  QueryVisit(query, [out](int64_t id) { out->push_back(id); });
}

}  // namespace modb
