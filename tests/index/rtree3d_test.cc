#include "index/rtree3d.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "core/simd.h"
#include "obs/metrics.h"

namespace modb {
namespace {

Cube MakeCube(double x, double y, double t, double ext) {
  return Cube(Rect(x, y, x + ext, y + ext), t, t + ext);
}

TEST(RTree3D, EmptyTree) {
  RTree3D tree = RTree3D::BulkLoad({});
  EXPECT_EQ(tree.NumEntries(), 0u);
  EXPECT_TRUE(tree.Query(MakeCube(0, 0, 0, 100)).empty());
}

TEST(RTree3D, SingleEntry) {
  RTree3D tree = RTree3D::BulkLoad({{MakeCube(5, 5, 5, 1), 42}});
  auto hits = tree.Query(MakeCube(5.5, 5.5, 5.5, 0.1));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 42);
  EXPECT_TRUE(tree.Query(MakeCube(50, 50, 50, 1)).empty());
}

TEST(RTree3D, TouchingBoxesCount) {
  RTree3D tree = RTree3D::BulkLoad({{MakeCube(0, 0, 0, 1), 1}});
  // Shares exactly the corner point (1,1,1).
  EXPECT_EQ(tree.Query(MakeCube(1, 1, 1, 1)).size(), 1u);
}

TEST(RTree3D, TimeDimensionFilters) {
  RTree3D tree = RTree3D::BulkLoad(
      {{Cube(Rect(0, 0, 1, 1), 0, 1), 1}, {Cube(Rect(0, 0, 1, 1), 10, 11), 2}});
  auto hits = tree.Query(Cube(Rect(0, 0, 1, 1), 10.5, 10.6));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 2);
}

class RTreeBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(RTreeBruteForce, MatchesLinearScan) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> pos(0, 100);
  std::uniform_real_distribution<double> ext(0.5, 8);
  std::vector<RTree3D::Entry> entries;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    entries.push_back({MakeCube(pos(rng), pos(rng), pos(rng), ext(rng)), i});
  }
  RTree3D tree = RTree3D::BulkLoad(entries, 8);
  EXPECT_EQ(tree.NumEntries(), std::size_t(n));
  EXPECT_GE(tree.Height(), 2);
  for (int q = 0; q < 20; ++q) {
    Cube query = MakeCube(pos(rng), pos(rng), pos(rng), ext(rng) * 3);
    std::vector<int64_t> expected;
    for (const auto& e : entries) {
      if (Cube::Intersect(e.cube, query)) expected.push_back(e.id);
    }
    std::vector<int64_t> got = tree.Query(query);
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RTreeBruteForce, ::testing::Range(0, 10));

// Reference pointer-based STR R-tree (the pre-flattening
// implementation, ported verbatim): same Sort-Tile-Recursive grouping,
// same recursive DFS, so the flat level-ordered tree must reproduce its
// emitted id sequence exactly — not just the same set.
class PointerRTree {
 public:
  static PointerRTree Build(std::vector<RTree3D::Entry> entries, int fanout) {
    fanout = std::clamp(fanout, 2, 32);
    PointerRTree tree;
    tree.entries_ = std::move(entries);
    if (tree.entries_.empty()) return tree;
    std::vector<int32_t> ids(tree.entries_.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = int32_t(i);
    auto entry_cube = [&tree](int32_t i) -> const Cube& {
      return tree.entries_[std::size_t(i)].cube;
    };
    std::vector<int32_t> level;
    for (auto& group : StrGroups(std::move(ids), fanout, entry_cube)) {
      Node node;
      node.leaf = true;
      node.children = std::move(group);
      for (int32_t e : node.children) node.cube.Extend(entry_cube(e));
      tree.nodes_.push_back(std::move(node));
      level.push_back(int32_t(tree.nodes_.size()) - 1);
    }
    auto node_cube = [&tree](int32_t i) -> const Cube& {
      return tree.nodes_[std::size_t(i)].cube;
    };
    while (level.size() > 1) {
      const std::size_t prev = level.size();
      auto groups = StrGroups(std::move(level), fanout, node_cube);
      if (groups.size() >= prev) {
        // Same degenerate-tiling guard as RTree3D::BulkLoad so the two
        // builds keep identical shapes.
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
        Node node;
        node.leaf = false;
        node.children = std::move(group);
        for (int32_t c : node.children) node.cube.Extend(node_cube(c));
        tree.nodes_.push_back(std::move(node));
        next.push_back(int32_t(tree.nodes_.size()) - 1);
      }
      level = std::move(next);
    }
    return tree;
  }

  std::vector<int64_t> Query(const Cube& query) const {
    std::vector<int64_t> out;
    if (!nodes_.empty()) VisitRec(int32_t(nodes_.size()) - 1, query, &out);
    return out;
  }

 private:
  struct Node {
    Cube cube;
    bool leaf = true;
    std::vector<int32_t> children;
  };

  static double CenterX(const Cube& c) { return (c.rect.min_x + c.rect.max_x) / 2; }
  static double CenterY(const Cube& c) { return (c.rect.min_y + c.rect.max_y) / 2; }
  static double CenterT(const Cube& c) { return (c.min_t + c.max_t) / 2; }

  template <typename GetCube>
  static std::vector<std::vector<int32_t>> StrGroups(std::vector<int32_t> items,
                                                     int fanout,
                                                     GetCube cube_of) {
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

  void VisitRec(int32_t node_idx, const Cube& query,
                std::vector<int64_t>* out) const {
    const Node& node = nodes_[std::size_t(node_idx)];
    if (!Cube::Intersect(node.cube, query)) return;
    if (node.leaf) {
      for (int32_t e : node.children) {
        const RTree3D::Entry& entry = entries_[std::size_t(e)];
        if (Cube::Intersect(entry.cube, query)) out->push_back(entry.id);
      }
      return;
    }
    for (int32_t c : node.children) VisitRec(c, query, out);
  }

  std::vector<RTree3D::Entry> entries_;
  std::vector<Node> nodes_;
};

std::vector<RTree3D::Entry> RandomEntries(std::mt19937_64* rng, int n) {
  std::uniform_real_distribution<double> pos(0, 100);
  std::uniform_real_distribution<double> ext(0.5, 8);
  std::vector<RTree3D::Entry> entries;
  entries.reserve(std::size_t(n));
  for (int i = 0; i < n; ++i) {
    entries.push_back(
        {MakeCube(pos(*rng), pos(*rng), pos(*rng), ext(*rng)), i});
  }
  return entries;
}

// The flat tree must emit the exact same id sequence as the pointer
// tree's recursive DFS (BFS flatten + reverse stack push preserves the
// traversal order, not just the result set).
TEST(RTree3D, FlattenMatchesPointerTreeVisitSequence) {
  for (int fanout : {2, 4, 8, 16, 27}) {
    for (int n : {1, 7, 63, 400}) {
      std::mt19937_64 rng(std::uint64_t(fanout * 1000 + n));
      std::vector<RTree3D::Entry> entries = RandomEntries(&rng, n);
      RTree3D flat = RTree3D::BulkLoad(entries, fanout);
      PointerRTree ref = PointerRTree::Build(entries, fanout);
      std::uniform_real_distribution<double> pos(0, 100);
      std::uniform_real_distribution<double> ext(0.5, 8);
      for (int q = 0; q < 25; ++q) {
        Cube query = MakeCube(pos(rng), pos(rng), pos(rng), ext(rng) * 3);
        std::vector<int64_t> got;
        flat.QueryVisit(query, [&got](int64_t id) { got.push_back(id); });
        EXPECT_EQ(got, ref.Query(query))
            << "fanout=" << fanout << " n=" << n << " q=" << q;
      }
    }
  }
}

// Differential check of the two hit-mask kernels: the AVX2
// specialization must produce the exact visit sequence of the scalar
// core (same comparisons, no reordering). Skipped (scalar vs scalar)
// on machines without AVX2.
TEST(RTree3D, SimdMatchesScalarVisitSequence) {
  std::mt19937_64 rng(99);
  std::vector<RTree3D::Entry> entries = RandomEntries(&rng, 500);
  RTree3D tree = RTree3D::BulkLoad(entries, 16);
  std::uniform_real_distribution<double> pos(0, 100);
  std::uniform_real_distribution<double> ext(0.5, 8);
  std::vector<Cube> queries;
  for (int q = 0; q < 50; ++q) {
    queries.push_back(MakeCube(pos(rng), pos(rng), pos(rng), ext(rng) * 3));
  }
  // Degenerate windows too: empty-intersection and all-covering.
  queries.push_back(MakeCube(500, 500, 500, 1));
  queries.push_back(MakeCube(-100, -100, -100, 400));
  for (const Cube& query : queries) {
    simd::SetSimdMode(simd::Mode::kScalar);
    std::vector<int64_t> scalar;
    tree.QueryVisit(query, [&scalar](int64_t id) { scalar.push_back(id); });
    simd::SetSimdMode(simd::Mode::kAvx2);
    std::vector<int64_t> vec;
    tree.QueryVisit(query, [&vec](int64_t id) { vec.push_back(id); });
    simd::SetSimdMode(simd::Mode::kAuto);
    EXPECT_EQ(scalar, vec);
  }
}

TEST(RTree3D, VisitorShortForm) {
  RTree3D tree = RTree3D::BulkLoad(
      {{MakeCube(0, 0, 0, 1), 1}, {MakeCube(2, 2, 2, 1), 2}});
  int count = 0;
  tree.QueryVisit(MakeCube(-1, -1, -1, 10), [&count](int64_t) { ++count; });
  EXPECT_EQ(count, 2);
}

// The caller-buffer overload fills the provided vector (clearing it
// first) and matches the allocating overload exactly.
TEST(RTree3D, CallerBufferOverload) {
  std::mt19937_64 rng(7);
  RTree3D tree = RTree3D::BulkLoad(RandomEntries(&rng, 300), 8);
  std::uniform_real_distribution<double> pos(0, 100);
  std::vector<int64_t> buf = {111, 222};  // stale content must be cleared
  for (int q = 0; q < 10; ++q) {
    Cube query = MakeCube(pos(rng), pos(rng), pos(rng), 12);
    tree.Query(query, &buf);
    EXPECT_EQ(buf, tree.Query(query));
  }
}

// The index.rtree3d.* query counters' growth across `run`.
template <typename Fn>
std::array<std::uint64_t, 4> QueryCounterDeltas(Fn run) {
#ifdef MODB_NO_METRICS
  run();
  return {};
#else
  static constexpr const char* kNames[4] = {
      "index.rtree3d.queries", "index.rtree3d.node_visits",
      "index.rtree3d.leaf_entry_tests", "index.rtree3d.leaf_hits"};
  std::array<std::uint64_t, 4> before;
  for (int i = 0; i < 4; ++i) {
    before[i] = obs::Metrics::Global().counter(kNames[i])->value();
  }
  run();
  std::array<std::uint64_t, 4> delta;
  for (int i = 0; i < 4; ++i) {
    delta[i] = obs::Metrics::Global().counter(kNames[i])->value() - before[i];
  }
  return delta;
#endif
}

// Accumulating the traversal tallies over many queries and flushing once
// visits the same ids and adds the same registry totals as flushing
// after every query.
TEST(RTree3D, OneFlushPerBatchAddsThePerQueryTotals) {
#ifdef MODB_NO_METRICS
  GTEST_SKIP() << "metrics registry compiled out";
#endif
  std::mt19937_64 rng(11);
  RTree3D tree = RTree3D::BulkLoad(RandomEntries(&rng, 500), 8);
  std::uniform_real_distribution<double> pos(0, 100);
  std::vector<Cube> queries;
  for (int q = 0; q < 40; ++q) {
    queries.push_back(MakeCube(pos(rng), pos(rng), pos(rng), 15));
  }
  std::vector<int64_t> per_query_ids, batched_ids;
  const auto per_query = QueryCounterDeltas([&] {
    for (const Cube& q : queries) {
      tree.QueryVisit(q, [&](int64_t id) { per_query_ids.push_back(id); });
    }
  });
  const auto batched = QueryCounterDeltas([&] {
    RTree3D::QueryCounters counters;
    for (const Cube& q : queries) {
      tree.QueryVisit(
          q, [&](int64_t id) { batched_ids.push_back(id); }, &counters);
    }
    counters.Flush();
  });
  EXPECT_EQ(batched_ids, per_query_ids);
  EXPECT_EQ(batched, per_query);
  EXPECT_EQ(per_query[0], queries.size());
  EXPECT_GT(per_query[3], 0u);
}

}  // namespace
}  // namespace modb
