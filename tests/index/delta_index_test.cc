// IndexSnapshot / IndexLayersView: the LSM layer stack must visit the
// same candidate set as one bulk-loaded tree over the same entries, no
// matter how the entries are split across base/delta/mem — and the
// off-lock merge protocol must reject a plan whose generation a seal
// overtook.

#include "index/delta_index.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "index/rtree3d.h"
#include "spatial/bbox.h"

namespace modb {
namespace {

Cube UnitCube(double x, double y, double t) {
  return Cube(Rect(x, y, x + 1, y + 1), t, t + 1);
}

std::vector<RTree3D::Entry> MakeEntries(int n, std::uint64_t seed) {
  std::vector<RTree3D::Entry> entries;
  std::uint64_t s = seed;
  for (int i = 0; i < n; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const double x = double((s >> 33) % 100);
    const double y = double((s >> 13) % 100);
    const double t = double(i % 50);
    entries.push_back({UnitCube(x, y, t), std::int64_t(i % 17)});
  }
  return entries;
}

// Installs `entries` as the mem layer, one SetMemRow call per id.
void SetMem(IndexSnapshot* stack, const std::vector<RTree3D::Entry>& entries) {
  std::map<std::int64_t, std::vector<RTree3D::Entry>> by_id;
  for (const RTree3D::Entry& e : entries) by_id[e.id].push_back(e);
  for (const auto& [id, rows] : by_id) stack->SetMemRow(id, rows);
}

std::vector<std::int64_t> Collect(const IndexLayersView& view,
                                  const Cube& query) {
  std::vector<std::int64_t> ids;
  view.QueryVisit(query, [&ids](std::int64_t id) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

TEST(DeltaIndex, AnyLayeringMatchesASingleBulkTree) {
  const std::vector<RTree3D::Entry> entries = MakeEntries(300, 5);
  RTree3D single = RTree3D::BulkLoad(entries, 16);
  const IndexLayersView single_view = IndexLayersView::Single(&single);

  // Split 60% into base, 30% into delta, 10% into mem.
  IndexSnapshot stack;
  const std::size_t base_end = 180, delta_end = 270;
  stack.ResetBase(
      std::vector<RTree3D::Entry>(entries.begin(), entries.begin() + base_end),
      16);
  stack.AppendToDelta(
      std::vector<RTree3D::Entry>(entries.begin() + base_end,
                                  entries.begin() + delta_end),
      16);
  SetMem(&stack, std::vector<RTree3D::Entry>(entries.begin() + delta_end,
                                             entries.end()));

  std::uint64_t probe_seed = 99;
  for (int i = 0; i < 50; ++i) {
    probe_seed = probe_seed * 6364136223846793005ULL + 1442695040888963407ULL;
    Cube q = UnitCube(double((probe_seed >> 33) % 100),
                      double((probe_seed >> 13) % 100), double(i));
    q.rect.max_x += 10;
    q.rect.max_y += 10;
    q.max_t += 10;
    EXPECT_EQ(Collect(single_view, q), Collect(stack.View(), q))
        << "probe " << i;
  }
  // And after an inline compaction the union is unchanged.
  stack.MergeInline(16);
  EXPECT_EQ(0u, stack.DeltaEntries());
  for (int i = 0; i < 50; ++i) {
    Cube q = UnitCube(double(i % 100), double((i * 7) % 100), double(i % 50));
    q.rect.max_x += 15;
    q.rect.max_y += 15;
    q.max_t += 15;
    EXPECT_EQ(Collect(single_view, q), Collect(stack.View(), q));
  }
}

TEST(DeltaIndex, MemRowUpdatesKeepExactlyEachRowsLatestEntries) {
  // Grow, shrink, clear and rewrite rows in a seeded order; after every
  // update mem must hold exactly the union of each row's latest entries.
  IndexSnapshot stack;
  std::map<std::int64_t, std::vector<RTree3D::Entry>> model;
  std::uint64_t s = 17;
  for (int step = 0; step < 400; ++step) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::int64_t id = std::int64_t((s >> 33) % 7);
    const std::size_t n = std::size_t((s >> 40) % 5);
    std::vector<RTree3D::Entry> entries;
    for (std::size_t i = 0; i < n; ++i) {
      entries.push_back({UnitCube(double(step), double(i), double(id)), id});
    }
    stack.SetMemRow(id, entries);
    model[id] = entries;

    std::vector<std::tuple<double, double, std::int64_t>> want, got;
    for (const auto& [row, row_entries] : model) {
      for (const RTree3D::Entry& e : row_entries) {
        want.emplace_back(e.cube.rect.min_x, e.cube.rect.min_y, e.id);
      }
    }
    const IndexLayersView view = stack.View();
    for (std::size_t i = 0; i < view.mem_count; ++i) {
      got.emplace_back(view.mem[i].cube.rect.min_x,
                       view.mem[i].cube.rect.min_y, view.mem[i].id);
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    ASSERT_EQ(want, got) << "step " << step;
    EXPECT_EQ(want.size(), stack.MemEntries());
  }
}

TEST(DeltaIndex, StaleMergePlanIsRejected) {
  const std::vector<RTree3D::Entry> entries = MakeEntries(100, 3);
  IndexSnapshot stack;
  stack.AppendToDelta(entries, 16);

  std::optional<MergePlan> plan = stack.PrepareMerge();
  ASSERT_TRUE(plan.has_value());

  // A seal event lands between prepare and apply: the generation moved,
  // so the built tree would be missing the new entries.
  stack.AppendToDelta(MakeEntries(10, 4), 16);

  RTree3D merged = RTree3D::BulkLoad(plan->entries, 16);
  EXPECT_FALSE(stack.ApplyMerge(*plan, std::move(merged)));
  EXPECT_EQ(0u, stack.BaseEntries()) << "a stale merge must not install";
  EXPECT_EQ(110u, stack.DeltaEntries());

  // Re-prepared against the current generation, it lands.
  plan = stack.PrepareMerge();
  ASSERT_TRUE(plan.has_value());
  RTree3D remerged = RTree3D::BulkLoad(plan->entries, 16);
  EXPECT_TRUE(stack.ApplyMerge(*plan, std::move(remerged)));
  EXPECT_EQ(110u, stack.BaseEntries());
  EXPECT_EQ(0u, stack.DeltaEntries());
  EXPECT_EQ(1u, stack.merges());
}

TEST(DeltaIndex, EmptyDeltaHasNothingToMerge) {
  IndexSnapshot stack;
  EXPECT_FALSE(stack.PrepareMerge().has_value());
  SetMem(&stack, MakeEntries(5, 9));
  EXPECT_FALSE(stack.PrepareMerge().has_value())
      << "mem is not merge input - only sealed (delta) entries compact";
}

}  // namespace
}  // namespace modb
