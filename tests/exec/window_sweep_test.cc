// The window grid's row-major sweep against the window-outer
// formulation it replaced: for every window, every row in row order,
// one binary search for the row's first unit not ending before the
// window. The reference below is that formulation, kept verbatim in
// arithmetic, and the engine must return the same bytes on random
// trails built to hit every edge the sweep's cursor and skips have:
// gaps, open and closed unit ends exactly on window edges, single-instant
// units, windows before the first unit and after the last, sliding,
// tumbling and gapped grids, with and without a rect, on 1, 2 and 4
// workers.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "db/parallel.h"
#include "db/relation.h"
#include "db/relation_io.h"
#include "exec/pipeline.h"
#include "exec/planner.h"
#include "temporal/mapping.h"
#include "temporal/upoint.h"

namespace modb {
namespace exec {
namespace {

// ---- reference: window-outer, one partition_point per (window, row) ----

struct Range {
  double lo = 0;
  double hi = 0;
  bool lc = true;
  bool rc = true;
  bool empty = false;
};

Range Empty() {
  Range r;
  r.empty = true;
  return r;
}

Range Intersect(const Range& a, const Range& b) {
  if (a.empty || b.empty) return Empty();
  Range r;
  if (a.lo > b.lo) {
    r.lo = a.lo;
    r.lc = a.lc;
  } else if (b.lo > a.lo) {
    r.lo = b.lo;
    r.lc = b.lc;
  } else {
    r.lo = a.lo;
    r.lc = a.lc && b.lc;
  }
  if (a.hi < b.hi) {
    r.hi = a.hi;
    r.rc = a.rc;
  } else if (b.hi < a.hi) {
    r.hi = b.hi;
    r.rc = b.rc;
  } else {
    r.hi = a.hi;
    r.rc = a.rc && b.rc;
  }
  if (r.lo > r.hi || (r.lo == r.hi && !(r.lc && r.rc))) return Empty();
  return r;
}

Range Crossing(double c0, double c1, double lo, double hi) {
  Range r;
  if (c1 == 0) {
    if (c0 < lo || c0 > hi) return Empty();
    r.lo = -std::numeric_limits<double>::infinity();
    r.hi = std::numeric_limits<double>::infinity();
    return r;
  }
  double a = (lo - c0) / c1;
  double b = (hi - c0) / c1;
  if (a > b) std::swap(a, b);
  r.lo = a;
  r.hi = b;
  return r;
}

struct RowAgg {
  bool qualifies = false;
  double distance = 0;
  double covered = 0;
};

RowAgg ReferenceRowWindow(const MovingPoint& mp, const Range& window,
                          const WindowAggregateOp& op, bool has_rect) {
  RowAgg agg;
  const std::vector<UPoint>& units = mp.units();
  const auto first = std::partition_point(
      units.begin(), units.end(),
      [&window](const UPoint& u) { return u.interval().end() < window.lo; });
  for (auto it = first; it != units.end(); ++it) {
    const UPoint& u = *it;
    const TimeInterval& iv = u.interval();
    if (iv.start() > window.hi) break;
    Range unit;
    unit.lo = iv.start();
    unit.hi = iv.end();
    unit.lc = iv.left_closed();
    unit.rc = iv.right_closed();
    const Range clip = Intersect(unit, window);
    if (clip.empty) continue;
    const double dur = clip.hi - clip.lo;
    agg.distance += u.Speed() * dur;
    agg.covered += dur;
    if (!agg.qualifies) {
      if (!has_rect) {
        agg.qualifies = true;
      } else {
        const LinearMotion& m = u.motion();
        const Range q = Intersect(
            Intersect(clip, Crossing(m.x0, m.x1, op.min_x, op.max_x)),
            Crossing(m.y0, m.y1, op.min_y, op.max_y));
        if (!q.empty) agg.qualifies = true;
      }
    }
  }
  return agg;
}

// The reference grid as (lo, hi, count, distance, speed) rows.
std::vector<Tuple> ReferenceGrid(const Relation& rel,
                                 const WindowAggregateOp& op) {
  const bool has_rect = op.min_x <= op.max_x && op.min_y <= op.max_y;
  std::vector<Tuple> out;
  for (std::size_t i = 0; op.t0 + double(i) * op.step < op.t1; ++i) {
    Range window;
    window.lo = op.t0 + double(i) * op.step;
    window.hi = window.lo + op.width;
    window.rc = false;
    std::uint64_t count = 0;
    double distance = 0;
    double covered = 0;
    for (const Tuple& t : rel.tuples()) {
      const RowAgg agg = ReferenceRowWindow(
          std::get<MovingPoint>(t[std::size_t(op.attr)]), window, op,
          has_rect);
      if (!agg.qualifies) continue;
      ++count;
      distance += agg.distance;
      covered += agg.covered;
    }
    Tuple row;
    row.emplace_back(RealValue(window.lo));
    row.emplace_back(RealValue(window.hi));
    row.emplace_back(IntValue(std::int64_t(count)));
    row.emplace_back(RealValue(distance));
    row.emplace_back(RealValue(covered > 0 ? distance / covered : 0.0));
    out.push_back(std::move(row));
  }
  return out;
}

// ---- random trails ------------------------------------------------------

// A trail on a half-unit time grid (so unit ends fall exactly on window
// edges), mixing gaps, single-instant units, and open and closed ends.
MovingPoint RandomTrail(std::mt19937_64* rng) {
  std::uniform_int_distribution<int> halves(0, 4);
  std::uniform_int_distribution<int> shape(0, 9);
  std::uniform_real_distribution<double> coord(-20, 20);
  std::uniform_real_distribution<double> speed(-3, 3);
  const int units = std::uniform_int_distribution<int>(0, 14)(*rng);
  double t = 0.5 * halves(*rng) + 2;
  bool prev_rc = false;
  bool first = true;
  std::vector<UPoint> out;
  for (int k = 0; k < units; ++k) {
    const int s = shape(*rng);
    if (s < 3) t += 0.5 * (1 + halves(*rng));  // a gap
    bool lc = shape(*rng) < 6;
    bool rc = shape(*rng) < 4;
    double end = t + 0.5 * (1 + halves(*rng));
    if (s == 9) {  // a single instant, closed on both sides
      if (!first && prev_rc) t += 0.5;
      end = t;
      lc = rc = true;
    } else if (!first && prev_rc) {
      lc = false;  // abut a closed end: stay disjoint
    }
    Result<TimeInterval> iv = TimeInterval::Make(t, end, lc, rc);
    EXPECT_TRUE(iv.ok()) << iv.status();
    const LinearMotion m{coord(*rng), speed(*rng), coord(*rng), speed(*rng)};
    Result<UPoint> u = UPoint::Make(*iv, m);
    EXPECT_TRUE(u.ok());
    out.push_back(*u);
    t = end;
    prev_rc = rc;
    first = false;
  }
  Result<MovingPoint> mp = MovingPoint::Make(std::move(out));
  EXPECT_TRUE(mp.ok()) << mp.status();
  return mp.ok() ? *std::move(mp) : MovingPoint();
}

Relation RandomTrails(int rows, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Relation rel("trails", Schema({{"id", AttributeType::kInt},
                                 {"trail", AttributeType::kMovingPoint}}));
  for (int r = 0; r < rows; ++r) {
    Tuple t;
    t.emplace_back(IntValue(r));
    t.emplace_back(RandomTrail(&rng));
    EXPECT_TRUE(rel.Insert(std::move(t)).ok());
  }
  return rel;
}

// Grids from before the earliest unit (t = 2) to t = 60, past the end of
// almost every trail, sliding, tumbling and gapped, with and without a
// rect; and one grid wholly after every trail, one wholly before.
std::vector<WindowAggregateOp> Grids() {
  std::vector<WindowAggregateOp> grids;
  const double widths_steps[][2] = {
      {2, 1}, {3, 0.5}, {2, 2}, {1.5, 1.5}, {1, 2.5}, {0.5, 4}, {7, 3}};
  for (const auto& ws : widths_steps) {
    for (bool rect : {false, true}) {
      WindowAggregateOp op;
      op.attr = 1;
      op.t0 = -1;
      op.t1 = 60;
      op.width = ws[0];
      op.step = ws[1];
      if (rect) {
        op.min_x = -10;
        op.min_y = -5;
        op.max_x = 10;
        op.max_y = 15;
      }  // else max < min: the rect is disabled
      grids.push_back(op);
    }
  }
  WindowAggregateOp after;
  after.attr = 1;
  after.t0 = 200;
  after.t1 = 210;
  after.width = 2;
  after.step = 1;
  grids.push_back(after);
  WindowAggregateOp before = after;
  before.t0 = -30;
  before.t1 = -5;
  grids.push_back(before);
  return grids;
}

void ExpectSameBytes(const std::vector<Tuple>& a, const Relation& b,
                     const std::string& what) {
  ASSERT_EQ(a.size(), b.NumTuples()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b.tuple(i).size()) << what;
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      Result<std::string> sa = SerializeAttribute(a[i][j]);
      Result<std::string> sb = SerializeAttribute(b.tuple(i)[j]);
      ASSERT_TRUE(sa.ok() && sb.ok());
      ASSERT_EQ(*sa, *sb) << what << ": window " << i << " column " << j;
    }
  }
}

Result<PlanOutput> RunGrid(const Relation* rel, const WindowAggregateOp& op,
                           int threads) {
  LogicalQuery q;
  q.rel = rel;
  q.window = op;
  Result<PhysicalPlan> plan = PlanQuery(q);
  if (!plan.ok()) return plan.status();
  ExecOptions options;
  options.parallel.num_threads = threads;
  return RunPlan(*plan, options);
}

TEST(WindowSweep, MatchesWindowOuterReferenceOnRandomTrails) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Relation rel = RandomTrails(40, seed);
    for (const WindowAggregateOp& op : Grids()) {
      const std::vector<Tuple> expect = ReferenceGrid(rel, op);
      for (int threads : {1, 2, 4}) {
        Result<PlanOutput> out = RunGrid(&rel, op, threads);
        ASSERT_TRUE(out.ok()) << out.status();
        ExpectSameBytes(expect, out->rows,
                        "seed " + std::to_string(seed) + " width " +
                            std::to_string(op.width) + " step " +
                            std::to_string(op.step) + " threads " +
                            std::to_string(threads));
      }
    }
  }
}

// The grids above must actually reach the cases the sweep special-cases.
TEST(WindowSweep, RandomTrailsCoverTheEdgeCases) {
  const Relation rel = RandomTrails(40, 1);
  bool gap = false, single = false, open_on_grid = false,
       closed_on_grid = false, empty = false;
  for (const Tuple& t : rel.tuples()) {
    const std::vector<UPoint>& units = std::get<MovingPoint>(t[1]).units();
    empty |= units.empty();
    for (std::size_t k = 0; k < units.size(); ++k) {
      const TimeInterval& iv = units[k].interval();
      single |= iv.start() == iv.end();
      open_on_grid |= !iv.right_closed();
      closed_on_grid |= iv.right_closed() && iv.start() < iv.end();
      if (k > 0) gap |= units[k - 1].interval().end() < iv.start();
    }
  }
  EXPECT_TRUE(gap);
  EXPECT_TRUE(single);
  EXPECT_TRUE(open_on_grid);
  EXPECT_TRUE(closed_on_grid);
  EXPECT_TRUE(empty);
}

}  // namespace
}  // namespace exec
}  // namespace modb
