#include "temporal/mapping.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>

#include "temporal/moving.h"

namespace modb {
namespace {

TimeInterval TI(double s, double e, bool lc = true, bool rc = true) {
  return *TimeInterval::Make(s, e, lc, rc);
}

UBool UB(double s, double e, bool v, bool lc = true, bool rc = true) {
  return *UBool::Make(TI(s, e, lc, rc), v);
}

TEST(MappingMake, SortsUnitsByInterval) {
  auto m = MovingBool::Make({UB(4, 5, true), UB(0, 1, false)});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->unit(0).interval().start(), 0);
  EXPECT_EQ(m->unit(1).interval().start(), 4);
}

TEST(MappingMake, RejectsOverlappingIntervals) {
  EXPECT_FALSE(MovingBool::Make({UB(0, 2, true), UB(1, 3, false)}).ok());
}

TEST(MappingMake, RejectsAdjacentEqualValues) {
  // Mapping constraint (ii): adjacent intervals must carry distinct unit
  // functions (minimal representation).
  EXPECT_FALSE(MovingBool::Make({UB(0, 1, true, true, false),
                                 UB(1, 2, true)}).ok());
}

TEST(MappingMake, AdjacentDistinctValuesOk) {
  EXPECT_TRUE(MovingBool::Make({UB(0, 1, true, true, false),
                                UB(1, 2, false)}).ok());
}

TEST(MappingMake, GapAllowsEqualValues) {
  // [0,1) and (1,2]: not adjacent (instant 1 missing) → equal values fine.
  EXPECT_TRUE(MovingBool::Make({UB(0, 1, true, true, false),
                                UB(1, 2, true, false, true)}).ok());
}

// Make as it behaved before it skipped the sort of in-order input:
// sort, then check every adjacent pair.
Result<MovingBool> SortThenMake(std::vector<UBool> units) {
  std::sort(units.begin(), units.end(), [](const UBool& a, const UBool& b) {
    return a.interval() < b.interval();
  });
  return MovingBool::Make(std::move(units));
}

void ExpectSameMake(const Result<MovingBool>& got,
                    const Result<MovingBool>& want) {
  ASSERT_EQ(got.ok(), want.ok());
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  ASSERT_EQ(got->NumUnits(), want->NumUnits());
  for (std::size_t i = 0; i < got->NumUnits(); ++i) {
    EXPECT_EQ(got->unit(i).interval(), want->unit(i).interval());
    EXPECT_EQ(got->unit(i).value(), want->unit(i).value());
  }
}

TEST(MappingMake, InOrderInputSkipsOnlyTheSort) {
  std::mt19937_64 rng(31);
  int valid = 0, invalid = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // Units in time order with random gaps: positive (disjoint), zero
    // (adjacent, or touching at a shared closed end) or negative
    // (overlapping), plus the odd exact duplicate.
    std::vector<UBool> units;
    double t = 0;
    const int n = 1 + int(rng() % 8);
    for (int i = 0; i < n; ++i) {
      const int gap = int(rng() % 4) - 1;  // -1, 0, 1 or 2
      const double start = units.empty() ? 0 : t + 0.5 * gap;
      const bool lc = rng() % 2 == 0;
      const bool rc = rng() % 2 == 0;
      units.push_back(UB(start, start + 1, rng() % 2 == 0, lc, rc));
      if (rng() % 10 == 0) units.push_back(units.back());
      t = start + 1;
    }
    const Result<MovingBool> in_order = MovingBool::Make(units);
    ExpectSameMake(in_order, SortThenMake(units));
    (in_order.ok() ? valid : invalid) += 1;
    std::vector<UBool> shuffled = units;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    ExpectSameMake(MovingBool::Make(shuffled), SortThenMake(shuffled));
    ExpectSameMake(MovingBool::Make(shuffled), in_order);
  }
  // Both outcomes were exercised.
  EXPECT_GT(valid, 20);
  EXPECT_GT(invalid, 20);
}

TEST(MappingAppend, AppliesMakesPairTestToTheNewUnitOnly) {
  MovingBool m;
  ASSERT_TRUE(m.AppendUnit(UB(0, 1, true, true, false)).ok());
  ASSERT_TRUE(m.AppendUnit(UB(1, 2, false)).ok());
  // Overlap, out of order and a mergeable neighbour are rejected, and a
  // rejected append leaves the mapping as it was.
  EXPECT_FALSE(m.AppendUnit(UB(1.5, 3, true)).ok());
  EXPECT_FALSE(m.AppendUnit(UB(-2, -1, true)).ok());
  EXPECT_FALSE(m.AppendUnit(UB(2, 3, false, false, true)).ok());
  ASSERT_EQ(2u, m.NumUnits());
  ASSERT_TRUE(m.AppendUnit(UB(2, 3, true, false, true)).ok());
  // Whatever the appends accepted, Make accepts too.
  EXPECT_TRUE(MovingBool::Make(m.units()).ok());
}

TEST(MappingAppend, ReplaceLastChecksAgainstThePredecessor) {
  MovingBool m;
  EXPECT_FALSE(m.ReplaceLastUnit(UB(0, 1, true)).ok());
  ASSERT_TRUE(m.AppendUnit(UB(0, 1, true, true, false)).ok());
  ASSERT_TRUE(m.AppendUnit(UB(1, 2, false)).ok());
  // Now mergeable with unit 0: rejected, unchanged.
  EXPECT_FALSE(m.ReplaceLastUnit(UB(1, 2, true)).ok());
  EXPECT_FALSE(m.unit(1).value());
  ASSERT_TRUE(m.ReplaceLastUnit(UB(1, 4, false)).ok());
  EXPECT_EQ(4, m.unit(1).interval().end());
}

TEST(MappingAppend, DropsOnlyThisCopysSearchIndex) {
  MovingBool m = *MovingBool::Make({UB(0, 1, true, true, false)});
  const MovingBool copy = m;
  ASSERT_TRUE(m.AppendUnit(UB(1, 2, false)).ok());
  EXPECT_EQ(std::optional<std::size_t>(1), m.FindUnit(1.5));
  // The copy keeps its one unit.
  EXPECT_EQ(1u, copy.NumUnits());
  EXPECT_FALSE(copy.FindUnit(1.5).has_value());
}

// Copies share one unit array until either side is written; the write
// clones it first, so whichever side did not write keeps its units, and
// the writer sees only its own change.
TEST(MappingSharedUnits, WritesOnEitherSideOfACopyStayOnThatSide) {
  const std::vector<UBool> base = {UB(0, 1, true, true, false),
                                   UB(1, 2, false, true, false)};
  enum class Op { kAppend, kReplace };
  for (Op op : {Op::kAppend, Op::kReplace}) {
    for (bool write_original : {true, false}) {
      MovingBool m = *MovingBool::Make(base);
      MovingBool copy = m;
      EXPECT_EQ(&m.units(), &copy.units());

      MovingBool& writer = write_original ? m : copy;
      const MovingBool& other = write_original ? copy : m;
      const std::vector<UBool>* other_units = &other.units();
      if (op == Op::kAppend) {
        ASSERT_TRUE(writer.AppendUnit(UB(2, 3, true)).ok());
      } else {
        ASSERT_TRUE(writer.ReplaceLastUnit(UB(1, 5, false)).ok());
      }
      // The writer cloned.
      EXPECT_NE(&writer.units(), other_units);
      // The other side is untouched: same array, same units.
      EXPECT_EQ(&other.units(), other_units);
      ASSERT_EQ(2u, other.NumUnits());
      EXPECT_EQ(2, other.unit(1).interval().end());
      EXPECT_EQ(std::optional<std::size_t>(1), other.FindUnit(1.5));
      EXPECT_FALSE(other.FindUnit(2.5).has_value());
      EXPECT_FALSE(other.FindUnit(4).has_value());
      // The writer has its change.
      if (op == Op::kAppend) {
        ASSERT_EQ(3u, writer.NumUnits());
        EXPECT_EQ(std::optional<std::size_t>(2), writer.FindUnit(2.5));
      } else {
        ASSERT_EQ(2u, writer.NumUnits());
        EXPECT_EQ(std::optional<std::size_t>(1), writer.FindUnit(4));
      }
    }
  }
}

// A sole owner writes in place: no clone, the same array throughout.
TEST(MappingSharedUnits, SoleOwnerAppendsInPlace) {
  MovingBool m;
  ASSERT_TRUE(m.AppendUnit(UB(0, 1, true, true, false)).ok());
  const std::vector<UBool>* array = &m.units();
  for (int i = 1; i < 50; ++i) {
    ASSERT_TRUE(m.AppendUnit(UB(i, i + 1, i % 2 == 0, true, false)).ok());
    ASSERT_TRUE(
        m.ReplaceLastUnit(UB(i, i + 1, i % 2 == 0, true, i % 3 == 0)).ok());
    ASSERT_TRUE(m.ReplaceLastUnit(UB(i, i + 1, i % 2 == 0, true, false)).ok());
  }
  EXPECT_EQ(&m.units(), array);
  EXPECT_EQ(50u, m.NumUnits());
  // A copy that has died no longer counts as a sharer.
  { const MovingBool copy = m; }
  ASSERT_TRUE(m.AppendUnit(UB(50, 51, true)).ok());
  EXPECT_EQ(&m.units(), array);
  // Moving hands the array over, unshared.
  MovingBool moved = std::move(m);
  ASSERT_TRUE(moved.ReplaceLastUnit(UB(50, 52, true)).ok());
  EXPECT_EQ(&moved.units(), array);
}

TEST(MappingFindUnit, BinaryVsLinearAgree) {
  std::vector<UBool> units;
  for (int i = 0; i < 20; ++i) {
    units.push_back(UB(2 * i, 2 * i + 1, i % 2 == 0));
  }
  MovingBool m = *MovingBool::Make(units);
  for (double t = -1; t < 41; t += 0.25) {
    EXPECT_EQ(m.FindUnit(t), m.FindUnitLinear(t)) << t;
  }
}

TEST(MappingAtInstant, DefinedAndUndefined) {
  MovingBool m = *MovingBool::Make({UB(0, 1, true), UB(2, 3, false)});
  EXPECT_TRUE(m.AtInstant(0.5).defined);
  EXPECT_TRUE(m.AtInstant(0.5).val());
  EXPECT_FALSE(m.AtInstant(2.5).val());
  EXPECT_FALSE(m.AtInstant(1.5).defined);  // In the gap.
  EXPECT_FALSE(m.AtInstant(-1).defined);
}

TEST(MappingPresent, InstantAndPeriods) {
  MovingBool m = *MovingBool::Make({UB(0, 1, true), UB(2, 3, false)});
  EXPECT_TRUE(m.Present(0.5));
  EXPECT_FALSE(m.Present(1.5));
  EXPECT_TRUE(m.Present(Periods::FromIntervals({TI(1.2, 2.2)})));
  EXPECT_FALSE(m.Present(Periods::FromIntervals({TI(1.2, 1.8)})));
}

TEST(MappingDefTime, MergesAdjacentUnits) {
  MovingBool m = *MovingBool::Make(
      {UB(0, 1, true, true, false), UB(1, 2, false), UB(5, 6, true)});
  Periods dt = m.DefTime();
  ASSERT_EQ(dt.NumIntervals(), 2u);
  EXPECT_EQ(dt.interval(0), TI(0, 2));
  EXPECT_EQ(dt.interval(1), TI(5, 6));
}

TEST(MappingAtPeriods, SlicesUnits) {
  MovingBool m = *MovingBool::Make({UB(0, 10, true)});
  auto r = m.AtPeriods(Periods::FromIntervals({TI(2, 3), TI(5, 6)}));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumUnits(), 2u);
  EXPECT_EQ(r->unit(0).interval(), TI(2, 3));
  EXPECT_EQ(r->unit(1).interval(), TI(5, 6));
  EXPECT_TRUE(r->AtInstant(2.5).val());
  EXPECT_FALSE(r->Present(4));
}

TEST(MappingAtPeriods, EmptyIntersection) {
  MovingBool m = *MovingBool::Make({UB(0, 1, true)});
  auto r = m.AtPeriods(Periods::FromIntervals({TI(5, 6)}));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsEmpty());
}

TEST(MappingInitialFinal, FirstAndLastValues) {
  MovingReal m = *MovingReal::Make(
      {*UReal::Make(TI(0, 1), 0, 1, 0, false),      // t on [0,1].
       *UReal::Make(TI(2, 3), 0, 0, 42, false)});   // 42 on [2,3].
  Intime<double> init = m.Initial();
  EXPECT_TRUE(init.defined);
  EXPECT_DOUBLE_EQ(init.inst(), 0);
  EXPECT_DOUBLE_EQ(init.val(), 0);
  Intime<double> fin = m.Final();
  EXPECT_DOUBLE_EQ(fin.inst(), 3);
  EXPECT_DOUBLE_EQ(fin.val(), 42);
  EXPECT_FALSE(MovingReal().Initial().defined);
}

TEST(MappingBuilderTest, MergesEqualAdjacent) {
  MappingBuilder<UBool> b;
  ASSERT_TRUE(b.Append(UB(0, 1, true, true, false)).ok());
  ASSERT_TRUE(b.Append(UB(1, 2, true, true, false)).ok());
  ASSERT_TRUE(b.Append(UB(2, 3, false)).ok());
  auto m = b.Build();
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_EQ(m->NumUnits(), 2u);
  EXPECT_EQ(m->unit(0).interval(), TI(0, 2, true, false));
}

TEST(MappingBuilderTest, RejectsOutOfOrder) {
  MappingBuilder<UBool> b;
  ASSERT_TRUE(b.Append(UB(2, 3, true)).ok());
  EXPECT_FALSE(b.Append(UB(0, 1, false)).ok());
}

TEST(MappingBuilderTest, RejectsOverlap) {
  MappingBuilder<UBool> b;
  ASSERT_TRUE(b.Append(UB(0, 2, true)).ok());
  EXPECT_FALSE(b.Append(UB(1, 3, false)).ok());
}

// Table 3 oracle: the discrete mapping(upoint), evaluated densely, must
// coincide with the abstract moving(point) function it represents.
TEST(MappingOracle, SlicedRepresentationMatchesAbstractFunction) {
  // Abstract function: x(t) = t, y(t) piecewise linear through the
  // waypoints y_i = i² at slice boundaries t_i = 2i. Velocities differ
  // per slice, so the 5-unit representation is already minimal.
  auto wy = [](int i) { return double(i * i); };
  std::vector<UPoint> units;
  for (int i = 0; i < 5; ++i) {
    double t0 = 2.0 * i, t1 = 2.0 * (i + 1);
    units.push_back(*UPoint::FromEndpoints(TI(t0, t1, true, i == 4),
                                           Point(t0, wy(i)),
                                           Point(t1, wy(i + 1))));
  }
  MovingPoint m = *MovingPoint::Make(units);
  EXPECT_EQ(m.NumUnits(), 5u);
  for (double t = 0; t <= 10.0001; t += 0.1) {
    Intime<Point> v = m.AtInstant(std::min(t, 10.0));
    ASSERT_TRUE(v.defined) << t;
    int i = std::min(4, int(t / 2));
    double frac = (t - 2 * i) / 2;
    double expect_y = wy(i) + (wy(i + 1) - wy(i)) * frac;
    EXPECT_NEAR(v.val().x, std::min(t, 10.0), 1e-9);
    EXPECT_NEAR(v.val().y, std::min(expect_y, wy(5)), 1e-9);
  }
}

TEST(MappingTotalDuration, SumOfUnitDurations) {
  MovingBool m = *MovingBool::Make({UB(0, 1, true), UB(2, 4, false)});
  EXPECT_DOUBLE_EQ(m.TotalDuration(), 3);
}

// Property sweep: random mappings keep their invariants through
// AtPeriods.
class MappingRestriction : public ::testing::TestWithParam<int> {};

TEST_P(MappingRestriction, AtPeriodsPreservesValuesWhereDefined) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> gap(0.1, 1.0);
  std::uniform_real_distribution<double> dur(0.5, 2.0);
  std::bernoulli_distribution coin(0.5);
  MappingBuilder<UBool> b;
  double t = 0;
  bool last = coin(rng);
  for (int i = 0; i < 10; ++i) {
    t += gap(rng);
    double e = t + dur(rng);
    ASSERT_TRUE(b.Append(UB(t, e, last)).ok());
    last = !last;
    t = e + 0.01;
  }
  MovingBool m = *b.Build();
  Periods p = Periods::FromIntervals({TI(2, 7), TI(9, 12)});
  auto r = m.AtPeriods(p);
  ASSERT_TRUE(r.ok());
  for (double probe = 0; probe < 15; probe += 0.05) {
    bool should = m.Present(probe) && p.Contains(probe);
    EXPECT_EQ(r->Present(probe), should) << probe;
    if (should) {
      EXPECT_EQ(r->AtInstant(probe).val(), m.AtInstant(probe).val());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MappingRestriction, ::testing::Range(0, 30));

}  // namespace
}  // namespace modb
