#include "temporal/ureal.h"

#include <gtest/gtest.h>

#include <cmath>

namespace modb {
namespace {

TimeInterval TI(double s, double e) { return *TimeInterval::Make(s, e, true, true); }

TEST(QuadraticRoots, TwoRoots) {
  Roots r = QuadraticRoots(1, -3, 2);  // t² - 3t + 2.
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r[0], 1);
  EXPECT_DOUBLE_EQ(r[1], 2);
}

TEST(QuadraticRoots, DoubleRoot) {
  Roots r = QuadraticRoots(1, -2, 1);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_DOUBLE_EQ(r[0], 1);
}

TEST(QuadraticRoots, NoRealRoots) {
  EXPECT_TRUE(QuadraticRoots(1, 0, 1).empty());
}

TEST(QuadraticRoots, LinearAndConstant) {
  Roots r = QuadraticRoots(0, 2, -4);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_DOUBLE_EQ(r[0], 2);
  EXPECT_TRUE(QuadraticRoots(0, 0, 5).empty());
  EXPECT_TRUE(QuadraticRoots(0, 0, 0).empty());  // Identically zero.
}

TEST(QuadraticRoots, NumericallyStableForSmallQ) {
  // b large relative to a·c: the naive formula loses the small root.
  Roots r = QuadraticRoots(1, -1e8, 1);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_NEAR(r[0] * r[1], 1, 1e-6);  // Vieta.
}

TEST(URealMake, PlainQuadraticAlwaysOk) {
  EXPECT_TRUE(UReal::Make(TI(0, 10), -1, 0, 0, false).ok());
}

TEST(URealMake, RootRequiresNonNegativeRadicand) {
  // t² - 4 is negative on (−2, 2): invalid over [0, 10]? At t=0 → -4 < 0.
  EXPECT_FALSE(UReal::Make(TI(0, 10), 1, 0, -4, true).ok());
  // Valid on [2, 10].
  EXPECT_TRUE(UReal::Make(TI(2, 10), 1, 0, -4, true).ok());
  // Vertex dips negative inside the interval: t² - 10t + 24 < 0 on (4, 6).
  EXPECT_FALSE(UReal::Make(TI(0, 10), 1, -10, 24, true).ok());
}

TEST(URealValue, QuadraticEvaluation) {
  UReal u = *UReal::Make(TI(0, 10), 2, -3, 1, false);
  EXPECT_DOUBLE_EQ(u.ValueAt(0), 1);
  EXPECT_DOUBLE_EQ(u.ValueAt(2), 2 * 4 - 6 + 1);
}

TEST(URealValue, RootEvaluation) {
  UReal u = *UReal::Make(TI(0, 10), 1, 0, 0, true);  // √(t²) = |t| = t.
  EXPECT_DOUBLE_EQ(u.ValueAt(3), 3);
  EXPECT_DOUBLE_EQ(u.ValueAt(0), 0);
}

TEST(URealExtrema, InteriorVertexMinimum) {
  // (t-5)² + 1 on [0, 10]: min 1 at 5, max 26 at 0 and 10.
  UReal u = *UReal::Make(TI(0, 10), 1, -10, 26, false);
  URealExtrema ex = u.Extrema();
  EXPECT_DOUBLE_EQ(ex.min_value, 1);
  EXPECT_DOUBLE_EQ(ex.min_at, 5);
  EXPECT_DOUBLE_EQ(ex.max_value, 26);
}

TEST(URealExtrema, MonotoneOnInterval) {
  UReal u = *UReal::Make(TI(0, 2), 0, 3, 1, false);  // 3t + 1.
  URealExtrema ex = u.Extrema();
  EXPECT_DOUBLE_EQ(ex.min_value, 1);
  EXPECT_DOUBLE_EQ(ex.min_at, 0);
  EXPECT_DOUBLE_EQ(ex.max_value, 7);
  EXPECT_DOUBLE_EQ(ex.max_at, 2);
}

TEST(URealExtrema, RootCaseVertex) {
  // √((t-5)² + 9): min 3 at t=5.
  UReal u = *UReal::Make(TI(0, 10), 1, -10, 34, true);
  URealExtrema ex = u.Extrema();
  EXPECT_DOUBLE_EQ(ex.min_value, 3);
  EXPECT_DOUBLE_EQ(ex.min_at, 5);
}

TEST(URealInstantsAtValue, QuadraticCrossings) {
  UReal u = *UReal::Make(TI(0, 10), 1, -10, 26, false);  // (t-5)² + 1.
  Roots at2 = u.InstantsAtValue(2);                      // (t-5)² = 1.
  ASSERT_EQ(at2.size(), 2u);
  EXPECT_DOUBLE_EQ(at2[0], 4);
  EXPECT_DOUBLE_EQ(at2[1], 6);
  // Outside the interval → filtered.
  UReal narrow = *UReal::Make(TI(0, 4.5), 1, -10, 26, false);
  EXPECT_EQ(narrow.InstantsAtValue(2).size(), 1u);
}

TEST(URealInstantsAtValue, RootCaseSquaresTheTarget) {
  UReal u = *UReal::Make(TI(0, 10), 1, 0, 0, true);  // √(t²) = t.
  Roots at3 = u.InstantsAtValue(3);
  ASSERT_EQ(at3.size(), 1u);
  EXPECT_DOUBLE_EQ(at3[0], 3);
  EXPECT_TRUE(u.InstantsAtValue(-1).empty());  // √ can't be negative.
}

TEST(URealEqualsEverywhere, ConstantDetection) {
  EXPECT_TRUE(UReal::Constant(TI(0, 1), 5)->EqualsEverywhere(5));
  EXPECT_FALSE(UReal::Constant(TI(0, 1), 5)->EqualsEverywhere(4));
  EXPECT_FALSE(UReal::Make(TI(0, 1), 0, 1, 5, false)->EqualsEverywhere(5));
  // Root constant: √(25) = 5.
  EXPECT_TRUE(UReal::Make(TI(0, 1), 0, 0, 25, true)->EqualsEverywhere(5));
}

TEST(URealFunctionEqual, ComparesRepresentation) {
  UReal a = *UReal::Make(TI(0, 1), 1, 2, 3, false);
  UReal b = *UReal::Make(TI(5, 6), 1, 2, 3, false);
  UReal c = *UReal::Make(TI(0, 1), 1, 2, 3, true);
  EXPECT_TRUE(UReal::FunctionEqual(a, b));  // Interval irrelevant.
  EXPECT_FALSE(UReal::FunctionEqual(a, c));
}

TEST(URealWithInterval, RestrictsAndRevalidates) {
  UReal u = *UReal::Make(TI(2, 10), 1, 0, -4, true);
  EXPECT_TRUE(u.WithInterval(TI(3, 4)).ok());
  // Widening into the invalid zone fails.
  EXPECT_FALSE(u.WithInterval(TI(0, 10)).ok());
}

}  // namespace
}  // namespace modb
