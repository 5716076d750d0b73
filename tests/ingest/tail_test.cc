// TailSeries: the incremental append path must stay BITWISE identical
// to bulk-building the same fix sequence through MappingBuilder with
// the generator slicing convention (interior units right-open, last
// unit right-closed, coefficients from UPoint::FromEndpoints). These
// tests enforce the identity stepwise — after EVERY absorbed fix — so
// a divergence pins the exact fix that introduced it.

#include "ingest/tail.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/interval.h"
#include "temporal/mapping.h"
#include "temporal/moving.h"
#include "temporal/upoint.h"

namespace modb {
namespace ingest {
namespace {

struct Fix {
  Instant t;
  Point p;
};

// A deterministic walk with a mid-stream constant-velocity stretch
// (fixes 4..7 continue the same motion), so the builder's merge rule is
// exercised, not just plain appends.
std::vector<Fix> Walk() {
  std::vector<Fix> fixes;
  fixes.push_back({0.0, Point(0, 0)});
  fixes.push_back({1.0, Point(1, 2)});
  fixes.push_back({2.5, Point(-0.5, 3)});
  fixes.push_back({4.0, Point(1, 1)});
  // Constant velocity (2, -1) per unit time across three fixes.
  fixes.push_back({5.0, Point(3, 0)});
  fixes.push_back({6.0, Point(5, -1)});
  fixes.push_back({7.0, Point(7, -2)});
  fixes.push_back({9.0, Point(0, 0)});
  return fixes;
}

// The bulk reference: slice fixes [0, n) through MappingBuilder exactly
// as gen/trajectory_gen.cc does.
std::vector<UPoint> BulkUnits(const std::vector<Fix>& fixes, std::size_t n) {
  MappingBuilder<UPoint> builder;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const bool last = i + 2 == n;
    Result<TimeInterval> iv =
        TimeInterval::Make(fixes[i].t, fixes[i + 1].t, true, last);
    EXPECT_TRUE(iv.ok());
    Result<UPoint> u =
        UPoint::FromEndpoints(*iv, fixes[i].p, fixes[i + 1].p);
    EXPECT_TRUE(u.ok());
    EXPECT_TRUE(builder.Append(*u).ok());
  }
  Result<Mapping<UPoint>> m = builder.Build();
  EXPECT_TRUE(m.ok());
  return std::vector<UPoint>(m->units().begin(), m->units().end());
}

// Bitwise equality: every double compared by representation (memcmp),
// so -0.0 vs 0.0 or any rounding difference fails.
void ExpectBitwiseEqual(const std::vector<UPoint>& got,
                        const std::vector<UPoint>& want,
                        std::size_t prefix_len) {
  ASSERT_EQ(got.size(), want.size()) << "after " << prefix_len << " fixes";
  for (std::size_t i = 0; i < got.size(); ++i) {
    const TimeInterval& gi = got[i].interval();
    const TimeInterval& wi = want[i].interval();
    const double gd[4] = {gi.start(), gi.end(), got[i].motion().x0,
                          got[i].motion().y0};
    const double wd[4] = {wi.start(), wi.end(), want[i].motion().x0,
                          want[i].motion().y0};
    EXPECT_EQ(0, std::memcmp(gd, wd, sizeof gd))
        << "unit " << i << " after " << prefix_len << " fixes";
    const double gm[2] = {got[i].motion().x1, got[i].motion().y1};
    const double wm[2] = {want[i].motion().x1, want[i].motion().y1};
    EXPECT_EQ(0, std::memcmp(gm, wm, sizeof gm))
        << "unit " << i << " after " << prefix_len << " fixes";
    EXPECT_EQ(gi.left_closed(), wi.left_closed()) << "unit " << i;
    EXPECT_EQ(gi.right_closed(), wi.right_closed()) << "unit " << i;
  }
}

TEST(TailSeries, StepwiseBitwiseIdentityWithBulkBuilder) {
  const std::vector<Fix> fixes = Walk();
  TailSeries tail;
  MovingPoint trail;
  for (std::size_t n = 1; n <= fixes.size(); ++n) {
    ASSERT_TRUE(tail.Absorb(fixes[n - 1].t, fixes[n - 1].p, &trail).ok());
    ExpectBitwiseEqual(trail.units(), BulkUnits(fixes, n), n);
  }
  // The constant-velocity stretch merged: strictly fewer units than
  // fix gaps proves the merge rule fired at least once.
  EXPECT_LT(trail.NumUnits(), fixes.size() - 1);
}

TEST(TailSeries, SealingNeverPerturbsTheIdentity) {
  const std::vector<Fix> fixes = Walk();
  TailSeries tail;
  MovingPoint trail;
  for (std::size_t n = 1; n <= fixes.size(); ++n) {
    ASSERT_TRUE(tail.Absorb(fixes[n - 1].t, fixes[n - 1].p, &trail).ok());
    tail.Seal(trail);  // seal after EVERY fix: the most adversarial policy
    if (trail.NumUnits() > 0) {
      EXPECT_EQ(tail.sealed(), trail.NumUnits() - 1)
          << "the newest unit must stay hot";
    }
    ExpectBitwiseEqual(trail.units(), BulkUnits(fixes, n), n);
  }
}

TEST(TailSeries, StaleOrDuplicateTimestampIsOutOfRangeAndLeavesStateAlone) {
  TailSeries tail;
  MovingPoint trail;
  ASSERT_TRUE(tail.Absorb(1.0, Point(0, 0), &trail).ok());
  ASSERT_TRUE(tail.Absorb(2.0, Point(1, 1), &trail).ok());
  const std::vector<UPoint> before = trail.units();
  EXPECT_EQ(StatusCode::kOutOfRange,
            tail.Absorb(2.0, Point(2, 2), &trail).code());
  EXPECT_EQ(StatusCode::kOutOfRange,
            tail.Absorb(1.5, Point(2, 2), &trail).code());
  ExpectBitwiseEqual(trail.units(), before, 2);
  EXPECT_EQ(2.0, tail.last_time());
}

// The trail Absorb extends in place IS the materialized mapping: it
// equals the bulk one and passes Make's full re-validation, although
// each append only checked the new unit against its predecessor.
TEST(TailSeries, MaterializeMatchesBulkMapping) {
  const std::vector<Fix> fixes = Walk();
  TailSeries tail;
  MovingPoint trail;
  for (const Fix& f : fixes) ASSERT_TRUE(tail.Absorb(f.t, f.p, &trail).ok());
  Result<MovingPoint> revalidated = MovingPoint::Make(trail.units());
  ASSERT_TRUE(revalidated.ok()) << revalidated.status();
  const std::vector<UPoint> bulk = BulkUnits(fixes, fixes.size());
  ExpectBitwiseEqual(revalidated->units(), bulk, fixes.size());
  ExpectBitwiseEqual(trail.units(), bulk, fixes.size());
}

TEST(TailSeries, ResumeContinuesBitwiseIdentically) {
  const std::vector<Fix> fixes = Walk();
  const std::size_t cut = 5;
  TailSeries full, before;
  MovingPoint full_trail, before_trail;
  for (std::size_t i = 0; i < cut; ++i) {
    ASSERT_TRUE(full.Absorb(fixes[i].t, fixes[i].p, &full_trail).ok());
    ASSERT_TRUE(before.Absorb(fixes[i].t, fixes[i].p, &before_trail).ok());
  }
  MovingPoint persisted = before_trail;
  Result<TailSeries> resumed = TailSeries::Resume(
      persisted, before.last_time(), before.last_point());
  ASSERT_TRUE(resumed.ok());
  // The exact anchor survived, and only the newest unit is hot.
  EXPECT_EQ(before.last_time(), resumed->last_time());
  EXPECT_EQ(persisted.NumUnits() - 1, resumed->sealed());
  for (std::size_t i = cut; i < fixes.size(); ++i) {
    ASSERT_TRUE(full.Absorb(fixes[i].t, fixes[i].p, &full_trail).ok());
    ASSERT_TRUE(resumed->Absorb(fixes[i].t, fixes[i].p, &persisted).ok());
    ExpectBitwiseEqual(persisted.units(), full_trail.units(), i + 1);
  }
}

TEST(TailSeries, SingleFixHasAnchorButNoUnits) {
  TailSeries tail;
  MovingPoint trail;
  ASSERT_TRUE(tail.Absorb(3.0, Point(7, -7), &trail).ok());
  EXPECT_TRUE(tail.has_fix());
  EXPECT_EQ(3.0, tail.last_time());
  EXPECT_TRUE(trail.IsEmpty());
}

}  // namespace
}  // namespace ingest
}  // namespace modb
