#include "temporal/batch_ops.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <type_traits>
#include <vector>

#include "temporal/moving.h"
#include "temporal/refinement.h"

namespace modb {
namespace {

TimeInterval TI(double s, double e, bool lc = true, bool rc = true) {
  return *TimeInterval::Make(s, e, lc, rc);
}

UBool UB(double s, double e, bool v, bool lc = true, bool rc = true) {
  return *UBool::Make(TI(s, e, lc, rc), v);
}

UInt UI(double s, double e, int64_t v, bool lc = true, bool rc = true) {
  return *UInt::Make(TI(s, e, lc, rc), v);
}

// ---------------------------------------------------------------------------
// Refinement edge cases (satellite: point intervals, adjacent open/closed
// boundaries, empty mappings, index width).
// ---------------------------------------------------------------------------

static_assert(std::is_same_v<decltype(RefinementEntry::unit_a), std::int32_t>,
              "refinement indices must be fixed-width (no silent narrowing)");
static_assert(std::is_same_v<decltype(RefinementEntry::unit_b), std::int32_t>,
              "refinement indices must be fixed-width (no silent narrowing)");

TEST(RefinementEdge, PointIntervalUnit) {
  // A mapping whose only unit is a single instant, inside b's span.
  MovingInt a = *MovingInt::Make({*UInt::Make(TimeInterval::At(5), 1)});
  MovingBool b = *MovingBool::Make({UB(0, 10, true)});
  auto rp = RefinementPartition(a, b);
  ASSERT_EQ(rp.size(), 3u);
  EXPECT_EQ(rp[0].interval, TI(0, 5, true, false));
  EXPECT_FALSE(rp[0].HasBoth());
  EXPECT_TRUE(rp[1].interval.IsDegenerate());
  EXPECT_TRUE(rp[1].HasBoth());
  EXPECT_EQ(rp[1].unit_a, 0);
  EXPECT_EQ(rp[2].interval, TI(5, 10, false, true));
  EXPECT_FALSE(rp[2].HasBoth());
}

TEST(RefinementEdge, PointIntervalAgainstPointInterval) {
  MovingInt a = *MovingInt::Make({*UInt::Make(TimeInterval::At(3), 1)});
  MovingBool b = *MovingBool::Make({*UBool::Make(TimeInterval::At(3), true)});
  auto rp = RefinementPartition(a, b);
  ASSERT_EQ(rp.size(), 1u);
  EXPECT_TRUE(rp[0].interval.IsDegenerate());
  EXPECT_TRUE(rp[0].HasBoth());

  // Disjoint point intervals interleave.
  MovingBool b2 = *MovingBool::Make({*UBool::Make(TimeInterval::At(4), true)});
  auto rp2 = RefinementPartition(a, b2);
  ASSERT_EQ(rp2.size(), 2u);
  EXPECT_EQ(rp2[0].unit_a, 0);
  EXPECT_EQ(rp2[0].unit_b, RefinementEntry::kNoUnit);
  EXPECT_EQ(rp2[1].unit_b, 0);
}

TEST(RefinementEdge, AdjacentOpenClosedBoundaries) {
  // a: [0,2] then (2,4] — adjacent at 2 with the instant owned by unit 0.
  MovingInt a = *MovingInt::Make({UI(0, 2, 1), UI(2, 4, 2, false, true)});
  MovingBool b = *MovingBool::Make({UB(1, 3, true)});
  auto rp = RefinementPartition(a, b);
  // Pointwise attribution across the partition.
  for (double t : {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0}) {
    int hits = 0;
    for (const RefinementEntry& e : rp) {
      if (!e.interval.Contains(t)) continue;
      ++hits;
      ASSERT_EQ(e.unit_a != RefinementEntry::kNoUnit, a.Present(t)) << t;
      ASSERT_EQ(e.unit_b != RefinementEntry::kNoUnit, b.Present(t)) << t;
      if (e.unit_a != RefinementEntry::kNoUnit) {
        EXPECT_TRUE(
            a.unit(std::size_t(e.unit_a)).interval().Contains(t)) << t;
      }
    }
    EXPECT_EQ(hits, 1) << t;
  }
  // The boundary instant 2 must map to unit 0 of a (closed there), not
  // unit 1 (open there).
  for (const RefinementEntry& e : rp) {
    if (e.interval.Contains(2.0)) {
      EXPECT_EQ(e.unit_a, 0);
    }
  }
}

TEST(RefinementEdge, OneEmptyMapping) {
  MovingInt a = *MovingInt::Make({UI(0, 1, 1), UI(2, 3, 2)});
  MovingBool empty;
  auto rp = RefinementPartition(a, empty);
  ASSERT_EQ(rp.size(), 2u);
  for (const RefinementEntry& e : rp) {
    EXPECT_NE(e.unit_a, RefinementEntry::kNoUnit);
    EXPECT_EQ(e.unit_b, RefinementEntry::kNoUnit);
  }
  auto rp2 = RefinementPartition(empty, a);
  ASSERT_EQ(rp2.size(), 2u);
  for (const RefinementEntry& e : rp2) {
    EXPECT_EQ(e.unit_a, RefinementEntry::kNoUnit);
  }
  EXPECT_TRUE(RefinementPartition(empty, MovingInt()).empty());
}

// ---------------------------------------------------------------------------
// Batch sweep kernels.
// ---------------------------------------------------------------------------

UReal UR(double s, double e, double c, bool lc = true, bool rc = true) {
  return *UReal::Make(TI(s, e, lc, rc), 0, 0.5, c, false);
}

TEST(AtInstantBatch, MatchesAtInstantOnBoundaries) {
  MovingReal m = *MovingReal::Make(
      {UR(0, 2, 1, true, false), UR(2, 4, 2, true, true),
       UR(5, 6, 3, false, false),
       *UReal::Make(TimeInterval::At(8), 0, 0, 9, false)});
  std::vector<Instant> instants = {-1, 0, 1, 2, 2, 3.5, 4, 4.5,
                                   5,  5.5, 6, 7, 8, 8, 9};
  auto batch = AtInstantBatch(m, instants);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), instants.size());
  for (std::size_t i = 0; i < instants.size(); ++i) {
    Intime<double> one = m.AtInstant(instants[i]);
    EXPECT_EQ((*batch)[i].defined, one.defined) << instants[i];
    if (one.defined) {
      EXPECT_EQ((*batch)[i].value, one.value) << instants[i];
      EXPECT_EQ((*batch)[i].instant, instants[i]);
    }
  }
  // The Into variant reuses the buffer's capacity and agrees with the
  // allocating wrapper.
  std::vector<Intime<double>> buf;
  ASSERT_TRUE(AtInstantBatchInto(m, instants, &buf).ok());
  const Intime<double>* data = buf.data();
  ASSERT_TRUE(AtInstantBatchInto(m, instants, &buf).ok());
  EXPECT_EQ(buf.data(), data);
  ASSERT_EQ(buf.size(), batch->size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf[i].defined, (*batch)[i].defined);
    if (buf[i].defined) {
      EXPECT_EQ(buf[i].value, (*batch)[i].value);
    }
  }
  std::vector<std::uint8_t> pbuf;
  ASSERT_TRUE(PresentBatchInto(m, instants, &pbuf).ok());
  auto pres = PresentBatch(m, instants);
  ASSERT_TRUE(pres.ok());
  EXPECT_EQ(pbuf, *pres);
}

TEST(AtInstantBatch, RejectsUnsortedInstants) {
  MovingReal m = *MovingReal::Make({UR(0, 2, 1)});
  auto r = AtInstantBatch(m, {2.0, 1.0});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  auto p = PresentBatch(m, {2.0, 1.0});
  EXPECT_FALSE(p.ok());
  // A descent anywhere is caught: before the deftime, after it, across
  // either end of it, and among instants all outside it.
  for (const std::vector<Instant>& ts :
       std::vector<std::vector<Instant>>{{-2, -3, 1},
                                         {1, 5, 4},
                                         {-1, 1, 0.5, 3},
                                         {1, -1},
                                         {3, 1},
                                         {5, -1},
                                         {-1, 5, -2}}) {
    EXPECT_FALSE(AtInstantBatch(m, ts).ok());
    EXPECT_FALSE(PresentBatch(m, ts).ok());
    std::vector<Intime<double>> out;
    EXPECT_FALSE(AtInstantBatchInto(m, ts, &out).ok());
    EXPECT_TRUE(out.empty());
  }
}

TEST(AtInstantBatch, EmptyMappingAndEmptyBatch) {
  MovingReal empty;
  auto r = AtInstantBatch(empty, {1.0, 2.0});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_FALSE((*r)[0].defined);
  EXPECT_FALSE((*r)[1].defined);
  MovingReal m = *MovingReal::Make({UR(0, 2, 1)});
  auto r2 = AtInstantBatch(m, {});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->empty());
}

// Fuzzed mapping generator: random unit count, random gaps (including
// zero-width gaps with complementary open/closed flags — adjacent
// units), occasional degenerate point units, distinct unit functions.
MovingReal FuzzMapping(std::mt19937& rng, int max_units) {
  std::uniform_int_distribution<int> nd(0, max_units);
  std::uniform_real_distribution<double> gap(0.0, 1.0);
  std::uniform_real_distribution<double> dur(0.0, 2.0);
  std::bernoulli_distribution coin(0.5);
  int n = nd(rng);
  std::vector<UReal> units;
  double t = gap(rng);
  // Whether the instant `t` (the previous unit's end) belongs to it.
  bool prev_owns_end = false;
  for (int i = 0; i < n; ++i) {
    double d = coin(rng) ? 0.0 : dur(rng) + 1e-3;
    double s;
    bool lc, rc;
    if (d == 0) {
      // Degenerate units must be closed on both sides; they may start at
      // t only if the previous unit's end is open there.
      lc = rc = true;
      s = (i > 0 && !prev_owns_end && coin(rng)) ? t : t + gap(rng) + 1e-3;
    } else {
      rc = coin(rng);
      if (i > 0 && coin(rng)) {
        // Adjacent: shared boundary owned by at most one side.
        s = t;
        lc = prev_owns_end ? false : coin(rng);
      } else {
        s = t + gap(rng) + 1e-3;
        lc = coin(rng);
      }
    }
    double e = s + d;
    units.push_back(*UReal::Make(*TimeInterval::Make(s, e, lc, rc),
                                 0, 0.25, double(i), false));
    t = e;
    prev_owns_end = rc;
  }
  auto m = MovingReal::Make(std::move(units));
  EXPECT_TRUE(m.ok()) << m.status();
  return m.ok() ? *m : MovingReal();
}

// Randomized differential test: AtInstantBatch ≡ per-instant AtInstant
// and PresentBatch ≡ Present on 1000 fuzzed mappings. The batch sizes
// fall on both sides of the sweep's dense cut (k * kDenseRatio >= n),
// and the instants sit on open and closed unit edges, inside units, in
// the gaps between them and outside the deftime.
TEST(AtInstantBatch, DifferentialFuzz1000) {
  std::mt19937 rng(20260807);
  std::bernoulli_distribution coin(0.5);
  std::size_t dense_batches = 0, sparse_batches = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    MovingReal m = FuzzMapping(rng, iter % 2 == 0 ? 12 : 400);
    const std::size_t n = m.NumUnits();

    // Batch size: below the cut (when n allows one) or at/above it.
    const std::size_t cut = n / batch_internal::kDenseRatio +
                            (n % batch_internal::kDenseRatio != 0);
    std::size_t k;
    if (cut > 1 && coin(rng)) {
      k = std::uniform_int_distribution<std::size_t>(1, cut - 1)(rng);
    } else {
      k = std::uniform_int_distribution<std::size_t>(cut, 2 * n + 24)(rng);
    }
    ++(k * batch_internal::kDenseRatio >= n ? dense_batches
                                            : sparse_batches);

    // Query instants: uniform samples (inside units, in gaps and outside
    // the deftime) mixed with exact unit endpoints (open or closed).
    std::vector<Instant> instants;
    const double lo = m.IsEmpty() ? 0.0 : m.units().front().interval().start();
    const double hi = m.IsEmpty() ? 5.0 : m.units().back().interval().end();
    std::uniform_real_distribution<double> td(lo - 1.0, hi + 1.0);
    std::uniform_int_distribution<std::size_t> unit_pick(0, n == 0 ? 0 : n - 1);
    for (std::size_t q = 0; q < k; ++q) {
      if (n > 0 && coin(rng)) {
        const TimeInterval& iv = m.unit(unit_pick(rng)).interval();
        instants.push_back(coin(rng) ? iv.start() : iv.end());
      } else {
        instants.push_back(td(rng));
      }
    }
    std::sort(instants.begin(), instants.end());

    auto batch = AtInstantBatch(m, instants);
    auto present = PresentBatch(m, instants);
    ASSERT_TRUE(batch.ok() && present.ok());
    ASSERT_EQ(batch->size(), k);
    ASSERT_EQ(present->size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      Instant t = instants[i];
      Intime<double> one = m.AtInstant(t);
      ASSERT_EQ((*batch)[i].defined, one.defined)
          << "iter " << iter << " t=" << t;
      if (one.defined) {
        ASSERT_EQ((*batch)[i].value, one.value)
            << "iter " << iter << " t=" << t;
        ASSERT_EQ((*batch)[i].instant, t) << "iter " << iter;
      }
      ASSERT_EQ((*present)[i] != 0, m.Present(t))
          << "iter " << iter << " t=" << t;
    }
  }
  EXPECT_GT(dense_batches, 100u);
  EXPECT_GT(sparse_batches, 100u);
}

// ---------------------------------------------------------------------------
// upoint kernels: every batch position bit-identical to the per-instant
// AtInstant.
// ---------------------------------------------------------------------------

bool BitEq(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// A upoint track with gaps, adjacent open/closed boundaries, and varied
// velocities — enough structure to mix defined and undefined instants in
// every stretch of a batch.
MovingPoint GappyTrack(std::mt19937* rng, int units) {
  std::uniform_real_distribution<double> gap(0.0, 0.8);
  std::uniform_real_distribution<double> vel(-2.0, 2.0);
  std::bernoulli_distribution coin(0.5);
  MappingBuilder<UPoint> builder;
  double t = 0;
  for (int i = 0; i < units; ++i) {
    double s = t + (coin(*rng) ? 0.0 : gap(*rng) + 1e-3);
    double e = s + gap(*rng) + 0.2;
    bool lc = s == t ? false : true;
    auto iv = *TimeInterval::Make(s, e, lc, true);
    (void)builder.Append(*UPoint::Make(
        iv, LinearMotion{vel(*rng), vel(*rng), vel(*rng), vel(*rng)}));
    t = e;
  }
  auto m = builder.Build();
  EXPECT_TRUE(m.ok()) << m.status();
  return m.ok() ? *m : MovingPoint();
}

std::vector<Instant> SortedProbe(std::mt19937* rng, double lo, double hi,
                                 int k) {
  std::uniform_real_distribution<double> d(lo, hi);
  std::vector<Instant> out(static_cast<std::size_t>(k));
  for (Instant& t : out) t = d(*rng);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(BatchSimd, UPointAtInstantScalarAvx2ByteIdentical) {
  std::mt19937 rng(42);
  for (int iter = 0; iter < 25; ++iter) {
    MovingPoint mp = GappyTrack(&rng, 3 + iter * 7);
    double hi = mp.units().back().interval().end();
    // Probe beyond both deftime ends so the prefilter settles some
    // instants; k spans dense and sparse resolve regimes.
    std::vector<Instant> instants =
        SortedProbe(&rng, -1.0, hi + 1.0, 17 + iter * 13);
    std::vector<Intime<Point>> scalar;
    ASSERT_TRUE(AtInstantBatchInto(mp, instants, &scalar).ok());
    ASSERT_EQ(scalar.size(), instants.size());
    for (std::size_t i = 0; i < instants.size(); ++i) {
      // Bitwise equality, not approximate, with the per-instant
      // reference.
      Intime<Point> one = mp.AtInstant(instants[i]);
      ASSERT_EQ(scalar[i].defined, one.defined) << "iter " << iter;
      if (one.defined) {
        ASSERT_TRUE(BitEq(scalar[i].value.x, one.value.x)) << "iter " << iter;
        ASSERT_TRUE(BitEq(scalar[i].value.y, one.value.y)) << "iter " << iter;
      }
    }
  }
}

// The compact xy kernel evaluates the defined instants alone and must
// match the per-instant AtInstant bit for bit.
TEST(BatchSimd, UPointXYKernelScalarAvx2ByteIdentical) {
  std::mt19937 rng(1234);
  for (int iter = 0; iter < 25; ++iter) {
    MovingPoint mp = GappyTrack(&rng, 5 + iter * 5);
    double hi = mp.units().back().interval().end();
    std::vector<Instant> instants =
        SortedProbe(&rng, -0.5, hi + 0.5, 11 + iter * 9);
    BatchXYOutput xy_s;
    BatchScratch scratch;
    ASSERT_TRUE(AtInstantBatchXYInto(mp, instants, &xy_s, &scratch).ok());
    const std::vector<double>&xs_s = xy_s.xs, &ys_s = xy_s.ys;
    const std::vector<std::uint8_t>& def_s = xy_s.defined;
    ASSERT_EQ(def_s.size(), instants.size()) << "iter " << iter;
    // Compact: the j-th coordinate pair belongs to the j-th defined
    // instant, and undefined instants have none.
    ASSERT_EQ(ys_s.size(), xs_s.size()) << "iter " << iter;
    std::size_t j = 0;
    for (std::size_t i = 0; i < instants.size(); ++i) {
      Intime<Point> one = mp.AtInstant(instants[i]);
      ASSERT_EQ(def_s[i] != 0, one.defined) << "iter " << iter;
      if (!one.defined) continue;
      ASSERT_LT(j, xs_s.size()) << "iter " << iter;
      ASSERT_TRUE(BitEq(xs_s[j], one.value.x)) << "iter " << iter;
      ASSERT_TRUE(BitEq(ys_s[j], one.value.y)) << "iter " << iter;
      ++j;
    }
    ASSERT_EQ(j, xs_s.size()) << "iter " << iter;
  }
}

// The xy kernel appends: two batches into one output are the two
// outputs concatenated, flags and coordinates alike, and a rejected
// batch leaves the output as it was.
TEST(BatchSimd, UPointXYKernelAppendsToItsOutput) {
  std::mt19937 rng(91);
  MovingPoint mp = GappyTrack(&rng, 30);
  double hi = mp.units().back().interval().end();
  const std::vector<Instant> first = SortedProbe(&rng, -0.5, hi + 0.5, 40);
  const std::vector<Instant> second = SortedProbe(&rng, -0.5, hi + 0.5, 25);
  BatchScratch scratch;
  BatchXYOutput a, b, both;
  ASSERT_TRUE(AtInstantBatchXYInto(mp, first, &a, &scratch).ok());
  ASSERT_TRUE(AtInstantBatchXYInto(mp, second, &b, &scratch).ok());
  ASSERT_TRUE(AtInstantBatchXYInto(mp, first, &both, &scratch).ok());
  ASSERT_TRUE(AtInstantBatchXYInto(mp, second, &both, &scratch).ok());
  auto concat = [](std::vector<double> x, const std::vector<double>& y) {
    x.insert(x.end(), y.begin(), y.end());
    return x;
  };
  std::vector<std::uint8_t> flags = a.defined;
  flags.insert(flags.end(), b.defined.begin(), b.defined.end());
  EXPECT_EQ(both.defined, flags);
  EXPECT_EQ(both.xs, concat(a.xs, b.xs));
  EXPECT_EQ(both.ys, concat(a.ys, b.ys));
  EXPECT_GT(both.xs.size(), 0u);
  EXPECT_LT(both.xs.size(), both.defined.size());

  const BatchXYOutput before = both;
  EXPECT_FALSE(AtInstantBatchXYInto(mp, {2.0, 1.0}, &both, &scratch).ok());
  EXPECT_EQ(both.defined, before.defined);
  EXPECT_EQ(both.xs, before.xs);
  EXPECT_EQ(both.ys, before.ys);
}

TEST(BatchSimd, RejectsUnsortedOnFastPath) {
  std::mt19937 rng(5);
  MovingPoint mp = GappyTrack(&rng, 8);
  std::vector<Intime<Point>> out;
  BatchXYOutput xy;
  BatchScratch scratch;
  EXPECT_FALSE(AtInstantBatchInto(mp, {2.0, 1.0}, &out).ok());
  EXPECT_FALSE(AtInstantBatchXYInto(mp, {2.0, 1.0}, &xy, &scratch).ok());
}

// uregion workload: the sweep kernels run over any unit type — batch
// results must match the per-instant operations, including through the
// deftime-bounds prefilter for instants far outside the definition time.
MovingRegion TranslatingSquares(int units) {
  std::vector<URegion> out;
  for (int i = 0; i < units; ++i) {
    double t0 = i * 3.0, t1 = i * 3.0 + 2.0;
    MCycle cycle;
    std::vector<Point> r0 = {Point(0, 0), Point(2, 0), Point(2, 2),
                             Point(0, 2)};
    for (int k = 0; k < 4; ++k) {
      auto s0 = *Seg::Make(r0[std::size_t(k)], r0[std::size_t((k + 1) % 4)]);
      Point a1(r0[std::size_t(k)].x + 1, r0[std::size_t(k)].y + 1);
      Point b1(r0[std::size_t((k + 1) % 4)].x + 1,
               r0[std::size_t((k + 1) % 4)].y + 1);
      auto s1 = *Seg::Make(a1, b1);
      cycle.push_back(*MSeg::FromEndSegments(t0, s0, t1, s1));
    }
    auto u = URegion::FromCycle(*TimeInterval::Make(t0, t1, true, true),
                                std::move(cycle));
    EXPECT_TRUE(u.ok()) << u.status();
    out.push_back(*u);
  }
  auto m = MovingRegion::Make(std::move(out));
  EXPECT_TRUE(m.ok()) << m.status();
  return m.ok() ? *m : MovingRegion();
}

TEST(BatchSimd, URegionPresentAndAtInstantBatchMatchPerInstant) {
  MovingRegion mr = TranslatingSquares(6);
  std::vector<Instant> instants;
  for (double t = -5.0; t <= 25.0; t += 0.5) instants.push_back(t);
  auto present = PresentBatch(mr, instants);
  auto batch = AtInstantBatch(mr, instants);
  ASSERT_TRUE(present.ok() && batch.ok());
  for (std::size_t i = 0; i < instants.size(); ++i) {
    const Instant t = instants[i];
    ASSERT_EQ((*present)[i] != 0, mr.Present(t)) << t;
    Intime<Region> one = mr.AtInstant(t);
    ASSERT_EQ((*batch)[i].defined, one.defined) << t;
    if (one.defined) {
      ASSERT_EQ((*batch)[i].value.Area(), one.value.Area()) << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Two-pointer Present(Periods) / AtPeriods vs. the quadratic reference.
// ---------------------------------------------------------------------------

bool PresentReference(const MovingReal& m, const Periods& periods) {
  for (const UReal& u : m.units()) {
    for (const TimeInterval& iv : periods.intervals()) {
      if (!TimeInterval::Disjoint(u.interval(), iv)) return true;
    }
  }
  return false;
}

Result<MovingReal> AtPeriodsReference(const MovingReal& m,
                                      const Periods& periods) {
  std::vector<UReal> out;
  for (const UReal& u : m.units()) {
    for (const TimeInterval& iv : periods.intervals()) {
      auto inter = TimeInterval::Intersect(u.interval(), iv);
      if (!inter) continue;
      Result<UReal> piece = u.WithInterval(*inter);
      if (!piece.ok()) return piece.status();
      out.push_back(std::move(*piece));
    }
  }
  return MovingReal::Make(std::move(out));
}

TEST(MappingPeriods, TwoPointerMatchesReferenceFuzz) {
  std::mt19937 rng(7771);
  std::uniform_real_distribution<double> gap(0.0, 1.5);
  std::uniform_real_distribution<double> dur(0.0, 2.0);
  std::bernoulli_distribution coin(0.5);
  for (int iter = 0; iter < 300; ++iter) {
    MovingReal m = FuzzMapping(rng, 10);
    // Random periods (canonicalized by FromIntervals).
    std::vector<TimeInterval> ivs;
    double t = gap(rng) - 0.5;
    int k = std::uniform_int_distribution<int>(0, 6)(rng);
    for (int i = 0; i < k; ++i) {
      double s = t + gap(rng);
      double d = coin(rng) ? 0.0 : dur(rng);
      bool lc = d == 0 ? true : coin(rng);
      bool rc = d == 0 ? true : coin(rng);
      ivs.push_back(*TimeInterval::Make(s, s + d, lc, rc));
      t = s + d + 1e-3;
    }
    Periods periods = Periods::FromIntervals(std::move(ivs));

    EXPECT_EQ(m.Present(periods), PresentReference(m, periods))
        << "iter " << iter;

    auto fast = m.AtPeriods(periods);
    auto ref = AtPeriodsReference(m, periods);
    ASSERT_EQ(fast.ok(), ref.ok()) << "iter " << iter;
    if (!fast.ok()) continue;
    ASSERT_EQ(fast->NumUnits(), ref->NumUnits()) << "iter " << iter;
    for (std::size_t i = 0; i < fast->NumUnits(); ++i) {
      EXPECT_EQ(fast->unit(i).interval(), ref->unit(i).interval())
          << "iter " << iter;
      Instant mid = (fast->unit(i).interval().start() +
                     fast->unit(i).interval().end()) /
                    2;
      EXPECT_EQ(fast->unit(i).ValueAt(mid), ref->unit(i).ValueAt(mid))
          << "iter " << iter;
    }
  }
}

// ---------------------------------------------------------------------------
// Deftime-bounds prefilter: the unit records' first start and last end
// settle instants strictly outside the deftime; an instant on either
// edge still goes to the sweep, which knows whether that end is open.
// ---------------------------------------------------------------------------

UPoint UP(double s, double e, bool lc, bool rc, double x0, double x1) {
  return *UPoint::Make(TI(s, e, lc, rc), LinearMotion{x0, x1, -x0, 0.5});
}

// Per-instant AtInstant / Present, the batch kernels' contract.
void ExpectBatchesMatchPerInstant(const MovingPoint& mp,
                                  const std::vector<Instant>& instants) {
  std::vector<Intime<Point>> at;
  BatchScratch scratch;
  ASSERT_TRUE(AtInstantBatchInto(mp, instants, &at).ok());
  BatchXYOutput xy;
  ASSERT_TRUE(AtInstantBatchXYInto(mp, instants, &xy, &scratch).ok());
  std::vector<std::uint8_t> present;
  ASSERT_TRUE(PresentBatchInto(mp, instants, &present).ok());
  ASSERT_EQ(at.size(), instants.size());
  ASSERT_EQ(xy.defined.size(), instants.size());
  ASSERT_EQ(present.size(), instants.size());
  std::size_t j = 0;  // xy's coordinate slot of the next defined instant
  for (std::size_t i = 0; i < instants.size(); ++i) {
    const Instant t = instants[i];
    const Intime<Point> one = mp.AtInstant(t);
    EXPECT_EQ(at[i].defined, one.defined) << "t = " << t;
    ASSERT_EQ(xy.defined[i], one.defined ? 1 : 0) << "t = " << t;
    EXPECT_EQ(present[i], mp.Present(t) ? 1 : 0) << "t = " << t;
    if (one.defined) {
      EXPECT_TRUE(BitEq(at[i].value.x, one.value.x)) << "t = " << t;
      EXPECT_TRUE(BitEq(at[i].value.y, one.value.y)) << "t = " << t;
      ASSERT_LT(j, xy.xs.size()) << "t = " << t;
      EXPECT_TRUE(BitEq(xy.xs[j], one.value.x)) << "t = " << t;
      EXPECT_TRUE(BitEq(xy.ys[j], one.value.y)) << "t = " << t;
      ++j;
    }
  }
  EXPECT_EQ(j, xy.xs.size());
  EXPECT_EQ(j, xy.ys.size());
}

TEST(DeftimePrefilter, IndexlessEdgesMatchPerInstantAndIndexed) {
  // deftime (2, 9): the first unit is left-open at 2 and the last
  // right-open at 9; and the same trail with both ends closed.
  const MovingPoint open_ends = *MovingPoint::Make(
      {UP(2, 4, false, true, 1, 0.5), UP(4, 6, false, false, 3, -1),
       UP(7, 9, true, false, -2, 2)});
  const MovingPoint closed_ends = *MovingPoint::Make(
      {UP(2, 4, true, true, 1, 0.5), UP(4, 6, false, false, 3, -1),
       UP(7, 9, true, true, -2, 2)});
  // Batches with instants before, on and after both deftime edges.
  const std::vector<Instant> dense = {0,   1.5, 2,   2.5, 4,   6,
                                      6.5, 7,   8.5, 9,   9.5, 12};
  const std::vector<Instant> edges_only = {2, 9};
  const std::vector<Instant> outside = {-5, 1.99, 9.01, 30};
  for (const MovingPoint* mp : {&open_ends, &closed_ends}) {
    for (const std::vector<Instant>* ts : {&dense, &edges_only, &outside}) {
      ExpectBatchesMatchPerInstant(*mp, *ts);
    }
  }
  EXPECT_FALSE(open_ends.Present(2));
  EXPECT_FALSE(open_ends.Present(9));
  EXPECT_TRUE(closed_ends.Present(2));
  EXPECT_TRUE(closed_ends.Present(9));

  // The prefilter settles strictly outside instants and leaves the
  // edges to the sweep.
  const batch_internal::UnitsView<UPoint> view(&open_ends.units());
  EXPECT_TRUE(view.certainly_undefined(1.99));
  EXPECT_FALSE(view.certainly_undefined(2));
  EXPECT_FALSE(view.certainly_undefined(9));
  EXPECT_TRUE(view.certainly_undefined(9.01));

  // A sparse batch over a long trail (k * kDenseRatio < n) takes the
  // gallop instead of the dense merge.
  std::mt19937 rng(31);
  const MovingPoint long_track = GappyTrack(&rng, 200);
  const Instant end = long_track.units().back().interval().end();
  const Instant start = long_track.units().front().interval().start();
  const std::vector<Instant> sparse = {start - 1, start, end / 2, end,
                                       end + 1};
  ASSERT_LT(sparse.size() * batch_internal::kDenseRatio,
            long_track.NumUnits());
  ExpectBatchesMatchPerInstant(long_track, sparse);
}

TEST(DeftimePrefilter, EmptyIndexlessMappingIsUndefinedEverywhere) {
  const MovingPoint empty;
  const std::vector<Instant> ts = {-1, 0, 1};
  ExpectBatchesMatchPerInstant(empty, ts);
  EXPECT_TRUE(batch_internal::UnitsView<UPoint>(&empty.units())
                  .certainly_undefined(0));
}

}  // namespace
}  // namespace modb
