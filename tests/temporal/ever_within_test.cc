// EverWithin against the composed Q2 predicate it replaces,
//   val(initial(atmin(distance(a, b)))) < d,
// on hand-built edge cases and generated trail pairs. The composed
// operators are the spec: every case must give the same boolean.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <random>
#include <utility>
#include <vector>

#include "core/simd.h"
#include "gen/flights_gen.h"
#include "gen/trajectory_gen.h"
#include "temporal/lifted_ops.h"
#include "temporal/refinement.h"

// Counts heap allocations, to check that the sweep makes none. The
// sanitizer runtimes bring their own operator new, so the count (and
// the test reading it) exists only in plain builds.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define MODB_COUNT_ALLOCATIONS 1
namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line: inlined into gtest's test factories, the free() draws
// GCC's -Wmismatched-new-delete against a new it cannot see is malloc.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace modb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool Composed(const MovingPoint& a, const MovingPoint& b, double d) {
  Result<MovingReal> dist = LiftedDistance(a, b);
  if (!dist.ok() || dist->IsEmpty()) return false;
  Result<MovingReal> am = AtMin(*dist);
  return am.ok() && !am->IsEmpty() && am->Initial().val() < d;
}

TimeInterval TI(double s, double e, bool lc = true, bool rc = true) {
  return *TimeInterval::Make(s, e, lc, rc);
}

UPoint U(TimeInterval iv, Point p0, Point p1) {
  return *UPoint::FromEndpoints(iv, p0, p1);
}

MovingPoint MP(std::vector<UPoint> units) {
  return *MovingPoint::Make(std::move(units));
}

// Thresholds around everything the composed answer can turn on: the
// global minimum, the value AtMin's Initial() reads, and the edge
// values of d.
std::vector<double> Thresholds(const MovingPoint& a, const MovingPoint& b) {
  std::vector<double> ds = {-50, 0,    kNaN, kInf, 1e300,
                            1,   50,   400,  1e-300, 5e-324};
  Result<MovingReal> dist = LiftedDistance(a, b);
  if (!dist.ok() || dist->IsEmpty()) return ds;
  std::vector<double> anchors = {*MinValue(*dist)};
  Result<MovingReal> am = AtMin(*dist);
  if (am.ok() && !am->IsEmpty()) anchors.push_back(am->Initial().val());
  for (double x : anchors) {
    for (double v : {x, std::nextafter(x, kInf), std::nextafter(x, -kInf),
                     x * (1 + 1e-9), x * (1 - 1e-9), x + 1e-9, x + 2e-9,
                     x + 3e-9, x * (1 + 1e-6), x * 0.5, x * 2, x + 1}) {
      ds.push_back(v);
    }
  }
  return ds;
}

// Checks every threshold; returns the number of disagreements (each is
// also reported).
int ExpectAgree(const MovingPoint& a, const MovingPoint& b,
                const char* what) {
  int mismatches = 0;
  for (double d : Thresholds(a, b)) {
    for (bool swap : {false, true}) {
      const MovingPoint& x = swap ? b : a;
      const MovingPoint& y = swap ? a : b;
      const bool composed = Composed(x, y, d);
      const bool fused = EverWithin(x, y, d);
      if (composed != fused) {
        ++mismatches;
        ADD_FAILURE() << what << ": d=" << d << " swap=" << swap
                      << " composed=" << composed << " fused=" << fused;
      }
    }
  }
  return mismatches;
}

// -- hand-built edge cases ---------------------------------------------------

TEST(EverWithinTest, TangentApproachAtExactlyD) {
  // a passes (0, 0) at t = 10; b waits at (0, 50): the minimum is
  // exactly 50, reached at a vertex.
  MovingPoint a = MP({U(TI(0, 20), Point(-10, 0), Point(10, 0))});
  MovingPoint b = MP({U(TI(0, 20), Point(0, 50), Point(0, 50))});
  EXPECT_FALSE(EverWithin(a, b, 50));
  EXPECT_TRUE(EverWithin(a, b, std::nextafter(50.0, kInf)));
  ExpectAgree(a, b, "tangent vertex");
  // The same tangent reached at a unit boundary shared by both points.
  MovingPoint c = MP({U(TI(0, 10, true, false), Point(-10, 0), Point(0, 0)),
                      U(TI(10, 20), Point(0, 0), Point(0, -10))});
  ExpectAgree(c, b, "tangent at shared boundary");
}

TEST(EverWithinTest, SingleInstantUnits) {
  MovingPoint a = MP({U(TI(5, 5), Point(0, 0), Point(0, 0))});
  MovingPoint b = MP({U(TI(0, 10), Point(-5, 3), Point(5, 3))});
  EXPECT_TRUE(EverWithin(a, b, 3.5));
  EXPECT_FALSE(EverWithin(a, b, 3));
  ExpectAgree(a, b, "instant inside unit");
  // An instant unit between two open ends, with a jump on each side.
  MovingPoint c = MP({U(TI(0, 5, true, false), Point(0, 0), Point(0, 1)),
                      U(TI(5, 5), Point(40, 0), Point(40, 0)),
                      U(TI(5, 10, false, true), Point(0, 1), Point(0, 2))});
  ExpectAgree(c, b, "instant between open ends");
  ExpectAgree(c, a, "instant against instant");
}

TEST(EverWithinTest, DisjointAndTouchingDeftimes) {
  const Point p0(0, 0), p1(1, 0), q0(0, 2), q1(1, 2);
  for (bool a_rc : {false, true}) {
    for (bool b_lc : {false, true}) {
      MovingPoint a = MP({U(TI(0, 1, true, a_rc), p0, p1)});
      MovingPoint b = MP({U(TI(1, 2, b_lc, true), q1, q0)});
      // They share instant 1 only when both ends are closed.
      EXPECT_EQ(EverWithin(a, b, 10), a_rc && b_lc);
      ExpectAgree(a, b, "touching");
    }
  }
  MovingPoint a = MP({U(TI(0, 1), p0, p1)});
  MovingPoint b = MP({U(TI(2, 3), q0, q1)});
  EXPECT_FALSE(EverWithin(a, b, kInf));
  ExpectAgree(a, b, "disjoint");
}

TEST(EverWithinTest, MinimumOnOpenEndpoints) {
  // a closes in on b until the open end of the overlap at t = 10:
  // AtMin's minimum sits on an instant no unit contains, so the
  // composed predicate says false for every d.
  MovingPoint a = MP({U(TI(0, 10, true, false), Point(0, 0), Point(9, 0))});
  MovingPoint b = MP({U(TI(0, 20), Point(10, 0), Point(10, 0))});
  EXPECT_FALSE(EverWithin(a, b, kInf));
  ExpectAgree(a, b, "stranded open end");
  // A dip under d earlier does not change that.
  MovingPoint dip = MP({U(TI(0, 5), Point(0, 0), Point(9, 0)),
                        U(TI(5, 10, false, false), Point(5, 0), Point(9.5, 0))});
  ExpectAgree(dip, b, "dip then stranded end");
  // A gap in a's deftime strands the minimum the same way.
  MovingPoint gap = MP({U(TI(0, 4, true, false), Point(0, 0), Point(9, 0)),
                        U(TI(6, 10), Point(0, 0), Point(1, 0))});
  ExpectAgree(gap, b, "stranded before a gap");
  // A jump: the open end is continued by a unit that starts far away,
  // and Initial() reads that unit's value.
  MovingPoint jump = MP({U(TI(0, 10, true, false), Point(0, 0), Point(9.9, 0)),
                         U(TI(10, 20), Point(-90, 0), Point(-80, 0))});
  ExpectAgree(jump, b, "jump after open end");
  // Left-open start continued by a closed end before it.
  MovingPoint left = MP({U(TI(0, 10), Point(-90, 0), Point(-80, 0)),
                         U(TI(10, 20, false, true), Point(9.9, 0), Point(0, 0))});
  ExpectAgree(left, b, "jump before open start");
}

TEST(EverWithinTest, StationaryAndIdenticalTrails) {
  MovingPoint s = MP({U(TI(0, 10), Point(3, 4), Point(3, 4))});
  MovingPoint o = MP({U(TI(0, 10), Point(0, 0), Point(0, 0))});
  EXPECT_TRUE(EverWithin(s, o, 5.5));
  EXPECT_FALSE(EverWithin(s, o, 5));
  ExpectAgree(s, o, "stationary pair");
  std::mt19937_64 rng(3);
  TrajectoryOptions opts;
  opts.num_units = 40;
  opts.stop_probability = 0.3;
  MovingPoint w = *RandomWalkPoint(rng, opts);
  EXPECT_TRUE(EverWithin(w, w, 1e-300));
  EXPECT_FALSE(EverWithin(w, w, 0));
  ExpectAgree(w, w, "identical trails");
  // A constant distance large enough that AtMin does not keep the unit
  // whole (UReal::EqualsEverywhere misses by rounding).
  MovingPoint far = MP({U(TI(0, 10, false, false), Point(1e5 + 0.1, 7),
                          Point(1e5 + 0.1, 7))});
  ExpectAgree(far, o, "constant far distance, open unit");
}

TEST(EverWithinTest, SharedEndpoints) {
  // Both trails change motion at the same instants; b's units mirror
  // a's, so every refinement interval has a different quadratic.
  std::vector<UPoint> ua, ub;
  for (int k = 0; k < 6; ++k) {
    const bool last = k == 5;
    TimeInterval iv = TI(k, k + 1, true, last);
    ua.push_back(U(iv, Point(k, k % 2), Point(k + 1, (k + 1) % 2)));
    ub.push_back(U(iv, Point(k, 3 - k % 2), Point(k + 1, 3 - (k + 1) % 2)));
  }
  MovingPoint a = MP(ua), b = MP(ub);
  ExpectAgree(a, b, "shared endpoints");
  // Translated copies: equal quadratics on adjacent intervals, which
  // the composed builder merges into one unit.
  std::vector<UPoint> uc;
  for (const UPoint& u : ua) {
    const LinearMotion& m = u.motion();
    uc.push_back(*UPoint::Make(u.interval(),
                               LinearMotion{m.x0 + 5, m.x1, m.y0, m.y1}));
  }
  ExpectAgree(a, MP(uc), "merged equal quadratics");
}

TEST(EverWithinTest, MergedUnitsHideTheirInnerBoundary) {
  // Both points turn at tb by the same velocity change, so the two
  // refinement intervals carry one quadratic and the composed builder
  // merges them: the boundary tb is no candidate of AtMin. At t ~ 2e6
  // the radicand loses its low digits, and its value at tb is far below
  // the merged unit's minimum, so a sweep that does not merge as the
  // builder does would answer differently.
  const double tb = 2097145;
  auto pair = [tb](LinearMotion m1, LinearMotion m2) {
    return MP({*UPoint::Make(TI(tb - 4, tb, true, false), m1),
               *UPoint::Make(TI(tb, tb + 4), m2)});
  };
  MovingPoint a = pair({-79692259.203338966, 38, 92274896.235980287, -44},
                       {-94372274.203338966, 45, 75497736.235980287, -36});
  MovingPoint b = pair({-749, 0, 516, 0}, {-14680764, 7, -16776644, 8});
  ASSERT_EQ(LiftedDistance(a, b)->NumUnits(), 1u);
  ExpectAgree(a, b, "merged units at large t");
}

TEST(EverWithinTest, ConstantDistanceOnOpenUnitNeedsNoFallback) {
  // AtMin keeps a constant unit at the minimum whole, open ends
  // included, so the sweep decides it alone.
  MovingPoint s = MP({U(TI(0, 10, false, false), Point(3, 4), Point(3, 4))});
  MovingPoint o = MP({U(TI(0, 10), Point(0, 0), Point(0, 0))});
  EverWithinStats stats;
  EXPECT_TRUE(EverWithin(s, o, 6, &stats));
  EXPECT_FALSE(EverWithin(s, o, 4, &stats));
  EXPECT_EQ(stats.fallbacks, 0u);
  ExpectAgree(s, o, "constant open unit");
}

TEST(EverWithinTest, EdgeThresholds) {
  MovingPoint a = MP({U(TI(0, 10), Point(0, 0), Point(10, 0))});
  MovingPoint b = MP({U(TI(0, 10), Point(10, 30), Point(0, 30))});
  for (double d : {-50.0, 0.0, -0.0, kNaN, -kInf}) {
    EXPECT_FALSE(EverWithin(a, b, d)) << d;
  }
  for (double d : {kInf, 1e300, std::numeric_limits<double>::max()}) {
    EXPECT_TRUE(EverWithin(a, b, d)) << d;
  }
  ExpectAgree(a, b, "edge thresholds");
}

// -- generated pairs -----------------------------------------------------------

// A trail on a coarse time grid (so the two trails share endpoints),
// with random open/closed ends, single-instant units, gaps, jumps and
// stops. Each unit starts where the previous one ended unless it jumps.
MovingPoint IrregularTrail(std::mt19937_64& rng, int units, double extent) {
  std::uniform_int_distribution<int> step(1, 3);
  std::uniform_real_distribution<double> coord(0, extent);
  std::uniform_real_distribution<double> move(-extent / 8, extent / 8);
  std::uniform_real_distribution<double> unit01(0, 1);
  MappingBuilder<UPoint> out;
  double t = std::uniform_int_distribution<int>(0, 4)(rng);
  bool prev_rc = false;
  Point pos(coord(rng), coord(rng));
  for (int k = 0; k < units; ++k) {
    const double r = unit01(rng);
    if (r < 0.1) {
      t += step(rng);  // gap
      prev_rc = false;
    }
    const bool instant = unit01(rng) < 0.1;
    // A unit may start closed only if the previous one ended open here.
    const bool lc = !prev_rc && unit01(rng) < 0.7;
    if (instant && !lc) {
      t += 1;
      prev_rc = false;
    }
    const double end = instant ? t : t + step(rng);
    const bool rc = instant || unit01(rng) < 0.3;
    if (unit01(rng) < 0.15) pos = Point(coord(rng), coord(rng));  // jump
    Point next = pos;
    if (!instant && unit01(rng) > 0.2) {
      next = Point(pos.x + move(rng), pos.y + move(rng));
    }
    Result<TimeInterval> iv = TimeInterval::Make(t, end, instant || lc, rc);
    if (!iv.ok()) break;
    // The builder merges a stop that repeats the previous one.
    if (!out.Append(*UPoint::FromEndpoints(*iv, pos, next)).ok()) break;
    pos = next;
    t = end;
    prev_rc = rc;
  }
  Result<MovingPoint> mp = out.Build();
  return mp.ok() ? *mp : MovingPoint();
}

TEST(EverWithinDifferential, IrregularTrailPairs) {
  std::mt19937_64 rng(20240517);
  int pairs = 0;
  for (int n = 0; n < 400; ++n) {
    const double extent = n % 2 ? 20 : 200;
    MovingPoint a = IrregularTrail(rng, 1 + n % 12, extent);
    MovingPoint b = IrregularTrail(rng, 1 + (n / 3) % 12, extent);
    if (a.IsEmpty() || b.IsEmpty()) continue;
    ++pairs;
    ASSERT_EQ(ExpectAgree(a, b, "irregular pair"), 0) << "pair " << n;
  }
  EXPECT_GT(pairs, 300);
}

TEST(EverWithinDifferential, FleetLikeTrails) {
  std::mt19937_64 rng(11);
  TrajectoryOptions opts;
  opts.num_units = 1250;
  opts.stop_probability = 0.05;
  opts.extent = 500;
  for (int n = 0; n < 6; ++n) {
    MovingPoint a = *RandomWalkPoint(rng, opts);
    MovingPoint b = *RandomWalkPoint(rng, opts);
    ASSERT_EQ(ExpectAgree(a, b, "fleet pair"), 0) << "pair " << n;
  }
}

TEST(EverWithinDifferential, PlanesPairs) {
  FlightsOptions opts;
  opts.num_flights = 48;
  opts.seed = 99;
  Relation planes = *GeneratePlanes(opts);
  EverWithinStats stats;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < planes.NumTuples(); ++i) {
    const auto& a = std::get<MovingPoint>(planes.tuple(i)[kFlightAttrFlight]);
    for (std::size_t j = i + 1; j < planes.NumTuples(); ++j) {
      const auto& b =
          std::get<MovingPoint>(planes.tuple(j)[kFlightAttrFlight]);
      for (double d : {1.0, 50.0, 400.0, 2000.0}) {
        ASSERT_EQ(EverWithin(a, b, d, &stats), Composed(a, b, d))
            << i << "," << j << " d=" << d;
        ++pairs;
      }
    }
  }
#ifdef MODB_NO_METRICS
  EXPECT_EQ(stats.intervals, 0u);
  EXPECT_EQ(stats.fallbacks, 0u);
#else
  EXPECT_GT(stats.intervals, pairs);
  // Contiguous straight flights leave nothing too close to call.
  EXPECT_LT(stats.fallbacks * 100, pairs);
#endif
}

// -- the block pass against the per-interval sweep it replaced ----------------

// The sweep as it ran before the block pass, one interval at a time:
// the reference EverWithin's verdict, `intervals` and `fallbacks` must
// equal, in both SIMD modes.
namespace reference {

struct Quad {
  double a, b, c;
};

double Radicand(const Quad& q, double t) { return q.a * t * t + q.b * t + q.c; }

bool RadicandOk(const Quad& q, double v) {
  return v >= -kEpsilon * (1 + std::fabs(q.c)) && v < kInf;
}

class Sweep {
 public:
  enum class Verdict { kFalse, kTrue, kUnsure };

  void Add(const TimeInterval& iv, const Quad& q) {
    const double v_start = Radicand(q, iv.start());
    const double v_end = Radicand(q, iv.end());
    if (!RadicandOk(q, v_start) || !RadicandOk(q, v_end)) unsure_ = true;
    if (has_cur_ && cur_.q.a == q.a && cur_.q.b == q.b && cur_.q.c == q.c &&
        TimeInterval::Adjacent(cur_.iv, iv)) {
      cur_.iv = TimeInterval::Merge(cur_.iv, iv);
      cur_.v_end = v_end;
      return;
    }
    if (has_cur_) Close();
    cur_ = {iv, q, v_start, v_end};
    has_cur_ = true;
  }

  Verdict Decide(double d) {
    if (has_cur_) Close();
    if (open_end_pending_) Stranded(open_end_);
    if (!has_prev_) return Verdict::kFalse;
    if (unsure_) return Verdict::kUnsure;
    const double m = std::sqrt(min_);
    if (!(m < d)) return Verdict::kFalse;
    const double band = m + 2 * kEpsilon * (1 + m);
    if (!(band < d)) return Verdict::kUnsure;
    if (std::sqrt(stranded_min_) <= band) return Verdict::kUnsure;
    if (std::sqrt(continued_min_) <= band &&
        !(std::sqrt(band * band + jump_) * (1 + 1e-12) < d)) {
      return Verdict::kUnsure;
    }
    return Verdict::kTrue;
  }

 private:
  struct Unit {
    TimeInterval iv = TimeInterval::At(0);
    Quad q{};
    double v_start = 0;
    double v_end = 0;
  };

  void Close() {
    has_cur_ = false;
    const Unit& u = cur_;
    const double w_start = std::max(u.v_start, 0.0);
    const double w_end = std::max(u.v_end, 0.0);
    min_ = std::min({min_, w_start, w_end});
    if (u.q.a != 0) {
      const double vertex = -u.q.b / (2 * u.q.a);
      if (u.iv.ContainsOpen(vertex)) {
        const double v = Radicand(u.q, vertex);
        if (!RadicandOk(u.q, v)) unsure_ = true;
        min_ = std::min(min_, std::max(v, 0.0));
      }
    }
    bool whole = false;
    if (u.q.a == 0 && u.q.b == 0) {
      const double value = u.v_start <= 0 ? 0 : std::sqrt(u.v_start);
      whole = std::fabs(u.q.c - value * value) <= kEpsilon;
    }
    const bool adjacent = has_prev_ && TimeInterval::Adjacent(prev_iv_, u.iv);
    if (open_end_pending_) {
      open_end_pending_ = false;
      if (adjacent && u.iv.left_closed()) {
        Continued(open_end_, w_start);
      } else {
        Stranded(open_end_);
      }
    }
    if (!whole && !u.iv.left_closed()) {
      if (adjacent && prev_iv_.right_closed()) {
        Continued(w_start, prev_end_);
      } else {
        Stranded(w_start);
      }
    }
    if (!whole && !u.iv.right_closed()) {
      open_end_pending_ = true;
      open_end_ = w_end;
    }
    has_prev_ = true;
    prev_iv_ = u.iv;
    prev_end_ = w_end;
  }

  void Continued(double own, double neighbour) {
    continued_min_ = std::min(continued_min_, own);
    jump_ = std::max(jump_, neighbour - own);
  }
  void Stranded(double own) { stranded_min_ = std::min(stranded_min_, own); }

  Unit cur_;
  bool has_cur_ = false;
  TimeInterval prev_iv_ = TimeInterval::At(0);
  double prev_end_ = 0;
  bool has_prev_ = false;
  bool open_end_pending_ = false;
  double open_end_ = 0;
  double min_ = kInf;
  double stranded_min_ = kInf;
  double continued_min_ = kInf;
  double jump_ = 0;
  bool unsure_ = false;
};

struct Outcome {
  bool verdict = false;
  std::uint64_t intervals = 0;
  std::uint64_t fallbacks = 0;
};

Outcome EverWithin(const MovingPoint& a, const MovingPoint& b, double d) {
  Outcome out;
  if (!(d > 0)) return out;
  Sweep sweep;
  (void)ForEachCommonInterval(
      a, b, [&](const TimeInterval& iv, std::size_t i, std::size_t j) {
        ++out.intervals;
        const LinearMotion& p = a.unit(i).motion();
        const LinearMotion& q = b.unit(j).motion();
        const double dx0 = p.x0 - q.x0, dx1 = p.x1 - q.x1;
        const double dy0 = p.y0 - q.y0, dy1 = p.y1 - q.y1;
        sweep.Add(iv, {dx1 * dx1 + dy1 * dy1, 2 * (dx0 * dx1 + dy0 * dy1),
                       dx0 * dx0 + dy0 * dy0});
        return Status::OK();
      });
  const Sweep::Verdict verdict = sweep.Decide(d);
  out.fallbacks = verdict == Sweep::Verdict::kUnsure ? 1 : 0;
  out.verdict = verdict == Sweep::Verdict::kUnsure
                    ? Composed(a, b, d)
                    : verdict == Sweep::Verdict::kTrue;
  return out;
}

}  // namespace reference

// The SIMD modes the block pass can run in on this CPU.
std::vector<simd::Mode> PassModes() {
  std::vector<simd::Mode> modes = {simd::Mode::kScalar};
  if (simd::CpuHasAvx2()) modes.push_back(simd::Mode::kAvx2);
  return modes;
}

// EverWithin against reference::EverWithin at every threshold, both
// ways round, in every mode; returns the number of disagreements.
int ExpectSameAsReference(const MovingPoint& a, const MovingPoint& b,
                          const char* what) {
  // Thresholds at the edges of the band within which a continued open
  // end makes the sweep unsure, too.
  std::vector<double> ds = Thresholds(a, b);
  Result<MovingReal> dist = LiftedDistance(a, b);
  if (dist.ok() && !dist->IsEmpty()) {
    const double m = *MinValue(*dist);
    const double band = m + 2 * kEpsilon * (1 + m);
    for (double x : {band, std::nextafter(band, kInf), band * (1 + 5e-13),
                     band * (1 + 2e-12)}) {
      ds.push_back(x);
    }
  }
  int mismatches = 0;
  for (simd::Mode mode : PassModes()) {
    simd::SetSimdMode(mode);
    for (double d : ds) {
      for (bool swap : {false, true}) {
        const MovingPoint& x = swap ? b : a;
        const MovingPoint& y = swap ? a : b;
        const reference::Outcome want = reference::EverWithin(x, y, d);
        EverWithinStats stats;
        const bool got = EverWithin(x, y, d, &stats);
#ifdef MODB_NO_METRICS
        stats.intervals = want.intervals;
        stats.fallbacks = want.fallbacks;
#endif
        if (got != want.verdict || stats.intervals != want.intervals ||
            stats.fallbacks != want.fallbacks) {
          ++mismatches;
          ADD_FAILURE() << what << ": mode=" << int(mode) << " d=" << d
                        << " swap=" << swap << " verdict " << got << " vs "
                        << want.verdict << ", intervals " << stats.intervals
                        << " vs " << want.intervals << ", fallbacks "
                        << stats.fallbacks << " vs " << want.fallbacks;
        }
      }
    }
  }
  simd::SetSimdMode(simd::Mode::kAuto);
  return mismatches;
}

// The block size, and the shortest final block that takes the pass.
constexpr int kBlock = 64;
constexpr int kShort = 16;

// Two trails on the shared grid [k, k + 1), k < n (the last unit
// closed), wandering over a 60 m square: every common interval is
// half-open and continues the one before it, the pass's bulk case.
// Coordinates are multiples of 1/8 and velocities integers, so every
// motion coefficient, and every difference of two, is exact.
struct GridPair {
  std::vector<UPoint> a, b;

  GridPair(int n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> step(-24, 24);
    double ax = 240, ay = 240, bx = 200, by = 260;
    for (int k = 0; k < n; ++k) {
      const double t = k;
      const double avx = step(rng) / 8.0, avy = step(rng) / 8.0;
      const double bvx = step(rng) / 8.0, bvy = step(rng) / 8.0;
      a.push_back(Unit(k, k + 1 == n, {ax - avx * t, avx, ay - avy * t, avy}));
      b.push_back(Unit(k, k + 1 == n, {bx - bvx * t, bvx, by - bvy * t, bvy}));
      ax += avx;
      ay += avy;
      bx += bvx;
      by += bvy;
    }
  }

  static UPoint Unit(double t, bool last, LinearMotion m) {
    return *UPoint::Make(TI(t, t + 1, true, last), m);
  }

  // Builds both trails, merging what the builder merges.
  std::pair<MovingPoint, MovingPoint> Build() const {
    return {Mapping(a), Mapping(b)};
  }

  static MovingPoint Mapping(const std::vector<UPoint>& units) {
    MappingBuilder<UPoint> builder;
    for (const UPoint& u : units) EXPECT_TRUE(builder.Append(u).ok());
    return *builder.Build();
  }
};

// `u` with motion `m`.
UPoint GridSlot(const UPoint& u, LinearMotion m) {
  return *UPoint::Make(u.interval(), m);
}

TEST(EverWithinBlockPass, IntervalCountsAroundTheBlock) {
  for (int n : {1, 2, 3, kShort - 1, kShort, kShort + 1, kBlock - 1, kBlock,
                kBlock + 1, kBlock + kShort, 2 * kBlock + 1, 5 * kBlock}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      auto [a, b] = GridPair(n, seed).Build();
      ASSERT_EQ(ExpectSameAsReference(a, b, "grid pair"), 0)
          << n << " intervals, seed " << seed;
    }
  }
}

TEST(EverWithinBlockPass, GapInsideARun) {
  for (int at : {1, 30, kBlock - 1, kBlock, kBlock + 1}) {
    GridPair g(150, 4);
    g.a.erase(g.a.begin() + at);
    auto [a, b] = g.Build();
    ASSERT_EQ(ExpectSameAsReference(a, b, "gap"), 0) << at;
  }
}

TEST(EverWithinBlockPass, ClosedInteriorEnd) {
  for (int at : {1, 30, kBlock - 2, kBlock - 1, kBlock}) {
    GridPair g(150, 5);
    // Unit `at` closes at its end and the next one opens there.
    const UPoint& u = g.a[std::size_t(at)];
    const UPoint& v = g.a[std::size_t(at) + 1];
    g.a[std::size_t(at)] = *UPoint::Make(
        TI(u.interval().start(), u.interval().end(), true, true), u.motion());
    g.a[std::size_t(at) + 1] = *UPoint::Make(
        TI(v.interval().start(), v.interval().end(), false, false),
        v.motion());
    auto [a, b] = g.Build();
    ASSERT_EQ(ExpectSameAsReference(a, b, "closed interior end"), 0) << at;
  }
}

TEST(EverWithinBlockPass, AdjacentEqualQuadraticsMerge) {
  for (int at : {1, 30, kBlock - 2, kBlock - 1}) {
    GridPair g(150, 6);
    // Over units at and at + 1, b is a plus one fixed linear motion, so
    // both intervals carry one quadratic, though each trail turns at
    // at + 1 (the builder keeps their units apart). b keeps 500 m off
    // elsewhere, so the closest approach, 4 m at t = at + 1, sits on
    // the boundary the merge hides.
    const double t = at;
    const LinearMotion a0{100 - 2 * t, 2, 50 + t, -1};
    const double x1 = a0.x0 + a0.x1 * (t + 1), y1 = a0.y0 + a0.y1 * (t + 1);
    const LinearMotion a1{x1 + 3 * (t + 1), -3, y1 - 2 * (t + 1), 2};
    const LinearMotion r{-(t + 1), 1, 4, 0};
    auto plus = [](const LinearMotion& m, const LinearMotion& r) {
      return LinearMotion{m.x0 + r.x0, m.x1 + r.x1, m.y0 + r.y0, m.y1 + r.y1};
    };
    for (int k = 0; k < 150; ++k) {
      g.b[std::size_t(k)] = GridSlot(
          g.b[std::size_t(k)],
          plus(g.b[std::size_t(k)].motion(), LinearMotion{500, 0, 0, 0}));
    }
    g.a[std::size_t(at)] = GridPair::Unit(t, false, a0);
    g.a[std::size_t(at) + 1] = GridPair::Unit(t + 1, false, a1);
    g.b[std::size_t(at)] = GridPair::Unit(t, false, plus(a0, r));
    g.b[std::size_t(at) + 1] = GridPair::Unit(t + 1, false, plus(a1, r));
    auto [a, b] = g.Build();
    ASSERT_EQ(a.NumUnits(), 150u);
    ASSERT_EQ(LiftedDistance(a, b)->NumUnits(), 149u);
    ASSERT_EQ(*MinValue(*LiftedDistance(a, b)), 4);
    ASSERT_EQ(ExpectSameAsReference(a, b, "merge"), 0) << at;
  }
}

TEST(EverWithinBlockPass, ConstantDistanceUnits) {
  for (int at : {1, 30, kBlock - 2, kBlock}) {
    GridPair g(150, 7);
    // b rides 5 m off a for three units: a constant distance, and the
    // builder merges the three equal ureals.
    for (int k = at; k < at + 3; ++k) {
      const LinearMotion& m = g.a[std::size_t(k)].motion();
      g.b[std::size_t(k)] = GridPair::Unit(
          k, false, LinearMotion{m.x0 + 3, m.x1, m.y0 + 4, m.y1});
    }
    auto [a, b] = g.Build();
    ASSERT_EQ(ExpectSameAsReference(a, b, "constant distance"), 0) << at;
  }
}

TEST(EverWithinBlockPass, StrandedOpenEndAtTheMinimum) {
  for (int at : {1, 30, kBlock - 1, kBlock}) {
    GridPair g(150, 8);
    // b keeps 500 m off except over unit `at`, where a dives at it and
    // then leaves a gap: the closest approach is on an open end no unit
    // continues, which only the composed operators can call.
    for (int k = 0; k < 150; ++k) {
      if (k == at) continue;
      const LinearMotion& m = g.b[std::size_t(k)].motion();
      g.b[std::size_t(k)] = GridSlot(g.b[std::size_t(k)],
                                     {m.x0 + 500, m.x1, m.y0, m.y1});
    }
    const UPoint& u = g.b[std::size_t(at)];
    const Point target = u.motion().At(at + 1);
    g.a[std::size_t(at)] = *UPoint::FromEndpoints(
        TI(at, at + 1, true, false), Point(target.x + 40, target.y),
        Point(target.x + 0.5, target.y));
    g.a.erase(g.a.begin() + at + 1);
    auto [a, b] = g.Build();
    ASSERT_EQ(reference::EverWithin(a, b, 1).fallbacks, 1u) << at;
    ASSERT_EQ(ExpectSameAsReference(a, b, "stranded minimum"), 0) << at;
  }
}

TEST(EverWithinBlockPass, JumpAtAContinuedOpenEnd) {
  constexpr int n = 150;
  for (int at : {1, 30, kBlock - 1, kBlock, kBlock + 1}) {
    // a paces 30-31 m from a fixed b, except that unit at - 1 closes in
    // to 1 m at its open end and unit `at` restarts at 10 m: the minimum
    // is a continued open end whose neighbour lies far above it, and
    // only that jump keeps the sweep unsure for d in (1, 10).
    std::vector<UPoint> a, b;
    for (int k = 0; k < n; ++k) {
      const double x0 = k == at ? 10 : 30 + k % 2;
      const double x1 = k == at - 1 ? 1 : 30 + (k + 1) % 2;
      const double v = x1 - x0;
      a.push_back(GridPair::Unit(k, k + 1 == n, {x0 - v * k, v, 0, 0}));
      b.push_back(GridPair::Unit(k, k + 1 == n, {0, 0, 0, 0}));
    }
    const MovingPoint pa = GridPair::Mapping(a);
    const MovingPoint pb = GridPair::Mapping(b);
    ASSERT_EQ(reference::EverWithin(pa, pb, 2).fallbacks, 1u) << at;
    ASSERT_EQ(ExpectSameAsReference(pa, pb, "jump"), 0) << at;
  }
}

TEST(EverWithinBlockPass, NonFiniteRadicand) {
  for (int at : {1, 30, kBlock}) {
    GridPair g(150, 9);
    // One unit far enough away that the squared distance overflows.
    g.a[std::size_t(at)] =
        GridPair::Unit(at, false, LinearMotion{1e200, 0, 1e200, 0});
    auto [a, b] = g.Build();
    ASSERT_EQ(ExpectSameAsReference(a, b, "overflow"), 0) << at;
    EverWithinStats stats;
    (void)EverWithin(a, b, 50, &stats);
#ifndef MODB_NO_METRICS
    EXPECT_EQ(stats.fallbacks, 1u);
#endif
  }
}

TEST(EverWithinBlockPass, IrregularLongTrails) {
  // Gaps, instants, open and closed ends, jumps and stops, over enough
  // intervals that the pass takes most blocks.
  std::mt19937_64 rng(77);
  int pairs = 0;
  for (int n = 0; n < 60; ++n) {
    const double extent = n % 2 ? 20 : 200;
    MovingPoint a = IrregularTrail(rng, 20 + n * 7, extent);
    MovingPoint b = IrregularTrail(rng, 20 + n * 5, extent);
    if (a.IsEmpty() || b.IsEmpty()) continue;
    ++pairs;
    ASSERT_EQ(ExpectSameAsReference(a, b, "irregular long pair"), 0) << n;
  }
  EXPECT_GT(pairs, 50);
}

TEST(EverWithinBlockPass, FleetAndPlanesPairs) {
  std::mt19937_64 rng(12);
  TrajectoryOptions opts;
  opts.num_units = 700;
  opts.unit_duration = 10;
  opts.extent = 2000;
  opts.max_step = 150;
  opts.stop_probability = 0.05;
  for (int n = 0; n < 4; ++n) {
    MovingPoint a = *RandomWalkPoint(rng, opts);
    MovingPoint b = *RandomWalkPoint(rng, opts);
    ASSERT_EQ(ExpectSameAsReference(a, b, "fleet pair"), 0) << n;
  }
  FlightsOptions planes_opts;
  planes_opts.num_flights = 24;
  planes_opts.seed = 7;
  Relation planes = *GeneratePlanes(planes_opts);
  for (std::size_t i = 0; i + 1 < planes.NumTuples(); i += 2) {
    ASSERT_EQ(ExpectSameAsReference(
                  std::get<MovingPoint>(planes.tuple(i)[kFlightAttrFlight]),
                  std::get<MovingPoint>(planes.tuple(i + 1)[kFlightAttrFlight]),
                  "planes pair"),
              0)
        << i;
  }
}

// Every co-defined interval of the refinement partition, in order, with
// the same unit indices.
template <typename UA, typename UB>
void ExpectCommonIntervalsMatchPartition(const Mapping<UA>& a,
                                         const Mapping<UB>& b) {
  std::vector<RefinementEntry> want;
  for (const RefinementEntry& e : RefinementPartition(a, b)) {
    if (e.HasBoth()) want.push_back(e);
  }
  std::size_t k = 0;
  Status walked = ForEachCommonInterval(
      a, b, [&](const TimeInterval& iv, std::size_t i, std::size_t j) {
        if (k == want.size()) {
          return Status::OutOfRange("more intervals than the partition");
        }
        EXPECT_EQ(iv, want[k].interval);
        EXPECT_EQ(i, std::size_t(want[k].unit_a));
        EXPECT_EQ(j, std::size_t(want[k].unit_b));
        ++k;
        return Status::OK();
      });
  ASSERT_TRUE(walked.ok()) << walked.ToString();
  EXPECT_EQ(k, want.size());
}

TEST(ForEachCommonIntervalTest, MatchesRefinementPartition) {
  std::mt19937_64 rng(5);
  for (int n = 0; n < 300; ++n) {
    MovingPoint a = IrregularTrail(rng, 1 + n % 9, 50);
    MovingPoint b = IrregularTrail(rng, 1 + n % 7, 50);
    ExpectCommonIntervalsMatchPartition(a, b);
  }
  // Mixed unit types with a gap and open and closed ends.
  MovingInt ints = *MovingInt::Make(
      {*UInt::Make(*TimeInterval::Make(0, 2, true, true), 1),
       *UInt::Make(*TimeInterval::Make(3, 5, false, true), 2)});
  MovingBool bools =
      *MovingBool::Make({*UBool::Make(*TimeInterval::Make(1, 4, true, true),
                                      true)});
  ExpectCommonIntervalsMatchPartition(ints, bools);
}

TEST(ForEachCommonIntervalTest, StopsAtFirstFailedCallback) {
  // Ten unit-long ints under one bool: ten co-defined intervals.
  std::vector<UInt> units;
  for (int k = 0; k < 10; ++k) {
    units.push_back(
        *UInt::Make(*TimeInterval::Make(k, k + 1, true, k == 9), k));
  }
  MovingInt ints = *MovingInt::Make(std::move(units));
  MovingBool bools =
      *MovingBool::Make({*UBool::Make(*TimeInterval::Make(0, 10, true, true),
                                      true)});
  // The walk returns the k-th callback's failure and makes no further call.
  for (std::size_t fail_at : {0u, 4u, 9u}) {
    std::size_t calls = 0;
    Status s = ForEachCommonInterval(
        ints, bools, [&](const TimeInterval&, std::size_t, std::size_t) {
          if (calls++ == fail_at) return Status::Internal("stop here");
          return Status::OK();
        });
    EXPECT_EQ(s.code(), StatusCode::kInternal) << fail_at;
    EXPECT_EQ(s.message(), "stop here") << fail_at;
    EXPECT_EQ(calls, fail_at + 1);
  }
  std::size_t calls = 0;
  Status s = ForEachCommonInterval(
      ints, bools, [&](const TimeInterval&, std::size_t, std::size_t) {
        ++calls;
        return Status::OK();
      });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(calls, 10u);
}

#ifdef MODB_COUNT_ALLOCATIONS
TEST(EverWithinTest, SweepAllocatesNothing) {
  std::mt19937_64 rng(9);
  TrajectoryOptions opts;
  opts.num_units = 1250;
  MovingPoint a = *RandomWalkPoint(rng, opts);
  MovingPoint b = *RandomWalkPoint(rng, opts);
  EverWithinStats stats;
  const long before = g_allocations.load();
  bool any = false;
  for (double d : {1.0, 50.0, 400.0, kInf}) any |= EverWithin(a, b, d, &stats);
  const long after = g_allocations.load();
  ASSERT_EQ(stats.fallbacks, 0u);
  EXPECT_EQ(after - before, 0);
  EXPECT_TRUE(any);
}
#endif

}  // namespace
}  // namespace modb
