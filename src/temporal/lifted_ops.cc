#include "temporal/lifted_ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <numbers>
#include <optional>

#include "core/real.h"
#include "core/simd.h"
#include "spatial/spatial_ops.h"
#include "temporal/batch_ops.h"
#include "temporal/refinement.h"

namespace modb {

namespace {

// ---------------------------------------------------------------------------
// moving(real) helpers.
// ---------------------------------------------------------------------------

bool EvalCmp(double lhs, double rhs, CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
  }
  return false;
}

// Value of the comparison exactly at an instant where lhs == rhs.
bool CmpAtEquality(CmpOp op) {
  return op == CmpOp::kLe || op == CmpOp::kGe || op == CmpOp::kEq;
}

// Emits boolean units covering `interval` for the predicate
// op(f(t), c), where `breaks` are the instants with f(t) == c, ascending
// (those outside `interval` and repeats are ignored), and `eval_mid(t)`
// evaluates the predicate at an interior instant. Both are template
// parameters, not a vector and a std::function, so a Roots of breaks
// and a capturing evaluator cost no heap allocation.
template <typename Breaks, typename EvalMid>
Status EmitPiecewiseBool(const TimeInterval& interval, const Breaks& breaks,
                         CmpOp op, const EvalMid& eval_mid,
                         MappingBuilder<UBool>* builder) {
  const bool eq_value = CmpAtEquality(op);

  Instant pos = interval.start();
  bool pos_closed = interval.left_closed();
  auto emit_span = [&](Instant to, bool to_closed) -> Status {
    if (to < pos) return Status::OK();
    if (to == pos && !(pos_closed && to_closed)) return Status::OK();
    auto iv = TimeInterval::Make(pos, to, pos_closed, to_closed);
    if (!iv.ok()) return iv.status();
    bool value = eval_mid((pos + to) / 2);
    auto unit = UBool::Make(*iv, value);
    if (!unit.ok()) return unit.status();
    return builder->Append(*unit);
  };

  bool seen = false;
  Instant last = 0;
  for (Instant t : breaks) {
    if (!interval.Contains(t) || (seen && t == last)) continue;
    seen = true;
    last = t;
    // Span before the break.
    MODB_RETURN_IF_ERROR(emit_span(t, false));
    // The break instant itself.
    auto at = UBool::Make(TimeInterval::At(t), eq_value);
    if (!at.ok()) return at.status();
    MODB_RETURN_IF_ERROR(builder->Append(*at));
    pos = t;
    pos_closed = false;
  }
  return emit_span(interval.end(), interval.right_closed());
}

// ---------------------------------------------------------------------------
// inside core (Section 5.2, upoint_uregion_inside).
// ---------------------------------------------------------------------------

// Boolean units describing when the linearly moving point `p` is inside
// the moving boundary given by `msegs`, over `interval`. `snapshot(t)`
// must return the boundary segments at t (plumbline input). Crossing
// instants belong to the true side (the region is closed).
Status InsideCore(const LinearMotion& p, const TimeInterval& interval,
                  const std::vector<MSeg>& msegs,
                  const std::function<std::vector<Seg>(Instant)>& snapshot,
                  MappingBuilder<UBool>* builder) {
  // Find all intersections of the 3D line with the moving segments.
  std::vector<Instant> times;
  for (const MSeg& m : msegs) {
    MSegCrossings c = CrossingTimes(p, m, interval);
    // `always_collinear` (point riding along a boundary line) needs no
    // crossing events; the plumbline midpoint evaluation classifies it.
    for (Instant t : c.times) times.push_back(t);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  auto state_at = [&](Instant t) {
    return EvenOddContains(snapshot(t), p.At(t));
  };

  // Crossings exactly at a closed interval endpoint: the point is on the
  // boundary there, hence inside; emit a degenerate true unit and open
  // the adjoining span.
  Instant lo = interval.start();
  bool lo_closed = interval.left_closed();
  Instant hi = interval.end();
  bool hi_closed = interval.right_closed();
  bool emit_hi_true = false;
  {
    std::vector<Instant> interior;
    for (Instant t : times) {
      if (t == lo && lo_closed) {
        auto at = UBool::Make(TimeInterval::At(lo), true);
        MODB_RETURN_IF_ERROR(builder->Append(*at));
        lo_closed = false;
      } else if (t == hi && hi_closed) {
        emit_hi_true = true;
        hi_closed = false;
      } else if (t > lo && t < hi) {
        interior.push_back(t);
      }
    }
    times = std::move(interior);
  }

  if (lo < hi || (lo == hi && lo_closed && hi_closed)) {
    if (times.empty()) {
      // k = 0 of the paper's algorithm: a single plumbline test decides
      // the whole span.
      auto iv = TimeInterval::Make(lo, hi, lo_closed, hi_closed);
      if (iv.ok()) {
        auto unit = UBool::Make(*iv, state_at((lo + hi) / 2));
        MODB_RETURN_IF_ERROR(builder->Append(*unit));
      }
    } else {
      // The paper's algorithm alternates the state across the sorted
      // crossing list. We evaluate the plumbline state once per span
      // instead: equivalent for clean transversal crossings, and also
      // correct for the degenerate cases alternation mishandles — a
      // crossing through a region *vertex* is reported by both incident
      // moving segments (two events, one actual crossing) and a tangent
      // touch flips nothing. Crossing instants themselves lie on the
      // boundary, hence inside (the region is closed): they attach to an
      // adjacent inside span, or stand alone as a degenerate true unit
      // between two outside spans.
      std::vector<bool> span_state(times.size() + 1);
      for (std::size_t k = 0; k <= times.size(); ++k) {
        Instant a = (k == 0) ? lo : times[k - 1];
        Instant b = (k == times.size()) ? hi : times[k];
        span_state[k] = state_at((a + b) / 2);
      }
      Instant pos = lo;
      bool pos_closed = lo_closed;
      for (std::size_t k = 0; k <= times.size(); ++k) {
        bool state = span_state[k];
        Instant to = (k < times.size()) ? times[k] : hi;
        // The crossing instant `to` belongs to the true side; if both
        // neighbors are false it becomes its own degenerate unit below.
        bool next_true = (k < times.size()) && span_state[k + 1];
        bool to_closed = (k < times.size()) ? state : hi_closed;
        if (to > pos || (to == pos && pos_closed && to_closed)) {
          auto iv = TimeInterval::Make(pos, to, pos_closed, to_closed);
          if (iv.ok()) {
            auto unit = UBool::Make(*iv, state);
            MODB_RETURN_IF_ERROR(builder->Append(*unit));
          }
        }
        if (k < times.size() && !state && !next_true) {
          // Boundary touch between two outside spans.
          auto at = UBool::Make(TimeInterval::At(to), true);
          MODB_RETURN_IF_ERROR(builder->Append(*at));
          pos_closed = false;
        } else {
          pos_closed = !state;
        }
        pos = to;
      }
    }
  }
  if (emit_hi_true) {
    auto at = UBool::Make(TimeInterval::At(hi), true);
    MODB_RETURN_IF_ERROR(builder->Append(*at));
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// moving(bool) algebra.
// ---------------------------------------------------------------------------

MovingBool Not(const MovingBool& b) {
  std::vector<UBool> units;
  units.reserve(b.NumUnits());
  for (const UBool& u : b.units()) {
    units.push_back(*UBool::Make(u.interval(), !u.value()));
  }
  return *MovingBool::Make(std::move(units));
}

namespace {

Result<MovingBool> BoolCombine(const MovingBool& a, const MovingBool& b,
                               bool is_and) {
  MappingBuilder<UBool> builder;
  MODB_RETURN_IF_ERROR(ForEachCommonInterval(
      a, b,
      [&](const TimeInterval& iv, std::size_t i, std::size_t j) -> Status {
        bool va = a.unit(i).value();
        bool vb = b.unit(j).value();
        auto unit = UBool::Make(iv, is_and ? (va && vb) : (va || vb));
        if (!unit.ok()) return unit.status();
        return builder.Append(*unit);
      }));
  return builder.Build();
}

}  // namespace

Result<MovingBool> And(const MovingBool& a, const MovingBool& b) {
  return BoolCombine(a, b, true);
}

Result<MovingBool> Or(const MovingBool& a, const MovingBool& b) {
  return BoolCombine(a, b, false);
}

Periods WhenTrue(const MovingBool& b) {
  std::vector<TimeInterval> ivs;
  for (const UBool& u : b.units()) {
    if (u.value()) ivs.push_back(u.interval());
  }
  return Periods::FromIntervals(std::move(ivs));
}

// ---------------------------------------------------------------------------
// moving(real) operations.
// ---------------------------------------------------------------------------

Result<MovingReal> LiftedDistance(const MovingPoint& a, const MovingPoint& b) {
  MappingBuilder<UReal> builder;
  MODB_RETURN_IF_ERROR(ForEachCommonInterval(
      a, b,
      [&](const TimeInterval& iv, std::size_t i, std::size_t j) -> Status {
        const LinearMotion& ma = a.unit(i).motion();
        const LinearMotion& mb = b.unit(j).motion();
        double dx0 = ma.x0 - mb.x0, dx1 = ma.x1 - mb.x1;
        double dy0 = ma.y0 - mb.y0, dy1 = ma.y1 - mb.y1;
        auto unit = UReal::Make(iv, dx1 * dx1 + dy1 * dy1,
                                2 * (dx0 * dx1 + dy0 * dy1),
                                dx0 * dx0 + dy0 * dy0, /*r=*/true);
        if (!unit.ok()) return unit.status();
        return builder.Append(*unit);
      }));
  return builder.Build();
}

Result<MovingReal> LiftedDistance(const MovingPoint& a, const Point& p) {
  MappingBuilder<UReal> builder;
  builder.Reserve(a.NumUnits());
  for (const UPoint& u : a.units()) {
    const LinearMotion& m = u.motion();
    double dx0 = m.x0 - p.x, dx1 = m.x1;
    double dy0 = m.y0 - p.y, dy1 = m.y1;
    auto unit = UReal::Make(u.interval(), dx1 * dx1 + dy1 * dy1,
                            2 * (dx0 * dx1 + dy0 * dy1),
                            dx0 * dx0 + dy0 * dy0, /*r=*/true);
    if (!unit.ok()) return unit.status();
    MODB_RETURN_IF_ERROR(builder.Append(*unit));
  }
  return builder.Build();
}

namespace {

// Squared-distance quadratic between two linear motions.
struct DistQuad {
  double a, b, c;
  double Eval(double t) const { return (a * t + b) * t + c; }
};

DistQuad SquaredDistanceQuad(const LinearMotion& p, const LinearMotion& q) {
  double dx0 = p.x0 - q.x0, dx1 = p.x1 - q.x1;
  double dy0 = p.y0 - q.y0, dy1 = p.y1 - q.y1;
  return {dx1 * dx1 + dy1 * dy1, 2 * (dx0 * dx1 + dy0 * dy1),
          dx0 * dx0 + dy0 * dy0};
}

}  // namespace

Result<MovingReal> LiftedDistance(const MovingPoint& a,
                                  const MovingPoints& b) {
  MappingBuilder<UReal> builder;
  MODB_RETURN_IF_ERROR(ForEachCommonInterval(
      a, b,
      [&](const TimeInterval& iv, std::size_t ia, std::size_t ib) -> Status {
        const LinearMotion& p = a.unit(ia).motion();
        const std::vector<LinearMotion>& members = b.unit(ib).motions();
        std::vector<DistQuad> quads;
        quads.reserve(members.size());
        for (const LinearMotion& m : members) {
          quads.push_back(SquaredDistanceQuad(p, m));
        }
        // The member attaining the minimum can only change where two
        // squared distances are equal: the roots of pairwise quadratic
        // differences.
        std::vector<Instant> cuts = {iv.start(), iv.end()};
        for (std::size_t i = 0; i < quads.size(); ++i) {
          for (std::size_t j = i + 1; j < quads.size(); ++j) {
            for (double t : QuadraticRoots(quads[i].a - quads[j].a,
                                           quads[i].b - quads[j].b,
                                           quads[i].c - quads[j].c)) {
              if (iv.ContainsOpen(t)) cuts.push_back(t);
            }
          }
        }
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
        for (std::size_t k = 0; k + 1 < cuts.size() || cuts.size() == 1;
             ++k) {
          Instant t0 = cuts[k];
          Instant t1 = (cuts.size() == 1) ? cuts[0] : cuts[k + 1];
          double mid = (t0 + t1) / 2;
          std::size_t best = 0;
          for (std::size_t i = 1; i < quads.size(); ++i) {
            if (quads[i].Eval(mid) < quads[best].Eval(mid)) best = i;
          }
          bool lc = (k == 0) ? iv.left_closed() : true;
          bool rc = (t1 == iv.end()) ? iv.right_closed() : false;
          auto piece = TimeInterval::Make(t0, t1, lc, rc);
          if (!piece.ok()) return piece.status();
          auto unit = UReal::Make(*piece, quads[best].a, quads[best].b,
                                  quads[best].c, /*r=*/true);
          if (!unit.ok()) return unit.status();
          MODB_RETURN_IF_ERROR(builder.Append(*unit));
          if (cuts.size() == 1) break;
        }
        return Status::OK();
      }));
  return builder.Build();
}

Result<MovingBool> Inside(const MovingPoint& a, const MovingPoints& b) {
  MappingBuilder<UBool> builder;
  MODB_RETURN_IF_ERROR(ForEachCommonInterval(
      a, b,
      [&](const TimeInterval& iv, std::size_t i, std::size_t j) -> Status {
        const LinearMotion& p = a.unit(i).motion();
        const std::vector<LinearMotion>& members = b.unit(j).motions();
        bool always = false;
        std::vector<Instant> breaks;
        for (const LinearMotion& m : members) {
          CoincidenceResult co = Coincidence(p, m);
          if (co.always) {
            always = true;
            break;
          }
          for (Instant t : co.instants) {
            if (iv.Contains(t)) breaks.push_back(t);
          }
        }
        if (always) return builder.Append(*UBool::Make(iv, true));
        std::sort(breaks.begin(), breaks.end());
        return EmitPiecewiseBool(
            iv, breaks, CmpOp::kEq,
            [](Instant) { return false; }, &builder);
      }));
  return builder.Build();
}

std::optional<double> MinValue(const MovingReal& m) {
  std::optional<double> best;
  for (const UReal& u : m.units()) {
    double v = u.Extrema().min_value;
    if (!best || v < *best) best = v;
  }
  return best;
}

std::optional<double> MaxValue(const MovingReal& m) {
  std::optional<double> best;
  for (const UReal& u : m.units()) {
    double v = u.Extrema().max_value;
    if (!best || v > *best) best = v;
  }
  return best;
}

namespace {

Result<MovingReal> AtExtremum(const MovingReal& m, bool minimum) {
  std::optional<double> target = minimum ? MinValue(m) : MaxValue(m);
  if (!target) return MovingReal();
  const double tol = kEpsilon * (1 + std::fabs(*target));
  std::vector<TimeInterval> hits;
  for (const UReal& u : m.units()) {
    if (u.EqualsEverywhere(u.ValueAt(u.interval().start())) &&
        std::fabs(u.ValueAt(u.interval().start()) - *target) <= tol) {
      hits.push_back(u.interval());
      continue;
    }
    // Candidate instants: interval endpoints and the parabola vertex.
    std::vector<Instant> candidates = {u.interval().start(),
                                       u.interval().end()};
    if (u.a() != 0) {
      double vertex = -u.b() / (2 * u.a());
      if (u.interval().ContainsOpen(vertex)) candidates.push_back(vertex);
    }
    for (Instant t : candidates) {
      if (std::fabs(u.ValueAt(t) - *target) <= tol) {
        hits.push_back(TimeInterval::At(t));
      }
    }
  }
  return m.AtPeriods(Periods::FromIntervals(std::move(hits)));
}

}  // namespace

Result<MovingReal> AtMin(const MovingReal& m) { return AtExtremum(m, true); }
Result<MovingReal> AtMax(const MovingReal& m) { return AtExtremum(m, false); }

namespace {

// The composed Q2 test EverWithin must agree with, and the path it
// hands near-ties to.
bool ComposedEverWithin(const MovingPoint& a, const MovingPoint& b,
                        double d) {
  Result<MovingReal> dist = LiftedDistance(a, b);
  if (!dist.ok() || dist->IsEmpty()) return false;
  Result<MovingReal> at_min = AtMin(*dist);
  return at_min.ok() && !at_min->IsEmpty() && at_min->Initial().val() < d;
}

// The radicand of a distance ureal at t, written exactly as
// UReal::ValueAt evaluates it, so every value the sweep compares is
// bitwise the one the composed operators compute.
double Radicand(const DistQuad& q, double t) {
  return q.a * t * t + q.b * t + q.c;
}

// UReal::Make's non-negative radicand test. A NaN or infinite radicand
// fails too: the composed path decides such a pair.
bool RadicandOk(const DistQuad& q, double v) {
  return v >= -kEpsilon * (1 + std::fabs(q.c)) && v < kInfinity;
}

// Common intervals per block: the walk fills a block, the pass computes
// it, the sweep folds it.
constexpr std::size_t kEverWithinBlock = 64;
// A walk whose last block holds fewer intervals takes them one by one.
constexpr std::size_t kEverWithinShortBlock = 16;

// Two and four doubles, and the all-ones or all-zeros lanes their
// comparisons give (GCC vector extensions).
typedef double V2 __attribute__((vector_size(16)));
typedef std::int64_t M2 __attribute__((vector_size(16)));
typedef double V4 __attribute__((vector_size(32)));
typedef std::int64_t M4 __attribute__((vector_size(32)));
// Accumulator lanes of the pass's reductions, in either build.
constexpr std::size_t kLanes = 4;

// One block of common intervals in walk order, and what the pass
// computes for each. Arrays have room for the pass's padding lanes.
struct EverWithinBlock {
  static constexpr std::size_t K = kEverWithinBlock;
  static constexpr std::size_t kRoom = K + 2 * kLanes;

  EverWithinBlock() {}

  // Interval k of the walk's block.
  void Set(std::size_t k, const TimeInterval& common, const LinearMotion& p,
           const LinearMotion& q) {
    std::construct_at(&iv.at[k], common);
    start[k] = common.start();
    end[k] = common.end();
    lc[k] = common.left_closed() ? -1 : 0;
    rc[k] = common.right_closed() ? -1 : 0;
    // SquaredDistanceQuad's differences.
    dx0[k] = p.x0 - q.x0;
    dx1[k] = p.x1 - q.x1;
    dy0[k] = p.y0 - q.y0;
    dy1[k] = p.y1 - q.y1;
  }

  std::size_t n = 0;
  // From the walk. TimeInterval has no default constructor, so the
  // slots past n hold no object.
  union Intervals {
    Intervals() {}
    TimeInterval at[K];
  } iv;
  alignas(32) double start[kRoom], end[kRoom];
  alignas(32) std::int64_t lc[kRoom], rc[kRoom];  // -1 closed, 0 open
  alignas(32) double dx0[kRoom], dx1[kRoom], dy0[kRoom], dy1[kRoom];
  // From the pass, per interval: the quadratic; its radicands at the
  // endpoints, raw and clamped at 0; the smallest clamped candidate of
  // the interval on its own (endpoints and interior vertex); whether
  // UReal::Make would reject the interior vertex's radicand; and
  // whether the fold takes the interval in bulk (see
  // EverWithinSweep::Fold). Masks are -1 or 0.
  alignas(32) double qa[kRoom], qb[kRoom], qc[kRoom];
  alignas(32) double vs[kRoom], ve[kRoom], ws[kRoom], we[kRoom], lo[kRoom];
  alignas(32) std::int64_t bad_vertex[kRoom], bulk[kRoom];
  // From the pass, over the block: whether UReal::Make would reject an
  // endpoint radicand of any interval or the vertex radicand of a bulk
  // one, and over the bulk intervals k, the smallest lo[k] and we[k - 1]
  // and the largest ws[k] - we[k - 1] (at least 0).
  bool bad = false;
  double bulk_lo = kInfinity, bulk_continued = kInfinity, bulk_jump = 0;
};

// The lane types of a pass build: two intervals per operation in the
// baseline build (SSE2, which every x86-64 has), four in the AVX2 build.
template <typename V>
struct PassLanes;
template <>
struct PassLanes<V2> {
  using Mask = M2;
  static constexpr std::size_t kWidth = 2;
  static constexpr Mask kIndex = {0, 1};
};
template <>
struct PassLanes<V4> {
  using Mask = M4;
  static constexpr std::size_t kWidth = 4;
  static constexpr Mask kIndex = {0, 1, 2, 3};
};

template <typename T>
[[gnu::always_inline]] inline void Load(T* v, const void* p) {
  std::memcpy(v, p, sizeof(T));
}
template <typename T>
[[gnu::always_inline]] inline void Store(void* p, const T& v) {
  std::memcpy(p, &v, sizeof(T));
}

// The straight-line pass over one block, without a branch. One source,
// inlined into a baseline build over V = V2 and an AVX2 build over
// V = V4 (core/simd dispatches, as for the R-tree mask). Each lane
// evaluates the expressions Radicand, RadicandOk and
// EverWithinSweep::Close evaluate, in their order; AVX2 without FMA
// contracts nothing, so every value is the scalar one bit for bit. The
// bulk reductions keep four accumulator lanes in both builds, fed in the
// same interval order, and combine them in a fixed order, so the builds
// agree on them too.
template <typename V>
[[gnu::always_inline]] inline void EverWithinPass(EverWithinBlock* b) {
  using M = typename PassLanes<V>::Mask;
  constexpr std::size_t W = PassLanes<V>::kWidth;
  const M lane = PassLanes<V>::kIndex;
  const std::size_t n = b->n;
  // Lanes past n compute on zeros; nothing they give is kept. Two
  // four-lane stores per array cover [n, padded).
  const std::size_t padded = (n + W - 1) / W * W + W;
  for (std::size_t k = n; k < n + 2 * kLanes; k += kLanes) {
    for (double* column : {b->start, b->end, b->dx0, b->dx1, b->dy0, b->dy1}) {
      Store(column + k, V4{});
    }
    Store(b->lc + k, M4{});
    Store(b->rc + k, M4{});
  }
  const V zero = V{} + 0.0;
  const V one = zero + 1;
  const V two = zero + 2;
  const V inf = zero + kInfinity;
  const M magnitude = M{} + std::numeric_limits<std::int64_t>::max();
  M bad = M{};
  for (std::size_t k = 0; k < padded; k += W) {
    V dx0, dx1, dy0, dy1, s, e;
    Load(&dx0, b->dx0 + k);
    Load(&dx1, b->dx1 + k);
    Load(&dy0, b->dy0 + k);
    Load(&dy1, b->dy1 + k);
    Load(&s, b->start + k);
    Load(&e, b->end + k);
    const V qa = dx1 * dx1 + dy1 * dy1;
    const V qb = two * (dx0 * dx1 + dy0 * dy1);
    const V qc = dx0 * dx0 + dy0 * dy0;
    const V vs = qa * s * s + qb * s + qc;
    const V ve = qa * e * e + qb * e + qc;
    // std::fabs(qc): clear the sign bit.
    M qc_bits;
    Store(&qc_bits, qc);
    qc_bits &= magnitude;
    V abs_qc;
    Load(&abs_qc, &qc_bits);
    const V floor = -kEpsilon * (one + abs_qc);
    const M curved = qa != zero;
    // -b / 2a where a != 0; dividing by 1 elsewhere keeps those lanes
    // finite.
    const V vertex = -qb / (curved ? two * qa : one);
    const M interior = curved && s < vertex && vertex < e;
    const V vv = qa * vertex * vertex + qb * vertex + qc;
    const V ws = vs < zero ? zero : vs;
    const V we = ve < zero ? zero : ve;
    const V wv = interior ? (vv < zero ? zero : vv) : inf;
    const V lo_ends = we < ws ? we : ws;
    const M ends_ok = vs >= floor && vs < inf && ve >= floor && ve < inf;
    const M vertex_ok = vv >= floor && vv < inf;
    bad = bad || (lane + std::int64_t(k) < std::int64_t(n) && !ends_ok);
    Store(b->qa + k, qa);
    Store(b->qb + k, qb);
    Store(b->qc + k, qc);
    Store(b->vs + k, vs);
    Store(b->ve + k, ve);
    Store(b->ws + k, ws);
    Store(b->we + k, we);
    Store(b->lo + k, wv < lo_ends ? wv : lo_ends);
    Store(b->bad_vertex + k, M(interior && !vertex_ok));
  }
  // Interval k is a bulk one when it and its predecessor end open, it
  // starts closed where the predecessor ends, neither has a constant
  // distance, and neither neighbour shares its quadratic, so nothing
  // merges into it and it merges into nothing. The first and last
  // intervals of a block never are.
  constexpr std::size_t kAcc = kLanes / W;
  V lo_acc[kAcc], continued_acc[kAcc], jump_acc[kAcc];
  for (std::size_t i = 0; i < kAcc; ++i) {
    lo_acc[i] = continued_acc[i] = inf;
    jump_acc[i] = zero;
  }
  for (std::size_t k = 1; k + 1 < n; k += W) {
    V qa, qb, qc, pa, pb, pc, na, nb, nc, s, pe, lo, ws, pwe;
    M lc, rc, prc, bad_vertex;
    Load(&qa, b->qa + k);
    Load(&qb, b->qb + k);
    Load(&qc, b->qc + k);
    Load(&pa, b->qa + k - 1);
    Load(&pb, b->qb + k - 1);
    Load(&pc, b->qc + k - 1);
    Load(&na, b->qa + k + 1);
    Load(&nb, b->qb + k + 1);
    Load(&nc, b->qc + k + 1);
    Load(&s, b->start + k);
    Load(&pe, b->end + k - 1);
    Load(&lo, b->lo + k);
    Load(&ws, b->ws + k);
    Load(&pwe, b->we + k - 1);
    Load(&lc, b->lc + k);
    Load(&rc, b->rc + k);
    Load(&prc, b->rc + k - 1);
    Load(&bad_vertex, b->bad_vertex + k);
    const M moving = qa != zero || qb != zero;
    const M prev_moving = pa != zero || pb != zero;
    const M differs_prev = qa != pa || qb != pb || qc != pc;
    const M differs_next = na != qa || nb != qb || nc != qc;
    const M bulk = lane + std::int64_t(k + 1) < std::int64_t(n) && s == pe &&
                   lc && !rc && !prc && moving && prev_moving &&
                   differs_prev && differs_next;
    Store(b->bulk + k, M(bulk));
    bad = bad || (bulk && bad_vertex);
    const std::size_t acc = (k - 1) / W % kAcc;
    const V lo_c = bulk ? lo : inf;
    const V continued_c = bulk ? pwe : inf;
    const V jump_c = bulk ? ws - pwe : zero;
    lo_acc[acc] = lo_c < lo_acc[acc] ? lo_c : lo_acc[acc];
    continued_acc[acc] =
        continued_c < continued_acc[acc] ? continued_c : continued_acc[acc];
    jump_acc[acc] = jump_acc[acc] < jump_c ? jump_c : jump_acc[acc];
  }
  if (n > 0) {
    b->bulk[0] = 0;
    b->bulk[n - 1] = 0;
  }
  auto at = [](const V* acc, std::size_t l) -> double {
    return acc[l / W][l % W];
  };
  b->bad = false;
  for (std::size_t l = 0; l < W; ++l) b->bad = b->bad || bad[l] != 0;
  b->bulk_lo = kInfinity;
  b->bulk_continued = kInfinity;
  b->bulk_jump = 0;
  for (std::size_t l = 0; l < kLanes; ++l) {
    b->bulk_lo = std::min(b->bulk_lo, at(lo_acc, l));
    b->bulk_continued = std::min(b->bulk_continued, at(continued_acc, l));
    b->bulk_jump = std::max(b->bulk_jump, at(jump_acc, l));
  }
}

void EverWithinPassBaseline(EverWithinBlock* b) {
  EverWithinPass<V2>(b);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
__attribute__((target("avx2"))) void EverWithinPassAvx2(EverWithinBlock* b) {
  EverWithinPass<V4>(b);
}
#endif

using EverWithinPassFn = void (*)(EverWithinBlock*);

EverWithinPassFn ActiveEverWithinPass() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (simd::UseAvx2()) return &EverWithinPassAvx2;
#endif
  return &EverWithinPassBaseline;
}

// The EverWithin sweep. It sees the units of distance(a, b) in time
// order, merged as MappingBuilder<UReal> merges them, and keeps what
// AtMin's answer depends on. Values are radicands clamped at 0, the
// squares of UReal::ValueAt; square roots are taken only in Decide.
//
// AtMin collects the candidates (unit endpoints and interior vertex)
// within its tolerance of the global minimum m, and Initial() reads
// the earliest instant of the moving real restricted to them. A
// candidate at a closed endpoint or the vertex is such an instant, with
// a value within the tolerance of m. A candidate at an open endpoint is
// one only when the neighbouring unit is closed there ("continued"),
// and then carries the neighbour's value; otherwise ("stranded") it
// adds no instant at all. A constant unit equal to m is kept whole.
class EverWithinSweep {
 public:
  enum class Verdict { kFalse, kTrue, kUnsure };

  // The next block of refinement intervals on which both points are
  // defined, after EverWithinPass. The state the sweep keeps is minima,
  // maxima and an or (read only by Decide), plus the unit in progress
  // and its predecessor. A bulk interval k is a unit of its own whose
  // Close, given the open end its predecessor leaves, only folds its
  // own candidates into min_ and continues that open end with its
  // start; so bulk intervals fold in any order, and a run of them leaves
  // the state its last one would. Every other interval takes Add.
  [[gnu::noinline]] void Fold(const EverWithinBlock& b) {
    // LiftedDistance makes (and so checks) a ureal per interval.
    unsure_ = unsure_ || b.bad;
    min_ = std::min(min_, b.bulk_lo);
    continued_min_ = std::min(continued_min_, b.bulk_continued);
    jump_ = std::max(jump_, b.bulk_jump);
    std::size_t k = 0;
    while (k < b.n) {
      if (!b.bulk[k]) {
        Add(b.iv.at[k], {b.qa[k], b.qb[k], b.qc[k]}, b.vs[k], b.ve[k]);
        ++k;
        continue;
      }
      // The first bulk interval of a run closes the unit before it (a
      // bulk interval is never first in its block).
      if (has_cur_) Close();
      while (b.bulk[k]) ++k;  // the last interval of a block is not bulk
      // The state Close leaves after the run's last interval.
      has_prev_ = true;
      prev_iv_ = b.iv.at[k - 1];
      prev_end_ = b.we[k - 1];
      open_end_pending_ = true;
      open_end_ = b.we[k - 1];
    }
  }

  // A short block, interval by interval: on a few intervals the pass
  // costs more than it saves.
  [[gnu::noinline]] void AddEach(const EverWithinBlock& b) {
    for (std::size_t k = 0; k < b.n; ++k) {
      const DistQuad q = {b.dx1[k] * b.dx1[k] + b.dy1[k] * b.dy1[k],
                          2 * (b.dx0[k] * b.dx1[k] + b.dy0[k] * b.dy1[k]),
                          b.dx0[k] * b.dx0[k] + b.dy0[k] * b.dy0[k]};
      const TimeInterval& iv = b.iv.at[k];
      const double v_start = Radicand(q, iv.start());
      const double v_end = Radicand(q, iv.end());
      // LiftedDistance makes (and so checks) a ureal per interval.
      if (!RadicandOk(q, v_start) || !RadicandOk(q, v_end)) unsure_ = true;
      Add(iv, q, v_start, v_end);
    }
  }

  // One refinement interval, with the squared-distance quadratic of its
  // unit pair and its radicands at the endpoints.
  void Add(const TimeInterval& iv, const DistQuad& q, double v_start,
           double v_end) {
    // MappingBuilder::Append merges an adjacent unit with an equal
    // function (UReal::FunctionEqual; the root flag is always set).
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

  // The composed answer for threshold d > 0, or kUnsure when only the
  // composed operators can tell: a minimum within twice the tolerance
  // of d, a candidate near the minimum on a stranded open endpoint, a
  // continued one whose neighbour might reach d, or a radicand
  // UReal::Make rejects.
  Verdict Decide(double d) {
    if (has_cur_) Close();
    if (open_end_pending_) Stranded(open_end_);
    if (!has_prev_) return Verdict::kFalse;  // distance(a, b) is empty
    if (unsure_) return Verdict::kUnsure;
    const double m = std::sqrt(min_);
    // Initial() reads one of the candidate values, all >= m.
    if (!(m < d)) return Verdict::kFalse;
    // Every candidate AtMin keeps has a value below `band`.
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
    DistQuad q{};
    double v_start = 0;
    double v_end = 0;
  };

  // Folds the finished unit cur_ into the state.
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
    // UReal::EqualsEverywhere(ValueAt(start)): AtMin keeps such a unit
    // whole, so its endpoints are never point candidates.
    bool whole = false;
    if (u.q.a == 0 && u.q.b == 0) {
      const double value = u.v_start <= 0 ? 0 : std::sqrt(u.v_start);
      whole = std::fabs(u.q.c - value * value) <= kEpsilon;
    }
    const bool adjacent =
        has_prev_ && TimeInterval::Adjacent(prev_iv_, u.iv);
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
  // The last finished unit: its interval and end value, and its open
  // end awaiting the next unit.
  TimeInterval prev_iv_ = TimeInterval::At(0);
  double prev_end_ = 0;
  bool has_prev_ = false;
  bool open_end_pending_ = false;
  double open_end_ = 0;
  // Minimum over all candidates, over stranded and continued open-end
  // candidates, and the largest rise from a continued candidate to its
  // neighbour's value.
  double min_ = kInfinity;
  double stranded_min_ = kInfinity;
  double continued_min_ = kInfinity;
  double jump_ = 0;
  bool unsure_ = false;
};

}  // namespace

bool EverWithin(const MovingPoint& a, const MovingPoint& b, double d,
                EverWithinStats* stats) {
  // Every distance is >= 0, and NaN compares false.
  if (!(d > 0)) return false;
  EverWithinSweep sweep;
  EverWithinBlock block;
  std::uint64_t intervals = 0;
  // The block's fill count lives outside it, where the walk's stores
  // into the block cannot alias it.
  std::size_t filled = 0;
  auto flush = [&] {
    block.n = filled;
    if (filled < kEverWithinShortBlock) {
      sweep.AddEach(block);
    } else {
      ActiveEverWithinPass()(&block);
      sweep.Fold(block);
    }
    intervals += filled;
    filled = 0;
  };
  const std::vector<UPoint>& ua = a.units();
  const std::vector<UPoint>& ub = b.units();
  (void)ForEachCommonInterval(
      a, b, [&](const TimeInterval& iv, std::size_t i, std::size_t j) {
        block.Set(filled, iv, ua[i].motion(), ub[j].motion());
        if (++filled == kEverWithinBlock) flush();
        return Status::OK();
      });
  if (filled > 0) flush();
  const EverWithinSweep::Verdict verdict = sweep.Decide(d);
  const bool unsure = verdict == EverWithinSweep::Verdict::kUnsure;
#ifndef MODB_NO_METRICS
  if (stats != nullptr) {
    stats->intervals += intervals;
    stats->fallbacks += unsure ? 1 : 0;
  }
#else
  (void)stats;
  (void)intervals;
#endif
  if (unsure) return ComposedEverWithin(a, b, d);
  return verdict == EverWithinSweep::Verdict::kTrue;
}

Result<MovingBool> Compare(const MovingReal& m, double c, CmpOp op) {
  MappingBuilder<UBool> builder;
  for (const UReal& u : m.units()) {
    if (u.EqualsEverywhere(c)) {
      auto unit = UBool::Make(u.interval(), CmpAtEquality(op));
      MODB_RETURN_IF_ERROR(builder.Append(*unit));
      continue;
    }
    MODB_RETURN_IF_ERROR(EmitPiecewiseBool(
        u.interval(), u.InstantsAtValue(c), op,
        [&u, c, op](Instant t) { return EvalCmp(u.ValueAt(t), c, op); },
        &builder));
  }
  return builder.Build();
}

Result<MovingBool> Compare(const MovingReal& a, const MovingReal& b,
                           CmpOp op) {
  MappingBuilder<UBool> builder;
  MODB_RETURN_IF_ERROR(ForEachCommonInterval(
      a, b,
      [&](const TimeInterval& iv, std::size_t i, std::size_t j) -> Status {
        const UReal& ua = a.unit(i);
        const UReal& ub = b.unit(j);
        // Reduce to sign analysis of a quadratic. Cases that stay in the
        // class: both plain quadratics (compare the difference with 0);
        // both roots over non-negative radicands (compare the radicands);
        // one root against a constant (square the constant).
        double da, db, dc;
        auto eval = [&ua, &ub, op](Instant t) {
          return EvalCmp(ua.ValueAt(t), ub.ValueAt(t), op);
        };
        if (ua.root() == ub.root()) {
          da = ua.a() - ub.a();
          db = ua.b() - ub.b();
          dc = ua.c() - ub.c();
        } else {
          const UReal& rooted = ua.root() ? ua : ub;
          const UReal& plain = ua.root() ? ub : ua;
          if (plain.a() != 0 || plain.b() != 0) {
            return Status::Unimplemented(
                "comparison of a root ureal against a non-constant ureal is "
                "not closed in the discrete model");
          }
          double c = plain.c();
          if (c < 0) {
            // √radicand >= 0 > c always; orient by which side is the root.
            bool value = ua.root() ? EvalCmp(1.0, 0.0, op)   // root > const
                                   : EvalCmp(0.0, 1.0, op);  // const < root
            return builder.Append(*UBool::Make(iv, value));
          }
          // Breaks are where radicand == c²; between breaks the sign is
          // constant and `eval` decides it at midpoints.
          da = rooted.a();
          db = rooted.b();
          dc = rooted.c() - c * c;
        }
        if (da == 0 && db == 0 && dc == 0) {
          // Identically equal on the interval.
          return builder.Append(*UBool::Make(iv, CmpAtEquality(op)));
        }
        return EmitPiecewiseBool(iv, QuadraticRoots(da, db, dc), op, eval,
                                 &builder);
      }));
  return builder.Build();
}

namespace {

Result<MovingReal> AddSub(const MovingReal& a, const MovingReal& b,
                          double sign) {
  MappingBuilder<UReal> builder;
  MODB_RETURN_IF_ERROR(ForEachCommonInterval(
      a, b,
      [&](const TimeInterval& iv, std::size_t i, std::size_t j) -> Status {
        const UReal& ua = a.unit(i);
        const UReal& ub = b.unit(j);
        if (ua.root() || ub.root()) {
          return Status::Unimplemented(
              "sum/difference involving root ureals is not closed in the "
              "discrete model");
        }
        auto unit = UReal::Make(iv, ua.a() + sign * ub.a(),
                                ua.b() + sign * ub.b(),
                                ua.c() + sign * ub.c(), false);
        if (!unit.ok()) return unit.status();
        return builder.Append(*unit);
      }));
  return builder.Build();
}

}  // namespace

Result<MovingReal> Plus(const MovingReal& a, const MovingReal& b) {
  return AddSub(a, b, 1);
}

Result<MovingReal> Minus(const MovingReal& a, const MovingReal& b) {
  return AddSub(a, b, -1);
}

Result<MovingReal> At(const MovingReal& m, double v) {
  std::vector<TimeInterval> hits;
  for (const UReal& u : m.units()) {
    if (u.EqualsEverywhere(v)) {
      hits.push_back(u.interval());
      continue;
    }
    for (Instant t : u.InstantsAtValue(v)) {
      hits.push_back(TimeInterval::At(t));
    }
  }
  return m.AtPeriods(Periods::FromIntervals(std::move(hits)));
}

Result<MovingReal> AtRange(const MovingReal& m, double lo, double hi) {
  if (hi < lo) {
    return Status::InvalidArgument("atrange requires lo <= hi");
  }
  std::vector<TimeInterval> hits;
  for (const UReal& u : m.units()) {
    // Breakpoints where the value crosses lo or hi partition the unit
    // interval into spans of constant membership.
    std::vector<Instant> cuts = {u.interval().start(), u.interval().end()};
    for (double bound : {lo, hi}) {
      for (Instant t : u.InstantsAtValue(bound)) cuts.push_back(t);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
      double mid_value = u.ValueAt((cuts[k] + cuts[k + 1]) / 2);
      if (mid_value >= lo && mid_value <= hi) {
        auto iv = TimeInterval::Make(cuts[k], cuts[k + 1], true, true);
        if (iv.ok()) hits.push_back(*iv);
      } else {
        // The cut instants themselves may still hit the closed range.
        for (Instant t : {cuts[k], cuts[k + 1]}) {
          double value = u.ValueAt(t);
          if (value >= lo && value <= hi && u.interval().Contains(t)) {
            hits.push_back(TimeInterval::At(t));
          }
        }
      }
    }
    if (u.interval().IsDegenerate()) {
      double value = u.ValueAt(u.interval().start());
      if (value >= lo && value <= hi) hits.push_back(u.interval());
    }
  }
  return m.AtPeriods(Periods::FromIntervals(std::move(hits)));
}

bool Passes(const MovingReal& m, double v) {
  for (const UReal& u : m.units()) {
    if (u.EqualsEverywhere(v)) return true;
    if (!u.InstantsAtValue(v).empty()) return true;
  }
  return false;
}

RealRange RangeValues(const MovingReal& m) {
  std::vector<Interval<double>> ivs;
  for (const UReal& u : m.units()) {
    URealExtrema ex = u.Extrema();
    auto iv = Interval<double>::Closed(ex.min_value, ex.max_value);
    if (iv.ok()) ivs.push_back(*iv);
  }
  return RealRange::FromIntervals(std::move(ivs));
}

// ---------------------------------------------------------------------------
// moving(point) operations.
// ---------------------------------------------------------------------------

Line Trajectory(const MovingPoint& mp) {
  std::vector<Seg> segs;
  segs.reserve(mp.NumUnits());
  for (const UPoint& u : mp.units()) {
    if (auto s = u.TrajectorySegment()) segs.push_back(*s);
  }
  return Line::Canonical(std::move(segs));
}

Points Locations(const MovingPoint& mp) {
  std::vector<Point> pts;
  for (const UPoint& u : mp.units()) {
    if (u.motion().IsStatic()) pts.push_back(u.StartPoint());
  }
  return Points::FromVector(std::move(pts));
}

Result<MovingReal> Speed(const MovingPoint& mp) {
  MappingBuilder<UReal> builder;
  builder.Reserve(mp.NumUnits());
  for (const UPoint& u : mp.units()) {
    auto unit = UReal::Constant(u.interval(), u.Speed());
    if (!unit.ok()) return unit.status();
    MODB_RETURN_IF_ERROR(builder.Append(*unit));
  }
  return builder.Build();
}

Result<MovingReal> MDirection(const MovingPoint& mp) {
  MappingBuilder<UReal> builder;
  for (const UPoint& u : mp.units()) {
    if (u.motion().IsStatic()) continue;  // Direction undefined.
    double deg = std::atan2(u.motion().y1, u.motion().x1) * 180.0 /
                 std::numbers::pi;
    if (deg < 0) deg += 360.0;
    auto unit = UReal::Constant(u.interval(), deg);
    if (!unit.ok()) return unit.status();
    MODB_RETURN_IF_ERROR(builder.Append(*unit));
  }
  return builder.Build();
}

Result<MovingPoint> Velocity(const MovingPoint& mp) {
  MappingBuilder<UPoint> builder;
  builder.Reserve(mp.NumUnits());
  for (const UPoint& u : mp.units()) {
    auto unit = UPoint::Static(u.interval(),
                               Point(u.motion().x1, u.motion().y1));
    if (!unit.ok()) return unit.status();
    MODB_RETURN_IF_ERROR(builder.Append(*unit));
  }
  return builder.Build();
}

bool Passes(const MovingPoint& mp, const Point& p) {
  for (const UPoint& u : mp.units()) {
    if (u.InstantAt(p)) return true;
  }
  return false;
}

Result<MovingPoint> At(const MovingPoint& mp, const Point& p) {
  std::vector<TimeInterval> hits;
  for (const UPoint& u : mp.units()) {
    if (u.motion().IsStatic()) {
      if (ApproxEqual(u.StartPoint(), p)) hits.push_back(u.interval());
      continue;
    }
    if (auto t = u.InstantAt(p)) hits.push_back(TimeInterval::At(*t));
  }
  return mp.AtPeriods(Periods::FromIntervals(std::move(hits)));
}

Result<MovingPoint> Intersection(const MovingPoint& mp, const Line& l) {
  std::vector<TimeInterval> hits;
  for (const UPoint& u : mp.units()) {
    const LinearMotion& p = u.motion();
    for (const Seg& s : l.segments()) {
      auto ms = MSeg::StaticSeg(s);
      if (!ms.ok()) return ms.status();
      MSegCrossings c = CrossingTimes(p, *ms, u.interval());
      for (Instant t : c.times) hits.push_back(TimeInterval::At(t));
      if (!c.always_collinear) continue;
      // The unit's path rides along the segment's supporting line: the
      // point is on the segment while its 1D parameter stays in [0, 1].
      double dx = s.b().x - s.a().x, dy = s.b().y - s.a().y;
      double len2 = dx * dx + dy * dy;
      // param(t) = u0 + u1·t.
      double u0 = ((p.x0 - s.a().x) * dx + (p.y0 - s.a().y) * dy) / len2;
      double u1 = (p.x1 * dx + p.y1 * dy) / len2;
      if (u1 == 0) {
        if (u0 >= 0 && u0 <= 1) hits.push_back(u.interval());
        continue;
      }
      double t_at0 = -u0 / u1;
      double t_at1 = (1 - u0) / u1;
      if (t_at0 > t_at1) std::swap(t_at0, t_at1);
      auto window = TimeInterval::Make(t_at0, t_at1, true, true);
      if (!window.ok()) continue;
      if (auto iv = TimeInterval::Intersect(u.interval(), *window)) {
        hits.push_back(*iv);
      }
    }
  }
  return mp.AtPeriods(Periods::FromIntervals(std::move(hits)));
}

Result<MovingBool> Inside(const MovingPoint& mp, const Line& l) {
  Result<MovingPoint> on = Intersection(mp, l);
  if (!on.ok()) return on.status();
  Periods on_periods = on->DefTime();
  // true on on_periods, false on the rest of mp's deftime.
  Periods off_periods = Periods::Difference(mp.DefTime(), on_periods);
  std::vector<UBool> units;
  for (const TimeInterval& iv : on_periods.intervals()) {
    units.push_back(*UBool::Make(iv, true));
  }
  for (const TimeInterval& iv : off_periods.intervals()) {
    units.push_back(*UBool::Make(iv, false));
  }
  return MovingBool::Make(std::move(units));
}

Result<MovingBool> Equals(const MovingPoint& a, const MovingPoint& b) {
  MappingBuilder<UBool> builder;
  MODB_RETURN_IF_ERROR(ForEachCommonInterval(
      a, b,
      [&](const TimeInterval& iv, std::size_t i, std::size_t j) -> Status {
        CoincidenceResult co =
            Coincidence(a.unit(i).motion(), b.unit(j).motion());
        if (co.always) return builder.Append(*UBool::Make(iv, true));
        std::vector<Instant> breaks;
        for (Instant t : co.instants) {
          if (iv.Contains(t)) breaks.push_back(t);
        }
        return EmitPiecewiseBool(
            iv, std::move(breaks), CmpOp::kEq,
            [](Instant) { return false; },  // Off the breaks they differ.
            &builder);
      }));
  return builder.Build();
}

// ---------------------------------------------------------------------------
// inside (Section 5.2).
// ---------------------------------------------------------------------------

Result<MovingBool> Inside(const MovingPoint& mp, const MovingRegion& mr,
                          const InsideOptions& options) {
  MappingBuilder<UBool> builder;
  // Consecutive intervals share a region unit: build its moving segments
  // once, on the first interval of that unit that needs them.
  std::vector<MSeg> msegs;
  std::size_t msegs_unit = mr.NumUnits();
  MODB_RETURN_IF_ERROR(ForEachCommonInterval(
      mp, mr,
      [&](const TimeInterval& iv, std::size_t i, std::size_t j) -> Status {
        const UPoint& up = mp.unit(i);
        const URegion& ur = mr.unit(j);
        if (options.use_bounding_boxes) {
          // The paper's fast path: when the 3D bounding boxes are
          // disjoint, no crossing computation is needed; the point is
          // outside for the whole refinement interval.
          Rect pr = Rect::Of(up.ValueAt(iv.start()));
          pr.Extend(up.ValueAt(iv.end()));
          Cube pc(pr, iv.start(), iv.end());
          if (!Cube::Intersect(pc, ur.BoundingCube())) {
            return builder.Append(*UBool::Make(iv, false));
          }
        }
        if (msegs_unit != j) {
          msegs = ur.AllMSegs();
          msegs_unit = j;
        }
        return InsideCore(
            up.motion(), iv, msegs,
            [&ur](Instant t) { return ur.Snapshot(t); }, &builder);
      }));
  return builder.Build();
}

Result<MovingBool> Inside(const MovingPoint& mp, const Region& r) {
  std::vector<Seg> boundary = r.Segments();
  std::vector<MSeg> msegs;
  msegs.reserve(boundary.size());
  for (const Seg& s : boundary) {
    auto m = MSeg::StaticSeg(s);
    if (!m.ok()) return m.status();
    msegs.push_back(*m);
  }
  MappingBuilder<UBool> builder;
  for (const UPoint& up : mp.units()) {
    Rect pr = Rect::Of(up.StartPoint());
    pr.Extend(up.EndPoint());
    if (!Rect::Intersect(pr, r.BoundingBox())) {
      auto unit = UBool::Make(up.interval(), false);
      MODB_RETURN_IF_ERROR(builder.Append(*unit));
      continue;
    }
    MODB_RETURN_IF_ERROR(InsideCore(
        up.motion(), up.interval(), msegs,
        [&boundary](Instant) { return boundary; }, &builder));
  }
  return builder.Build();
}

Result<MovingBool> Inside(const Point& p, const MovingRegion& mr) {
  // The Section 5.2 scheme with a stationary 3D line: the boundary's
  // moving segments sweep over p at the crossing instants.
  LinearMotion still{p.x, 0, p.y, 0};
  MappingBuilder<UBool> builder;
  for (const URegion& ur : mr.units()) {
    Cube pc(Rect::Of(p), ur.interval().start(), ur.interval().end());
    if (!Cube::Intersect(pc, ur.BoundingCube())) {
      auto unit = UBool::Make(ur.interval(), false);
      MODB_RETURN_IF_ERROR(builder.Append(*unit));
      continue;
    }
    MODB_RETURN_IF_ERROR(InsideCore(
        still, ur.interval(), ur.AllMSegs(),
        [&ur](Instant t) { return ur.Snapshot(t); }, &builder));
  }
  return builder.Build();
}

bool Passes(const MovingRegion& mr, const Point& p) {
  Result<MovingBool> in = Inside(p, mr);
  if (!in.ok()) return false;
  for (const UBool& u : in->units()) {
    if (u.value()) return true;
  }
  return false;
}

Result<MovingPoint> At(const MovingPoint& mp, const MovingRegion& mr) {
  Result<MovingBool> in = Inside(mp, mr);
  if (!in.ok()) return in.status();
  return mp.AtPeriods(WhenTrue(*in));
}

Result<MovingPoint> At(const MovingPoint& mp, const Region& r) {
  Result<MovingBool> in = Inside(mp, r);
  if (!in.ok()) return in.status();
  return mp.AtPeriods(WhenTrue(*in));
}

}  // namespace modb
