#include "temporal/uline.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/real.h"
#include "temporal/ureal.h"

namespace modb {

namespace {

// Quadratic coefficients of cross(e_a(t) - s_a(t), q(t) - s_a(t)) for a
// linear motion q.
struct Quad {
  double c2, c1, c0;
  double Eval(double t) const { return (c2 * t + c1) * t + c0; }
  bool NearZeroAll(double tol) const {
    return std::fabs(c2) <= tol && std::fabs(c1) <= tol &&
           std::fabs(c0) <= tol;
  }
};

Quad CrossQuad(const MSeg& a, const LinearMotion& q) {
  double ax0 = a.e().x0 - a.s().x0, ax1 = a.e().x1 - a.s().x1;
  double ay0 = a.e().y0 - a.s().y0, ay1 = a.e().y1 - a.s().y1;
  double bx0 = q.x0 - a.s().x0, bx1 = q.x1 - a.s().x1;
  double by0 = q.y0 - a.s().y0, by1 = q.y1 - a.s().y1;
  return Quad{ax1 * by1 - ay1 * bx1,
              ax0 * by1 + ax1 * by0 - ay0 * bx1 - ay1 * bx0,
              ax0 * by0 - ay0 * bx0};
}

bool OverlapAt(const MSeg& a, const MSeg& b, Instant t) {
  auto sa = a.ValueAt(t);
  auto sb = b.ValueAt(t);
  if (!sa || !sb) return false;
  return Overlap(*sa, *sb);
}

}  // namespace

OverlapEvents CollinearOverlapTimes(const MSeg& a, const MSeg& b,
                                    const TimeInterval& within) {
  OverlapEvents out;
  Quad q1 = CrossQuad(a, b.s());
  Quad q2 = CrossQuad(a, b.e());
  double tol = kEpsilon * 1e3;  // Coefficient-level tolerance.
  if (q1.NearZeroAll(tol) && q2.NearZeroAll(tol)) {
    // Permanently collinear: probe for overlap across the interval.
    for (int i = 1; i <= 9; ++i) {
      Instant t = within.start() + Duration(within) * i / 10.0;
      if (Duration(within) == 0) t = within.start();
      if (OverlapAt(a, b, t)) {
        out.always = true;
        return out;
      }
    }
    return out;
  }
  const Roots candidates = q1.NearZeroAll(tol)
                              ? QuadraticRoots(q2.c2, q2.c1, q2.c0)
                              : QuadraticRoots(q1.c2, q1.c1, q1.c0);
  for (double t : candidates) {
    if (!within.Contains(t)) continue;
    // Both endpoints of b must be on a's supporting line at t.
    double scale = 1 + std::fabs(q2.c0) + std::fabs(q2.c1) + std::fabs(q2.c2);
    if (std::fabs(q2.Eval(t)) > kEpsilon * scale * 1e3) continue;
    if (OverlapAt(a, b, t)) out.times.push_back(t);
  }
  std::sort(out.times.begin(), out.times.end());
  out.times.erase(std::unique(out.times.begin(), out.times.end()),
                  out.times.end());
  return out;
}

Result<ULine> ULine::Make(TimeInterval interval, std::vector<MSeg> msegs) {
  if (msegs.empty()) {
    return Status::InvalidArgument("uline unit needs at least one mseg");
  }
  std::sort(msegs.begin(), msegs.end());
  // No segment may degenerate inside the open interval.
  for (const MSeg& m : msegs) {
    for (Instant t : m.DegenerationTimes()) {
      if (interval.ContainsOpen(t)) {
        return Status::InvalidArgument(
            "moving segment degenerates inside the unit interval: " +
            m.ToString());
      }
      if (interval.IsDegenerate() && t == interval.start()) {
        return Status::InvalidArgument(
            "moving segment degenerate at instant unit");
      }
    }
  }
  // No collinear overlap at any instant of the open interval.
  for (std::size_t i = 0; i < msegs.size(); ++i) {
    for (std::size_t j = i + 1; j < msegs.size(); ++j) {
      OverlapEvents ev = CollinearOverlapTimes(msegs[i], msegs[j], interval);
      if (ev.always) {
        return Status::InvalidArgument(
            "moving segments overlap throughout the unit");
      }
      for (Instant t : ev.times) {
        bool open_hit = interval.ContainsOpen(t);
        bool instant_hit = interval.IsDegenerate() && t == interval.start();
        if (open_hit || instant_hit) {
          return Status::InvalidArgument(
              "moving segments overlap inside the unit interval");
        }
      }
    }
  }
  return ULine(interval, std::move(msegs));
}

Line ULine::ValueAt(Instant t) const {
  std::vector<Seg> segs;
  segs.reserve(msegs_.size());
  for (const MSeg& m : msegs_) {
    if (auto s = m.ValueAt(t)) segs.push_back(*s);
  }
  // Line::Canonical implements exactly the ι_s/ι_e cleanup: degenerate
  // members were dropped above, merge-segs fuses overlapping segments.
  return Line::Canonical(std::move(segs));
}

Cube ULine::BoundingCube() const {
  Rect r;
  for (const MSeg& m : msegs_) {
    r.Extend(m.s().At(interval_.start()));
    r.Extend(m.s().At(interval_.end()));
    r.Extend(m.e().At(interval_.start()));
    r.Extend(m.e().At(interval_.end()));
  }
  return Cube(r, interval_.start(), interval_.end());
}

Result<ULine> ULine::WithInterval(TimeInterval sub) const {
  // A sub-interval of a valid unit is valid (its open part is a subset of
  // the original open part), so construct directly.
  return ULine(sub, msegs_);
}

std::string ULine::ToString() const {
  std::ostringstream os;
  os << "uline" << interval_.ToString() << " " << msegs_.size() << " msegs";
  return os.str();
}

}  // namespace modb
