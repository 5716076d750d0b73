#include "temporal/mseg.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/real.h"
#include "temporal/ureal.h"

namespace modb {

namespace {

// Relative scale of a motion's coefficients, for tolerance decisions.
double MotionScale(const LinearMotion& m) {
  return 1.0 + std::fabs(m.x0) + std::fabs(m.x1) + std::fabs(m.y0) +
         std::fabs(m.y1);
}

}  // namespace

Result<MSeg> MSeg::Make(LinearMotion s, LinearMotion e) {
  if (s == e) {
    return Status::InvalidArgument("mseg endpoints have identical motion");
  }
  // Coplanarity (non-rotation): (P_e(0) - P_s(0)) · (d_s × d_e) == 0 for
  // the 3D direction vectors d = (x1, y1, 1). Expands to
  //   wx (y1s - y1e) + wy (x1e - x1s) == 0,   w = offset at t = 0.
  double wx = e.x0 - s.x0;
  double wy = e.y0 - s.y0;
  double det = wx * (s.y1 - e.y1) + wy * (e.x1 - s.x1);
  double tol = kEpsilon * MotionScale(s) * MotionScale(e);
  if (std::fabs(det) > tol) {
    return Status::InvalidArgument(
        "mseg endpoints are not coplanar (rotating segment)");
  }
  if (e < s) std::swap(s, e);
  return MSeg(s, e);
}

Result<MSeg> MSeg::FromEndSegments(Instant t0, const Seg& at_start,
                                   Instant t1, const Seg& at_end) {
  if (t1 <= t0) {
    return Status::InvalidArgument("mseg requires t0 < t1");
  }
  double dur = t1 - t0;
  auto motion = [&](const Point& p0, const Point& p1) {
    double x1 = (p1.x - p0.x) / dur;
    double y1 = (p1.y - p0.y) / dur;
    return LinearMotion{p0.x - x1 * t0, x1, p0.y - y1 * t0, y1};
  };
  return Make(motion(at_start.a(), at_end.a()),
              motion(at_start.b(), at_end.b()));
}

std::optional<Seg> MSeg::ValueAt(Instant t) const {
  Point p = s_.At(t);
  Point q = e_.At(t);
  if (p == q) return std::nullopt;
  auto seg = Seg::Make(p, q);
  if (!seg.ok()) return std::nullopt;
  return *seg;
}

std::vector<Instant> MSeg::DegenerationTimes() const {
  CoincidenceResult co = Coincidence(s_, e_);
  return co.instants;  // `always` is impossible: Make rejects s == e.
}

std::string MSeg::ToString() const {
  std::ostringstream os;
  os << "mseg[(" << s_.x0 << "+" << s_.x1 << "t, " << s_.y0 << "+" << s_.y1
     << "t) - (" << e_.x0 << "+" << e_.x1 << "t, " << e_.y0 << "+" << e_.y1
     << "t)]";
  return os.str();
}

MSegCrossings CrossingTimes(const LinearMotion& p, const MSeg& m,
                            const TimeInterval& within) {
  MSegCrossings out;
  // A(t) = e(t) - s(t), B(t) = p(t) - s(t); the point lies on the
  // supporting line when cross(A, B) = 0, a quadratic in t.
  double ax0 = m.e().x0 - m.s().x0, ax1 = m.e().x1 - m.s().x1;
  double ay0 = m.e().y0 - m.s().y0, ay1 = m.e().y1 - m.s().y1;
  double bx0 = p.x0 - m.s().x0, bx1 = p.x1 - m.s().x1;
  double by0 = p.y0 - m.s().y0, by1 = p.y1 - m.s().y1;
  double c2 = ax1 * by1 - ay1 * bx1;
  double c1 = ax0 * by1 + ax1 * by0 - ay0 * bx1 - ay1 * bx0;
  double c0 = ax0 * by0 - ay0 * bx0;
  double scale = 1 + std::fabs(ax0) + std::fabs(ay0) + std::fabs(bx0) +
                 std::fabs(by0);
  double tol = kEpsilon * scale * scale;
  if (std::fabs(c2) <= tol && std::fabs(c1) <= tol && std::fabs(c0) <= tol) {
    out.always_collinear = true;
    return out;
  }
  for (double t : QuadraticRoots(c2, c1, c0)) {
    if (!within.Contains(t)) continue;
    // Betweenness: B(t) projected onto A(t) must fall within [0, |A|²].
    double axt = ax0 + ax1 * t, ayt = ay0 + ay1 * t;
    double bxt = bx0 + bx1 * t, byt = by0 + by1 * t;
    double len2 = axt * axt + ayt * ayt;
    if (len2 == 0) continue;  // Segment degenerate at t.
    double u = (bxt * axt + byt * ayt) / len2;
    if (u >= -1e-9 && u <= 1 + 1e-9) out.times.push_back(t);
  }
  std::sort(out.times.begin(), out.times.end());
  return out;
}

std::vector<Instant> ConfigurationEvents(const MSeg& a, const MSeg& b,
                                         const TimeInterval& within) {
  std::vector<Instant> events;
  auto add = [&](const MSegCrossings& c) {
    for (Instant t : c.times) events.push_back(t);
  };
  add(CrossingTimes(a.s(), b, within));
  add(CrossingTimes(a.e(), b, within));
  add(CrossingTimes(b.s(), a, within));
  add(CrossingTimes(b.e(), a, within));
  for (Instant t : a.DegenerationTimes()) {
    if (within.Contains(t)) events.push_back(t);
  }
  for (Instant t : b.DegenerationTimes()) {
    if (within.Contains(t)) events.push_back(t);
  }
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());
  return events;
}

}  // namespace modb
