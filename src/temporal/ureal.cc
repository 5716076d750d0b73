#include "temporal/ureal.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "core/real.h"

namespace modb {

Roots QuadraticRoots(double a, double b, double c) {
  Roots roots;
  if (a == 0) {
    if (b == 0) return roots;  // Constant: no isolated roots.
    roots.push_back(-c / b);
    return roots;
  }
  double disc = b * b - 4 * a * c;
  if (disc < 0) return roots;
  if (disc == 0) {
    roots.push_back(-b / (2 * a));
    return roots;
  }
  // Numerically stable quadratic formula.
  double sq = std::sqrt(disc);
  double q = -0.5 * (b + (b >= 0 ? sq : -sq));
  double r1 = q / a;
  double r2 = c / q;
  roots.push_back(std::min(r1, r2));
  roots.push_back(std::max(r1, r2));
  return roots;
}

Result<UReal> UReal::Make(TimeInterval interval, double a, double b, double c,
                          bool r) {
  if (r) {
    // The radicand must be non-negative on the unit interval: check the
    // endpoints and, if interior, the vertex of the parabola.
    auto poly = [&](double t) { return a * t * t + b * t + c; };
    double tol = kEpsilon * (1 + std::fabs(c));
    if (poly(interval.start()) < -tol || poly(interval.end()) < -tol) {
      return Status::InvalidArgument(
          "ureal: radicand negative at unit interval endpoint");
    }
    if (a != 0) {
      double vertex = -b / (2 * a);
      if (interval.ContainsOpen(vertex) && poly(vertex) < -tol) {
        return Status::InvalidArgument(
            "ureal: radicand negative inside unit interval");
      }
    }
  }
  return UReal(interval, a, b, c, r);
}

double UReal::ValueAt(Instant t) const {
  double v = a_ * t * t + b_ * t + c_;
  if (!root_) return v;
  return v <= 0 ? 0 : std::sqrt(v);
}

URealExtrema UReal::Extrema() const {
  std::vector<Instant> candidates = {interval_.start(), interval_.end()};
  if (a_ != 0) {
    double vertex = -b_ / (2 * a_);
    if (interval_.ContainsOpen(vertex)) candidates.push_back(vertex);
  }
  URealExtrema ex{ValueAt(candidates[0]), candidates[0],
                  ValueAt(candidates[0]), candidates[0]};
  for (Instant t : candidates) {
    double v = ValueAt(t);
    if (v < ex.min_value) {
      ex.min_value = v;
      ex.min_at = t;
    }
    if (v > ex.max_value) {
      ex.max_value = v;
      ex.max_at = t;
    }
  }
  return ex;
}

Roots UReal::InstantsAtValue(double v) const {
  // Solve ι(t) = v. For the root case: √poly = v requires v >= 0 and
  // poly = v².
  if (EqualsEverywhere(v)) return {};
  double target_c = c_;
  double rhs = v;
  if (root_) {
    if (v < 0) return {};
    rhs = v * v;
  }
  Roots out;
  for (double t : QuadraticRoots(a_, b_, target_c - rhs)) {
    if (interval_.Contains(t)) out.push_back(t);
  }
  return out;
}

bool UReal::EqualsEverywhere(double v) const {
  if (a_ != 0 || b_ != 0) return false;
  if (!root_) return c_ == v;
  return v >= 0 && ApproxEq(c_, v * v);
}

std::string UReal::ToString() const {
  std::ostringstream os;
  os << "ureal" << interval_.ToString() << " ";
  if (root_) os << "sqrt(";
  os << a_ << "t^2 + " << b_ << "t + " << c_;
  if (root_) os << ")";
  return os.str();
}

}  // namespace modb
