// The ureal unit type (Section 3.2.5): the unit function is
//   ι((a,b,c,r), t) = a·t² + b·t + c        if ¬r
//                   = √(a·t² + b·t + c)     if r.
//
// The paper motivates this choice as the closure class for the lifted
// size, perimeter and distance operations (Euclidean distance between two
// linearly moving points is the square root of a quadratic in t); the
// derivative operation is explicitly NOT closed in this class.

#ifndef MODB_TEMPORAL_UREAL_H_
#define MODB_TEMPORAL_UREAL_H_

#include <cstddef>
#include <optional>
#include <string>

#include "core/interval.h"
#include "core/status.h"

namespace modb {

/// At most two reals, ascending, held in place: what solving a quadratic
/// yields, without a heap allocation. Ranges like a container.
struct Roots {
  double at[2] = {0, 0};
  std::size_t n = 0;

  void push_back(double t) { at[n++] = t; }
  std::size_t size() const { return n; }
  bool empty() const { return n == 0; }
  double operator[](std::size_t i) const { return at[i]; }
  const double* begin() const { return at; }
  const double* end() const { return at + n; }
};

/// Roots of a·t² + b·t + c = 0, sorted ascending (0, 1 or 2 entries; the
/// "identically zero" polynomial reports no roots — callers handle it via
/// IsZero checks).
Roots QuadraticRoots(double a, double b, double c);

/// Extremum (min and max) of a quadratic or √quadratic over an interval.
struct URealExtrema {
  double min_value;
  Instant min_at;
  double max_value;
  Instant max_at;
};

class UReal {
 public:
  using ValueType = double;

  /// Validating factory: when r (square root) is set, the polynomial must
  /// be non-negative on the whole unit interval.
  static Result<UReal> Make(TimeInterval interval, double a, double b,
                            double c, bool r);

  /// A constant unit (a = b = 0, c = value).
  static Result<UReal> Constant(TimeInterval interval, double value) {
    return Make(interval, 0, 0, value, false);
  }

  const TimeInterval& interval() const { return interval_; }
  double a() const { return a_; }
  double b() const { return b_; }
  double c() const { return c_; }
  bool root() const { return root_; }

  /// ι((a,b,c,r), t).
  double ValueAt(Instant t) const;

  /// Min/max of the unit function over the unit interval.
  URealExtrema Extrema() const;

  /// Instants in the unit interval where the unit function equals v,
  /// ascending. For a constant unit equal to v everywhere, returns empty
  /// (callers treat the whole interval as matching via EqualsEverywhere).
  Roots InstantsAtValue(double v) const;

  /// True iff the unit function is the constant v on the whole interval.
  bool EqualsEverywhere(double v) const;

  static bool FunctionEqual(const UReal& a, const UReal& b) {
    return a.a_ == b.a_ && a.b_ == b.b_ && a.c_ == b.c_ &&
           a.root_ == b.root_;
  }

  Result<UReal> WithInterval(TimeInterval sub) const {
    return Make(sub, a_, b_, c_, root_);
  }

  std::string ToString() const;

 private:
  UReal(TimeInterval interval, double a, double b, double c, bool r)
      : interval_(interval), a_(a), b_(b), c_(c), root_(r) {}

  TimeInterval interval_;
  double a_;
  double b_;
  double c_;
  bool root_;
};

}  // namespace modb

#endif  // MODB_TEMPORAL_UREAL_H_
