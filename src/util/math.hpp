// Numerically robust combinatorial helpers used by the analytical models.
//
// The binomial pmf/cdf work in the log domain, so n may reach the largest
// contention window (the framework allows CW values far beyond the
// standard's 64) without overflow. They evaluate one point each; the 1901
// decoupling model (analysis/model_1901) needs whole CDF sequences over n
// and builds them incrementally instead, with these as its test oracle.
#pragma once

#include <cstdint>
#include <vector>

namespace plc::util {

/// Natural log of n! computed via lgamma. Exact enough for all n >= 0.
double log_factorial(int n);

/// Natural log of the binomial coefficient C(n, k).
/// Returns -infinity when k < 0 or k > n (coefficient is zero).
double log_binomial_coefficient(int n, int k);

/// P(Bin(n, p) == k), computed in the log domain.
/// Handles the degenerate cases p == 0 and p == 1 exactly.
double binomial_pmf(int n, int k, double p);

/// P(Bin(n, p) <= k).
/// k < 0 yields 0; k >= n yields 1.
double binomial_cdf(int n, int k, double p);

/// Finds a root of `f` on [lo, hi] by bisection.
///
/// Preconditions: f(lo) and f(hi) have opposite signs (or one of them is
/// zero). Iterates until the bracket width falls below `tol` or
/// `max_iterations` is reached. Returns the bracket midpoint.
template <typename F>
double bisect(F&& f, double lo, double hi, double tol = 1e-12,
              int max_iterations = 200) {
  double f_lo = f(lo);
  if (f_lo == 0.0) return lo;
  double f_hi = f(hi);
  if (f_hi == 0.0) return hi;
  for (int i = 0; i < max_iterations && (hi - lo) > tol; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double f_mid = f(mid);
    if (f_mid == 0.0) return mid;
    if ((f_lo < 0.0) == (f_mid < 0.0)) {
      lo = mid;
      f_lo = f_mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// Jain's fairness index of a non-negative allocation vector:
/// (sum x)^2 / (n * sum x^2). Returns 1.0 for an empty or all-zero vector
/// (a degenerate allocation is trivially fair).
double jain_index(const std::vector<double>& x);

}  // namespace plc::util
