#include "stats/random.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "sim/diagnostics.hpp"

namespace lcsf::stats {

std::uint64_t SplitMix64::below(std::uint64_t bound) {
  if (bound <= 1) return 0;
  // Reject the top partial cycle so every value is equally likely.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  std::uint64_t x;
  do {
    x = next();
  } while (x >= limit);
  return x % bound;
}

std::vector<std::size_t> stream_permutation(std::size_t n,
                                            SplitMix64& stream) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), std::size_t{0});
  for (std::size_t k = n; k > 1; --k) {
    std::swap(p[k - 1], p[stream.below(k)]);
  }
  return p;
}

double inverse_normal_cdf(double p) {
  if (p <= 0.0 || p >= 1.0) {
    sim::throw_invalid_input("inverse_normal_cdf: p must be in (0,1)");
  }
  // Acklam's algorithm: rational approximations in three regions.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  double x;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
         c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
         a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
          c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  return x;
}

}  // namespace lcsf::stats
