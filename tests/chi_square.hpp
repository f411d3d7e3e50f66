// Pooled chi-square goodness of fit against an exact pmf, shared by the
// sampler and round-engine law tests.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace kusd::test {

struct ChiSquareFit {
  double statistic = 0.0;
  /// Pooled bins minus one; 0 when no bin could be filled.
  double df = 0.0;
  /// Wilson-Hilferty upper quantile of chi-square(df) at z = 4.265
  /// (alpha = 1e-5).
  double critical = 0.0;
};

/// `observed[i]` counts the draws that landed on the outcome of
/// probability `pmf[i]`. Adjacent outcomes are pooled until each bin
/// expects >= 20 of `draws`; the rest joins the last full bin.
inline ChiSquareFit chi_square_fit(std::span<const double> pmf,
                                   std::span<const double> observed,
                                   double draws) {
  std::vector<double> bin_expected, bin_observed;
  double e = 0.0, o = 0.0;
  for (std::size_t i = 0; i < pmf.size(); ++i) {
    e += pmf[i] * draws;
    o += observed[i];
    if (e >= 20.0) {
      bin_expected.push_back(e);
      bin_observed.push_back(o);
      e = o = 0.0;
    }
  }
  ChiSquareFit fit;
  if (bin_expected.empty()) return fit;
  bin_expected.back() += e;
  bin_observed.back() += o;
  for (std::size_t b = 0; b < bin_expected.size(); ++b) {
    const double diff = bin_observed[b] - bin_expected[b];
    fit.statistic += diff * diff / bin_expected[b];
  }
  fit.df = static_cast<double>(bin_expected.size() - 1);
  const double h = 2.0 / (9.0 * fit.df);
  fit.critical = fit.df * std::pow(1.0 - h + 4.265 * std::sqrt(h), 3);
  return fit;
}

}  // namespace kusd::test
