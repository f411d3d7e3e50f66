// Bias and significance measures from Section 2 of the paper, plus the
// monochromatic distance of Becchetti et al. [9] used in Appendix D.
#pragma once

#include "pp/configuration.hpp"

namespace kusd::core {

/// Additive bias: xmax - second largest support (the beta such that the
/// configuration "has an additive bias beta" with the plurality as m).
[[nodiscard]] pp::Count additive_bias(const pp::Configuration& x);

/// Multiplicative bias: xmax / second largest support; +infinity when only
/// one opinion has support.
[[nodiscard]] double multiplicative_bias(const pp::Configuration& x);

/// The significance constant alpha at which the drivers track phases and
/// classify outcomes (runner::run_usd, core::PhaseTracker's default). The
/// paper's theorems hold for any constant alpha.
inline constexpr double kSignificanceAlpha = 1.0;

/// The paper's significance threshold alpha * sqrt(n * ln n).
[[nodiscard]] double significance_threshold(pp::Count n, double alpha);

/// Opinion i is significant iff x_i > xmax - alpha * sqrt(n ln n).
[[nodiscard]] bool is_significant(const pp::Configuration& x, int i,
                                  double alpha);

/// Number of significant opinions (always >= 1: the plurality itself).
[[nodiscard]] int significant_count(const pp::Configuration& x, double alpha);

/// Opinion i is *important* (Section 4) iff x_i > xmax - 4 alpha sqrt(n ln n).
[[nodiscard]] bool is_important(const pp::Configuration& x, int i,
                                double alpha);

/// Monochromatic distance md(x) = sum_i (x_i / xmax)^2 (Becchetti et al.,
/// used by the Appendix D rate comparison). Always in [1, k].
[[nodiscard]] double monochromatic_distance(const pp::Configuration& x);

/// Becchetti et al.'s gossip-model convergence bound in rounds:
/// md(x) * log2(n).
[[nodiscard]] double gossip_rate_bound(const pp::Configuration& x);

/// This paper's population-model bound in *parallel time* (interactions/n)
/// under multiplicative bias: log2(n) + n / x1.
[[nodiscard]] double population_rate_bound(const pp::Configuration& x);

}  // namespace kusd::core
