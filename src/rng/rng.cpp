#include "rng/rng.hpp"

#include <algorithm>
#include <cmath>

#include "rng/binomial.hpp"
#include "util/check.hpp"

namespace kusd::rng {

namespace {

// The certified ladder of geometric_failures serves p >= kLadderMinP. Below
// it most draws land past the top rung (P(m >= 8) = (1-p)^8 > 0.59), and the
// ladder would only add its cost to the libm path, e.g. for the tiny edge
// probabilities of G(n,p).
constexpr double kLadderMinP = 0x1p-4;
// Relative half-width of the band around each power that the ladder
// declines to decide.
constexpr double kLadderBand = 0x1p-40;

}  // namespace

std::uint64_t Rng::geometric_failures(double p) {
  KUSD_CHECK_MSG(p > 0.0 && p <= 1.0, "geometric parameter out of range");
  if (p == 1.0) return 0;
  // Inversion: floor(log(U) / log(1-p)), U in (0,1].
  const double u = 1.0 - uniform01();  // (0, 1]
  if (p >= kLadderMinP) {
    // With a = 1-p, the inversion is m iff a^(m+1) < u <= a^m, so the
    // result is the number of powers a^j (j >= 1) at or above u. Compare u
    // with a..a^8 and return that count when it is below 8 and no power
    // lies in the band u(1 +- 2^-40); otherwise fall through to libm.
    //
    // Why the count equals libm's floor(log(u) / log1p(-p)) exactly. Let
    // A_j = (1-p)^j in exact arithmetic and q* = ln(u) / ln(1-p), so that
    // floor(q*) = #{j >= 1 : u <= A_j}.
    //  1. The ladder's powers. a = fl(1-p) is within relative 2^-53 of
    //     1-p (1-p >= 2^-53 is normal), and a^j below takes j-1 rounded
    //     products, so P_j = A_j(1 + e_j) with |e_j| <= (2j-1) 2^-53
    //     (1 + 2^-49) < 2^-49 for j <= 8. No underflow: a^8 >= 2^-424.
    //  2. The band. h = fl(u(1-2^-40)) and l = fl(u(1+2^-40)) each carry
    //     one more rounding of 2^-53. If h > P_j then
    //     u > A_j (1-2^-49) / ((1-2^-40)(1+2^-53)) > A_j (1+2^-41); if
    //     l <= P_j then u < A_j (1-2^-41). `loose` counts the j with
    //     h <= P_j and `strict` those with l <= P_j; h <= l, so
    //     loose >= strict, and loose == strict says every power
    //     falls in one of those two cases: u is decided against each A_j,
    //     with relative room of at least 2^-41, and strict = #{j <= 8 :
    //     u <= A_j}. When also strict < 8, u > A_8 >= A_j for all j >= 8,
    //     so strict = floor(q*) and q* < 8.
    //  3. libm. The computed quotient is q*(1 + t), where t gathers the
    //     errors of log, log1p and the division. Moving q* by at most
    //     |t| q* = |t| |ln u| / |ln(1-p)| cannot cross an integer j: that
    //     is |ln(u / A_j)| / |ln(1-p)| >= 2^-41 (1 - 2^-41) / |ln(1-p)|
    //     away, and |ln u| <= 53 ln 2 < 37 (u >= 2^-53), so any |t| below
    //     2^-47 suffices. That allows 64 units of 2^-53 for the libm
    //     calls together; correctly rounded division plus the 1-2 ulp
    //     that log and log1p take use a few. So the floors agree.
    const double a = 1.0 - p;
    const double a2 = a * a;
    const double a3 = a2 * a;
    const double a4 = a2 * a2;
    const double a5 = a4 * a, a6 = a4 * a2, a7 = a4 * a3, a8 = a4 * a4;
    const auto powers_at_or_above = [&](double x) {
      return static_cast<int>(x <= a) + static_cast<int>(x <= a2) +
             static_cast<int>(x <= a3) + static_cast<int>(x <= a4) +
             static_cast<int>(x <= a5) + static_cast<int>(x <= a6) +
             static_cast<int>(x <= a7) + static_cast<int>(x <= a8);
    };
    const int loose = powers_at_or_above(u * (1.0 - kLadderBand));
    const int strict = powers_at_or_above(u * (1.0 + kLadderBand));
    if (loose == strict && strict < 8) {
      return static_cast<std::uint64_t>(strict);
    }
  }
  const double q = std::log(u) / std::log1p(-p);
  // The cast is undefined from 2^64 up (p below ~2e-18 at small u);
  // saturate instead, which every caller reads as "no success in range".
  if (q >= 0x1p64) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(std::floor(q));
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  return rng::binomial(*this, n, p);
}

void Rng::multinomial_into(std::uint64_t n, std::span<const double> weights,
                           std::span<std::uint64_t> out) {
  KUSD_CHECK_MSG(out.size() == weights.size(),
                 "multinomial output size must match the weight count");
  std::fill(out.begin(), out.end(), 0);
  double remaining_weight = 0.0;
  std::size_t last_positive = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    KUSD_CHECK_MSG(weights[i] >= 0.0,
                   "multinomial weight must be non-negative");
    remaining_weight += weights[i];
    if (weights[i] > 0.0) last_positive = i;
  }
  KUSD_CHECK_MSG(n == 0 || remaining_weight > 0.0,
                 "multinomial of n > 0 needs a positive total weight");
  std::uint64_t remaining = n;
  for (std::size_t i = 0; i + 1 < weights.size() && remaining > 0; ++i) {
    if (remaining_weight <= 0.0) break;
    const double p = std::min(1.0, weights[i] / remaining_weight);
    const std::uint64_t draw = binomial(remaining, p);
    out[i] = draw;
    remaining -= draw;
    remaining_weight -= weights[i];
  }
  // The leftover belongs to the last bucket that can hold agents: the
  // conditional p of that bucket can round to just below 1, and a
  // trailing zero-weight bucket must stay empty.
  if (remaining > 0) out[last_positive] += remaining;
}

std::vector<std::uint64_t> Rng::multinomial(std::uint64_t n,
                                            std::span<const double> weights) {
  std::vector<std::uint64_t> out(weights.size(), 0);
  multinomial_into(n, weights, out);
  return out;
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u, v, s;
  do {
    u = 2.0 * uniform01() - 1.0;
    v = 2.0 * uniform01() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

}  // namespace kusd::rng
