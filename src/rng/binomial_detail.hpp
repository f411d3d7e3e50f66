// The BINV/BTRS sampler arithmetic behind rng::binomial, the one
// binomial sampler: every engine, rng::binomial_batch and
// Rng::binomial draw through binomial_draw below. It lives in a header
// so that tests/test_btrs_accept.cpp can pin the accept test's pieces
// (the certified estimate against the reference) one by one. The setup
// structs hold the per-(n, p) constants of one draw.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "rng/binomial.hpp"

namespace kusd::rng::detail {

// BINV gives up after this many inversion steps and restarts with a fresh
// uniform: with np < 10 the region beyond is ~1e-60 probability, but a
// floating-point-underflowed pmf recurrence could otherwise spin to n.
inline constexpr std::uint64_t kBinvCutoff = 110;

// A squeeze-missing BTRS candidate within this distance of the mode runs
// the accept test in the linear domain (a short product of pmf ratios, no
// libm at all) instead of the log domain. pmf(m +- 64)/pmf(m) is at most
// ~exp(-64^2 / (2 * spq^2)) — far above double underflow for every spq
// this branch sees — and 64 terms of 1-2 ulp each keep the product's
// relative error ~1e-14, the same order as the log path.
inline constexpr double kNearModeWindow = 64.0;

// The np threshold splitting BINV (below) from BTRS cohorts.
inline constexpr double kBtrsCutoff = 10.0;

/// ln(1 - p) without a libm call for small p: the Mercator series
/// truncated after p^5 has absolute error < p^6/6, so for p <= 1e-4 the
/// error in n * ln(q) stays below 1e-12 even at n = 1e8 — far inside the
/// sampler's documented log-domain tolerance. Matters because the
/// tau-leap draws mostly tiny per-family probabilities, making this the
/// common BINV setup path.
inline double log1m(double p) {
  if (p > 1e-4) return std::log1p(-p);
  const double p2 = p * p;
  return -(p + p2 * (0.5 + p * (1.0 / 3.0)) +
           p2 * p2 * (0.25 + p * 0.2));
}

/// exp(z) for |z| < 0.09 via a degree-7 Taylor polynomial: the truncation
/// error z^8/8! is below 1e-13 on that interval, matching libm's accuracy
/// for this use. Over half the tau-leap's BINV setups land here (tiny
/// family probabilities make n * ln(q) nearly zero), so skipping the
/// out-of-line exp call is a measurable share of the whole draw.
inline double exp_small(double z) {
  double acc = 1.0 / 5040.0;
  acc = acc * z + 1.0 / 720.0;
  acc = acc * z + 1.0 / 120.0;
  acc = acc * z + 1.0 / 24.0;
  acc = acc * z + 1.0 / 6.0;
  acc = acc * z + 0.5;
  acc = acc * z + 1.0;
  return acc * z + 1.0;
}

/// Per-(n, p) constants of the BINV inversion (p <= 0.5, np < 10).
struct BinvSetup {
  double s = 0.0;
  double a = 0.0;
  double r0 = 0.0;  // q^n
};

inline BinvSetup binv_setup(std::uint64_t n, double p) {
  const double q = 1.0 - p;
  BinvSetup setup;
  setup.s = p / q;
  setup.a = (static_cast<double>(n) + 1.0) * setup.s;
  const double z = static_cast<double>(n) * log1m(p);
  setup.r0 = z > -0.09 ? exp_small(z) : std::exp(z);
  return setup;
}

/// Inversion by sequential search for small means (np < 10, p <= 0.5).
inline std::uint64_t binv(Rng& rng, const BinvSetup& setup, std::uint64_t n) {
  for (;;) {
    double u = rng.uniform01();
    double r = setup.r0;
    std::uint64_t x = 0;
    while (u > r) {
      if (x >= n) return n;  // all remaining mass sits at x = n
      u -= r;
      ++x;
      if (x > kBinvCutoff) break;
      r *= setup.a / static_cast<double>(x) - setup.s;
    }
    if (x <= kBinvCutoff) return x;
  }
}

// fdlibm's split of ln(2): kLn2Hi carries 32 significand bits, so
// e * kLn2Hi is exact for every exponent |e| <= 1074.
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kSqrt2 = 1.4142135623730951;

/// ln(x) for x in [0, inf) without libm: exponent peel-off via the bit
/// pattern, then the atanh series on the mantissa centered at 1,
///   ln(m) = 2 atanh(s) = 2s (1 + s^2/3 + s^4/5 + ...),
/// with m in [sqrt2/2, sqrt2] so |s| <= 0.1716 and the truncated tail
/// s^20/21 is below 3e-16 relative. Total error ~2 ulp — the same order
/// as a libm log, but with one fixed, exactly-specified operation
/// sequence: every accept decision downstream of this function is
/// identical on every platform and libm version, which a vendor log
/// (accurate but not correctly rounded) cannot promise.
inline double log_pos(double x) {
  if (x == 0.0) return -std::numeric_limits<double>::infinity();
  std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  int e = static_cast<int>(bits >> 52) - 1023;
  if (e == -1023) {  // subnormal: renormalize first
    bits = std::bit_cast<std::uint64_t>(x * 0x1.0p54);
    e = static_cast<int>(bits >> 52) - 1023 - 54;
  }
  // Branchless range reduction to [sqrt2/2, sqrt2]: with the exponent
  // pinned, m > sqrt2 is an integer compare of mantissa fields, and
  // halving is an exponent-field decrement (grafting 0x3FE instead of
  // 0x3FF). A conditional `m *= 0.5` here is a 50/50 data-dependent
  // branch that mispredicts on half of all calls — and the accept test
  // makes up to six log_pos calls back to back.
  const std::uint64_t mant = bits & 0x000FFFFFFFFFFFFFULL;
  const bool big = mant > (std::bit_cast<std::uint64_t>(kSqrt2) &
                           0x000FFFFFFFFFFFFFULL);
  e += static_cast<int>(big);
  const double m = std::bit_cast<double>(
      mant | (big ? 0x3FE0000000000000ULL : 0x3FF0000000000000ULL));
  const double s = (m - 1.0) / (m + 1.0);
  const double z = s * s;
  // Estrin evaluation of sum z^k / (2k + 3), k = 0..9: same accuracy as
  // Horner but ~30 cycles of dependency depth instead of ~90 — the
  // accept test's log calls sit on the draw's critical path.
  const double z2 = z * z;
  const double z4 = z2 * z2;
  const double p0 = 1.0 / 3.0 + (1.0 / 5.0) * z;
  const double p1 = 1.0 / 7.0 + (1.0 / 9.0) * z;
  const double p2 = 1.0 / 11.0 + (1.0 / 13.0) * z;
  const double p3 = 1.0 / 15.0 + (1.0 / 17.0) * z;
  const double p4 = 1.0 / 19.0 + (1.0 / 21.0) * z;
  const double poly = (p0 + p1 * z2) + z4 * ((p2 + p3 * z2) + z4 * p4);
  const double de = static_cast<double>(e);
  return de * kLn2Hi + ((2.0 * s) * (z * poly) + (de * kLn2Lo + 2.0 * s));
}

inline constexpr double kHalfLogTwoPi =
    0.91893853320467274178;  // ln(2*pi)/2

// Exact-table size for log_factorial: large enough that the Stirling
// tail's worst case (k = kLogFactorialTableSize) is deep inside its
// accuracy regime.
inline constexpr std::size_t kLogFactorialTableSize = 128;

// ln(k!) for k < kLogFactorialTableSize, each entry the correctly-rounded
// double of the exact value (integer k! through 50-digit decimal ln). A
// literal table rather than a libm accumulation at startup: long-double
// log differs across platforms (x87 80-bit vs IEEE quad vs plain
// double), and a last-ulp table difference would make BTRS accept
// decisions — and so whole draw streams — platform-dependent.
inline constexpr std::array<double, kLogFactorialTableSize>
    kLogFactorialTable = {
      0x0.0p+0, 0x0.0p+0, 0x1.62e42fefa39efp-1, 0x1.cab0bfa2a2002p+0,
      0x1.96ca77c922cf9p+1, 0x1.326643c4479c9p+2, 0x1.a51273acf01cap+2, 0x1.10ce1f32dcc30p+3,
      0x1.5358e82fcb70dp+3, 0x1.99a8921a7f7cfp+3, 0x1.e357590954d15p+3, 0x1.180973f3a8d74p+4,
      0x1.3fcba16d50143p+4, 0x1.68d5a9c3b32cep+4, 0x1.930f3df162a42p+4, 0x1.be636a63fd346p+4,
      0x1.eabff061f1a84p+4, 0x1.0c0a63f2f353ap+5, 0x1.2329df2d5ee52p+5, 0x1.3ab8153363985p+5,
      0x1.52af57aed77bep+5, 0x1.6b0a8643472a9p+5, 0x1.83c4faba84f06p+5, 0x1.9cda78b856a45p+5,
      0x1.b6472034e8d14p+5, 0x1.d007622cd65e7p+5, 0x1.ea17f717c6794p+5, 0x1.023aeb67e4fefp+6,
      0x1.0f8f18d330240p+6, 0x1.1d07353917231p+6, 0x1.2aa208b59d0e5p+6, 0x1.385e6fd9e5a40p+6,
      0x1.463b59b942084p+6, 0x1.5437c633ace4ap+6, 0x1.6252c474896bap+6, 0x1.708b719e11658p+6,
      0x1.7ee0f79b26758p+6, 0x1.8d528c1243d96p+6, 0x1.9bdf6f75257a3p+6, 0x1.aa86ec2969812p+6,
      0x1.b94855c702ba2p+6, 0x1.c8230869ca105p+6, 0x1.d7166813e12eep+6, 0x1.e621e01eeba4fp+6,
      0x1.f544e2ba69cf1p+6, 0x1.023f743addd9fp+7, 0x1.09e7b7ea41ea9p+7, 0x1.119afe762626bp+7,
      0x1.19590c853a559p+7, 0x1.2121a930c6ec3p+7, 0x1.28f49ddeb1f31p+7, 0x1.30d1b61e86335p+7,
      0x1.38b8bf8931ddbp+7, 0x1.40a989a33a6cdp+7, 0x1.48a3e5c12af19p+7, 0x1.50a7a6ee08711p+7,
      0x1.58b4a1d39da73p+7, 0x1.60caaca474746p+7, 0x1.68e99f0757979p+7, 0x1.711152043b2c4p+7,
      0x1.79419ff26dc59p+7, 0x1.817a6467f6fb9p+7, 0x1.89bb7c2a0aea1p+7, 0x1.9204c51e7c761p+7,
      0x1.9a561e3e1a4bdp+7, 0x1.a2af6787e4609p+7, 0x1.ab1081f509726p+7, 0x1.b3794f6d9d7afp+7,
      0x1.bbe9b2bdfb621p+7, 0x1.c4618f8cc56f7p+7, 0x1.cce0ca5179100p+7, 0x1.d567484b8b7b6p+7,
      0x1.ddf4ef7a05a70p+7, 0x1.e689a69396befp+7, 0x1.ef2554ff15148p+7, 0x1.f7c7e2cc66183p+7,
      0x1.00389c56e3462p+8, 0x1.04909ff8b652bp+8, 0x1.08ebf13dbf263p+8, 0x1.0d4a85602b129p+8,
      0x1.11ac51df8932ap+8, 0x1.16114c7e34736p+8, 0x1.1a796b3ede1acp+8, 0x1.1ee4a46236d3ep+8,
      0x1.2352ee64b46d5p+8, 0x1.27c43ffc72962p+8, 0x1.2c3890172d057p+8, 0x1.30afd5d851956p+8,
      0x1.352a089728f1bp+8, 0x1.39a71fdd14947p+8, 0x1.3e271363e0df7p+8, 0x1.42a9db142a36ap+8,
      0x1.472f6f03d410cp+8, 0x1.4bb7c77491066p+8, 0x1.5042dcd27af64p+8, 0x1.54d0a7b2ba658p+8,
      0x1.596120d23c4ecp+8, 0x1.5df4411475a1cp+8, 0x1.628a018233bedp+8, 0x1.67225b4879462p+8,
      0x1.6bbd47b7669b6p+8, 0x1.705ac0412d89fp+8, 0x1.74fabe790f7bep+8, 0x1.799d3c1265c0ep+8,
      0x1.7e4232dfb367dp+8, 0x1.82e99cd1c0368p+8, 0x1.879373f6bc4fep+8, 0x1.8c3fb2796c21cp+8,
      0x1.90ee52a05c35fp+8, 0x1.959f4ecd1c8b3p+8, 0x1.9a52a17b831ccp+8, 0x1.9f084540f545ep+8,
      0x1.a3c034cbb7b2cp+8, 0x1.a87a6ae24493ap+8, 0x1.ad36e262a7cc0p+8, 0x1.b1f59641e0db5p+8,
      0x1.b6b6818b4a3ebp+8, 0x1.bb799f600610ap+8, 0x1.c03eeaf66facdp+8, 0x1.c5065f9992226p+8,
      0x1.c9cff8a8a340dp+8, 0x1.ce9bb196830eap+8, 0x1.d36985e93f7b8p+8, 0x1.d83971399c213p+8,
      0x1.dd0b6f329dea4p+8, 0x1.e1df7b911a74cp+8, 0x1.e6b592234b0c9p+8, 0x1.eb8daec863182p+8,
};

/// The Stirling residue ln(x!) - [(x+1/2) ln x - x + ln(2 pi)/2] through
/// its 1/x^3 term: below 1/(1260 x^5) in error for x >= 128.
inline double stirling_tail(double x) {
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  return inv * (1.0 / 12.0 - inv2 / 360.0);
}

/// Inline body of rng::log_factorial (see binomial.hpp for the
/// contract), defined here because the header-inline accept test below
/// calls it.
inline double log_factorial(std::uint64_t k) {
  if (k < kLogFactorialTableSize) return kLogFactorialTable[k];
  const double dk = static_cast<double>(k);
  return (dk + 0.5) * log_pos(dk) - dk + kHalfLogTwoPi + stirling_tail(dk);
}

/// Per-(n, p) constants of Hörmann's BTRS sampler (p <= 0.5, np >= 10),
/// in the exact evaluation order of the original scalar sampler.
struct BtrsSetup {
  double dn = 0.0;
  double spq = 0.0;
  double b = 0.0;
  double a = 0.0;
  double c = 0.0;
  double v_r = 0.0;
  double m = 0.0;
  double ratio = 0.0;
};

inline BtrsSetup btrs_setup(std::uint64_t n, double p) {
  BtrsSetup setup;
  setup.dn = static_cast<double>(n);
  const double q = 1.0 - p;
  setup.spq = std::sqrt(setup.dn * p * q);
  setup.b = 1.15 + 2.53 * setup.spq;
  setup.a = -0.0873 + 0.0248 * setup.b + 0.01 * p;
  setup.c = setup.dn * p + 0.5;
  setup.v_r = 0.92 - 4.2 / setup.b;
  setup.m = std::floor((setup.dn + 1.0) * p);
  setup.ratio = p / q;
  return setup;
}

// ---- Far-from-mode squeeze misses: certified estimate, then reference ----
//
// The reference far-miss test is `lhs <= rhs` with
//   rhs = lf(m) + lf(n-m) - lf(k) - lf(n-k) + (k-m) ln r,   r = p/q,
// six log_pos evaluations per first miss of a draw. Most misses are
// nowhere near the boundary, so btrs_fast_decide first settles them from
// a libm-free estimate of the same quantity T = ln(pmf(k)/pmf(m)). With
// d = k - m and L(x) = ln(1 + x), Stirling's series gives exactly
//   T = -(k+1/2) L(d/m) - (n-k+1/2) L(-d/(n-m)) + d L(((n-m) r - m)/m) + S,
// where S = s(m) - s(k) + s(n-m) - s(n-k) collects the Stirling residues
// s(x) = lf(x) - (x+1/2) ln x + x - ln(2 pi)/2, each in (0, 1/(12x)). With
// |d| <= m/4 and |d| <= (n-m)/4 (the estimate's guards), min(m, k) >= 3m/4
// and min(n-m, n-k) >= 3(n-m)/4, so |S| < 1/(9m) + 1/(9(n-m)).
//
// The estimate decides only when lhs is farther than eps from it, where
// eps bounds the estimate's error (|S|, the series truncation and its
// rounding) plus the reference's own rounding. rhs is assembled from
// terms no larger than lf(n) <= 45 n (n < 2^64); log_pos (~2 ulp), the
// Stirling evaluation inside log_factorial and the five-way combination
// add up to under ~45 units of 2^-53 * 45 n, so the 128 units of
// 2^-46 * 45 * (n + 1) leave ~3x headroom (against quad-precision lgamma
// the worst case seen is 1/60 of it). Outside eps the true T, and
// therefore the reference's rhs, sits on the same side of lhs as the
// estimate, so the decision equals the reference's float comparison by
// construction; inside eps the reference runs. Draw streams stay
// bit-identical to the reference-only sampler.

// Every count entering the estimate (m, k, n-m, n-k) must be at least
// this, which keeps the reference's log_factorial on its Stirling branch.
inline constexpr double kFastMinCount = 128.0;
// The estimate runs only up to this n: every count is then an exact
// double and the reference's rounding bound stays below ~0.05. Beyond it
// the reference's rounding outgrows any use, and btrs_huge_n_rhs decides
// instead.
inline constexpr double kFastMaxN = 0x1p36;

/// ln(1 + x) from s = x / (2 + x), as 2 atanh(s) through the s^9 term.
/// The caller guarantees |x| <= 1/4, so |s| <= 1/7 and the dropped tail
/// 2 sum_{j>=5} s^(2j+1)/(2j+1) is below atanh_tail(s).
inline double log1p_atanh(double s) {
  const double z = s * s;
  return 2.0 * s *
         (1.0 + z * (1.0 / 3.0 + z * (1.0 / 5.0 + z * (1.0 / 7.0 +
                                                     z * (1.0 / 9.0)))));
}

/// Truncation bound of log1p_atanh: 2 |s|^11 / (11 (1 - s^2)) <= |s|^11 / 5
/// for |s| <= 1/7.
inline double atanh_tail(double s) {
  const double z = s * s;
  const double z2 = z * z;
  return 0.2 * (z2 * z2 * z) * std::abs(s);
}

/// The far-miss constants, computed lazily on the first far-from-mode
/// squeeze miss of a draw and cached across that draw's candidates. The
/// reference's three log_pos terms are deferred further, to the first
/// miss the estimate cannot decide — under the tau-leap's
/// fresh-(n, p)-per-call pattern most draws never need them.
struct BtrsSlowTerms {
  double alpha = 0.0;
  // Estimate (valid when fast_ok):
  double nm = 0.0;        // n - m
  double eps = 0.0;       // reference rounding bound + |S| bound
  double log1p_x3 = 0.0;  // L(((n - m) r - m) / m)
  double tail3 = 0.0;     // truncation bound of log1p_x3
  bool fast_ok = false;   // the per-draw guards hold
  bool ready = false;
  // Reference:
  double log_ratio = 0.0;
  double h = 0.0;
  bool reference_ready = false;
};

/// Fills the per-draw far-miss constants. Guards come first, so a draw
/// the estimate can never serve pays only for alpha.
inline void btrs_far_terms(const BtrsSetup& setup, std::uint64_t n,
                           BtrsSlowTerms& slow) {
  slow.alpha = (2.83 + 5.1 / setup.b) * setup.spq;
  slow.ready = true;
  if (setup.dn > kFastMaxN || setup.m < kFastMinCount) return;
  slow.nm = static_cast<double>(n - static_cast<std::uint64_t>(setup.m));
  if (slow.nm < kFastMinCount) return;
  const double scaled = slow.nm * setup.ratio;
  if (4.0 * std::abs(scaled - setup.m) > setup.m) return;
  const double s3 = (scaled - setup.m) / (scaled + setup.m);
  slow.log1p_x3 = log1p_atanh(s3);
  slow.tail3 = atanh_tail(s3);
  // 1/(9m) + 1/(9(n-m)) = n / (9 m (n-m)).
  slow.eps = 0x1p-46 * 45.0 * (setup.dn + 1.0) +
             setup.dn / (9.0 * setup.m * slow.nm);
  slow.fast_ok = true;
}

/// The log-domain left-hand side shared by the estimate and the
/// reference: ln(v * alpha / (a/us^2 + b)).
inline double btrs_far_lhs(const BtrsSetup& setup, double v, double us,
                           const BtrsSlowTerms& slow) {
  return log_pos(v * slow.alpha / (setup.a / (us * us) + setup.b));
}

enum class FarDecision { kAccept, kReject, kUndecided };

/// The certified estimate (see the block comment above): kAccept or
/// kReject only when the reference comparison is guaranteed to agree.
inline FarDecision btrs_fast_decide(const BtrsSetup& setup, double kd,
                                    double lhs, const BtrsSlowTerms& slow) {
  const double d = kd - setup.m;
  const double nk = setup.dn - kd;  // n - k
  const double ad = std::abs(d);
  if (!slow.fast_ok || kd < kFastMinCount || nk < kFastMinCount ||
      4.0 * ad > setup.m || 4.0 * ad > slow.nm) {
    return FarDecision::kUndecided;
  }
  // s = x / (2 + x) for x = d/m and x = -d/(n-m): 2m + d = m + k and
  // 2(n-m) - d = (n-m) + (n-k), all exact integers below 2^37.
  const double s1 = d / (setup.m + kd);
  const double s2 = -d / (slow.nm + nk);
  const double t1 = (kd + 0.5) * log1p_atanh(s1);
  const double t2 = (nk + 0.5) * log1p_atanh(s2);
  const double t3 = d * slow.log1p_x3;
  const double estimate = t3 - t1 - t2;
  // Rounding of the estimate is below ~16 ulp of |t1| + |t2| + |t3| + |d|
  // (the |d| term carries the cancellation in (n-m) r - m); 2^-44 is 512
  // ulp, which also absorbs the rounding of this bound and of the two
  // comparisons below.
  const double err =
      slow.eps + ad * slow.tail3 + (kd + 0.5) * atanh_tail(s1) +
      (nk + 0.5) * atanh_tail(s2) +
      0x1p-44 * (std::abs(t1) + std::abs(t2) + std::abs(t3) + ad);
  if (lhs < estimate - err) return FarDecision::kAccept;
  if (lhs > estimate + err) return FarDecision::kReject;
  return FarDecision::kUndecided;
}

/// The reference far-miss right-hand side: the log-domain pmf ratio the
/// lhs is compared against (accept iff lhs <= rhs).
inline double btrs_reference_rhs(const BtrsSetup& setup, std::uint64_t n,
                                 double kd, BtrsSlowTerms& slow) {
  if (!slow.reference_ready) {
    slow.log_ratio = log_pos(setup.ratio);
    slow.h = log_factorial(static_cast<std::uint64_t>(setup.m)) +
             log_factorial(n - static_cast<std::uint64_t>(setup.m));
    slow.reference_ready = true;
  }
  const auto k = static_cast<std::uint64_t>(kd);
  return slow.h - log_factorial(k) - log_factorial(n - k) +
         (kd - setup.m) * slow.log_ratio;
}

/// ln(1 + x) for x > -1 to a few ulp at every magnitude: log_pos of the
/// rounded 1 + x, rescaled by x / ((1 + x) - 1) to cancel that rounding
/// (Goldberg 1991, Theorem 4).
inline double log1p_pos(double x) {
  const double u = 1.0 + x;
  if (u == 1.0) return x;
  return log_pos(u) * (x / (u - 1.0));
}

/// The far-miss rhs above kFastMaxN, where the reference's
/// lf(n - m) - lf(n - k) is a difference of two ~n ln n doubles whose
/// ulp (~3e4 at n = 2^62) dwarfs the whole lhs range, which would leave
/// the accept test deciding on rounding noise. Here the same T is
/// evaluated in the cancellation-free form of the block comment —
/// T = R1 + R2 + d L(((n-m) r - m)/m) with
///   R1 = lf(m) - lf(k) + d ln m = -(k+1/2) L(d/m) + d + s(m) - s(k),
///   R2 = lf(n-m) - lf(n-k) - d ln(n-m) = -(n-k+1/2) L(-d/(n-m)) - d
///        + s(n-m) - s(n-k),
/// with s(x) = stirling_tail(x), log_factorial's own. When m or k is
/// below 128 (only at tiny p) that tail does not apply, and lf(m) - lf(k)
/// is small enough to take directly. A k within 128 of n sits at least
/// n/2 - 128 above the mode, where T < -n/4 and the reference's rounding
/// cannot flip the decision.
inline double btrs_huge_n_rhs(const BtrsSetup& setup, std::uint64_t n,
                              double kd, BtrsSlowTerms& slow) {
  const double nk = setup.dn - kd;
  if (nk < kFastMinCount) return btrs_reference_rhs(setup, n, kd, slow);
  const double nm =
      static_cast<double>(n - static_cast<std::uint64_t>(setup.m));
  const double d = kd - setup.m;
  const double r2 = -(nk + 0.5) * log1p_pos(-d / nm) - d +
                    stirling_tail(nm) - stirling_tail(nk);
  const double scaled = nm * setup.ratio;
  if (setup.m < kFastMinCount || kd < kFastMinCount) {
    return log_factorial(static_cast<std::uint64_t>(setup.m)) -
           log_factorial(static_cast<std::uint64_t>(kd)) + r2 +
           d * log_pos(scaled);
  }
  const double r1 = -(kd + 0.5) * log1p_pos(d / setup.m) + d +
                    stirling_tail(setup.m) - stirling_tail(kd);
  return r1 + r2 + d * log1p_pos((scaled - setup.m) / setup.m);
}

/// Squeeze-miss accept test: compares v against the exact pmf ratio —
/// multiplicatively when the candidate is near the mode (the
/// overwhelmingly common miss at small spq, where the squeeze is
/// weakest), in the log domain otherwise, through the certified estimate
/// first. Consumes no randomness: a candidate's two uniforms are drawn
/// before it is called.
inline bool btrs_accept(const BtrsSetup& setup, std::uint64_t n, double v,
                        double us, double kd, BtrsSlowTerms& slow) {
  if (std::abs(kd - setup.m) <= kNearModeWindow) {
    // Accept iff v * alpha / (a/us^2 + b) <= pmf(k)/pmf(m); build the
    // ratio as a running product of one-step pmf ratios
    //   pmf(i)/pmf(i-1) = ((n - i + 1)/i) * p/q.
    double f = 1.0;
    if (kd > setup.m) {
      for (double i = setup.m + 1.0; i <= kd; i += 1.0) {
        f *= (setup.dn - i + 1.0) / i * setup.ratio;
      }
    } else {
      for (double i = kd + 1.0; i <= setup.m; i += 1.0) {
        f *= i / ((setup.dn - i + 1.0) * setup.ratio);
      }
    }
    const double alpha_lin = (2.83 + 5.1 / setup.b) * setup.spq;
    return v * alpha_lin <= f * (setup.a / (us * us) + setup.b);
  }
  if (!slow.ready) btrs_far_terms(setup, n, slow);
  const double lhs = btrs_far_lhs(setup, v, us, slow);
  if (setup.dn > kFastMaxN) {
    return lhs <= btrs_huge_n_rhs(setup, n, kd, slow);
  }
  switch (btrs_fast_decide(setup, kd, lhs, slow)) {
    case FarDecision::kAccept:
      return true;
    case FarDecision::kReject:
      return false;
    case FarDecision::kUndecided:
      break;
  }
  return lhs <= btrs_reference_rhs(setup, n, kd, slow);
}

/// Hörmann's BTRS transformed-rejection sampler (np >= 10, p <= 0.5):
/// ~86% of candidate pairs accept via the squeeze. Two uniforms per
/// candidate.
inline std::uint64_t btrs(Rng& rng, const BtrsSetup& setup, std::uint64_t n) {
  BtrsSlowTerms slow;
  for (;;) {
    const double u = rng.uniform01() - 0.5;
    const double v = rng.uniform01();
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * setup.a / us + setup.b) * u + setup.c);
    if (kd < 0.0 || kd > setup.dn) continue;
    if (us >= 0.07 && v <= setup.v_r) return static_cast<std::uint64_t>(kd);
    if (btrs_accept(setup, n, v, us, kd, slow)) {
      return static_cast<std::uint64_t>(kd);
    }
  }
}

/// Full Binomial(n, p) draw from `rng`'s stream: degenerate cases,
/// reflection for p > 0.5, and the BINV/BTRS split. p must already be
/// validated into [0, 1] by the caller.
inline std::uint64_t binomial_draw(Rng& rng, std::uint64_t n, double p) {
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  const bool reflect = p > 0.5;
  const double ps = reflect ? 1.0 - p : p;
  std::uint64_t draw = 0;
  if (static_cast<double>(n) * ps < kBtrsCutoff) {
    const BinvSetup setup = binv_setup(n, ps);
    draw = binv(rng, setup, n);
  } else {
    const BtrsSetup setup = btrs_setup(n, ps);
    draw = btrs(rng, setup, n);
  }
  return reflect ? n - draw : draw;
}

}  // namespace kusd::rng::detail
