// SIMD sampling fast path: cross-tier bit-identity and edge cases.
//
// The dispatch contract (rng/simd.hpp) is that the instruction-set tier
// is purely a throughput knob — every tier produces the same bytes for
// every input. These tests pin that contract where it is most likely to
// crack: ragged tails, degenerate parameters, the BINV/BTRS cutoff, and
// counts near the 2^63 cap. Each parameterized case runs under every
// tier the host supports, forced via simd::set_tier.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "rng/binomial.hpp"
#include "rng/rng.hpp"
#include "rng/simd.hpp"

namespace kusd {
namespace {

using rng::simd::Tier;

/// Force a tier for one scope and restore the host's widest on exit, so
/// a failing test cannot leak a narrowed tier into the rest of the
/// suite.
class TierGuard {
 public:
  explicit TierGuard(Tier tier) { installed_ = rng::simd::set_tier(tier); }
  ~TierGuard() { rng::simd::set_tier(rng::simd::supported_tier()); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

  /// The tier actually installed (clamped to what the host supports).
  [[nodiscard]] Tier installed() const { return installed_; }

 private:
  Tier installed_;
};

std::vector<Tier> tiers_up_to_supported() {
  std::vector<Tier> tiers = {Tier::kScalar};
  if (rng::simd::supported_tier() >= Tier::kSse2) tiers.push_back(Tier::kSse2);
  if (rng::simd::supported_tier() >= Tier::kAvx2) tiers.push_back(Tier::kAvx2);
  return tiers;
}

// ---- binomial / binomial_batch edge cases ----

/// Run one (n, p) through scalar rng::binomial and through
/// binomial_batch on the given tier with fresh copies of the same
/// stream; both results and the post-draw stream positions must agree.
void expect_batch_matches_scalar(std::uint64_t n, double p, Tier tier,
                                 std::uint64_t seed) {
  TierGuard guard(tier);
  rng::Rng scalar_rng(seed);
  rng::Rng batch_rng(seed);
  const std::uint64_t ns[] = {n};
  const double ps[] = {p};
  std::uint64_t out[] = {~std::uint64_t{0}};
  rng::Rng* ptrs[] = {&batch_rng};
  rng::binomial_batch(std::span<rng::Rng* const>(ptrs),
                      std::span<const std::uint64_t>(ns),
                      std::span<const double>(ps),
                      std::span<std::uint64_t>(out));
  const std::uint64_t expected = rng::binomial(scalar_rng, n, p);
  EXPECT_EQ(out[0], expected)
      << "n=" << n << " p=" << p << " tier " << rng::simd::to_string(tier);
  EXPECT_EQ(batch_rng.next_u64(), scalar_rng.next_u64())
      << "stream position diverged at n=" << n << " p=" << p << " tier "
      << rng::simd::to_string(tier);
}

TEST(BinomialEdge, DegenerateParameters) {
  for (const Tier tier : tiers_up_to_supported()) {
    // p = 0 and n = 0 return 0; p = 1 returns n. None consume
    // randomness (checked via the stream-position assertion).
    expect_batch_matches_scalar(0, 0.5, tier, 41);
    expect_batch_matches_scalar(5000, 0.0, tier, 42);
    expect_batch_matches_scalar(5000, 1.0, tier, 43);
    expect_batch_matches_scalar(1, 0.5, tier, 44);  // single Bernoulli
  }
  rng::Rng rng_a(45);
  EXPECT_EQ(rng::binomial(rng_a, 0, 0.7), 0u);
  EXPECT_EQ(rng::binomial(rng_a, 123, 0.0), 0u);
  EXPECT_EQ(rng::binomial(rng_a, 123, 1.0), 123u);
  // Degenerate draws consumed nothing: the stream is still at origin.
  rng::Rng rng_b(45);
  EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
}

TEST(BinomialEdge, MeanStraddlingTheBtrsCutoff) {
  // np just below 10 routes to BINV, just above to BTRS; both sides must
  // match the scalar sampler bit for bit on every tier.
  for (const Tier tier : tiers_up_to_supported()) {
    for (std::uint64_t seed = 50; seed < 58; ++seed) {
      expect_batch_matches_scalar(1000, 0.00999, tier, seed);   // np = 9.99
      expect_batch_matches_scalar(1000, 0.010001, tier, seed);  // np > 10
      expect_batch_matches_scalar(100000, 0.0000999, tier, seed);
      expect_batch_matches_scalar(100000, 0.0001001, tier, seed);
    }
  }
}

TEST(BinomialEdge, HugeCountsNearTheCap) {
  // n near 2^63: exercises the BTRS setup at extreme scale and the
  // reflection path's n - Binomial(n, 1 - p) subtraction.
  const std::uint64_t huge = std::uint64_t{1} << 62;
  for (const Tier tier : tiers_up_to_supported()) {
    for (std::uint64_t seed = 60; seed < 64; ++seed) {
      expect_batch_matches_scalar(huge, 1e-18, tier, seed);  // np < 10: BINV
      expect_batch_matches_scalar(huge, 0.3, tier, seed);
      expect_batch_matches_scalar(huge, 0.97, tier, seed);  // reflection
    }
    TierGuard guard(tier);
    rng::Rng rng_sanity(65);
    const std::uint64_t draw = rng::binomial(rng_sanity, huge, 0.3);
    EXPECT_LE(draw, huge);
    // A draw at this n concentrates within ~1e7 of the mean; a factor-2
    // band catches sign/overflow bugs without flaking.
    EXPECT_GT(draw, huge / 5);
    EXPECT_LT(draw, huge / 2);
  }
}

TEST(BinomialEdge, ReflectionAboveHalf) {
  for (const Tier tier : tiers_up_to_supported()) {
    for (std::uint64_t seed = 70; seed < 74; ++seed) {
      expect_batch_matches_scalar(40, 0.999, tier, seed);
      expect_batch_matches_scalar(5000, 0.75, tier, seed);
      expect_batch_matches_scalar(5000, 0.5, tier, seed);  // boundary
    }
  }
}

TEST(BinomialEdge, RaggedBatchSizesMatchScalarLoopOnEveryTier) {
  // Batch sizes 1..17 cover every remainder against the 4-lane (SSE2)
  // and 8-lane (AVX2 double-pumped) BTRS groupings; parameters mix
  // degenerate, BINV, BTRS, and reflection draws so the cohort
  // partition is exercised at every size.
  for (const Tier tier : tiers_up_to_supported()) {
    TierGuard guard(tier);
    for (std::size_t lanes = 1; lanes <= 17; ++lanes) {
      std::vector<std::uint64_t> ns(lanes);
      std::vector<double> ps(lanes);
      for (std::size_t i = 0; i < lanes; ++i) {
        ns[i] = (i % 6 == 0) ? 0 : 400 * (i + 1) * (i + 1);
        ps[i] = (i % 5 == 0) ? 1.0 : 0.03 + 0.057 * static_cast<double>(i);
      }
      std::vector<rng::Rng> batch_rngs, scalar_rngs;
      std::vector<rng::Rng*> ptrs;
      batch_rngs.reserve(lanes);
      scalar_rngs.reserve(lanes);
      for (std::size_t i = 0; i < lanes; ++i) {
        batch_rngs.emplace_back(rng::stream_seed(6000 + lanes, i));
        scalar_rngs.emplace_back(rng::stream_seed(6000 + lanes, i));
      }
      for (auto& r : batch_rngs) ptrs.push_back(&r);
      std::vector<std::uint64_t> out(lanes);
      rng::binomial_batch(std::span<rng::Rng* const>(ptrs), ns, ps, out);
      for (std::size_t i = 0; i < lanes; ++i) {
        EXPECT_EQ(out[i], rng::binomial(scalar_rngs[i], ns[i], ps[i]))
            << "tier " << rng::simd::to_string(tier) << " lanes " << lanes
            << " lane " << i;
        EXPECT_EQ(batch_rngs[i].next_u64(), scalar_rngs[i].next_u64())
            << "tier " << rng::simd::to_string(tier) << " lanes " << lanes
            << " lane " << i;
      }
    }
  }
}

}  // namespace
}  // namespace kusd
