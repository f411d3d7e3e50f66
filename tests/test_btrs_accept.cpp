// The BTRS far-miss accept test: the certified estimate against the
// reference log-domain comparison (rng/binomial_detail.hpp).
//
// btrs_fast_decide may answer accept or reject only where the reference
// comparison `lhs <= rhs` is guaranteed to give the same answer; every
// other miss falls through to the reference. These tests pin both halves
// of that contract: no decided miss ever disagrees with the reference
// (sampled misses over the whole parameter range, plus candidates built
// to sit right on the reference's boundary), and the estimate keeps
// deciding nearly every miss at tau-leap-typical parameters, so the fast
// path cannot silently degrade into always falling back.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "rng/binomial_detail.hpp"
#include "rng/rng.hpp"

namespace kusd {
namespace {

using rng::detail::BtrsSetup;
using rng::detail::BtrsSlowTerms;
using rng::detail::FarDecision;

/// One BTRS candidate, generated exactly as rng::detail::btrs does.
struct Candidate {
  double v, us, kd;
  bool in_range, squeezed;
};

Candidate next_candidate(rng::Rng& rng, const BtrsSetup& setup) {
  const double u = rng.uniform01() - 0.5;
  const double v = rng.uniform01();
  const double us = 0.5 - std::abs(u);
  const double kd = std::floor((2.0 * setup.a / us + setup.b) * u + setup.c);
  return {v, us, kd, kd >= 0.0 && kd <= setup.dn,
          us >= 0.07 && v <= setup.v_r};
}

struct MissTally {
  long misses = 0;   // squeeze misses (near and far)
  long far = 0;      // misses past the near-mode window
  long decided = 0;  // far misses the estimate settled
  long wrong = 0;    // decided misses that disagree with the reference
};

/// Draws BTRS candidates at (n, p) until `target` squeeze misses have
/// been seen, running the estimate and the reference on every far miss.
/// Candidates are i.i.d. across draws, so scanning them without stopping
/// at acceptance sees exactly the sampler's miss distribution.
MissTally scan_misses(std::uint64_t n, double p, long target,
                      std::uint64_t seed) {
  const BtrsSetup setup = rng::detail::btrs_setup(n, p);
  rng::Rng rng(seed);
  MissTally tally;
  BtrsSlowTerms slow;
  while (tally.misses < target) {
    const auto [v, us, kd, in_range, squeezed] = next_candidate(rng, setup);
    if (!in_range || squeezed) continue;
    ++tally.misses;
    if (std::abs(kd - setup.m) <= rng::detail::kNearModeWindow) continue;
    ++tally.far;
    // A fresh cache now and then also exercises the lazy per-draw setup.
    if (tally.far % 64 == 0) slow = BtrsSlowTerms{};
    if (!slow.ready) rng::detail::btrs_far_terms(setup, n, slow);
    const double lhs = rng::detail::btrs_far_lhs(setup, v, us, slow);
    const FarDecision fast = rng::detail::btrs_fast_decide(setup, kd, lhs, slow);
    if (fast == FarDecision::kUndecided) continue;
    ++tally.decided;
    const bool reference =
        lhs <= rng::detail::btrs_reference_rhs(setup, n, kd, slow);
    if ((fast == FarDecision::kAccept) != reference) {
      ++tally.wrong;
      ADD_FAILURE() << "n=" << n << " p=" << p << " k=" << kd
                    << " lhs=" << lhs << " reference accepts: " << reference;
    }
  }
  return tally;
}

struct Point {
  std::uint64_t n;
  double p;  // reduced: p <= 0.5, np >= 10
};

TEST(BtrsFastPath, DecidedMissesMatchTheReference) {
  // sqrt(npq) from ~8 to ~1e4; m near 128 (where the count guards bite);
  // p at and just under 1/2; the estimate's n cap on both sides; n up to
  // 2^62, where the estimate stands down.
  const std::vector<Point> points = {
      {256, 0.5},                        // m = 128, spq 8
      {520, 0.25},                       // m = 130, spq 9.9
      {1'000'000, 1.3e-4},               // m = 130, spq 11.4
      {400, 0.5},                        // spq 10
      {10'000, 0.1},                     // spq 30
      {20'000, 0.4999},                  // p just under 1/2
      {100'000, 0.5},                    // r = 1 exactly
      {1'000'000, 0.085},                // spq 279, tau-leap typical
      {100'000'000, 0.01},               // spq 995
      {400'000'000, 0.5},                // spq 1e4
      {(std::uint64_t{1} << 36) - 1, 1e-6},  // just inside the n cap
      {(std::uint64_t{1} << 36) + 1, 1e-6},  // just outside it
      {std::uint64_t{1} << 62, 0x1p-40},     // n = 2^62, spq 2048
      {std::uint64_t{1} << 62, 0.3},
  };
  long misses = 0, far = 0, decided = 0;
  std::uint64_t seed = 9100;
  for (const Point& point : points) {
    const MissTally t = scan_misses(point.n, point.p, 80'000, seed++);
    EXPECT_EQ(t.wrong, 0) << "n=" << point.n << " p=" << point.p;
    misses += t.misses;
    far += t.far;
    decided += t.decided;
  }
  EXPECT_GE(misses, 1'000'000);
  // Most misses at these points are far, and most far misses decided.
  EXPECT_GT(far, misses / 2);
  EXPECT_GT(decided, far / 2);
}

TEST(BtrsFastPath, NeverDecidesAgainstTheReferenceAtItsBoundary) {
  // lhs placed on, and a hair either side of, the reference's own rhs:
  // inside the estimate's error band it must defer, and at every offset a
  // decision it does make must equal the float comparison `lhs <= rhs`.
  const std::vector<Point> points = {
      {1'000, 0.3}, {20'000, 0.4999}, {1'000'000, 0.085},
      {100'000'000, 0.01}, {(std::uint64_t{1} << 36) - 1, 0.25}};
  const std::vector<double> offsets = {
      0.0,  1e-15, -1e-15, 1e-12, -1e-12, 1e-10, -1e-10, 1e-9, -1e-9,
      1e-6, -1e-6, 1e-4,   -1e-4, 1e-3,   -1e-3, 1e-2,   -1e-2, 0.1, -0.1};
  long decided_far_out = 0;
  for (const Point& point : points) {
    const BtrsSetup setup = rng::detail::btrs_setup(point.n, point.p);
    BtrsSlowTerms slow;
    rng::detail::btrs_far_terms(setup, point.n, slow);
    ASSERT_TRUE(slow.fast_ok) << "n=" << point.n;
    const double spq = setup.spq;
    for (double z = -6.0; z <= 6.0; z += 0.25) {
      const double kd = std::floor(setup.m + z * spq);
      if (std::abs(kd - setup.m) <= rng::detail::kNearModeWindow) continue;
      const double rhs =
          rng::detail::btrs_reference_rhs(setup, point.n, kd, slow);
      std::vector<double> lhs_values = {rhs, std::nextafter(rhs, -1e300),
                                        std::nextafter(rhs, 1e300)};
      for (const double offset : offsets) lhs_values.push_back(rhs + offset);
      for (const double lhs : lhs_values) {
        const FarDecision fast =
            rng::detail::btrs_fast_decide(setup, kd, lhs, slow);
        if (std::abs(lhs - rhs) <= 1e-9) {
          EXPECT_EQ(fast, FarDecision::kUndecided)
              << "n=" << point.n << " k=" << kd << " lhs-rhs=" << lhs - rhs;
        }
        if (fast == FarDecision::kUndecided) continue;
        EXPECT_EQ(fast == FarDecision::kAccept, lhs <= rhs)
            << "n=" << point.n << " k=" << kd << " lhs-rhs=" << lhs - rhs;
        if (std::abs(lhs - rhs) >= 0.1) ++decided_far_out;
      }
    }
  }
  // 0.1 from the boundary is far outside every error band here.
  EXPECT_GT(decided_far_out, 0);
}

TEST(BtrsFastPath, FallbackShareStaysSmallAtATauLeapPoint) {
  // sqrt(npq) ~ 280, the regime of the n = 1e8 tau-leap's per-family
  // draws: every squeeze miss beyond the near-mode window should be
  // settled by the estimate, bar the ~2 * eps sliver around the boundary.
  const MissTally t = scan_misses(1'000'000, 0.085, 200'000, 9200);
  ASSERT_GT(t.far, 100'000);
  const double fallback =
      static_cast<double>(t.far - t.decided) / static_cast<double>(t.far);
  EXPECT_LT(fallback, 0.05) << "far misses " << t.far << ", decided "
                            << t.decided;
  EXPECT_EQ(t.wrong, 0);
}

/// btrs() with every far miss decided by the reference comparison alone:
/// the stream the estimate must reproduce draw for draw.
std::uint64_t reference_only_btrs(rng::Rng& rng, const BtrsSetup& setup,
                                  std::uint64_t n) {
  BtrsSlowTerms slow;
  for (;;) {
    const auto [v, us, kd, in_range, squeezed] = next_candidate(rng, setup);
    if (!in_range) continue;
    if (squeezed) return static_cast<std::uint64_t>(kd);
    if (std::abs(kd - setup.m) <= rng::detail::kNearModeWindow) {
      if (rng::detail::btrs_accept(setup, n, v, us, kd, slow)) {
        return static_cast<std::uint64_t>(kd);
      }
      continue;
    }
    if (!slow.ready) rng::detail::btrs_far_terms(setup, n, slow);
    if (rng::detail::btrs_far_lhs(setup, v, us, slow) <=
        rng::detail::btrs_reference_rhs(setup, n, kd, slow)) {
      return static_cast<std::uint64_t>(kd);
    }
  }
}

TEST(BtrsFastPath, DrawsAreBitIdenticalToTheReferenceOnlySampler) {
  // Up to the estimate's n cap; above it the huge-n rhs decides instead.
  const std::vector<Point> points = {{10'000, 0.1},
                                     {20'000, 0.4999},
                                     {1'000'000, 0.085},
                                     {100'000'000, 0.01},
                                     {std::uint64_t{1} << 36, 0.3}};
  for (const Point& point : points) {
    const BtrsSetup setup = rng::detail::btrs_setup(point.n, point.p);
    rng::Rng fast(9300), reference(9300);
    for (int i = 0; i < 20'000; ++i) {
      const std::uint64_t a = rng::detail::btrs(fast, setup, point.n);
      const std::uint64_t b = reference_only_btrs(reference, setup, point.n);
      ASSERT_EQ(a, b) << "n=" << point.n << " p=" << point.p << " draw " << i;
    }
    EXPECT_EQ(fast.next_u64(), reference.next_u64());
  }
}

TEST(BtrsHugeN, StableRhsAgreesWithTheReferenceJustAboveTheCap) {
  // At n = 2^37 the reference's rounding is still below its proven bound
  // 2^-46 * 45 * (n + 1) ~ 0.09, so the cancellation-free rhs must land
  // inside it — both the Stirling branch and the small-count branch.
  const std::uint64_t n = std::uint64_t{1} << 37;
  const double bound = 0x1p-46 * 45.0 * (static_cast<double>(n) + 1.0);
  for (const double p : {0.3, 1e-4, 1e-9}) {
    const BtrsSetup setup = rng::detail::btrs_setup(n, p);
    BtrsSlowTerms slow;
    for (double z = -8.0; z <= 8.0; z += 0.5) {
      const double kd = std::max(0.0, std::floor(setup.m + z * setup.spq));
      const double stable =
          rng::detail::btrs_huge_n_rhs(setup, n, kd, slow);
      const double reference =
          rng::detail::btrs_reference_rhs(setup, n, kd, slow);
      EXPECT_NEAR(stable, reference, bound) << "p=" << p << " k=" << kd;
    }
  }
}

}  // namespace
}  // namespace kusd
