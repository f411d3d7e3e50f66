// RoundEngine primitives and the batched-round exactness properties: the
// count-based synchronized and gossip rounds must have the same law as
// literal per-agent simulations of the same round models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "chi_square.hpp"
#include "core/round_engine.hpp"
#include "core/sync_usd.hpp"
#include "gossip/gossip_usd.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "stats/summary.hpp"

namespace kusd {
namespace {

using core::RoundEngine;
using pp::Configuration;
using pp::Count;

std::uint64_t sum(std::span<const Count> counts) {
  return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
}

TEST(RoundEngine, DecidedStepConservesAgents) {
  RoundEngine engine(4);
  rng::Rng rng(1);
  const std::vector<Count> opinions = {40, 30, 20, 10};
  for (int round = 0; round < 50; ++round) {
    std::vector<Count> next(4, 0);
    const Count undecided =
        engine.decided_step(opinions, 25, true, next, rng);
    EXPECT_EQ(sum(next) + undecided, 100u);
  }
}

TEST(RoundEngine, DecidedStepWithoutUndecidedKeepLosesMore) {
  // With a large undecided share, keep_on_undecided=true must preserve
  // strictly more agents on average than keep_on_undecided=false.
  RoundEngine engine(2);
  rng::Rng rng(2);
  const std::vector<Count> opinions = {50, 50};
  std::uint64_t kept_with = 0, kept_without = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<Count> next(2, 0);
    kept_with += 100 - engine.decided_step(opinions, 900, true, next, rng);
    next.assign(2, 0);
    kept_without +=
        100 - engine.decided_step(opinions, 900, false, next, rng);
  }
  EXPECT_GT(kept_with, kept_without);
}

/// The kept count of opinion i, as decided_step documents it:
/// Binomial(x_i, (x_i + [keep] u) / n).
double kept_probability(std::span<const Count> opinions, Count undecided,
                        bool keep, std::size_t i) {
  const Count favourable = opinions[i] + (keep ? undecided : 0);
  return static_cast<double>(favourable) /
         static_cast<double>(sum(opinions) + undecided);
}

struct DecidedCase {
  std::vector<Count> opinions;
  Count undecided;
  bool keep;
};

TEST(RoundEngine, DecidedStepIsOneBinomialPerOpinion) {
  // decided_step must consume exactly the stream of explicit per-opinion
  // binomials on a copy of the Rng, and keep what they draw.
  const std::vector<DecidedCase> cases = {
      {{40, 0, 30, 20, 10}, 25, true},  // a zero-count opinion
      {{40, 0, 30, 20, 10}, 25, false},
      {{500, 300, 200}, 0, false},  // fully decided, as in SyncUsd phase A
      {{3, 5}, 1'000'000, true},  // p just below 1
  };
  for (const auto& c : cases) {
    const std::size_t k = c.opinions.size();
    RoundEngine engine(static_cast<int>(k));
    rng::Rng rng(11);
    rng::Rng replay = rng;
    std::vector<Count> next(k, 0);
    const Count became =
        engine.decided_step(c.opinions, c.undecided, c.keep, next, rng);
    Count replay_became = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const Count stay = replay.binomial(
          c.opinions[i], kept_probability(c.opinions, c.undecided, c.keep, i));
      EXPECT_EQ(next[i], stay) << "opinion " << i;
      replay_became += c.opinions[i] - stay;
    }
    EXPECT_EQ(became, replay_became);
    EXPECT_EQ(rng.state(), replay.state());
  }
}

TEST(RoundEngine, DecidedStepDrawsNothingWhenEveryAgentKeeps) {
  // p = 1 (every partner is favourable) and empty opinions are degenerate:
  // all agents keep, and the stream does not move.
  const std::vector<DecidedCase> cases = {
      {{0, 70, 0}, 30, true},  // the undecided keep the only opinion
      {{100, 0}, 0, false},    // consensus
      {{0, 0, 9}, 0, true},
  };
  for (const auto& c : cases) {
    const std::size_t k = c.opinions.size();
    RoundEngine engine(static_cast<int>(k));
    rng::Rng rng(12);
    std::vector<Count> next(k, 0);
    EXPECT_EQ(engine.decided_step(c.opinions, c.undecided, c.keep, next, rng),
              0u);
    EXPECT_EQ(next, c.opinions);
    EXPECT_EQ(rng.state(), rng::Rng(12).state());
  }
}

TEST(RoundEngine, DecidedStepKeptCountFitsBinomial) {
  // Chi-square fit of opinion 0's kept count against the exact
  // Binomial(x_0, p) pmf, p = (x_0 + [keep] u) / n, at several regimes.
  const std::vector<DecidedCase> points = {
      {{30, 50, 20}, 40, true},    // p = 1/2
      {{30, 50, 20}, 40, false},   // p = 3/14, small mean
      {{120, 60, 20}, 0, false},   // p = 3/5, fully decided
      {{2000, 1000}, 3000, true},  // p = 5/6, large mean
  };
  const int draws = 50'000;
  for (const auto& c : points) {
    const std::size_t k = c.opinions.size();
    const Count x = c.opinions[0];
    const double p = kept_probability(c.opinions, c.undecided, c.keep, 0);
    SCOPED_TRACE(::testing::Message() << "x = " << x << ", p = " << p);
    std::vector<double> pmf(x + 1);
    for (Count s = 0; s <= x; ++s) {
      const double xs = static_cast<double>(x), ss = static_cast<double>(s);
      pmf[s] = std::exp(std::lgamma(xs + 1) - std::lgamma(ss + 1) -
                        std::lgamma(xs - ss + 1) + ss * std::log(p) +
                        (xs - ss) * std::log1p(-p));
    }
    RoundEngine engine(static_cast<int>(k));
    rng::Rng rng(9100 + x);
    std::vector<double> observed(x + 1, 0.0);
    for (int d = 0; d < draws; ++d) {
      std::vector<Count> next(k, 0);
      engine.decided_step(c.opinions, c.undecided, c.keep, next, rng);
      observed[next[0]] += 1.0;
    }
    const auto fit = test::chi_square_fit(pmf, observed, draws);
    ASSERT_GE(fit.df, 5.0);
    EXPECT_LT(fit.statistic, fit.critical) << fit.df + 1 << " bins";
  }
}

TEST(RoundEngine, AdoptionStepConservesAndAllowsAliasing) {
  RoundEngine engine(3);
  rng::Rng rng(3);
  std::vector<Count> counts = {10, 20, 30};
  const Count before = sum(counts);
  // Partners alias the accumulation target, as in SyncUsd phase B.
  const Count remaining = engine.adoption_step(counts, 40, 40, counts, rng);
  EXPECT_EQ(sum(counts) + remaining, before + 40);
}

TEST(RoundEngine, AdoptionStepAllDecidedPartnersAdoptsEveryone) {
  RoundEngine engine(2);
  rng::Rng rng(4);
  std::vector<Count> next(2, 0);
  const std::vector<Count> partners = {60, 40};
  const Count remaining = engine.adoption_step(partners, 0, 25, next, rng);
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(sum(next), 25u);
}

TEST(RoundEngine, AsyncChunkConservesAndSucceedsAtOne) {
  RoundEngine engine(3);
  rng::Rng rng(5);
  std::vector<Count> opinions = {40, 35, 15};
  Count undecided = 10;
  for (int i = 0; i < 500; ++i) {
    // m = 1 realizes exactly one chain event and must always succeed.
    ASSERT_TRUE(engine.try_async_chunk(opinions, undecided, 100, 1, rng));
    ASSERT_EQ(sum(opinions) + undecided, 100u);
  }
}

TEST(RoundEngine, AsyncChunkRejectsOvershootWithoutMutating) {
  RoundEngine engine(2);
  rng::Rng rng(6);
  // A huge frozen-rate chunk from a state with a tiny opinion must
  // eventually propose driving it negative; state stays intact either way.
  std::vector<Count> opinions = {97, 2};
  Count undecided = 1;
  bool saw_reject = false;
  for (int i = 0; i < 200 && !saw_reject; ++i) {
    std::vector<Count> o = opinions;
    Count u = undecided;
    if (!engine.try_async_chunk(o, u, 100, 80, rng)) {
      saw_reject = true;
      EXPECT_EQ(o, opinions);
      EXPECT_EQ(u, undecided);
    } else {
      EXPECT_EQ(sum(o) + u, 100u);
    }
  }
  EXPECT_TRUE(saw_reject);
}

TEST(RoundEngine, AsyncChunkNeverLeavesZeroDecided) {
  // The exact chain preserves decided >= 1; a chunk that flips every
  // decided agent (reachable only in the aggregate draw) must be rejected,
  // not committed — otherwise all-undecided becomes an absorbing state.
  RoundEngine engine(2);
  rng::Rng rng(7);
  bool saw_reject = false;
  for (int i = 0; i < 400; ++i) {
    std::vector<Count> opinions = {1, 1};
    Count undecided = 0;
    // n = 2, both decided differently, m = 2: P(both flip) = 1/8.
    if (engine.try_async_chunk(opinions, undecided, 2, 2, rng)) {
      EXPECT_LT(undecided, 2u);
    } else {
      saw_reject = true;
      EXPECT_EQ(undecided, 0u);
    }
  }
  EXPECT_TRUE(saw_reject);
}

// ---- Exactness vs literal per-agent round simulations ----

/// Per-agent synchronized USD (the idealized process of Section 1.2):
/// phase A, one USD step each; phase B, undecided agents resample until
/// landing on a decided agent, one synchronous sub-round per attempt.
std::uint64_t per_agent_sync_super_rounds(std::size_t n, int k,
                                          rng::Rng& rng,
                                          std::uint64_t max_super) {
  std::vector<int> agents(n);
  for (std::size_t i = 0; i < n; ++i) {
    agents[i] = static_cast<int>(i % static_cast<std::size_t>(k));
  }
  const int undecided = k;
  const auto is_consensus = [&agents] {
    return std::all_of(agents.begin(), agents.end(),
                       [&agents](int a) { return a == agents[0]; });
  };
  std::uint64_t supers = 0;
  while (!is_consensus() && supers < max_super) {
    std::vector<int> next(n);
    bool all_undecided = true;
    do {
      all_undecided = true;
      for (std::size_t i = 0; i < n; ++i) {
        const int partner = agents[rng.bounded(n)];
        next[i] = partner == agents[i] ? agents[i] : undecided;
        all_undecided = all_undecided && next[i] == undecided;
      }
    } while (all_undecided);
    agents = next;
    bool any_undecided = true;
    while (any_undecided) {
      any_undecided = false;
      const std::vector<int> snapshot = agents;
      for (std::size_t i = 0; i < n; ++i) {
        if (snapshot[i] != undecided) continue;
        const int partner = snapshot[rng.bounded(n)];
        if (partner != undecided) {
          agents[i] = partner;
        } else {
          any_undecided = true;
        }
      }
    }
    ++supers;
  }
  return supers;
}

TEST(RoundEngine, SyncUsdMatchesPerAgentReferenceInDistribution) {
  // The acceptance property: batched (count-based) synchronized rounds are
  // distributionally identical to a per-agent simulation — same seeds
  // derive both samples, statistics compared by two-sample KS.
  const Count n = 120;
  const int k = 3;
  const int trials = 300;
  std::vector<double> batched, reference;
  for (int t = 0; t < trials; ++t) {
    core::SyncUsd sim(Configuration::uniform(n, k, 0),
                      rng::Rng(rng::stream_seed(4100, t)));
    EXPECT_TRUE(sim.run_to_consensus(10'000));
    batched.push_back(static_cast<double>(sim.super_rounds()));
    rng::Rng rng(rng::stream_seed(4200, t));
    reference.push_back(static_cast<double>(
        per_agent_sync_super_rounds(n, k, rng, 10'000)));
  }
  EXPECT_LT(stats::ks_statistic(batched, reference),
            stats::ks_threshold(batched.size(), reference.size(), 0.001));
}

/// Per-agent gossip-model USD round: every agent samples one partner from
/// the pre-round population and applies the USD rule.
std::uint64_t per_agent_gossip_rounds(std::size_t n, int k, rng::Rng& rng,
                                      std::uint64_t max_rounds) {
  std::vector<int> agents(n);
  for (std::size_t i = 0; i < n; ++i) {
    agents[i] = static_cast<int>(i % static_cast<std::size_t>(k));
  }
  const int undecided = k;
  const auto is_consensus = [&agents] {
    return std::all_of(agents.begin(), agents.end(),
                       [&agents](int a) { return a == agents[0]; });
  };
  std::uint64_t rounds = 0;
  while (!is_consensus() && rounds < max_rounds) {
    const std::vector<int> snapshot = agents;
    for (std::size_t i = 0; i < n; ++i) {
      const int partner = snapshot[rng.bounded(n)];
      if (snapshot[i] == undecided) {
        if (partner != undecided) agents[i] = partner;
      } else if (partner != undecided && partner != snapshot[i]) {
        agents[i] = undecided;
      }
    }
    ++rounds;
  }
  return rounds;
}

TEST(RoundEngine, GossipUsdMatchesPerAgentReferenceInDistribution) {
  const Count n = 120;
  const int k = 3;
  const int trials = 300;
  std::vector<double> batched, reference;
  for (int t = 0; t < trials; ++t) {
    gossip::GossipUsd sim(Configuration::uniform(n, k, 0),
                          rng::Rng(rng::stream_seed(4300, t)));
    EXPECT_TRUE(sim.run_to_consensus(100'000));
    batched.push_back(static_cast<double>(sim.rounds()));
    rng::Rng rng(rng::stream_seed(4400, t));
    reference.push_back(
        static_cast<double>(per_agent_gossip_rounds(n, k, rng, 100'000)));
  }
  EXPECT_LT(stats::ks_statistic(batched, reference),
            stats::ks_threshold(batched.size(), reference.size(), 0.001));
}

}  // namespace
}  // namespace kusd
