#include "core/lockstep_usd.hpp"

#include <algorithm>

#include "pp/configuration.hpp"
#include "rng/binomial.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::core {

LockstepRoundEngine::LockstepRoundEngine(const pp::Configuration& initial,
                                         std::span<const std::uint64_t> seeds,
                                         ChunkOptions options)
    : k_(initial.k()), n_(initial.n()) {
  KUSD_CHECK_MSG(!seeds.empty(), "lockstep engine needs at least one trial");
  KUSD_CHECK_MSG(initial.decided() >= 1,
                 "an all-undecided population never converges");
  const std::size_t trial_count = seeds.size();
  const auto k = static_cast<std::size_t>(k_);
  counts_.reserve(trial_count * k);
  undecided_.reserve(trial_count);
  // The initial winner scan matches BatchedUsdSimulator's constructor: a
  // configuration already at consensus finishes with zero interactions.
  int initial_winner = -1;
  for (int i = 0; i < k_; ++i) {
    if (initial.opinion(i) == n_) initial_winner = i;
  }
  rngs_.reserve(trial_count);
  controllers_.reserve(trial_count);
  for (std::size_t t = 0; t < trial_count; ++t) {
    counts_.insert(counts_.end(), initial.opinions().begin(),
                   initial.opinions().end());
    undecided_.push_back(initial.undecided());
    rngs_.emplace_back(seeds[t]);
    controllers_.emplace_back(options, n_);
  }
  interactions_.assign(trial_count, 0);
  chunks_.assign(trial_count, 0);
  winner_.assign(trial_count, initial_winner);
}

std::size_t LockstepRoundEngine::unfinished() const {
  std::size_t open = 0;
  for (const int w : winner_) open += w < 0 ? 1 : 0;
  return open;
}

void LockstepRoundEngine::advance_all(std::uint64_t target) {
  const auto k = static_cast<std::size_t>(k_);
  const std::size_t fam = 2 * k + 1;
  const std::size_t trial_count = trials();

  active_.clear();
  for (std::size_t t = 0; t < trial_count; ++t) {
    if (winner_[t] < 0 && interactions_[t] < target) {
      active_.push_back(static_cast<std::uint32_t>(t));
    }
  }
  if (active_.empty()) return;
  pending_retry_.assign(trial_count, 0);
  m_.resize(trial_count);
  remaining_.resize(trial_count);
  remaining_weight_.resize(trial_count);
  weights_.resize(trial_count * fam);
  events_.resize(trial_count * fam);

  const double total_pairs =
      static_cast<double>(n_) * static_cast<double>(n_);
  while (!active_.empty()) {
    // 1. Chunk proposals. A trial whose last draw was rejected keeps its
    //    halved length instead (the scalar engine's halve-and-redraw loop
    //    calls propose once per committed chunk, not per attempt).
    for (const std::uint32_t t : active_) {
      if (pending_retry_[t] != 0) continue;
      m_[t] = std::min(controllers_[t].propose(counts(t), undecided_[t]),
                       target - interactions_[t]);
    }

    // 2. Frozen event weights, replicating RoundEngine::try_async_chunk's
    //    layout and arithmetic per trial: adopt j at [j], flip j at
    //    [k + j], no-op last. The remaining-weight accumulator mirrors
    //    Rng::multinomial_into's front-to-back sum so the conditional
    //    probabilities below are bit-identical to the scalar path.
    for (const std::uint32_t t : active_) {
      double* w = &weights_[t * fam];
      const pp::Count* x = &counts_[t * k];
      const pp::Count decided = n_ - undecided_[t];
      const double du = static_cast<double>(undecided_[t]);
      double productive = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        const double xj = static_cast<double>(x[j]);
        w[j] = du * xj;
        w[k + j] = xj * static_cast<double>(decided - x[j]);
        productive += w[j] + w[k + j];
      }
      w[2 * k] = std::max(0.0, total_pairs - productive);
      double rw = 0.0;
      for (std::size_t f = 0; f < fam; ++f) rw += w[f];
      remaining_weight_[t] = rw;
      remaining_[t] = m_[t];
      std::fill(&events_[t * fam], &events_[t * fam] + fam, 0);
    }

    // 3. The sequential-conditional multinomial, family-outer and
    //    trial-inner: each family's draws for every live trial go through
    //    one binomial_batch call. Per trial the family order (and thus its
    //    stream consumption) is exactly multinomial_into's; the
    //    interleaved draws of other trials touch other streams only.
    for (std::size_t f = 0; f + 1 < fam; ++f) {
      batch_rngs_.clear();
      batch_ns_.clear();
      batch_ps_.clear();
      batch_trials_.clear();
      for (const std::uint32_t t : active_) {
        if (remaining_[t] == 0 || remaining_weight_[t] <= 0.0) continue;
        batch_rngs_.push_back(&rngs_[t]);
        batch_ns_.push_back(remaining_[t]);
        batch_ps_.push_back(
            std::min(1.0, weights_[t * fam + f] / remaining_weight_[t]));
        batch_trials_.push_back(t);
      }
      batch_out_.resize(batch_trials_.size());
      rng::binomial_batch(std::span<rng::Rng* const>(batch_rngs_),
                          batch_ns_, batch_ps_, batch_out_);
      for (std::size_t i = 0; i < batch_trials_.size(); ++i) {
        const std::uint32_t t = batch_trials_[i];
        events_[t * fam + f] = batch_out_[i];
        remaining_[t] -= batch_out_[i];
        remaining_weight_[t] -= weights_[t * fam + f];
      }
    }
    for (const std::uint32_t t : active_) {
      events_[t * fam + 2 * k] += remaining_[t];
    }

    // 4. Validate and commit (or reject) each trial exactly as
    //    try_async_chunk does, then compact the active list in place:
    //    finished and target-reached trials are masked out.
    std::size_t write = 0;
    for (const std::uint32_t t : active_) {
      ++chunks_[t];
      const std::uint64_t* e = &events_[t * fam];
      pp::Count* x = &counts_[t * k];
      std::uint64_t adopted = 0;
      std::uint64_t flipped = 0;
      bool ok = true;
      for (std::size_t j = 0; j < k; ++j) {
        if (x[j] + e[j] < e[k + j]) {
          ok = false;
          break;
        }
        adopted += e[j];
        flipped += e[k + j];
      }
      if (ok && undecided_[t] + flipped < adopted) ok = false;
      // A draw flipping every decided agent would reach the absorbing
      // all-undecided state the exact chain cannot enter.
      if (ok && undecided_[t] + flipped - adopted ==
                    static_cast<std::uint64_t>(n_)) {
        ok = false;
      }
      if (!ok) {
        m_[t] = std::max<std::uint64_t>(1, m_[t] / 2);
        controllers_[t].on_reject();
        pending_retry_[t] = 1;
        active_[write++] = t;
        continue;
      }
      for (std::size_t j = 0; j < k; ++j) {
        x[j] += e[j];
        x[j] -= e[k + j];
      }
      undecided_[t] += flipped;
      undecided_[t] -= adopted;
      interactions_[t] += m_[t];
      pending_retry_[t] = 0;
      for (std::size_t j = 0; j < k; ++j) {
        if (x[j] == n_) winner_[t] = static_cast<int>(j);
      }
      if (winner_[t] < 0 && interactions_[t] < target) {
        active_[write++] = t;
      }
    }
    active_.resize(write);
  }
}

}  // namespace kusd::core
