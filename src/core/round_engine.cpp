#include "core/round_engine.hpp"

#include <algorithm>
#include <numeric>

#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::core {

RoundEngine::RoundEngine(int k, int classes) : k_(k), classes_(classes) {
  KUSD_CHECK_MSG(k >= 1, "round engine needs at least one opinion");
  KUSD_CHECK_MSG(classes >= 1, "round engine needs at least one class");
  weights_.resize(2 * static_cast<std::size_t>(k) *
                      static_cast<std::size_t>(classes) +
                  1);
  draws_.resize(weights_.size());
  weighted_counts_.resize(static_cast<std::size_t>(k));
}

pp::Count RoundEngine::decided_step(std::span<const pp::Count> opinions,
                                    pp::Count undecided,
                                    bool keep_on_undecided,
                                    std::span<pp::Count> next,
                                    rng::Rng& rng) {
  const std::size_t k = opinions.size();
  KUSD_DCHECK(k == static_cast<std::size_t>(k_) && next.size() == k);
  KUSD_DCHECK(next.data() != opinions.data());
  // An agent keeps its opinion iff its partner is favourable (same
  // opinion, or undecided when that keeps). Partners are independent
  // across agents, so opinion i keeps Binomial(x_i, favourable_i / n)
  // agents, independently of the other opinions.
  pp::Count n = undecided;
  for (const pp::Count x : opinions) n += x;
  const pp::Count kept_on_undecided = keep_on_undecided ? undecided : 0;
  pp::Count became_undecided = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (opinions[i] == 0) continue;
    const double favourable =
        static_cast<double>(opinions[i] + kept_on_undecided);
    const pp::Count stay =
        rng.binomial(opinions[i], favourable / static_cast<double>(n));
    next[i] += stay;
    became_undecided += opinions[i] - stay;
  }
  return became_undecided;
}

pp::Count RoundEngine::adoption_step(std::span<const pp::Count> partners,
                                     pp::Count partner_undecided,
                                     pp::Count undecided,
                                     std::span<pp::Count> next,
                                     rng::Rng& rng) {
  const std::size_t k = partners.size();
  KUSD_DCHECK(k == static_cast<std::size_t>(k_) && next.size() == k);
  if (undecided == 0) return 0;
  // Copy the weights before touching `next` so partners may alias next.
  // A zero partner-undecided slot is omitted so the last real opinion
  // keeps the exact multinomial remainder.
  for (std::size_t j = 0; j < k; ++j) {
    weights_[j] = static_cast<double>(partners[j]);
  }
  const bool with_undecided = partner_undecided > 0;
  if (with_undecided) weights_[k] = static_cast<double>(partner_undecided);
  const std::size_t families = with_undecided ? k + 1 : k;
  const std::span<pp::Count> sampled(draws_.data(), families);
  rng.multinomial_into(
      undecided, std::span<const double>(weights_.data(), families), sampled);
  for (std::size_t j = 0; j < k; ++j) next[j] += sampled[j];
  return with_undecided ? sampled[k] : 0;
}

WeightedTotals weighted_totals(std::span<const pp::Count> opinions,
                               std::span<const pp::Count> undecided,
                               std::span<const double> weights,
                               std::span<double> per_opinion) {
  const std::size_t classes = undecided.size();
  const std::size_t k = per_opinion.size();
  KUSD_DCHECK(weights.size() == classes && opinions.size() == classes * k);
  WeightedTotals totals{.per_opinion = per_opinion};
  // One pass: class 0 initializes X (the bits of adding to 0.0), and W_d
  // sums exact class counts, so no rounded sum is chained over k.
  for (std::size_t c = 0; c < classes; ++c) {
    const double wc = weights[c];
    totals.undecided += wc * static_cast<double>(undecided[c]);
    pp::Count decided_c = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const pp::Count x = opinions[c * k + j];
      const double y = wc * static_cast<double>(x);
      per_opinion[j] = c == 0 ? y : per_opinion[j] + y;
      decided_c += x;
    }
    totals.decided += wc * static_cast<double>(decided_c);
  }
  return totals;
}

bool RoundEngine::try_async_class_chunk(std::span<pp::Count> opinions,
                                        std::span<pp::Count> undecided,
                                        std::span<const double> weights,
                                        std::uint64_t m, rng::Rng& rng) {
  return try_async_class_chunk(opinions, undecided, weights,
                               weigh(opinions, undecided, weights), m, rng);
}

WeightedTotals RoundEngine::weigh(std::span<const pp::Count> opinions,
                                  std::span<const pp::Count> undecided,
                                  std::span<const double> weights) {
  return weighted_totals(opinions, undecided, weights, weighted_counts_);
}

bool RoundEngine::try_async_class_chunk(std::span<pp::Count> opinions,
                                        std::span<pp::Count> undecided,
                                        std::span<const double> weights,
                                        const WeightedTotals& totals,
                                        std::uint64_t m, rng::Rng& rng) {
  const std::size_t k = static_cast<std::size_t>(k_);
  const std::size_t classes = static_cast<std::size_t>(classes_);
  KUSD_DCHECK(opinions.size() == k * classes);
  KUSD_DCHECK(undecided.size() == classes && weights.size() == classes);
  KUSD_DCHECK(totals.per_opinion.size() == k);

  // Endpoints are independently weight-proportional, so event weights
  // live in units of W^2 * probability, W = U + W_d the total weight.
  // ChunkController::propose_classes bounds the chunk from these rates.
  const std::span<const double> totals_j = totals.per_opinion;
  const double total_weight = totals.undecided + totals.decided;
  if (total_weight <= 0.0) return false;  // no interacting vertices at all

  // Event families: adopt(c, j) at [c*k + j], flip(c, j) at
  // [classes*k + c*k + j], no-op last. adopt(c, j): responder
  // (c, undecided) meets an initiator of opinion j; flip(c, j): responder
  // (c, j) meets a differently-decided initiator.
  double* const adopt = weights_.data();
  double* const flip = adopt + classes * k;
  double productive = 0.0;
  for (std::size_t c = 0; c < classes; ++c) {
    const double wu = weights[c] * static_cast<double>(undecided[c]);
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t i = c * k + j;
      adopt[i] = wu * totals_j[j];
      flip[i] = weights[c] * static_cast<double>(opinions[i]) *
                (totals.decided - totals_j[j]);
      productive += adopt[i] + flip[i];
    }
  }
  const std::size_t families = 2 * classes * k + 1;
  weights_[families - 1] =
      std::max(0.0, total_weight * total_weight - productive);  // no-op
  const std::span<pp::Count> events(draws_.data(), families);
  rng.multinomial_into(
      m, std::span<const double>(weights_.data(), families), events);
  const pp::Count* const adopted = events.data();
  const pp::Count* const flipped = adopted + classes * k;

  // Validate before committing: a frozen-rate draw can overshoot a count.
  // The exact chain also keeps decided >= 1 (a flip needs a differently-
  // decided initiator), so a draw into the absorbing all-undecided state
  // is rejected too.
  std::uint64_t decided_after = 0;
  for (std::size_t c = 0; c < classes; ++c) {
    std::uint64_t adopted_c = 0, flipped_c = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t i = c * k + j;
      if (opinions[i] + adopted[i] < flipped[i]) return false;
      adopted_c += adopted[i];
      flipped_c += flipped[i];
      decided_after += opinions[i] + adopted[i] - flipped[i];
    }
    if (undecided[c] + flipped_c < adopted_c) return false;
  }
  if (decided_after == 0) return false;
  // Commit. A class's undecided delta is one wrapping sum of flips minus
  // adoptions, exact because the validated result is in range.
  for (std::size_t c = 0; c < classes; ++c) {
    std::uint64_t net_flipped = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t i = c * k + j;
      opinions[i] += adopted[i];
      opinions[i] -= flipped[i];
      net_flipped += flipped[i] - adopted[i];
    }
    undecided[c] += net_flipped;
  }
  return true;
}

bool RoundEngine::try_async_chunk(std::span<pp::Count> opinions,
                                  pp::Count& undecided,
                                  [[maybe_unused]] pp::Count n,
                                  std::uint64_t m, rng::Rng& rng) {
  KUSD_DCHECK(n == std::accumulate(opinions.begin(), opinions.end(),
                                   undecided));
  return try_async_class_chunk(opinions, std::span(&undecided, 1),
                               kUnitWeight, m, rng);
}

}  // namespace kusd::core
