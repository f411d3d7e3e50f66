#include "core/round_engine.hpp"

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

bool RoundEngine::try_async_chunk(std::span<pp::Count> opinions,
                                  pp::Count& undecided, pp::Count n,
                                  std::uint64_t m, rng::Rng& rng) {
  const std::size_t k = opinions.size();
  KUSD_DCHECK(k == static_cast<std::size_t>(k_));
  const pp::Count decided = n - undecided;
  // Event weights in units of n^2 * probability, frozen at the current
  // configuration: adoption of j, flip of j, and the unproductive rest.
  const double du = static_cast<double>(undecided);
  double productive = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    const double xj = static_cast<double>(opinions[j]);
    weights_[j] = du * xj;                                       // adopt j
    weights_[k + j] = xj * static_cast<double>(decided - opinions[j]);
    productive += weights_[j] + weights_[k + j];
  }
  const double total =
      static_cast<double>(n) * static_cast<double>(n);
  weights_[2 * k] = std::max(0.0, total - productive);           // no-op
  const std::span<pp::Count> events(draws_.data(), 2 * k + 1);
  rng.multinomial_into(
      m, std::span<const double>(weights_.data(), 2 * k + 1), events);

  // Validate before committing: a frozen-rate draw can overshoot a count.
  std::uint64_t adopted = 0, flipped = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (opinions[j] + events[j] < events[k + j]) return false;
    adopted += events[j];
    flipped += events[k + j];
  }
  if (undecided + flipped < adopted) return false;
  // The exact chain preserves decided >= 1 (a flip needs two differently-
  // decided agents); all-undecided would be absorbing here, so a draw that
  // flips every decided agent must also be rejected.
  if (undecided + flipped - adopted == static_cast<std::uint64_t>(n)) {
    return false;
  }
  for (std::size_t j = 0; j < k; ++j) {
    opinions[j] += events[j];
    opinions[j] -= events[k + j];
  }
  undecided += flipped;
  undecided -= adopted;
  return true;
}

bool RoundEngine::try_async_class_chunk(std::span<pp::Count> opinions,
                                        std::span<pp::Count> undecided,
                                        std::span<const double> weights,
                                        std::uint64_t m, rng::Rng& rng) {
  const std::size_t k = static_cast<std::size_t>(k_);
  const std::size_t classes = static_cast<std::size_t>(classes_);
  KUSD_DCHECK(opinions.size() == k * classes);
  KUSD_DCHECK(undecided.size() == classes && weights.size() == classes);

  // Degree-weighted totals: X_j^w = sum_c w_c x_{c,j}, U^w = sum_c w_c u_c,
  // W = U^w + sum_j X_j^w. Endpoints are independently weight-proportional,
  // so event weights live in units of W^2 * probability. NOTE: any change
  // to these rates must be mirrored in ChunkController::propose_classes,
  // whose tau bound is derived from exactly this model (as propose() is
  // from try_async_chunk's).
  double weighted_undecided = 0.0;
  double total_weight = 0.0;
  for (std::size_t j = 0; j < k; ++j) weighted_counts_[j] = 0.0;
  for (std::size_t c = 0; c < classes; ++c) {
    weighted_undecided += weights[c] * static_cast<double>(undecided[c]);
    for (std::size_t j = 0; j < k; ++j) {
      weighted_counts_[j] +=
          weights[c] * static_cast<double>(opinions[c * k + j]);
    }
  }
  double weighted_decided = 0.0;
  for (std::size_t j = 0; j < k; ++j) weighted_decided += weighted_counts_[j];
  total_weight = weighted_undecided + weighted_decided;
  if (total_weight <= 0.0) return false;  // no interacting vertices at all

  // Event families, mirroring try_async_chunk's layout per class block:
  // adopt(c, j) at [c*k + j], flip(c, j) at [classes*k + c*k + j], no-op
  // last. adopt(c, j): responder (c, undecided) meets initiator of opinion
  // j; flip(c, j): responder (c, j) meets a differently-decided initiator.
  const std::size_t adopt0 = 0;
  const std::size_t flip0 = classes * k;
  double productive = 0.0;
  for (std::size_t c = 0; c < classes; ++c) {
    const double wc = weights[c];
    const double uc = static_cast<double>(undecided[c]);
    for (std::size_t j = 0; j < k; ++j) {
      const double xcj = static_cast<double>(opinions[c * k + j]);
      weights_[adopt0 + c * k + j] = wc * uc * weighted_counts_[j];
      weights_[flip0 + c * k + j] =
          wc * xcj * (weighted_decided - weighted_counts_[j]);
      productive +=
          weights_[adopt0 + c * k + j] + weights_[flip0 + c * k + j];
    }
  }
  weights_[2 * classes * k] =
      std::max(0.0, total_weight * total_weight - productive);  // no-op
  const std::span<pp::Count> events(draws_.data(), 2 * classes * k + 1);
  rng.multinomial_into(
      m, std::span<const double>(weights_.data(), 2 * classes * k + 1),
      events);

  // Validate before committing, exactly as in the unstructured chunk: a
  // frozen-rate draw can overshoot a per-class count.
  std::uint64_t total_adopted = 0, total_flipped = 0;
  std::uint64_t total_decided = 0;
  for (std::size_t c = 0; c < classes; ++c) {
    std::uint64_t adopted_c = 0, flipped_c = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if (opinions[c * k + j] + events[adopt0 + c * k + j] <
          events[flip0 + c * k + j]) {
        return false;
      }
      adopted_c += events[adopt0 + c * k + j];
      flipped_c += events[flip0 + c * k + j];
      total_decided += opinions[c * k + j];
    }
    if (undecided[c] + flipped_c < adopted_c) return false;
    total_adopted += adopted_c;
    total_flipped += flipped_c;
  }
  // The exact chain preserves decided >= 1 globally (a flip needs a
  // differently-decided initiator); reject a draw that would leave the
  // absorbing all-undecided state.
  if (total_decided + total_adopted == total_flipped) return false;
  for (std::size_t c = 0; c < classes; ++c) {
    std::uint64_t adopted_c = 0, flipped_c = 0;
    for (std::size_t j = 0; j < k; ++j) {
      opinions[c * k + j] += events[adopt0 + c * k + j];
      opinions[c * k + j] -= events[flip0 + c * k + j];
      adopted_c += events[adopt0 + c * k + j];
      flipped_c += events[flip0 + c * k + j];
    }
    undecided[c] += flipped_c;
    undecided[c] -= adopted_c;
  }
  return true;
}

}  // namespace kusd::core
