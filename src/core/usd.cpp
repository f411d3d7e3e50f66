#include "core/usd.hpp"

#include "core/stepping.hpp"
#include "pp/configuration.hpp"
#include "pp/protocol.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::core {

UsdProtocol::UsdProtocol(int k) : k_(k) {
  KUSD_CHECK_MSG(k >= 1, "need at least one opinion");
}

pp::PairTransition UsdProtocol::apply(int responder, int initiator) const {
  KUSD_DCHECK(responder >= 0 && responder <= k_);
  KUSD_DCHECK(initiator >= 0 && initiator <= k_);
  const int undecided = k_;
  if (responder != undecided && initiator != undecided &&
      responder != initiator) {
    return {undecided, initiator};  // (q, q') -> (bot, q')
  }
  if (responder == undecided && initiator != undecided) {
    return {initiator, initiator};  // (bot, q') -> (q', q')
  }
  return {responder, initiator};  // unproductive
}

namespace {
std::uint64_t square(pp::Count c) {
  return static_cast<std::uint64_t>(c) * static_cast<std::uint64_t>(c);
}
}  // namespace

UsdSimulator::UsdSimulator(const pp::Configuration& initial, rng::Rng rng,
                           UsdOptions options)
    : opinions_(initial.opinions(), options.engine),
      undecided_(initial.undecided()),
      n_(initial.n()),
      rng_(rng),
      mode_(options.mode) {
  KUSD_CHECK_MSG(n_ < (std::uint64_t{1} << 32),
                 "population must fit in 32 bits (n^2 must fit in 64)");
  KUSD_CHECK_MSG(initial.decided() >= 1,
                 "an all-undecided population never converges");
  sum_squares_ = 0;
  for (pp::Count c : initial.opinions()) sum_squares_ += square(c);
  for (int i = 0; i < initial.k(); ++i) {
    if (initial.opinion(i) == n_) winner_ = i;
  }
}

pp::Configuration UsdSimulator::configuration() const {
  return pp::Configuration(
      std::vector<pp::Count>(opinions_.counts().begin(),
                             opinions_.counts().end()),
      undecided_);
}

void UsdSimulator::adopt(int opinion) {
  const auto idx = static_cast<std::size_t>(opinion);
  sum_squares_ += 2 * opinions_.count(idx) + 1;
  opinions_.add(idx, +1);
  --undecided_;
  if (opinions_.count(idx) == n_) winner_ = opinion;
}

void UsdSimulator::flip(int opinion) {
  const auto idx = static_cast<std::size_t>(opinion);
  sum_squares_ -= 2 * opinions_.count(idx) - 1;
  opinions_.add(idx, -1);
  ++undecided_;
}

void UsdSimulator::step() {
  KUSD_DCHECK(!winner_.has_value());
  if (mode_ == StepMode::kEveryInteraction) {
    step_plain();
  } else {
    step_skip();
  }
}

void UsdSimulator::step_plain() {
  // Sample responder and initiator as uniform agents (with replacement):
  // position < undecided_ means the undecided state, otherwise the decided
  // position maps to an opinion through the urn.
  const std::uint64_t r = rng_.bounded(n_);
  const std::uint64_t i = rng_.bounded(n_);
  ++interactions_;
  const bool responder_undecided = r < undecided_;
  const bool initiator_undecided = i < undecided_;
  if (initiator_undecided) return;  // initiator undecided: never productive
  const int initiator_opinion =
      static_cast<int>(opinions_.find(i - undecided_));
  if (responder_undecided) {
    adopt(initiator_opinion);
    return;
  }
  const int responder_opinion =
      static_cast<int>(opinions_.find(r - undecided_));
  if (responder_opinion != initiator_opinion) flip(responder_opinion);
}

void UsdSimulator::step_skip() {
  const std::uint64_t decided = n_ - undecided_;
  // Weights of the two productive event families, in units of n^2 * prob:
  //   adopt: undecided responder, decided initiator  -> u * (n - u)
  //   flip:  decided responder, differently-decided initiator
  //          -> (n - u)^2 - r2   (Observation 6)
  const std::uint64_t w_adopt = undecided_ * decided;
  const std::uint64_t w_flip = decided * decided - sum_squares_;
  const std::uint64_t w = w_adopt + w_flip;
  KUSD_DCHECK(w > 0);  // only zero at consensus or all-undecided
  const double q = static_cast<double>(w) /
                   (static_cast<double>(n_) * static_cast<double>(n_));
  // Skip the (geometric) run of unproductive interactions, then realize one
  // productive interaction from the conditional distribution.
  interactions_ += rng_.geometric_failures(q) + 1;
  if (rng_.bounded(w) < w_adopt) {
    adopt(sample_opinion());
  } else {
    // (responder, initiator) ~ x_j * x_l conditioned on j != l: rejection
    // on the joint sample keeps the marginals exact.
    int j, l;
    do {
      j = sample_opinion();
      l = sample_opinion();
    } while (j == l);
    flip(j);
  }
}

bool UsdSimulator::run_to_consensus(std::uint64_t max_interactions) {
  return detail::run_sim_to_consensus(*this, max_interactions);
}

bool UsdSimulator::run_observed(std::uint64_t max_interactions,
                                std::uint64_t interval,
                                const Observer& observer) {
  return detail::run_sim_observed(*this, max_interactions, interval,
                                  observer);
}

}  // namespace kusd::core
