#include "gossip/gossip_usd.hpp"

#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::gossip {

GossipUsd::GossipUsd(const pp::Configuration& initial, rng::Rng rng)
    : opinions_(initial.opinions().begin(), initial.opinions().end()),
      undecided_(initial.undecided()),
      n_(initial.n()),
      engine_(initial.k()),
      rng_(rng) {
  KUSD_CHECK_MSG(initial.decided() >= 1,
                 "an all-undecided population never converges");
  for (int i = 0; i < initial.k(); ++i) {
    if (initial.opinion(i) == n_) winner_ = i;
  }
}

void GossipUsd::round() {
  KUSD_DCHECK(!winner_.has_value());
  const std::size_t k = opinions_.size();
  next_.assign(k, 0);

  // Decided agents of opinion i: keep i iff the partner is undecided or of
  // the same opinion; otherwise become undecided. Undecided agents: adopt
  // the partner's opinion if decided. Both half-rounds sample partners from
  // the pre-round configuration.
  pp::Count next_undecided = engine_.decided_step(
      opinions_, undecided_, /*keep_on_undecided=*/true, next_, rng_);
  next_undecided +=
      engine_.adoption_step(opinions_, undecided_, undecided_, next_, rng_);

  opinions_.swap(next_);
  undecided_ = next_undecided;
  ++rounds_;
  for (std::size_t i = 0; i < k; ++i) {
    if (opinions_[i] == n_) winner_ = static_cast<int>(i);
  }
}

bool GossipUsd::run_to_consensus(std::uint64_t max_rounds) {
  while (!winner_.has_value() && rounds_ < max_rounds) round();
  return winner_.has_value();
}

}  // namespace kusd::gossip
