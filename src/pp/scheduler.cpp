#include "pp/scheduler.hpp"

#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::pp {

namespace {
// Tabulate delta when the table stays under ~4 MiB.
constexpr int kMaxTabulatedStates = 700;
}  // namespace

CountScheduler::CountScheduler(const PairProtocol& protocol,
                               std::span<const std::uint64_t> initial_counts,
                               rng::Rng rng)
    : protocol_(protocol),
      urn_(initial_counts),
      rng_(rng),
      num_states_(protocol.num_states()) {
  KUSD_CHECK_MSG(static_cast<int>(initial_counts.size()) == num_states_,
                 "initial counts must cover every protocol state");
  KUSD_CHECK_MSG(urn_.total() > 0, "empty population");
  if (num_states_ <= kMaxTabulatedStates) {
    table_.resize(static_cast<std::size_t>(num_states_) *
                  static_cast<std::size_t>(num_states_));
    for (int r = 0; r < num_states_; ++r) {
      for (int i = 0; i < num_states_; ++i) {
        table_[static_cast<std::size_t>(r) *
                   static_cast<std::size_t>(num_states_) +
               static_cast<std::size_t>(i)] = protocol.apply(r, i);
      }
    }
  }
}

void CountScheduler::step() {
  const auto responder = static_cast<int>(urn_.sample(rng_));
  const auto initiator = static_cast<int>(urn_.sample(rng_));
  PairTransition next{};
  if (!table_.empty()) {
    next = table_[static_cast<std::size_t>(responder) *
                      static_cast<std::size_t>(num_states_) +
                  static_cast<std::size_t>(initiator)];
  } else {
    next = protocol_.apply(responder, initiator);
  }
  ++steps_;
  if (next.responder == responder && next.initiator == initiator) return;
  // Note: with counts we cannot distinguish the self-interaction corner case
  // (same agent drawn twice). For responder-only protocols such as the USD
  // this is irrelevant: delta(q, q) leaves the responder unchanged, so a
  // self-pair is always unproductive, exactly as in the agent-level model.
  urn_.move(static_cast<std::size_t>(responder),
            static_cast<std::size_t>(next.responder));
  urn_.move(static_cast<std::size_t>(initiator),
            static_cast<std::size_t>(next.initiator));
}

std::uint64_t CountScheduler::run_until(
    const std::function<bool(std::span<const std::uint64_t>)>& stop,
    std::uint64_t max_steps) {
  std::uint64_t executed = 0;
  while (executed < max_steps && !stop(urn_.counts())) {
    step();
    ++executed;
  }
  return executed;
}

AgentScheduler::AgentScheduler(const PairProtocol& protocol,
                               std::span<const std::uint64_t> initial_counts,
                               rng::Rng rng)
    : protocol_(protocol),
      counts_(initial_counts.begin(), initial_counts.end()),
      rng_(rng) {
  KUSD_CHECK(static_cast<int>(initial_counts.size()) ==
             protocol.num_states());
  std::uint64_t n = 0;
  for (auto c : initial_counts) n += c;
  KUSD_CHECK_MSG(n > 0, "empty population");
  agents_.reserve(n);
  for (std::size_t s = 0; s < initial_counts.size(); ++s) {
    agents_.insert(agents_.end(), initial_counts[s], static_cast<int>(s));
  }
}

void AgentScheduler::step() {
  const auto n = static_cast<std::uint64_t>(agents_.size());
  const auto responder = static_cast<std::size_t>(rng_.bounded(n));
  const auto initiator = static_cast<std::size_t>(rng_.bounded(n));
  const int rs = agents_[responder];
  const int is = agents_[initiator];
  ++steps_;
  if (responder == initiator) return;  // self-interaction: no state change
  const PairTransition next = protocol_.apply(rs, is);
  if (next.responder != rs) {
    agents_[responder] = next.responder;
    --counts_[static_cast<std::size_t>(rs)];
    ++counts_[static_cast<std::size_t>(next.responder)];
  }
  if (next.initiator != is) {
    agents_[initiator] = next.initiator;
    --counts_[static_cast<std::size_t>(is)];
    ++counts_[static_cast<std::size_t>(next.initiator)];
  }
}

std::uint64_t AgentScheduler::run_until(
    const std::function<bool(std::span<const std::uint64_t>)>& stop,
    std::uint64_t max_steps) {
  std::uint64_t executed = 0;
  while (executed < max_steps && !stop(counts_)) {
    step();
    ++executed;
  }
  return executed;
}

}  // namespace kusd::pp
