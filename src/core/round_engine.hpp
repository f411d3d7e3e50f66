// Batched whole-round primitives for the USD Markov chains.
//
// SyncUsd, GossipUsd, BatchedUsdSimulator and sim::BatchedGraphEngine all
// advance the chain in aggregate, drawing counts instead of Θ(n)
// per-agent samples. This class centralizes that machinery:
//
//  * decided_step / adoption_step — the two synchronous half-rounds, exact
//    for the synchronized and gossip round models. decided_step draws one
//    binomial per non-empty opinion (the number that keeps it);
//    adoption_step one multinomial over the k opinions and the undecided
//    slot, at most k binomials. A gossip round is therefore at most 2k
//    draws; a sync super-round at most k plus k per re-adoption sub-round.
//  * try_async_class_chunk — the one chunked-Poissonization (tau-leaping)
//    step of the asynchronous chain: m interactions advanced with the
//    transition rates frozen at the current configuration. The population
//    is partitioned into weighted degree classes and interaction endpoints
//    are sampled with probability proportional to per-member class weight
//    (the annealed scheduler of sim::BatchedGraphEngine). The unstructured
//    chain of BatchedUsdSimulator is its one-class, unit-weight case, which
//    try_async_chunk spells out. Exact in the limit m -> 1 and a
//    documented approximation for m > 1 (see BatchedUsdSimulator).
//
// The engine owns only scratch buffers; all population state is the
// caller's. Methods are deterministic given the caller's Rng.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pp/configuration.hpp"
#include "rng/rng.hpp"

namespace kusd::core {

/// The class weights of the unstructured chain: one class of weight 1.
inline constexpr double kUnitWeight[] = {1.0};

/// Degree-weighted totals, the inputs of the tau-leap's frozen rates and
/// of its tau bound: X_j = sum_c w_c x_cj, U = sum_c w_c u_c and
/// W_d = sum_c w_c D_c (D_c: class c's decided count). At one class of
/// weight 1 each is the exact count, for counts up to 2^53.
struct WeightedTotals {
  std::span<const double> per_opinion;
  double undecided = 0.0;
  double decided = 0.0;
};

/// The totals of class-major `opinions`, per-class `undecided` and
/// `weights`, with X_j written to `per_opinion` (size k).
WeightedTotals weighted_totals(std::span<const pp::Count> opinions,
                               std::span<const pp::Count> undecided,
                               std::span<const double> weights,
                               std::span<double> per_opinion);

class RoundEngine {
 public:
  /// `k` is the number of decided opinions, `classes` the number of degree
  /// classes the population is partitioned into (1 = the unstructured
  /// chain; scratch is sized for 2 * k * classes + 1 async event families).
  explicit RoundEngine(int k, int classes = 1);

  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] int classes() const { return classes_; }

  /// One synchronous USD half-round over the decided agents: every agent of
  /// opinion i samples a partner from the distribution (opinions...,
  /// undecided) and keeps i iff the partner shares it (or, when
  /// `keep_on_undecided`, is undecided); otherwise it becomes undecided.
  /// Drawn as stay_i ~ Binomial(x_i, (x_i + [keep] u) / n), one
  /// rng.binomial per opinion with x_i > 0, in opinion order. Survivors
  /// are accumulated into `next` (size k); returns the number of agents
  /// that became undecided. `next` must not alias `opinions`.
  pp::Count decided_step(std::span<const pp::Count> opinions,
                         pp::Count undecided, bool keep_on_undecided,
                         std::span<pp::Count> next, rng::Rng& rng);

  /// One synchronous re-adoption half-round: `undecided` agents each sample
  /// a partner from the distribution (partners..., partner_undecided);
  /// samplers landing on opinion j adopt it (accumulated into `next[j]`).
  /// Returns how many agents remain undecided. `partners` may alias `next`
  /// (the weights are copied before `next` is written).
  pp::Count adoption_step(std::span<const pp::Count> partners,
                          pp::Count partner_undecided, pp::Count undecided,
                          std::span<pp::Count> next, rng::Rng& rng);

  /// Class-structured tau-leap: advance `m` interactions of the annealed
  /// degree-weighted chain in one multinomial draw with rates frozen at
  /// the current configuration. The population is partitioned into
  /// `classes()` classes; `opinions` holds the class-major decided counts
  /// (class c, opinion j at index c * k + j), `undecided` the per-class
  /// undecided counts, and `weights[c]` the per-member sampling weight
  /// (degree) of class c. Per interaction, responder and initiator are
  /// independently weight-proportional, and only the responder
  /// transitions: an undecided responder adopts the initiator's opinion, a
  /// decided one meeting a differently-decided initiator becomes
  /// undecided. Applies the aggregate deltas and returns true; returns
  /// false without modifying the state when the frozen-rate draw would
  /// drive a count negative or leave zero decided agents, a state the
  /// exact chain cannot reach (the caller retries with a smaller m;
  /// m == 1 always succeeds).
  bool try_async_class_chunk(std::span<pp::Count> opinions,
                             std::span<pp::Count> undecided,
                             std::span<const double> weights, std::uint64_t m,
                             rng::Rng& rng);
  /// The same with the configuration's totals (weigh()) precomputed.
  bool try_async_class_chunk(std::span<pp::Count> opinions,
                             std::span<pp::Count> undecided,
                             std::span<const double> weights,
                             const WeightedTotals& totals, std::uint64_t m,
                             rng::Rng& rng);

  /// weighted_totals into engine scratch, valid until the next weigh().
  WeightedTotals weigh(std::span<const pp::Count> opinions,
                       std::span<const pp::Count> undecided,
                       std::span<const double> weights);

  /// The unstructured chain, one class of weight 1: per interaction,
  /// opinion j gains an agent w.p. u*x_j / n^2 and loses one w.p.
  /// x_j*(d - x_j) / n^2, d = n - u. Needs an engine of one class.
  bool try_async_chunk(std::span<pp::Count> opinions, pp::Count& undecided,
                       pp::Count n, std::uint64_t m, rng::Rng& rng);

 private:
  int k_;
  int classes_;
  std::vector<double> weights_;  // scratch: up to 2*k*classes+1 event weights
  std::vector<pp::Count> draws_;  // scratch: the multinomial draw per weight
  std::vector<double> weighted_counts_;  // scratch: k degree-weighted counts
};

}  // namespace kusd::core
