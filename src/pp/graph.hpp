// Interaction graphs (model generalization).
//
// The paper analyzes the population protocol model on the complete
// interaction graph; the broader literature it cites (e.g. Schoenebeck &
// Yu [41] on Erdos-Renyi graphs, Cooper et al. on expanders) restricts the
// scheduler to edges of a communication graph. We ship the standard
// topologies, which core::GraphScheduler steps the USD on beyond the
// complete graph — the "future work" axis of the paper.
#pragma once

#include <cstdint>
#include <vector>

#include "rng/rng.hpp"

namespace kusd::pp {

/// Undirected interaction graph stored as an edge list (an interaction
/// picks a uniformly random edge, then a uniformly random orientation).
/// The complete graph is held implicitly — K_n never materializes its
/// Theta(n^2) edges, so complete-topology runs scale like the
/// unrestricted scheduler in memory.
class InteractionGraph {
 public:
  /// Complete graph K_n (equivalent to the unrestricted scheduler
  /// conditioned on responder != initiator). Implicit: O(1) storage.
  static InteractionGraph complete(std::uint32_t n);
  /// Cycle C_n.
  static InteractionGraph cycle(std::uint32_t n);
  /// Random d-regular-ish graph via the configuration model with simple
  /// collision retry (multi-edges and self-loops removed; the result is
  /// near-d-regular, connected w.h.p. for d >= 3).
  static InteractionGraph random_regular(std::uint32_t n, int d,
                                         rng::Rng& rng);
  /// Erdos-Renyi G(n, p); pass p >= c ln n / n for connectivity w.h.p.
  static InteractionGraph erdos_renyi(std::uint32_t n, double p,
                                      rng::Rng& rng);

  [[nodiscard]] std::uint32_t num_vertices() const { return n_; }
  /// True for the implicitly-stored K_n (no edge list to iterate).
  [[nodiscard]] bool is_complete() const { return complete_; }
  [[nodiscard]] std::size_t num_edges() const {
    return complete_ ? static_cast<std::size_t>(n_) * (n_ - 1) / 2
                     : edges_.size();
  }
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> edge(
      std::size_t i) const;

  /// Sample a uniformly random ordered pair (responder, initiator) along
  /// an edge.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> sample_pair(
      rng::Rng& rng) const;

  /// True iff every vertex is reachable from vertex 0 (BFS).
  [[nodiscard]] bool is_connected() const;

 private:
  InteractionGraph(std::uint32_t n,
                   std::vector<std::pair<std::uint32_t, std::uint32_t>> edges);
  /// Implicit K_n (no edge list).
  explicit InteractionGraph(std::uint32_t n);

  std::uint32_t n_;
  bool complete_ = false;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
};

}  // namespace kusd::pp
