#include "pp/graph.hpp"

#include <algorithm>
#include <queue>

#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::pp {

InteractionGraph::InteractionGraph(
    std::uint32_t n,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges)
    : n_(n), edges_(std::move(edges)) {
  KUSD_CHECK_MSG(n >= 2, "a graph needs at least two vertices");
  KUSD_CHECK_MSG(!edges_.empty(), "a graph needs at least one edge");
}

InteractionGraph::InteractionGraph(std::uint32_t n) : n_(n), complete_(true) {
  KUSD_CHECK_MSG(n >= 2, "a graph needs at least two vertices");
}

InteractionGraph InteractionGraph::complete(std::uint32_t n) {
  return InteractionGraph(n);
}

std::pair<std::uint32_t, std::uint32_t> InteractionGraph::edge(
    std::size_t i) const {
  if (!complete_) return edges_[i];
  // Linear index over the upper triangle: row u covers indices
  // [u*n - u*(u+1)/2, ...) of length n - 1 - u.
  std::uint32_t u = 0;
  std::uint64_t rem = i;
  while (rem >= static_cast<std::uint64_t>(n_ - 1 - u)) {
    rem -= n_ - 1 - u;
    ++u;
  }
  return {u, static_cast<std::uint32_t>(u + 1 + rem)};
}

InteractionGraph InteractionGraph::cycle(std::uint32_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(n);
  for (std::uint32_t u = 0; u < n; ++u) edges.emplace_back(u, (u + 1) % n);
  return InteractionGraph(n, std::move(edges));
}

InteractionGraph InteractionGraph::random_regular(std::uint32_t n, int d,
                                                  rng::Rng& rng) {
  KUSD_CHECK_MSG(d >= 1 && static_cast<std::uint32_t>(d) < n,
                 "degree out of range");
  KUSD_CHECK_MSG((static_cast<std::uint64_t>(n) * d) % 2 == 0,
                 "n * d must be even");
  // Configuration model: up to kPairings shuffles of the stubs, keeping
  // the first simple pairing; if none is simple, the last one keeps its
  // edges without self-loops and multi-edges (degree error is O(d^2/n)).
  // A rejected pairing stops at its first self-loop; repeated edges are
  // found by sort + unique, so the kept edges come in (u, v) order.
  constexpr int kPairings = 50;
  std::vector<std::uint32_t> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * d);
  for (std::uint32_t v = 0; v < n; ++v) {
    for (int i = 0; i < d; ++i) stubs.push_back(v);
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(stubs.size() / 2);
  for (int attempt = 1;; ++attempt) {
    rng.shuffle(std::span<std::uint32_t>(stubs));
    const bool last = attempt == kPairings;
    bool simple = true;
    edges.clear();
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      const std::uint32_t u = stubs[i], v = stubs[i + 1];
      if (u == v) {
        simple = false;
        if (!last) break;
        continue;
      }
      edges.emplace_back(std::min(u, v), std::max(u, v));
    }
    if (simple || last) {
      std::sort(edges.begin(), edges.end());
      const auto unique_end = std::unique(edges.begin(), edges.end());
      simple = simple && unique_end == edges.end();
      edges.erase(unique_end, edges.end());
    }
    if (simple || last) break;
  }
  return InteractionGraph(n, std::move(edges));
}

InteractionGraph InteractionGraph::erdos_renyi(std::uint32_t n, double p,
                                               rng::Rng& rng) {
  KUSD_CHECK_MSG(p > 0.0 && p <= 1.0, "edge probability out of range");
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  // Geometric skipping over the (n choose 2) potential edges: O(#edges).
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  std::uint64_t idx = p < 1.0 ? rng.geometric_failures(p) : 0;
  // Row u covers indices [row_start, row_start + n-1-u); idx only grows,
  // so the row search resumes where the last edge left it.
  std::uint32_t u = 0;
  std::uint64_t row_start = 0;
  while (idx < total) {
    while (idx - row_start >= static_cast<std::uint64_t>(n - 1 - u)) {
      row_start += n - 1 - u;
      ++u;
    }
    const auto v = static_cast<std::uint32_t>(u + 1 + (idx - row_start));
    edges.emplace_back(u, v);
    const std::uint64_t gap = p < 1.0 ? rng.geometric_failures(p) : 0;
    // Saturate: a gap near UINT64_MAX (tiny p) must end the scan, not wrap
    // idx back into range.
    idx = gap >= total - idx ? total : idx + 1 + gap;
  }
  KUSD_CHECK_MSG(!edges.empty(), "G(n,p) came out empty; increase p");
  return InteractionGraph(n, std::move(edges));
}

std::pair<std::uint32_t, std::uint32_t> InteractionGraph::sample_pair(
    rng::Rng& rng) const {
  if (complete_) {
    // Uniform ordered pair of distinct vertices — identical in law to
    // edge-then-orientation, without touching an edge list.
    const auto u = static_cast<std::uint32_t>(rng.bounded(n_));
    auto v = static_cast<std::uint32_t>(rng.bounded(n_ - 1));
    if (v >= u) ++v;
    return {u, v};
  }
  const auto& e = edges_[static_cast<std::size_t>(rng.bounded(
      static_cast<std::uint64_t>(edges_.size())))];
  return rng.bernoulli(0.5) ? std::make_pair(e.first, e.second)
                            : std::make_pair(e.second, e.first);
}

bool InteractionGraph::is_connected() const {
  if (complete_) return true;
  std::vector<std::vector<std::uint32_t>> adj(n_);
  for (const auto& [u, v] : edges_) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::vector<bool> seen(n_, false);
  std::queue<std::uint32_t> frontier;
  frontier.push(0);
  seen[0] = true;
  std::uint32_t visited = 1;
  while (!frontier.empty()) {
    const std::uint32_t u = frontier.front();
    frontier.pop();
    for (std::uint32_t v : adj[u]) {
      if (!seen[v]) {
        seen[v] = true;
        ++visited;
        frontier.push(v);
      }
    }
  }
  return visited == n_;
}

}  // namespace kusd::pp
