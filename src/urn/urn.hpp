// Urn: category counts with weighted sampling.
//
// The count-based simulators never look at individual agents; the
// configuration is a vector of counts per state, and picking a uniformly
// random agent is sampling a category proportionally to its count. The urn
// keeps one count array and its total; find() maps a position r to its
// category in one of two ways, chosen at construction:
//
//  * linear  — a branchless prefix count over the array, O(k) per sample
//    but free of mispredicted exits; the default up to kLinearThreshold.
//  * Fenwick — an O(log k) index (urn/fenwick.hpp) kept beside the array
//    and updated with it; the default above kLinearThreshold.
//
// Both return the same category for every r, so the choice never changes
// a draw, only its cost.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rng/rng.hpp"
#include "urn/fenwick.hpp"
#include "util/check.hpp"

namespace kusd::urn {

/// Engine selection for Urn.
enum class UrnEngine {
  kAuto,     ///< linear up to kLinearThreshold categories, Fenwick above
  kLinear,   ///< always the linear prefix count
  kFenwick,  ///< always the Fenwick index
};

/// Default engine crossover (categories): linear up to and including it.
/// Measured at commit 8aa1da0 by its Google Benchmark main, since retired
/// (`bench_throughput --benchmark_filter=BM_UrnEngine`: every-interaction
/// steps at n=1e5, Release+IPO, gcc 12, 4-vCPU Xeon; median of 5), ns per
/// interaction, linear / Fenwick:
///   k=16 27.6 / 37.5, k=32 34.3 / 61.5, k=64 65.5 / 72.4,
///   k=128 107 / 79.6, k=256 147 / 88.9.
/// Linear still wins at 64 and loses at 128.
inline constexpr std::size_t kLinearThreshold = 64;

class Urn {
 public:
  explicit Urn(std::span<const std::uint64_t> counts,
               UrnEngine engine = UrnEngine::kAuto)
      : counts_(counts.begin(), counts.end()) {
    for (const std::uint64_t c : counts_) total_ += c;
    if (engine == UrnEngine::kFenwick ||
        (engine == UrnEngine::kAuto && counts_.size() > kLinearThreshold)) {
      tree_.assign(counts_);
      fenwick_ = true;
    }
  }

  [[nodiscard]] std::size_t size() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t count(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] std::span<const std::uint64_t> counts() const {
    return counts_;
  }
  [[nodiscard]] bool uses_fenwick() const { return fenwick_; }

  /// Add `delta` to category i; the count must stay non-negative.
  void add(std::size_t i, std::int64_t delta) {
    KUSD_DCHECK(delta >= 0 ||
                counts_[i] >= static_cast<std::uint64_t>(-delta));
    counts_[i] += static_cast<std::uint64_t>(delta);
    total_ += static_cast<std::uint64_t>(delta);
    if (fenwick_) tree_.add(i, delta);
  }

  /// Move one unit from category `from` to category `to`.
  void move(std::size_t from, std::size_t to) {
    if (from == to) return;
    add(from, -1);
    add(to, +1);
  }

  /// Sample a category proportionally to its count.
  [[nodiscard]] std::size_t sample(rng::Rng& rng) const {
    KUSD_DCHECK(total_ > 0);
    return find(rng.bounded(total_));
  }

  /// Category owning position r, for r in [0, total()): the smallest i
  /// whose prefix sum counts[0] + ... + counts[i] exceeds r.
  [[nodiscard]] std::size_t find(std::uint64_t r) const {
    KUSD_DCHECK(r < total_);
    if (fenwick_) return tree_.find(r);
    // Prefix sums are non-decreasing, so the number of them (over the
    // first k-1 categories) that are <= r is exactly that smallest i,
    // zero-count categories included; no data-dependent exit to mispredict.
    std::size_t idx = 0;
    std::uint64_t prefix = 0;
    for (std::size_t i = 0; i + 1 < counts_.size(); ++i) {
      prefix += counts_[i];
      idx += static_cast<std::size_t>(prefix <= r);
    }
    return idx;
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  Fenwick tree_;  // engaged (and kept in step) only when fenwick_
  bool fenwick_ = false;
};

}  // namespace kusd::urn
