// The five-phase structure of the paper's analysis (table in Section 2.1),
// detected online from configuration snapshots.
//
//   Phase 1 ends at T1: u >= (n - xmax) / 2            (Lemma 1)
//   Phase 2 ends at T2: exactly one significant opinion (Lemma 8)
//   Phase 3 ends at T3: xmax >= 2 * x_i for all others  (Lemma 11)
//   Phase 4 ends at T4: xmax >= 2n/3                    (Lemma 15)
//   Phase 5 ends at T5: xmax = n (consensus)            (Lemma 16)
//
// The tracker is fed (t, opinions, undecided) snapshots and records the
// first snapshot time at which each end condition holds, in order (a later
// phase's end is only recorded after all earlier ones, matching the
// T1 <= T2 <= ... <= T5 structure of the analysis; the process may satisfy
// several conditions at the same snapshot, e.g. when starting with a large
// bias, in which case phases collapse).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/bias.hpp"
#include "pp/configuration.hpp"

namespace kusd::core {

struct PhaseTimes {
  std::optional<std::uint64_t> t1, t2, t3, t4, t5;

  [[nodiscard]] bool complete() const { return t5.has_value(); }

  /// Interactions spent inside phase `p` (1-based); nullopt until both
  /// boundaries are known. Phase 1 starts at t = 0.
  [[nodiscard]] std::optional<std::uint64_t> phase_length(int p) const;
};

class PhaseTracker {
 public:
  /// `alpha` is the significance constant of the paper (threshold
  /// alpha * sqrt(n ln n)).
  PhaseTracker(pp::Count n, double alpha = kSignificanceAlpha);

  /// Feed a snapshot. Snapshots must be fed with non-decreasing t.
  void observe(std::uint64_t t, std::span<const pp::Count> opinions,
               pp::Count undecided);

  [[nodiscard]] const PhaseTimes& times() const { return times_; }
  [[nodiscard]] bool complete() const { return times_.complete(); }

 private:
  pp::Count n_;
  double threshold_;  // alpha * sqrt(n ln n)
  PhaseTimes times_;
};

}  // namespace kusd::core
