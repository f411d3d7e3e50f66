#include "core/chunk_controller.hpp"

#include <algorithm>
#include <cmath>

#include "pp/configuration.hpp"
#include "util/check.hpp"

namespace kusd::core {

const char* to_string(ChunkPolicy policy) {
  switch (policy) {
    case ChunkPolicy::kFixed: return "fixed";
    case ChunkPolicy::kAdaptive: return "adaptive";
  }
  return "?";
}

std::optional<ChunkPolicy> parse_chunk_policy(const std::string& name) {
  if (name == "fixed") return ChunkPolicy::kFixed;
  if (name == "adaptive") return ChunkPolicy::kAdaptive;
  return std::nullopt;
}

ChunkController::ChunkController(const ChunkOptions& options, pp::Count n)
    : options_(options), n_(n) {
  KUSD_CHECK_MSG(options.chunk_fraction > 0.0 && options.chunk_fraction <= 1.0,
                 "chunk_fraction must be in (0, 1]");
  const double dn = static_cast<double>(n);
  fixed_chunk_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(options.chunk_fraction * dn)));
  max_chunk_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(kMaxChunkFraction * dn)));
  last_ = 1;
}

std::uint64_t ChunkController::propose(std::span<const pp::Count> opinions,
                                       pp::Count undecided) {
  return propose_classes(opinions, std::span(&undecided, 1), kUnitWeight);
}

std::uint64_t ChunkController::propose_classes(
    std::span<const pp::Count> opinions, std::span<const pp::Count> undecided,
    std::span<const double> weights) {
  if (options_.policy == ChunkPolicy::kFixed) return fixed_chunk_;
  KUSD_DCHECK(!undecided.empty() && opinions.size() % undecided.size() == 0);
  weighted_scratch_.resize(opinions.size() / undecided.size());
  return propose_classes(
      opinions, undecided, weights,
      weighted_totals(opinions, undecided, weights, weighted_scratch_));
}

std::uint64_t ChunkController::propose_classes(
    std::span<const pp::Count> opinions, std::span<const pp::Count> undecided,
    std::span<const double> weights, const WeightedTotals& totals) {
  if (options_.policy == ChunkPolicy::kFixed) return fixed_chunk_;
  const std::size_t classes = undecided.size();
  const std::size_t k = totals.per_opinion.size();
  KUSD_DCHECK(weights.size() == classes && opinions.size() == classes * k);

  // Per-interaction moments of every count: the kernel's frozen rates
  // over W^2 (WeightedTotals names the totals).
  //   opinion (c, j): gains w_c u_c X_j, loses w_c x_cj (W_d - X_j)
  //   undecided of c: gains w_c (D_c W_d - sum_j x_cj X_j), loses w_c u_c W_d
  // At one class of weight 1 these are u x_j, x_j (d - x_j), d^2 - S2 and
  // u d over n^2, bit for bit. The admissible chunk is the largest m
  // keeping both m*|mu| (drift) and m*sigma2 (fluctuation variance)
  // within the tolerance band of every count, in one pass per class.
  const std::span<const double> totals_j = totals.per_opinion;
  const double total_weight = totals.undecided + totals.decided;
  if (total_weight <= 0.0) return finalize_bound(1.0);
  const double inv_w2 = 1.0 / (total_weight * total_weight);

  double bound = static_cast<double>(max_chunk_);
  for (std::size_t c = 0; c < classes; ++c) {
    const double wc = weights[c];
    const double uc = static_cast<double>(undecided[c]);
    pp::Count decided_c = 0;
    double cross = 0.0;  // sum_j x_cj X_j
    for (std::size_t j = 0; j < k; ++j) {
      const pp::Count count = opinions[c * k + j];
      if (count == 0) continue;
      const double xcj = static_cast<double>(count);
      decided_c += count;
      cross += xcj * totals_j[j];
      apply_band(xcj, wc * uc * totals_j[j] * inv_w2,
                 wc * xcj * (totals.decided - totals_j[j]) * inv_w2, bound);
    }
    apply_band(uc,
               wc * (static_cast<double>(decided_c) * totals.decided - cross) *
                   inv_w2,
               wc * uc * totals.decided * inv_w2, bound);
  }
  return finalize_bound(bound);
}

void ChunkController::apply_band(double count, double gain, double loss,
                                 double& bound) {
  const double band = std::max(kDriftTolerance * count, 1.0);
  const double drift = std::abs(gain - loss);
  if (drift > 0.0) bound = std::min(bound, band / drift);
  const double sigma2 = gain + loss;
  if (sigma2 > 0.0) bound = std::min(bound, band * band / sigma2);
}

std::uint64_t ChunkController::finalize_bound(double bound) {
  // PI-style lookahead: smooth the bound's step-to-step change with an
  // EWMA and, while the bound is falling, pre-shrink by the predicted
  // next-step drop. Anticipation only tightens (a rising trend never
  // extends the hard error cap) and is floored at a quarter of the raw
  // bound, so one noisy estimate cannot collapse the schedule.
  const double raw_bound = bound;
  if (has_previous_raw_bound_) {
    trend_ = (1.0 - kTrendAlpha) * trend_ +
             kTrendAlpha * (raw_bound - previous_raw_bound_);
    if (trend_ < 0.0) {
      bound = std::max({raw_bound + trend_, 0.25 * raw_bound, 1.0});
    }
  }
  previous_raw_bound_ = raw_bound;
  has_previous_raw_bound_ = true;

  auto target = static_cast<std::uint64_t>(
      std::clamp(std::floor(bound), 1.0, static_cast<double>(max_chunk_)));
  // Geometric rate limit on growth; shrinking takes effect immediately
  // (the error bound is a hard cap, the baseline only damps growth). At
  // a factor of 2, floor(2 * last) >= last + 1: a chunk of one
  // interaction still grows.
  const auto grow_cap = static_cast<std::uint64_t>(
      std::min(static_cast<double>(max_chunk_),
               static_cast<double>(last_) * kChunkGrowFactor));
  target = std::clamp<std::uint64_t>(std::min(target, grow_cap), 1,
                                     max_chunk_);
  last_ = target;
  return target;
}

void ChunkController::on_reject() {
  if (options_.policy == ChunkPolicy::kFixed) return;
  last_ = std::max<std::uint64_t>(1, last_ / 2);
}

}  // namespace kusd::core
