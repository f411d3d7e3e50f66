// Chunk-length control for the tau-leaping batched simulators.
//
// The tau-leap (RoundEngine::try_async_class_chunk) advances the USD chain
// in chunks of m interactions with the transition rates frozen at the
// chunk's starting configuration. The approximation error of a chunk is
// governed by how far the rates drift across it, and that drift is
// predictable in O(classes * k): the expected per-interaction change of
// every count (and its variance) is a closed-form function of the
// per-class counts and class weights. ChunkController turns that
// prediction into a step-size policy:
//
//  * ChunkPolicy::kFixed — a constant chunk of chunk_fraction * n
//    interactions, the default.
//  * ChunkPolicy::kAdaptive — an error-controlled chunk in the style of
//    Cao–Gillespie tau-selection: the largest m such that, for every
//    count c with per-interaction drift mu_c and variance sigma2_c,
//        m * |mu_c|        <= tol * max(c, 1)     (predicted drift)
//        m * sigma2_c      <= (tol * max(c, 1))^2 (predicted fluctuation)
//    with tol = kDriftTolerance, clamped to [1, kMaxChunkFraction * n]
//    and moved geometrically (at most kChunkGrowFactor per step) so one
//    noisy estimate cannot slam the chunk around. An EWMA of the bound's
//    step-to-step change (weight kTrendAlpha) additionally pre-shrinks
//    the chunk when the bound is falling, so the schedule tightens
//    *before* a phase transition rather than one step into it. Flat
//    mid-run regimes take chunks far larger than the fixed default;
//    near-absorbing and early phase-transition states drop automatically
//    toward the exact single-interaction chain.
//
// The controller is pure bookkeeping: it never draws randomness, so for a
// fixed sequence of observed configurations its proposals are
// deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/round_engine.hpp"
#include "pp/configuration.hpp"

namespace kusd::core {

enum class ChunkPolicy {
  kFixed,     ///< constant chunk_fraction * n interactions per draw
  kAdaptive,  ///< error-controlled (rate-drift bound), grows/shrinks
};

[[nodiscard]] const char* to_string(ChunkPolicy policy);
/// Parse the CLI spelling ("fixed", "adaptive").
[[nodiscard]] std::optional<ChunkPolicy> parse_chunk_policy(
    const std::string& name);

// Tuning constants of ChunkPolicy::kAdaptive; docs/architecture.md
// § "Knob ledger" gives the number behind each, or says it is
// unmeasured. The chunk floor is one interaction, the exact chain.

/// Bound on the predicted relative drift (and relative standard
/// deviation) of every count across one chunk. Smaller is more accurate
/// per chunk, but the measured bias comes from chunks larger than about
/// 0.1n, not from this tolerance: mean parallel time is +2.5% (6.9
/// sigma) against the exact `skip` chain at n = 5e4, k = 4, and
/// +0.9-1.5% against fixed 1-2% chunks at n = 1e8, k = 32. The alpha =
/// 0.001 KS gates of the property tests do not see a bias that size;
/// removing it is ROADMAP item 1.
inline constexpr double kDriftTolerance = 0.05;
/// Ceiling: chunks never exceed kMaxChunkFraction * n interactions.
/// A cap of 0.1 removes the bias above but runs 3.1x slower at n = 1e8,
/// k = 32 (ROADMAP item 1).
inline constexpr double kMaxChunkFraction = 0.5;
/// Geometric growth limit per committed step. Shrinking is immediate
/// (the error bound is a hard cap); growth is rate-limited so one
/// flat-looking configuration cannot jump straight to the ceiling.
/// Unmeasured against other factors.
inline constexpr double kChunkGrowFactor = 2.0;
/// EWMA weight of the drift-trend lookahead. The controller smooths the
/// step-to-step change of the raw tau bound and, when the bound is
/// falling, pre-shrinks the next chunk by the predicted one-step drop
/// (PI-style): chunks tighten *before* a phase transition instead of one
/// step into it. The anticipation only ever shrinks below the hard error
/// bound (never extends it), and it is floored at a quarter of the raw
/// bound so a noisy spike cannot collapse the schedule. It measured no
/// effect on the bias; ROADMAP item 1 deletes it.
inline constexpr double kTrendAlpha = 0.25;

/// Options of the batched engines' chunk schedule; `{0.02}` means
/// "fixed 2% chunks".
struct ChunkOptions {
  /// Chunk length under kFixed, as a fraction of n.
  double chunk_fraction = 0.02;
  ChunkPolicy policy = ChunkPolicy::kFixed;
};

class ChunkController {
 public:
  /// Throws util::CheckError unless chunk_fraction is in (0, 1].
  ChunkController(const ChunkOptions& options, pp::Count n);

  [[nodiscard]] const ChunkOptions& options() const { return options_; }

  /// Propose the next chunk length (always >= 1) for the current
  /// configuration of the class-structured chain
  /// (RoundEngine::try_async_class_chunk): `opinions` is class-major
  /// (class c, opinion j at c * k + j), `undecided` per class, `weights[c]`
  /// the per-member sampling weight of class c. O(classes * k). Under
  /// kFixed the proposal is the constant chunk_fraction * n; under
  /// kAdaptive it is the error bound described in the file comment, every
  /// per-class count's predicted drift and fluctuation within the
  /// tolerance, geometrically rate-limited against the previous proposal.
  [[nodiscard]] std::uint64_t propose_classes(
      std::span<const pp::Count> opinions, std::span<const pp::Count> undecided,
      std::span<const double> weights);
  /// The same with the configuration's totals precomputed.
  [[nodiscard]] std::uint64_t propose_classes(
      std::span<const pp::Count> opinions, std::span<const pp::Count> undecided,
      std::span<const double> weights, const WeightedTotals& totals);

  /// propose_classes for the unstructured chain: one class of weight 1.
  [[nodiscard]] std::uint64_t propose(std::span<const pp::Count> opinions,
                                      pp::Count undecided);

  /// Feedback from the simulator: the last chunk overshot a count and was
  /// rejected by the frozen-rate draw. Shrinks the adaptive baseline so
  /// the next proposal starts from the halved length. No-op under kFixed.
  void on_reject();

  /// The largest chunk the controller will propose.
  [[nodiscard]] std::uint64_t max_chunk() const { return max_chunk_; }

 private:
  /// Tail of the adaptive policy: trend lookahead, clamping to
  /// [1, max_chunk] and the geometric growth limit applied to a raw tau
  /// bound.
  [[nodiscard]] std::uint64_t finalize_bound(double raw_bound);
  /// Tighten `bound` so drift and fluctuation of a count with the given
  /// per-interaction gain/loss rates stay inside the tolerance band.
  static void apply_band(double count, double gain, double loss,
                         double& bound);

  ChunkOptions options_;
  pp::Count n_;
  std::uint64_t max_chunk_ = 1;
  std::uint64_t fixed_chunk_ = 1;
  /// Last adaptive proposal (growth baseline).
  std::uint64_t last_ = 0;
  // Trend lookahead state (see kTrendAlpha): the EWMA of the raw bound's
  // step-to-step change, and the previous raw bound it is updated against.
  double trend_ = 0.0;
  double previous_raw_bound_ = 0.0;
  bool has_previous_raw_bound_ = false;
  /// Scratch of propose_classes: k degree-weighted opinion totals.
  std::vector<double> weighted_scratch_;
};

}  // namespace kusd::core
