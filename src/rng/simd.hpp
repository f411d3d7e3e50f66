// The SIMD tier names kusdbench's trace prints in its --fingerprint.
//
// No sampler is vectorized: every draw runs the scalar BINV/BTRS sampler
// (rng/binomial.hpp). This probe stays only because kusdbench compiles
// against it and folds its strings into a run's machine_id, so it keeps
// reporting what the host could run, unchanged, until the benchmark drops
// the tier from its fingerprint (ROADMAP item 2).
#pragma once

namespace kusd::rng::simd {

/// Instruction-set tiers, ordered by lane width (scalar < SSE2 < AVX2).
enum class Tier { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

[[nodiscard]] const char* to_string(Tier tier);

/// Widest tier this build + CPU combination reports: scalar when the
/// build was configured with KUSD_SIMD=OFF or the target is not x86-64,
/// else AVX2 when cpuid has it and SSE2 otherwise.
[[nodiscard]] Tier supported_tier();

/// Always supported_tier(): there is no kernel left to pin to a tier.
[[nodiscard]] Tier active_tier();

}  // namespace kusd::rng::simd
