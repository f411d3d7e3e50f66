// Runtime SIMD tier dispatch for the sampling substrate.
//
// The vectorized BTRS kernels (rng/binomial_lanes) are compiled per
// instruction-set tier and selected here at runtime, so one binary runs
// everywhere x86-64 runs and still uses the widest lanes the host CPU
// has. Every tier is bit-identical by contract (pinned by
// tests/test_simd_sampler.cpp), which makes the choice purely a
// throughput knob: results never depend on the machine that produced
// them.
//
// Builds configured with KUSD_SIMD=OFF (the CI `nosimd` leg) compile none
// of the tiered kernels and pin the dispatch to the scalar tier, proving
// the portable path keeps the full suite green on its own.
#pragma once

namespace kusd::rng::simd {

/// Instruction-set tiers of the vectorized sampling kernels, ordered by
/// lane width (scalar < SSE2 < AVX2). SSE2 is architectural on x86-64;
/// AVX2 is a runtime question answered once at startup.
enum class Tier { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

[[nodiscard]] const char* to_string(Tier tier);

/// Widest tier this build + CPU combination can execute. Scalar-only when
/// the build disabled SIMD (KUSD_SIMD=OFF) or the target is not x86-64.
[[nodiscard]] Tier supported_tier();

/// The tier the dispatched kernels currently use. Defaults to
/// supported_tier(); the KUSD_SIMD environment variable
/// (auto|scalar|sse2|avx2, clamped to what the hardware supports) pins
/// the startup value, e.g. to reproduce a narrower machine's timing on a
/// wider one. Never affects results — only speed.
[[nodiscard]] Tier active_tier();

/// Force the active tier (clamped to supported_tier()); returns the tier
/// actually installed. For tests and the cross-tier bit-identity audits;
/// not meant to be raced against in-flight sampling.
Tier set_tier(Tier tier);

}  // namespace kusd::rng::simd
