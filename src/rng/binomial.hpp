// In-repo binomial sampler: BINV inversion + BTRS transformed rejection.
//
// Replaces std::binomial_distribution for three reasons:
//
//  * Speed. The tau-leap engines draw one conditional binomial per event
//    family per chunk, each with a fresh (n, p); libstdc++'s sampler
//    re-runs its lgamma-heavy parameter setup on every construction,
//    which dominates the whole hot loop (~200 ns/draw at n = 1e8). BINV
//    costs a handful of multiplies for small means and BTRS (Hörmann,
//    "The generation of binomial random variates", 1993) accepts ~86% of
//    candidates with two uniforms and a few flops each.
//  * Thread cleanliness. glibc's lgamma() writes the process-global
//    `signgam` (POSIX mandates it), so concurrent trials drawing
//    binomials race on it — the one historical tsan suppression in this
//    tree. log_factorial below is a table + Stirling tail and calls no
//    libm function with hidden global state.
//  * Stream portability. The standard library's binomial algorithm is
//    unspecified, so seeded runs were only reproducible within one
//    standard library. This sampler consumes the Rng stream identically
//    everywhere.
//
// All samplers are exact-distribution (rejection, not approximation); the
// only inexactness is ~1e-12 relative error in the log-pmf used by BTRS's
// accept test, far below KS detectability (pinned by tests/test_rng.cpp).
#pragma once

#include <cstdint>
#include <span>

#include "rng/rng.hpp"

namespace kusd::rng {

/// ln(k!) with no lgamma: correctly-rounded literal table for small k,
/// Stirling series (two correction terms) beyond it, with the in-repo
/// log (detail::log_pos) so the value is a pure function of k on every
/// platform. Max relative error ~1e-13.
[[nodiscard]] double log_factorial(std::uint64_t k);

/// One Binomial(n, p) sample from `rng`'s stream; p in [0, 1]. The edge
/// cases n == 0, p == 0 (returns 0) and p == 1 (returns n) consume no
/// randomness, so callers skipping degenerate draws keep the same stream
/// position either way. p > 0.5 is served by reflection
/// (n - Binomial(n, 1 - p)).
[[nodiscard]] std::uint64_t binomial(Rng& rng, std::uint64_t n, double p);

/// out[i] = binomial(rngs[i], ns[i], ps[i]), in index order; all spans
/// must have equal length. No engine calls it: it stays only because
/// kusdbench's trace compiles against it and times it as
/// rng.binomial_batch_ns, until the benchmark retires that metric
/// (ROADMAP item 2).
void binomial_batch(std::span<Rng> rngs, std::span<const std::uint64_t> ns,
                    std::span<const double> ps, std::span<std::uint64_t> out);

}  // namespace kusd::rng
