// Deterministic random-number substrate.
//
// The whole reproduction is seeded: every trial derives an independent
// stream from (master_seed, trial_id) via a counter-based Philox block
// cipher, and all samplers are built on xoshiro256++ (Blackman & Vigna),
// a fast, high-quality generator whose state fits in four 64-bit words.
//
// Rng satisfies the C++ UniformRandomBitGenerator requirements, so it can
// also drive standard-library distributions where convenient.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace kusd::rng {

/// SplitMix64 step: the canonical 64-bit mixing function. Used for seeding
/// generator state from a 64-bit seed.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// One Philox-2x64-10 block (Salmon et al., "Parallel random numbers: as
/// easy as 1, 2, 3"): a 10-round bijection of the 128-bit counter space
/// for every 64-bit key. Counter-based stream derivation rests on this
/// structural fact: for a fixed key (master seed), distinct counters are
/// *guaranteed* distinct 128-bit outputs — no hash-collision argument
/// needed.
[[nodiscard]] constexpr std::array<std::uint64_t, 2> philox2x64(
    std::uint64_t counter_lo, std::uint64_t counter_hi, std::uint64_t key) {
  constexpr std::uint64_t kMultiplier = 0xD2B74407B1CE6E93ULL;
  constexpr std::uint64_t kWeyl = 0x9E3779B97F4A7C15ULL;
  std::uint64_t x0 = counter_lo, x1 = counter_hi;
  for (int round = 0; round < 10; ++round) {
    const auto product = static_cast<unsigned __int128>(kMultiplier) * x0;
    const auto hi = static_cast<std::uint64_t>(product >> 64);
    const auto lo = static_cast<std::uint64_t>(product);
    x0 = hi ^ key ^ x1;
    x1 = lo;
    key += kWeyl;
  }
  return {x0, x1};
}

/// Derive the seed of stream `id` from a master seed: the Philox block at
/// counter (id, 0) under key `master_seed`, folded to 64 bits. Unlike a
/// hash, the underlying 128-bit blocks are distinct by construction for
/// distinct ids, so stream independence rests on the cipher, and the only
/// residual collision risk is the 64-bit fold's birthday bound
/// (~m^2 / 2^65 over m ids; ~2.7e-8 for a million ids).
[[nodiscard]] constexpr std::uint64_t stream_seed(std::uint64_t master_seed,
                                                  std::uint64_t id) {
  const auto block = philox2x64(id, 0, master_seed);
  return block[0] ^ block[1];
}

/// xoshiro256++ generator with convenience samplers for every distribution
/// the simulators need. Copyable (copies fork the stream deterministically).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xD1B54A32D192ED03ULL) { reseed(seed); }

  /// Re-initialize the state from a 64-bit seed via SplitMix64.
  void reseed(std::uint64_t seed) {
    for (auto& word : state_) word = splitmix64(seed);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next raw 64 bits.
  result_type operator()() { return next_u64(); }

  result_type next_u64() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform01() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) via Lemire's multiply-shift rejection
  /// method (unbiased). bound must be positive.
  std::uint64_t bounded(std::uint64_t bound) {
    KUSD_DCHECK(bound > 0);
    // Lemire's nearly-divisionless method.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    bounded(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform01() < p; }

  /// Number of failures before the first success of a Bernoulli(p) sequence
  /// (support {0, 1, 2, ...}). Exact inversion, floor(log(u) / log1p(-p))
  /// for u = 1 - uniform01(), saturated at UINT64_MAX where the quotient
  /// leaves the uint64 range; p must be in (0, 1].
  std::uint64_t geometric_failures(double p);

  /// Binomial(n, p) sample. Exact, via the in-repo BINV/BTRS sampler
  /// (rng/binomial.hpp); p in [0, 1]. Degenerate draws (n == 0, p == 0,
  /// p == 1) consume no randomness.
  std::uint64_t binomial(std::uint64_t n, double p);

  /// Multinomial(n, weights): partition n into weights.size() buckets with
  /// probabilities proportional to weights. Exact via sequential
  /// conditional binomials; `out` must have weights.size() entries and is
  /// overwritten, and n > 0 needs a positive total weight (KUSD_CHECK).
  /// Allocation-free (the hot-loop form).
  void multinomial_into(std::uint64_t n, std::span<const double> weights,
                        std::span<std::uint64_t> out);

  /// Allocating convenience form of multinomial_into (same draw sequence).
  std::vector<std::uint64_t> multinomial(std::uint64_t n,
                                         std::span<const double> weights);

  /// Standard normal via Marsaglia polar method.
  double normal();

  /// Raw xoshiro state snapshot/restore, for checks that compare stream
  /// positions (kusdbench's trace replays a step on a shadow stream and
  /// compares states) and for tests that install a state whose next word
  /// is known. Round-tripping through these is the identity; installing
  /// anything other than a snapshot of a live stream forfeits the
  /// seeding-quality guarantees.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const { return state_; }
  void set_state(const std::array<std::uint64_t, 4>& state) { state_ = state; }

  /// Fisher–Yates shuffle of a span.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(bounded(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int s) {
    return (x << s) | (x >> (64 - s));
  }

  std::array<std::uint64_t, 4> state_{};
  // Cached spare for normal().
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace kusd::rng
