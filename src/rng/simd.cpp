#include "rng/simd.hpp"

namespace kusd::rng::simd {

const char* to_string(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kSse2:
      return "sse2";
    case Tier::kAvx2:
      return "avx2";
  }
  return "scalar";
}

Tier supported_tier() {
#if defined(KUSD_SIMD_ENABLED) && defined(__x86_64__)
  // SSE2 is part of the x86-64 baseline, so only AVX2 needs a cpuid probe.
  static const Tier tier =
      __builtin_cpu_supports("avx2") ? Tier::kAvx2 : Tier::kSse2;
  return tier;
#else
  return Tier::kScalar;
#endif
}

Tier active_tier() { return supported_tier(); }

}  // namespace kusd::rng::simd
