#include "rng/binomial.hpp"

#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include "rng/binomial_detail.hpp"
#include "rng/binomial_lanes.hpp"
#include "rng/simd.hpp"
#include "util/check.hpp"

namespace kusd::rng {

namespace {


/// Within-call memo of the last reduced (n, p) setup. A batch of
/// many trials' draws of one event family repeats (n, p) run-length-wise,
/// so recomputing the sqrt/exp setup per draw is waste. Correctness-
/// neutral: the setup is a pure function of (n, p), pinned by the
/// bit-identity tests.
struct SetupCache {
  std::uint64_t n = 0;
  double p = -1.0;  // impossible reduced p: never matches
  bool is_btrs = false;
  detail::BinvSetup binv{};
  detail::BtrsSetup btrs{};
};

/// One reduced draw (validated p <= 0.5, degenerate cases already
/// resolved by the caller) through the memoized scalar samplers.
template <typename Uniforms>
std::uint64_t reduced_draw(Uniforms& uniforms, std::uint64_t n, double p,
                           SetupCache& cache) {
  if (n != cache.n || p != cache.p) {
    cache.n = n;
    cache.p = p;
    cache.is_btrs = static_cast<double>(n) * p >= detail::kBtrsCutoff;
    if (cache.is_btrs) {
      cache.btrs = detail::btrs_setup(n, p);
    } else {
      cache.binv = detail::binv_setup(n, p);
    }
  }
  return cache.is_btrs ? detail::btrs(uniforms, cache.btrs, n)
                       : detail::binv(uniforms, cache.binv, n);
}

/// BTRS lane kernel of the active tier, or nullptr when the build or the
/// tier is scalar-only.
using LanesFn = void (*)(const detail::LaneBatchView&);
LanesFn btrs_lanes_fn() {
#if defined(KUSD_SIMD_ENABLED)
  switch (simd::active_tier()) {
    case simd::Tier::kAvx2:
      return &detail::btrs_lanes_avx2;
    case simd::Tier::kSse2:
      return &detail::btrs_lanes_sse2;
    case simd::Tier::kScalar:
      break;
  }
#endif
  return nullptr;
}

struct BatchScratch {
  std::vector<std::size_t> btrs_index;
  std::vector<Rng*> lane_rngs;
  std::vector<std::uint64_t> lane_ns;
  std::vector<double> lane_ps;
  std::vector<std::uint64_t> lane_outs;
  std::vector<Rng*> pointers;  // contiguous-overload adapter
};

BatchScratch& scratch() {
  // One scratch per thread: binomial_batch runs concurrently from
  // independent sweep tasks, and each call fully consumes what it wrote,
  // so thread-local reuse is safe and keeps the hot path allocation-free
  // after warmup.
  thread_local BatchScratch scratch;
  return scratch;
}

/// Cohort pass over one batch: degenerate draws resolve inline (no
/// stream consumption), BINV draws run through the memoized scalar
/// sampler (cheap, and their inversion loop is too data-dependent to
/// lane-batch profitably), and BTRS draws — the sqrt/div/log-heavy
/// cohort — gather into the lane kernel of the active SIMD tier.
void batch_draw(std::span<Rng* const> rngs, std::span<const std::uint64_t> ns,
                std::span<const double> ps, std::span<std::uint64_t> out) {
  BatchScratch& sc = scratch();
  const LanesFn lanes = btrs_lanes_fn();
  sc.btrs_index.clear();
  SetupCache cache;
  for (std::size_t i = 0; i < rngs.size(); ++i) {
    const double p = ps[i];
    KUSD_CHECK_MSG(p >= 0.0 && p <= 1.0, "binomial probability out of range");
    const std::uint64_t n = ns[i];
    if (n == 0 || p == 0.0) {
      out[i] = 0;
      continue;
    }
    if (p == 1.0) {
      out[i] = n;
      continue;
    }
    const double reduced = p > 0.5 ? 1.0 - p : p;
    if (lanes != nullptr &&
        static_cast<double>(n) * reduced >= detail::kBtrsCutoff) {
      sc.btrs_index.push_back(i);
      continue;
    }
    const std::uint64_t draw = reduced_draw(*rngs[i], n, reduced, cache);
    out[i] = p > 0.5 ? n - draw : draw;
  }
  if (sc.btrs_index.empty()) return;
  sc.lane_rngs.clear();
  sc.lane_ns.clear();
  sc.lane_ps.clear();
  for (const std::size_t i : sc.btrs_index) {
    sc.lane_rngs.push_back(rngs[i]);
    sc.lane_ns.push_back(ns[i]);
    sc.lane_ps.push_back(ps[i] > 0.5 ? 1.0 - ps[i] : ps[i]);
  }
  sc.lane_outs.assign(sc.btrs_index.size(), 0);
  const detail::LaneBatchView view{sc.lane_rngs.data(), sc.lane_ns.data(),
                                   sc.lane_ps.data(), sc.lane_outs.data(),
                                   sc.btrs_index.size()};
  lanes(view);
  for (std::size_t j = 0; j < sc.btrs_index.size(); ++j) {
    const std::size_t i = sc.btrs_index[j];
    out[i] = ps[i] > 0.5 ? ns[i] - sc.lane_outs[j] : sc.lane_outs[j];
  }
}

}  // namespace

double log_factorial(std::uint64_t k) {
  return detail::log_factorial(k);
}

std::uint64_t binomial(Rng& rng, std::uint64_t n, double p) {
  KUSD_CHECK_MSG(p >= 0.0 && p <= 1.0, "binomial probability out of range");
  return detail::binomial_draw(rng, n, p);
}

void binomial_batch(std::span<Rng* const> rngs,
                    std::span<const std::uint64_t> ns,
                    std::span<const double> ps,
                    std::span<std::uint64_t> out) {
  KUSD_CHECK_MSG(rngs.size() == ns.size() && ns.size() == ps.size() &&
                     ps.size() == out.size(),
                 "binomial_batch: span lengths must match");
  batch_draw(rngs, ns, ps, out);
}

void binomial_batch(std::span<Rng> rngs, std::span<const std::uint64_t> ns,
                    std::span<const double> ps,
                    std::span<std::uint64_t> out) {
  KUSD_CHECK_MSG(rngs.size() == ns.size() && ns.size() == ps.size() &&
                     ps.size() == out.size(),
                 "binomial_batch: span lengths must match");
  BatchScratch& sc = scratch();
  sc.pointers.clear();
  for (Rng& rng : rngs) sc.pointers.push_back(&rng);
  batch_draw(sc.pointers, ns, ps, out);
}

}  // namespace kusd::rng
