#include "rng/binomial.hpp"

#include <cstddef>

#include "rng/binomial_detail.hpp"
#include "util/check.hpp"

namespace kusd::rng {

double log_factorial(std::uint64_t k) {
  return detail::log_factorial(k);
}

std::uint64_t binomial(Rng& rng, std::uint64_t n, double p) {
  KUSD_CHECK_MSG(p >= 0.0 && p <= 1.0, "binomial probability out of range");
  return detail::binomial_draw(rng, n, p);
}

void binomial_batch(std::span<Rng> rngs, std::span<const std::uint64_t> ns,
                    std::span<const double> ps,
                    std::span<std::uint64_t> out) {
  KUSD_CHECK_MSG(rngs.size() == ns.size() && ns.size() == ps.size() &&
                     ps.size() == out.size(),
                 "binomial_batch: span lengths must match");
  for (std::size_t i = 0; i < rngs.size(); ++i) {
    out[i] = binomial(rngs[i], ns[i], ps[i]);
  }
}

}  // namespace kusd::rng
