#include "analysis/usd_exact.hpp"

#include <cmath>

#include "pp/configuration.hpp"
#include "util/check.hpp"

namespace kusd::analysis {

namespace {

void enumerate_states(int k, std::vector<pp::Count>& current, int position,
                      pp::Count remaining,
                      std::vector<std::vector<pp::Count>>& out) {
  if (position == k) {
    out.push_back(current);
    return;
  }
  for (pp::Count v = 0; v <= remaining; ++v) {
    current[static_cast<std::size_t>(position)] = v;
    enumerate_states(k, current, position + 1, remaining - v, out);
  }
}

/// Gaussian elimination with partial pivoting, multiple right-hand sides.
void solve_dense(std::vector<double>& a, std::vector<double>& b,
                 std::size_t m, std::size_t r) {
  for (std::size_t col = 0; col < m; ++col) {
    std::size_t pivot = col;
    double best = std::abs(a[col * m + col]);
    for (std::size_t row = col + 1; row < m; ++row) {
      const double v = std::abs(a[row * m + col]);
      if (v > best) {
        best = v;
        pivot = row;
      }
    }
    KUSD_CHECK_MSG(best > 1e-14, "singular linear system");
    if (pivot != col) {
      for (std::size_t j = col; j < m; ++j)
        std::swap(a[col * m + j], a[pivot * m + j]);
      for (std::size_t j = 0; j < r; ++j)
        std::swap(b[col * r + j], b[pivot * r + j]);
    }
    const double inv = 1.0 / a[col * m + col];
    for (std::size_t row = col + 1; row < m; ++row) {
      const double factor = a[row * m + col] * inv;
      if (factor == 0.0) continue;
      a[row * m + col] = 0.0;
      for (std::size_t j = col + 1; j < m; ++j)
        a[row * m + j] -= factor * a[col * m + j];
      for (std::size_t j = 0; j < r; ++j)
        b[row * r + j] -= factor * b[col * r + j];
    }
  }
  for (std::size_t col = m; col-- > 0;) {
    const double inv = 1.0 / a[col * m + col];
    for (std::size_t j = 0; j < r; ++j) {
      double v = b[col * r + j];
      for (std::size_t jj = col + 1; jj < m; ++jj)
        v -= a[col * m + jj] * b[jj * r + j];
      b[col * r + j] = v * inv;
    }
  }
}

}  // namespace

UsdExactSolver::UsdExactSolver(pp::Count n, int k) : n_(n), k_(k) {
  KUSD_CHECK_MSG(n >= 2, "need at least two agents");
  KUSD_CHECK_MSG(k >= 1, "need at least one opinion");
  // State count is C(n+k, k); bound it before enumerating anything.
  double state_count = 1.0;
  for (int i = 1; i <= k; ++i) {
    state_count *= static_cast<double>(n + static_cast<pp::Count>(i)) /
                   static_cast<double>(i);
  }
  KUSD_CHECK_MSG(state_count <= 2500.0,
                 "state space too large for the exact solver");
  std::vector<pp::Count> scratch(static_cast<std::size_t>(k), 0);
  enumerate_states(k, scratch, 0, n, states_);
  for (std::size_t i = 0; i < states_.size(); ++i) index_[states_[i]] = i;

  const auto uk = static_cast<std::size_t>(k);
  expected_time_.assign(states_.size(), 0.0);
  win_prob_.assign(states_.size(), std::vector<double>(uk, 0.0));

  // Identify transient states (at least one decided agent, no consensus).
  std::vector<std::ptrdiff_t> unknown(states_.size(), -1);
  std::vector<std::size_t> transient;
  for (std::size_t s = 0; s < states_.size(); ++s) {
    pp::Count total = 0;
    bool consensus = false;
    for (std::size_t i = 0; i < uk; ++i) {
      total += states_[s][i];
      if (states_[s][i] == n_) consensus = true;
    }
    if (total == 0 || consensus) continue;
    unknown[s] = static_cast<std::ptrdiff_t>(transient.size());
    transient.push_back(s);
  }

  const std::size_t m = transient.size();
  const std::size_t r = uk + 1;  // time + k win probabilities
  std::vector<double> a(m * m, 0.0);
  std::vector<double> b(m * r, 0.0);
  const double nn = static_cast<double>(n_) * static_cast<double>(n_);

  for (std::size_t row = 0; row < m; ++row) {
    const auto& x = states_[transient[row]];
    pp::Count decided = 0;
    for (auto v : x) decided += v;
    const double u = static_cast<double>(n_ - decided);

    a[row * m + row] = 1.0;
    double q = 0.0;
    struct Arc {
      std::vector<pp::Count> to;
      double p = 0.0;
    };
    std::vector<Arc> arcs;
    for (std::size_t i = 0; i < uk; ++i) {
      const double xi = static_cast<double>(x[i]);
      if (x[i] > 0) {
        // Flip: responder of opinion i meets a differently decided
        // initiator.
        const double p =
            xi * (static_cast<double>(decided) - xi) / nn;
        if (p > 0) {
          auto to = x;
          --to[i];
          arcs.push_back({std::move(to), p});
        }
      }
      if (u > 0 && x[i] > 0) {
        // Adopt: undecided responder meets an initiator of opinion i.
        const double p = u * xi / nn;
        auto to = x;
        ++to[i];
        arcs.push_back({std::move(to), p});
      }
    }
    for (const auto& arc : arcs) q += arc.p;
    KUSD_CHECK_MSG(q > 0.0, "transient state with no productive step");
    b[row * r + 0] = 1.0 / q;
    for (const auto& arc : arcs) {
      const double pc = arc.p / q;
      const std::size_t sidx = index_.at(arc.to);
      const std::ptrdiff_t col = unknown[sidx];
      if (col >= 0) {
        a[row * m + static_cast<std::size_t>(col)] -= pc;
      } else {
        // Absorbing: exactly one opinion holds all n agents.
        for (std::size_t i = 0; i < uk; ++i) {
          if (arc.to[i] == n_) b[row * r + 1 + i] += pc;
        }
      }
    }
  }
  solve_dense(a, b, m, r);
  for (std::size_t i = 0; i < m; ++i) {
    expected_time_[transient[i]] = b[i * r + 0];
    for (std::size_t j = 0; j < uk; ++j) {
      win_prob_[transient[i]][j] = b[i * r + 1 + j];
    }
  }
  // Absorbing states.
  for (std::size_t s = 0; s < states_.size(); ++s) {
    for (std::size_t i = 0; i < uk; ++i) {
      if (states_[s][i] == n_) win_prob_[s][i] = 1.0;
    }
  }
}

std::size_t UsdExactSolver::index_of(const std::vector<pp::Count>& x) const {
  KUSD_CHECK_MSG(static_cast<int>(x.size()) == k_, "support vector size");
  pp::Count total = 0;
  for (auto v : x) {
    // Compared before adding, so a huge entry cannot wrap the sum.
    KUSD_CHECK_MSG(v <= n_ - total, "support exceeds population");
    total += v;
  }
  KUSD_CHECK_MSG(total >= 1, "all-undecided start never converges");
  return index_.at(x);
}

double UsdExactSolver::expected_consensus_time(
    const std::vector<pp::Count>& x) const {
  return expected_time_[index_of(x)];
}

double UsdExactSolver::win_probability(const std::vector<pp::Count>& x,
                                       int opinion) const {
  KUSD_CHECK(opinion >= 0 && opinion < k_);
  return win_prob_[index_of(x)][static_cast<std::size_t>(opinion)];
}

}  // namespace kusd::analysis
