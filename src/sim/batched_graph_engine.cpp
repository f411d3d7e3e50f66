#include "sim/batched_graph_engine.hpp"

#include <algorithm>

#include "core/stepping.hpp"
#include "pp/configuration.hpp"
#include "pp/degree_classes.hpp"
#include "rng/rng.hpp"
#include "sim/graph_spec.hpp"
#include "util/check.hpp"

namespace kusd::sim {

namespace {

pp::DegreeClassModel resolve_model(const EngineOptions& options, pp::Count n,
                                   std::uint64_t seed) {
  if (options.shared_degrees != nullptr) return *options.shared_degrees;
  // Same stream discipline as the materialized graph engine: topology
  // aggregation gets its own stream so the trial stream drives the same
  // dynamics on a shared or an owned copy of the same model.
  rng::Rng topology_rng(rng::stream_seed(seed, kTopologyStream));
  return degree_class_model(options.graph, n, topology_rng);
}

}  // namespace

BatchedGraphEngine::BatchedGraphEngine(const pp::Configuration& initial,
                                       std::uint64_t seed,
                                       const EngineOptions& options)
    : n_(initial.n()),
      model_(resolve_model(options, initial.n(), seed)),
      controller_(options.batch, initial.n()),
      engine_(initial.k(), static_cast<int>(model_.num_classes())),
      rng_(seed) {
  KUSD_CHECK_MSG(model_.num_vertices() == n_,
                 "degree model covers the wrong number of vertices");
  KUSD_CHECK_MSG(model_.total_degree() > 0.0,
                 "degree model has no interacting vertices");
  KUSD_CHECK_MSG(initial.decided() >= 1,
                 "an all-undecided population never converges");

  const auto k = static_cast<std::size_t>(initial.k());
  const std::size_t classes = model_.num_classes();
  class_weights_.reserve(classes);
  for (const auto& c : model_.classes()) class_weights_.push_back(c.degree);

  // Uniformly random embedding, aggregated: each state's agents are split
  // over the classes proportionally to class size (the multinomial limit
  // of the per-vertex random labeling the materialized engine shuffles
  // explicitly — an O(1/sqrt(n)) perturbation of the exact hypergeometric
  // split, below the annealed approximation's own error). State totals
  // stay exact, and one class draws nothing.
  std::vector<double> size_weights;
  size_weights.reserve(classes);
  for (const auto& c : model_.classes()) {
    size_weights.push_back(static_cast<double>(c.size));
  }
  class_counts_.resize(classes * k);
  for (std::size_t j = 0; j < k; ++j) {
    const auto split = rng_.multinomial(initial.opinions()[j], size_weights);
    for (std::size_t c = 0; c < classes; ++c) {
      class_counts_[c * k + j] = split[c];
    }
  }
  class_undecided_ = rng_.multinomial(initial.undecided(), size_weights);
  totals_.resize(k);
  refresh_totals();
}

void BatchedGraphEngine::step(std::uint64_t max_length) {
  KUSD_DCHECK(!winner_.has_value());
  interactions_ +=
      core::tau_leap_step(controller_, engine_, class_counts_,
                          class_undecided_, class_weights_, max_length, rng_,
                          chunks_);
  refresh_totals();
}

void BatchedGraphEngine::refresh_totals() {
  const std::size_t k = totals_.size();
  const std::size_t classes = class_undecided_.size();
  std::fill(totals_.begin(), totals_.end(), 0);
  undecided_total_ = 0;
  for (std::size_t c = 0; c < classes; ++c) {
    undecided_total_ += class_undecided_[c];
    for (std::size_t j = 0; j < k; ++j) {
      totals_[j] += class_counts_[c * k + j];
    }
  }
  for (std::size_t j = 0; j < k; ++j) {
    if (totals_[j] == n_) winner_ = static_cast<int>(j);
  }
}

void BatchedGraphEngine::advance(std::uint64_t budget) {
  const std::uint64_t target = core::saturating_add(interactions_, budget);
  while (!winner_.has_value() && interactions_ < target) {
    step(target - interactions_);
  }
}

}  // namespace kusd::sim
