#include "sim/graph_spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "pp/degree_classes.hpp"
#include "pp/graph.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::sim {

std::string to_string(const GraphSpec& spec) {
  switch (spec.kind) {
    case GraphSpec::Kind::kComplete:
      return "complete";
    case GraphSpec::Kind::kCycle:
      return "cycle";
    case GraphSpec::Kind::kRegular:
      return "regular:" + std::to_string(spec.degree);
    case GraphSpec::Kind::kErdosRenyi: {
      if (spec.edge_probability == 0.0) return "er:auto";
      // Shortest round-trip formatting, like the start-profile axis: the
      // spelling in the output schema must parse back to exactly the p
      // that ran.
      char buffer[32];
      const auto result = std::to_chars(buffer, buffer + sizeof buffer,
                                        spec.edge_probability);
      return "er:" + std::string(buffer, result.ptr);
    }
  }
  return "?";
}

std::optional<GraphSpec> parse_graph_spec(const std::string& name) {
  if (name == "complete") return GraphSpec{};
  if (name == "cycle") return GraphSpec{GraphSpec::Kind::kCycle};
  const auto suffix = [&name](const char* prefix) -> std::optional<std::string> {
    const std::string p(prefix);
    if (name.rfind(p, 0) != 0) return std::nullopt;
    return name.substr(p.size());
  };
  if (const auto value = suffix("regular:")) {
    char* end = nullptr;
    const long degree = std::strtol(value->c_str(), &end, 10);
    if (end == value->c_str() || *end != '\0') return std::nullopt;
    if (degree < 1 || degree > std::numeric_limits<int>::max()) {
      return std::nullopt;
    }
    return GraphSpec{GraphSpec::Kind::kRegular, static_cast<int>(degree)};
  }
  if (const auto value = suffix("er:")) {
    if (*value == "auto") {
      return GraphSpec{GraphSpec::Kind::kErdosRenyi, 4, 0.0};
    }
    char* end = nullptr;
    const double p = std::strtod(value->c_str(), &end);
    if (end == value->c_str() || *end != '\0') return std::nullopt;
    if (!(p > 0.0 && p <= 1.0)) return std::nullopt;
    return GraphSpec{GraphSpec::Kind::kErdosRenyi, 4, p};
  }
  return std::nullopt;
}

double auto_edge_probability(pp::Count n) {
  const double dn = static_cast<double>(n);
  return std::clamp(2.0 * std::log(dn) / dn, 0.0,
                    1.0);  // > threshold ln n / n
}

namespace {

/// The p an er:<p> spec runs with at population size n.
double edge_probability(const GraphSpec& spec, pp::Count n) {
  return spec.edge_probability == 0.0 ? auto_edge_probability(n)
                                       : spec.edge_probability;
}

}  // namespace

void check_graph_spec(const GraphSpec& spec, pp::Count n) {
  KUSD_CHECK_MSG(n >= 2, "a topology needs at least two vertices");
  if (spec.kind == GraphSpec::Kind::kRegular) {
    KUSD_CHECK_MSG(
        spec.degree >= 1 && static_cast<pp::Count>(spec.degree) < n,
        "regular:<d> needs 1 <= d < n");
    KUSD_CHECK_MSG((n * static_cast<pp::Count>(spec.degree)) % 2 == 0,
                   "regular:<d> needs n * d even at n = " +
                       std::to_string(n));
  }
  if (spec.kind == GraphSpec::Kind::kErdosRenyi) {
    const double p = edge_probability(spec, n);
    KUSD_CHECK_MSG(p > 0.0 && p <= 1.0,
                   "er:<p> needs an edge probability in (0, 1]");
  }
}

pp::InteractionGraph build_graph(const GraphSpec& spec, pp::Count n,
                                 rng::Rng& rng) {
  check_graph_spec(spec, n);
  KUSD_CHECK_MSG(n <= std::numeric_limits<std::uint32_t>::max(),
                 "graph topologies need n < 2^32 (32-bit vertex ids)");
  const auto vertices = static_cast<std::uint32_t>(n);
  switch (spec.kind) {
    case GraphSpec::Kind::kComplete:
      return pp::InteractionGraph::complete(vertices);
    case GraphSpec::Kind::kCycle:
      return pp::InteractionGraph::cycle(vertices);
    case GraphSpec::Kind::kRegular:
      return pp::InteractionGraph::random_regular(vertices, spec.degree, rng);
    case GraphSpec::Kind::kErdosRenyi:
      return pp::InteractionGraph::erdos_renyi(
          vertices, edge_probability(spec, n), rng);
  }
  KUSD_CHECK_MSG(false, "unreachable graph kind");
}

pp::DegreeClassModel degree_class_model(const GraphSpec& spec, pp::Count n,
                                        rng::Rng& rng) {
  check_graph_spec(spec, n);
  switch (spec.kind) {
    case GraphSpec::Kind::kComplete:
      return pp::DegreeClassModel::regular(n, static_cast<double>(n - 1));
    case GraphSpec::Kind::kCycle:
      return pp::DegreeClassModel::regular(n, 2.0);
    case GraphSpec::Kind::kRegular:
      return pp::DegreeClassModel::regular(
          n, static_cast<double>(spec.degree));
    case GraphSpec::Kind::kErdosRenyi:
      return pp::DegreeClassModel::binomial(n, edge_probability(spec, n),
                                            kMaxDegreeClasses, rng);
  }
  KUSD_CHECK_MSG(false, "unreachable graph kind");
}

}  // namespace kusd::sim
