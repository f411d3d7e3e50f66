// Interaction-topology axis of the sim layer.
//
// A GraphSpec is the declarative, sweep-able description of an interaction
// topology: which family, plus the family's parameter. It is spelled the
// way the CLI spells it —
//
//   complete | cycle | regular:<d> | er:<p> | er:auto
//
// — and round-trips through to_string/parse_graph_spec so the `graph`
// column of sweep output parses back to exactly the topology that ran.
// build_graph resolves a spec into a concrete pp::InteractionGraph at a
// population size n (er:auto picks p = 2 ln n / n, comfortably above the
// G(n, p) connectivity threshold ln n / n).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "pp/configuration.hpp"
#include "pp/degree_classes.hpp"
#include "pp/graph.hpp"
#include "rng/rng.hpp"

namespace kusd::sim {

/// Stream id used to derive topology-construction seeds from a trial or
/// point seed (cannot collide with trial indices, which are small).
inline constexpr std::uint64_t kTopologyStream = 0x746F706F6C6F6779ULL;

struct GraphSpec {
  enum class Kind {
    kComplete,    ///< K_n — the paper's (unrestricted) model
    kCycle,       ///< C_n — the slowest-mixing standard topology
    kRegular,     ///< near-d-regular via the configuration model
    kErdosRenyi,  ///< G(n, p)
  };
  Kind kind = Kind::kComplete;
  /// Degree of kRegular; ignored otherwise.
  int degree = 4;
  /// Edge probability of kErdosRenyi; 0 means "auto" (resolved per n as
  /// auto_edge_probability). Ignored for other kinds.
  double edge_probability = 0.0;

  bool operator==(const GraphSpec&) const = default;
};

/// CLI spelling: "complete", "cycle", "regular:<d>", "er:<p>" or "er:auto".
[[nodiscard]] std::string to_string(const GraphSpec& spec);
/// Parse the CLI spelling; nullopt on malformed names or out-of-range
/// parameters (degree < 1, p outside (0, 1]).
[[nodiscard]] std::optional<GraphSpec> parse_graph_spec(
    const std::string& name);

/// The p that "er:auto" resolves to at population size n: 2 ln n / n,
/// clamped to (0, 1].
[[nodiscard]] double auto_edge_probability(pp::Count n);

/// Throws util::CheckError unless the spec is feasible at population size
/// n: n >= 2; regular:<d> needs 1 <= d < n and n * d even; er:<p> needs p
/// in (0, 1] (er:auto resolves to auto_edge_probability(n)). The one copy
/// of these rules: build_graph, degree_class_model and runner::Sweep's
/// upfront validation all call it.
void check_graph_spec(const GraphSpec& spec, pp::Count n);

/// Materialize the spec at population size n. `rng` drives the random
/// families (regular, ER) and is untouched for the deterministic ones, so
/// topology construction is reproducible from a seeded stream. Throws
/// util::CheckError when n exceeds 32-bit vertex ids or the family's
/// parameter is infeasible at this n (e.g. odd n * d for regular:<d>).
[[nodiscard]] pp::InteractionGraph build_graph(const GraphSpec& spec,
                                               pp::Count n, rng::Rng& rng);

/// Degree-class bucket cap of er:<p> aggregation (degree_class_model).
inline constexpr int kMaxDegreeClasses = 48;

/// Aggregate the spec at population size n into a pp::DegreeClassModel —
/// the O(classes) topology summary the "graph-batched" engine runs on
/// instead of a materialized edge set, so n is NOT capped at 2^32 here.
/// Degree-regular families (complete, cycle, regular:<d>) collapse to one
/// class; er:<p> (and er:auto) realizes binomial degree-class sizes from
/// `rng` (deterministic from a seeded stream, like build_graph).
/// Parameter validation is check_graph_spec, as for build_graph, so both
/// engines accept exactly the same specs.
[[nodiscard]] pp::DegreeClassModel degree_class_model(const GraphSpec& spec,
                                                      pp::Count n,
                                                      rng::Rng& rng);

}  // namespace kusd::sim
