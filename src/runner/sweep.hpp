// Grid sweeps over (engine, graph, n, k, start, bias): the experiment
// driver behind `kusd sweep`.
//
// A Sweep expands a SweepSpec into the cartesian grid of its axes and runs
// every grid point as a Monte-Carlo batch. Engines are sim::Registry
// names, resolved per trial through the registry — the sweep has no
// per-engine dispatch of its own, so a newly registered engine is
// sweepable with no changes here. The `graphs` axis applies to engines
// that take a topology (EngineInfo::uses_graph_axis); for such engines
// the topology is realized once per grid point from a deterministic
// stream and shared read-only across the point's trials — as a
// materialized pp::InteractionGraph for per-edge engines ("graph"), or as
// a pp::DegreeClassModel for aggregated engines ("graph-batched",
// EngineInfo::aggregated_topology), which never build an edge set and so
// sweep n far beyond materializable sizes.
//
// Topology summary columns. Each graph-axis point also records what was
// realized: `graph_edges` (measured edge count, or the aggregated
// model's expected count) and `connected` (BFS-measured, or "no isolated
// vertices" for aggregated models — the only disconnection an annealed
// model can express). On a disconnected realization global consensus
// needs every component to align by coincidence, so most trials run to
// their cap — under the *default* budgets (max_time == 0, tuned for
// connected complete-graph dynamics) that is a de-facto hang, and the
// sweep short-circuits the point: every trial is recorded as a timeout
// at the default cap (status = "timeout", converged_rate 0, parallel
// time = cap / n) with `connected` = 0 documenting why. An explicit
// budget (max_time != 0) bounds the cost the user chose, so those
// points run honestly and *measure* the coincidental-consensus rate
// (status stays "ok"; read it against connected = 0). Points already at
// consensus at t = 0 are exempt from the short-circuit.
//
// Execution is one work-stealing task graph over (point, trial-stripe)
// units (runner::TaskGraph): each unit owns a fixed contiguous stripe of
// one grid point's trials, and pool workers pull units from a shared
// cursor, so a worker that drew a cheap point immediately steals stripes
// of an expensive one — mixed grids of small and large points keep the
// pool full without a mode switch. The grain is derived from the run
// (runner::stripes_per_item): the points this run executes (after shard
// and resume selection), the trials per point and the pool's workers. A
// sweep of a few heavy points splits each point across every worker, so
// the first row arrives as soon as the whole pool can finish it; a sweep
// of many points keeps one unit per 8 trials of a point. Seeds derive
// from (master_seed, point index, trial index) — never from the stripe —
// so the decomposition is pure scheduling: CSV/JSONL output is
// byte-identical at any thread count and stripe width. Every engine runs
// one trial at a time through its registry factory.
//
// shuffle_points randomizes the *execution* order of points
// (deterministically from master_seed) for early coverage of the grid;
// completed cells are buffered and emitted in grid order regardless, so
// output order and content never depend on scheduling. The per-point
// aggregate is handed over as soon as it is next in grid order, so
// output appears incrementally during long sweeps. Workers only
// aggregate; the calling thread takes every cell that is ready at once as
// one batch (TaskGraph's emit range), so slow output (journal and CSV
// flushes) never holds up a worker, and a consumer that falls behind
// catches up with one larger batch. run() and run_point() hand the batch
// over one cell at a time.
//
// run_selected() runs an arbitrary increasing subset of grid indices and
// hands over whole batches — the substrate of the sweep service's
// `--shard i/N` partitioning and `--resume` journal replay
// (runner/sweep_service.hpp), which both rest on the same invariant: a
// cell's bytes are a pure function of (spec, master_seed, grid index).
//
// The comparable metric across engines is *parallel time*
// (sim::Engine::parallel_time): interactions/n for the asynchronous
// engines (every/skip/batched/graph) and rounds for the synchronous ones
// (sync counts re-adoption sub-rounds too).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/chunk_controller.hpp"
#include "pp/configuration.hpp"
#include "pp/degree_classes.hpp"
#include "pp/graph.hpp"
#include "sim/engine.hpp"
#include "sim/graph_spec.hpp"
#include "stats/summary.hpp"
#include "util/thread_pool.hpp"

namespace kusd::runner {

enum class BiasKind { kNone, kAdditive, kMultiplicative };

/// Initial-support profile axis: how the decided agents are distributed
/// over the k opinions before any bias is applied.
struct StartProfile {
  enum class Kind {
    kUniform,    ///< split as evenly as possible (the PR-2 behaviour)
    kGeometric,  ///< Configuration::geometric with the given ratio
  };
  Kind kind = Kind::kUniform;
  /// Ratio of the geometric profile, in (0, 1]; ignored for kUniform.
  double ratio = 1.0;

  bool operator==(const StartProfile&) const = default;
};

[[nodiscard]] const char* to_string(BiasKind kind);
/// CLI spelling of a start profile: "uniform" or "geometric:<ratio>".
[[nodiscard]] std::string to_string(const StartProfile& start);
/// Parse "uniform" or "geometric:<ratio>" (ratio required, in (0, 1]).
[[nodiscard]] std::optional<StartProfile> parse_start_profile(
    const std::string& name);

struct SweepSpec {
  std::vector<pp::Count> ns = {100000};
  std::vector<int> ks = {8};
  /// Start-profile axis (geometric profiles require BiasKind::kNone: the
  /// bias factories build their own support shapes).
  std::vector<StartProfile> starts = {StartProfile{}};
  BiasKind bias_kind = BiasKind::kNone;
  /// beta for kAdditive, alpha for kMultiplicative; ignored (single
  /// implicit point) for kNone.
  std::vector<double> bias_values = {0.0};
  /// sim::Registry engine names.
  std::vector<std::string> engines = {"skip"};
  /// Topology axis; multiplies only the engines that take a topology
  /// (EngineInfo::uses_graph_axis) — other engines contribute a single
  /// implicit point with "-" in the `graph` column.
  std::vector<sim::GraphSpec> graphs = {sim::GraphSpec{}};
  /// Fraction of agents starting undecided (sync requires 0).
  double undecided_fraction = 0.0;
  /// Per-trial cap in the engine's native time unit; 0 picks each
  /// engine's default budget. The defaults are tuned for complete-graph
  /// dynamics — slow-mixing topologies (e.g. `--graph cycle`) need an
  /// explicit, much larger budget to converge.
  std::uint64_t max_time = 0;
  int trials = 25;
  std::uint64_t master_seed = 1;
  /// Worker threads (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Chunk fraction for the batched engine (ChunkPolicy::kFixed).
  double batch_chunk_fraction = core::ChunkOptions{}.chunk_fraction;
  /// Chunk policy for the batched engine.
  core::ChunkPolicy batch_policy = core::ChunkPolicy::kFixed;
  /// Trials per (point, stripe) work unit, overriding the derived grain
  /// (see the file comment): each point is cut into ⌈trials/width⌉
  /// stripes. Unset, the grain is derived from the run's points, trials
  /// and workers. Pure scheduling: output is byte-identical at any width.
  /// Must be >= 1 when set.
  std::optional<std::size_t> stripe_width;
  /// Execute points in a deterministically shuffled order (early grid
  /// coverage). Output order and content are unaffected.
  bool shuffle_points = false;
};

struct SweepPoint {
  std::string engine;
  /// Topology of this point; nullopt for engines without a graph axis.
  std::optional<sim::GraphSpec> graph;
  pp::Count n = 0;
  int k = 0;
  StartProfile start;
  double bias = 0.0;
  /// Position in grid order; seeds the point's trial batch.
  std::size_t index = 0;
};

/// Aggregate of one grid point's trial batch.
struct SweepCell {
  SweepPoint point;
  BiasKind bias_kind = BiasKind::kNone;
  int trials = 0;
  /// Realized topology summary, computed once per point (nullopt for
  /// engines without a graph axis): the measured edge count and BFS
  /// connectivity for materialized topologies, the expected edge count
  /// and "no isolated vertices" for aggregated ones.
  std::optional<std::uint64_t> graph_edges;
  std::optional<bool> connected;
  /// "ok", or "timeout" when a disconnected topology short-circuited the
  /// point at the budget (see the file comment).
  std::string status = "ok";
  double converged_rate = 0.0;
  double plurality_win_rate = 0.0;
  /// Per-trial parallel time (see file comment for the per-engine unit).
  stats::Samples parallel_time;
  /// Wall-clock cost of this point. Progress information only — it is
  /// deliberately not part of the CSV/JSONL schema, which stays
  /// byte-deterministic for a given (spec, master_seed).
  double wall_seconds = 0.0;
};

// ---- One trial's description ----
// What every driver builds a trial from: the sweep per grid point,
// run_usd (`kusd run`) and `kusd trace` for their one point.

/// The initial configuration of `point` under `spec`'s bias kind and
/// undecided fraction (rounded to a count).
[[nodiscard]] pp::Configuration build_config(const SweepSpec& spec,
                                             const SweepPoint& point);

/// A point's realized topology in its engine's representation, plus the
/// summary the output schema records; empty without a graph axis.
struct PointTopology {
  std::optional<pp::InteractionGraph> graph;
  std::optional<pp::DegreeClassModel> degrees;
  std::optional<std::uint64_t> edges;
  std::optional<bool> connected;
};

/// Realize the topology of `point` (graph-axis engines only) from the
/// stream rng::stream_seed(seed, sim::kTopologyStream), the one an engine
/// given `seed` builds its own from, so sharing it changes no byte.
/// Aggregated engines (EngineInfo::aggregated_topology) get a degree-class
/// model, never an edge set, with an analytic summary (expected edges; no
/// isolated vertices as connectivity); the others get the graph, its
/// edge count and BFS connectivity.
[[nodiscard]] PointTopology realize_topology(const SweepPoint& point,
                                             std::uint64_t seed);

/// Engine options of a trial at `point`: the chunk schedule, and the
/// point's graph with `topology` shared read-only.
[[nodiscard]] sim::EngineOptions engine_options(
    const core::ChunkOptions& batch, const SweepPoint& point,
    const PointTopology& topology);

/// The per-trial native-time cap: `max_time`, or if 0 the engine's
/// published default (EngineInfo::default_budget).
[[nodiscard]] std::uint64_t trial_budget(std::uint64_t max_time,
                                         const SweepPoint& point);

/// The disconnected-topology rule: under the default budget (`max_time`
/// == 0) a trial on a disconnected topology, from a start not already at
/// consensus, is a foregone timeout at trial_budget (consensus would need
/// every component to align by coincidence) and is recorded as one, not
/// simulated. An explicit budget runs honestly.
[[nodiscard]] bool foregone_timeout(const PointTopology& topology,
                                    std::uint64_t max_time,
                                    const pp::Configuration& x0);

/// Append `text` to `out` as the body of a JSON string: `"` and `\`
/// backslash-escaped, control bytes as \u00XX, everything else as is.
/// The one escaper of the JSONL output and the sweep journal.
void append_json_escaped(std::string& out, std::string_view text);

class Sweep {
 public:
  explicit Sweep(SweepSpec spec);

  [[nodiscard]] const SweepSpec& spec() const { return spec_; }

  /// The grid in output order: engine-major, then graph, n, k, start,
  /// bias. Expanded once, by the constructor.
  [[nodiscard]] const std::vector<SweepPoint>& grid() const { return grid_; }

  /// Run one grid point (trials in parallel) and aggregate it. The second
  /// form reuses an existing worker pool, as run() does across the grid.
  [[nodiscard]] SweepCell run_point(const SweepPoint& point) const;
  [[nodiscard]] SweepCell run_point(util::ThreadPool& pool,
                                    const SweepPoint& point) const;

  /// Run the whole grid, streaming each cell in grid order (cells are
  /// buffered as needed; see the file comment). The callback runs on the
  /// calling thread, never concurrently with itself. If it throws, no
  /// later cell is emitted and workers stop claiming units; the
  /// exception is rethrown once in-flight units finish. If a trial
  /// throws, emission stops and the trial's exception is rethrown.
  void run(const std::function<void(const SweepCell&)>& on_cell) const;

  /// The cells ready at one emission step, in output order.
  using CellBatchFn = std::function<void(std::span<const SweepCell>)>;

  /// Run a subset of the grid — `indices` must be strictly increasing
  /// grid indices — streaming cells in that order, one ready batch per
  /// call (non-empty, contiguous, in order; same calling-thread and
  /// failure rules as run()). Each cell's bytes match what run() would
  /// emit for the same index: the substrate of sharding and resume.
  void run_selected(const std::vector<std::size_t>& indices,
                    const CellBatchFn& on_cells) const;

  /// Output schema shared by the CSV and JSONL emitters.
  [[nodiscard]] static std::vector<std::string> csv_header();
  [[nodiscard]] static std::vector<std::string> csv_row(const SweepCell& cell);
  /// csv_row into `row`, reusing its strings' capacity: the form a
  /// per-cell emitter calls.
  static void csv_row(const SweepCell& cell, std::vector<std::string>& row);
  [[nodiscard]] static std::string json_line(const SweepCell& cell);
  /// JSONL from an already-formatted csv_row (the journal replay path:
  /// resumed cells re-emit from recorded fields, not recomputation).
  [[nodiscard]] static std::string json_line(
      const std::vector<std::string>& row);

 private:
  SweepSpec spec_;
  std::vector<SweepPoint> grid_;
};

}  // namespace kusd::runner
