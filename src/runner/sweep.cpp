#include "runner/sweep.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <utility>

#include "core/budget.hpp"
#include "pp/degree_classes.hpp"
#include "rng/rng.hpp"
#include "runner/table.hpp"
#include "runner/task_graph.hpp"
#include "sim/registry.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace kusd::runner {

const char* to_string(BiasKind kind) {
  switch (kind) {
    case BiasKind::kNone: return "none";
    case BiasKind::kAdditive: return "additive";
    case BiasKind::kMultiplicative: return "multiplicative";
  }
  return "?";
}

std::string to_string(const StartProfile& start) {
  if (start.kind == StartProfile::Kind::kUniform) return "uniform";
  // Shortest round-trip formatting: the spelling in the output schema
  // must parse back to exactly the ratio that ran (0.5 stays "0.5",
  // awkward ratios keep every significant digit).
  char buffer[32];
  const auto result =
      std::to_chars(buffer, buffer + sizeof buffer, start.ratio);
  return "geometric:" + std::string(buffer, result.ptr);
}

std::optional<StartProfile> parse_start_profile(const std::string& name) {
  if (name == "uniform") return StartProfile{};
  const std::string prefix = "geometric:";
  if (name.rfind(prefix, 0) == 0) {
    const std::string value = name.substr(prefix.size());
    char* end = nullptr;
    const double ratio = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') return std::nullopt;
    if (!(ratio > 0.0 && ratio <= 1.0)) return std::nullopt;
    return StartProfile{StartProfile::Kind::kGeometric, ratio};
  }
  return std::nullopt;
}

pp::Configuration build_config(const SweepSpec& spec, const SweepPoint& p) {
  // Round (not truncate) so a fraction built from an absolute count
  // round-trips exactly: (u / n) * n == u.
  const auto undecided = static_cast<pp::Count>(std::llround(
      spec.undecided_fraction * static_cast<double>(p.n)));
  if (p.start.kind == StartProfile::Kind::kGeometric) {
    // Validated upfront: geometric starts only combine with kNone.
    return pp::Configuration::geometric(p.n, p.k, undecided, p.start.ratio);
  }
  switch (spec.bias_kind) {
    case BiasKind::kNone:
      return pp::Configuration::uniform(p.n, p.k, undecided);
    case BiasKind::kAdditive:
      return pp::Configuration::with_additive_bias(
          p.n, p.k, undecided, static_cast<pp::Count>(p.bias));
    case BiasKind::kMultiplicative:
      return pp::Configuration::with_multiplicative_bias(p.n, p.k, undecided,
                                                         p.bias);
  }
  KUSD_CHECK_MSG(false, "unreachable bias kind");
}

PointTopology realize_topology(const SweepPoint& point, std::uint64_t seed) {
  PointTopology out;
  if (!point.graph.has_value()) return out;
  const sim::EngineInfo* info = sim::Registry::instance().find(point.engine);
  if (info == nullptr || !info->uses_graph_axis) return out;
  rng::Rng topology_rng(rng::stream_seed(seed, sim::kTopologyStream));
  if (info->aggregated_topology) {
    out.degrees = sim::degree_class_model(*point.graph, point.n, topology_rng);
    out.edges = static_cast<std::uint64_t>(
        std::llround(out.degrees->expected_edges()));
    out.connected = !out.degrees->has_isolated_vertices();
  } else {
    out.graph = sim::build_graph(*point.graph, point.n, topology_rng);
    out.edges = out.graph->num_edges();
    out.connected = out.graph->is_connected();
  }
  return out;
}

sim::EngineOptions engine_options(const core::ChunkOptions& batch,
                                  const SweepPoint& point,
                                  const PointTopology& topology) {
  sim::EngineOptions options;
  options.batch = batch;
  if (point.graph.has_value()) {
    options.graph = *point.graph;
    if (topology.graph.has_value()) options.shared_graph = &*topology.graph;
    if (topology.degrees.has_value()) {
      options.shared_degrees = &*topology.degrees;
    }
  }
  return options;
}

std::uint64_t trial_budget(std::uint64_t max_time, const SweepPoint& point) {
  if (max_time != 0) return max_time;
  const sim::EngineInfo* info = sim::Registry::instance().find(point.engine);
  if (info != nullptr && info->default_budget) {
    return info->default_budget(point.n, point.k);
  }
  return core::default_interaction_cap(point.n, point.k);
}

bool foregone_timeout(const PointTopology& topology, std::uint64_t max_time,
                      const pp::Configuration& x0) {
  return topology.connected.has_value() && !*topology.connected &&
         max_time == 0 && !x0.is_consensus();
}

namespace {

struct TrialOutcome {
  double parallel_time = 0.0;
  bool converged = false;
  bool plurality_won = false;
};

TrialOutcome run_one(const SweepSpec& spec, const SweepPoint& point,
                     const pp::Configuration& x0,
                     const sim::EngineOptions& options, std::uint64_t seed) {
  const auto engine =
      sim::Registry::instance().create(point.engine, x0, seed, options);
  TrialOutcome out;
  out.converged = engine->run_to_consensus(
      spec.max_time != 0 ? spec.max_time : engine->default_budget());
  out.parallel_time = engine->parallel_time();
  out.plurality_won =
      out.converged && engine->consensus_opinion() == x0.argmax();
  return out;
}

SweepCell aggregate_cell(const SweepSpec& spec, const SweepPoint& point,
                         const std::vector<TrialOutcome>& outcomes,
                         double wall_seconds) {
  SweepCell cell;
  cell.point = point;
  cell.bias_kind = spec.bias_kind;
  cell.trials = spec.trials;
  cell.parallel_time.reserve(outcomes.size());
  int converged = 0, won = 0;
  for (const auto& o : outcomes) {
    cell.parallel_time.add(o.parallel_time);
    converged += o.converged ? 1 : 0;
    won += o.plurality_won ? 1 : 0;
  }
  const double denom = outcomes.empty() ? 1.0 : static_cast<double>(
                                                    outcomes.size());
  cell.converged_rate = static_cast<double>(converged) / denom;
  cell.plurality_win_rate = static_cast<double>(won) / denom;
  cell.wall_seconds = wall_seconds;
  return cell;
}

/// Per-point execution state, initialized by whichever worker first
/// reaches one of the point's stripes (std::call_once) and read-only to
/// every later stripe; the outcome slots are written stripe-disjointly.
/// When the last stripe finishes, the state shrinks to the point's
/// aggregated cell, which waits there until the emitter takes it.
struct PointState {
  std::once_flag once;
  std::optional<pp::Configuration> x0;
  PointTopology topology;
  /// Every trial's engine options, sharing `topology`.
  sim::EngineOptions options;
  std::uint64_t point_seed = 0;
  /// Disconnected under the default budget: outcomes pre-filled with
  /// timeouts at init, stripes no-op.
  bool short_circuit = false;
  std::vector<TrialOutcome> outcomes;
  util::Stopwatch watch;
  SweepCell cell;
};

/// The states of one run's points, in blocks: a block is allocated when a
/// worker first reaches one of its points and released once all of its
/// cells are emitted. Memory follows the points in flight, a block at a
/// time, and no point costs an allocation of its own.
class PointStates {
 public:
  explicit PointStates(std::size_t count)
      : count_((count + kBlockPoints - 1) / kBlockPoints),
        blocks_(std::make_unique<std::atomic<Block*>[]>(count_)) {}
  ~PointStates() {
    for (std::size_t b = released_; b < count_; ++b) delete blocks_[b].load();
  }
  PointStates(const PointStates&) = delete;
  PointStates& operator=(const PointStates&) = delete;

  /// The state of point `item`, for a worker about to run one of its
  /// stripes: its block is allocated if no one has yet. A point that
  /// opens a block also readies the next one, so the workers that move
  /// on to it together find it there instead of racing to allocate it.
  PointState& start(std::size_t item) {
    const std::size_t block = item / kBlockPoints;
    if (item % kBlockPoints == 0 && block + 1 < count_) ensure(block + 1);
    return (*ensure(block))[item % kBlockPoints];
  }

  /// The state of a point that start() has reached.
  PointState& operator[](std::size_t item) {
    return (*blocks_[item / kBlockPoints].load(std::memory_order_acquire))
        [item % kBlockPoints];
  }

  /// Release the blocks that lie wholly below `end`. Only the emitter
  /// calls this, once every point below `end` is emitted.
  void release_below(std::size_t end) {
    for (; released_ < end / kBlockPoints; ++released_) {
      delete blocks_[released_].exchange(nullptr);
    }
  }

 private:
  static constexpr std::size_t kBlockPoints = 64;
  using Block = std::array<PointState, kBlockPoints>;

  /// Block `b`, allocated by whichever thread first finds it missing; a
  /// thread that loses the race drops its copy and takes the winner's.
  Block* ensure(std::size_t b) {
    Block* block = blocks_[b].load(std::memory_order_acquire);
    if (block != nullptr) return block;
    auto fresh = std::make_unique<Block>();
    if (blocks_[b].compare_exchange_strong(block, fresh.get(),
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      return fresh.release();
    }
    return block;
  }

  std::size_t count_;
  /// Owning: each non-null entry is deleted by release_below or the
  /// destructor.
  std::unique_ptr<std::atomic<Block*>[]> blocks_;
  std::size_t released_ = 0;
};

std::vector<SweepPoint> expand_grid(const SweepSpec& spec) {
  // With no bias, the bias axis is a single implicit point — listing
  // several values would just duplicate work. Likewise the graph axis
  // multiplies only engines that take a topology.
  const std::size_t bias_points =
      spec.bias_kind == BiasKind::kNone ? 1 : spec.bias_values.size();
  const auto& registry = sim::Registry::instance();
  const auto graph_axis_of = [&](const std::string& engine) {
    const sim::EngineInfo* info = registry.find(engine);
    return info != nullptr && info->uses_graph_axis;
  };
  const std::size_t block = spec.ns.size() * spec.ks.size() *
                            spec.starts.size() * bias_points;
  std::size_t total = 0;
  for (const auto& engine : spec.engines) {
    total += (graph_axis_of(engine) ? spec.graphs.size() : 1) * block;
  }
  std::vector<SweepPoint> points;
  points.reserve(total);
  std::size_t index = 0;
  for (const auto& engine : spec.engines) {
    const bool graph_axis = graph_axis_of(engine);
    const std::size_t graph_points = graph_axis ? spec.graphs.size() : 1;
    for (std::size_t g = 0; g < graph_points; ++g) {
      for (const auto n : spec.ns) {
        for (const auto k : spec.ks) {
          for (const auto& start : spec.starts) {
            for (std::size_t b = 0; b < bias_points; ++b) {
              const double bias = spec.bias_kind == BiasKind::kNone
                                      ? 0.0
                                      : spec.bias_values[b];
              points.push_back(SweepPoint{
                  engine,
                  graph_axis ? std::optional<sim::GraphSpec>(spec.graphs[g])
                             : std::nullopt,
                  n, k, start, bias, index++});
            }
          }
        }
      }
    }
  }
  return points;
}

/// The one execution path of every Sweep run: one task graph over
/// (point, stripe) units, with each ready batch of cells emitted in order
/// on the calling thread. `point_at(i)` is the i-th of the `count` points
/// to run. Point states live in PointStates blocks, so memory follows the
/// points in flight, not the size of the grid.
template <class PointAt>
void run_points(const SweepSpec& spec, util::ThreadPool& pool,
                std::size_t count, const PointAt& point_at,
                const Sweep::CellBatchFn& on_cells) {
  if (count == 0) return;
  const auto trials = static_cast<std::size_t>(spec.trials);
  // Stripe counts are a function of the spec, the points run and the pool
  // size — never of realized topology or results — so the unit list is
  // deterministic, and it only schedules: no stripe enters a seed.
  const std::uint32_t stripes_per_point = stripes_per_item(
      trials, count, pool.num_threads(), spec.stripe_width);
  std::vector<std::uint32_t> stripes(count, stripes_per_point);

  std::vector<std::size_t> order;
  if (spec.shuffle_points) {
    // The execution order is itself a seeded derivation (the all-ones
    // stream id cannot collide with a grid index), so shuffled sweeps are
    // as reproducible as ordered ones — and output order is unaffected:
    // emission below is by list position, not completion order.
    order.resize(count);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng::Rng shuffle_rng(
        rng::stream_seed(spec.master_seed, ~std::uint64_t{0}));
    shuffle_rng.shuffle(std::span<std::size_t>(order));
  }

  const TaskGraph graph(std::move(stripes), std::move(order));

  PointStates states(count);

  const auto init_point = [&](const SweepPoint& point, PointState& st) {
    st.watch.reset();
    st.point_seed = rng::stream_seed(spec.master_seed, point.index);
    st.topology = realize_topology(point, st.point_seed);
    st.options = engine_options(
        core::ChunkOptions{spec.batch_chunk_fraction, spec.batch_policy},
        point, st.topology);
    st.x0 = build_config(spec, point);
    st.outcomes.resize(trials);
    if (foregone_timeout(st.topology, spec.max_time, *st.x0)) {
      // Most trials would grind through the enormous default cap — the
      // de-facto hang this guard exists for — so they are recorded as
      // timeouts at that cap. An explicit --budget runs honestly and
      // *measures* the coincidental-consensus rate instead.
      TrialOutcome out;
      out.parallel_time =
          static_cast<double>(trial_budget(spec.max_time, point)) /
          static_cast<double>(point.n);
      std::fill(st.outcomes.begin(), st.outcomes.end(), out);
      st.short_circuit = true;
    }
  };

  const auto run_stripe = [&](const TaskUnit& unit) {
    const SweepPoint& point = point_at(unit.item);
    PointState& st = states.start(unit.item);
    std::call_once(st.once, [&] { init_point(point, st); });
    if (st.short_circuit || trials == 0) return;
    const auto [begin, end] =
        stripe_trials(trials, stripes_per_point, unit.stripe);
    for (std::size_t t = begin; t < end; ++t) {
      st.outcomes[t] = run_one(spec, point, *st.x0, st.options,
                               rng::stream_seed(st.point_seed, t));
    }
  };

  // Workers aggregate each completed point into its cell; the calling
  // thread hands each ready run of cells over as one batch through the
  // task graph's emit hook, so the callback runs serially, off the
  // workers and outside any lock: output order and content are those of
  // a sequential run, byte for byte, at any thread count and stripe
  // width.
  const auto on_point_done = [&](std::size_t item) {
    PointState& st = states[item];
    st.cell = aggregate_cell(spec, point_at(item), st.outcomes,
                             st.watch.seconds());
    st.cell.graph_edges = st.topology.edges;
    st.cell.connected = st.topology.connected;
    if (st.short_circuit) st.cell.status = "timeout";
    // Drop the point's working set now: its cell may wait a while for
    // the cells before it.
    st.outcomes = std::vector<TrialOutcome>();
    st.x0.reset();
    st.topology = PointTopology();
  };
  std::vector<SweepCell> batch;
  const auto emit = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      batch.push_back(std::move(states[i].cell));
    }
    states.release_below(end);
    on_cells(batch);
    // Release the emitted cells' trial samples.
    batch.clear();
  };

  graph.run(pool, run_stripe, on_point_done, emit);
}

}  // namespace

Sweep::Sweep(SweepSpec spec) : spec_(std::move(spec)) {
  KUSD_CHECK_MSG(spec_.trials >= 0, "sweep: negative trial count");
  KUSD_CHECK_MSG(!spec_.ns.empty() && !spec_.ks.empty() &&
                     !spec_.starts.empty() && !spec_.bias_values.empty() &&
                     !spec_.engines.empty() && !spec_.graphs.empty(),
                 "sweep: every axis needs at least one value");
  KUSD_CHECK_MSG(
      spec_.undecided_fraction >= 0.0 && spec_.undecided_fraction < 1.0,
      "sweep: undecided fraction must be in [0, 1)");
  KUSD_CHECK_MSG(spec_.stripe_width.value_or(1) >= 1,
                 "sweep: stripe_width must be at least 1");
  // Engine constraints come from registry metadata, so the sweep needs no
  // per-engine knowledge. Fail the whole sweep upfront rather than
  // aborting mid-grid after other points already streamed.
  const auto& registry = sim::Registry::instance();
  bool any_graph_engine = false;
  for (const auto& name : spec_.engines) {
    const sim::EngineInfo* info = registry.find(name);
    KUSD_CHECK_MSG(info != nullptr,
                   "sweep: unknown engine '" + name +
                       "' (registered: " + registry.names_joined() + ")");
    any_graph_engine = any_graph_engine || info->uses_graph_axis;
    KUSD_CHECK_MSG(!info->requires_decided_start ||
                       spec_.undecided_fraction == 0.0,
                   "sweep: engine '" + name +
                       "' starts fully decided (undecided fraction must "
                       "be 0)");
    if (info->max_n != 0) {
      for (const auto n : spec_.ns) {
        KUSD_CHECK_MSG(n <= info->max_n,
                       "sweep: engine '" + name + "' caps n at " +
                           std::to_string(info->max_n));
      }
    }
    KUSD_CHECK_MSG(!info->uses_chunk_options ||
                       (spec_.batch_chunk_fraction > 0.0 &&
                        spec_.batch_chunk_fraction <= 1.0),
                   "sweep: batched chunk fraction must be in (0, 1]");
  }
  KUSD_CHECK_MSG(
      any_graph_engine ||
          spec_.graphs == std::vector<sim::GraphSpec>{sim::GraphSpec{}},
      "sweep: the graph axis requires a topology-taking engine "
      "(--engine graph or graph-batched)");
  if (any_graph_engine) {
    for (const auto& graph : spec_.graphs) {
      for (const auto n : spec_.ns) sim::check_graph_spec(graph, n);
    }
  }
  for (const auto& start : spec_.starts) {
    if (start.kind == StartProfile::Kind::kGeometric) {
      KUSD_CHECK_MSG(start.ratio > 0.0 && start.ratio <= 1.0,
                     "sweep: geometric start ratio must be in (0, 1]");
      KUSD_CHECK_MSG(spec_.bias_kind == BiasKind::kNone,
                     "sweep: geometric starts define their own support "
                     "shape and exclude a bias axis");
    }
  }
  for (const double bias : spec_.bias_values) {
    switch (spec_.bias_kind) {
      case BiasKind::kNone:
        break;
      case BiasKind::kAdditive:
        // beta is an agent count: casting a negative/huge double to
        // pp::Count in build_config would be UB.
        KUSD_CHECK_MSG(bias >= 0.0 && bias <= 1e18 &&
                           bias == std::floor(bias),
                       "sweep: additive beta must be a non-negative count");
        break;
      case BiasKind::kMultiplicative:
        KUSD_CHECK_MSG(std::isfinite(bias) && bias > 1.0,
                       "sweep: multiplicative alpha must exceed 1");
        break;
    }
  }
  grid_ = expand_grid(spec_);
  // Construct every initial configuration once now, so any infeasible
  // (n, k, start, bias) combination (e.g. beta exceeding the decided
  // agents of the smallest n) fails here instead of mid-grid. A
  // configuration depends on nothing else, so each combination is built
  // once, in grid order, however many engines and graphs repeat it.
  const std::size_t bias_points =
      spec_.bias_kind == BiasKind::kNone ? 1 : spec_.bias_values.size();
  SweepPoint point;
  for (const auto n : spec_.ns) {
    point.n = n;
    for (const auto k : spec_.ks) {
      point.k = k;
      for (const auto& start : spec_.starts) {
        point.start = start;
        for (std::size_t b = 0; b < bias_points; ++b) {
          point.bias = spec_.bias_kind == BiasKind::kNone
                           ? 0.0
                           : spec_.bias_values[b];
          const auto config = build_config(spec_, point);
          // Configuration itself allows decided == 0, but no engine
          // converges from it (an undecided fraction can round up to the
          // whole population at small n).
          KUSD_CHECK_MSG(config.decided() >= 1,
                         "sweep: undecided fraction leaves no decided "
                         "agents at n = " + std::to_string(n));
        }
      }
    }
  }
}

SweepCell Sweep::run_point(const SweepPoint& point) const {
  util::ThreadPool pool(spec_.threads);
  return run_point(pool, point);
}

SweepCell Sweep::run_point(util::ThreadPool& pool,
                           const SweepPoint& point) const {
  // The single-point form goes through the same task-graph path as whole
  // grids — one code path is what keeps cell bytes identical everywhere.
  std::optional<SweepCell> cell;
  run_points(
      spec_, pool, 1, [&point](std::size_t) -> const SweepPoint& {
        return point;
      },
      [&cell](std::span<const SweepCell> cells) { cell = cells.front(); });
  return *std::move(cell);
}

void Sweep::run(const std::function<void(const SweepCell&)>& on_cell) const {
  // One pool for the whole grid: workers are not respawned per point.
  util::ThreadPool pool(spec_.threads);
  run_points(
      spec_, pool, grid_.size(),
      [this](std::size_t i) -> const SweepPoint& { return grid_[i]; },
      [&on_cell](std::span<const SweepCell> cells) {
        for (const SweepCell& cell : cells) on_cell(cell);
      });
}

void Sweep::run_selected(const std::vector<std::size_t>& indices,
                         const CellBatchFn& on_cells) const {
  for (std::size_t i = 0; i < indices.size(); ++i) {
    KUSD_CHECK_MSG(indices[i] < grid_.size(),
                   "sweep: selected grid index out of range");
    KUSD_CHECK_MSG(i == 0 || indices[i] > indices[i - 1],
                   "sweep: selected grid indices must be strictly increasing");
  }
  util::ThreadPool pool(spec_.threads);
  run_points(
      spec_, pool, indices.size(),
      [&](std::size_t i) -> const SweepPoint& { return grid_[indices[i]]; },
      on_cells);
}

namespace {

/// How json_line spells a column's field: a quoted name; a number that
/// CSV spells "-" and JSON `null` when absent (engines without a graph
/// axis); or a bare number.
enum class JsonKind { kName, kOptionalNumber, kNumber };

struct JsonColumn {
  std::string key;
  JsonKind kind = JsonKind::kNumber;
};

/// The output schema with each column's JSON spelling.
std::vector<JsonColumn> classify_columns() {
  std::vector<JsonColumn> columns;
  for (auto& name : Sweep::csv_header()) {
    JsonKind kind = JsonKind::kNumber;
    if (name == "engine" || name == "graph" || name == "start" ||
        name == "bias_kind" || name == "status") {
      kind = JsonKind::kName;
    } else if (name == "graph_edges" || name == "connected") {
      kind = JsonKind::kOptionalNumber;
    }
    columns.push_back(JsonColumn{std::move(name), kind});
  }
  return columns;
}

}  // namespace

void append_json_escaped(std::string& out, std::string_view text) {
  std::size_t plain = 0;  // start of the run not yet appended
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c != '"' && c != '\\' && c >= 0x20) continue;
    out.append(text, plain, i - plain);
    plain = i + 1;
    if (c >= 0x20) {
      out += '\\';
      out += static_cast<char>(c);
    } else {
      out += "\\u00";
      out += "0123456789abcdef"[c >> 4];
      out += "0123456789abcdef"[c & 0xF];
    }
  }
  out.append(text, plain);
}

std::vector<std::string> Sweep::csv_header() {
  return {"engine",
          "graph",
          "graph_edges",
          "connected",
          "n",
          "k",
          "start",
          "bias_kind",
          "bias",
          "trials",
          "status",
          "converged_rate",
          "plurality_win_rate",
          "pt_mean",
          "pt_stddev",
          "pt_median",
          "pt_p95"};
}

std::vector<std::string> Sweep::csv_row(const SweepCell& cell) {
  static const std::size_t width = csv_header().size();
  std::vector<std::string> row;
  row.reserve(width);
  csv_row(cell, row);
  return row;
}

void Sweep::csv_row(const SweepCell& cell, std::vector<std::string>& row) {
  std::size_t column = 0;
  const auto put = [&](std::string_view text) {
    if (column == row.size()) row.emplace_back();
    row[column++].assign(text);
  };
  char digits[24];
  const auto integer = [&digits](auto value) {
    return std::string_view(
        digits, std::to_chars(digits, digits + sizeof digits, value).ptr);
  };
  const auto& pt = cell.parallel_time;
  put(cell.point.engine);
  put(cell.point.graph.has_value() ? sim::to_string(*cell.point.graph) : "-");
  put(cell.graph_edges.has_value() ? integer(*cell.graph_edges) : "-");
  put(cell.connected.has_value() ? (*cell.connected ? "1" : "0") : "-");
  put(integer(cell.point.n));
  put(integer(cell.point.k));
  put(to_string(cell.point.start));
  put(to_string(cell.bias_kind));
  put(fmt(cell.point.bias, 6));
  put(integer(cell.trials));
  put(cell.status);
  put(fmt(cell.converged_rate, 4));
  put(fmt(cell.plurality_win_rate, 4));
  put(fmt(pt.empty() ? 0.0 : pt.mean(), 4));
  put(fmt(pt.empty() ? 0.0 : pt.stddev(), 4));
  put(fmt(pt.empty() ? 0.0 : pt.median(), 4));
  put(fmt(pt.empty() ? 0.0 : pt.quantile(0.95), 4));
  row.resize(column);
}

std::string Sweep::json_line(const SweepCell& cell) {
  return json_line(csv_row(cell));
}

std::string Sweep::json_line(const std::vector<std::string>& row) {
  static const std::vector<JsonColumn> columns = classify_columns();
  KUSD_CHECK_MSG(row.size() == columns.size(),
                 "sweep: json_line row width does not match the schema");
  std::string line;
  line += '{';
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) line += ',';
    line += '"';
    line += columns[i].key;
    line += "\":";
    if (columns[i].kind == JsonKind::kName) {
      line += '"';
      append_json_escaped(line, row[i]);
      line += '"';
    } else if (columns[i].kind == JsonKind::kOptionalNumber &&
               row[i] == "-") {
      line += "null";
    } else {
      line += row[i];
    }
  }
  line += '}';
  return line;
}

}  // namespace kusd::runner
