// kusd — command-line front end for the library.
//
// Subcommands:
//   run       one USD run, printed phases and outcome
//   sweep     grid sweep over (engine, n, k, bias) with parallel trials,
//             streamed to a table and optionally CSV / JSONL; supports
//             deterministic sharding (--shard i/N), cell-granular
//             checkpoints (--journal) and crash resume (--resume)
//   merge     validate shard journals (same sweep, complete, gap-free)
//             and concatenate them into the unsharded CSV / JSONL
//   trace     record a trajectory CSV for plotting
//   exact     exact win probability / expected time (small n, k)
//
// Examples:
//   kusd run --n 100000 --k 8
//   kusd run --n 65536 --k 4 --bias additive --beta 3000 --seed 7
//   kusd sweep --n 32768 --k 8 --bias multiplicative --alpha 2 --trials 50
//   kusd sweep --n 1e5,1e6 --k 8,32 --engine skip,batched,gossip
//        --trials 20 --out sweep.csv --json sweep.jsonl
//   kusd sweep --n 1e5 --k 2,4,8 --shard 0/3 --journal shard0.journal
//        --out shard0.csv
//   kusd sweep --resume shard0.journal --n 1e5 --k 2,4,8 --shard 0/3
//        --out shard0.csv
//   kusd merge --inputs shard0.journal,shard1.journal,shard2.journal
//        --out sweep.csv
//   kusd trace --n 100000 --k 8 --out trace.csv
//   kusd exact --n 12 --k 3 --support 6,4,2
#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/usd_exact.hpp"
#include "runner/run.hpp"
#include "pp/configuration.hpp"
#include "pp/trajectory.hpp"
#include "runner/csv.hpp"
#include "runner/sweep.hpp"
#include "runner/sweep_service.hpp"
#include "runner/table.hpp"
#include "sim/registry.hpp"

namespace {

using namespace kusd;

// The registry names whose engines have `flag` set, joined for error
// messages: "graph, graph-batched" for `uses_graph_axis` with the builtins.
std::string engine_names_with(bool sim::EngineInfo::*flag) {
  const auto& registry = sim::Registry::instance();
  std::string names;
  for (const auto& name : registry.names()) {
    if (!(registry.find(name)->*flag)) continue;
    if (!names.empty()) names += ", ";
    names += name;
  }
  return names;
}

[[noreturn]] void usage(int exit_code = 2) {
  // Engines come from the registry, so a newly registered engine shows up
  // here without touching the CLI.
  const std::string engines = sim::Registry::instance().names_joined();
  std::fprintf(
      exit_code == 0 ? stdout : stderr,
      "usage: kusd <run|sweep|merge|trace|exact> [options]\n"
      "  common:  --n N --k K --undecided U --seed S\n"
      "  bias:    --bias none|additive|multiplicative [--beta B | --alpha A]\n"
      "  engines: %s\n"
      "  run:     --engine NAME [--graph SPEC]\n"
      "  sweep:   grid axes take comma lists (scientific notation ok):\n"
      "           --n N1,N2,... --k K1,... --engine NAME[,...]\n"
      "           --graph complete|cycle|regular:<d>|er:<p>|er:auto[,...]\n"
      "             (topology axis; requires a graph engine: graph = exact\n"
      "             per-edge, graph-batched = degree-aggregated for huge n)\n"
      "           --start uniform|geometric:<ratio>[,...]\n"
      "           [--beta B1,... | --alpha A1,...] --trials T --ufrac F\n"
      "           --budget B (per-trial native-time cap; 0 = engine default,\n"
      "             raise it for slow topologies like --graph cycle)\n"
      "           --threads W --chunk-policy fixed|adaptive\n"
      "           --chunk F (fixed policy only: chunk as a fraction of n)\n"
      "           --stripe-width T (trials per work-stealing unit; default\n"
      "             derived from points, trials and threads)\n"
      "           --shuffle-points 0|1 (shuffled execution order;\n"
      "             output order and bytes are unaffected)\n"
      "           --shard I/N (run grid block I of N; shard outputs\n"
      "             concatenate to the unsharded output byte-for-byte)\n"
      "           --journal FILE (checkpoint each cell; survives kills)\n"
      "           --resume FILE (replay a journal's cells, compute the\n"
      "             rest, append to the same journal; same flags required)\n"
      "           --out FILE.csv --json FILE.jsonl\n"
      "  merge:   --inputs J1,J2,... (shard journals; validated: same\n"
      "             sweep digest, every shard once, complete, no gaps)\n"
      "           --out FILE.csv --json FILE.jsonl\n"
      "  trace:   --out FILE.csv\n"
      "  exact:   --support x1,x2,...  (n <= ~20, small k)\n",
      engines.c_str());
  std::exit(exit_code);
}

// Strict number parsing for every subcommand: a typo'd value must fail
// loudly, not run a different experiment.
double parse_number_or_usage(const std::string& item) {
  char* end = nullptr;
  const double value = std::strtod(item.c_str(), &end);
  if (end == item.c_str() || *end != '\0') {
    std::fprintf(stderr, "cannot parse number '%s'\n", item.c_str());
    usage();
  }
  return value;
}

std::uint64_t parse_u64_or_usage(const std::string& item) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value =
      item.empty() || item[0] == '-'
          ? 0
          : std::strtoull(item.c_str(), &end, 10);
  if (end == nullptr || end == item.c_str() || *end != '\0' ||
      errno == ERANGE) {
    std::fprintf(stderr, "cannot parse integer '%s'\n", item.c_str());
    usage();
  }
  return value;
}

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : parse_u64_or_usage(it->second);
  }
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback
                               : parse_number_or_usage(it->second);
  }
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  // A comma list. An empty item in a given value ("5,,6", "2,", ",100",
  // or "" itself) is a usage error, not a skipped value that would run a
  // grid other than the one typed. An absent flag whose fallback is empty
  // lists no items.
  [[nodiscard]] std::vector<std::string> get_list(
      const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    if (it == options.end() && fallback.empty()) return {};
    const std::string& spec = it == options.end() ? fallback : it->second;
    std::vector<std::string> items;
    for (std::size_t pos = 0;;) {
      const std::size_t next = std::min(spec.find(',', pos), spec.size());
      if (next == pos) {
        std::fprintf(stderr, "--%s has an empty item in '%s'\n",
                     key.c_str(), spec.c_str());
        usage();
      }
      items.push_back(spec.substr(pos, next - pos));
      if (next == spec.size()) return items;
      pos = next + 1;
    }
  }
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    const std::string& v = it->second;
    if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
    if (v == "0" || v == "false" || v == "no" || v == "off") return false;
    std::fprintf(stderr, "cannot parse boolean '%s' for --%s\n", v.c_str(),
                 key.c_str());
    usage();
  }
};

Args parse(int argc, char** argv) {
  if (argc < 2) usage();
  Args args;
  args.command = argv[1];
  if (args.command == "--help" || args.command == "-h" ||
      args.command == "help") {
    usage(0);
  }
  const auto is_help = [](const char* arg) {
    return std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0;
  };
  for (int i = 2; i < argc; i += 2) {
    if (is_help(argv[i])) usage(0);
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) usage();
    if (is_help(argv[i + 1])) usage(0);
    args.options[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

// Every subcommand rejects keys outside its own `known` set: a typo'd
// flag (`--seeed 5` running seed 1, `--trails 500` running the default 25
// trials for hours) or one the subcommand never reads must fail loudly,
// not run a different experiment. The bias-value flag must also match
// the bias kind.
void require_known_options(const Args& args,
                           const std::set<std::string>& known) {
  const std::string bias_kind = args.get_string("bias", "none");
  for (const auto& [key, value] : args.options) {
    if (known.count(key) == 0) {
      std::fprintf(stderr, "unknown %s option --%s\n", args.command.c_str(),
                   key.c_str());
      usage();
    }
    if ((key == "beta" && bias_kind != "additive") ||
        (key == "alpha" && bias_kind != "multiplicative")) {
      std::fprintf(stderr, "--%s requires --bias %s\n", key.c_str(),
                   key == "beta" ? "additive" : "multiplicative");
      usage();
    }
  }
}

// The --k bound of every subcommand: narrowing a larger value to int
// would silently run a different k.
int checked_k(std::uint64_t k) {
  if (k > (std::uint64_t{1} << 30)) {
    std::fprintf(stderr, "--k value too large\n");
    usage();
  }
  return static_cast<int>(k);
}

// Append the decimal spelling of an integer, as printf's %d/%zu/%llu
// give it.
template <class Integer>
void append_number(std::string& out, Integer value) {
  char digits[24];
  out.append(digits, std::to_chars(digits, digits + sizeof digits, value).ptr);
}

// The CSV and JSONL outputs of `sweep` and `merge`. Each file is opened
// at the first row (or by open()): a run rejected before it emits anything
// leaves files from an earlier run as they were, and a merge that fails
// validation leaves no file behind.
class RowSink {
 public:
  RowSink(std::string csv_path, std::string json_path)
      : csv_path_(std::move(csv_path)), json_path_(std::move(json_path)) {}

  void open() {
    if (!csv_path_.empty() && !csv_) {
      csv_.emplace(csv_path_, runner::Sweep::csv_header());
    }
    if (!json_path_.empty() && !json_) {
      json_.reset(std::fopen(json_path_.c_str(), "w"));
      if (!json_) throw std::runtime_error("cannot open " + json_path_);
    }
  }

  void write(const std::vector<std::string>& row) {
    open();
    if (csv_) csv_->write_row(row);
    if (json_) {
      std::fprintf(json_.get(), "%s\n",
                   runner::Sweep::json_line(row).c_str());
    }
  }

  void flush() {
    if (csv_) csv_->flush();
    if (json_) std::fflush(json_.get());
  }

  /// Flush and close both outputs. A disk-full or I/O failure is reported
  /// on stderr and returns 1, so a truncated file is never advertised as
  /// complete output; on success, print `summary` and the output paths.
  int close(const std::string& summary) {
    int rc = 0;
    // Flush before asking the stream: the last buffered rows are written
    // only now, and that write can fail too.
    if (csv_) csv_->flush();
    if (csv_ && !csv_->ok()) {
      std::fprintf(stderr, "error: writing %s failed\n", csv_path_.c_str());
      rc = 1;
    }
    if (json_ && std::fclose(json_.release()) != 0) {
      std::fprintf(stderr, "error: writing %s failed\n", json_path_.c_str());
      rc = 1;
    }
    if (rc != 0) return rc;
    std::printf("%s\n", summary.c_str());
    if (!csv_path_.empty()) std::printf("csv: %s\n", csv_path_.c_str());
    if (!json_path_.empty()) std::printf("jsonl: %s\n", json_path_.c_str());
    return 0;
  }

 private:
  std::string csv_path_;
  std::string json_path_;
  std::optional<runner::CsvWriter> csv_;
  struct Close {
    void operator()(std::FILE* file) const { std::fclose(file); }
  };
  std::unique_ptr<std::FILE, Close> json_;
};

// Counts accept scientific notation ("1e6") for ergonomic large-n sweeps.
std::vector<pp::Count> parse_count_list(const Args& args,
                                        const std::string& key,
                                        const std::string& fallback) {
  std::vector<pp::Count> out;
  for (const auto& item : args.get_list(key, fallback)) {
    const double value = parse_number_or_usage(item);
    // Cap at 2^53: beyond that the double round-trip silently rounds the
    // literal, which is exactly the quiet size drift this parser rejects.
    if (!(value >= 1.0 && value <= 9007199254740992.0) ||
        value != std::floor(value)) {
      std::fprintf(stderr, "count '%s' out of range or not an integer\n",
                   item.c_str());
      usage();
    }
    out.push_back(static_cast<pp::Count>(value));
  }
  return out;
}

std::vector<double> parse_double_list(const Args& args,
                                      const std::string& key,
                                      const std::string& fallback) {
  std::vector<double> out;
  for (const auto& item : args.get_list(key, fallback)) {
    out.push_back(parse_number_or_usage(item));
  }
  return out;
}

// The axes that describe a trial — --n --k --undecided --bias --beta
// --alpha --engine --graph, and sweep's --ufrac — in the sweep's
// spellings (comma lists, counts as 1e5) and bounds. `run` and `trace`
// read theirs here too, as one-point grids (single_point_sweep); a
// subcommand's own `known` set decides which of these flags it accepts.
runner::SweepSpec parse_trial_axes(const Args& args) {
  runner::SweepSpec spec;
  spec.ns = parse_count_list(args, "n", "100000");
  spec.ks.clear();
  for (const auto k : parse_count_list(args, "k", "8")) {
    spec.ks.push_back(checked_k(k));
  }
  if (spec.ns.empty() || spec.ks.empty()) usage();

  const std::string bias_kind = args.get_string("bias", "none");
  if (bias_kind == "additive") {
    spec.bias_kind = runner::BiasKind::kAdditive;
    spec.bias_values = parse_double_list(
        args, "beta", std::to_string(spec.ns.front() / 100));
  } else if (bias_kind == "multiplicative") {
    spec.bias_kind = runner::BiasKind::kMultiplicative;
    spec.bias_values = parse_double_list(args, "alpha", "2");
  } else if (bias_kind != "none") {
    usage();
  }

  const auto& registry = sim::Registry::instance();
  spec.engines.clear();
  bool any_graph_engine = false;
  for (const auto& name : args.get_list("engine", "skip")) {
    const sim::EngineInfo* info = registry.find(name);
    if (info == nullptr) {
      std::fprintf(stderr, "unknown engine '%s' (registered: %s)\n",
                   name.c_str(), registry.names_joined().c_str());
      usage();
    }
    any_graph_engine = any_graph_engine || info->uses_graph_axis;
    spec.engines.push_back(name);
  }
  if (spec.engines.empty()) usage();

  if (args.options.count("graph") != 0) {
    if (!any_graph_engine) {
      std::fprintf(
          stderr, "--graph requires a topology-taking engine (%s)\n",
          engine_names_with(&sim::EngineInfo::uses_graph_axis).c_str());
      usage();
    }
    spec.graphs.clear();
    for (const auto& name : args.get_list("graph", "")) {
      const auto graph = sim::parse_graph_spec(name);
      if (!graph) {
        std::fprintf(stderr,
                     "bad graph spec '%s' (want complete, cycle, "
                     "regular:<d>, er:<p> or er:auto)\n",
                     name.c_str());
        usage();
      }
      spec.graphs.push_back(*graph);
    }
    if (spec.graphs.empty()) usage();
  }

  spec.undecided_fraction = args.get_double("ufrac", 0.0);
  // --undecided (absolute count, shared with `run`) is honored for
  // single-n sweeps; a count is ambiguous across an n grid.
  if (args.options.count("undecided") != 0) {
    if (args.options.count("ufrac") != 0 || spec.ns.size() != 1) {
      std::fprintf(stderr,
                   "--undecided needs a single --n and excludes --ufrac; "
                   "use --ufrac for n grids\n");
      usage();
    }
    spec.undecided_fraction =
        static_cast<double>(args.get_u64("undecided", 0)) /
        static_cast<double>(spec.ns.front());
  }
  return spec;
}

// A one-point sweep of the trial `run` or `trace` describes: its
// constructor checks the point as it checks any grid (engine limits,
// topology, bias, a feasible start) before anything runs.
runner::Sweep single_point_sweep(const Args& args) {
  runner::Sweep sweep(parse_trial_axes(args));
  if (sweep.grid().size() != 1) {
    std::fprintf(stderr, "%s takes one value per option\n",
                 args.command.c_str());
    usage();
  }
  return sweep;
}

int cmd_run(const Args& args) {
  static const std::set<std::string> known = {
      "n", "k", "undecided", "bias", "beta", "alpha", "seed", "engine",
      "graph"};
  require_known_options(args, known);
  const runner::Sweep sweep = single_point_sweep(args);
  const runner::SweepPoint& point = sweep.grid().front();
  runner::RunOptions opts;
  opts.engine = point.engine;
  opts.graph = point.graph.value_or(sim::GraphSpec{});
  const auto result = runner::run_usd(runner::build_config(sweep.spec(), point),
                                      args.get_u64("seed", 1), opts);
  if (!result.converged) {
    std::printf("no consensus within the time cap\n");
    return 1;
  }
  std::printf("consensus on opinion %d after %llu native time units "
              "(parallel time %.1f)\n",
              result.winner,
              static_cast<unsigned long long>(result.interactions),
              result.parallel_time);
  std::printf("initial plurality %s; winner %s initially significant\n",
              result.plurality_won ? "won" : "lost",
              result.winner_initially_significant ? "was" : "was not");
  const auto& ph = result.phases;
  const auto show = [](const char* name,
                       const std::optional<std::uint64_t>& t) {
    if (t) {
      std::printf("  %-3s %llu\n", name,
                  static_cast<unsigned long long>(*t));
    }
  };
  show("T1", ph.t1);
  show("T2", ph.t2);
  show("T3", ph.t3);
  show("T4", ph.t4);
  show("T5", ph.t5);
  return 0;
}

int cmd_sweep(const Args& args) {
  static const std::set<std::string> known = {
      "n",      "k",     "engine", "graph",   "bias", "beta", "alpha",
      "undecided", "ufrac", "budget", "trials", "seed", "threads",
      "chunk", "chunk-policy", "start", "stripe-width",
      "shuffle-points", "shard", "journal", "resume", "out", "json"};
  require_known_options(args, known);

  runner::SweepSpec spec = parse_trial_axes(args);
  spec.starts.clear();
  for (const auto& name : args.get_list("start", "uniform")) {
    const auto start = runner::parse_start_profile(name);
    if (!start) {
      std::fprintf(stderr,
                   "bad start profile '%s' (want uniform or "
                   "geometric:<ratio> with ratio in (0,1])\n",
                   name.c_str());
      usage();
    }
    spec.starts.push_back(*start);
  }
  if (spec.starts.empty()) usage();

  {
    // Budgets are as large as populations; accept scientific notation
    // with the same exact-integer rule as the count axes.
    const double budget = args.get_double("budget", 0.0);
    if (!(budget >= 0.0 && budget <= 9007199254740992.0) ||
        budget != std::floor(budget)) {
      std::fprintf(stderr, "--budget out of range or not an integer\n");
      usage();
    }
    spec.max_time = static_cast<std::uint64_t>(budget);
  }
  const std::uint64_t trials = args.get_u64("trials", 25);
  if (trials > 1'000'000'000) {
    std::fprintf(stderr, "--trials too large\n");
    usage();
  }
  spec.trials = static_cast<int>(trials);
  spec.master_seed = args.get_u64("seed", 1);
  const std::uint64_t threads = args.get_u64("threads", 0);
  if (threads > 65536) {
    std::fprintf(stderr, "--threads too large\n");
    usage();
  }
  spec.threads = static_cast<std::size_t>(threads);
  // Only the tau-leap engines read the chunk options, yet the journal
  // digest hashes them: `--engine skip --chunk 0.9` would run the same
  // sweep under a different digest, and `--chunk nan` would go unchecked.
  const auto& registry = sim::Registry::instance();
  const bool any_chunk_engine = std::any_of(
      spec.engines.begin(), spec.engines.end(), [&](const auto& name) {
        return registry.find(name)->uses_chunk_options;
      });
  for (const char* flag : {"chunk", "chunk-policy"}) {
    if (!any_chunk_engine && args.options.count(flag) != 0) {
      std::fprintf(stderr,
                   "--%s has no effect: no swept engine reads the chunk "
                   "options (%s do)\n",
                   flag,
                   engine_names_with(&sim::EngineInfo::uses_chunk_options)
                       .c_str());
      usage();
    }
  }
  spec.batch_chunk_fraction =
      args.get_double("chunk", spec.batch_chunk_fraction);
  {
    const std::string policy_name =
        args.get_string("chunk-policy", "fixed");
    const auto policy = core::parse_chunk_policy(policy_name);
    if (!policy) {
      std::fprintf(stderr, "unknown chunk policy '%s'\n",
                   policy_name.c_str());
      usage();
    }
    spec.batch_policy = *policy;
    // The adaptive schedule never reads the fixed chunk fraction, yet the
    // journal digest hashes it: accepting both would silently run the
    // same sweep under a different digest.
    if (*policy == core::ChunkPolicy::kAdaptive &&
        args.options.count("chunk") != 0) {
      std::fprintf(stderr,
                   "--chunk sets the fixed policy's chunk and has no effect "
                   "under --chunk-policy adaptive\n");
      usage();
    }
  }
  if (args.options.count("stripe-width") != 0) {
    const std::uint64_t width = args.get_u64("stripe-width", 0);
    if (width < 1 || width > 1'000'000'000) {
      std::fprintf(stderr, "--stripe-width must be in [1, 1e9]\n");
      usage();
    }
    spec.stripe_width = static_cast<std::size_t>(width);
  }
  spec.shuffle_points = args.get_bool("shuffle-points", false);

  runner::SweepServiceOptions service;
  {
    const std::string shard_text = args.get_string("shard", "0/1");
    const auto shard = runner::parse_shard(shard_text);
    if (!shard) {
      std::fprintf(stderr,
                   "bad shard '%s' (want I/N with 0 <= I < N)\n",
                   shard_text.c_str());
      usage();
    }
    service.shard = *shard;
  }
  service.journal_path = args.get_string("journal", "");
  service.resume_path = args.get_string("resume", "");
  // Fault-injection switch for the CI resume-kill leg: after this many
  // computed cells (each already journaled and flushed), die the way a
  // crashed production run does — no destructors, no buffered goodbye.
  if (const char* trip_env = std::getenv("KUSD_SWEEP_TRIP_CELLS")) {
    const std::uint64_t trip = parse_u64_or_usage(trip_env);
    if (trip > 0) {
      service.after_cell = [trip](std::size_t computed) {
        if (computed >= trip) std::raise(SIGKILL);
      };
    }
  }

  const runner::Sweep sweep(std::move(spec));
  RowSink sink(args.get_string("out", ""), args.get_string("json", ""));

  runner::Table table(runner::Sweep::csv_header());
  const auto shard_block =
      runner::shard_range(sweep.grid().size(), service.shard);
  const std::size_t total = shard_block.end - shard_block.begin;
  table.reserve(total);
  std::size_t cells = 0;
  // Rows are written as they arrive but flushed once per batch of rows
  // that were ready together, and after the run's first row, which would
  // otherwise wait for the rest of its batch: the journal (flushed per
  // cell by the service, before the row gets here) is the durable record,
  // so the CSV and JSONL may trail it by at most one batch and never lead
  // it. The stderr progress lines are buffered the same way (nothing has
  // been written to stderr yet, which setvbuf requires).
  static char progress_buffer[1 << 16];
  std::setvbuf(stderr, progress_buffer, _IOFBF, sizeof progress_buffer);
  std::string progress;  // one progress line, reused across rows
  const auto flush_outputs = [&] {
    sink.flush();
    std::fflush(stderr);
  };
  runner::run_sweep_service(
      sweep, service, [&](const runner::SweepRowEvent& event) {
        sink.write(*event.row);
        table.add_row(*event.row);
        ++cells;
        // Live progress on stderr; the aligned table needs all rows for
        // its column widths and is printed to stdout at the end. The line
        // is spelled by hand, in the bytes a printf format would give it,
        // because printf's parsing is a large share of a cheap row's cost.
        progress.clear();
        progress += '[';
        append_number(progress, cells);
        progress += '/';
        append_number(progress, total);
        progress += "] ";
        if (event.cell == nullptr) {
          progress += "cell ";
          append_number(progress, event.index);
          progress += " replayed from journal\n";
        } else {
          const runner::SweepCell& cell = *event.cell;
          progress += cell.point.engine;
          if (cell.point.graph.has_value()) {
            progress += ' ';
            progress += sim::to_string(*cell.point.graph);
          }
          progress += " n=";
          append_number(progress, cell.point.n);
          progress += " k=";
          append_number(progress, cell.point.k);
          progress += " done in ";
          progress += runner::fmt(cell.wall_seconds, 2);
          progress += "s\n";
        }
        std::fwrite(progress.data(), 1, progress.size(), stderr);
        if (event.last_in_batch || cells == 1) flush_outputs();
      });
  sink.open();  // a shard with no cells still writes the CSV header
  flush_outputs();
  table.print();
  return sink.close(std::to_string(cells) + " grid cells x " +
                    std::to_string(sweep.spec().trials) + " trials");
}

int cmd_merge(const Args& args) {
  static const std::set<std::string> known = {"inputs", "out", "json"};
  require_known_options(args, known);
  const auto inputs = args.get_list("inputs", "");
  if (inputs.empty()) {
    std::fprintf(stderr, "--inputs must list at least one shard journal\n");
    usage();
  }
  const std::string csv_path = args.get_string("out", "");
  const std::string json_path = args.get_string("json", "");
  if (csv_path.empty() && json_path.empty()) {
    std::fprintf(stderr, "merge needs --out and/or --json\n");
    usage();
  }

  // merge_journals validates every journal before it emits a row, and
  // the sink opens its files at the first row.
  RowSink sink(csv_path, json_path);
  std::size_t rows = 0;
  runner::merge_journals(
      inputs, [&](std::size_t /*index*/, const std::vector<std::string>& row) {
        sink.write(row);
        ++rows;
      });
  return sink.close("merged " + std::to_string(rows) + " cells from " +
                    std::to_string(inputs.size()) + " shard journals");
}

int cmd_trace(const Args& args) {
  static const std::set<std::string> known = {
      "n", "k", "undecided", "bias", "beta", "alpha", "seed", "out"};
  require_known_options(args, known);
  // trace takes no --engine: it records the exact chain, the sweep's
  // default `skip` engine.
  const runner::Sweep sweep = single_point_sweep(args);
  const runner::SweepPoint& point = sweep.grid().front();
  const auto x0 = runner::build_config(sweep.spec(), point);
  const std::string out = args.get_string("out", "kusd_trace.csv");
  const auto engine = sim::Registry::instance().create(
      point.engine, x0, args.get_u64("seed", 1));
  pp::Trajectory trajectory;
  engine->run_observed(engine->default_budget(),
                       std::max<pp::Count>(1, x0.n() / 64),
                       [&trajectory](std::uint64_t t,
                                     std::span<const pp::Count> opinions,
                                     pp::Count u) {
                         trajectory.record(t, opinions, u);
                       });
  runner::write_trajectory_csv(trajectory, out);
  std::printf("wrote %zu snapshots to %s (consensus: %s)\n",
              trajectory.size(), out.c_str(),
              engine->is_consensus() ? "yes" : "no");
  return 0;
}

int cmd_exact(const Args& args) {
  static const std::set<std::string> known = {"n", "k", "support"};
  require_known_options(args, known);
  const pp::Count n = args.get_u64("n", 12);
  const int k = checked_k(args.get_u64("k", 2));
  std::vector<pp::Count> support;
  const auto items = args.get_list("support", "");
  if (items.empty()) {
    const auto x0 = pp::Configuration::uniform(n, k, 0);
    support.assign(x0.opinions().begin(), x0.opinions().end());
  } else {
    for (const auto& item : items) {
      support.push_back(parse_u64_or_usage(item));
    }
    if (static_cast<int>(support.size()) != k) {
      std::fprintf(stderr, "--support must list exactly k values\n");
      return 2;
    }
  }
  // Every answer is read before the first line is printed: the solver
  // rejects a support it cannot answer for (over n, or all undecided),
  // and a rejected input must not leave a success header behind.
  const analysis::UsdExactSolver solver(n, k);
  const double expected = solver.expected_consensus_time(support);
  std::vector<double> wins;
  for (int i = 0; i < k; ++i) {
    wins.push_back(solver.win_probability(support, i));
  }
  std::printf("exact analysis: n=%llu k=%d (%zu states)\n",
              static_cast<unsigned long long>(n), k, solver.num_states());
  std::printf("expected interactions to consensus: %.3f\n", expected);
  for (int i = 0; i < k; ++i) {
    std::printf("P[opinion %d wins] = %.6f\n", i,
                wins[static_cast<std::size_t>(i)]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    if (args.command == "run") return cmd_run(args);
    if (args.command == "sweep") return cmd_sweep(args);
    if (args.command == "merge") return cmd_merge(args);
    if (args.command == "trace") return cmd_trace(args);
    if (args.command == "exact") return cmd_exact(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
}
