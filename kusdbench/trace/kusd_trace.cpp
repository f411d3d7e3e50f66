// kusd_trace — the traced half of the benchmark. It times calls into each
// library layer's public functions (rng, urn, core, pp, gossip, sim,
// runner, the CLI's emitters) from outside the program, so the program
// itself carries no tracing code.
//
//   kusd_trace --seed S --seconds T --threads N --pin-seed P --workdir DIR
//   kusd_trace --fingerprint
//
// Every input is derived from --seed; --seconds is shared out between the
// sections below, each of which still runs a minimum number of
// repetitions. Lines starting with "# " are notes for the reader. The last
// line is one JSON object: {"metrics": {name: value}, "checks": {name:
// bool}}.
//
// The tau-leap reconciliation replays BatchedUsdSimulator::step through
// the public ChunkController::propose, RoundEngine::try_async_chunk and
// ChunkController::on_reject calls, timing each, and checks that the
// replay reproduces the simulator's interactions, chunk count and winner.
// A second replay re-runs every chunk's Rng::multinomial_into call from a
// copy of the pre-chunk stream, timing the sampler alone and checking
// that it leaves the stream exactly where the chunk left it, which splits
// try_async_chunk into sampler time and kernel self-time.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/batched_usd.hpp"
#include "core/budget.hpp"
#include "core/chunk_controller.hpp"
#include "core/round_engine.hpp"
#include "core/sync_usd.hpp"
#include "core/usd.hpp"
#include "gossip/gossip_usd.hpp"
#include "pp/configuration.hpp"
#include "pp/degree_classes.hpp"
#include "rng/binomial.hpp"
#include "rng/rng.hpp"
#include "rng/simd.hpp"
#include "runner/csv.hpp"
#include "runner/sweep.hpp"
#include "runner/sweep_service.hpp"
#include "runner/table.hpp"
#include "sim/batched_graph_engine.hpp"
#include "sim/engine.hpp"
#include "sim/engines.hpp"
#include "sim/graph_spec.hpp"
#include "sim/registry.hpp"
#include "urn/urn.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace kusd;
using Clock = std::chrono::steady_clock;

// Workload points, kept in step with the workload definitions in run.py.
constexpr pp::Count kHeadlineN = 100'000'000;  // tauleap
constexpr int kHeadlineK = 32;
constexpr pp::Count kExactN = 50'000;  // exact_chain
constexpr int kExactK = 16;
constexpr pp::Count kGraphN = 100'000'000;  // graph_classes
constexpr int kGraphK = 8;
constexpr pp::Count kServiceN = 1000;  // service
constexpr int kServiceK = 8;
constexpr double kServiceAlpha = 2.0;

// Accounted share of the untraced trial time within which the traced
// layer self-times are said to reconcile.
constexpr double kReconTolerance = 0.20;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

class Deadline {
 public:
  explicit Deadline(double seconds)
      : end_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds))) {}
  [[nodiscard]] bool passed() const { return Clock::now() >= end_; }
  /// Keep going until `done` reaches `min`, then until the deadline.
  [[nodiscard]] bool more(std::size_t done, std::size_t min) const {
    return done < min || !passed();
  }

 private:
  Clock::time_point end_;
};

// Keeps timed results observable so no loop is optimized away.
volatile std::uint64_t g_sink = 0;

struct Report {
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, bool>> checks;

  void metric(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void check(const std::string& name, bool ok) {
    checks.emplace_back(name, ok);
  }
  void print_json() const {
    std::printf("{\"metrics\": {");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                  metrics[i].first.c_str(), metrics[i].second);
    }
    std::printf("}, \"checks\": {");
    for (std::size_t i = 0; i < checks.size(); ++i) {
      std::printf("%s\"%s\": %s", i == 0 ? "" : ", ", checks[i].first.c_str(),
                  checks[i].second ? "true" : "false");
    }
    std::printf("}}\n");
  }
};

/// Independent seed of trial `t` of section `section`.
std::uint64_t trial_seed(std::uint64_t base, std::uint64_t section,
                         std::uint64_t t) {
  return rng::stream_seed(rng::stream_seed(base, section), t);
}

core::ChunkOptions adaptive_options() {
  core::ChunkOptions options;
  options.policy = core::ChunkPolicy::kAdaptive;
  return options;
}

struct EngineTrial {
  double seconds = 0.0;
  std::uint64_t elapsed = 0;
  int winner = -1;
  double parallel_time = 0.0;
  std::uint64_t chunks = 0;  // graph-batched only
};

/// One Engine::run_to_consensus through the registry, timed around the run
/// (construction is timed separately as sim.create_us).
EngineTrial run_engine_trial(const std::string& name,
                             const pp::Configuration& x0, std::uint64_t seed,
                             const sim::EngineOptions& options = {}) {
  const auto engine = sim::Registry::instance().create(name, x0, seed, options);
  EngineTrial out;
  const auto t0 = Clock::now();
  const bool converged = engine->run_to_consensus(engine->default_budget());
  out.seconds = since(t0);
  out.elapsed = engine->elapsed();
  out.winner = converged ? engine->consensus_opinion() : -1;
  out.parallel_time = engine->parallel_time();
  if (const auto* graph = dynamic_cast<const sim::BatchedGraphEngine*>(
          engine.get())) {
    out.chunks = graph->chunks();
  }
  return out;
}

// ---- Tau-leap replay ---------------------------------------------------

using BinomialInput = std::pair<std::uint64_t, double>;

struct MultinomialInput {
  std::uint64_t n = 0;
  std::vector<double> weights;
};

/// Re-runs each chunk's multinomial draw from a copy of the pre-chunk
/// stream (see the file comment).
class SamplerShadow {
 public:
  explicit SamplerShadow(int k)
      : weights_(2 * static_cast<std::size_t>(k) + 1),
        events_(2 * static_cast<std::size_t>(k) + 1) {}

  void before(std::span<const pp::Count> opinions, pp::Count undecided,
              pp::Count n, std::uint64_t m, const rng::Rng& rng) {
    pre_rng_ = rng;
    pre_opinions_.assign(opinions.begin(), opinions.end());
    pre_undecided_ = undecided;
    n_ = n;
    m_ = m;
  }

  void after(bool accepted, std::span<const pp::Count> opinions,
             pp::Count undecided, const rng::Rng& rng) {
    // The event weights exactly as RoundEngine::try_async_chunk forms them.
    const std::size_t k = pre_opinions_.size();
    const pp::Count decided = n_ - pre_undecided_;
    const double du = static_cast<double>(pre_undecided_);
    double productive = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      const double xj = static_cast<double>(pre_opinions_[j]);
      weights_[j] = du * xj;
      weights_[k + j] = xj * static_cast<double>(decided - pre_opinions_[j]);
      productive += weights_[j] + weights_[k + j];
    }
    const double total = static_cast<double>(n_) * static_cast<double>(n_);
    weights_[2 * k] = std::max(0.0, total - productive);

    rng::Rng shadow = pre_rng_;
    const auto t0 = Clock::now();
    shadow.multinomial_into(m_, weights_, events_);
    sampler_seconds += since(t0);
    ++calls;
    if (shadow.state() != rng.state()) identical = false;
    if (accepted) {
      std::uint64_t adopted = 0, flipped = 0;
      for (std::size_t j = 0; j < k; ++j) {
        if (pre_opinions_[j] + events_[j] - events_[k + j] != opinions[j]) {
          identical = false;
        }
        adopted += events_[j];
        flipped += events_[k + j];
      }
      if (pre_undecided_ + flipped - adopted != undecided) identical = false;
    }
    if (multinomials.size() < kMaxMultinomials) {
      multinomials.push_back({m_, weights_});
    }
    // The conditional binomials multinomial_into drew, in its own order;
    // degenerate ones (p == 0 or 1) consume no randomness.
    double remaining_weight = 0.0;
    for (const double w : weights_) remaining_weight += w;
    std::uint64_t remaining = m_;
    for (std::size_t i = 0; i + 1 < weights_.size() && remaining > 0; ++i) {
      if (remaining_weight <= 0.0) break;
      const double p = std::min(1.0, weights_[i] / remaining_weight);
      if (p > 0.0 && p < 1.0) {
        ++draws;
        if (binomials.size() < kMaxBinomials) {
          binomials.emplace_back(remaining, p);
        }
      }
      remaining -= events_[i];
      remaining_weight -= weights_[i];
    }
  }

  static constexpr std::size_t kMaxMultinomials = 4096;
  static constexpr std::size_t kMaxBinomials = 200'000;

  double sampler_seconds = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t draws = 0;
  bool identical = true;
  std::vector<BinomialInput> binomials;
  std::vector<MultinomialInput> multinomials;

 private:
  std::vector<double> weights_;
  std::vector<std::uint64_t> events_;
  rng::Rng pre_rng_;
  std::vector<pp::Count> pre_opinions_;
  pp::Count pre_undecided_ = 0;
  pp::Count n_ = 0;
  std::uint64_t m_ = 0;
};

struct ReplayStats {
  std::uint64_t interactions = 0;
  std::uint64_t attempts = 0;  // chunks drawn, including rejected ones
  std::uint64_t rejects = 0;
  std::uint64_t proposals = 0;
  int winner = -1;
  double propose_seconds = 0.0;
  double chunk_seconds = 0.0;
  double reject_seconds = 0.0;
  double wall_seconds = 0.0;

  void add(const ReplayStats& o) {
    interactions += o.interactions;
    attempts += o.attempts;
    rejects += o.rejects;
    proposals += o.proposals;
    propose_seconds += o.propose_seconds;
    chunk_seconds += o.chunk_seconds;
    reject_seconds += o.reject_seconds;
    wall_seconds += o.wall_seconds;
  }
};

/// BatchedUsdSimulator(x0, Rng(seed), options).run_to_consensus(cap),
/// replayed through the public controller and round-engine calls.
ReplayStats replay_tau_leap(const pp::Configuration& x0, std::uint64_t seed,
                            const core::ChunkOptions& options,
                            std::uint64_t cap, SamplerShadow* shadow) {
  const auto trial_start = Clock::now();
  std::vector<pp::Count> opinions(x0.opinions().begin(), x0.opinions().end());
  pp::Count undecided = x0.undecided();
  const pp::Count n = x0.n();
  core::ChunkController controller(options, n);
  core::RoundEngine engine(x0.k());
  rng::Rng rng(seed);
  ReplayStats s;
  for (std::size_t i = 0; i < opinions.size(); ++i) {
    if (opinions[i] == n) s.winner = static_cast<int>(i);
  }
  while (s.winner < 0 && s.interactions < cap) {
    const auto t0 = Clock::now();
    std::uint64_t m = controller.propose(opinions, undecided);
    s.propose_seconds += since(t0);
    ++s.proposals;
    while (true) {
      ++s.attempts;
      if (shadow != nullptr) shadow->before(opinions, undecided, n, m, rng);
      const auto t1 = Clock::now();
      const bool ok = engine.try_async_chunk(opinions, undecided, n, m, rng);
      s.chunk_seconds += since(t1);
      if (shadow != nullptr) shadow->after(ok, opinions, undecided, rng);
      if (ok) break;
      ++s.rejects;
      const auto t2 = Clock::now();
      controller.on_reject();
      s.reject_seconds += since(t2);
      m = std::max<std::uint64_t>(1, m / 2);
    }
    s.interactions += m;
    for (std::size_t i = 0; i < opinions.size(); ++i) {
      if (opinions[i] == n) s.winner = static_cast<int>(i);
    }
  }
  s.wall_seconds = since(trial_start);
  return s;
}

/// sim::BatchedGraphEngine(x0, seed, options with the shared model) run to
/// `cap`, replayed through the public class-structured calls.
ReplayStats replay_class_chain(const pp::Configuration& x0,
                               const pp::DegreeClassModel& model,
                               std::uint64_t seed,
                               const core::ChunkOptions& options,
                               std::uint64_t cap) {
  const auto trial_start = Clock::now();
  const auto k = static_cast<std::size_t>(x0.k());
  const std::size_t classes = model.num_classes();
  const pp::Count n = x0.n();
  std::vector<double> weights;
  std::vector<double> sizes;
  for (const auto& c : model.classes()) {
    weights.push_back(c.degree);
    sizes.push_back(static_cast<double>(c.size));
  }
  std::vector<pp::Count> counts(classes * k, 0);
  std::vector<pp::Count> undecided(classes, 0);
  std::vector<pp::Count> totals(x0.opinions().begin(), x0.opinions().end());
  rng::Rng rng(seed);
  if (classes == 1) {
    for (std::size_t j = 0; j < k; ++j) counts[j] = totals[j];
    undecided[0] = x0.undecided();
  } else {
    for (std::size_t j = 0; j < k; ++j) {
      const auto split = rng.multinomial(totals[j], sizes);
      for (std::size_t c = 0; c < classes; ++c) counts[c * k + j] = split[c];
    }
    const auto split = rng.multinomial(x0.undecided(), sizes);
    for (std::size_t c = 0; c < classes; ++c) undecided[c] = split[c];
  }
  core::ChunkController controller(options, n);
  core::RoundEngine engine(x0.k(), static_cast<int>(classes));
  ReplayStats s;
  for (std::size_t j = 0; j < k; ++j) {
    if (totals[j] == n) s.winner = static_cast<int>(j);
  }
  while (s.winner < 0 && s.interactions < cap) {
    const auto t0 = Clock::now();
    std::uint64_t m = std::min(
        controller.propose_classes(counts, undecided, weights),
        cap - s.interactions);
    s.propose_seconds += since(t0);
    ++s.proposals;
    while (true) {
      ++s.attempts;
      const auto t1 = Clock::now();
      const bool ok =
          engine.try_async_class_chunk(counts, undecided, weights, m, rng);
      s.chunk_seconds += since(t1);
      if (ok) break;
      ++s.rejects;
      const auto t2 = Clock::now();
      controller.on_reject();
      s.reject_seconds += since(t2);
      m = std::max<std::uint64_t>(1, m / 2);
    }
    s.interactions += m;
    std::fill(totals.begin(), totals.end(), 0);
    for (std::size_t c = 0; c < classes; ++c) {
      for (std::size_t j = 0; j < k; ++j) totals[j] += counts[c * k + j];
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (totals[j] == n) s.winner = static_cast<int>(j);
    }
  }
  s.wall_seconds = since(trial_start);
  return s;
}

struct SkipRun {
  double seconds = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t interactions = 0;
  int winner = -1;
};

/// UsdSimulator (skip mode) to consensus, one public step() at a time.
SkipRun run_skip_steps(const pp::Configuration& x0, std::uint64_t seed) {
  core::UsdSimulator sim(x0, rng::Rng(seed),
                         core::UsdOptions{core::StepMode::kSkipUnproductive});
  const std::uint64_t cap = core::default_interaction_cap(x0.n(), x0.k());
  SkipRun out;
  const auto t0 = Clock::now();
  while (!sim.is_consensus() && sim.interactions() < cap) {
    sim.step();
    ++out.steps;
  }
  out.seconds = since(t0);
  out.interactions = sim.interactions();
  out.winner = sim.is_consensus() ? sim.consensus_opinion() : -1;
  return out;
}

pp::DegreeClassModel er_auto_model(std::uint64_t point_seed) {
  rng::Rng topology(rng::stream_seed(point_seed, sim::kTopologyStream));
  return sim::degree_class_model(*sim::parse_graph_spec("er:auto"), kGraphN,
                                 topology);
}

sim::EngineOptions graph_options(const pp::DegreeClassModel& model) {
  sim::EngineOptions options;
  options.batch = adaptive_options();
  options.graph = *sim::parse_graph_spec("er:auto");
  options.shared_degrees = &model;
  return options;
}

// ---- Sections ----------------------------------------------------------

struct Context {
  std::uint64_t seed = 1;
  std::uint64_t pin_seed = 1;
  double seconds = 10.0;
  std::size_t threads = 1;
  std::filesystem::path workdir;
  Report report;
  // Filled by the tau-leap section, read by the rng section.
  std::vector<BinomialInput> binomials;
  std::vector<MultinomialInput> multinomials;
  std::vector<std::uint64_t> headline_seeds;
  std::vector<EngineTrial> headline_trials;
  double draws_per_trial = 0.0;
  double untraced_trial_seconds = 0.0;
  double rng_share = 0.0;
};

/// Headline tau-leap point: untraced trials, the traced replay, the
/// sampler shadow and the reconciliation between them.
void tau_leap_section(Context& ctx) {
  Report& r = ctx.report;
  const auto x0 = pp::Configuration::uniform(kHeadlineN, kHeadlineK);
  const auto options = adaptive_options();
  const std::uint64_t cap = core::default_interaction_cap(x0.n(), x0.k());
  sim::EngineOptions engine_options;
  engine_options.batch = options;

  // Untraced: sim::Engine::run_to_consensus through the registry.
  const Deadline untraced(0.10 * ctx.seconds);
  double untraced_total = 0.0;
  for (std::size_t t = 0; untraced.more(t, 8); ++t) {
    const std::uint64_t seed = trial_seed(ctx.seed, 1, t);
    ctx.headline_seeds.push_back(seed);
    ctx.headline_trials.push_back(
        run_engine_trial("batched", x0, seed, engine_options));
    untraced_total += ctx.headline_trials.back().seconds;
  }
  const std::size_t trials = ctx.headline_seeds.size();
  ctx.untraced_trial_seconds = untraced_total / static_cast<double>(trials);
  r.metric("sim.trial_s.batched", ctx.untraced_trial_seconds);

  // Traced replay of the same trials, checked against the engine and the
  // simulator (whose chunk count the engine does not expose).
  ReplayStats traced;
  bool matches = true;
  for (std::size_t t = 0; t < trials; ++t) {
    const ReplayStats s =
        replay_tau_leap(x0, ctx.headline_seeds[t], options, cap, nullptr);
    core::BatchedUsdSimulator sim(x0, rng::Rng(ctx.headline_seeds[t]),
                                  options);
    sim.run_to_consensus(cap);
    const EngineTrial& e = ctx.headline_trials[t];
    matches = matches && s.interactions == e.elapsed &&
              s.winner == e.winner && s.interactions == sim.interactions() &&
              s.attempts == sim.chunks() &&
              s.winner == (sim.is_consensus() ? sim.consensus_opinion() : -1);
    traced.add(s);
  }
  r.check("replay_matches_batched_simulator", matches);

  // Sampler shadow over the same trials.
  SamplerShadow shadow(kHeadlineK);
  for (std::size_t t = 0; t < trials; ++t) {
    replay_tau_leap(x0, ctx.headline_seeds[t], options, cap, &shadow);
  }
  r.check("shadow_sampler_matches_chunk_draws", shadow.identical);
  ctx.binomials = std::move(shadow.binomials);
  ctx.multinomials = std::move(shadow.multinomials);
  ctx.draws_per_trial =
      static_cast<double>(shadow.draws) / static_cast<double>(trials);

  const double dt = static_cast<double>(trials);
  r.metric("core.propose_ns", 1e9 * traced.propose_seconds /
                                  static_cast<double>(traced.proposals));
  r.metric("core.chunk_ns", 1e9 * traced.chunk_seconds /
                                static_cast<double>(traced.attempts));
  r.metric("core.accept_ratio",
           static_cast<double>(traced.attempts - traced.rejects) /
               static_cast<double>(traced.attempts));
  r.metric("rng.draws_per_trial", ctx.draws_per_trial);

  // Reconciliation: layer self-times as shares of the untraced trial.
  ctx.rng_share = shadow.sampler_seconds / untraced_total;
  const double rng_share = ctx.rng_share;
  const double engine_share =
      (traced.chunk_seconds - shadow.sampler_seconds) / untraced_total;
  const double controller_share =
      (traced.propose_seconds + traced.reject_seconds) / untraced_total;
  const double accounted = rng_share + engine_share + controller_share;
  const double overhead = traced.wall_seconds / untraced_total;
  r.metric("recon.rng_share", rng_share);
  r.metric("recon.core_engine_share", engine_share);
  r.metric("recon.core_controller_share", controller_share);
  r.metric("recon.accounted_frac", accounted);
  r.metric("recon.traced_over_untraced", overhead);
  std::printf(
      "# tau-leap n=1e8 k=32 adaptive, %zu trials: untraced %.3f ms/trial; "
      "traced %.3f ms/trial (x%.3f tracing overhead); %.0f chunks/trial, "
      "%.1f rejects/trial\n",
      trials, 1e3 * ctx.untraced_trial_seconds,
      1e3 * traced.wall_seconds / dt, overhead,
      static_cast<double>(traced.attempts) / dt,
      static_cast<double>(traced.rejects) / dt);
  std::printf(
      "# reconciliation (shares of the untraced trial): rng "
      "(Rng::multinomial_into) %.1f%%, core RoundEngine::try_async_chunk "
      "self %.1f%%, core ChunkController %.1f%%, unaccounted %.1f%% -> %s "
      "(tolerance +-%.0f%%)\n",
      100 * rng_share, 100 * engine_share, 100 * controller_share,
      100 * (1.0 - accounted),
      std::fabs(1.0 - accounted) <= kReconTolerance ? "reconciles"
                                                    : "does NOT reconcile",
      100 * kReconTolerance);
}

double time_binomials(const std::vector<BinomialInput>& inputs,
                      std::uint64_t seed, double seconds) {
  if (inputs.empty()) return 0.0;
  rng::Rng g(seed);
  std::uint64_t sink = 0;
  std::size_t draws = 0;
  const Deadline deadline(seconds);
  const auto t0 = Clock::now();
  while (deadline.more(draws, 100'000)) {
    for (const auto& [n, p] : inputs) sink += rng::binomial(g, n, p);
    draws += inputs.size();
  }
  const double elapsed = since(t0);
  g_sink = g_sink + sink;
  return 1e9 * elapsed / static_cast<double>(draws);
}

/// Sampler costs over the (n, p) mix and the multinomial calls the
/// headline replay actually drew.
void rng_section(Context& ctx) {
  Report& r = ctx.report;
  const double budget = 0.10 * ctx.seconds;
  std::vector<BinomialInput> binv, btrs;
  for (const auto& in : ctx.binomials) {
    const double reduced = in.second > 0.5 ? 1.0 - in.second : in.second;
    (static_cast<double>(in.first) * reduced < 10.0 ? binv : btrs)
        .push_back(in);
  }
  const double binv_ns = time_binomials(binv, trial_seed(ctx.seed, 2, 0),
                                        0.25 * budget);
  const double btrs_ns = time_binomials(btrs, trial_seed(ctx.seed, 2, 1),
                                        0.25 * budget);
  r.metric("rng.binomial_ns.binv", binv_ns);
  r.metric("rng.binomial_ns.btrs", btrs_ns);

  // binomial_batch: one draw per stream, 32 streams per call.
  constexpr std::size_t kLanes = 32;
  std::vector<rng::Rng> streams;
  for (std::size_t i = 0; i < kLanes; ++i) {
    streams.emplace_back(trial_seed(ctx.seed, 3, i));
  }
  std::vector<std::uint64_t> ns(kLanes), out(kLanes);
  std::vector<double> ps(kLanes);
  std::size_t batch_draws = 0;
  std::uint64_t sink = 0;
  const std::size_t batches = ctx.binomials.size() / kLanes;
  if (batches > 0) {
    const Deadline deadline(0.25 * budget);
    const auto t0 = Clock::now();
    while (deadline.more(batch_draws, 100'000)) {
      for (std::size_t b = 0; b < batches; ++b) {
        for (std::size_t i = 0; i < kLanes; ++i) {
          ns[i] = ctx.binomials[b * kLanes + i].first;
          ps[i] = ctx.binomials[b * kLanes + i].second;
        }
        rng::binomial_batch(std::span<rng::Rng>(streams), ns, ps, out);
        for (const auto v : out) sink += v;
        batch_draws += kLanes;
      }
    }
    r.metric("rng.binomial_batch_ns",
             1e9 * since(t0) / static_cast<double>(batch_draws));
  }

  rng::Rng g(trial_seed(ctx.seed, 2, 2));
  std::vector<std::uint64_t> events(2 * kHeadlineK + 1);
  std::size_t calls = 0;
  const Deadline deadline(0.25 * budget);
  const auto t0 = Clock::now();
  while (deadline.more(calls, 20'000)) {
    for (const auto& in : ctx.multinomials) {
      g.multinomial_into(in.n, in.weights, events);
      sink += events[0];
    }
    calls += ctx.multinomials.size();
  }
  r.metric("rng.multinomial_ns", 1e9 * since(t0) / static_cast<double>(calls));
  g_sink = g_sink + sink;

  // ROADMAP's estimate: draws/trial x ns/draw against the trial time.
  const double binv_frac =
      ctx.binomials.empty() ? 0.0
                            : static_cast<double>(binv.size()) /
                                  static_cast<double>(ctx.binomials.size());
  const double mix_ns = binv_frac * binv_ns + (1.0 - binv_frac) * btrs_ns;
  const double estimate_share =
      ctx.draws_per_trial * mix_ns * 1e-9 / ctx.untraced_trial_seconds;
  r.metric("recon.draw_estimate_share", estimate_share);
  std::printf(
      "# sampler: %.0f draws/trial (%.0f%% BINV) x %.1f ns/draw = %.3f ms = "
      "%.0f%% of the untraced trial; measured sampler share %.0f%% -> the "
      "tau-leap %s sampler-bound\n",
      ctx.draws_per_trial, 100 * binv_frac, mix_ns,
      1e3 * ctx.draws_per_trial * mix_ns * 1e-9, 100 * estimate_share,
      100 * ctx.rng_share, ctx.rng_share >= 0.5 ? "IS" : "is NOT");
}

/// Degree-class path: topology realization, untraced graph-batched
/// trials, and the traced class-structured replay.
void graph_section(Context& ctx) {
  Report& r = ctx.report;
  const double budget = 0.20 * ctx.seconds;
  std::vector<double> model_seconds;
  std::size_t classes = 0;
  const Deadline model_deadline(0.05 * budget);
  for (std::size_t rep = 0; model_deadline.more(rep, 5); ++rep) {
    const auto t0 = Clock::now();
    const auto model = er_auto_model(trial_seed(ctx.seed, 4, rep));
    model_seconds.push_back(since(t0));
    classes = model.num_classes();
  }
  r.metric("pp.degree_model_s", median(model_seconds));
  r.metric("pp.degree_classes", static_cast<double>(classes));

  const auto model = er_auto_model(trial_seed(ctx.seed, 4, 0));
  const auto x0 = pp::Configuration::uniform(kGraphN, kGraphK);
  const auto options = graph_options(model);
  const std::uint64_t cap = core::default_interaction_cap(x0.n(), x0.k());
  const Deadline deadline(0.55 * budget);
  double untraced = 0.0;
  std::vector<std::uint64_t> seeds;
  std::vector<EngineTrial> trials;
  for (std::size_t t = 0; deadline.more(t, 2); ++t) {
    seeds.push_back(trial_seed(ctx.seed, 5, t));
    trials.push_back(
        run_engine_trial("graph-batched", x0, seeds.back(), options));
    untraced += trials.back().seconds;
  }
  r.metric("sim.trial_s.graph-batched",
           untraced / static_cast<double>(trials.size()));

  ReplayStats traced;
  bool matches = true;
  const std::size_t replays = std::min<std::size_t>(2, trials.size());
  for (std::size_t t = 0; t < replays; ++t) {
    const ReplayStats s = replay_class_chain(x0, model, seeds[t],
                                             options.batch, cap);
    matches = matches && s.interactions == trials[t].elapsed &&
              s.attempts == trials[t].chunks && s.winner == trials[t].winner;
    traced.add(s);
  }
  r.check("replay_matches_graph_batched_engine", matches);
  r.metric("core.propose_classes_ns",
           1e9 * traced.propose_seconds /
               static_cast<double>(traced.proposals));
  r.metric("core.class_chunk_ns", 1e9 * traced.chunk_seconds /
                                      static_cast<double>(traced.attempts));
  std::printf(
      "# degree classes: er:auto n=1e8 k=8 realizes %zu classes in %.3f ms; "
      "%.1f chunks/trial, %.0f ns/class chunk, %.3f s/trial\n",
      classes, 1e3 * median(model_seconds),
      static_cast<double>(traced.attempts) / static_cast<double>(replays),
      1e9 * traced.chunk_seconds / static_cast<double>(traced.attempts),
      untraced / static_cast<double>(trials.size()));
}

/// Exact chain: skip steps, skip trials, the urn, and the tau-leap's
/// error against the exact chain at the same point and seeds.
void exact_section(Context& ctx) {
  Report& r = ctx.report;
  const double budget = 0.15 * ctx.seconds;
  const auto x0 = pp::Configuration::uniform(kExactN, kExactK);

  double steps_seconds = 0.0;
  std::uint64_t steps = 0;
  bool matches = true;
  const Deadline step_deadline(0.3 * budget);
  for (std::size_t t = 0; step_deadline.more(t, 2); ++t) {
    const std::uint64_t seed = trial_seed(ctx.seed, 6, t);
    const SkipRun run = run_skip_steps(x0, seed);
    steps_seconds += run.seconds;
    steps += run.steps;
    if (t == 0) {
      const EngineTrial e = run_engine_trial("skip", x0, seed);
      matches = e.elapsed == run.interactions && e.winner == run.winner;
    }
  }
  r.check("skip_steps_match_skip_engine", matches);
  r.metric("core.skip_step_ns", 1e9 * steps_seconds /
                                    static_cast<double>(steps));

  sim::EngineOptions batched;
  batched.batch = adaptive_options();
  double skip_seconds = 0.0, skip_pt = 0.0, batched_pt = 0.0;
  std::size_t trials = 0;
  const Deadline trial_deadline(0.5 * budget);
  for (; trial_deadline.more(trials, 3); ++trials) {
    const std::uint64_t seed = trial_seed(ctx.seed, 7, trials);
    const EngineTrial s = run_engine_trial("skip", x0, seed);
    skip_seconds += s.seconds;
    skip_pt += s.parallel_time;
    batched_pt += run_engine_trial("batched", x0, seed, batched).parallel_time;
  }
  r.metric("sim.trial_s.skip", skip_seconds / static_cast<double>(trials));
  r.metric("sim.pt_mean_rel_err", std::fabs(batched_pt - skip_pt) / skip_pt);

  urn::Urn urn(x0.opinions());
  rng::Rng g(trial_seed(ctx.seed, 8, 0));
  constexpr std::size_t kBlock = 1 << 20;
  std::uint64_t sink = 0;
  std::size_t ops = 0;
  const Deadline sample_deadline(0.1 * budget);
  auto t0 = Clock::now();
  while (sample_deadline.more(ops, kBlock)) {
    for (std::size_t i = 0; i < kBlock; ++i) sink += urn.sample(g);
    ops += kBlock;
  }
  r.metric("urn.sample_ns", 1e9 * since(t0) / static_cast<double>(ops));
  ops = 0;
  const std::size_t k = x0.opinions().size();
  const Deadline move_deadline(0.1 * budget);
  t0 = Clock::now();
  while (move_deadline.more(ops, kBlock)) {
    for (std::size_t i = 0; i < kBlock; ++i) urn.move(i % k, (i + 1) % k);
    ops += kBlock;
  }
  r.metric("urn.move_ns", 1e9 * since(t0) / static_cast<double>(ops));
  g_sink = g_sink + sink + urn.count(0);
}

runner::SweepSpec service_spec(std::size_t alphas, int trials,
                               std::size_t threads, std::uint64_t seed) {
  runner::SweepSpec spec;
  spec.engines = {"sync", "gossip"};
  spec.ns = {100, 1000};
  spec.ks = {2, 3, 4, 6, 8};
  spec.bias_kind = runner::BiasKind::kMultiplicative;
  spec.bias_values.clear();
  for (std::size_t i = 0; i < alphas; ++i) {
    spec.bias_values.push_back(1.0 + 3.0 * (static_cast<double>(i) + 0.5) /
                                         static_cast<double>(alphas));
  }
  spec.trials = trials;
  spec.master_seed = seed;
  spec.threads = threads;
  return spec;
}

/// Round models, engine construction, and the sweep service layer.
void service_section(Context& ctx) {
  Report& r = ctx.report;
  const double budget = 0.15 * ctx.seconds;
  const auto x0 = pp::Configuration::with_multiplicative_bias(
      kServiceN, kServiceK, 0, kServiceAlpha);

  std::uint64_t rounds = 0;
  double seconds = 0.0;
  const Deadline sync_deadline(0.08 * budget);
  for (std::size_t t = 0; sync_deadline.more(t, 20); ++t) {
    core::SyncUsd sync(x0, rng::Rng(trial_seed(ctx.seed, 9, t)));
    const std::uint64_t cap = sim::sync_round_cap(kServiceN);
    const auto t0 = Clock::now();
    while (!sync.is_consensus() && sync.super_rounds() < cap) {
      sync.super_round();
      ++rounds;
    }
    seconds += since(t0);
  }
  r.metric("core.sync_super_round_ns",
           1e9 * seconds / static_cast<double>(rounds));

  rounds = 0;
  seconds = 0.0;
  const Deadline gossip_deadline(0.08 * budget);
  for (std::size_t t = 0; gossip_deadline.more(t, 20); ++t) {
    gossip::GossipUsd g(x0, rng::Rng(trial_seed(ctx.seed, 10, t)));
    const std::uint64_t cap = sim::gossip_round_cap(kServiceN, kServiceK);
    const auto t0 = Clock::now();
    while (!g.is_consensus() && g.rounds() < cap) {
      g.round();
      ++rounds;
    }
    seconds += since(t0);
  }
  r.metric("gossip.round_ns", 1e9 * seconds / static_cast<double>(rounds));

  std::size_t creates = 0;
  const Deadline create_deadline(0.04 * budget);
  auto t0 = Clock::now();
  while (create_deadline.more(creates, 1000)) {
    for (const char* name : {"sync", "gossip"}) {
      const auto engine = sim::Registry::instance().create(
          name, x0, trial_seed(ctx.seed, 11, creates));
      g_sink = g_sink + engine->n();
      ++creates;
    }
  }
  r.metric("sim.create_us", 1e6 * since(t0) / static_cast<double>(creates));

  for (const char* name : {"sync", "gossip"}) {
    double total = 0.0;
    std::size_t trials = 0;
    const Deadline deadline(0.05 * budget);
    for (; deadline.more(trials, 20); ++trials) {
      total += run_engine_trial(name, x0, trial_seed(ctx.seed, 12, trials))
                   .seconds;
    }
    r.metric(std::string("sim.trial_s.") + name,
             total / static_cast<double>(trials));
  }

  // runner::Sweep cells on one worker, and the same grid at 1 and N
  // threads (parallel efficiency, byte identity of the rows).
  const std::uint64_t sweep_seed = trial_seed(ctx.seed, 13, 0);
  const runner::Sweep serial(service_spec(20, 4, 1, sweep_seed));
  const auto grid = serial.grid();
  std::vector<runner::SweepCell> cells;
  std::vector<double> cell_seconds;
  {
    util::ThreadPool pool(1);
    const Deadline deadline(0.1 * budget);
    for (std::size_t i = 0; i < grid.size() && deadline.more(i, 40); ++i) {
      const auto c0 = Clock::now();
      cells.push_back(serial.run_point(pool, grid[i]));
      cell_seconds.push_back(since(c0));
    }
  }
  r.metric("runner.cell_s", median(cell_seconds));

  std::vector<std::vector<std::string>> rows_serial, rows_parallel;
  t0 = Clock::now();
  serial.run([&](const runner::SweepCell& c) {
    rows_serial.push_back(runner::Sweep::csv_row(c));
  });
  const double serial_wall = since(t0);
  const runner::Sweep parallel(
      service_spec(20, 4, ctx.threads, sweep_seed));
  t0 = Clock::now();
  parallel.run([&](const runner::SweepCell& c) {
    rows_parallel.push_back(runner::Sweep::csv_row(c));
  });
  const double parallel_wall = since(t0);
  r.check("sweep_rows_identical_at_1_and_n_threads",
          rows_serial == rows_parallel);
  r.metric("runner.busy_frac",
           serial_wall /
               (static_cast<double>(ctx.threads) * parallel_wall));

  // Emission per row: the CLI's CSV, JSONL and table writers.
  {
    const auto csv_path = ctx.workdir / "emit.csv";
    const auto json_path = ctx.workdir / "emit.jsonl";
    std::size_t rows = 0;
    const Deadline deadline(0.1 * budget);
    t0 = Clock::now();
    while (deadline.more(rows, 2000)) {
      runner::CsvWriter csv(csv_path.string(), runner::Sweep::csv_header());
      std::FILE* json = std::fopen(json_path.string().c_str(), "w");
      if (json == nullptr) {
        r.check("emit_files_writable", false);
        break;
      }
      runner::Table table(runner::Sweep::csv_header());
      for (const auto& cell : cells) {
        const auto row = runner::Sweep::csv_row(cell);
        csv.write_row(row);
        std::fputs((runner::Sweep::json_line(cell) + "\n").c_str(), json);
        table.add_row(row);
      }
      g_sink = g_sink + table.to_string().size();
      std::fclose(json);
      rows += cells.size();
    }
    r.metric("cli.emit_us", 1e6 * since(t0) / static_cast<double>(rows));
  }

  // Service layer on the full 16k-cell grid (digest) and on a
  // zero-trial 4k-cell grid, where only the service work remains.
  const runner::Sweep full(service_spec(800, 4, ctx.threads, sweep_seed));
  const double full_cells = static_cast<double>(full.grid().size());
  std::vector<double> digest_seconds;
  for (int rep = 0; rep < 5; ++rep) {
    t0 = Clock::now();
    g_sink = g_sink + runner::sweep_digest(full);
    digest_seconds.push_back(since(t0));
  }
  r.metric("runner.digest_us", 1e6 * median(digest_seconds) / full_cells);

  const runner::Sweep empty(service_spec(200, 0, 1, sweep_seed));
  const double empty_cells = static_cast<double>(empty.grid().size());
  const auto journal = (ctx.workdir / "append.journal").string();
  std::vector<double> plain_seconds, journal_seconds, read_seconds;
  std::size_t emitted = 0;
  const auto count_rows = [&](const runner::SweepRowEvent&) { ++emitted; };
  for (int rep = 0; rep < 3; ++rep) {
    t0 = Clock::now();
    runner::run_sweep_service(empty, {}, count_rows);
    plain_seconds.push_back(since(t0));
    std::filesystem::remove(journal);
    runner::SweepServiceOptions with_journal;
    with_journal.journal_path = journal;
    t0 = Clock::now();
    runner::run_sweep_service(empty, with_journal, count_rows);
    journal_seconds.push_back(since(t0));
    t0 = Clock::now();
    const auto read = runner::read_journal(journal);
    read_seconds.push_back(since(t0));
    g_sink = g_sink + read.cells.size();
  }
  r.metric("runner.journal_append_us",
           1e6 * (median(journal_seconds) - median(plain_seconds)) /
               empty_cells);
  r.metric("runner.journal_read_us", 1e6 * median(read_seconds) / empty_cells);

  std::vector<std::string> shards;
  for (std::size_t i = 0; i < 2; ++i) {
    runner::SweepServiceOptions shard;
    shard.shard = {i, 2};
    shard.journal_path =
        (ctx.workdir / ("shard" + std::to_string(i) + ".journal")).string();
    std::filesystem::remove(shard.journal_path);
    runner::run_sweep_service(empty, shard, count_rows);
    shards.push_back(shard.journal_path);
  }
  std::vector<double> merge_seconds;
  std::size_t merged = 0;
  for (int rep = 0; rep < 3; ++rep) {
    t0 = Clock::now();
    runner::merge_journals(
        shards, [&](std::size_t, const std::vector<std::string>&) {
          ++merged;
        });
    merge_seconds.push_back(since(t0));
  }
  r.check("merge_covers_grid",
          merged == 3 * static_cast<std::size_t>(empty_cells));
  r.metric("runner.merge_us", 1e6 * median(merge_seconds) / empty_cells);
  g_sink = g_sink + emitted;
}

/// The lockstep batch kernel against per-trial scalar runs at the
/// headline point, at 1 and N threads (reported, not gated).
void lockstep_section(Context& ctx) {
  Report& r = ctx.report;
  const sim::EngineInfo* info =
      sim::Registry::instance().find("batched-lockstep");
  if (info == nullptr || !info->lockstep) {
    r.check("lockstep_engine_registered", false);
    return;
  }
  const auto x0 = pp::Configuration::uniform(kHeadlineN, kHeadlineK);
  sim::EngineOptions options;
  options.batch = adaptive_options();
  const std::uint64_t budget =
      info->default_budget ? info->default_budget(x0.n(), x0.k())
                           : core::default_interaction_cap(x0.n(), x0.k());
  const std::size_t trials = std::min<std::size_t>(
      ctx.headline_seeds.size(), std::max<std::size_t>(8, 2 * ctx.threads));
  const std::span<const std::uint64_t> seeds(ctx.headline_seeds.data(),
                                             trials);

  const auto t0 = Clock::now();
  const auto results = info->lockstep(x0, seeds, options, budget);
  const double t1 = since(t0) / static_cast<double>(trials);
  bool matches = results.size() == trials;
  for (std::size_t t = 0; matches && t < trials; ++t) {
    matches = results[t].winner == ctx.headline_trials[t].winner &&
              results[t].parallel_time == ctx.headline_trials[t].parallel_time;
  }
  r.check("lockstep_matches_scalar_trials", matches);

  // N threads over contiguous slices, for the lockstep kernel and for
  // independent scalar simulators.
  const auto run_sliced = [&](bool lockstep) {
    const std::size_t workers = std::min(ctx.threads, trials);
    std::vector<std::thread> pool;
    const auto start = Clock::now();
    for (std::size_t w = 0; w < workers; ++w) {
      const std::size_t begin = w * trials / workers;
      const std::size_t end = (w + 1) * trials / workers;
      pool.emplace_back([&, begin, end] {
        if (lockstep) {
          const auto out =
              info->lockstep(x0, seeds.subspan(begin, end - begin), options,
                             budget);
          g_sink = g_sink + out.size();
          return;
        }
        for (std::size_t t = begin; t < end; ++t) {
          core::BatchedUsdSimulator sim(x0, rng::Rng(seeds[t]),
                                        options.batch);
          sim.run_to_consensus(budget);
          g_sink = g_sink + sim.interactions();
        }
      });
    }
    for (auto& thread : pool) thread.join();
    return since(start) / static_cast<double>(trials);
  };
  const double lockstep_n = run_sliced(true);
  const double batched_n = run_sliced(false);
  r.metric("sim.lockstep_trial_s.t1", t1);
  r.metric("sim.lockstep_trial_s.nproc", lockstep_n);
  r.metric("sim.batched_trial_s.nproc", batched_n);
  std::printf(
      "# lockstep vs scalar batched, s/trial over %zu trials: 1 thread "
      "%.4f vs %.4f; %zu threads %.4f vs %.4f\n",
      trials, t1, ctx.untraced_trial_seconds, ctx.threads, lockstep_n,
      batched_n);
}

/// Work counts at the fixed pin seed: they must repeat exactly.
void pin_section(Context& ctx) {
  Report& r = ctx.report;
  const auto options = adaptive_options();
  {
    const auto x0 = pp::Configuration::uniform(kHeadlineN, kHeadlineK);
    const std::uint64_t cap = core::default_interaction_cap(x0.n(), x0.k());
    ReplayStats total;
    constexpr int kTrials = 4;
    for (int t = 0; t < kTrials; ++t) {
      total.add(replay_tau_leap(x0, trial_seed(ctx.pin_seed, 100, t), options,
                                cap, nullptr));
    }
    r.metric("core.chunks_per_trial",
             static_cast<double>(total.attempts) / kTrials);
    r.metric("core.rejects_per_trial",
             static_cast<double>(total.rejects) / kTrials);
  }
  {
    const auto model = er_auto_model(trial_seed(ctx.pin_seed, 101, 0));
    const auto x0 = pp::Configuration::uniform(kGraphN, kGraphK);
    const EngineTrial e = run_engine_trial(
        "graph-batched", x0, trial_seed(ctx.pin_seed, 102, 0),
        graph_options(model));
    r.metric("core.class_chunks_per_trial", static_cast<double>(e.chunks));
  }
  {
    const auto x0 = pp::Configuration::uniform(kExactN, kExactK);
    std::uint64_t steps = 0;
    constexpr int kTrials = 2;
    for (int t = 0; t < kTrials; ++t) {
      steps += run_skip_steps(x0, trial_seed(ctx.pin_seed, 103, t)).steps;
    }
    r.metric("core.skip_steps_per_trial",
             static_cast<double>(steps) / kTrials);
  }
}

std::uint64_t parse_u64(const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "kusd_trace: bad integer '%s'\n", text);
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  ctx.threads = std::max(1u, std::thread::hardware_concurrency());
  ctx.workdir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fingerprint") {
      std::printf(
          "{\"simd_tier\": \"%s\", \"simd_supported\": \"%s\", "
          "\"compiler\": \"%s\", \"cplusplus\": %ld}\n",
          rng::simd::to_string(rng::simd::active_tier()),
          rng::simd::to_string(rng::simd::supported_tier()), __VERSION__,
          static_cast<long>(__cplusplus));
      return 0;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "kusd_trace: %s needs a value\n", arg.c_str());
      return 2;
    }
    const char* value = argv[++i];
    if (arg == "--seed") {
      ctx.seed = parse_u64(value);
    } else if (arg == "--pin-seed") {
      ctx.pin_seed = parse_u64(value);
    } else if (arg == "--seconds") {
      ctx.seconds = static_cast<double>(parse_u64(value));
    } else if (arg == "--threads") {
      ctx.threads = std::max<std::size_t>(1, parse_u64(value));
    } else if (arg == "--workdir") {
      ctx.workdir = value;
    } else {
      std::fprintf(stderr, "kusd_trace: unknown option %s\n", arg.c_str());
      return 2;
    }
  }
  try {
    tau_leap_section(ctx);
    rng_section(ctx);
    graph_section(ctx);
    exact_section(ctx);
    service_section(ctx);
    lockstep_section(ctx);
    pin_section(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kusd_trace: %s\n", e.what());
    return 1;
  }
  ctx.report.print_json();
  return 0;
}
