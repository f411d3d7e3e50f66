// E10 — engineering ablation (google-benchmark): throughput of the
// simulation engines and the design choices DESIGN.md calls out:
//   * plain vs skip-unproductive stepping,
//   * linear vs Fenwick urn,
//   * count-based vs agent-based scheduling,
//   * gossip-model round cost.
//
// items_processed counts *simulated interactions*, so the skip engine's
// advantage (many interactions per productive step) shows up directly in
// items_per_second.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/usd.hpp"
#include "gossip/gossip_usd.hpp"
#include "pp/configuration.hpp"
#include "pp/scheduler.hpp"
#include "rng/rng.hpp"

namespace {

using namespace kusd;

// Step a UsdSimulator for the benchmark loop, transparently restarting
// (outside the timed region) whenever consensus is reached.
class UsdStepper {
 public:
  UsdStepper(pp::Configuration x0, core::UsdOptions options)
      : x0_(std::move(x0)), options_(options), sim_(make()) {}

  void step(benchmark::State& state) {
    if (sim_.is_consensus()) {
      state.PauseTiming();
      interactions_done_ += sim_.interactions();
      sim_ = make();
      state.ResumeTiming();
    }
    sim_.step();
  }

  [[nodiscard]] std::int64_t interactions() const {
    return static_cast<std::int64_t>(interactions_done_ +
                                     sim_.interactions());
  }

 private:
  core::UsdSimulator make() {
    return core::UsdSimulator(x0_, rng::Rng(++seed_), options_);
  }

  pp::Configuration x0_;
  core::UsdOptions options_;
  std::uint64_t seed_ = 0;
  std::uint64_t interactions_done_ = 0;
  core::UsdSimulator sim_;
};

void BM_UsdPlainStep(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  UsdStepper stepper(pp::Configuration::uniform(100000, k, 25000),
                     core::UsdOptions{core::StepMode::kEveryInteraction});
  for (auto _ : state) stepper.step(state);
  state.SetItemsProcessed(stepper.interactions());
}
BENCHMARK(BM_UsdPlainStep)->Arg(2)->Arg(16)->Arg(128)->Arg(1024);

void BM_UsdSkipStep(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  UsdStepper stepper(pp::Configuration::uniform(100000, k, 25000),
                     core::UsdOptions{core::StepMode::kSkipUnproductive});
  for (auto _ : state) stepper.step(state);
  state.SetItemsProcessed(stepper.interactions());
}
BENCHMARK(BM_UsdSkipStep)->Arg(2)->Arg(16)->Arg(128)->Arg(1024);

void BM_UrnEngine(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const bool fenwick = state.range(1) != 0;
  UsdStepper stepper(
      pp::Configuration::uniform(100000, k, 25000),
      core::UsdOptions{core::StepMode::kEveryInteraction,
                       fenwick ? urn::UrnEngine::kFenwick
                               : urn::UrnEngine::kLinear});
  for (auto _ : state) stepper.step(state);
  state.SetItemsProcessed(stepper.interactions());
}
// The crossover sweep behind urn::kLinearThreshold.
BENCHMARK(BM_UrnEngine)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({256, 0})
    ->Args({256, 1});

void BM_AgentScheduler(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  core::UsdProtocol usd(k);
  const auto counts =
      pp::Configuration::uniform(100000, k, 25000).state_counts();
  pp::AgentScheduler sched(usd, counts, rng::Rng(1));
  for (auto _ : state) sched.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(sched.steps()));
}
BENCHMARK(BM_AgentScheduler)->Arg(2)->Arg(16)->Arg(128);

void BM_CountScheduler(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  core::UsdProtocol usd(k);
  const auto counts =
      pp::Configuration::uniform(100000, k, 25000).state_counts();
  pp::CountScheduler sched(usd, counts, rng::Rng(1));
  for (auto _ : state) sched.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(sched.steps()));
}
BENCHMARK(BM_CountScheduler)->Arg(2)->Arg(16)->Arg(128);

void BM_GossipRound(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const auto x0 = pp::Configuration::uniform(1u << 20, k, 0);
  std::uint64_t seed = 0;
  std::uint64_t rounds = 0;
  gossip::GossipUsd g(x0, rng::Rng(++seed));
  for (auto _ : state) {
    if (g.is_consensus()) {
      state.PauseTiming();
      rounds += g.rounds();
      g = gossip::GossipUsd(x0, rng::Rng(++seed));
      state.ResumeTiming();
    }
    g.round();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>((rounds + g.rounds()) * (1u << 20)));
}
BENCHMARK(BM_GossipRound)->Arg(2)->Arg(16)->Arg(64);

}  // namespace
