#!/usr/bin/env python3
"""Unit tests for the kusdlint framework and its passes (fixture trees).

Each test builds a minimal repo in a tempdir and runs lint_all.py on it
as a subprocess — the same entrypoint CI and the smoke ctests use — so
exit codes, allowlist semantics and output format are all covered end to
end. Run directly or via the smoke_kusdlint_selftest ctest:

  python3 tools/test_kusdlint.py
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

LINT_ALL = Path(__file__).resolve().parent / "lint_all.py"

# A minimal, fully *consistent* contract-sync fixture: two registered
# engines, a matching catalog table, matching sweep doc rows and CSV
# schema, and a CLI usage string naming the graph-axis engine. Tests
# mutate one surface at a time and assert the drift is caught.
CONTRACT_FIXTURE = {
    "src/sim/engines.cpp": """\
#include "sim/engines.hpp"
namespace kusd::sim {
void register_builtin_engines(Registry& registry) {
  registry.add("alpha",
               {.factory = nullptr,
                .description = "first test engine"});
  registry.add("beta",
               {.factory = nullptr,
                .description = "graph test engine",
                .uses_graph_axis = true,
                .uses_chunk_options = true});
}
}  // namespace kusd::sim
""",
    "docs/architecture.md": """\
# Architecture

## Knob ledger

| knob | default | set by | number |
|---|---|---|---|
| `--engine`, `--graph`, `--trials` | - | sweep | axis |
| `--inputs`, `--out` | - | merge | paths |
| `WidgetOptions::size`, `WidgetOptions::hook` | 3 | tests | axis |
| `KUSD_WIDGETS`, `KUSD_TRIP` | ON | CI | build scope |
| `kWidgetLimit` | 4 | constant | unmeasured |

## Engine catalog

| engine | description | graph axis | chunked | decided start | aggregated |
|--------|-------------|------------|---------|---------------|------------|
| `alpha` | first test engine | | | | |
| `beta` | graph test engine | yes | yes | | |
""",
    "docs/sweep.md": """\
# Sweep

| option | values | meaning |
|--------|--------|---------|
| `--engine` | registry names | `alpha`, `beta` |
| `--graph` | specs | topology axis; only `beta` |
| `--trials` | 25 | Monte-Carlo trials per point |
| `--inputs` | journals | merge: shard journals to combine |
| `--out` | file | merge: CSV destination |

CSV header = JSONL keys:

```
engine,n,k
```
""",
    "src/runner/sweep.cpp": """\
#include "runner/sweep.hpp"
namespace kusd::runner {
std::vector<std::string> Sweep::csv_header() {
  return {"engine", "n", "k"};
}
}  // namespace kusd::runner
""",
    "tools/kusd_cli.cpp": """\
static const char kUsage[] =
    "kusd sweep --engine alpha,beta --graph SPEC (beta only)\\n";
int cmd_sweep(int argc, char** argv) {
  static const std::set<std::string> known = {
      "engine", "graph", "trials"};
  const char* trip = std::getenv("KUSD_TRIP");
  return 0;
}
int cmd_merge(int argc, char** argv) {
  static const std::set<std::string> known = {
      "inputs", "out"};
  return 0;
}
""",
    # Knob surfaces: an option struct (a data member, a callback member,
    # a defaulted operator and a nested enum, of which two are knobs), a
    # constant, and a CMake option.
    "src/core/widget.hpp": """\
#pragma once
namespace kusd::core {
inline constexpr int kWidgetLimit = 4;
struct WidgetOptions {
  enum class Kind { kRound, kSquare };
  int size = 3;  // a comment; with a semicolon
  std::function<void(std::size_t count)> hook;
  bool operator==(const WidgetOptions&) const = default;
};
}  // namespace kusd::core
""",
    "CMakeLists.txt": """\
option(KUSD_WIDGETS "Build the widgets" ON)
""",
}


def run_lint(root: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINT_ALL), str(root), *extra],
        capture_output=True, text=True, check=False)


class FixtureTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel: str, text: str) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    def write_contract_fixture(self, **overrides: str) -> None:
        for rel, text in {**CONTRACT_FIXTURE, **overrides}.items():
            self.write(rel, text)


class LintAllCliTest(FixtureTest):
    def test_list_exits_zero_and_names_all_passes(self):
        result = run_lint(self.root, "--list")
        self.assertEqual(result.returncode, 0, result.stderr)
        for name in ("layering", "header-self", "rng-discipline",
                     "contract-sync", "determinism", "doc-links"):
            self.assertIn(name, result.stdout)

    def test_unknown_pass_is_a_usage_error(self):
        result = run_lint(self.root, "--pass", "no-such-pass")
        self.assertEqual(result.returncode, 2)
        self.assertIn("unknown pass", result.stderr)

    def test_json_report_is_written(self):
        self.write("src/pp/x.cpp", '#include "runner/sweep.hpp"\n')
        report = self.root / "report.json"
        result = run_lint(self.root, "--pass", "layering",
                          "--json", str(report))
        self.assertEqual(result.returncode, 1)
        data = json.loads(report.read_text())
        self.assertEqual(data["passes"], ["layering"])
        self.assertEqual(data["findings"][0]["code"], "forbidden-dep")
        self.assertEqual(data["findings"][0]["file"], "src/pp/x.cpp")


class LayeringTest(FixtureTest):
    def test_upward_include_is_forbidden(self):
        self.write("src/pp/x.cpp", '#include "runner/sweep.hpp"\n')
        result = run_lint(self.root, "--pass", "layering")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[forbidden-dep]", result.stderr)

    def test_declared_downward_include_passes(self):
        self.write("src/runner/x.cpp", '#include "sim/registry.hpp"\n'
                                       '#include "pp/configuration.hpp"\n')
        self.write("src/pp/configuration.hpp", "#pragma once\n")
        self.write("src/sim/registry.hpp", "#pragma once\n")
        result = run_lint(self.root, "--pass", "layering")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_consumers_may_include_anything(self):
        self.write("tests/t.cpp", '#include "runner/sweep.hpp"\n'
                                  '#include "util/check.hpp"\n')
        result = run_lint(self.root, "--pass", "layering")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_undeclared_module_directory_is_flagged(self):
        self.write("src/mystery/x.cpp", "int x;\n")
        result = run_lint(self.root, "--pass", "layering")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[unknown-module]", result.stderr)

    def test_unresolvable_quoted_include_is_flagged(self):
        self.write("src/util/x.cpp", '#include "nonexistent_file.hpp"\n')
        result = run_lint(self.root, "--pass", "layering")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[unresolved-include]", result.stderr)

    def test_sibling_include_resolves(self):
        self.write("bench/bench_x.cpp", '#include "bench_common.hpp"\n')
        self.write("bench/bench_common.hpp", "#pragma once\n")
        result = run_lint(self.root, "--pass", "layering")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_drivers_may_not_include_a_simulator(self):
        self.write("src/core/usd.hpp", "#pragma once\n")
        self.write("src/sim/batched_graph_engine.hpp", "#pragma once\n")
        # Benches (and tests, examples, sim's adapters) may construct one.
        self.write("bench/bench_x.cpp", '#include "core/usd.hpp"\n')
        self.write("src/sim/engines.cpp", '#include "core/usd.hpp"\n')
        self.assertEqual(
            run_lint(self.root, "--pass", "layering").returncode, 0)
        self.write("src/runner/x.cpp", '#include "core/usd.hpp"\n')
        self.write("tools/kusd_cli.cpp",
                   '#include "sim/batched_graph_engine.hpp"\n')
        result = run_lint(self.root, "--pass", "layering")
        self.assertEqual(result.returncode, 1)
        self.assertIn("src/runner/x.cpp:1: [simulator-include]",
                      result.stderr)
        self.assertIn("tools/kusd_cli.cpp:1: [simulator-include]",
                      result.stderr)

    def test_allowlist_suppresses_and_stale_entry_fails(self):
        self.write("src/pp/x.cpp", '#include "runner/sweep.hpp"\n')
        self.write("tools/layering_allowlist.txt",
                   "src/pp/x.cpp:forbidden-dep\n")
        self.assertEqual(
            run_lint(self.root, "--pass", "layering").returncode, 0)
        # Fix the violation but keep the entry: now it is stale.
        self.write("src/pp/x.cpp", "int x;\n")
        result = run_lint(self.root, "--pass", "layering")
        self.assertEqual(result.returncode, 1)
        self.assertIn("stale allowlist entry", result.stderr)


class HeaderSelfTest(FixtureTest):
    def test_transitive_use_needs_direct_include(self):
        self.write("src/core/a.cpp", '#include "core/a.hpp"\n'
                                     "int f() { return pp::magic(); }\n")
        self.write("src/core/a.hpp", "#pragma once\n")
        result = run_lint(self.root, "--pass", "header-self")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[missing-include]", result.stderr)

    def test_direct_include_satisfies_use(self):
        self.write("src/core/a.cpp",
                   '#include "pp/configuration.hpp"\n'
                   "int f() { return pp::magic(); }\n")
        result = run_lint(self.root, "--pass", "header-self")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_unused_module_include_is_dead(self):
        self.write("src/core/a.cpp", '#include "rng/rng.hpp"\n'
                                     "int f() { return 1; }\n")
        result = run_lint(self.root, "--pass", "header-self")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[dead-include]", result.stderr)

    def test_macro_use_counts_as_module_use(self):
        self.write("src/core/a.cpp", '#include "util/check.hpp"\n'
                                     "void f() { KUSD_DCHECK(true); }\n")
        result = run_lint(self.root, "--pass", "header-self")
        self.assertEqual(result.returncode, 0, result.stderr)


class RngDisciplineTest(FixtureTest):
    def test_std_distribution_outside_rng_is_flagged(self):
        self.write("src/core/a.cpp",
                   "std::uniform_int_distribution<int> d(0, 5);\n")
        result = run_lint(self.root, "--pass", "rng-discipline")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[std-distribution]", result.stderr)

    def test_src_rng_is_exempt(self):
        self.write("src/rng/rng.cpp",
                   "std::uniform_int_distribution<int> d(0, 5);\n"
                   "rng::Rng r(12345);\n")
        result = run_lint(self.root, "--pass", "rng-discipline")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_literal_seed_is_flagged(self):
        for line in ("rng::Rng r(42);", "rng::Rng r{0xDEADBEEF};",
                     "r.reseed(7);", "auto s = stream_seed(1, i);"):
            with self.subTest(line=line):
                self.write("src/core/a.cpp", line + "\n")
                result = run_lint(self.root, "--pass", "rng-discipline")
                self.assertEqual(result.returncode, 1, line)
                self.assertIn("[raw-seed]", result.stderr)

    def test_threaded_seed_passes(self):
        self.write("src/core/a.cpp",
                   "rng::Rng r(rng::stream_seed(seed, trial));\n")
        result = run_lint(self.root, "--pass", "rng-discipline")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_rng_copy_inside_loop_is_flagged(self):
        self.write("src/core/a.cpp",
                   "void f(rng::Rng& base) {\n"
                   "  for (int i = 0; i < 10; ++i) {\n"
                   "    rng::Rng fork = base;\n"
                   "  }\n"
                   "}\n")
        result = run_lint(self.root, "--pass", "rng-discipline")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[rng-copy-in-loop]", result.stderr)

    def test_rng_copy_outside_loop_passes(self):
        self.write("src/core/a.cpp",
                   "void f(rng::Rng& base) {\n"
                   "  rng::Rng fork = base;\n"
                   "}\n")
        result = run_lint(self.root, "--pass", "rng-discipline")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_raw_intrinsics_outside_rng_are_flagged(self):
        for line in ("#include <immintrin.h>",
                     "#include <emmintrin.h>",
                     "__m256i x = _mm256_set1_epi64x(1);",
                     "__m128d d = _mm_set1_pd(0.5);"):
            with self.subTest(line=line):
                self.write("src/core/a.cpp", line + "\n")
                result = run_lint(self.root, "--pass", "rng-discipline")
                self.assertEqual(result.returncode, 1, line)
                self.assertIn("[raw-intrinsics]", result.stderr)

    def test_raw_intrinsics_inside_src_rng_are_flagged(self):
        # src/rng/ is exempt from the provenance codes, not from this
        # one: no sampler is vectorized, so no file of src/ may be.
        self.write("src/rng/binomial_lanes_avx2.cpp",
                   "#include <immintrin.h>\n"
                   "__m256i x = _mm256_set1_epi64x(1);\n")
        result = run_lint(self.root, "--pass", "rng-discipline")
        self.assertEqual(result.returncode, 1)
        self.assertIn("src/rng/binomial_lanes_avx2.cpp:2", result.stderr)
        self.assertIn("[raw-intrinsics]", result.stderr)

    def test_tier_probe_api_use_passes(self):
        # Naming the tier probe (rng/simd.hpp, no intrinsics) is not
        # vector code.
        self.write("src/core/a.cpp",
                   '#include "rng/simd.hpp"\n'
                   "auto t = rng::simd::active_tier();\n")
        result = run_lint(self.root, "--pass", "rng-discipline")
        self.assertEqual(result.returncode, 0, result.stderr)


# One line per hazard class the determinism pass must catch.
DETERMINISM_HAZARDS = {
    "random-device": "std::random_device dev;",
    "c-rand": "int x = rand() % 6;",
    "wall-clock": "auto t = std::chrono::steady_clock::now();",
    "std-shuffle": "std::shuffle(v.begin(), v.end(), gen);",
    "unordered-container": "std::unordered_map<int, int> counts;",
    "hardware-concurrency":
        "auto n = std::thread::hardware_concurrency();",
    "std-engine": "std::mt19937 gen;",
}


class DeterminismTest(FixtureTest):
    def lint(self) -> subprocess.CompletedProcess:
        return run_lint(self.root, "--pass", "determinism")

    def test_clean_tree_passes(self):
        self.write("src/ok.cpp", "int add(int a, int b) { return a + b; }\n")
        result = self.lint()
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_every_hazard_class_is_caught(self):
        for code, line in DETERMINISM_HAZARDS.items():
            with self.subTest(code=code):
                self.write("src/bad.cpp", line + "\n")
                result = self.lint()
                self.assertEqual(result.returncode, 1,
                                 f"{code} not caught: {result.stdout}")
                self.assertIn(f"[{code}]", result.stderr)
                self.assertIn("src/bad.cpp:1", result.stderr)

    def test_time_call_is_wall_clock_but_names_are_not(self):
        self.write("src/bad.cpp", "auto seed = time(nullptr);\n")
        self.assertEqual(self.lint().returncode, 1)
        # Identifiers merely containing 'time(' must not trip the check.
        self.write("src/bad.cpp",
                   "double parallel_time() const; double t = run_time(x);\n")
        self.assertEqual(self.lint().returncode, 0)

    def test_comments_and_strings_do_not_trip(self):
        self.write("src/doc.cpp",
                   "// never use std::random_device here\n"
                   "/* std::shuffle is forbidden\n   rand() too */\n"
                   'const char* msg = "std::unordered_map is banned";\n')
        result = self.lint()
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_allowlist_suppresses_audited_entry(self):
        self.write("src/pool.cpp",
                   "auto n = std::thread::hardware_concurrency();\n")
        self.write("tools/determinism_allowlist.txt",
                   "# audited: sizing only\n"
                   "src/pool.cpp:hardware-concurrency\n")
        result = self.lint()
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_allowlist_is_per_hazard_not_per_file(self):
        self.write("src/pool.cpp",
                   "auto n = std::thread::hardware_concurrency();\n"
                   "std::random_device dev;\n")
        self.write("tools/determinism_allowlist.txt",
                   "src/pool.cpp:hardware-concurrency\n")
        result = self.lint()
        self.assertEqual(result.returncode, 1)
        self.assertIn("[random-device]", result.stderr)
        self.assertNotIn("[hardware-concurrency]", result.stderr)

    def test_stale_allowlist_entry_fails(self):
        self.write("src/ok.cpp", "int x = 0;\n")
        self.write("tools/determinism_allowlist.txt",
                   "src/ok.cpp:wall-clock\n")
        result = self.lint()
        self.assertEqual(result.returncode, 1)
        self.assertIn("stale allowlist entry", result.stderr)

    def test_malformed_allowlist_is_a_usage_error(self):
        self.write("src/ok.cpp", "int x = 0;\n")
        self.write("tools/determinism_allowlist.txt", "not-an-entry\n")
        self.assertEqual(self.lint().returncode, 2)

    def test_missing_src_dir_is_a_usage_error(self):
        self.assertEqual(self.lint().returncode, 2)

    def test_findings_name_file_line_and_code(self):
        self.write("src/deep/nested.hpp",
                   "int a;\nint b;\nstd::mt19937 gen;\n")
        result = self.lint()
        self.assertEqual(result.returncode, 1)
        self.assertIn("src/deep/nested.hpp:3: [std-engine]", result.stderr)


class ContractSyncTest(FixtureTest):
    def test_consistent_fixture_passes(self):
        self.write_contract_fixture()
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_registered_engine_without_doc_row_fails(self):
        # The acceptance case: adding an engine registration without its
        # architecture.md catalog row must fail the lint.
        self.write_contract_fixture(**{
            "docs/architecture.md": """\
# Architecture

## Knob ledger

| knob | default | set by | number |
|---|---|---|---|
| `--engine`, `--graph`, `--trials` | - | sweep | axis |
| `--inputs`, `--out` | - | merge | paths |
| `WidgetOptions::size`, `WidgetOptions::hook` | 3 | tests | axis |
| `KUSD_WIDGETS`, `KUSD_TRIP` | ON | CI | build scope |
| `kWidgetLimit` | 4 | constant | unmeasured |

## Engine catalog

| engine | description | graph axis | chunked | decided start | aggregated |
|--------|-------------|------------|---------|---------------|------------|
| `alpha` | first test engine | | | | |
"""})
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[missing-doc-row]", result.stderr)
        self.assertIn("beta", result.stderr)

    def test_ghost_doc_row_fails(self):
        self.write_contract_fixture(**{
            "docs/architecture.md": CONTRACT_FIXTURE["docs/architecture.md"]
            + "| `gamma` | never registered | | | | |\n"})
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[ghost-doc-row]", result.stderr)

    def test_description_drift_fails(self):
        self.write_contract_fixture(**{
            "docs/architecture.md": CONTRACT_FIXTURE[
                "docs/architecture.md"].replace(
                "first test engine", "stale description")})
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[doc-desc-drift]", result.stderr)

    def test_flag_drift_fails(self):
        self.write_contract_fixture(**{
            "docs/architecture.md": CONTRACT_FIXTURE[
                "docs/architecture.md"].replace(
                "| `beta` | graph test engine | yes | yes | | |",
                "| `beta` | graph test engine | | yes | | |")})
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[doc-flag-drift]", result.stderr)

    def test_missing_catalog_section_fails(self):
        self.write_contract_fixture(**{
            "docs/architecture.md": "# Architecture\n\nno catalog here\n"})
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[missing-doc-section]", result.stderr)

    def test_schema_drift_fails(self):
        self.write_contract_fixture(**{
            "src/runner/sweep.cpp": CONTRACT_FIXTURE[
                "src/runner/sweep.cpp"].replace(
                '"engine", "n", "k"', '"engine", "n", "k", "extra"')})
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[schema-drift]", result.stderr)

    def test_sweep_doc_missing_engine_fails(self):
        self.write_contract_fixture(**{
            "docs/sweep.md": CONTRACT_FIXTURE["docs/sweep.md"].replace(
                "`alpha`, `beta`", "`alpha`")})
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[sweep-doc-drift]", result.stderr)

    def test_cli_usage_missing_graph_engine_fails(self):
        self.write_contract_fixture(**{
            "tools/kusd_cli.cpp":
                'static const char kUsage[] = "kusd sweep --engine '
                'alpha --graph SPEC\\n";\n'
                'static const std::set<std::string> known = {\n'
                '    "engine", "graph", "trials"};\n'})
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[cli-help-drift]", result.stderr)

    def test_missing_input_file_is_a_usage_error(self):
        self.write_contract_fixture()
        (self.root / "docs/sweep.md").unlink()
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 2)

    def test_accepted_flag_without_doc_row_fails(self):
        # The acceptance case for the flag contract: teaching cmd_sweep a
        # new flag without its docs/sweep.md row must fail the lint.
        self.write_contract_fixture(**{
            "tools/kusd_cli.cpp": CONTRACT_FIXTURE[
                "tools/kusd_cli.cpp"].replace(
                '"engine", "graph", "trials"',
                '"engine", "graph", "trials", "stripe-width"')})
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[flag-doc-drift]", result.stderr)
        self.assertIn("stripe-width", result.stderr)

    def test_merge_flag_without_doc_row_fails(self):
        # Every subcommand's known-set is covered, not just cmd_sweep's:
        # a new merge flag without a doc row must fail too, attributed to
        # the right subcommand.
        self.write_contract_fixture(**{
            "tools/kusd_cli.cpp": CONTRACT_FIXTURE[
                "tools/kusd_cli.cpp"].replace(
                '"inputs", "out"', '"inputs", "out", "strict"')})
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[flag-doc-drift]", result.stderr)
        self.assertIn("merge flag '--strict'", result.stderr)

    def test_ghost_flag_row_fails(self):
        self.write_contract_fixture(**{
            "docs/sweep.md": CONTRACT_FIXTURE["docs/sweep.md"].replace(
                "| `--trials` | 25 | Monte-Carlo trials per point |",
                "| `--trials` | 25 | Monte-Carlo trials per point |\n"
                "| `--retired` | — | no longer accepted |")})
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[flag-doc-drift]", result.stderr)
        self.assertIn("retired", result.stderr)

    def test_option_field_without_ledger_row_fails(self):
        # The acceptance case for the ledger: a new option field without
        # its row fails, reported where the field is declared.
        self.write_contract_fixture(**{
            "src/core/widget.hpp": CONTRACT_FIXTURE[
                "src/core/widget.hpp"].replace(
                "  int size = 3;", "  int size = 3;\n  double scale = 1.0;")})
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 1)
        self.assertIn("src/core/widget.hpp:7: [knob-ledger-missing]",
                      result.stderr)
        self.assertIn("'WidgetOptions::scale'", result.stderr)

    def test_flag_cmake_option_and_env_without_ledger_row_fail(self):
        self.write_contract_fixture(**{
            "docs/architecture.md": CONTRACT_FIXTURE[
                "docs/architecture.md"].replace(
                "| `--inputs`, `--out` | - | merge | paths |\n", "").replace(
                "`KUSD_WIDGETS`, `KUSD_TRIP`", "`KUSD_WIDGETS`"),
            "src/CMakeLists.txt": 'option(KUSD_GADGETS "gadgets" OFF)\n'})
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 1)
        for knob in ("'--inputs'", "'--out'", "'KUSD_GADGETS'",
                     "'KUSD_TRIP'"):
            self.assertIn(knob, result.stderr)
        self.assertEqual(result.stderr.count("[knob-ledger-missing]"), 4)

    def test_missing_ledger_section_fails(self):
        self.write_contract_fixture(**{
            "docs/architecture.md": CONTRACT_FIXTURE[
                "docs/architecture.md"].replace("## Knob ledger",
                                                "## Knobs")})
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[knob-ledger-missing]", result.stderr)
        self.assertIn("no '## Knob ledger' section", result.stderr)

    def test_ledger_row_for_a_removed_field_is_a_ghost(self):
        # A field that became a constant leaves its row behind: the row
        # names no knob.
        self.write_contract_fixture(**{
            "src/core/widget.hpp": CONTRACT_FIXTURE[
                "src/core/widget.hpp"].replace(
                "  std::function<void(std::size_t count)> hook;\n", "")})
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 1)
        self.assertIn("docs/architecture.md:9: [knob-ledger-ghost]",
                      result.stderr)
        self.assertIn("'WidgetOptions::hook'", result.stderr)
        self.assertNotIn("[knob-ledger-missing]", result.stderr)

    def test_ledger_row_for_an_undeclared_constant_is_a_ghost(self):
        self.write_contract_fixture(**{
            "src/core/widget.hpp": CONTRACT_FIXTURE[
                "src/core/widget.hpp"].replace(
                "inline constexpr int kWidgetLimit = 4;\n", "")})
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[knob-ledger-ghost]", result.stderr)
        self.assertIn("'kWidgetLimit'", result.stderr)

    def test_missing_known_flags_set_is_a_usage_error(self):
        self.write_contract_fixture(**{
            "tools/kusd_cli.cpp":
                'static const char kUsage[] = "kusd sweep --engine '
                'alpha,beta --graph SPEC (beta only)\\n";\n'})
        result = run_lint(self.root, "--pass", "contract-sync")
        self.assertEqual(result.returncode, 2)
        self.assertIn("known-flags", result.stderr)


if __name__ == "__main__":
    unittest.main()
