// Shared helpers for the bench binaries.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pp/configuration.hpp"
#include "runner/scale.hpp"
#include "runner/table.hpp"

namespace kusd::bench {

/// Minimal machine-readable result emitter: accumulates an ordered flat
/// JSON object and writes it to `path` (the BENCH_*.json convention — see
/// docs/benchmarks.md). Values are emitted verbatim, so callers
/// pass numbers as numbers and pre-quoted strings via add_string.
class JsonResult {
 public:
  void add(const std::string& key, double value) {
    std::ostringstream os;
    os << value;
    fields_.emplace_back(key, os.str());
  }
  void add(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void add(const std::string& key, int value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void add_bool(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
  }
  void add_string(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + value + "\"");
  }

  /// Write `{ "k": v, ... }` to `path`; returns false (with a stderr note)
  /// on I/O failure so benches can exit non-zero instead of advertising a
  /// missing artifact.
  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %s%s\n", fields_[i].first.c_str(),
                   fields_[i].second.c_str(),
                   i + 1 < fields_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    const bool ok = std::fclose(f) == 0;
    if (!ok) std::fprintf(stderr, "error writing %s\n", path.c_str());
    return ok;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Print the standard experiment banner (id, paper artifact, scale knob).
inline void banner(const char* experiment_id, const char* artifact,
                   const char* claim) {
  std::printf("=== %s — %s ===\n", experiment_id, artifact);
  std::printf("%s\n", claim);
  std::printf("(REPRO_SCALE=%.2f; set REPRO_SCALE to rescale sizes/trials)\n\n",
              runner::repro_scale());
}

/// n log n with natural log, as a double.
inline double n_log_n(pp::Count n) {
  const double dn = static_cast<double>(n);
  return dn * std::log(dn);
}

/// The paper's additive-bias magnitude c * sqrt(n log n).
inline pp::Count additive_beta(pp::Count n, double c) {
  return static_cast<pp::Count>(c * std::sqrt(n_log_n(n)));
}

}  // namespace kusd::bench
