// ASCII table printer: the benches print paper-style rows with it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace kusd::runner {

/// Format helpers used by benches for uniform numeric rendering.
[[nodiscard]] std::string fmt(double value, int precision = 3);
[[nodiscard]] std::string fmt_int(std::uint64_t value);
/// Compact scientific-ish rendering for large counts (e.g. "3.1e+07").
[[nodiscard]] std::string fmt_compact(double value);

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& add_row(const std::vector<std::string>& cells);
  /// Room for `rows` rows, so a caller that knows its row count grows the
  /// body without copying it; it only ever touches the memory it fills.
  void reserve(std::size_t rows);

  [[nodiscard]] std::size_t num_rows() const { return rows_; }
  [[nodiscard]] std::string to_string() const;
  void print(std::ostream& os) const;
  /// Print to stdout.
  void print() const;

 private:
  std::vector<std::string> headers_;
  /// Widest cell of each column, the header's included.
  std::vector<std::size_t> widths_;
  /// The body as one buffer: every cell's bytes, row-major, and the
  /// offset in `text_` where each cell ends.
  std::string text_;
  std::vector<std::uint32_t> ends_;
  std::size_t rows_ = 0;
};

}  // namespace kusd::runner
