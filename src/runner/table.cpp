#include "runner/table.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "util/check.hpp"

namespace kusd::runner {

std::string fmt(double value, int precision) {
  char buf[64];
  // std::to_chars(fixed, precision) rounds the exact binary value half to
  // even, as glibc's printf does, without printf's format parsing and
  // locale lookups. Non-finite values, a negative precision, and spellings
  // too long for the buffer (which printf truncates to 63 bytes) keep the
  // printf path so every byte stays the same.
  if (precision >= 0 && std::isfinite(value)) {
    const auto result = std::to_chars(buf, buf + sizeof(buf) - 1, value,
                                      std::chars_format::fixed, precision);
    if (result.ec == std::errc{}) return std::string(buf, result.ptr);
  }
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string fmt_int(std::uint64_t value) {
  // Group digits with thin separators for readability.
  std::string digits = std::to_string(value);
  std::string out;
  const std::size_t len = digits.size();
  for (std::size_t i = 0; i < len; ++i) {
    if (i > 0 && (len - i) % 3 == 0) out += ',';
    out += digits[i];
  }
  return out;
}

std::string fmt_compact(double value) {
  char buf[64];
  if (value == 0.0) return "0";
  if (value >= 1e6 || value < 1e-2) {
    std::snprintf(buf, sizeof(buf), "%.2e", value);
  } else if (value >= 100.0) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", value);
  }
  return buf;
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

Table& Table::add_row(std::vector<std::string> cells) {
  KUSD_CHECK_MSG(cells.size() == headers_.size(),
                 "row width does not match header");
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  // Every line has the same length, so the whole table is one
  // allocation: "|" plus " cell<pad> |" per column, plus the newline.
  std::size_t line_size = 2;
  for (const auto width : widths) line_size += width + 3;
  std::string out;
  out.reserve(line_size * (rows_.size() + 2));
  const auto emit_row = [&](const std::vector<std::string>& cells) {
    out += '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out += ' ';
      out += cells[c];
      out.append(widths[c] - cells[c].size() + 1, ' ');
      out += '|';
    }
    out += '\n';
  };
  emit_row(headers_);
  out += '|';
  for (const auto width : widths) {
    out.append(width + 2, '-');
    out += '|';
  }
  out += '\n';
  for (const auto& row : rows_) emit_row(row);
  return out;
}

void Table::print(std::ostream& os) const { os << to_string(); }

void Table::print() const { print(std::cout); }

}  // namespace kusd::runner
