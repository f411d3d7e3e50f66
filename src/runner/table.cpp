#include "runner/table.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string_view>

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

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  widths_.reserve(headers_.size());
  for (const auto& header : headers_) widths_.push_back(header.size());
}

Table& Table::add_row(const std::vector<std::string>& cells) {
  KUSD_CHECK_MSG(cells.size() == headers_.size(),
                 "row width does not match header");
  std::size_t bytes = text_.size();
  for (const auto& cell : cells) bytes += cell.size();
  KUSD_CHECK_MSG(bytes <= UINT32_MAX, "table text exceeds 4 GiB");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    widths_[c] = std::max(widths_[c], cells[c].size());
    text_ += cells[c];
    ends_.push_back(static_cast<std::uint32_t>(text_.size()));
  }
  ++rows_;
  return *this;
}

void Table::reserve(std::size_t rows) {
  // Cells of the benches and of `kusd sweep` are rarely longer than 16
  // bytes; reserved memory that is never written costs no page.
  ends_.reserve(rows * headers_.size());
  text_.reserve(rows * headers_.size() * 16);
}

std::string Table::to_string() const {
  // Every line has the same length, so the whole table is one buffer of
  // blanks that the cells and rules are copied into: "|" plus
  // " cell<pad> |" per column, plus the newline.
  std::size_t line_size = 2;
  for (const auto width : widths_) line_size += width + 3;
  std::string out(line_size * (rows_ + 2), ' ');
  char* line = out.data();
  const auto put_row = [&](const auto& cell_at) {
    char* at = line;
    *at++ = '|';
    for (std::size_t c = 0; c < widths_.size(); ++c) {
      const std::string_view cell = cell_at(c);
      std::memcpy(at + 1, cell.data(), cell.size());
      at += widths_[c] + 2;
      *at++ = '|';
    }
    *at = '\n';
    line += line_size;
  };
  put_row([&](std::size_t c) { return std::string_view(headers_[c]); });
  {
    char* at = line;
    *at++ = '|';
    for (const auto width : widths_) {
      std::memset(at, '-', width + 2);
      at += width + 2;
      *at++ = '|';
    }
    *at = '\n';
    line += line_size;
  }
  const std::string_view text(text_);
  std::size_t cell = 0;
  std::size_t begin = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    put_row([&](std::size_t) {
      const std::size_t end = ends_[cell++];
      const std::string_view bytes = text.substr(begin, end - begin);
      begin = end;
      return bytes;
    });
  }
  return out;
}

void Table::print(std::ostream& os) const { os << to_string(); }

void Table::print() const { print(std::cout); }

}  // namespace kusd::runner
