#include "runner/csv.hpp"

#include <algorithm>

#include "pp/trajectory.hpp"
#include "util/check.hpp"

namespace kusd::runner {

namespace {
// RFC 4180 quoting: cells containing separators, quotes, or line breaks
// (\n or \r — bare CR also breaks naive readers) are wrapped in double
// quotes with embedded quotes doubled. Cells that need none are appended
// as they are.
void append_cell(std::string& line, const std::string& cell) {
  const auto special = [](char c) {
    return c == ',' || c == '"' || c == '\n' || c == '\r';
  };
  if (std::none_of(cell.begin(), cell.end(), special)) {
    line += cell;
    return;
  }
  line += '"';
  for (const char c : cell) {
    if (c == '"') line += '"';
    line += c;
  }
  line += '"';
}
}  // namespace

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : out_(path), width_(header.size()) {
  KUSD_CHECK_MSG(out_.good(), "cannot open CSV output file: " + path);
  write_cells(header);
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  KUSD_CHECK_MSG(cells.size() == width_, "CSV row width mismatch");
  write_cells(cells);
}

void CsvWriter::write_cells(const std::vector<std::string>& cells) {
  line_.clear();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) line_ += ',';
    append_cell(line_, cells[i]);
  }
  line_ += '\n';
  out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

void write_trajectory_csv(const pp::Trajectory& trajectory,
                          const std::string& path) {
  CsvWriter csv(path, {"t", "undecided", "xmax", "second", "sum_squares"});
  for (const auto& pt : trajectory.points()) {
    csv.write_row({std::to_string(pt.t), std::to_string(pt.undecided),
                   std::to_string(pt.xmax), std::to_string(pt.second),
                   std::to_string(pt.sum_squares)});
  }
  csv.flush();
  if (!csv.ok()) throw util::CheckError("writing " + path + " failed");
}

}  // namespace kusd::runner
