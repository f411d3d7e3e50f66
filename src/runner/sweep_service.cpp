#include "runner/sweep_service.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <span>
#include <string_view>
#include <system_error>
#include <utility>

#include "sim/registry.hpp"
#include "util/check.hpp"

namespace kusd::runner {

namespace {

/// Every service defect throws the repo-wide check error so callers and
/// tests have one exception type to catch; the message is the diagnostic.
[[noreturn]] void fail(const std::string& message) {
  throw util::CheckError(message);
}

// ---------------------------------------------------------------------------
// FNV-1a 64 over a canonical serialization: the digest and the per-row
// checksum share one accumulator so both are stable, documented values.

class Fnv64 {
 public:
  static constexpr std::uint64_t kPrime = 1099511628211ULL;

  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * kPrime;
    }
  }
  /// The 8 little-endian bytes of `value`. A zero byte only multiplies
  /// the hash by the prime, so the last nonzero byte and the run of zero
  /// bytes above it (7 of 8 in a field length) take one multiply by a
  /// power of it: the same value with a shorter chain of dependent
  /// multiplies.
  void u64(std::uint64_t value) {
    const int significant =
        std::max(1, static_cast<int>(std::bit_width(value) + 7) / 8);
    for (int i = 0; i + 1 < significant; ++i) {
      hash_ = (hash_ ^ ((value >> (8 * i)) & 0xFF)) * kPrime;
    }
    hash_ = (hash_ ^ (value >> (8 * (significant - 1)))) *
            kPrimePowers[static_cast<std::size_t>(9 - significant)];
  }
  /// Length-prefixed, so field boundaries can't alias ("ab","c" never
  /// hashes like "a","bc").
  void str(std::string_view text) {
    u64(text.size());
    bytes(text.data(), text.size());
  }
  /// Shortest round-trip spelling — the canonical form of a double.
  void real(double value) {
    char buffer[32];
    const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
    str(std::string_view(buffer, static_cast<std::size_t>(
                                     result.ptr - buffer)));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  /// kPrime^m mod 2^64 for m = 0..8.
  static constexpr std::array<std::uint64_t, 9> kPrimePowers = [] {
    std::array<std::uint64_t, 9> powers{};
    powers[0] = 1;
    for (std::size_t m = 1; m < powers.size(); ++m) {
      powers[m] = powers[m - 1] * kPrime;
    }
    return powers;
  }();

  std::uint64_t hash_ = 1469598103934665603ULL;
};

void write_hex16(std::uint64_t value, char* out) {
  for (int i = 15; i >= 0; --i) {
    out[i] = "0123456789abcdef"[value & 0xF];
    value >>= 4;
  }
}

std::string to_hex16(std::uint64_t value) {
  char buffer[16];
  write_hex16(value, buffer);
  return std::string(buffer, sizeof buffer);
}

std::optional<std::uint64_t> parse_hex16(std::string_view text) {
  // The value of each lowercase hex digit; 16 marks every other byte.
  static constexpr std::array<std::uint8_t, 256> kDigit = [] {
    std::array<std::uint8_t, 256> digit{};
    digit.fill(16);
    for (int c = '0'; c <= '9'; ++c) {
      digit[c] = static_cast<std::uint8_t>(c - '0');
    }
    for (int c = 'a'; c <= 'f'; ++c) {
      digit[c] = static_cast<std::uint8_t>(c - 'a' + 10);
    }
    return digit;
  }();
  if (text.size() != 16) return std::nullopt;
  std::uint64_t value = 0;
  std::uint8_t bad = 0;
  for (const char c : text) {
    const std::uint8_t digit = kDigit[static_cast<unsigned char>(c)];
    bad |= digit & 16;
    value = (value << 4) | (digit & 15);
  }
  if (bad != 0) return std::nullopt;
  return value;
}

std::uint64_t row_checksum(const std::vector<std::string>& row) {
  Fnv64 fnv;
  fnv.u64(row.size());
  for (const auto& field : row) fnv.str(field);
  return fnv.value();
}

// ---------------------------------------------------------------------------
// Minimal strict JSON for the journal's two line shapes: flat objects
// whose values are unsigned integers, strings, or arrays of strings.
// Anything else — and any syntax error — is a loud failure carrying the
// line's context, because a journal defect must never be silently
// skipped. Lines are parsed in place: a value is a view of its token in
// the file buffer, and a string's escapes are decoded only where its
// bytes are read (string_bytes).

/// Where a journal line came from. The "journal: path:line" prefix of a
/// diagnostic is only built when the line is rejected.
struct LineContext {
  std::string_view path;
  std::size_t line = 0;

  [[noreturn]] void reject(std::string_view what) const {
    fail("journal: " + std::string(path) + ':' + std::to_string(line) +
         ": " + std::string(what));
  }
};

struct JsonValue {
  enum class Kind { kNumber, kString, kArray };
  Kind kind = Kind::kNumber;
  std::uint64_t number = 0;
  /// The value's token in the line: a string with its quotes, an array
  /// from '[' to ']'. Escapes are not decoded.
  std::string_view text;
  /// An array's string tokens, quotes included.
  std::vector<std::string_view> array;
};

/// A key one line shape reads, and the value parsed for it. Reused from
/// line to line, so its buffers keep their capacity.
struct JsonMember {
  explicit JsonMember(std::string_view name) : key(name) {}

  std::string_view key;
  bool present = false;
  JsonValue value;
};

/// The bytes a string token (as parsed, quotes included) stands for: its
/// body when it has no escape, else its decoding in `scratch`.
std::string_view string_bytes(std::string_view token, std::string& scratch);

class LineParser {
 public:
  /// Parse `text`; values of the keys in `members` land there (their
  /// `present` flags must start false), other keys are checked and
  /// dropped.
  LineParser(std::string_view text, const LineContext& context,
             std::span<JsonMember> members = {})
      : text_(text), context_(context), members_(members) {}

  /// Parse the text as one flat object.
  void parse_object() {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      advance();
    } else {
      while (true) {
        skip_ws();
        const std::string_view key = string_bytes(parse_string(), key_);
        skip_ws();
        expect(':');
        skip_ws();
        JsonMember* member = find(key);
        const bool duplicate =
            member != nullptr
                ? member->present
                : std::find(other_keys_.begin(), other_keys_.end(), key) !=
                      other_keys_.end();
        parse_value(member != nullptr ? member->value : other_value_);
        if (duplicate) context_.reject("duplicate key in JSON object");
        if (member != nullptr) {
          member->present = true;
        } else {
          other_keys_.emplace_back(key);
        }
        skip_ws();
        const char c = next();
        if (c == '}') break;
        if (c != ',') context_.reject("expected ',' or '}'");
      }
    }
    skip_ws();
    if (pos_ != text_.size()) {
      context_.reject("trailing bytes after JSON object");
    }
  }

  /// Parse the string token at the cursor and return it; its decoded
  /// bytes are appended to `decoded` when that is given.
  std::string_view parse_string(std::string* decoded = nullptr) {
    const std::size_t begin = pos_;
    expect('"');
    while (true) {
      // Take the run of plain bytes in one go; stop at the closing quote,
      // an escape, or a control byte.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      if (decoded != nullptr) decoded->append(text_, run, pos_ - run);
      const char c = next();
      if (c == '"') return text_.substr(begin, pos_ - begin);
      if (c != '\\') {
        context_.reject("raw control character in JSON string");
      }
      char byte = 0;
      switch (next()) {
        case '"': byte = '"'; break;
        case '\\': byte = '\\'; break;
        case '/': byte = '/'; break;
        case 'b': byte = '\b'; break;
        case 'f': byte = '\f'; break;
        case 'n': byte = '\n'; break;
        case 'r': byte = '\r'; break;
        case 't': byte = '\t'; break;
        case 'u': {
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = next();
            value <<= 4;
            if (h >= '0' && h <= '9') {
              value |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              value |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              value |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              context_.reject("bad \\u escape");
            }
          }
          // The writer only emits \u00XX for control bytes; anything
          // beyond one byte is not ours.
          if (value > 0xFF) context_.reject("unsupported \\u escape");
          byte = static_cast<char>(value);
          break;
        }
        default:
          context_.reject("bad escape in JSON string");
      }
      if (decoded != nullptr) decoded->push_back(byte);
    }
  }

  /// Parse the array of strings at the cursor, calling `element()` with
  /// the cursor on each element's token; `element` must consume it.
  template <class Element>
  void parse_array(const Element& element) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      advance();
      return;
    }
    while (true) {
      skip_ws();
      element();
      skip_ws();
      const char sep = next();
      if (sep == ']') return;
      if (sep != ',') context_.reject("expected ',' or ']'");
    }
  }

 private:
  [[nodiscard]] JsonMember* find(std::string_view key) const {
    for (JsonMember& member : members_) {
      if (member.key == key) return &member;
    }
    return nullptr;
  }
  [[nodiscard]] char peek() const {
    if (pos_ >= text_.size()) context_.reject("truncated JSON line");
    return text_[pos_];
  }
  void advance() { ++pos_; }
  char next() {
    const char c = peek();
    advance();
    return c;
  }
  void expect(char wanted) {
    if (next() != wanted) {
      context_.reject("expected '" + std::string(1, wanted) + '\'');
    }
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  void parse_value(JsonValue& value) {
    const std::size_t begin = pos_;
    const char c = peek();
    if (c == '"') {
      value.kind = JsonValue::Kind::kString;
      parse_string();
    } else if (c == '[') {
      value.kind = JsonValue::Kind::kArray;
      value.array.clear();
      parse_array([&] { value.array.push_back(parse_string()); });
    } else {
      if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
        context_.reject("expected a string, array or unsigned integer");
      }
      value.kind = JsonValue::Kind::kNumber;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
      const std::string_view digits = text_.substr(begin, pos_ - begin);
      const auto result = std::from_chars(
          digits.data(), digits.data() + digits.size(), value.number);
      if (result.ec != std::errc{} ||
          result.ptr != digits.data() + digits.size()) {
        context_.reject("integer out of range");
      }
    }
    value.text = text_.substr(begin, pos_ - begin);
  }

  std::string_view text_;
  const LineContext& context_;
  std::span<JsonMember> members_;
  std::size_t pos_ = 0;
  std::string key_;
  /// Keys outside `members_`, kept only to catch their duplicates.
  std::vector<std::string> other_keys_;
  JsonValue other_value_;
};

std::string_view string_bytes(std::string_view token, std::string& scratch) {
  const std::string_view body = token.substr(1, token.size() - 2);
  if (body.find('\\') == std::string_view::npos) return body;
  scratch.clear();
  // The token was validated when its line was parsed.
  const LineContext validated{};
  LineParser(token, validated).parse_string(&scratch);
  return scratch;
}

// ---------------------------------------------------------------------------
// Journal lines.

std::string header_line(const JournalHeader& header) {
  std::string line = "{\"kusd_journal\":1";
  line += ",\"digest\":\"" + to_hex16(header.digest) + '"';
  line += ",\"points_begin\":" + std::to_string(header.points_begin);
  line += ",\"points_end\":" + std::to_string(header.points_end);
  line += ",\"points_total\":" + std::to_string(header.points_total);
  line += ",\"shard_index\":" + std::to_string(header.shard.index);
  line += ",\"shard_count\":" + std::to_string(header.shard.count);
  line += ",\"trials\":" + std::to_string(header.trials);
  line += "}\n";
  return line;
}

/// Append the journal line of cell `index` to `line`.
void append_cell_line(std::string& line, std::size_t index,
                      const std::vector<std::string>& row) {
  char digits[20];
  line += "{\"cell\":";
  line.append(digits,
              std::to_chars(digits, digits + sizeof digits, index).ptr);
  line += ",\"crc\":\"";
  char crc[16];
  write_hex16(row_checksum(row), crc);
  line.append(crc, sizeof crc);
  line += "\",\"row\":[";
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) line += ',';
    line += '"';
    append_json_escaped(line, row[i]);
    line += '"';
  }
  line += "]}\n";
}

const JsonValue& require(const JsonMember& member, JsonValue::Kind kind,
                         const LineContext& context) {
  if (!member.present) {
    context.reject("missing key \"" + std::string(member.key) + '"');
  }
  if (member.value.kind != kind) {
    context.reject("key \"" + std::string(member.key) +
                   "\" has the wrong type");
  }
  return member.value;
}

JournalHeader parse_header(std::string_view line,
                           const LineContext& context) {
  std::array<JsonMember, 8> members = {
      JsonMember("kusd_journal"), JsonMember("digest"),
      JsonMember("points_begin"), JsonMember("points_end"),
      JsonMember("points_total"), JsonMember("shard_index"),
      JsonMember("shard_count"),  JsonMember("trials")};
  LineParser(line, context, members).parse_object();
  const auto field = [&](std::string_view key,
                         JsonValue::Kind kind) -> const JsonValue& {
    return require(*std::find_if(members.begin(), members.end(),
                                 [&](const JsonMember& member) {
                                   return member.key == key;
                                 }),
                   kind, context);
  };
  const auto number = [&](std::string_view key) {
    return field(key, JsonValue::Kind::kNumber).number;
  };
  if (number("kusd_journal") != 1) {
    context.reject("unsupported journal version");
  }
  JournalHeader header;
  std::string scratch;
  const auto digest = parse_hex16(
      string_bytes(field("digest", JsonValue::Kind::kString).text, scratch));
  if (!digest) context.reject("malformed digest");
  header.digest = *digest;
  header.points_begin = static_cast<std::size_t>(number("points_begin"));
  header.points_end = static_cast<std::size_t>(number("points_end"));
  header.points_total = static_cast<std::size_t>(number("points_total"));
  header.shard.index = static_cast<std::size_t>(number("shard_index"));
  header.shard.count = static_cast<std::size_t>(number("shard_count"));
  const std::uint64_t trials = number("trials");
  if (trials > 1'000'000'000) context.reject("trials out of range");
  header.trials = static_cast<int>(trials);

  if (header.shard.count == 0 || header.shard.index >= header.shard.count) {
    context.reject("invalid shard coordinates");
  }
  if (header.points_begin > header.points_end ||
      header.points_end > header.points_total) {
    context.reject("invalid point range");
  }
  const auto canonical = shard_range(header.points_total, header.shard);
  if (header.points_begin != canonical.begin ||
      header.points_end != canonical.end) {
    context.reject("point range does not match the shard block formula");
  }
  return header;
}

/// RAII stdio handle: journals stay closed on every exit path, and
/// write failures surface as exceptions instead of silent truncation.
struct FileCloser {
  void operator()(std::FILE* file) const {
    if (file != nullptr) std::fclose(file);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void write_all(std::FILE* file, const std::string& text,
               const std::string& path) {
  if (std::fwrite(text.data(), 1, text.size(), file) != text.size() ||
      std::fflush(file) != 0) {
    fail("journal: write to " + path + " failed");
  }
}

/// The checksum of a row parsed as an array value: the same value
/// row_checksum gives the decoded fields.
std::uint64_t row_checksum(const JsonValue& row, std::string& scratch) {
  Fnv64 fnv;
  fnv.u64(row.array.size());
  for (const std::string_view token : row.array) {
    fnv.str(string_bytes(token, scratch));
  }
  return fnv.value();
}

/// The whole file: one read into a buffer presized from the file's
/// length, then whatever it grew by meanwhile (or all of it, when the
/// length is unknown).
std::string read_file(const std::string& path) {
  const FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) fail("journal: cannot open " + path);
  std::error_code error;
  const std::uintmax_t length = std::filesystem::file_size(path, error);
  std::string content(error ? 0 : static_cast<std::size_t>(length), '\0');
  content.resize(std::fread(content.data(), 1, content.size(), file.get()));
  char buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file.get())) > 0) {
    content.append(buffer, got);
  }
  if (std::ferror(file.get()) != 0) fail("journal: cannot read " + path);
  return content;
}

/// A journal read and validated in place: the file's bytes, plus where
/// each recorded cell's row array sits in them — no map node and no row
/// vector per line. A row is decoded only when it is read. Cells are
/// held in grid order.
class JournalText {
 public:
  /// Read and validate `path`; throws util::CheckError as read_journal
  /// documents.
  explicit JournalText(const std::string& path);

  [[nodiscard]] const JournalHeader& header() const { return header_; }
  [[nodiscard]] std::size_t size() const { return cells_.size(); }
  /// Grid index of the i-th recorded cell, increasing in i.
  [[nodiscard]] std::size_t index(std::size_t i) const {
    return cells_[i].index;
  }
  /// Decode the i-th recorded cell's row into `row`; its strings keep
  /// their capacity from call to call.
  void row(std::size_t i, std::vector<std::string>& row) const;

 private:
  struct Cell {
    std::size_t index = 0;
    /// The row array's token: offset and length in text_.
    std::size_t begin = 0;
    std::size_t size = 0;
  };

  std::string text_;
  JournalHeader header_;
  std::vector<Cell> cells_;
};

JournalText::JournalText(const std::string& path) : text_(read_file(path)) {
  if (text_.empty()) fail("journal: " + path + " is empty (no header)");
  if (text_.back() != '\n') {
    fail("journal: " + path + " ends mid-line (truncated write)");
  }
  static const std::size_t schema_width = Sweep::csv_header().size();
  std::array<JsonMember, 3> cell_members = {
      JsonMember("cell"), JsonMember("crc"), JsonMember("row")};
  auto& [cell, crc, row] = cell_members;
  std::string scratch;
  // Writers append cells in grid order, so a cell above every earlier one
  // cannot repeat one. Only once a line breaks that order are the indices
  // kept in a set, to find duplicates from there on.
  std::optional<std::set<std::size_t>> seen;
  const std::string_view text(text_);
  std::size_t line_number = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_number;
    const LineContext context{path, line_number};
    if (line.empty()) context.reject("empty line");
    if (line_number == 1) {
      header_ = parse_header(line, context);
      continue;
    }
    for (auto& member : cell_members) member.present = false;
    LineParser(line, context, cell_members).parse_object();
    const auto index = static_cast<std::size_t>(
        require(cell, JsonValue::Kind::kNumber, context).number);
    if (index < header_.points_begin || index >= header_.points_end) {
      context.reject("cell index outside the journal's shard range");
    }
    const auto checksum = parse_hex16(string_bytes(
        require(crc, JsonValue::Kind::kString, context).text, scratch));
    if (!checksum) context.reject("malformed crc");
    const JsonValue& fields = require(row, JsonValue::Kind::kArray, context);
    if (fields.array.size() != schema_width) {
      context.reject("row width does not match the output schema");
    }
    if (row_checksum(fields, scratch) != *checksum) {
      context.reject("row checksum mismatch (corrupt journal line)");
    }
    if (!seen && !cells_.empty() && index <= cells_.back().index) {
      seen.emplace();
      for (const Cell& earlier : cells_) seen->insert(earlier.index);
    }
    if (seen && !seen->insert(index).second) {
      context.reject("duplicate cell index");
    }
    cells_.push_back(
        Cell{index, static_cast<std::size_t>(fields.text.data() - text.data()),
             fields.text.size()});
  }
  if (seen) {
    std::sort(cells_.begin(), cells_.end(),
              [](const Cell& a, const Cell& b) { return a.index < b.index; });
  }
}

void JournalText::row(std::size_t i, std::vector<std::string>& row) const {
  const std::string_view token(text_.data() + cells_[i].begin,
                               cells_[i].size);
  // The token was validated when its line was parsed.
  const LineContext validated{};
  LineParser parser(token, validated);
  std::size_t fields = 0;
  parser.parse_array([&] {
    if (fields == row.size()) row.emplace_back();
    std::string& field = row[fields++];
    field.clear();
    parser.parse_string(&field);
  });
  row.resize(fields);
}

}  // namespace

std::optional<ShardSpec> parse_shard(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 ||
      slash + 1 >= text.size()) {
    return std::nullopt;
  }
  const auto parse_part =
      [&](std::size_t begin, std::size_t end) -> std::optional<std::size_t> {
    std::uint64_t value = 0;
    const auto result =
        std::from_chars(text.data() + begin, text.data() + end, value);
    if (result.ec != std::errc{} || result.ptr != text.data() + end) {
      return std::nullopt;
    }
    return static_cast<std::size_t>(value);
  };
  const auto index = parse_part(0, slash);
  const auto count = parse_part(slash + 1, text.size());
  if (!index || !count || *count == 0 || *index >= *count) {
    return std::nullopt;
  }
  return ShardSpec{*index, *count};
}

ShardRange shard_range(std::size_t points_total, const ShardSpec& shard) {
  KUSD_CHECK_MSG(shard.count >= 1 && shard.index < shard.count,
                 "shard: index must satisfy 0 <= index < count");
  return ShardRange{shard.index * points_total / shard.count,
                    (shard.index + 1) * points_total / shard.count};
}

std::uint64_t sweep_digest(const Sweep& sweep) {
  const SweepSpec& spec = sweep.spec();
  Fnv64 fnv;
  fnv.str("kusd-sweep-journal-v1");
  // Output schema: a column change invalidates recorded rows.
  const auto header = Sweep::csv_header();
  fnv.u64(header.size());
  for (const auto& column : header) fnv.str(column);
  // Everything cell bytes are a function of. Scheduling knobs (threads,
  // stripe_width, shuffle_points) and shard coordinates are deliberately
  // absent: they cannot change output, and shards must share a digest.
  fnv.u64(spec.master_seed);
  fnv.u64(static_cast<std::uint64_t>(spec.trials));
  fnv.str(to_string(spec.bias_kind));
  fnv.real(spec.undecided_fraction);
  fnv.u64(spec.max_time);
  fnv.real(spec.batch_chunk_fraction);
  fnv.u64(static_cast<std::uint64_t>(spec.batch_policy));
  // The retired lockstep-schedule slot, hashed as the constant it always
  // held so journals written before its removal still resume.
  fnv.u64(0);
  const auto& points = sweep.grid();
  fnv.u64(points.size());
  // Neighbouring points share their graph and start, so each spelling is
  // built once per run of equal values rather than once per point.
  std::optional<sim::GraphSpec> graph;
  std::string graph_name = "-";
  StartProfile start;
  std::string start_name = to_string(start);
  for (const auto& point : points) {
    if (point.graph != graph) {
      graph = point.graph;
      graph_name = graph.has_value() ? sim::to_string(*graph) : "-";
    }
    if (point.start != start) {
      start = point.start;
      start_name = to_string(start);
    }
    fnv.str(point.engine);
    fnv.str(graph_name);
    fnv.u64(point.n);
    fnv.u64(static_cast<std::uint64_t>(point.k));
    fnv.str(start_name);
    fnv.real(point.bias);
  }
  // The registry contract of every swept engine: if an engine's caps or
  // capabilities changed since the journal was written, its recorded
  // cells may be unreproducible — refuse to mix them with fresh ones.
  const auto& registry = sim::Registry::instance();
  for (const auto& name : spec.engines) {
    const sim::EngineInfo* info = registry.find(name);
    KUSD_CHECK_MSG(info != nullptr, "digest: unknown engine '" + name + "'");
    fnv.str(name);
    fnv.u64(info->max_n);
    std::uint64_t flags = 0;
    flags |= info->requires_decided_start ? 1U : 0U;
    flags |= info->uses_graph_axis ? 2U : 0U;
    flags |= info->uses_chunk_options ? 4U : 0U;
    flags |= info->aggregated_topology ? 8U : 0U;
    // Bit 16 was the retired supports_lockstep flag, always set together
    // with `lockstep`; keeping it keeps pre-removal journal digests.
    flags |= info->lockstep ? 16U | 32U : 0U;
    flags |= info->default_budget ? 64U : 0U;
    fnv.u64(flags);
  }
  return fnv.value();
}

Journal read_journal(const std::string& path) {
  const JournalText text(path);
  Journal journal;
  journal.header = text.header();
  const std::size_t width = Sweep::csv_header().size();
  for (std::size_t i = 0; i < text.size(); ++i) {
    std::vector<std::string> row;
    row.reserve(width);
    text.row(i, row);
    journal.cells.emplace_hint(journal.cells.end(), text.index(i),
                               std::move(row));
  }
  return journal;
}

void run_sweep_service(
    const Sweep& sweep, const SweepServiceOptions& options,
    const std::function<void(const SweepRowEvent&)>& on_row) {
  KUSD_CHECK_MSG(
      options.shard.count >= 1 && options.shard.index < options.shard.count,
      "sweep service: invalid shard (want 0 <= index < count)");
  const bool resuming = !options.resume_path.empty();
  KUSD_CHECK_MSG(!resuming || options.journal_path.empty() ||
                     options.journal_path == options.resume_path,
                 "sweep service: --resume appends to the resumed journal; "
                 "--journal must be absent or name the same file");

  const std::size_t points_total = sweep.grid().size();
  const ShardRange range = shard_range(points_total, options.shard);
  JournalHeader header;
  header.digest = sweep_digest(sweep);
  header.points_begin = range.begin;
  header.points_end = range.end;
  header.points_total = points_total;
  header.shard = options.shard;
  header.trials = sweep.spec().trials;

  std::optional<JournalText> replayed;
  if (resuming) {
    const JournalHeader& recorded =
        replayed.emplace(options.resume_path).header();
    if (recorded.digest != header.digest) {
      fail("resume: journal digest " + to_hex16(recorded.digest) +
           " does not match this sweep (" + to_hex16(header.digest) +
           ") — the grid, seed, schema or engine contract changed");
    }
    if (recorded.shard != header.shard ||
        recorded.points_total != header.points_total ||
        recorded.trials != header.trials) {
      fail("resume: journal was written by a different shard of the sweep");
    }
  }
  const std::size_t replay_count = replayed ? replayed->size() : 0;

  const std::string journal_path =
      resuming ? options.resume_path : options.journal_path;
  FilePtr journal;
  if (!journal_path.empty()) {
    journal.reset(std::fopen(journal_path.c_str(), resuming ? "ab" : "wb"));
    if (journal == nullptr) fail("journal: cannot open " + journal_path);
    if (!resuming) write_all(journal.get(), header_line(header), journal_path);
  }

  // Replayed cells are in grid order, so the cells left to compute are
  // one forward walk over them.
  std::vector<std::size_t> todo;
  todo.reserve(range.end - range.begin - replay_count);
  for (std::size_t i = range.begin, next = 0; i < range.end; ++i) {
    if (next < replay_count && replayed->index(next) == i) {
      ++next;
    } else {
      todo.push_back(i);
    }
  }

  // Computed cells arrive in increasing grid order (run_selected), so
  // interleaving is one forward walk over the replayed cells: emit every
  // recorded row below the next computed index, emit the computed row,
  // repeat, then drain the tail. `closes_batch` marks the last replayed
  // row of the tail as the end of its batch.
  std::vector<std::string> row;  // the row being emitted, reused
  std::size_t next_replay = 0;
  const auto replay_below = [&](std::size_t bound, bool closes_batch) {
    while (next_replay < replay_count &&
           replayed->index(next_replay) < bound) {
      SweepRowEvent event;
      event.index = replayed->index(next_replay);
      replayed->row(next_replay, row);
      event.row = &row;
      ++next_replay;
      event.last_in_batch =
          closes_batch && (next_replay == replay_count ||
                           replayed->index(next_replay) >= bound);
      on_row(event);
    }
  };

  std::size_t computed = 0;
  std::string line;  // one cell's journal line, reused across cells
  sweep.run_selected(todo, [&](std::span<const SweepCell> cells) {
    for (const SweepCell& cell : cells) {
      replay_below(cell.point.index, false);
      Sweep::csv_row(cell, row);
      if (journal != nullptr) {
        // Flushed before the row reaches the consumer: anything observed
        // downstream is covered by the journal, so a kill after this line
        // loses no emitted cell.
        line.clear();
        append_cell_line(line, cell.point.index, row);
        write_all(journal.get(), line, journal_path);
      }
      SweepRowEvent event;
      event.index = cell.point.index;
      event.row = &row;
      event.cell = &cell;
      event.last_in_batch = &cell == &cells.back();
      on_row(event);
      ++computed;
      if (options.after_cell) options.after_cell(computed);
    }
  });
  replay_below(range.end, true);
}

void merge_journals(
    const std::vector<std::string>& journal_paths,
    const std::function<void(std::size_t index,
                             const std::vector<std::string>& row)>& on_row) {
  KUSD_CHECK_MSG(!journal_paths.empty(), "merge: no journals given");
  std::vector<JournalText> journals;
  journals.reserve(journal_paths.size());
  for (const auto& path : journal_paths) journals.emplace_back(path);

  const JournalHeader& first = journals.front().header();
  for (std::size_t i = 0; i < journals.size(); ++i) {
    const JournalHeader& header = journals[i].header();
    if (header.digest != first.digest) {
      fail("merge: " + journal_paths[i] + " has digest " +
           to_hex16(header.digest) + " but " + journal_paths.front() +
           " has " + to_hex16(first.digest) +
           " — the journals are from different sweeps");
    }
    if (header.points_total != first.points_total ||
        header.trials != first.trials ||
        header.shard.count != first.shard.count) {
      fail("merge: " + journal_paths[i] +
           " disagrees with the other journals on grid size, trials or "
           "shard count");
    }
    // A journal being merged must be finished: every cell of its range
    // present (the reader already rejected out-of-range/duplicates).
    if (journals[i].size() != header.points_end - header.points_begin) {
      fail("merge: " + journal_paths[i] + " is incomplete (" +
           std::to_string(journals[i].size()) + " of " +
           std::to_string(header.points_end - header.points_begin) +
           " cells) — resume it to completion first");
    }
  }
  if (journals.size() != first.shard.count) {
    fail("merge: got " + std::to_string(journals.size()) +
         " journals for a " + std::to_string(first.shard.count) +
         "-way shard set (a shard journal is missing or duplicated)");
  }

  // Sort by block start; the blocks must tile [0, points_total) exactly.
  std::vector<const JournalText*> ordered;
  ordered.reserve(journals.size());
  for (const auto& journal : journals) ordered.push_back(&journal);
  std::sort(ordered.begin(), ordered.end(),
            [](const JournalText* a, const JournalText* b) {
              return a->header().points_begin < b->header().points_begin;
            });
  std::size_t expected_begin = 0;
  for (const JournalText* journal : ordered) {
    if (journal->header().points_begin < expected_begin) {
      fail("merge: shard ranges overlap (shard " +
           std::to_string(journal->header().shard.index) +
           " begins inside the previous shard's block)");
    }
    if (journal->header().points_begin > expected_begin) {
      fail("merge: shard coverage has a gap before point " +
           std::to_string(journal->header().points_begin));
    }
    expected_begin = journal->header().points_end;
  }
  if (expected_begin != first.points_total) {
    fail("merge: shard coverage stops at point " +
         std::to_string(expected_begin) + " of " +
         std::to_string(first.points_total));
  }

  // Only now — everything validated — emit, in grid order.
  std::vector<std::string> row;
  for (const JournalText* journal : ordered) {
    for (std::size_t i = 0; i < journal->size(); ++i) {
      journal->row(i, row);
      on_row(journal->index(i), row);
    }
  }
}

}  // namespace kusd::runner
