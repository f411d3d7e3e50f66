// Fault-injection suite for the sweep service: deterministic sharding,
// the checkpoint/resume journal, and `merge` provenance validation. The
// contract under test is byte-identity — shard concatenation, a merge of
// shard journals, and a resume after a kill at ANY cell boundary must
// all reproduce the unsharded, uninterrupted output exactly — plus the
// strict negative space: a mismatched digest, overlapping or missing
// shards, and truncated or corrupt journal lines fail loudly before any
// output is produced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runner/sweep.hpp"
#include "runner/sweep_service.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

using runner::Journal;
using runner::merge_journals;
using runner::parse_shard;
using runner::read_journal;
using runner::run_sweep_service;
using runner::shard_range;
using runner::ShardSpec;
using runner::Sweep;
using runner::SweepRowEvent;
using runner::SweepServiceOptions;
using runner::SweepSpec;
using runner::sweep_digest;

/// A small real grid: 2 engines x 2 n x 2 k = 8 points, cheap trials.
SweepSpec service_spec(std::uint64_t seed = 123) {
  SweepSpec spec;
  spec.engines = {"skip", "gossip"};
  spec.ns = {300, 600};
  spec.ks = {2, 3};
  spec.trials = 3;
  spec.master_seed = seed;
  spec.threads = 1;
  return spec;
}

std::string temp_path(const std::string& name) {
  const auto path = std::filesystem::path(testing::TempDir()) /
                    ("kusd_sweep_service_" + name);
  std::filesystem::remove(path);
  return path.string();
}

std::string render_row(const std::vector<std::string>& row) {
  std::string out;
  for (const auto& field : row) {
    out += field;
    out += ',';
  }
  out += '\n';
  return out;
}

/// Byte-identity witness for the whole service path: every emitted row,
/// rendered in emission order.
std::string render_service(const Sweep& sweep,
                           const SweepServiceOptions& options) {
  std::string out;
  run_sweep_service(sweep, options, [&out](const SweepRowEvent& event) {
    out += render_row(*event.row);
  });
  return out;
}

/// The reference: the plain unsharded, unjournaled sweep.
std::string render_reference(const Sweep& sweep) {
  std::string out;
  sweep.run([&out](const runner::SweepCell& cell) {
    out += render_row(Sweep::csv_row(cell));
  });
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good());
}

TEST(ShardSpecParse, AcceptsWellFormedRejectsEverythingElse) {
  const auto ok = parse_shard("2/7");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->index, 2u);
  EXPECT_EQ(ok->count, 7u);
  EXPECT_TRUE(parse_shard("0/1").has_value());
  // Index must be strictly below count; count must be positive.
  EXPECT_FALSE(parse_shard("2/2").has_value());
  EXPECT_FALSE(parse_shard("0/0").has_value());
  EXPECT_FALSE(parse_shard("").has_value());
  EXPECT_FALSE(parse_shard("3").has_value());
  EXPECT_FALSE(parse_shard("/3").has_value());
  EXPECT_FALSE(parse_shard("3/").has_value());
  EXPECT_FALSE(parse_shard("a/b").has_value());
  EXPECT_FALSE(parse_shard("-1/2").has_value());
  EXPECT_FALSE(parse_shard("1/2/3").has_value());
  EXPECT_FALSE(parse_shard("1 /2").has_value());
}

TEST(ShardRange, BlocksTileTheGridForAnyCount) {
  for (const std::size_t total : {0u, 1u, 5u, 8u, 12u, 97u}) {
    for (const std::size_t count : {1u, 2u, 3u, 7u, 13u}) {
      std::size_t expected_begin = 0;
      for (std::size_t index = 0; index < count; ++index) {
        const auto range = shard_range(total, ShardSpec{index, count});
        EXPECT_EQ(range.begin, expected_begin)
            << "shard " << index << "/" << count << " of " << total;
        EXPECT_LE(range.begin, range.end);
        expected_begin = range.end;
      }
      EXPECT_EQ(expected_begin, total) << count << "-way split of " << total;
    }
  }
}

TEST(SweepService, ShardConcatenationIsByteIdenticalToUnsharded) {
  const Sweep sweep(service_spec());
  const std::string reference = render_reference(sweep);
  for (const std::size_t count : {1u, 2u, 3u, 7u}) {
    std::string concatenated;
    for (std::size_t index = 0; index < count; ++index) {
      SweepServiceOptions options;
      options.shard = ShardSpec{index, count};
      concatenated += render_service(sweep, options);
    }
    EXPECT_EQ(concatenated, reference) << count << "-way sharding";
  }
}

TEST(SweepService, MergedShardJournalsAreByteIdenticalToUnsharded) {
  const Sweep sweep(service_spec());
  const std::string reference = render_reference(sweep);
  for (const std::size_t count : {1u, 2u, 3u, 7u}) {
    std::vector<std::string> paths;
    for (std::size_t index = 0; index < count; ++index) {
      SweepServiceOptions options;
      options.shard = ShardSpec{index, count};
      options.journal_path = temp_path("merge_" + std::to_string(count) +
                                       "_" + std::to_string(index) +
                                       ".jsonl");
      paths.push_back(options.journal_path);
      render_service(sweep, options);
    }
    // Merge must reorder by block start, so hand it the paths reversed.
    std::vector<std::string> shuffled(paths.rbegin(), paths.rend());
    std::string merged;
    merge_journals(shuffled,
                   [&merged](std::size_t, const std::vector<std::string>& row) {
                     merged += render_row(row);
                   });
    EXPECT_EQ(merged, reference) << count << "-way merge";
  }
}

/// The fault injector: aborts the run (via an exception type nothing else
/// throws) once `stop_after` cells have been computed and journaled.
struct KillSwitch {};

/// Run with a journal, killing after `stop_after` computed cells; returns
/// the number of cells the journal holds afterwards. stop_after >= grid
/// size means the run completes. stop_after == 0 reproduces the kill
/// window between the header flush and the first cell line by truncating
/// the journal back to its header — after_cell cannot fire earlier.
std::size_t run_and_kill(const Sweep& sweep, const std::string& journal_path,
                         std::size_t stop_after) {
  SweepServiceOptions options;
  options.journal_path = journal_path;
  const std::size_t trip = stop_after == 0 ? 1 : stop_after;
  if (trip < sweep.grid().size()) {
    options.after_cell = [trip](std::size_t computed) {
      if (computed >= trip) throw KillSwitch{};
    };
  }
  bool killed = false;
  try {
    run_sweep_service(sweep, options, [](const SweepRowEvent&) {});
  } catch (const KillSwitch&) {
    killed = true;
  }
  EXPECT_EQ(killed, trip < sweep.grid().size());
  if (stop_after == 0) {
    const std::string content = slurp(journal_path);
    spit(journal_path, content.substr(0, content.find('\n') + 1));
  }
  return read_journal(journal_path).cells.size();
}

TEST(SweepService, ResumeAfterKillAtEveryCellBoundaryIsByteIdentical) {
  const Sweep sweep(service_spec());
  const std::string reference = render_reference(sweep);
  const std::size_t points = sweep.grid().size();
  ASSERT_EQ(points, 8u);
  for (std::size_t stop = 0; stop <= points; ++stop) {
    const std::string journal =
        temp_path("resume_" + std::to_string(stop) + ".jsonl");
    const std::size_t recorded = run_and_kill(sweep, journal, stop);
    ASSERT_EQ(recorded, stop) << "killed after " << stop << " cells";

    SweepServiceOptions options;
    options.resume_path = journal;
    std::string out;
    std::size_t replayed = 0;
    std::size_t computed = 0;
    std::size_t last_index = 0;
    run_sweep_service(sweep, options, [&](const SweepRowEvent& event) {
      out += render_row(*event.row);
      // Replayed rows carry no cell (nothing was recomputed); rows must
      // arrive in strict grid order regardless of provenance.
      (event.cell == nullptr ? replayed : computed) += 1;
      if (replayed + computed > 1) {
        EXPECT_GT(event.index, last_index);
      }
      last_index = event.index;
    });
    EXPECT_EQ(out, reference) << "resume after " << stop << " cells";
    EXPECT_EQ(replayed, stop);
    EXPECT_EQ(computed, points - stop);
    // The journal is now complete and merges cleanly on its own.
    EXPECT_EQ(read_journal(journal).cells.size(), points);
    std::string merged;
    merge_journals({journal},
                   [&merged](std::size_t, const std::vector<std::string>& row) {
                     merged += render_row(row);
                   });
    EXPECT_EQ(merged, reference);
  }
}

TEST(SweepService, JournalLinesInAnyOrderReadResumeAndMergeInGridOrder) {
  // Writers append cells in grid order, but the journal grammar does not
  // ask for it: a journal with its cell lines reversed reads, merges and
  // resumes (with gaps) exactly as the ordered one does.
  const Sweep sweep(service_spec());
  const std::string reference = render_reference(sweep);
  const std::string journal = temp_path("ordered.jsonl");
  SweepServiceOptions write;
  write.journal_path = journal;
  render_service(sweep, write);
  std::vector<std::string> lines;
  {
    const std::string content = slurp(journal);
    for (std::size_t pos = 0; pos < content.size();) {
      const std::size_t next = content.find('\n', pos) + 1;
      lines.push_back(content.substr(pos, next - pos));
      pos = next;
    }
  }
  ASSERT_EQ(lines.size(), 1 + sweep.grid().size());
  std::reverse(lines.begin() + 1, lines.end());

  const std::string reversed = temp_path("reversed.jsonl");
  std::string content;
  for (const auto& line : lines) content += line;
  spit(reversed, content);
  EXPECT_EQ(read_journal(reversed).cells, read_journal(journal).cells);
  std::string merged;
  merge_journals({reversed},
                 [&merged](std::size_t, const std::vector<std::string>& row) {
                   merged += render_row(row);
                 });
  EXPECT_EQ(merged, reference);

  // Every other cell of the reversed journal, for a resume with gaps.
  const std::string gaps = temp_path("reversed_gaps.jsonl");
  content = lines.front();
  for (std::size_t i = 1; i < lines.size(); i += 2) content += lines[i];
  spit(gaps, content);
  SweepServiceOptions resume;
  resume.resume_path = gaps;
  EXPECT_EQ(render_service(sweep, resume), reference);
  EXPECT_EQ(read_journal(gaps).cells, read_journal(journal).cells);
}

TEST(SweepService, EmittedRowsAreAlwaysCoveredByTheJournal) {
  // The durability contract: a cell's journal line is flushed before the
  // row reaches the consumer. Whenever on_row or after_cell runs, on any
  // thread count, the journal on disk is exactly the header plus one
  // line for every row emitted so far, this one included.
  for (const std::size_t threads : {1u, 4u}) {
    SweepSpec spec = service_spec();
    spec.threads = threads;
    spec.stripe_width = 1;
    const Sweep sweep(spec);
    SweepServiceOptions options;
    options.journal_path = temp_path("covered.jsonl");
    std::map<std::size_t, std::vector<std::string>> rows;
    const auto expect_journal_covers_emitted = [&](const char* where) {
      const std::string content = slurp(options.journal_path);
      const auto lines = static_cast<std::size_t>(
          std::count(content.begin(), content.end(), '\n'));
      EXPECT_EQ(lines, 1 + rows.size()) << where;
      const Journal journal = read_journal(options.journal_path);
      EXPECT_EQ(journal.cells, rows) << where;
    };
    options.after_cell = [&](std::size_t computed) {
      EXPECT_EQ(computed, rows.size());
      expect_journal_covers_emitted("after_cell");
    };
    run_sweep_service(sweep, options, [&](const SweepRowEvent& event) {
      rows[event.index] = *event.row;
      expect_journal_covers_emitted("on_row");
    });
    EXPECT_EQ(rows.size(), sweep.grid().size()) << threads << " threads";
  }
}

TEST(SweepService, LastRowOfEveryBatchIsMarked) {
  // Consumers flush buffered output on last_in_batch, so the run's final
  // row must always carry it, whatever mix of replayed and computed rows
  // came before.
  const Sweep sweep(service_spec());
  const std::size_t points = sweep.grid().size();
  for (const std::size_t stop : {std::size_t{0}, std::size_t{3}, points}) {
    const std::string journal =
        temp_path("batch_" + std::to_string(stop) + ".jsonl");
    ASSERT_EQ(run_and_kill(sweep, journal, stop), stop);
    SweepServiceOptions options;
    options.resume_path = journal;
    std::vector<bool> marks;
    run_sweep_service(sweep, options, [&](const SweepRowEvent& event) {
      marks.push_back(event.last_in_batch);
    });
    ASSERT_EQ(marks.size(), points) << "resume after " << stop;
    EXPECT_TRUE(marks.back()) << "resume after " << stop;
    if (stop == points) {
      // Nothing computed: the replayed rows are one batch.
      EXPECT_EQ(std::count(marks.begin(), marks.end(), true), 1);
    }
  }
}

TEST(SweepService, ResumeRejectsJournalFromDifferentSweep) {
  const Sweep sweep(service_spec(123));
  const Sweep other(service_spec(124));
  EXPECT_NE(sweep_digest(sweep), sweep_digest(other));
  const std::string journal = temp_path("digest.jsonl");
  SweepServiceOptions write;
  write.journal_path = journal;
  render_service(sweep, write);

  SweepServiceOptions resume;
  resume.resume_path = journal;
  EXPECT_THROW(render_service(other, resume), util::CheckError);
}

TEST(SweepService, ResumeRejectsJournalFromDifferentShard) {
  const Sweep sweep(service_spec());
  const std::string journal = temp_path("shard_mismatch.jsonl");
  SweepServiceOptions write;
  write.shard = ShardSpec{0, 2};
  write.journal_path = journal;
  render_service(sweep, write);

  SweepServiceOptions resume;
  resume.shard = ShardSpec{1, 2};
  resume.resume_path = journal;
  EXPECT_THROW(render_service(sweep, resume), util::CheckError);
}

TEST(SweepService, ResumeRejectsConflictingJournalPath) {
  const Sweep sweep(service_spec());
  const std::string journal = temp_path("conflict.jsonl");
  SweepServiceOptions write;
  write.journal_path = journal;
  render_service(sweep, write);

  SweepServiceOptions resume;
  resume.resume_path = journal;
  resume.journal_path = temp_path("conflict_other.jsonl");
  EXPECT_THROW(render_service(sweep, resume), util::CheckError);
}

TEST(SweepService, JournalReaderRejectsEveryCorruption) {
  const Sweep sweep(service_spec());
  const std::string journal = temp_path("corrupt.jsonl");
  SweepServiceOptions write;
  write.journal_path = journal;
  render_service(sweep, write);
  const std::string good = slurp(journal);
  ASSERT_FALSE(good.empty());
  ASSERT_EQ(good.back(), '\n');

  const auto expect_rejected = [&](const std::string& content,
                                   const std::string& what) {
    const std::string path = temp_path("corrupt_case.jsonl");
    spit(path, content);
    EXPECT_THROW((void)read_journal(path), util::CheckError) << what;
    // The same defect must also stop a resume cold.
    SweepServiceOptions resume;
    resume.resume_path = path;
    EXPECT_THROW(render_service(sweep, resume), util::CheckError) << what;
  };

  // Truncated mid-line (the classic kill-during-write artifact).
  expect_rejected(good.substr(0, good.size() - 3), "truncated tail");
  // Missing header.
  expect_rejected(good.substr(good.find('\n') + 1), "missing header");
  // Empty file.
  expect_rejected("", "empty file");
  // Garbage line appended.
  expect_rejected(good + "not json\n", "garbage line");
  // Corrupt checksum: flip one crc hex digit on the last cell line.
  {
    std::string bad = good;
    const std::size_t crc = bad.rfind("\"crc\":\"");
    ASSERT_NE(crc, std::string::npos);
    char& digit = bad[crc + 7];
    digit = digit == '0' ? '1' : '0';
    expect_rejected(bad, "crc flip");
  }
  // Duplicate cell line.
  {
    const std::size_t second_line = good.find('\n') + 1;
    const std::size_t third_line = good.find('\n', second_line) + 1;
    const std::string cell =
        good.substr(second_line, third_line - second_line);
    expect_rejected(good + cell, "duplicate cell");
  }
  // A cell outside the shard's block: graft an upper-half cell line onto
  // the lower-half shard's journal — read_journal must flag the index as
  // out of the journal's declared range.
  {
    SweepServiceOptions upper_options;
    upper_options.shard = ShardSpec{1, 2};
    upper_options.journal_path = temp_path("upper_half.jsonl");
    render_service(sweep, upper_options);
    const std::string upper = slurp(upper_options.journal_path);
    const std::size_t first_cell = upper.find('\n') + 1;
    const std::size_t next = upper.find('\n', first_cell) + 1;
    const std::string foreign = upper.substr(first_cell, next - first_cell);

    SweepServiceOptions lower_options;
    lower_options.shard = ShardSpec{0, 2};
    lower_options.journal_path = temp_path("lower_half.jsonl");
    render_service(sweep, lower_options);
    expect_rejected(slurp(lower_options.journal_path) + foreign,
                    "out-of-range cell");
  }
}

TEST(SweepService, JournalParserAcceptRejectSetIsPinned) {
  // The journal grammar, line by line: what a strict reader must accept
  // beyond the writer's own spelling, and the exact diagnostic (with the
  // file and line number) for each defect it must refuse.
  const Sweep sweep(service_spec());
  const std::string journal = temp_path("parser.jsonl");
  SweepServiceOptions write;
  write.journal_path = journal;
  render_service(sweep, write);
  const std::string good = slurp(journal);
  const std::size_t header_end = good.find('\n') + 1;
  const std::string header = good.substr(0, header_end);
  const std::string line =
      good.substr(header_end, good.find('\n', header_end) - header_end);
  const std::vector<std::string> row = read_journal(journal).cells.at(0);
  ASSERT_EQ(row.front(), "skip");

  // The line is {"cell":0,"crc":CRC,"row":ROW}; rebuild it in other
  // shapes from its value texts.
  ASSERT_EQ(line.rfind("{\"cell\":0,\"crc\":", 0), 0u) << line;
  const std::size_t crc_at = line.find("\"crc\":") + 6;
  const std::size_t row_at = line.find(",\"row\":");
  const std::string crc = line.substr(crc_at, row_at - crc_at);
  const std::string row_text =
      line.substr(row_at + 7, line.size() - 1 - (row_at + 7));
  ASSERT_EQ(row_text.front(), '[');
  ASSERT_EQ(row_text.back(), ']');
  const auto replace_all = [](std::string text, const std::string& from,
                              const std::string& to) {
    for (std::size_t at = text.find(from); at != std::string::npos;
         at = text.find(from, at + to.size())) {
      text.replace(at, from.size(), to);
    }
    return text;
  };
  const auto replace_first = [](std::string text, const std::string& from,
                                const std::string& to) {
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };

  const std::string path = temp_path("parser_case.jsonl");
  const auto expect_accepted = [&](const std::string& cell_line,
                                   const std::string& what) {
    spit(path, header + cell_line + "\n");
    try {
      const Journal parsed = read_journal(path);
      ASSERT_EQ(parsed.cells.size(), 1u) << what;
      EXPECT_EQ(parsed.cells.at(0), row) << what;
    } catch (const util::CheckError& e) {
      ADD_FAILURE() << what << " rejected: " << e.what();
    }
  };
  const auto expect_rejected = [&](const std::string& content,
                                   std::size_t line_number,
                                   const std::string& message) {
    spit(path, content);
    try {
      (void)read_journal(path);
      ADD_FAILURE() << "accepted a line with: " << message;
    } catch (const util::CheckError& e) {
      const std::string expected =
          path + ':' + std::to_string(line_number) + ": " + message;
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << "got: " << e.what() << "\nwant: " << expected;
    }
  };
  const auto expect_cell_rejected = [&](const std::string& cell_line,
                                        const std::string& message) {
    expect_rejected(header + cell_line + "\n", 2, message);
  };

  expect_accepted(line, "the writer's own line");
  expect_accepted("{\"row\":" + row_text + ",\"cell\":0,\"crc\":" + crc + "}",
                  "permuted key order");
  expect_accepted(
      "{ \"cell\" :\t0 ,\t\"crc\": " + crc + " , \"row\" :\t" +
          replace_all(replace_all(replace_all(row_text, "\",\"", "\" ,\t \""),
                                  "[", "[ "),
                      "]", "\t]") +
          " }  \t",
      "spaces and tabs between tokens");
  expect_accepted(
      replace_first(replace_first(line, "\"cell\"", "\"c\\u0065ll\""),
                    "\"skip\"", "\"\\u0073\\u006Bip\""),
      "\\u00XX escapes in a key and a field");

  expect_cell_rejected(replace_first(line, "{", "{\"cell\":0,"),
                       "duplicate key in JSON object");
  expect_cell_rejected(line + " x", "trailing bytes after JSON object");
  expect_cell_rejected(replace_first(line, "\"skip\"", "\"sk\x01ip\""),
                       "raw control character in JSON string");
  expect_cell_rejected(replace_first(line, "\"skip\"", "\"\\u00g3kip\""),
                       "bad \\u escape");
  expect_cell_rejected(replace_first(line, "\"skip\"", "\"\\u0173kip\""),
                       "unsupported \\u escape");
  expect_cell_rejected(
      replace_first(line, "\"cell\":0", "\"cell\":18446744073709551616"),
      "integer out of range");
  expect_cell_rejected(replace_first(line, "\"cell\":0", "\"cell\":\"0\""),
                       "key \"cell\" has the wrong type");
  expect_cell_rejected(replace_first(line, ",\"crc\":" + crc, ""),
                       "missing key \"crc\"");
  {
    // Drop the last field: the width check runs before the checksum.
    const std::size_t last = line.rfind(",\"");
    expect_cell_rejected(line.substr(0, last) + "]}",
                         "row width does not match the output schema");
  }
  expect_rejected(replace_first(header, "}\n", "} x\n"), 1,
                  "trailing bytes after JSON object");
}

TEST(SweepMerge, RejectsMissingOverlappingAndForeignShards) {
  const Sweep sweep(service_spec());
  std::vector<std::string> paths;
  for (std::size_t index = 0; index < 3; ++index) {
    SweepServiceOptions options;
    options.shard = ShardSpec{index, 3};
    options.journal_path =
        temp_path("neg_merge_" + std::to_string(index) + ".jsonl");
    paths.push_back(options.journal_path);
    render_service(sweep, options);
  }
  const auto expect_merge_rejected = [](const std::vector<std::string>& set,
                                        const std::string& what) {
    bool emitted = false;
    EXPECT_THROW(
        merge_journals(set,
                       [&emitted](std::size_t,
                                  const std::vector<std::string>&) {
                         emitted = true;
                       }),
        util::CheckError)
        << what;
    // Never partial output: validation happens before the first row.
    EXPECT_FALSE(emitted) << what;
  };

  // Missing shard.
  expect_merge_rejected({paths[0], paths[2]}, "missing shard 1");
  // Duplicated shard (overlapping blocks).
  expect_merge_rejected({paths[0], paths[0], paths[2]}, "duplicate shard 0");
  // A journal from a different sweep mixed in.
  const Sweep other(service_spec(999));
  SweepServiceOptions foreign;
  foreign.shard = ShardSpec{1, 3};
  foreign.journal_path = temp_path("neg_merge_foreign.jsonl");
  render_service(other, foreign);
  expect_merge_rejected({paths[0], foreign.journal_path, paths[2]},
                        "foreign digest");
  // An incomplete journal (killed mid-shard) must be resumed first.
  const std::string partial = temp_path("neg_merge_partial.jsonl");
  {
    SweepServiceOptions options;
    options.shard = ShardSpec{1, 3};
    options.journal_path = partial;
    options.after_cell = [](std::size_t computed) {
      if (computed >= 1) throw KillSwitch{};
    };
    EXPECT_THROW(run_sweep_service(sweep, options,
                                   [](const SweepRowEvent&) {}),
                 KillSwitch);
  }
  expect_merge_rejected({paths[0], partial, paths[2]}, "incomplete shard 1");
  // No journals at all.
  expect_merge_rejected({}, "empty set");
}

TEST(SweepService, DigestIgnoresSchedulingKnobs) {
  auto spec = service_spec();
  const std::uint64_t base = sweep_digest(Sweep(spec));
  spec.threads = 7;
  spec.stripe_width = 64;
  spec.shuffle_points = true;
  EXPECT_EQ(sweep_digest(Sweep(spec)), base);
  // ...but anything that changes cell bytes changes the digest.
  spec.trials = 4;
  EXPECT_NE(sweep_digest(Sweep(spec)), base);
  spec = service_spec();
  spec.ns = {300, 601};
  EXPECT_NE(sweep_digest(Sweep(spec)), base);
  spec = service_spec();
  spec.engines = {"skip"};
  EXPECT_NE(sweep_digest(Sweep(spec)), base);
}

TEST(SweepService, DigestIsPinnedSoOldJournalsResume) {
  // A journal resumes only under the digest that wrote it, so the digest
  // of a fixed spec must not drift between revisions unless cell bytes
  // do. Both values were computed before the lockstep-schedule option and
  // the supports_lockstep flag were removed; the digest still hashes
  // their constant slots.
  SweepSpec spec;
  spec.engines = {"sync", "gossip"};
  spec.ns = {1000, 100000};
  spec.ks = {2, 8};
  spec.bias_kind = runner::BiasKind::kMultiplicative;
  spec.bias_values = {1.5, 2.0};
  spec.trials = 16;
  spec.master_seed = 7919;
  EXPECT_EQ(sweep_digest(Sweep(spec)), 0x107c0051b16c34f4ULL);

  SweepSpec lockstep;
  lockstep.engines = {"batched", "batched-lockstep"};
  lockstep.ns = {100000};
  lockstep.ks = {4};
  lockstep.trials = 4;
  lockstep.batch_policy = core::ChunkPolicy::kAdaptive;
  EXPECT_EQ(sweep_digest(Sweep(lockstep)), 0x1ef520491e3318aeULL);
}

}  // namespace
}  // namespace kusd
