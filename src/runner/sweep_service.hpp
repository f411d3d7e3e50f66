// Production sweep service: deterministic sharding, cell-granular
// checkpoint journals with resume, and validated shard merging — the
// operational layer over runner::Sweep behind `kusd sweep --shard /
// --journal / --resume` and `kusd merge`.
//
// Everything here rests on one invariant the sweep pins with tests: a
// cell's output bytes are a pure function of (spec, master_seed, grid
// index). That makes three operations safe:
//
//  * Sharding — shard i of N owns the contiguous grid block
//    [i*P/N, (i+1)*P/N), so concatenating shard outputs in shard order
//    *is* the unsharded output, byte for byte.
//  * Checkpointing — each completed cell is appended to a JSONL journal
//    and flushed before the cell is emitted downstream, so a killed run
//    loses at most the cell in flight. The journal is keyed on a digest
//    of the grid, the seed, the output schema, and the engine registry
//    contract: a journal can only resume the exact sweep that wrote it.
//  * Resume — completed cells are *replayed* from the journal (their
//    recorded rows re-emitted, nothing recomputed) and interleaved in
//    grid order with freshly computed cells, so the final output is
//    byte-identical to an uninterrupted run.
//
// Journal format (one JSON object per line, LF-terminated):
//
//   {"kusd_journal":1,"digest":"<hex16>","points_begin":B,
//    "points_end":E,"points_total":P,"shard_index":I,"shard_count":N,
//    "trials":T}
//   {"cell":<grid index>,"crc":"<hex16>","row":["<field>",...]}
//
// The header is written once at creation; each cell line carries the
// cell's csv_row fields plus an FNV-1a checksum of them. Readers are
// strict: a truncated or corrupt line, a duplicate or out-of-range cell,
// or a checksum mismatch fails the whole read (util::CheckError) — the
// service never silently drops journal content or emits partial output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runner/sweep.hpp"

namespace kusd::runner {

/// Shard coordinates: this process owns shard `index` of `count`.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  bool operator==(const ShardSpec&) const = default;
};

/// Parse the CLI spelling "i/N" (0-based i < N). nullopt on malformed
/// input or i >= N.
[[nodiscard]] std::optional<ShardSpec> parse_shard(const std::string& text);

/// The contiguous block of grid points shard (index, count) owns in a
/// grid of `points_total` points: [i*P/N, (i+1)*P/N). Blocks partition
/// the grid in shard order, which is what makes shard-order
/// concatenation equal grid order.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};
[[nodiscard]] ShardRange shard_range(std::size_t points_total,
                                     const ShardSpec& shard);

/// Digest of everything that determines cell bytes: the expanded grid,
/// master seed, trial count, bias/budget/chunk settings, the
/// output schema, and the registry contract (flags + caps) of every
/// swept engine. Deliberately excludes pure scheduling (threads,
/// stripe_width, shuffle_points) and the shard coordinates — every
/// shard of one sweep shares one digest.
[[nodiscard]] std::uint64_t sweep_digest(const Sweep& sweep);

struct JournalHeader {
  std::uint64_t digest = 0;
  std::size_t points_begin = 0;
  std::size_t points_end = 0;
  std::size_t points_total = 0;
  ShardSpec shard;
  int trials = 0;
};

/// A fully validated journal: the header plus every recorded cell's row,
/// keyed (and therefore iterated) by grid index.
struct Journal {
  JournalHeader header;
  std::map<std::size_t, std::vector<std::string>> cells;
};

/// Read and validate a journal. Throws util::CheckError on any defect:
/// unreadable file, missing/malformed header, truncated or corrupt line,
/// checksum mismatch, duplicate or out-of-range cell index, or a row
/// that does not match the output schema width.
[[nodiscard]] Journal read_journal(const std::string& path);

struct SweepServiceOptions {
  ShardSpec shard;
  /// Append each completed cell to this journal ("" = no journal). On a
  /// fresh run the file is created with a header line.
  std::string journal_path;
  /// Resume from this journal ("" = fresh run): its cells are replayed,
  /// the rest computed, and new cells appended to the same file. When
  /// both paths are set they must agree.
  std::string resume_path;
  /// Fault-injection / progress hook: invoked after each *computed* cell
  /// has been journaled and emitted, with the number of cells computed
  /// so far in this run (replayed cells don't count). The CI kill switch
  /// (KUSD_SWEEP_TRIP_CELLS) and the resume property tests live here.
  std::function<void(std::size_t cells_computed)> after_cell;
};

/// One output row in grid order. `cell` is null for rows replayed from
/// the resume journal — only their recorded bytes exist; nothing was
/// recomputed.
struct SweepRowEvent {
  std::size_t index = 0;
  const std::vector<std::string>* row = nullptr;
  const SweepCell* cell = nullptr;
  /// This row ends the batch of rows that were ready together; a consumer
  /// that buffers output flushes it here (and once more when the run
  /// returns) instead of after every row.
  bool last_in_batch = false;
};

/// Run the sweep's shard of the grid with journaling and resume,
/// streaming every row of the shard — replayed and computed alike — in
/// grid order. The journal line of a cell is written and flushed on its
/// own, *before* the cell is handed to `on_row`, so output a consumer
/// observed is always covered by the journal. Journaling, `on_row` and
/// `after_cell` all run on the calling thread, one row at a time; rows
/// arrive in batches (every cell ready at once), and the last row of a
/// batch says so. Throws util::CheckError on an invalid shard, a
/// journal/spec mismatch, or journal I/O failure.
void run_sweep_service(const Sweep& sweep, const SweepServiceOptions& options,
                       const std::function<void(const SweepRowEvent&)>& on_row);

/// Merge shard journals into one output stream: validate provenance
/// first — same digest, same shard count with every shard present
/// exactly once, contiguous gap-free coverage of the whole grid, every
/// journal complete — then emit every row in grid order. Validation
/// failures throw util::CheckError before the first row is emitted:
/// merge never produces partial output.
void merge_journals(
    const std::vector<std::string>& journal_paths,
    const std::function<void(std::size_t index,
                             const std::vector<std::string>& row)>& on_row);

}  // namespace kusd::runner
