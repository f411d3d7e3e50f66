#!/usr/bin/env python3
"""Resume-after-SIGKILL smoke: kill a journaled sweep mid-grid, resume,
diff against golden.

The sweep service promises that a killed run loses at most the cell in
flight and that `--resume` reproduces the uninterrupted output byte for
byte (docs/sweep.md). The unit suite pins this at the library level at
every cell boundary (tests/test_sweep_service.cpp); this smoke pins the
*process* level: a real SIGKILL delivered from inside the run (the
KUSD_SWEEP_TRIP_CELLS hook raises it after N journaled cells), a real
resume invocation, and a byte diff of the CSV/JSONL artifacts against a
golden uninterrupted run. A single-journal `kusd merge` is diffed too.
Rows reach the CSV/JSONL and the stderr progress lines in batches (one
flush per batch of ready cells), so the golden run is also checked to
print exactly one `[i/N]` progress line per cell, i = 1..N in order, and
its artifacts and stdout table at --threads 2 must equal a `--threads 1
--stripe-width 1` run's.

It then runs the sharded sequence of kusdbench's `service` workload at
process level: two journaled shards whose outputs concatenate to the
golden ones, a resume of the shard-0 journal cut at half that equals the
uninterrupted shard, and a two-journal merge whose CSV and JSONL equal
the golden ones. Last, a `--resume` refused for a journal of another
sweep must leave the files an earlier run wrote byte-identical.

Usage: smoke_resume_kill.py /path/to/kusd [workdir]
Exit 0 on success; 1 with a diagnostic on any contract violation.
"""

import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile

SWEEP_ARGS = [
    "sweep", "--n", "400,800", "--k", "2,3", "--engine", "skip,gossip",
    "--trials", "3", "--seed", "11", "--threads", "2",
]
GRID_CELLS = 8  # 2 engines x 2 n x 2 k
TRIP_CELLS = 3  # SIGKILL after this many journaled cells


def run(cmd, **kwargs):
    return subprocess.run(cmd, capture_output=True, text=True, **kwargs)


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def expect_same(actual: pathlib.Path, golden: pathlib.Path, what: str):
    if actual.read_bytes() != golden.read_bytes():
        fail(f"{what}: {actual} differs from golden {golden}")
    print(f"ok: {what} byte-identical to golden")


def expect_bytes(path: pathlib.Path, expected: bytes, what: str):
    if path.read_bytes() != expected:
        fail(f"{what}: {path} holds other bytes than expected")
    print(f"ok: {what}")


def table_of(stdout: str) -> list:
    """The aligned table a sweep prints to stdout."""
    return [line for line in stdout.splitlines() if line.startswith("|")]


def sweep_ok(kusd, args, what, **kwargs):
    result = run([str(kusd), *args], **kwargs)
    if result.returncode != 0:
        fail(f"{what} failed ({result.returncode}):\n{result.stderr}")
    return result


def main():
    if len(sys.argv) < 2:
        fail(f"usage: {sys.argv[0]} /path/to/kusd [workdir]")
    kusd = pathlib.Path(sys.argv[1]).resolve()
    if not kusd.is_file():
        fail(f"kusd binary not found: {kusd}")
    if len(sys.argv) > 2:
        work = pathlib.Path(sys.argv[2]).resolve()
        work.mkdir(parents=True, exist_ok=True)
    else:
        work = pathlib.Path(tempfile.mkdtemp(prefix="kusd_resume_kill_"))

    golden_csv = work / "golden.csv"
    golden_jsonl = work / "golden.jsonl"
    serial_csv = work / "serial.csv"
    serial_jsonl = work / "serial.jsonl"
    journal = work / "journal.jsonl"
    out_csv = work / "out.csv"
    out_jsonl = work / "out.jsonl"
    merged_csv = work / "merged.csv"
    for path in (golden_csv, golden_jsonl, serial_csv, serial_jsonl,
                 journal, out_csv, out_jsonl, merged_csv):
        path.unlink(missing_ok=True)

    # 1. Golden: the uninterrupted run, one progress line per cell.
    result = sweep_ok(kusd, [*SWEEP_ARGS, "--out", str(golden_csv),
                             "--json", str(golden_jsonl)], "golden run")
    golden_table = table_of(result.stdout)
    if len(golden_table) != GRID_CELLS + 2:
        fail(f"golden run printed a table of {len(golden_table)} lines, "
             f"expected {GRID_CELLS + 2}:\n{result.stdout}")
    progress = [int(m.group(1)) for m in
                re.finditer(rf"^\[(\d+)/{GRID_CELLS}\] ", result.stderr,
                            re.MULTILINE)]
    if progress != list(range(1, GRID_CELLS + 1)):
        fail(f"golden run printed progress lines {progress}, expected "
             f"1..{GRID_CELLS} in order:\n{result.stderr}")
    print(f"ok: golden run complete, {GRID_CELLS} progress lines in order")

    # The golden artifacts are a pure function of the sweep: a serial run
    # with one trial per work unit writes the same bytes.
    serial_args = list(SWEEP_ARGS)
    serial_args[serial_args.index("--threads") + 1] = "1"
    result = sweep_ok(kusd, [*serial_args, "--stripe-width", "1",
                             "--out", str(serial_csv),
                             "--json", str(serial_jsonl)], "serial run")
    expect_same(serial_csv, golden_csv, "serial CSV")
    expect_same(serial_jsonl, golden_jsonl, "serial JSONL")
    if table_of(result.stdout) != golden_table:
        fail(f"serial run printed another table:\n{result.stdout}")
    print("ok: serial stdout table identical to golden")

    # 2. Kill: same sweep, journaled, SIGKILL after TRIP_CELLS cells.
    env = dict(os.environ, KUSD_SWEEP_TRIP_CELLS=str(TRIP_CELLS))
    result = run([str(kusd), *SWEEP_ARGS, "--journal", str(journal),
                  "--out", str(out_csv), "--json", str(out_jsonl)],
                 env=env)
    if result.returncode != -signal.SIGKILL:
        fail(f"expected the tripped run to die by SIGKILL, got "
             f"{result.returncode}:\n{result.stderr}")
    lines = journal.read_text(encoding="utf-8").splitlines()
    recorded = len(lines) - 1  # header + one line per cell
    if recorded != TRIP_CELLS:
        fail(f"journal holds {recorded} cells after the kill, "
             f"expected {TRIP_CELLS}")
    print(f"ok: SIGKILL mid-grid, journal holds {recorded}/{GRID_CELLS} "
          f"cells")

    # 3. Resume: replay the journal, compute the rest, same artifacts.
    result = run([str(kusd), *SWEEP_ARGS, "--resume", str(journal),
                  "--out", str(out_csv), "--json", str(out_jsonl)])
    if result.returncode != 0:
        fail(f"resume failed ({result.returncode}):\n{result.stderr}")
    expect_same(out_csv, golden_csv, "resumed CSV")
    expect_same(out_jsonl, golden_jsonl, "resumed JSONL")
    lines = journal.read_text(encoding="utf-8").splitlines()
    if len(lines) - 1 != GRID_CELLS:
        fail(f"resumed journal holds {len(lines) - 1} cells, expected "
             f"{GRID_CELLS}")

    # 4. The completed journal merges back to the golden bytes too.
    result = run([str(kusd), "merge", "--inputs", str(journal),
                  "--out", str(merged_csv)])
    if result.returncode != 0:
        fail(f"merge failed ({result.returncode}):\n{result.stderr}")
    expect_same(merged_csv, golden_csv, "merged CSV")

    service_sequence(kusd, work, golden_csv, golden_jsonl)
    rejected_resume_keeps_outputs(kusd, work)
    print("resume-kill smoke: PASS")


def service_sequence(kusd, work, golden_csv, golden_jsonl):
    """Two journaled shards, a resume of shard 0 from its journal cut at
    half, and a two-journal merge, each diffed against what the whole
    sweep writes."""
    shards = []
    for i in range(2):
        paths = {ext: work / f"shard{i}.{ext}"
                 for ext in ("csv", "jsonl", "journal")}
        for path in paths.values():
            path.unlink(missing_ok=True)
        sweep_ok(kusd, [*SWEEP_ARGS, "--shard", f"{i}/2",
                        "--journal", str(paths["journal"]),
                        "--out", str(paths["csv"]),
                        "--json", str(paths["jsonl"])], f"shard {i}")
        shards.append(paths)
    csv0, csv1 = (shard["csv"].read_bytes() for shard in shards)
    expect_bytes(golden_csv, csv0 + csv1[csv1.index(b"\n") + 1:],
                 "shard CSVs concatenate to the golden CSV")
    expect_bytes(golden_jsonl, b"".join(shard["jsonl"].read_bytes()
                                        for shard in shards),
                 "shard JSONLs concatenate to the golden JSONL")

    lines = shards[0]["journal"].read_bytes().splitlines(keepends=True)
    cut = (len(lines) - 1) // 2
    if cut < 1:
        fail(f"shard 0 journal holds {len(lines) - 1} cells, too few to cut")
    resumed = {ext: work / f"resumed0.{ext}"
               for ext in ("csv", "jsonl", "journal")}
    for path in resumed.values():
        path.unlink(missing_ok=True)
    resumed["journal"].write_bytes(b"".join(lines[:1 + cut]))
    result = sweep_ok(kusd, [*SWEEP_ARGS, "--shard", "0/2",
                             "--resume", str(resumed["journal"]),
                             "--out", str(resumed["csv"]),
                             "--json", str(resumed["jsonl"])],
                      "resume of shard 0")
    replayed = result.stderr.count("replayed from journal")
    if replayed != cut:
        fail(f"resume replayed {replayed} cells, expected {cut}")
    for ext in ("csv", "jsonl", "journal"):
        expect_same(resumed[ext], shards[0][ext], f"resumed shard 0 {ext}")

    merged = {ext: work / f"merged2.{ext}" for ext in ("csv", "jsonl")}
    for path in merged.values():
        path.unlink(missing_ok=True)
    sweep_ok(kusd, ["merge", "--inputs",
                    f"{resumed['journal']},{shards[1]['journal']}",
                    "--out", str(merged["csv"]),
                    "--json", str(merged["jsonl"])], "two-journal merge")
    expect_same(merged["csv"], golden_csv, "two-journal merged CSV")
    expect_same(merged["jsonl"], golden_jsonl, "two-journal merged JSONL")


def rejected_resume_keeps_outputs(kusd, work):
    """A --resume refused for a journal of another sweep exits 1 and leaves
    every file an earlier run wrote as it was."""
    out = {ext: work / f"resumed0.{ext}"
           for ext in ("csv", "jsonl", "journal")}
    before = {ext: path.read_bytes() for ext, path in out.items()}
    other = list(SWEEP_ARGS)
    other[other.index("--seed") + 1] = "12"
    result = run([str(kusd), *other, "--shard", "0/2",
                  "--resume", str(out["journal"]), "--out", str(out["csv"]),
                  "--json", str(out["jsonl"])])
    if (result.returncode != 1 or
            "does not match this sweep" not in result.stderr):
        fail(f"a resume with another seed should fail on the digest, got "
             f"{result.returncode}:\n{result.stderr}")
    for ext, path in out.items():
        expect_bytes(path, before[ext],
                     f"rejected resume left the {ext} file as it was")


if __name__ == "__main__":
    main()
