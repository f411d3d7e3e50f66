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
its artifacts at --threads 2 must equal a `--threads 1 --stripe-width 1`
run's.

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
    result = run([str(kusd), *SWEEP_ARGS,
                  "--out", str(golden_csv), "--json", str(golden_jsonl)])
    if result.returncode != 0:
        fail(f"golden run failed ({result.returncode}):\n{result.stderr}")
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
    result = run([str(kusd), *serial_args, "--stripe-width", "1",
                  "--out", str(serial_csv), "--json", str(serial_jsonl)])
    if result.returncode != 0:
        fail(f"serial run failed ({result.returncode}):\n{result.stderr}")
    expect_same(serial_csv, golden_csv, "serial CSV")
    expect_same(serial_jsonl, golden_jsonl, "serial JSONL")

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

    print("resume-kill smoke: PASS")


if __name__ == "__main__":
    main()
