#!/usr/bin/env python3
"""Byte pins for the per-run CLI views.

Runs `kusd run` for several engines and `kusd trace` once, and diffs each
stdout, exit code and the trace CSV against the golden files in
tests/golden/cli/. The goldens pin the trial path those subcommands share
with `kusd sweep` (configuration builder, realized topology, the
disconnected-topology timeout and the engines' observation loop): a
change there that moves a byte fails here.

Usage: smoke_cli_golden.py KUSD GOLDEN_DIR WORK_DIR
"""

import subprocess
import sys
from pathlib import Path

# (golden stdout file, expected exit code, kusd arguments)
CASES = [
    ("run_skip.txt", 0,
     "run --engine skip --n 5000 --k 4 --undecided 500 --bias additive "
     "--beta 100 --seed 1"),
    ("run_batched.txt", 0,
     "run --engine batched --n 100000 --k 8 --bias multiplicative "
     "--alpha 1.5 --seed 7"),
    ("run_sync.txt", 0, "run --engine sync --n 5000 --k 4 --seed 1"),
    ("run_graph_regular.txt", 0,
     "run --engine graph --graph regular:4 --n 500 --k 2 --seed 3"),
    ("run_graph_batched.txt", 0,
     "run --engine graph-batched --graph er:auto --n 100000 --k 4 --seed 5"),
    # A disconnected G(n, p): reported as a timeout at the default budget.
    ("run_graph_er_disconnected.txt", 1,
     "run --engine graph --graph er:1e-4 --n 2000 --k 2 --seed 1"),
    ("run_graph_batched_er_disconnected.txt", 1,
     "run --engine graph-batched --graph er:1e-4 --n 2000 --k 2 --seed 1"),
    ("trace.txt", 0,
     "trace --n 1000 --k 4 --seed 1 --out trace_n1000_k4_seed1.csv"),
]
# Files a case writes into WORK_DIR, diffed against the golden of that name.
OUTPUT_FILES = ["trace_n1000_k4_seed1.csv"]


def main() -> int:
    if len(sys.argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    kusd, golden, work = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
    work.mkdir(parents=True, exist_ok=True)
    failures = []
    for name, want_rc, args in CASES:
        result = subprocess.run([kusd, *args.split()], cwd=work,
                                capture_output=True, check=False)
        if result.returncode != want_rc:
            failures.append(f"kusd {args}: exit {result.returncode}, "
                            f"want {want_rc}\n{result.stderr.decode()}")
        if result.stdout != (golden / name).read_bytes():
            failures.append(f"kusd {args}: stdout differs from {name}")
    for name in OUTPUT_FILES:
        if (work / name).read_bytes() != (golden / name).read_bytes():
            failures.append(f"{name} differs from its golden")
    for failure in failures:
        print("FAIL:", failure, file=sys.stderr)
    print(f"{len(CASES)} runs, {len(OUTPUT_FILES)} files: "
          f"{len(failures)} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
