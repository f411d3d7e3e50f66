#!/usr/bin/env python3
"""Run a kusd command that must be rejected, and check how it fails.

A rejected input exits 1, explains itself on stderr and prints nothing
on stdout: a success line followed by an error would read as a result
to anything that parses stdout.

  python3 tools/smoke_cli_fails_quietly.py <kusd> <subcommand> [args...]
"""

import subprocess
import sys


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    result = subprocess.run(sys.argv[1:], capture_output=True, text=True,
                            check=False)
    problems = []
    if result.returncode != 1:
        problems.append(f"exit code {result.returncode}, want 1")
    if result.stdout:
        problems.append(f"stdout not empty: {result.stdout!r}")
    if not result.stderr.strip():
        problems.append("stderr is empty: the rejection is unexplained")
    for problem in problems:
        print(f"FAIL {' '.join(sys.argv[2:])}: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
