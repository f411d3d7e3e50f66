#!/usr/bin/env python3
"""clang-tidy driver with a checked-in findings baseline.

Runs clang-tidy (profile: the repo's .clang-tidy) over every first-party
translation unit in compile_commands.json and diffs the findings against
tools/tidy_baseline.json, so CI fails only on NEW findings — the baseline
holds the individually justified remainder (each entry is argued in
docs/verification.md) and is expected to stay at or near empty.

Findings are normalized to (file, check, message) — deliberately NOT line
numbers, so unrelated edits above a baselined finding do not churn the
baseline. Two otherwise-identical findings on different lines of the same
file collapse into one entry with a count.

Usage:
  tools/run_tidy.py --check-baseline [--build-dir DIR]   # CI / ctest mode
  tools/run_tidy.py --update-baseline [--build-dir DIR]  # after a fix pass
  tools/run_tidy.py [--build-dir DIR]                    # print findings

Dependency gating: clang-tidy is not part of the pinned dev container, so
by default a missing clang-tidy (or missing compile_commands.json) SKIPS
with exit 0 and a loud message — the tier-1 lanes stay hermetic, and the
CI tidy job passes --require to turn either absence into a hard failure.

Exit status: 0 clean/skipped, 1 new findings, 2 environment/usage error.
stdlib-only, in the style of the kusdlint passes (tools/lint_all.py).
"""

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "tools" / "tidy_baseline.json"
# First-party directories whose TUs are tidied and whose headers count.
SOURCE_DIRS = ("src", "tests", "bench", "tools", "examples")
# warning/error lines: <abs-path>:<line>:<col>: warning: <msg> [<check>]
FINDING = re.compile(
    r"^(?P<file>/[^:]+):(?P<line>\d+):(?P<col>\d+):\s+"
    r"(?:warning|error):\s+(?P<message>.*?)\s+\[(?P<check>[\w.,-]+)\]$")

SKIP_NOTE = ("SKIPPED (not a failure): install clang-tidy and configure "
             "with CMAKE_EXPORT_COMPILE_COMMANDS=ON to run this check; "
             "CI runs it with --require")


def find_clang_tidy(explicit: str | None) -> str | None:
    if explicit:
        return explicit if shutil.which(explicit) else None
    candidates = ["clang-tidy"] + [f"clang-tidy-{v}" for v in
                                   range(21, 13, -1)]
    for name in candidates:
        if shutil.which(name):
            return name
    return None


def find_build_dir(explicit: str | None) -> Path | None:
    if explicit:
        path = Path(explicit)
        return path if (path / "compile_commands.json").exists() else None
    for name in ("build", "build-release", "build-debug", "build-asan",
                 "build-tsan"):
        if (ROOT / name / "compile_commands.json").exists():
            return ROOT / name
    return None


def first_party_sources(build_dir: Path) -> list[Path]:
    with open(build_dir / "compile_commands.json", encoding="utf-8") as fh:
        entries = json.load(fh)
    files = set()
    for entry in entries:
        path = Path(entry["file"])
        if not path.is_absolute():
            path = (Path(entry["directory"]) / path).resolve()
        try:
            rel = path.relative_to(ROOT)
        except ValueError:
            continue  # fetched third-party TU (e.g. googletest)
        if rel.parts and rel.parts[0] in SOURCE_DIRS:
            files.add(path)
    return sorted(files)


def run_clang_tidy(tidy: str, build_dir: Path,
                   sources: list[Path]) -> dict[tuple[str, str, str], int]:
    header_filter = "^" + re.escape(str(ROOT)) + \
        "/(" + "|".join(SOURCE_DIRS) + ")/"
    findings: dict[tuple[str, str, str], int] = {}
    for source in sources:
        proc = subprocess.run(
            [tidy, "-p", str(build_dir), "-quiet",
             f"--header-filter={header_filter}", str(source)],
            capture_output=True, text=True, check=False)
        # clang-tidy exits non-zero on hard compile errors; surface those
        # instead of silently reporting a clean file.
        hard_error = "error: " in proc.stderr and proc.returncode != 0
        if hard_error:
            print(proc.stderr, file=sys.stderr)
            print(f"clang-tidy could not compile {source}", file=sys.stderr)
            sys.exit(2)
        for line in proc.stdout.splitlines():
            match = FINDING.match(line)
            if not match:
                continue
            try:
                rel = Path(match["file"]).resolve().relative_to(ROOT)
            except ValueError:
                continue
            if not rel.parts or rel.parts[0] not in SOURCE_DIRS:
                continue
            key = (rel.as_posix(), match["check"], match["message"])
            findings[key] = findings.get(key, 0) + 1
    return findings


def load_baseline() -> dict[tuple[str, str, str], int]:
    if not BASELINE.exists():
        return {}
    with open(BASELINE, encoding="utf-8") as fh:
        data = json.load(fh)
    return {(e["file"], e["check"], e["message"]): e.get("count", 1)
            for e in data.get("findings", [])}


def save_baseline(findings: dict[tuple[str, str, str], int]) -> None:
    data = {
        "comment": "clang-tidy findings accepted as baseline; every entry "
                   "must be justified in docs/verification.md. Regenerate "
                   "with tools/run_tidy.py --update-baseline.",
        "findings": [
            {"file": file, "check": check, "message": message, "count": count}
            for (file, check, message), count in sorted(findings.items())
        ],
    }
    BASELINE.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def describe(key: tuple[str, str, str], count: int) -> str:
    file, check, message = key
    times = f" (x{count})" if count > 1 else ""
    return f"  {file}: [{check}] {message}{times}"


def main() -> int:
    parser = argparse.ArgumentParser(
        description="clang-tidy with a findings baseline (module docstring)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check-baseline", action="store_true",
                      help="fail (exit 1) on findings not in the baseline")
    mode.add_argument("--update-baseline", action="store_true",
                      help="rewrite tools/tidy_baseline.json from this run")
    parser.add_argument("--build-dir", default=None,
                        help="build dir containing compile_commands.json "
                             "(default: first of build*/ that has one)")
    parser.add_argument("--clang-tidy", default=None,
                        help="clang-tidy executable to use")
    parser.add_argument("--require", action="store_true",
                        help="treat missing clang-tidy/compile database as "
                             "an error instead of skipping (CI mode)")
    args = parser.parse_args()

    tidy = find_clang_tidy(args.clang_tidy)
    if tidy is None:
        print("clang-tidy not found. " + SKIP_NOTE,
              file=sys.stderr if args.require else sys.stdout)
        return 2 if args.require else 0
    build_dir = find_build_dir(args.build_dir)
    if build_dir is None:
        print("no compile_commands.json found. " + SKIP_NOTE,
              file=sys.stderr if args.require else sys.stdout)
        return 2 if args.require else 0

    sources = first_party_sources(build_dir)
    if not sources:
        print("compile database has no first-party sources", file=sys.stderr)
        return 2
    version = subprocess.run([tidy, "--version"], capture_output=True,
                             text=True, check=False).stdout.strip()
    print(f"{tidy} over {len(sources)} TUs (build dir {build_dir.name})")
    print(version.splitlines()[-1] if version else "")
    findings = run_clang_tidy(tidy, build_dir, sources)

    if args.update_baseline:
        save_baseline(findings)
        total = sum(findings.values())
        print(f"baseline updated: {len(findings)} distinct finding(s), "
              f"{total} total — justify each in docs/verification.md")
        return 0

    baseline = load_baseline()
    new = {k: c for k, c in findings.items() if k not in baseline}
    resolved = {k: c for k, c in baseline.items() if k not in findings}

    if not args.check_baseline:
        for key, count in sorted(findings.items()):
            print(describe(key, count))
        print(f"{sum(findings.values())} finding(s), "
              f"{len(new)} not in baseline")
        return 0

    if resolved:
        print("baseline entries no longer reported (stale — run "
              "--update-baseline to shrink the baseline):")
        for key, count in sorted(resolved.items()):
            print(describe(key, count))
    if new:
        print("NEW clang-tidy findings (not in tools/tidy_baseline.json):",
              file=sys.stderr)
        for key, count in sorted(new.items()):
            print(describe(key, count), file=sys.stderr)
        print(f"{len(new)} new finding(s). Fix them, or if a finding is a "
              f"justified false positive, add it to the baseline with "
              f"--update-baseline AND document it in docs/verification.md.",
              file=sys.stderr)
        return 1
    print(f"clang-tidy clean vs baseline "
          f"({len(baseline)} baselined finding(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
