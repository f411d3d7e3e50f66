#!/usr/bin/env python3
"""The kusd benchmark of record.

    python3 kusdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the kusd CLI
and the traced driver (kusdbench/CMakeLists.txt) into .bench_build/.

--trace 0 runs the workload through the real `kusd` binary, checks every
output against a reference, and prints the end-to-end metrics.
--trace 1 runs the workload's grid at 1 and all threads, then the traced
driver (kusd_trace), and prints the per-layer metrics, the reconciliation
of the tau-leap trial and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. `--workload all` runs every
workload in turn and prints one such line after each. Every result is
also appended, with the machine fingerprint, to .bench_build/records.jsonl
(see compare.py). Workloads, seeds and metrics are described in
METHODS.md.
"""

import argparse
import csv
import fcntl
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
KUSD = CMAKE_DIR / "kusd" / "tools" / "kusd"
TRACE = CMAKE_DIR / "kusd_trace"
PINS = HERE / "pins.json"

DEV_SEED = 1
HOLDOUT_SEED = 7919
THREADS = len(os.sched_getaffinity(0))
# Every child process is killed after this long, so a run always ends in
# bounded time.
CHILD_TIMEOUT_S = 150
# Launches averaged into setup_s and cli.exec_ms.
SETUP_LAUNCHES = 25
# Budget of the traced driver; its per-layer metrics carry no bound, so it
# need not grow with --seconds.
TRACE_SECONDS = 10

END_TO_END = {
    "trials_per_s": "1/s",
    "first_row_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "frac",
}

PER_LAYER = {
    "rng.binomial_ns.binv": "ns",
    "rng.binomial_ns.btrs": "ns",
    "rng.binomial_batch_ns": "ns",
    "rng.multinomial_ns": "ns",
    "rng.draws_per_trial": "count",
    "core.propose_ns": "ns",
    "core.chunk_ns": "ns",
    "core.chunks_per_trial": "count",
    "core.rejects_per_trial": "count",
    "core.accept_ratio": "frac",
    "core.propose_classes_ns": "ns",
    "core.class_chunk_ns": "ns",
    "core.class_chunks_per_trial": "count",
    "core.skip_step_ns": "ns",
    "core.skip_steps_per_trial": "count",
    "core.sync_super_round_ns": "ns",
    "urn.sample_ns": "ns",
    "urn.move_ns": "ns",
    "pp.degree_model_s": "s",
    "pp.degree_classes": "count",
    "gossip.round_ns": "ns",
    "sim.create_us": "us",
    "sim.trial_s.batched": "s",
    "sim.trial_s.skip": "s",
    "sim.trial_s.graph-batched": "s",
    "sim.trial_s.sync": "s",
    "sim.trial_s.gossip": "s",
    "sim.lockstep_trial_s.t1": "s",
    "sim.lockstep_trial_s.nproc": "s",
    "sim.batched_trial_s.nproc": "s",
    "sim.pt_mean_rel_err": "frac",
    "runner.cell_s": "s",
    "runner.busy_frac": "frac",
    "runner.speedup_nproc": "x",
    "runner.journal_append_us": "us",
    "runner.journal_read_us": "us",
    "runner.merge_us": "us",
    "runner.digest_us": "us",
    "cli.emit_us": "us",
    "cli.exec_ms": "ms",
    "recon.rng_share": "frac",
    "recon.core_engine_share": "frac",
    "recon.core_controller_share": "frac",
    "recon.accounted_frac": "frac",
    "recon.traced_over_untraced": "x",
    "recon.draw_estimate_share": "frac",
}


def derive(seed, tag):
    """A 63-bit seed for `tag`, a pure function of the workload seed."""
    digest = hashlib.sha256(f"kusdbench:{tag}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# ---- Workloads ----------------------------------------------------------

def grid_tauleap(seed):
    return ["--engine", "batched", "--chunk-policy", "adaptive",
            "--n", "1e8", "--k", "32,8,128", "--trials", "128"]


def grid_exact_chain(seed):
    return ["--engine", "skip,batched", "--chunk-policy", "adaptive",
            "--n", "5e4", "--k", "16,4", "--trials", "32"]


def grid_graph_classes(seed):
    # Four n values give four er:auto realizations per run: a realization's
    # smallest degree classes set its chunk count, so one alone would make
    # the run's cost depend on the seed by ~10%.
    return ["--engine", "graph-batched", "--graph", "er:auto,regular:8",
            "--chunk-policy", "adaptive", "--n", "1e8,2e8,4e8,8e8",
            "--k", "8", "--trials", "16"]


def grid_service(seed):
    # 800 multiplicative biases in [1, 4), one per 1/800 band, jittered
    # from the seed: 2 engines x 2 n x 5 k x 800 alpha = 16000 cells.
    jitter = random.Random(derive(seed, "alpha"))
    alphas = [f"{1 + 3 * (i + jitter.random()) / 800:.6f}" for i in range(800)]
    return ["--engine", "sync,gossip", "--n", "100,1000",
            "--k", "2,3,4,6,8", "--bias", "multiplicative",
            "--alpha", ",".join(alphas), "--trials", "4"]


WORKLOADS = {
    "tauleap": grid_tauleap,
    "exact_chain": grid_exact_chain,
    "graph_classes": grid_graph_classes,
    "service": grid_service,
}


def with_trials(grid, trials):
    out = list(grid)
    out[out.index("--trials") + 1] = str(trials)
    return out


# ---- Processes ----------------------------------------------------------

@dataclass
class Launch:
    rc: int
    wall: float
    first_row: float
    rss_kb: int
    stderr: str


def launch(argv, cwd):
    """Run one child to completion: exit code, wall time, time until its
    first stderr line (kusd sweep prints one per emitted row), peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(a) for a in argv], cwd=cwd,
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stderr.readline()
        first_row = time.perf_counter() - start
        rest = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        watchdog.cancel()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(proc.returncode, wall, first_row if first else wall,
                  usage.ru_maxrss, (first + rest).decode(errors="replace"))


def require_ok(result, what):
    if result.rc != 0:
        sys.stderr.write(result.stderr[-2000:])
        sys.exit(f"{what} failed with exit code {result.rc}")


def build():
    """Configure once, then build incrementally; exit 2 on any failure."""
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", str(THREADS),
                  "--target", "kusd_cli", "kusd_trace"])
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        log_path.write_text("")
        for step in steps:
            with open(log_path, "a") as log:
                try:
                    rc = subprocess.run([str(a) for a in step], stdout=log,
                                        stderr=subprocess.STDOUT,
                                        timeout=840).returncode
                except (OSError, subprocess.TimeoutExpired) as err:
                    rc = str(err)
            if rc != 0:
                sys.stderr.write(log_path.read_text(errors="replace")[-4000:])
                sys.stderr.write(f"\nbuild step failed ({rc}): {step}\n")
                sys.exit(2)


# ---- Output checks ------------------------------------------------------

def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def failed_cells(rows, reference):
    """Cells that differ from the reference, are not status=ok, or did not
    converge in every trial; a missing or extra row counts as failed."""
    if not rows or not reference or rows[0] != reference[0]:
        return max(len(reference) - 1, 1)
    header = rows[0]
    status = header.index("status")
    converged = header.index("converged_rate")
    failed = abs(len(rows) - len(reference))
    for row, ref in zip(rows[1:], reference[1:]):
        if row != ref or row[status] != "ok" or row[converged] != "1.0000":
            failed += 1
    return failed


def trials_in(rows):
    col = rows[0].index("trials")
    return sum(int(r[col]) for r in rows[1:])


def weak_error_check(reference):
    """exact_chain: the tau-leap's pt_mean against the exact chain's at
    each (n, k), allowed 5 standard errors plus a 5% bias."""
    header = reference[0]
    col = {name: header.index(name) for name in
           ("engine", "n", "k", "trials", "pt_mean", "pt_stddev")}
    points = {}
    for row in reference[1:]:
        points.setdefault((row[col["n"]], row[col["k"]]), {})[
            row[col["engine"]]] = row
    worst, failed = 0.0, 0
    for (n, k), by_engine in sorted(points.items()):
        skip, tau = by_engine["skip"], by_engine["batched"]
        trials = int(skip[col["trials"]])
        s_mean, t_mean = float(skip[col["pt_mean"]]), float(tau[col["pt_mean"]])
        se = ((float(skip[col["pt_stddev"]]) ** 2 +
               float(tau[col["pt_stddev"]]) ** 2) / trials) ** 0.5
        err = abs(t_mean - s_mean) / s_mean
        allowed = 5 * se / s_mean + 0.05
        worst = max(worst, err)
        ok = err <= allowed
        failed += 0 if ok else 1
        print(f"pt_mean_rel_err n={n} k={k}: {err:.4f} "
              f"(batched {t_mean:.3f} vs skip {s_mean:.3f}, allowed "
              f"{allowed:.4f}) {'ok' if ok else 'FAILED'}")
    print(f"pt_mean_rel_err (max over points) = {worst:.4f}")
    return len(points), failed


# ---- Trace 0: the workload, end to end ----------------------------------

@dataclass
class Rep:
    """One timed run of a workload and its output checks."""
    wall: float
    trials: int
    first_rows: list
    rss_kb: int
    attempted: int
    failed: int


def plain_rep(base, work, reference):
    out = work / "rep.csv"
    out.unlink(missing_ok=True)
    r = launch(base + ["--threads", THREADS, "--out", out], work)
    cells = len(reference) - 1
    if r.rc != 0:
        return Rep(r.wall, 0, [r.first_row], r.rss_kb, cells, cells)
    rows = read_rows(out)
    return Rep(r.wall, trials_in(rows), [r.first_row], r.rss_kb, cells,
               failed_cells(rows, reference))


def service_rep(base, kusd, work, reference):
    """Two journaled shards, a resume of shard 0 from its journal cut at
    half (at a line boundary), and a merge of the shard journals."""
    names = ["s0.csv", "s1.csv", "r0.csv", "m.csv",
             "j0.journal", "j1.journal", "jr.journal"]
    for name in names:
        (work / name).unlink(missing_ok=True)
    cells = len(reference) - 1
    start = time.perf_counter()
    runs = []
    for i in range(2):
        runs.append(launch(base + ["--threads", THREADS, "--shard", f"{i}/2",
                                   "--journal", f"j{i}.journal",
                                   "--out", f"s{i}.csv"], work))
    cut = 0
    if all(r.rc == 0 for r in runs):
        lines = (work / "j0.journal").read_bytes().splitlines(keepends=True)
        cut = (len(lines) - 1) // 2
        (work / "jr.journal").write_bytes(b"".join(lines[:1 + cut]))
        runs.append(launch(base + ["--threads", THREADS, "--shard", "0/2",
                                   "--resume", "jr.journal",
                                   "--out", "r0.csv"], work))
        runs.append(launch([kusd, "merge", "--inputs",
                            "jr.journal,j1.journal", "--out", "m.csv"], work))
    wall = time.perf_counter() - start
    rss = max(r.rss_kb for r in runs)
    if len(runs) < 4 or any(r.rc != 0 for r in runs):
        return Rep(wall, 0, [runs[0].first_row], rss, cells, cells)
    s0, s1 = read_rows(work / "s0.csv"), read_rows(work / "s1.csv")
    resumed, merged = read_rows(work / "r0.csv"), read_rows(work / "m.csv")
    failed = failed_cells(merged, reference)
    # Shard outputs concatenate to the unsharded grid, and the resume is
    # byte-identical to the uninterrupted shard.
    failed += failed_cells(s0 + s1[1:], reference)
    failed += failed_cells(resumed, s0)
    per_cell = int(reference[1][reference[0].index("trials")])
    computed = trials_in(s0) + trials_in(s1) + per_cell * (len(s0) - 1 - cut)
    # Both shards stream rows from a fresh start: two first-row samples.
    return Rep(wall, computed, [runs[0].first_row, runs[1].first_row], rss,
               2 * cells + len(s0) - 1, failed)


def summary(name, unit, values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    print(f"{name:>14} = {med:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, "
          f"n={len(values)}: {' '.join(f'{v:.4g}' for v in values)})")
    return med


def run_workload(name, seed, seconds, work):
    grid = WORKLOADS[name](seed)
    base = [KUSD, "sweep", *grid, "--seed", derive(seed, name)]
    attempted = failed = 0

    # Reference: the same sweep on another schedule (one trial per work
    # unit, shuffled execution order). Sweep bytes depend only on (spec,
    # seed, grid), so every timed run must match it byte for byte.
    ref = launch(base + ["--threads", THREADS, "--stripe-width", 1,
                         "--shuffle-points", 1, "--out", "ref.csv"], work)
    require_ok(ref, "reference run")
    reference = read_rows(work / "ref.csv")
    if name == "exact_chain":
        points, bad = weak_error_check(reference)
        attempted += points
        failed += bad

    # setup_s: the same command with zero trials pays everything before
    # the first trial (start-up, parsing, grid expansion, topology
    # realization, digest and journal open) and nothing after.
    setup = with_trials(grid, 0)
    setup_base = [KUSD, "sweep", *setup, "--seed", derive(seed, name),
                  "--threads", THREADS, "--out", "setup.csv"]
    if name == "service":
        setup_base += ["--shard", "0/2", "--journal", "setup.journal"]
    setup_times = []
    for _ in range(SETUP_LAUNCHES):
        (work / "setup.journal").unlink(missing_ok=True)
        r = launch(setup_base, work)
        require_ok(r, "setup run")
        setup_times.append(r.wall)

    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < 3 or time.perf_counter() < deadline:
        if name == "service":
            reps.append(service_rep(base, KUSD, work, reference))
        else:
            reps.append(plain_rep(base, work, reference))
    attempted += sum(r.attempted for r in reps)
    failed += sum(r.failed for r in reps)

    print(f"workload {name}: {len(reps)} timed runs at {THREADS} threads, "
          f"{reps[0].trials} trials each")
    metrics = {
        "trials_per_s": summary("trials_per_s", "1/s",
                                [r.trials / r.wall for r in reps]),
        "first_row_s": summary("first_row_s", "s",
                               [f for r in reps for f in r.first_rows]),
        "setup_s": summary("setup_s", "s", setup_times),
        "peak_rss_mb": summary("peak_rss_mb", "MB",
                               [r.rss_kb / 1024 for r in reps]),
        "ok_rate": 1.0 - failed / attempted,
    }
    print(f"{'ok_rate':>14} = {metrics['ok_rate']:.6g} frac  "
          f"({failed} failed of {attempted} cells and checks)")
    return metrics, attempted, failed


# ---- Trace 1: per-layer metrics -----------------------------------------

def run_traced(name, seed, seconds, work):
    grid = WORKLOADS[name](seed)
    base = [KUSD, "sweep", *grid, "--seed", derive(seed, name)]
    checks = {}

    one = launch(base + ["--threads", 1, "--out", "t1.csv"], work)
    many = launch(base + ["--threads", THREADS, "--out", "tn.csv"], work)
    require_ok(one, "1-thread run")
    require_ok(many, f"{THREADS}-thread run")
    checks[f"{name}_identical_at_1_and_{THREADS}_threads"] = (
        (work / "t1.csv").read_bytes() == (work / "tn.csv").read_bytes())
    metrics = {"runner.speedup_nproc": one.wall / many.wall}
    print(f"{name}: {one.wall:.3f} s at 1 thread, {many.wall:.3f} s at "
          f"{THREADS} threads (speedup {one.wall / many.wall:.2f})")

    help_times = []
    for _ in range(SETUP_LAUNCHES):
        r = launch([KUSD, "--help"], work)
        require_ok(r, "kusd --help")
        help_times.append(1e3 * r.wall)
    metrics["cli.exec_ms"] = statistics.median(help_times)

    pins = json.loads(PINS.read_text())
    try:
        traced = subprocess.run(
            [str(TRACE), "--seed", str(derive(seed, "trace")),
             "--seconds", str(min(seconds, TRACE_SECONDS)),
             "--threads", str(THREADS),
             "--pin-seed", str(pins["seed"]), "--workdir", str(work)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("kusd_trace timed out")
    if traced.returncode != 0:
        sys.stderr.write(traced.stderr[-2000:])
        sys.exit(f"kusd_trace failed with exit code {traced.returncode}")
    lines = traced.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics.update(result["metrics"])
    checks.update(result["checks"])

    # Deterministic count pins: the work counts at the pin seed repeat
    # exactly, run after run, until the algorithm changes.
    for metric, expected in pins["counts"].items():
        ok = metrics.get(metric) == expected
        checks[f"pin {metric}"] = ok
        if not ok:
            print(f"# PIN MISMATCH {metric}: {metrics.get(metric)!r} != "
                  f"{expected!r}")

    missing = sorted(set(PER_LAYER) - set(metrics))
    if missing:
        sys.exit(f"per-layer metrics missing: {', '.join(missing)}")
    for metric in PER_LAYER:
        print(f"{metric:>30} = {metrics[metric]:.6g} {PER_LAYER[metric]}")
    failed = sum(1 for ok in checks.values() if not ok)
    for check, ok in checks.items():
        if not ok:
            print(f"# CHECK FAILED: {check}")
    return ({m: metrics[m] for m in PER_LAYER}, len(checks), failed)


# ---- Fingerprint --------------------------------------------------------

def fingerprint():
    """What the numbers depend on besides the code: records whose `machine`
    parts differ are never compared (compare.py)."""
    machine = {"nproc": THREADS, "cpu_count": os.cpu_count()}
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            machine["cpu_model"] = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (
                index / "size").read_text().strip()
        except OSError:
            continue
    machine["caches"] = caches
    probe = subprocess.run([str(TRACE), "--fingerprint"], capture_output=True,
                           text=True, timeout=30)
    machine.update(json.loads(probe.stdout))
    cache = {}
    for line in (CMAKE_DIR / "CMakeCache.txt").read_text().splitlines():
        key = line.split(":", 1)[0]
        if key in ("CMAKE_BUILD_TYPE", "CMAKE_CXX_COMPILER", "KUSD_SIMD",
                   "KUSD_ENABLE_IPO"):
            cache[key] = line.split("=", 1)[1]
    machine["build"] = cache
    flags = CMAKE_DIR / "kusd" / "src" / "CMakeFiles" / "kusd.dir" / "flags.make"
    for line in flags.read_text().splitlines():
        if line.startswith("CXX_FLAGS"):
            machine["build"]["cxx_flags"] = line.split("=", 1)[1].strip()

    source = {"git_sha": "none"}
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if sha.returncode == 0:
            source["git_sha"] = sha.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "kusdbench"):
        paths = [ROOT / top] if (ROOT / top).is_file() else sorted(
            p for p in (ROOT / top).rglob("*")
            if p.is_file() and "__pycache__" not in p.parts)
        for p in paths:
            digest.update(str(p.relative_to(ROOT)).encode())
            digest.update(p.read_bytes())
    source["tree_sha256"] = digest.hexdigest()[:16]
    machine_id = hashlib.sha256(
        json.dumps(machine, sort_keys=True).encode()).hexdigest()[:16]
    return {"machine_id": machine_id, "machine": machine, "source": source}


def run_one(name, seed, seconds, trace, fp):
    """One workload, as the result contract has it: its result JSON is the
    last line printed, and it is appended to records.jsonl."""
    print(f"kusdbench: workload {name}, seed {seed}, {seconds} s, "
          f"trace {trace}, {THREADS} threads")
    print(f"fingerprint {fp['machine_id']}: {json.dumps(fp)}")
    work = BUILD / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            values, attempted, failed = run_traced(name, seed, seconds, work)
            units = PER_LAYER
        else:
            values, attempted, failed = run_workload(name, seed, seconds,
                                                     work)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u}
                    for m, u in units.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace,
              "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              **fp, "result": result}
    with open(BUILD / "records.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", required=True,
                        help=f"integer, or 'dev' (= {DEV_SEED}) or "
                             f"'holdout' (= {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seed = {"dev": DEV_SEED, "holdout": HOLDOUT_SEED}.get(args.seed)
    seed = int(args.seed) if seed is None else seed

    build()
    fp = fingerprint()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_one(name, seed, args.seconds, args.trace, fp)


if __name__ == "__main__":
    main()
