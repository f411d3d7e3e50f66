#!/usr/bin/env python3
"""Paper verdicts: the paper's claims as checked `kusd sweep` and
`kusd run` grids.

    python3 bench/verdicts.py KUSD cheap|full [CLAIM ...]

Each claim declares `cheap` and `full` grids and a seed. A sweep claim's
grids are literal `kusd sweep` argument lists, and sweep i runs with
seed + i. A phase-table claim's grids are `kusd run` arguments whose --n
and --k take comma lists and whose --trials counts runs per point; run i
of the claim gets seed + i. Per-point rows go to <claim>.csv in the
working directory, and each check prints PASS/FAIL, its value, its
threshold and the effect it detects with 80% power at the grid's trial
count. Exits 1 if a check or a sweep fails, 2 on usage.
"""
import concurrent.futures
import csv
import math
import os
import statistics
import subprocess
import sys
import time

Z80 = 0.8416       # one-sided normal quantile for 80% power
LOSS_MAX = 0.05    # "wins w.h.p.": the 95% CP lower bound on loss <= this
STEP_SE = 2.0      # a monotone step may go the wrong way by this many SE
# A zero-bias opinion-0 win count is tested against 1/k by the two-sided
# exact Clopper-Pearson interval at the level of a normal +-3 SE band.
SYMMETRY_ALPHA = math.erfc(3 / math.sqrt(2))  # 0.0027
# O(.) constants: pt_mean / predictor <= C at every point. Each C is 25%
# above the largest ratio the retired bench mains printed at full scale
# on the parent tree (4-vCPU Xeon, Release); the phase table's
# T5/(k n ln n) of 0.85 and 0.59 at n = 1e8 is below E4's.
C_E2 = 2.9    # 2.299 at n = 2^16, k = 32 (T / (n ln n + n^2/x1))
C_E3 = 1.35   # 1.068 at n = 2^15, k = 2  (T / (n^2 ln n / x1))
C_E4 = 1.85   # 1.463 at n = 2^16, k = 2  (T / (k n ln n))
EXPANDER_FACTOR = 2.0   # E13: regular:8 and er within 2x of complete
CYCLE_FACTOR = 100.0    # E13: the cycle at least 100x complete
# E17: pt_mean(graph-batched) / pt_mean(graph) lies within 1 +- MEAN_FIELD_TOL
# on complete and regular:64. The retired bench_graph_batched main read KS
# 0.10 (complete) and 0.21 (regular:64) at n = 2e4, k = 4, 100 trials,
# against its alpha = 0.001 gate of 0.276. A location shift with KS
# distance D moves a normal mean by sqrt(2 pi) D sd: at the consensus
# time's CV of 0.12 (ROADMAP's skip row at n = 5e4, k = 4) that is 3%, 6%
# and, at the gate, 8%. The tolerance is 25% above the gate's 8%, the
# margin the C_* constants take.
MEAN_FIELD_TOL = 0.10
# E17 on regular:8: the annealed chain is faster by its O(1/d) bias but
# not 2x faster, as BatchedGraphEngine.SparseRegularBiasIsOptimisticAndBounded
# checks at n = 256; the retired main read a ratio of 0.688 at n = 2e4.
SPARSE_RATIO = (0.5, 1.0)
# E1 and E16, the phase table of Section 2.1: at every point the trials'
# mean of each ratio is at most its C. Pi = Ti - T(i-1) with T0 = 0;
# Phases 1 and 5 are O(n log n), Phases 2 and 3 O(n^2 log n / xmax), which
# is O(k n log n) from a uniform start. Each C is 25% above the largest
# mean the retired main printed at full scale on the parent tree, rounded
# up: bench_phases at n = 8192 for E1, and bench_phase_lengths at
# n = 1e8, on the adaptive schedule, for E16.
PHASE_RATIOS = {'p1_nlnn': 'P1/(n ln n)', 'p5_nlnn': 'P5/(n ln n)',
                'p23_knlnn': '(P2+P3)/(k n ln n)', 't5_knlnn': 'T5/(k n ln n)'}
C_E1 = (0.66, 1.64, 0.70, 1.98)   # 0.528 (k = 32), 1.309, 0.559, 1.579 (k = 2)
C_E16 = (0.56, 1.47, 0.74, 1.07)  # 0.446 (k = 32), 1.168, 0.586, 0.850 (k = 8)


def binom_tail(x, n, p):
    """P(X >= x) for X ~ Binomial(n, p), n up to ~1000."""
    return sum(math.comb(n, i) * p ** i * (1 - p) ** (n - i)
               for i in range(max(x, 0), n + 1))


def solve_p(f, target):
    """The p in [0, 1] where the increasing function f reaches target."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) < target else (lo, mid)
    return hi


def cp_lower(x, n, alpha=0.05):
    """One-sided 1 - alpha Clopper-Pearson lower bound on a rate seen x of n."""
    return 0.0 if x == 0 else solve_p(lambda p: binom_tail(x, n, p), alpha)


def cp_upper(x, n, alpha=0.05):
    """One-sided 1 - alpha Clopper-Pearson upper bound on a rate seen x of n."""
    return 1.0 if x == n else solve_p(lambda p: binom_tail(x + 1, n, p),
                                      1 - alpha)


def detectable_rate(n, limit, alpha=0.05):
    """The rate at which a check that the CP lower bound stays <= limit
    fails with 80% power (1.0: no count of n fails it)."""
    fail_at = next((x for x in range(n + 1)
                    if cp_lower(x, n, alpha) > limit), n + 1)
    return solve_p(lambda p: binom_tail(fail_at, n, p), 0.8)


def rel_se(row):
    return row['pt_stddev'] / math.sqrt(row['trials']) / row['pt_mean']


def mean_ratio(a, b):  # pt_mean(a) / pt_mean(b), delta-method relative SE
    return a['pt_mean'] / b['pt_mean'], math.hypot(rel_se(a), rel_se(b))


def loglog_slope(xs, ys):
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def regime(n):  # Theorem 2's largest k, at c = 1 and natural logs
    return math.sqrt(n) / math.log(n) ** 2


class Report:
    def __init__(self):
        self.checks = self.failed = 0

    def check(self, ok, what, value, threshold, detect):
        self.checks += 1
        self.failed += not ok
        print(f"  {'PASS' if ok else 'FAIL'}  {what}: {value}"
              f" | threshold {threshold} | detects {detect}")


def label(row):
    n, k = row['n'], row['k']
    return f"n={n} k={k}" + (
        f" [out of regime: k > {regime(n):.2f}]" if k > regime(n) else "")


def wins_whp(rep, row, what):
    t = row['trials']
    losses = round((1 - row['plurality_win_rate']) * t)
    lower = cp_lower(losses, t)
    rep.check(lower <= LOSS_MAX, f"wins w.h.p. {what}",
              f"loss {losses}/{t}, 95% CP lower {lower:.3f}",
              f"<= {LOSS_MAX}",
              f"loss rate >= {detectable_rate(t, LOSS_MAX):.3f}")


def symmetric(rep, row, what):
    t, p0, a = row['trials'], 1 / row['k'], SYMMETRY_ALPHA / 2
    wins = round(row['plurality_win_rate'] * t)
    lo, hi = cp_lower(wins, t, a), cp_upper(wins, t, a)
    rep.check(lo <= p0 <= hi, f"opinion-0 win share {what}",
              f"{wins}/{t} wins vs 1/k = {p0:.3f}",
              f"1/k in the two-sided {1 - SYMMETRY_ALPHA:.2%} CP interval "
              f"[{lo:.3f}, {hi:.3f}]",
              # Mirrored, the low side is the high side of 1 - share.
              f"share <= {1 - detectable_rate(t, 1 - p0, a):.3f} or "
              f">= {detectable_rate(t, p0, a):.3f}")


def factor(rep, what, ratio, rel, limit, at_most):
    """ratio <= limit (at_most) or >= limit; rel is its relative SE."""
    rep.check(ratio <= limit if at_most else ratio >= limit, what,
              f"{ratio:.4g}", f"{'<=' if at_most else '>='} {limit:g}",
              f"ratio {'>=' if at_most else '<='} "
              f"{limit * (1 + (Z80 if at_most else -Z80) * rel):.3f}")


def ordered(rep, what, points, sign):
    """points: (name, value, se) in axis order; no step may go against
    `sign` (+1 non-decreasing, -1 non-increasing) by over STEP_SE SE."""
    for (na, a, sa), (nb, b, sb) in zip(points, points[1:]):
        se = math.hypot(sa, sb)
        rep.check(sign * (b - a) >= -STEP_SE * se, f"{what} {na} -> {nb}",
                  f"{a:.3f} -> {b:.3f}, step {b - a:+.3f} (SE {se:.3f})",
                  f"wrong way <= {STEP_SE:g} SE",
                  f"wrong-way step >= {(STEP_SE + Z80) * se:.3f}")


def o_bound(predictor, c, name, point_check):
    """A judge: point_check and pt_mean / predictor <= c, all converged, at
    every point; then the k-slope and the ratio along n, reported."""
    def judge(rep, rows):
        for r in rows:
            point_check(rep, r, label(r))
            factor(rep, f"T/({name}) {label(r)}, converged "
                   f"{r['converged_rate']:.2f}",
                   r['pt_mean'] / predictor(r) if r['converged_rate'] == 1
                   else math.inf, rel_se(r), c, True)
        for n in sorted({r['n'] for r in rows}):
            at = sorted((r for r in rows if r['n'] == n), key=lambda r: r['k'])
            if len(at) >= 3:
                slope = loglog_slope([r['k'] for r in at],
                                     [r['pt_mean'] for r in at])
                print(f"  ----  pt_mean ~ k^{slope:.2f} over k={at[0]['k']}.."
                      f"{at[-1]['k']} at n={n}; regime k <= {regime(n):.2f}")
        for k in sorted({r['k'] for r in rows}):
            at = sorted((r for r in rows if r['k'] == k), key=lambda r: r['n'])
            if len(at) >= 3:
                print(f"  ----  T/({name}) along n={at[0]['n']}.."
                      f"{at[-1]['n']} at k={k}: " + ", ".join(
                          f"{r['pt_mean'] / predictor(r):.3f}" for r in at))
    return judge


def pred_e2(r):  # ln n + n/x1(0), x1 as Configuration builds alpha
    x1 = r['n'] - math.floor(r['n'] / (r['bias'] + r['k'] - 1)) * (r['k'] - 1)
    return math.log(r['n']) + r['n'] / x1


def pred_e3(r):  # n ln n / x1(0), x1 as Configuration builds beta
    x1 = r['n'] - (r['n'] - int(r['bias'])) // r['k'] * (r['k'] - 1)
    return r['n'] * math.log(r['n']) / x1


def pred_e4(r):  # k ln n
    return r['k'] * math.log(r['n'])


def judge_e7(rep, rows):
    for k in sorted({r['k'] for r in rows}):
        at = sorted((r for r in rows if r['k'] == k), key=lambda r: r['bias'])
        unit = math.sqrt(at[0]['n'] * math.log(at[0]['n']))
        # Laplace-smoothed SEs, so that a 0 or 1 rate is not certain.
        smooth = [(r['plurality_win_rate'] * r['trials'] + 1)
                  / (r['trials'] + 2) for r in at]
        points = [(f"{r['bias'] / unit:.2f}", r['plurality_win_rate'],
                   math.sqrt(p * (1 - p) / r['trials']))
                  for r, p in zip(at, smooth)]
        symmetric(rep, at[0], f"k={k} beta=0")
        ordered(rep, f"win rate k={k}, beta/sqrt(n ln n)", points, +1)
        wins_whp(rep, at[-1], f"k={k} beta/sqrt(n ln n)={points[-1][0]}")


def judge_e8(rep, rows):
    pairs = {}  # geometric ratio -> engine -> row
    for r in rows:
        pairs.setdefault(float(r['start'].split(':')[1]), {})[r['engine']] = r
    ratios = [mean_ratio(pairs[g]['skip'], pairs[g]['gossip'])
              for g in sorted(pairs)]  # skewed (small g) to flat (g = 1)
    ordered(rep, "pop/gossip pt_mean as the start flattens",
            [(f"geometric:{g:g}", r, r * rel)
             for g, (r, rel) in zip(sorted(pairs), ratios)], -1)


def judge_e13(rep, rows):
    by = {r['graph'].split(':')[0]: r for r in rows}
    for name in ('complete', 'regular', 'er'):
        wins_whp(rep, by[name], by[name]['graph'])
    for name in ('regular', 'er'):
        factor(rep, f"{by[name]['graph']} / complete pt_mean",
               *mean_ratio(by[name], by['complete']), EXPANDER_FACTOR, True)
    factor(rep, f"cycle / complete pt_mean, cycle converged "
           f"{by['cycle']['converged_rate']:.2f}",
           *mean_ratio(by['cycle'], by['complete']), CYCLE_FACTOR, False)


def judge_e17(rep, rows):
    by = {(r['engine'], r['graph']): r for r in rows}

    def ratio(graph):  # annealed over quenched; inf unless all converged
        agg, edge = by['graph-batched', graph], by['graph', graph]
        r, rel = mean_ratio(agg, edge)
        converged = min(agg['converged_rate'], edge['converged_rate'])
        what = (f"{graph} graph-batched / graph pt_mean, converged "
                f"{converged:.2f}")
        return what, r if converged == 1 else math.inf, rel

    for graph in ('complete', 'regular:64'):
        what, r, rel = ratio(graph)
        factor(rep, what, r, rel, 1 + MEAN_FIELD_TOL, True)
        factor(rep, what, r, rel, 1 - MEAN_FIELD_TOL, False)
    what, r, rel = ratio('regular:8')
    factor(rep, what, r, rel, SPARSE_RATIO[1], True)
    factor(rep, what, r, rel, SPARSE_RATIO[0], False)


def complete(trial):
    """The run converged and printed T1 <= T2 <= ... <= T5."""
    t = trial['t']
    return (trial['converged'] and None not in t
            and all(a <= b for a, b in zip(t, t[1:])))


def phase_rows(trials):
    """One row per (n, k): phase means and the PHASE_RATIOS means (with
    relative SEs) over the point's complete trials; inf with none."""
    points = {}
    for trial in trials:
        points.setdefault((trial['n'], trial['k'], trial['engine']),
                          []).append(trial)
    rows = []
    for (n, k, engine), at in sorted(points.items()):
        done = [tr['t'] for tr in at if complete(tr)]
        row = dict(n=n, k=k, engine=engine, trials=len(at),
                   complete=len(done))
        phases = [[b - a for a, b in zip((0,) + t, t)] for t in done]
        for i in range(5):
            row[f"p{i + 1}"] = (statistics.fmean(p[i] for p in phases)
                                if done else math.inf)
        nl = n * math.log(n)
        values = {'p1_nlnn': [p[0] / nl for p in phases],
                  'p5_nlnn': [p[4] / nl for p in phases],
                  'p23_knlnn': [(p[1] + p[2]) / (k * nl) for p in phases],
                  't5_knlnn': [t[4] / (k * nl) for t in done]}
        for key, xs in values.items():
            mean = statistics.fmean(xs) if xs else math.inf
            row[key] = mean
            row[key + '_rel_se'] = (statistics.stdev(xs) / math.sqrt(len(xs))
                                    / mean if len(xs) > 1 else 0.0)
        rows.append(row)
    return rows


def phase_table(cs):
    """A judge of `kusd run` trials: every trial complete and each
    PHASE_RATIOS mean at most its C, at every point; then the slopes along
    n at k = 8 and T5/(k n ln n) along k, reported."""
    def judge(rep, trials):
        rows = phase_rows(trials)
        for r in rows:
            rep.check(r['complete'] == r['trials'],
                      f"converged with T1 <= ... <= T5 {label(r)}",
                      f"{r['complete']}/{r['trials']} trials",
                      "every trial", "one failed trial")
            for (key, name), c in zip(PHASE_RATIOS.items(), cs):
                factor(rep, f"{name} {label(r)}", r[key],
                       r[key + '_rel_se'], c, True)
        at8 = [r for r in rows if r['k'] == 8 and r['complete']]
        if len(at8) >= 2:
            ns = [r['n'] for r in at8]
            print(f"  ----  along n={ns[0]}..{ns[-1]} at k=8: P1 ~ n^"
                  f"{loglog_slope(ns, [r['p1'] for r in at8]):.2f}, P2+P3 ~ "
                  f"n^{loglog_slope(ns, [r['p2'] + r['p3'] for r in at8]):.2f}"
                  " (n ln n reads ~1.1)")
        for n in sorted({r['n'] for r in rows}):
            at = [r for r in rows if r['n'] == n]
            print(f"  ----  T5/(k n ln n) along k at n={n}: " + ", ".join(
                f"k={r['k']} {r['t5_knlnn']:.3f}" for r in at))
    return judge


E2 = "--engine skip --bias multiplicative --alpha 2"
E3 = "--engine skip --bias additive"
E8 = ("--engine skip,gossip --k 16 --start geometric:1,geometric:0.9,"
      "geometric:0.8,geometric:0.6,geometric:0.4")
E10 = "--engine batched --n 1e9 --k 64"
E13 = "--engine graph --k 2 --bias multiplicative --alpha 1.5"
E17 = ("--engine graph,graph-batched --graph complete,regular:64,regular:8 "
       "--k 4")
# E3's beta is floor(4 sqrt(n ln n)); E7's betas are floor(c sqrt(n ln n))
# for c = 0, 1/4, 1/2, 1, 2, 4. E13's er:p is 4 ln n / n and its budget
# 400 n^2 interactions, the cycle's ~n^3 time with room.
CLAIMS = {
    'E1': dict(
        title="Section 2.1's phase table at per-interaction scale: Phases 1 "
              "and 5 in O(n log n), Phases 2 and 3 in O(k n log n)",
        seed=1, command='run', judge=phase_table(C_E1),
        cheap=["--engine skip --n 8192,32768 --k 2,8,32 --trials 8"],
        full=["--engine skip --n 8192,32768,131072 --k 2,8,32 --trials 8"]),
    'E16': dict(
        title="Section 2.1's phase table at n = 1e8 on the batched tau-leap "
              "(fixed 2% chunks)", seed=16, command='run',
        judge=phase_table(C_E16),
        cheap=["--engine batched --n 1e8 --k 8,32 --trials 3"],
        full=["--engine batched --n 1e8 --k 8,32 --trials 6"]),
    'E2': dict(
        title="Theorem 2(1): multiplicative bias alpha = 2 wins w.h.p. in "
              "O(log n + n/x1(0))", seed=2,
        judge=o_bound(pred_e2, C_E2, "ln n + n/x1", wins_whp),
        cheap=[f"{E2} --n 4096,16384 --k 2,8 --trials 16"],
        full=[f"{E2} --n 4096,16384,65536,262144 --k 2 --trials 64",
              f"{E2} --n 65536 --k 4,8,16,32 --trials 64"]),
    'E3': dict(
        title="Theorem 2(2): additive bias 4 sqrt(n ln n) wins w.h.p. in "
              "O(n log n / x1(0))", seed=3,
        judge=o_bound(pred_e3, C_E3, "n ln n / x1", wins_whp),
        cheap=[f"{E3} --n 4096 --k 2,8 --beta 738 --trials 16",
               f"{E3} --n 16384 --k 8 --beta 1594 --trials 16"],
        full=[f"{E3} --n 4096 --k 8 --beta 738 --trials 64",
              f"{E3} --n 16384 --k 8 --beta 1594 --trials 64",
              f"{E3} --n 65536 --k 2,4,8,16,32 --beta 3410 --trials 64",
              f"{E3} --n 262144 --k 8 --beta 7234 --trials 64"]),
    'E4': dict(
        title="Theorem 2(3): uniform start, O(k log n), symmetric winner",
        seed=4, judge=o_bound(pred_e4, C_E4, "k ln n", symmetric),
        cheap=["--engine skip --n 4096,16384 --k 2,8 --trials 16"],
        full=["--engine skip --n 4096,16384,65536,262144 --k 2 --trials 64",
              "--engine skip --n 65536 --k 4,8,16,32 --trials 64"]),
    'E7': dict(
        title="Theorem 2(2) threshold: win rate 1/k -> 1 within O(1) units "
              "of sqrt(n ln n)", seed=7, judge=judge_e7,
        cheap=[f"{E3} --n 4096 --k 2,8 --beta 0,46,92,184,369,738 "
               "--trials 16"],
        full=[f"{E3} --n 32768 --k 2,8 --beta 0,145,291,583,1167,2334 "
              "--trials 64"]),
    'E8': dict(
        title="Appendix D: population against gossip model over the "
              "start's skew", seed=8, judge=judge_e8,
        cheap=[f"{E8} --n 4096 --trials 16"],
        full=[f"{E8} --n 65536 --trials 32"]),
    'E10': dict(
        title="Batched tau-leap: uniform start at n = 1e9, k = 64 in "
              "O(k log n)", seed=10,
        judge=o_bound(pred_e4, C_E4, "k ln n", symmetric),
        cheap=[f"{E10} --trials 4"],
        full=[f"{E10} --trials 32"]),
    'E13': dict(
        title="Graphs: expanders track complete, the cycle is far slower",
        seed=13, judge=judge_e13,
        cheap=[f"{E13} --graph complete,regular:8,er:0.1516,cycle --n 128 "
               "--budget 6553600 --trials 16"],
        full=[f"{E13} --graph complete,regular:8,er:0.0866,cycle --n 256 "
              "--budget 26214400 --trials 32"]),
    'E17': dict(
        title="Degree-aggregated graph engine against the per-edge one",
        seed=17, judge=judge_e17,
        cheap=[f"{E17} --n 2000 --trials 32"],
        full=[f"{E17} --n 20000 --trials 100"]),
}


def run_grid(kusd, cid, claim, grid):
    """Runs the claim's sweeps into <cid>.csv; returns the parsed rows."""
    part, lines = f"{cid}.part.csv", []
    for i, args in enumerate(claim[grid]):
        cmd = [kusd, 'sweep', *args.split(), '--seed',
               str(claim['seed'] + i), '--out', part]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            sys.exit(f"{cid}: `{' '.join(cmd)}` exited {proc.returncode}:\n"
                     f"{proc.stderr}")
        with open(part, encoding='utf-8') as f:
            lines += f.read().splitlines()[1 if lines else 0:]
    os.remove(part)
    with open(f"{cid}.csv", 'w', encoding='utf-8') as f:
        f.write("\n".join(lines) + "\n")
    rows = list(csv.DictReader(lines))
    for r in rows:
        r.update({key: int(r[key]) for key in ('n', 'k', 'trials')})
        r.update({key: float(r[key]) for key in (
            'bias', 'converged_rate', 'plurality_win_rate', 'pt_mean',
            'pt_stddev')})
    return rows


def run_phase_grid(kusd, cid, claim, grid):
    """Runs the claim's `kusd run` trials, writes per-point phase means
    and ratios to <cid>.csv and returns one row per trial; a non-zero exit
    is an unconverged trial."""
    jobs = []
    for args in claim[grid]:
        flags = dict(zip(*[iter(args.split())] * 2))
        ns, ks = flags.pop('--n').split(','), flags.pop('--k').split(',')
        trials = int(flags.pop('--trials'))
        jobs += [(flags, n, k) for n in ns for k in ks for _ in range(trials)]

    def run(i):
        flags, n, k = jobs[i]
        proc = subprocess.run(
            [kusd, 'run', *(x for kv in flags.items() for x in kv),
             '--n', n, '--k', k, '--seed', str(claim['seed'] + i)],
            capture_output=True, text=True, check=False)
        t = dict(line.split() for line in proc.stdout.splitlines()
                 if line.startswith('  T'))
        return dict(n=int(float(n)), k=int(k),
                    engine=flags.get('--engine', 'skip'),
                    converged=proc.returncode == 0,
                    t=tuple(int(t[p]) if p in t else None for p in
                            ('T1', 'T2', 'T3', 'T4', 'T5')))

    with concurrent.futures.ThreadPoolExecutor(os.cpu_count()) as pool:
        trials = list(pool.map(run, range(len(jobs))))
    rows = phase_rows(trials)
    with open(f"{cid}.csv", 'w', encoding='utf-8', newline='') as f:
        out = csv.DictWriter(f, list(rows[0]), lineterminator='\n')
        out.writeheader()
        out.writerows({key: f"{v:.6g}" if isinstance(v, float) else v
                       for key, v in r.items()} for r in rows)
    return trials


def main(argv):
    if (len(argv) < 3 or argv[2] not in ('cheap', 'full')
            or any(c not in CLAIMS for c in argv[3:])):
        print(__doc__.strip() + f"\nclaims: {' '.join(CLAIMS)}",
              file=sys.stderr)
        return 2
    kusd, grid, failed = argv[1], argv[2], []
    for cid in argv[3:] or CLAIMS:
        claim, started = CLAIMS[cid], time.monotonic()
        runs = claim.get('command') == 'run'
        rows = (run_phase_grid if runs else run_grid)(kusd, cid, claim, grid)
        print(f"== {cid} · {claim['title']}\n   {grid} grid: "
              f"{len(claim[grid])} {'run grid' if runs else 'sweep'}(s), "
              f"{len(rows)} {'trials' if runs else 'points'}, seed "
              f"{claim['seed']}, {time.monotonic() - started:.1f} s "
              f"-> {cid}.csv")
        rep = Report()
        claim['judge'](rep, rows)
        print(f"   {cid}: {'FAIL' if rep.failed else 'PASS'} "
              f"({rep.checks - rep.failed}/{rep.checks} checks pass)")
        failed += [cid] if rep.failed else []
    print(f"verdicts ({grid}): "
          + (f"FAIL {' '.join(failed)}" if failed else "all pass"))
    return 1 if failed else 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))
