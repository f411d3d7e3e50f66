#!/usr/bin/env python3
"""Self-test of bench/verdicts.py: rows that break each check kind fail
their claim and clean rows pass, so an always-passing checker fails."""
import contextlib
import io
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import verdicts  # noqa: E402


def row(n=65536, k=2, bias=0.0, win=1.0, pt=20.0, pred=None, **axes):
    """A sweep row; with `pred`, pt_mean is pt times the claim's predictor."""
    r = dict(dict(engine='skip', graph='-', start='uniform'), **axes,
             n=n, k=k, bias=bias, trials=64, converged_rate=1.0,
             plurality_win_rate=win, pt_mean=pt, pt_stddev=1.0)
    return dict(r, pt_mean=pt * pred(r)) if pred else r


def e10(wins):
    """E10's cheap point: k = 64, 4 trials, opinion 0 winning `wins`."""
    return dict(row(n=10 ** 9, k=64, win=wins / 4, pt=1,
                    pred=verdicts.pred_e4), trials=4)


def e7(wins=(0.5, 0.8, 1.0, 1.0)):
    unit = math.sqrt(32768 * math.log(32768))
    return [row(n=32768, bias=c * unit, win=w)
            for c, w in zip((0, 0.5, 1, 2), wins)]


def e8(pop=(30.0, 25.0, 20.0)):
    return [row(k=16, engine=e, start=f"geometric:{g}", pt=pt)
            for g, p in zip((0.4, 0.8, 1), pop)
            for e, pt in (('skip', p), ('gossip', 15.0))]


def e13(regular=15.0, cycle=3000.0):
    return [row(n=256, engine='graph', graph=g, pt=pt) for g, pt in
            (('complete', 12.0), ('regular:8', regular), ('er:0.0866', 14.0),
             ('cycle', cycle))]


def e17(complete=1.0, dense=0.96, sparse=0.7, converged=1.0):
    """graph-batched pt_mean at these multiples of graph's, per topology."""
    return [dict(row(n=20000, k=4, engine=e, graph=g, pt=pt * (r if
                     e == 'graph-batched' else 1)), converged_rate=converged)
            for g, r, pt in (('complete', complete, 30.0),
                             ('regular:64', dense, 31.0),
                             ('regular:8', sparse, 45.0))
            for e in ('graph', 'graph-batched')]


def phase_trials(cs, n=65536, over=None, trials=4, **broken):
    """`trials` `kusd run` trials at k = 8 whose PHASE_RATIOS sit at 0.8 C,
    or at 1.01 C for the key `over`; `broken` replaces the first trial's
    fields."""
    k, nl = 8, n * math.log(n)
    r = {key: c * (1.01 if key == over else 0.8)
         for key, c in zip(verdicts.PHASE_RATIOS, cs)}
    p = [r['p1_nlnn'] * nl, r['p23_knlnn'] * k * nl / 2,
         r['p23_knlnn'] * k * nl / 2, 0.05 * nl, r['p5_nlnn'] * nl]
    if over == 't5_knlnn':
        p[3] = r['t5_knlnn'] * k * nl - sum(p) + p[3]
    t = tuple(round(sum(p[:i + 1])) for i in range(5))
    rows = [dict(n=n, k=k, engine='skip', converged=True, t=t)
            for _ in range(trials)]
    rows[0].update(broken)
    return rows


class Verdicts(unittest.TestCase):
    def fails(self, claim, rows):
        rep = verdicts.Report()
        with contextlib.redirect_stdout(io.StringIO()):
            verdicts.CLAIMS[claim]['judge'](rep, rows)
        return rep.failed > 0

    def test_clean_rows_pass(self):
        for claim, rows in (
                ('E2', [row(n=4096, bias=2.0, pt=1.5, pred=verdicts.pred_e2),
                        row(bias=2.0, pt=1.5, pred=verdicts.pred_e2)]),
                ('E3', [row(k=8, bias=3410.0, pt=1, pred=verdicts.pred_e3)]),
                ('E4', [row(win=0.5, pt=1, pred=verdicts.pred_e4)]),
                ('E10', [e10(wins=1)]),
                ('E7', e7()), ('E8', e8()), ('E13', e13()),
                ('E17', e17()),
                ('E1', phase_trials(verdicts.C_E1, n=8192)
                 + phase_trials(verdicts.C_E1, n=32768)),
                ('E16', phase_trials(verdicts.C_E16, n=10 ** 8))):
            self.assertFalse(self.fails(claim, rows), claim)

    def test_broken_phase_trials_fail(self):
        for claim, cs in (('E1', verdicts.C_E1), ('E16', verdicts.C_E16)):
            t = phase_trials(cs)[0]['t']
            for broken in (dict(converged=False),
                           dict(t=t[:2] + (None,) + t[3:]),
                           dict(t=(t[0], t[2], t[1]) + t[3:])):
                self.assertTrue(
                    self.fails(claim, phase_trials(cs, **broken)), broken)
            for key in verdicts.PHASE_RATIOS:
                self.assertTrue(
                    self.fails(claim, phase_trials(cs, over=key)), key)

    def test_broken_rows_fail(self):
        unconverged = dict(row(win=0.5, pt=10.0), converged_rate=0.98)
        for claim, rows in (
                ('E2', [row(bias=2.0, win=0.75, pt=1, pred=verdicts.pred_e2)]),
                ('E2', [row(bias=2.0, pt=verdicts.C_E2 * 1.01,
                            pred=verdicts.pred_e2)]),
                ('E4', [row(win=0.5, pt=verdicts.C_E4 * 1.01,
                            pred=verdicts.pred_e4)]),
                ('E4', [unconverged]),
                ('E7', e7(wins=(0.5, 1.0, 0.6, 1.0))),
                ('E8', e8(pop=(30.0, 20.0, 30.0))),
                ('E4', [row(win=0.9, pt=1, pred=verdicts.pred_e4)]),
                ('E10', [e10(wins=3)]),
                ('E7', e7(wins=(0.05, 0.8, 1.0, 1.0))),
                ('E13', e13(regular=30.0)), ('E13', e13(cycle=600.0)),
                ('E17', e17(complete=1.15)), ('E17', e17(dense=0.85)),
                ('E17', e17(sparse=1.05)), ('E17', e17(sparse=0.45)),
                ('E17', e17(converged=0.99))):
            self.assertTrue(self.fails(claim, rows), claim)

    def test_clopper_pearson_lower_bound(self):
        # Beta(5, 6)'s 5% quantile: the one-sided 95% bound for 5 of 10.
        self.assertAlmostEqual(verdicts.cp_lower(5, 10), 0.2224, places=4)
        self.assertEqual(verdicts.cp_lower(0, 64), 0.0)

    def test_clopper_pearson_upper_bound(self):
        # Beta(6, 5)'s 95% quantile, the mirror image of the bound above.
        self.assertAlmostEqual(verdicts.cp_upper(5, 10), 0.7776, places=4)
        self.assertEqual(verdicts.cp_upper(64, 64), 1.0)
        # At the symmetry level, 1 win of 4 keeps 1/64 inside; 3 do not.
        a = verdicts.SYMMETRY_ALPHA / 2
        self.assertLess(verdicts.cp_lower(1, 4, a), 1 / 64)
        self.assertGreater(verdicts.cp_lower(3, 4, a), 1 / 64)


if __name__ == '__main__':
    unittest.main()
