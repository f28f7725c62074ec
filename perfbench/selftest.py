"""Tests of the benchmark itself: reduced rounds pass, perturbed results fail.

    python3 perfbench/selftest.py

Each workload runs one reduced round and must pass every check.  Then the
round's results are perturbed (a bound shifted by 1e-6, a certificate put
above its bound, a sequence that rises with r, a density whose integral is
not 1) and the same checks must reject them, which shows they can fail.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from spherebound import bounds  # noqa: E402


def problems(outcomes):
    return [(o.label, p) for o in outcomes for p in o.problems]


class ReducedRounds(unittest.TestCase):
    """One reduced round per workload, checked, then perturbed."""

    @classmethod
    def setUpClass(cls):
        cls.rounds = {}
        for name, cls_ in workloads.WORKLOADS.items():
            wl = cls_(seed=3, reduced=True)
            cls.rounds[name] = (wl, *wl.run_round())

    def test_reduced_rounds_pass(self):
        for name, (wl, raw, top_ms) in self.rounds.items():
            with self.subTest(workload=name):
                outs = wl.check(raw)
                self.assertTrue(outs)
                self.assertEqual(problems(outs), [])
                self.assertGreater(top_ms, 0.0)
                self.assertTrue(any(o.digits is not None for o in outs))

    def certified(self):
        wl, (recs, level0, small), _ = self.rounds["certified_plus_small"]
        return wl, recs, level0, small

    def test_bound_shifted_by_1e6_is_rejected(self):
        # below the exact level value of x_n
        wl, recs, _ = self.rounds["sweep_x5"]
        bad = [dataclasses.replace(recs[0], bound=recs[0].bound - 1e-6)] + recs[1:]
        self.assertTrue(problems(wl.check(bad)))
        wl, recs, level0, small = self.certified()
        bad = dict(small, hp=[v - 1e-6 for v in small["hp"]])
        self.assertTrue(problems(wl.check((recs, level0, bad))))
        # either way where the reference is exact to 1e-10 or better
        for shift in (-1e-6, 1e-6):
            self.assertTrue(problems(wl.check((recs, level0 + shift, small))))
            bad = dict(small, motzkin1=[v + shift for v in small["motzkin1"]])
            self.assertTrue(problems(wl.check((recs, level0, bad))))

    def test_shifted_density_bound_is_rejected(self):
        wl, _, _, small = self.certified()
        res = small["motzkin"][-1]
        den, grid = small["density"]
        for shift in (-1e-6, 1e-6):
            got = checks.density_problems(res.coeffs, res.basis.elements,
                                          wl.small.motzkin.terms, res.value + shift,
                                          den.h.terms, grid)
            self.assertTrue(any("E_h[f]" in p for p in got))

    def test_certificate_above_bound_is_rejected(self):
        wl, recs, level0, small = self.certified()
        bad = list(recs)
        bad[-1] = dataclasses.replace(bad[-1], lower_certificate=bad[-1].bound + 1e-6)
        got = problems(wl.check((bad, level0, small)))
        self.assertTrue(any("certificate above the bound" in p for _, p in got))
        bad = dict(small, quartic=[(b, b + 1e-6) for b, _ in small["quartic"]])
        got = problems(wl.check((recs, level0, bad)))
        self.assertTrue(any("certificate above the bound" in p for _, p in got))

    def test_rising_sequence_is_rejected(self):
        wl, recs, level0, small = self.certified()
        for key in ("hp", "ratio", "x3"):
            bad = dict(small, **{key: list(reversed(small[key]))})
            got = problems(wl.check((recs, level0, bad)))
            self.assertTrue(any("rises with r" in p for _, p in got), key)

    def test_density_with_wrong_integral_is_rejected(self):
        wl, recs, level0, small = self.certified()
        res = small["motzkin"][-1]
        scaled = dataclasses.replace(res, coeffs=res.coeffs * 1.001)
        den = bounds.extract_density(scaled)
        bad = dict(small, motzkin=small["motzkin"][:-1] + [scaled],
                   density=(den, bounds.density_grid(den, 3)))
        got = problems(wl.check((recs, level0, bad)))
        self.assertTrue(any("integral of h" in p for _, p in got))


class References(unittest.TestCase):

    def test_sphere_mean(self):
        # E[x1^4] on S^2 is 1/5, E[x1^2 x2^2] is 1/15, odd moments vanish
        self.assertEqual(checks.sphere_mean({(4, 0, 0): 1.0}, 3), Fraction(1, 5))
        self.assertEqual(checks.sphere_mean({(2, 2, 0): 3.0, (1, 0, 0): 7.0}, 3),
                         Fraction(1, 5))
        self.assertEqual(checks.sphere_mean({(4,) + (0,) * 5: 6.0}, 6), Fraction(3, 8))

    def test_xn_level_value(self):
        self.assertAlmostEqual(checks.xn_level_value(3, 1), -1 / 3 ** 0.5, places=15)
        self.assertAlmostEqual(checks.xn_level_value(2, 1), -(0.5 ** 0.5), places=15)

    def test_s2_rule_is_exact(self):
        X, W = checks.s2_rule(8)
        self.assertAlmostEqual(float(W.sum()), 1.0, places=14)
        self.assertAlmostEqual(float(W @ X[:, 0] ** 8), 1 / 9, places=14)
        self.assertAlmostEqual(float(W @ (X[:, 0] ** 4 * X[:, 1] ** 2 * X[:, 2] ** 2)),
                               float(checks.sphere_mean({(4, 2, 2): 1.0}, 3)), places=15)


class Harness(unittest.TestCase):

    def test_tracer_restores_call_points(self):
        before = bounds.moment_matrix
        with tracer.traced(tracer.Tracer()) as tr:
            self.assertIsNot(bounds.moment_matrix, before)
            wl = workloads.SweepX5(seed=0, reduced=True)
            wl.run_round()
        self.assertIs(bounds.moment_matrix, before)
        m = tr.metrics()
        self.assertGreater(m["basis.moment_matrix_calls"], 0)
        self.assertEqual(m["linalg.pencil_calls"] * 2, m["basis.moment_matrix_calls"])
        # self times never exceed the sweep span that contains them
        sweep = [s for s in tr.spans if s[0] == "harness.sweep"]
        self.assertEqual(len(sweep), 1)
        self.assertLessEqual(sum(tr.self_time.values()), sweep[0][3] * (1 + 1e-9))

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        wl = workloads.SweepX5(seed=0, reduced=True)
        plain, traced = run.measure(wl, 0.0, trace=True)
        outs = [o for _, _, r in plain + traced for o in r]
        run.with_units(run.end_to_end(plain, [1.0], outs), spec["end_to_end"])
        run.with_units(run.per_layer(plain, traced, [1.0]), spec["per_layer"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_refuses_to_run_without_sources(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep_x5", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
