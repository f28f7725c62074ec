"""The benchmark's own tests, run as part of the suite.

perfbench/tracer.py wraps package functions by attribute name
(Polynomial.eval_many, bounds.density_grid, cubature.sphere_product_rule
and others), so a change that renames or re-routes one of them must fail
here and not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
