"""Sphere sampling: scipy.stats loads on the first sample and on no solve path,
and the points are fixed; mpmath loads on the first dps solve and on no float path.

The import checks need an interpreter that has not loaded scipy.stats or
mpmath yet, so they run in a child process started from the directory that
holds the imported package.
"""

import json
import subprocess
import sys
from pathlib import Path

import spherebound

_CHILD = r"""
import json, sys
import numpy as np
import spherebound, spherebound.cli

def loaded():
    return {name: name in sys.modules for name in ("scipy.stats", "scipy.special")}

out = {"import": loaded()}
spherebound.sphere_points(8, 3)
out["first_sample"] = loaded()

from scipy.special import ndtri
from scipy.stats import qmc
out["same_points"] = {}
for n in range(2, 7):
    u = qmc.Sobol(d=n, scramble=True, seed=11).random_base2(12)
    g = ndtri(np.clip(u, 1e-15, 1.0 - 1e-15))
    ref = g / np.linalg.norm(g, axis=1)[:, None]
    got = spherebound.sphere_points(4096, n, seed=11)
    out["same_points"][n] = bool(np.array_equal(got, ref))
print(json.dumps(out))
"""


def test_scipy_stats_loads_on_the_first_sample_and_points_are_unchanged():
    proc = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True, text=True,
                          timeout=120, cwd=Path(spherebound.__file__).resolve().parents[1])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["import"] == {"scipy.stats": False, "scipy.special": False}
    assert out["first_sample"] == {"scipy.stats": True, "scipy.special": True}
    assert out["same_points"] == {str(n): True for n in range(2, 7)}


_RATIONAL_CHILD = r"""
import contextlib, io, json, sys
import spherebound, spherebound.cli

p, q = spherebound.parse_poly("x1", 2), spherebound.parse_poly("2 + x1", 2)
spherebound.rational_upper_bound(p, q, 2, 3)
with contextlib.redirect_stdout(io.StringIO()):
    code = spherebound.cli.main(["rational", "--p", "x1", "--q", "2 + x1", "--n", "3",
                                 "--r", "2"])
print(json.dumps({"code": code,
                  "loaded": [m for m in ("scipy.stats", "scipy.special", "mpmath")
                             if m in sys.modules]}))
"""


def test_rational_bound_and_command_leave_scipy_stats_unloaded():
    proc = subprocess.run([sys.executable, "-c", _RATIONAL_CHILD], capture_output=True,
                          text=True, timeout=120,
                          cwd=Path(spherebound.__file__).resolve().parents[1])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"code": 0, "loaded": []}


_MPMATH_CHILD = r"""
import json, sys
import spherebound, spherebound.cli
from spherebound import parse_poly

out = {"import": "mpmath" in sys.modules}
x3 = parse_poly("x3", 3)
res = spherebound.upper_bound(x3, 3, 4)
out["upper_bound"] = "mpmath" in sys.modules
spherebound.sweep(parse_poly("x1^4 + x2^4 + x3^4", 3), 3, 1, 3, certificates=True)
out["sweep"] = "mpmath" in sys.modules
spherebound.rational_upper_bound(parse_poly("x1", 2), parse_poly("2 + x1", 2), 2, 3)
out["rational_upper_bound"] = "mpmath" in sys.modules
spherebound.density_grid(spherebound.extract_density(res), 3, 10)
out["density_grid"] = "mpmath" in sys.modules
spherebound.upper_bound(x3, 3, 2, dps=20)
out["dps"] = "mpmath" in sys.modules
print(json.dumps(out))
"""


def test_float_work_leaves_mpmath_unloaded_and_dps_loads_it():
    proc = subprocess.run([sys.executable, "-c", _MPMATH_CHILD], capture_output=True, text=True,
                          timeout=120, cwd=Path(spherebound.__file__).resolve().parents[1])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": False, "upper_bound": False, "sweep": False,
                                       "rational_upper_bound": False, "density_grid": False,
                                       "dps": True}
