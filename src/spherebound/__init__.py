"""Measure-based upper bounds for polynomial minimization on the unit sphere.

The central quantity is the level-r bound: the smallest expected value of
the objective under any sum-of-squares probability density of degree at
most 2r on the sphere.  It is computed as the smallest generalized
eigenvalue of a moment-matrix pencil, converges to the true minimum at
rate 1/r^2, and is certified from below by product cubature rules.
"""

from .basis import BasisSpec, moment_matrix, sphere_basis
from .bounds import BoundResult, CertificationError, ConditioningError, Density, Pencil, \
    build_pencil, density_grid, extract_density, grid_local_maxima, rational_upper_bound, \
    upper_bound
from .cubature import circle_rule, cubature_lower_bound, max_exactness_error, save_rule_csv, \
    sphere_product_rule
from .harness import MOTZKIN_TEXT, TABLE1_REFERENCE, RateFit, SweepRecord, fit_rate, \
    load_sweep_csv, motzkin_form, reproduce_table1, save_density_csv, save_sweep_csv, sweep
from .moments import MomentOracle, ball_constant, interval_moment, surface_area
from .orthopoly import JacobiParams, QuadratureRule, TridiagonalMatrix, gauss_rule, \
    jacobi_matrix, smallest_root
from .polynomials import ParseError, Polynomial, parse_poly
from .sampling import sphere_points

__version__ = "0.1.0"

__all__ = [
    "BasisSpec", "BoundResult", "CertificationError", "ConditioningError",
    "Density", "JacobiParams", "MomentOracle", "MOTZKIN_TEXT", "ParseError",
    "Pencil", "Polynomial", "QuadratureRule", "RateFit", "SweepRecord",
    "TABLE1_REFERENCE", "TridiagonalMatrix", "ball_constant", "build_pencil",
    "circle_rule", "cubature_lower_bound", "density_grid", "extract_density",
    "fit_rate", "gauss_rule", "grid_local_maxima", "interval_moment",
    "jacobi_matrix", "load_sweep_csv", "max_exactness_error", "moment_matrix",
    "motzkin_form", "parse_poly", "rational_upper_bound", "reproduce_table1",
    "save_density_csv", "save_rule_csv", "save_sweep_csv", "smallest_root",
    "sphere_basis", "sphere_points", "sphere_product_rule", "surface_area",
    "sweep", "upper_bound",
]
