"""Experiment harness: level sweeps, rate fits, and reference reproductions.

The sweep and density CSV exports live here next to the routines that
produce them; the rule CSV export, save_rule_csv, lives in cubature.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bounds import level_bounds, upper_bound  # noqa: F401 (kept for wrappers by name)
from .cubature import cubature_lower_bound
from .polynomials import parse_poly

# benchmark objective: nonnegative degree-6 form with minimum 0 on the sphere
MOTZKIN_TEXT = "x3^6 + x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2*x3^2"

# published reference bounds for the Motzkin form at levels 0..9 (4 decimals)
TABLE1_REFERENCE = (0.1714, 0.0952, 0.0519, 0.0457, 0.0287,
                    0.0283, 0.0193, 0.0177, 0.0139, 0.0122)
TABLE1_TOLERANCE = 5e-4


def motzkin_form():
    return parse_poly(MOTZKIN_TEXT, 3)


@dataclass(frozen=True)
class SweepRecord:
    r: int
    bound: float
    lower_certificate: float | None
    basis_size: int
    runtime_ms: float


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_range: tuple
    residual: float


def sweep(f, n, r_lo, r_hi, certificates=True, dps=None):
    """Upper bounds (and cubature certificates) for each level in r_lo..r_hi.

    The bounds come from level_bounds: level r_hi's runtime_ms carries the
    shared assembly and its eigensolve, which factors B once per block (with
    dps, dpotrf factors B and the extended-precision reduction follows),
    level r_hi - 1's the dsygst, and each level's its own norm and dpocon
    estimate of B from the leading block of that one factor, its own solves
    (of the blocks that can still win it) and its own certificate, skipped
    when its rule would exceed cubature_lower_bound's budget.
    """
    records = []
    for res, seconds in level_bounds(f, n, r_lo, r_hi, dps=dps):
        start = time.perf_counter()
        lower = None
        if certificates:
            try:
                lower = cubature_lower_bound(f, n, res.r)
            except ValueError:
                lower = None
        elapsed = (seconds + time.perf_counter() - start) * 1000.0
        records.append(SweepRecord(r=res.r, bound=res.value, lower_certificate=lower,
                                   basis_size=len(res.basis), runtime_ms=elapsed))
    return records


def fit_rate(records, f_ref, r_window=None):
    """Least-squares slope of log(bound - f_ref) against log r.

    Only records with a positive gap enter the fit.  By default the window
    is the upper half of the sweep (asymptotic statements; early levels
    pollute the slope); pass r_window=(lo, hi) to override.

    At finite r this slope is biased toward zero for gaps of the form
    C / (r + s)^2: their local slope against log r is -2r/(r + s), not -2.
    For f = x_n the shift is about n/2, and over r = 10..16 the slope reads
    -1.78, -1.72 and -1.66 for n = 3, 4, 5, although the exact rate is
    Theta(1/r^2).  Fit log(gap) against log(r + s) to recover the exponent.
    """
    recs = [rec for rec in records if rec.bound - f_ref > 0.0]
    if r_window is None:
        rs = [rec.r for rec in records]
        cut = 0.5 * (min(rs) + max(rs))
        recs = [rec for rec in recs if rec.r >= cut]
    else:
        lo, hi = r_window
        recs = [rec for rec in recs if lo <= rec.r <= hi]
    if len(recs) < 4:
        raise ValueError(f"need at least 4 usable records, have {len(recs)}")
    if any(rec.r < 1 for rec in recs):
        raise ValueError("rate fits need levels r >= 1")
    x = np.log([rec.r for rec in recs])
    y = np.log([rec.bound - f_ref for rec in recs])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_range=(min(rec.r for rec in recs), max(rec.r for rec in recs)),
                   residual=float(np.sqrt(np.mean(resid ** 2))))


def reproduce_table1(tol=TABLE1_TOLERANCE):
    """Recompute the published Motzkin bounds for levels 0..9.

    Returns (records, diffs, ok) where diffs[r] = computed - reference and
    ok means every deviation is within tol.
    """
    records = sweep(motzkin_form(), 3, 0, len(TABLE1_REFERENCE) - 1,
                    certificates=False)
    diffs = [rec.bound - ref for rec, ref in zip(records, TABLE1_REFERENCE)]
    ok = all(abs(d) <= tol for d in diffs)
    return records, diffs, ok


def save_sweep_csv(records, fh):
    """Write sweep records as CSV, lossless: r,bound,lower_certificate,basis_size,runtime_ms."""
    fh.write("r,bound,lower_certificate,basis_size,runtime_ms\n")
    for rec in records:
        lower = "" if rec.lower_certificate is None else rec.lower_certificate
        fh.write(f"{rec.r},{rec.bound},{lower},{rec.basis_size},{rec.runtime_ms}\n")


def load_sweep_csv(fh):
    """Read back a sweep CSV written by save_sweep_csv; a malformed row raises
    ValueError naming its 1-based line, and the column of a bad number."""
    header = fh.readline().strip()
    if header != "r,bound,lower_certificate,basis_size,runtime_ms":
        raise ValueError(f"unexpected sweep CSV header: {header!r}")
    records = []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 5:
            raise ValueError(f"sweep CSV line {lineno}: expected 5 fields, got {len(fields)}")
        row = {}
        # the columns are SweepRecord's fields, in order
        for column, text, kind in zip(header.split(","), fields, (int, float, float, int, float)):
            try:
                row[column] = None if column == "lower_certificate" and text == "" else kind(text)
            except ValueError as exc:
                raise ValueError(f"sweep CSV line {lineno}, column {column}: {exc}") from None
        records.append(SweepRecord(**row))
    return records


def save_density_csv(grid, fh):
    """Write a density grid as CSV, lossless: theta,phi,h (row-major, theta slowest)."""
    fh.write("theta,phi,h\n")
    for row in np.asarray(grid):
        fh.write(",".join(map(str, row)) + "\n")
