"""Sweeps, rate fits, and file exports."""

import io
import math
import re

import numpy as np
import pytest

from spherebound import (Polynomial, SweepRecord, cubature, density_grid, extract_density,
                         fit_rate, load_sweep_csv, motzkin_form, parse_poly, reproduce_table1,
                         save_density_csv, save_sweep_csv, sweep, upper_bound)
from spherebound.harness import TABLE1_REFERENCE


class TestFitRate:
    def test_synthetic_inverse_square_model(self):
        records = [SweepRecord(r=r, bound=3.7 / r ** 2, lower_certificate=None,
                               basis_size=0, runtime_ms=0.0)
                   for r in range(4, 17)]
        fit = fit_rate(records, 0.0)
        assert abs(fit.slope + 2.0) <= 1e-9
        assert fit.residual <= 1e-12

    def test_default_window_is_upper_half(self):
        records = [SweepRecord(r=r, bound=1.0 / r, lower_certificate=None,
                               basis_size=0, runtime_ms=0.0)
                   for r in range(4, 17)]
        fit = fit_rate(records, 0.0)
        assert fit.r_range == (10, 16)

    def test_explicit_window(self):
        records = [SweepRecord(r=r, bound=1.0 / r, lower_certificate=None,
                               basis_size=0, runtime_ms=0.0)
                   for r in range(1, 21)]
        fit = fit_rate(records, 0.0, r_window=(5, 12))
        assert fit.r_range == (5, 12)

    def test_nonpositive_gaps_are_dropped(self):
        records = [SweepRecord(r=r, bound=1.0 / r ** 2, lower_certificate=None,
                               basis_size=0, runtime_ms=0.0)
                   for r in range(1, 13)]
        records.append(SweepRecord(r=13, bound=0.0, lower_certificate=None,
                                   basis_size=0, runtime_ms=0.0))
        fit = fit_rate(records, 0.0, r_window=(1, 13))
        assert fit.r_range[1] == 12

    def test_sweep_rejects_non_integral_levels_and_low_dps(self):
        f = parse_poly("x3", 3)
        for n, lo, hi in ((3, 2, 3.5), (3, 2.0, 3), (3.9, 2, 3), (3, -1, 2)):
            with pytest.raises(ValueError):
                sweep(f, n, lo, hi, certificates=False)
        with pytest.raises(ValueError, match="at least 16"):
            sweep(f, 3, 2, 3, certificates=False, dps=3)

    def test_insufficient_records(self):
        records = [SweepRecord(r=r, bound=1.0 / r, lower_certificate=None,
                               basis_size=0, runtime_ms=0.0) for r in (1, 2, 3)]
        with pytest.raises(ValueError):
            fit_rate(records, 0.0, r_window=(1, 3))

    def test_window_with_level_zero_rejected(self):
        records = [SweepRecord(r=r, bound=1.0 / (r + 1) ** 2, lower_certificate=None,
                               basis_size=0, runtime_ms=0.0) for r in range(6)]
        with pytest.raises(ValueError, match=re.escape("rate fits need levels r >= 1")):
            fit_rate(records, 0.0, r_window=(0, 5))

    def test_linear_objective_rate_on_two_sphere(self):
        records = sweep(parse_poly("x3", 3), 3, 4, 16, certificates=False)
        fit = fit_rate(records, -1.0)
        assert -2.3 <= fit.slope <= -1.7

    def test_motzkin_desk_scale_slope(self):
        records = sweep(motzkin_form(), 3, 4, 9, certificates=False)
        fit = fit_rate(records, 0.0, r_window=(4, 9))
        assert fit.slope < -0.5


class TestSweep:
    def test_constant_objective(self):
        records = sweep(Polynomial.constant(3, 2.5), 3, 0, 4, certificates=False)
        assert [rec.bound for rec in records] == [2.5] * 5

    def test_records_are_monotone_with_certificates(self):
        records = sweep(parse_poly("x1", 2), 2, 1, 8)
        for a, b in zip(records, records[1:]):
            assert b.bound <= a.bound + 1e-10
        for rec in records:
            assert rec.lower_certificate is not None
            assert rec.lower_certificate <= rec.bound + 1e-7
            assert rec.basis_size == 2 * rec.r + 1

    def test_circle_records_inside_cosine_bracket(self):
        records = sweep(parse_poly("x1", 2), 2, 1, 12)
        for rec in records:
            r = rec.r
            assert -math.cos(math.pi / (2 * r + 2)) - 1e-10 <= rec.bound
            assert rec.bound <= -math.cos(math.pi / (2 * r + 1)) + 1e-10

    def test_certificate_over_the_node_budget_is_left_out(self, monkeypatch):
        # x3's certificates on S^2 take rules of 8, 18 and 32 nodes at
        # r = 1..3, so a budget of 10 leaves only the r = 1 certificate
        monkeypatch.setattr(cubature, "NODE_BUDGET", 10)
        f = parse_poly("x3", 3)
        records = sweep(f, 3, 1, 3)
        assert [rec.lower_certificate is None for rec in records] == [False, True, True]
        assert records[0].lower_certificate <= records[0].bound
        assert [rec.bound for rec in records] == \
               [rec.bound for rec in sweep(f, 3, 1, 3, certificates=False)]

    def test_table_reproduction(self):
        records, diffs, ok = reproduce_table1()
        assert ok
        assert len(records) == 10
        assert max(abs(d) for d in diffs) <= 5e-4
        assert [rec.r for rec in records] == list(range(10))
        assert all(rec.basis_size <= 100 for rec in records)

    def test_reference_row_values(self):
        assert TABLE1_REFERENCE == (0.1714, 0.0952, 0.0519, 0.0457, 0.0287,
                                    0.0283, 0.0193, 0.0177, 0.0139, 0.0122)


class TestCsv:
    def _records(self):
        return sweep(parse_poly("x1", 2), 2, 1, 6)

    def test_round_trip_is_bit_identical(self):
        records = self._records()
        buf = io.StringIO()
        save_sweep_csv(records, buf)
        back = load_sweep_csv(io.StringIO(buf.getvalue()))
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.r == b.r and a.basis_size == b.basis_size
            assert a.bound == b.bound
            assert a.lower_certificate == b.lower_certificate
            assert a.runtime_ms == b.runtime_ms

    def test_density_round_trip_is_bit_identical(self):
        res = upper_bound(motzkin_form(), 3, 3)
        grid = density_grid(extract_density(res), 3, 20)
        buf = io.StringIO()
        save_density_csv(grid, buf)
        header, *rows = buf.getvalue().splitlines()
        assert header == "theta,phi,h"
        back = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert back.tobytes() == grid.tobytes()

    def test_header_and_missing_certificates(self):
        records = sweep(motzkin_form(), 3, 0, 2, certificates=False)
        buf = io.StringIO()
        save_sweep_csv(records, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "r,bound,lower_certificate,basis_size,runtime_ms"
        assert len(lines) == 4
        back = load_sweep_csv(io.StringIO(buf.getvalue()))
        assert all(rec.lower_certificate is None for rec in back)

    def test_blank_lines_are_skipped(self):
        buf = io.StringIO()
        save_sweep_csv(self._records(), buf)
        header, *rows = buf.getvalue().splitlines()
        spaced = "\n".join([header, "", rows[0], "  ", *rows[1:], "", ""])
        assert load_sweep_csv(io.StringIO(spaced)) == load_sweep_csv(io.StringIO(buf.getvalue()))
        assert len(rows) == 6

    def test_header_validation(self):
        with pytest.raises(ValueError):
            load_sweep_csv(io.StringIO("r,bound\n1,0.5\n"))

    def test_malformed_rows_name_their_line(self):
        header = "r,bound,lower_certificate,basis_size,runtime_ms\n"
        cases = [("1,0.5,,3,1.0\n2,0.5,3\n", "sweep CSV line 3: expected 5 fields, got 3"),
                 ("1,abc,,3,1.0\n", "sweep CSV line 2, column bound: could not convert string "
                                    "to float: 'abc'"),
                 ("\n1,0.5,,x,1.0\n", "sweep CSV line 3, column basis_size: invalid literal")]
        for rows, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                load_sweep_csv(io.StringIO(header + rows))

    def test_reruns_are_deterministic(self):
        a = self._records()
        b = self._records()
        for x, y in zip(a, b):
            # runtime is wall clock; every computed field must match exactly
            assert (x.r, x.bound, x.lower_certificate, x.basis_size) == \
                   (y.r, y.bound, y.lower_certificate, y.basis_size)
