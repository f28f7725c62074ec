"""Upper bounds from the moment pencil, densities, and rational objectives."""

import functools
import itertools
import math
import re
import time
import tracemalloc

from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_poly
from spherebound import bounds, cubature, harness
from spherebound import (CertificationError, ConditioningError, JacobiParams, MomentOracle,
                         Polynomial, ball_constant, build_pencil, circle_rule,
                         cubature_lower_bound, density_grid, extract_density, gauss_rule,
                         grid_local_maxima, interval_moment, jacobi_matrix, moment_matrix,
                         motzkin_form, parse_poly, rational_upper_bound, smallest_root,
                         sphere_basis, sphere_points, sphere_product_rule, surface_area, sweep,
                         upper_bound)
from spherebound.bounds import level_bounds
from spherebound.cubature import select_rule_degree

S3 = 1.0 / math.sqrt(3.0)


def _unit(n):
    """Terms of the constant polynomial 1, whose localized matrix is B."""
    return {(0,) * n: 1.0}


class TestUpperBound:
    def test_level_zero_is_the_mean(self):
        res = upper_bound(motzkin_form(), 3, 0)
        assert abs(res.value - 6.0 / 35) <= 1e-12
        assert res.basis.elements == ((0, 0, 0),)

    def test_motzkin_reference_level(self):
        res = upper_bound(motzkin_form(), 3, 3)
        assert abs(res.value - 0.0457) <= 5e-4
        # frozen regression value for this exact configuration
        assert_allclose(res.value, 0.045718588474306356, rtol=1e-9)

    def test_monotone_in_level(self):
        rng = np.random.default_rng(23)
        polys = [motzkin_form(), random_poly(3, 4, rng), random_poly(3, 3, rng)]
        for f in polys:
            prev = math.inf
            for r in range(0, 9):
                val = upper_bound(f, 3, r).value
                assert val <= prev + 1e-10
                prev = val

    def test_sound_against_sampled_minimum(self):
        rng = np.random.default_rng(29)
        X = sphere_points(100_000, 3, seed=13)
        for _ in range(4):
            f = random_poly(3, 4, rng)
            sampled = float(f.eval_many(X).min())
            for r in (2, 5):
                assert upper_bound(f, 3, r).value >= sampled - 1e-9

    def test_translation_and_scaling_equivariance(self):
        rng = np.random.default_rng(31)
        f = random_poly(3, 4, rng)
        r = 3
        base = upper_bound(f, 3, r).value
        shifted = upper_bound(f + Polynomial.constant(3, -1.3), 3, r).value
        assert abs(shifted - (base - 1.3)) <= 1e-10
        scaled = upper_bound(2.7 * f, 3, r).value
        assert abs(scaled - 2.7 * base) <= 1e-10

    def test_orthogonal_invariance_of_linear_objectives(self):
        rng = np.random.default_rng(37)
        r = 4
        ref = upper_bound(parse_poly("x1", 3), 3, r).value
        for _ in range(20):
            c = rng.standard_normal(3)
            c /= np.linalg.norm(c)
            f = Polynomial(3, {(1, 0, 0): c[0], (0, 1, 0): c[1], (0, 0, 1): c[2]})
            assert abs(upper_bound(f, 3, r).value - ref) <= 1e-8

    def test_eigenvector_normalization_and_value_identity(self):
        for f, n, r in [(motzkin_form(), 3, 3), (parse_poly("x1", 2), 2, 5),
                        (parse_poly("x1^2 - x2*x3", 3), 3, 4)]:
            res = upper_bound(f, n, r)
            pen = build_pencil(f, res.basis)
            c = res.coeffs
            assert abs(c @ pen.B @ c - 1.0) <= 1e-10
            assert abs(c @ pen.A @ c - res.value) <= 1e-10

    def test_sign_canonicalization(self):
        res = upper_bound(motzkin_form(), 3, 3)
        assert res.coeffs[np.argmax(np.abs(res.coeffs))] > 0

    def test_blockwise_solver_matches_dense_pencil(self):
        rng = np.random.default_rng(41)
        for f in [motzkin_form(), random_poly(3, 3, rng)]:
            res = upper_bound(f, 3, 4)
            pen = build_pencil(f, res.basis)
            w = scipy.linalg.eigh(pen.A, pen.B, eigvals_only=True,
                                  subset_by_index=[0, 0])
            assert abs(res.value - w[0]) <= 1e-10

    def test_constant_objective(self):
        res = upper_bound(Polynomial.constant(3, 4.5), 3, 2)
        assert res.value == 4.5
        assert res.degenerate
        c = res.coeffs
        assert c[0] == 1.0 and np.all(c[1:] == 0.0)
        # constants honour dps: at r = 24 the float Gram matrix is
        # indefinite, so only the call with dps set succeeds
        for f, value in [(Polynomial.constant(2, 1.0), 1.0), (Polynomial(2, {}), 0.0)]:
            with pytest.raises(ConditioningError):
                upper_bound(f, 2, 24)
            res = upper_bound(f, 2, 24, dps=60)
            assert res.value == value
            assert res.degenerate
            assert res.coeffs[0] == 1.0 and np.all(res.coeffs[1:] == 0.0)
            assert res.condition_number == math.inf and res.condition_warning

    def test_constant_objective_solves_no_block(self, monkeypatch):
        # the pencil c*B = lambda*B is not solved, in float64 or with dps;
        # B is still factored for the condition number
        expected = upper_bound(Polynomial.constant(3, 1.0), 3, 8)

        def fail(*args, **kwargs):
            raise AssertionError("a constant objective needs no block solve")

        monkeypatch.setattr(bounds, "_reduce_hp", fail)
        monkeypatch.setattr(bounds, "_smallest_hp", fail)
        monkeypatch.setattr(bounds, "_solve_block", fail)
        res = upper_bound(Polynomial.constant(3, 1.0), 3, 8, dps=30)
        assert res.value == expected.value == 1.0
        assert np.array_equal(res.coeffs, expected.coeffs)
        assert res.coeffs[0] == 1.0 and np.all(res.coeffs[1:] == 0.0)
        assert res.condition_number == expected.condition_number
        assert res.condition_warning == expected.condition_warning
        assert res.degenerate and expected.degenerate
        res = upper_bound(Polynomial.constant(2, 1.0), 2, 24, dps=60)
        assert res.value == 1.0 and res.degenerate
        assert res.coeffs[0] == 1.0 and np.all(res.coeffs[1:] == 0.0)
        assert res.condition_number == math.inf and res.condition_warning

    def test_one_factorization_and_one_pencil_call_per_block(self, monkeypatch):
        # B is factored once for the condition estimate; no spectrum of B alone
        calls = {"dpotrf": 0, "pencil": 0, "single": 0}
        dpotrf, eigh = bounds.dpotrf, scipy.linalg.eigh

        def counting_dpotrf(*args, **kwargs):
            calls["dpotrf"] += 1
            return dpotrf(*args, **kwargs)

        def counting_eigh(a, b=None, *args, **kwargs):
            calls["single" if b is None else "pencil"] += 1
            return eigh(a, b, *args, **kwargs)

        monkeypatch.setattr(bounds, "dpotrf", counting_dpotrf)
        monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
        f = motzkin_form()
        res = upper_bound(f, 3, 6)
        comps, keys = bounds._parity_components(
            res.basis.elements, list(f.terms) + [(0, 0, 0)],
            bounds._symmetry_classes(3, [f.terms, _unit(3)]))
        # x1 <-> x2 maps the blocks of parities (1, 0, *) and (0, 1, *) onto each other
        blocks = len(set(keys))
        assert 1 < blocks < len(comps)
        assert calls == {"dpotrf": blocks, "pencil": blocks, "single": 0}

    def test_eigensolve_failure_passes_on_scipy_message(self, monkeypatch):
        def failing(a, b=None, *args, **kwargs):
            raise scipy.linalg.LinAlgError("the eigenvectors failed to converge")

        monkeypatch.setattr(scipy.linalg, "eigh", failing)
        with pytest.raises(ConditioningError, match="failed to converge") as info:
            upper_bound(parse_poly("x1", 2), 2, 3)
        assert "Cholesky" not in str(info.value)

    def test_input_validation(self):
        f = parse_poly("x1", 2)
        with pytest.raises(ValueError):
            upper_bound(f, 1, 2)
        with pytest.raises(ValueError):
            upper_bound(f, 2, -1)
        with pytest.raises(ValueError):
            upper_bound(f, 3, 2)
        # below float64 precision, or not an integer: the floor is named
        for dps in (0, -5, 3, 15, 16.0, 30.5, "30"):
            with pytest.raises(ValueError, match="dps .* at least 16"):
                upper_bound(f, 2, 2, dps=dps)
        assert abs(upper_bound(f, 2, 2, dps=16).value + math.cos(math.pi / 6)) <= 1e-12
        assert upper_bound(f, 2, 2, dps=np.int64(20)).value == upper_bound(f, 2, 2, dps=20).value
        # dimensions and levels are integers, never truncated
        for n, r, name in ((2, 2.5, "level"), (2.9, 2, "dimension"), (2.0, 2, "dimension"),
                           (2, 2.0, "level"), ("2", 2, "dimension")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                upper_bound(f, n, r)
        assert upper_bound(f, np.int64(2), np.int32(2)).value == upper_bound(f, 2, 2).value

    def test_json_payload(self):
        res = upper_bound(motzkin_form(), 3, 2)
        payload = res.to_json_dict()
        assert set(payload) == {"n", "r", "value", "basis_size", "condition_number",
                                "condition_warning", "degenerate", "coeffs"}
        assert payload["n"] == 3 and payload["r"] == 2
        assert payload["basis_size"] == len(res.basis)
        assert len(payload["coeffs"]) == len(res.basis)
        assert payload["condition_number"] == res.condition_number
        assert payload["degenerate"] is res.degenerate


class TestCircleClosedForm:
    def test_low_levels_hit_extremal_chebyshev_root(self):
        f = parse_poly("x1", 2)
        for r in range(1, 13):
            got = upper_bound(f, 2, r).value
            assert abs(got + math.cos(math.pi / (2 * r + 2))) <= 1e-10

    def test_cosine_bracket(self):
        f = parse_poly("x1", 2)
        for r in range(1, 13):
            v = upper_bound(f, 2, r).value
            assert -math.cos(math.pi / (2 * r + 2)) - 1e-10 <= v
            assert v <= -math.cos(math.pi / (2 * r + 1)) + 1e-10

    def test_conditioning_warning_raised_at_high_level(self):
        f = parse_poly("x1", 2)
        assert not upper_bound(f, 2, 12).condition_warning
        assert upper_bound(f, 2, 20).condition_warning

    def test_float_breakdown_levels(self):
        # float64 Cholesky of the Gram matrix first fails at r = 21 on S^1 and S^2
        for f, n, fails in [(parse_poly("x1", 2), 2, (21, 22, 23, 24)),
                            (Polynomial.variable(3, 3), 3, (21, 22, 24))]:
            assert math.isfinite(upper_bound(f, n, 20).condition_number)
            for r in fails:
                with pytest.raises(ConditioningError,
                                   match=r"(\d+)x\1 block failed at leading minor "
                                         r"\d+; retry with dps set"):
                    upper_bound(f, n, r)

    def test_gram_breakdown_reported_and_rescued(self):
        f = parse_poly("x1", 2)
        with pytest.raises(ConditioningError):
            upper_bound(f, 2, 24)
        res = upper_bound(f, 2, 24, dps=60)
        assert abs(res.value + math.cos(math.pi / 50)) <= 1e-12
        # the float Gram matrix is indefinite: no finite condition number
        assert res.condition_number == math.inf
        assert res.to_json_dict()["condition_number"] is None

    def test_high_precision_agrees_with_float_at_low_level(self):
        f = parse_poly("x1", 2)
        a = upper_bound(f, 2, 6).value
        b = upper_bound(f, 2, 6, dps=50).value
        assert abs(a - b) <= 1e-12


class TestDensity:
    def test_level_zero_density_is_constant_one(self):
        den = extract_density(upper_bound(motzkin_form(), 3, 0))
        assert den.h == Polynomial.constant(3, 1.0)

    def test_normalization_and_consistency(self):
        o = MomentOracle(3)
        f = motzkin_form()
        for r in (2, 3, 5, 9):
            res = upper_bound(f, 3, r)
            den = extract_density(res)
            assert abs(o.integrate(den.h) - 1.0) <= 1e-10
            assert abs(o.integrate(den.h * f) - res.value) <= 1e-9

    def test_square_is_nonnegative_on_grid(self):
        den = extract_density(upper_bound(motzkin_form(), 3, 5))
        grid = density_grid(den, 3, resolution=60)
        assert grid[:, 2].min() >= -1e-10

    def test_grid_shape_and_periodicity(self):
        den = extract_density(upper_bound(motzkin_form(), 3, 4))
        res = 40
        grid = density_grid(den, 3, resolution=res)
        assert grid.shape == ((res + 1) ** 2, 3)
        H = grid[:, 2].reshape(res + 1, res + 1)
        assert np.max(np.abs(H[:, 0] - H[:, -1])) <= 1e-12
        assert grid[:, 0].min() == 0.0 and grid[:, 0].max() == pytest.approx(math.pi)

    def test_grid_is_square_of_eval_many(self):
        den = extract_density(upper_bound(motzkin_form(), 3, 6))
        res = 50
        grid = density_grid(den, 3, resolution=res)
        T, P = np.meshgrid(np.linspace(0.0, np.pi, res + 1),
                           np.linspace(0.0, 2.0 * np.pi, res + 1), indexing="ij")
        t, p = T.ravel(), P.ravel()
        X = np.column_stack([np.sin(t) * np.sin(p), np.sin(t) * np.cos(p), np.cos(t)])
        g = Polynomial(3, dict(zip(den.basis.elements, den.coeffs)))
        assert np.array_equal(grid[:, 0], t) and np.array_equal(grid[:, 1], p)
        assert np.array_equal(grid[:, 2], g.eval_many(X) ** 2)

    def test_constant_density_grid(self):
        den = extract_density(upper_bound(Polynomial.constant(3, 2.0), 3, 0))
        grid = density_grid(den, 3, resolution=10)
        assert_allclose(grid[:, 2], 1.0, rtol=0, atol=1e-15)

    def test_grid_dimension_guard(self):
        den = extract_density(upper_bound(parse_poly("x1", 2), 2, 2))
        with pytest.raises(ValueError):
            density_grid(den, 2, resolution=10)

    def test_grid_budget_refused_before_any_array(self, monkeypatch):
        # 100,001^2 points at about 80 B each would ask for 800 GB
        den = extract_density(upper_bound(parse_poly("x3", 3), 3, 1))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="over the budget"):
                density_grid(den, 3, resolution=100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        # the budget counts the (resolution + 1)^2 grid points
        monkeypatch.setattr(cubature, "NODE_BUDGET", 121)
        assert density_grid(den, 3, resolution=10).shape == (121, 3)
        with pytest.raises(ValueError, match="needs 144 points"):
            density_grid(den, 3, resolution=11)

    def test_wrong_size_grid_named_before_reshape(self):
        grid = density_grid(_motzkin_grid_density(), 3, 3)
        assert np.array_equal(grid_local_maxima(grid, 3), _grid_local_maxima_reference(grid, 3))
        for bad in (grid[:9], grid.ravel()[:27], grid[:, :2]):
            with pytest.raises(ValueError, match=r"resolution 3 must have 16 rows of 3 columns, "
                                                 rf"got shape \({len(bad)},"):
                grid_local_maxima(bad, 3)

    def test_mode_structure_flips_between_levels(self):
        f = motzkin_form()
        den3 = extract_density(upper_bound(f, 3, 3))
        den9 = extract_density(upper_bound(f, 3, 9))
        eq, diag = (1.0, 0.0, 0.0), (S3, S3, S3)
        assert den3.h.evaluate(eq) > den3.h.evaluate(diag)
        assert den9.h.evaluate(eq) < den9.h.evaluate(diag)

    def test_high_level_maxima_cover_cube_diagonals(self):
        f = motzkin_form()
        den = extract_density(upper_bound(f, 3, 9))
        res = 100
        grid = density_grid(den, 3, resolution=res)
        maxima = grid_local_maxima(grid, res)
        assert len(maxima) > 0
        tops = _to_points(maxima)
        for sx in (1, -1):
            for sy in (1, -1):
                for sz in (1, -1):
                    target = np.array([sx, sy, sz]) * S3
                    angles = np.arccos(np.clip(tops @ target, -1, 1))
                    assert angles.min() <= 0.15

    def test_degeneracy_flags(self):
        f = motzkin_form()
        assert upper_bound(f, 3, 3).degenerate
        assert not upper_bound(f, 3, 9).degenerate

    def test_degenerate_winner_is_deterministic(self):
        # the level-3 minimum is a symmetric pair; the reported density must
        # come from the block holding the earliest basis element
        f = motzkin_form()
        res = upper_bound(f, 3, 3)
        active = {a for a, c in zip(res.basis.elements, res.coeffs) if c != 0.0}
        assert all(a[0] % 2 == 1 for a in active)


def _to_points(maxima):
    t = np.asarray(maxima)[:, 0]
    p = np.asarray(maxima)[:, 1]
    return np.column_stack([np.sin(t) * np.sin(p), np.sin(t) * np.cos(p),
                            np.cos(t)])


# (a, b) for the constant objective a / b
_QUOTIENTS = [(3.0, 2.0), (1.0, 3.0), (-1.25, 4.0), (0.0, 2.0)]


class TestRational:
    def test_unit_denominator_matches_polynomial_bound(self):
        # the plain bound is the q = 1 case of the same solver, bit for bit
        f = motzkin_form()
        one = Polynomial.constant(3, 1.0)
        cases = [(r, None) for r in range(0, 6)] + [(r, 30) for r in range(0, 4)]
        for r, dps in cases:
            a = rational_upper_bound(f, one, 3, r, dps=dps)
            b = upper_bound(f, 3, r, dps=dps)
            assert a.value == b.value
            assert np.array_equal(a.coeffs, b.coeffs)
            assert a.condition_number == b.condition_number

    @pytest.mark.parametrize("f, n, r, dps", [
        *((Polynomial.constant(n, c), n, r, dps) for c in (4.5, -1.25, 0.0) for n in (2, 3, 4)
          for r in (2, 5) for dps in (None, 30)),
        (Polynomial.constant(2, 1.0), 2, 24, 30),
        *((motzkin_form(), 3, r, None) for r in range(6)),
        *((parse_poly("x1", 2), 2, r, None) for r in range(9)),
    ])
    def test_unit_denominator_is_the_plain_bound_in_every_field(self, f, n, r, dps):
        # a constant numerator over q = 1 takes the constant path, as upper_bound does
        a = rational_upper_bound(f, Polynomial.constant(n, 1.0), n, r, dps=dps)
        b = upper_bound(f, n, r, dps=dps)
        assert repr(a.value) == repr(b.value)
        assert a.coeffs.tobytes() == b.coeffs.tobytes()
        assert repr(a.condition_number) == repr(b.condition_number)
        assert (a.condition_warning, a.degenerate) == (b.condition_warning, b.degenerate)
        assert a.basis == b.basis

    @pytest.mark.parametrize("a, b, n, r, dps", [
        *((a, b, n, r, dps) for a, b in _QUOTIENTS for n in (2, 3, 4)
          for r, dps in [(0, None), (2, None), (5, None), (12, None), (2, 30), (5, 30)]),
        *((a, b, 2, 24, 30) for a, b in _QUOTIENTS),
    ])
    def test_constant_over_constant_is_the_quotient_rounded_up(self, a, b, n, r, dps):
        # every density gives a/b, so the bound is the least float not below it
        res = rational_upper_bound(Polynomial.constant(n, a), Polynomial.constant(n, b), n, r,
                                   dps=dps)
        exact = Fraction(a) / Fraction(b)
        assert Fraction(res.value) >= exact > Fraction(math.nextafter(res.value, -math.inf))
        expect = np.zeros(len(res.basis))
        expect[0] = b ** -0.5
        assert res.coeffs.tobytes() == expect.tobytes()
        assert res.degenerate == (len(res.basis) > 1)

    def test_unsettled_solve_is_not_a_denominator_failure(self):
        # q = 2 + x1 > 0 and A_q factors; only the dps iteration fails to settle
        q = parse_poly("2 + x1", 2)
        with pytest.raises(ConditioningError) as info:
            rational_upper_bound(q, q, 2, 20, dps=30)
        assert "not certified positive" not in str(info.value)

    def test_equal_numerator_denominator_is_one(self):
        q = parse_poly("2 + x1", 2)
        res = rational_upper_bound(q, q, 2, 3)
        assert abs(res.value - 1.0) <= 1e-12

    def test_moebius_objective_converges_from_above(self):
        p = parse_poly("x1", 2)
        q = parse_poly("2 + x1", 2)
        prev = math.inf
        for r in range(0, 13):
            val = rational_upper_bound(p, q, 2, r).value
            assert val <= prev + 1e-10
            assert val >= -1.0 - 1e-9
            prev = val
        assert abs(prev - (-1.0)) <= 0.05

    def test_bound_dominates_sampled_ratio_minimum(self):
        p = parse_poly("x1 + x2^2", 3)
        q = parse_poly("3 + x3", 3)
        X = sphere_points(50_000, 3, seed=19)
        sampled = float(np.min(p.eval_many(X) / q.eval_many(X)))
        for r in (1, 3, 5):
            assert rational_upper_bound(p, q, 3, r).value >= sampled - 1e-9

    def test_sign_changing_denominator_rejected(self):
        with pytest.raises(CertificationError):
            rational_upper_bound(parse_poly("x1", 2), parse_poly("x1", 2), 2, 2)

    def test_indefinite_denominator_matrix_rejected(self, monkeypatch):
        # q = x1 passes a sample that lies where x1 > 0, but A_q is indefinite
        monkeypatch.setattr(bounds, "_positivity_sample", lambda n: np.tile([1.0, 0.0], (16, 1)))
        x1 = parse_poly("x1", 2)
        for dps in (None, 30):
            with pytest.raises(CertificationError, match="not certified positive") as info:
                rational_upper_bound(x1, x1, 2, 2, dps=dps)
            assert "sampled value" not in str(info.value)

    def test_positivity_sample_drawn_once_per_dimension(self, monkeypatch):
        draw = bounds._positivity_sample.__wrapped__
        calls = []

        def counting(n):
            calls.append(n)
            return draw(n)

        monkeypatch.setattr(bounds, "_positivity_sample", functools.cache(counting))
        p, q = parse_poly("x1", 2), parse_poly("2 + x1", 2)
        first = rational_upper_bound(p, q, 2, 3)
        for r in (1, 2, 3):
            rational_upper_bound(p, q, 2, r)
        rational_upper_bound(parse_poly("x1", 3), parse_poly("2 + x3", 3), 3, 1)
        assert calls == [2, 3]
        assert rational_upper_bound(p, q, 2, 3).value == first.value
        for n in (2, 3):
            sample = bounds._positivity_sample(n)
            assert not sample.flags.writeable
            assert sample.shape == (16_384, n) == (bounds.POSITIVITY_POINTS, n)
            assert np.allclose(np.linalg.norm(sample, axis=1), 1.0, rtol=0.0, atol=1e-15)
            g = np.random.RandomState(11).standard_normal((16_384, n))
            assert np.array_equal(sample, g / np.linalg.norm(g, axis=1)[:, None])

    @pytest.mark.parametrize("n, degrees", [(3, 5), (4, 13), (5, 18), (6, 25)])
    def test_denominator_negative_on_a_polar_cap_rejected(self, n, degrees):
        # q = x_n + cos(theta) is negative on the cap of angular radius theta
        # around -e_n; theta is the covering radius of sphere_points(4096, n,
        # seed=11) rounded up, so no cap that sample catches is missed
        q = Polynomial(n, {(0,) * (n - 1) + (1,): 1.0, (0,) * n: math.cos(math.radians(degrees))})
        with pytest.raises(CertificationError, match="sampled value"):
            rational_upper_bound(Polynomial.constant(n, 1.0), q, n, 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(CertificationError):
            rational_upper_bound(parse_poly("x1", 2), Polynomial.zero(2), 2, 1)

    def test_nonpositive_dps_rejected(self):
        for dps in (0, -5, 3, 15, 20.0):
            with pytest.raises(ValueError, match="dps .* at least 16"):
                rational_upper_bound(parse_poly("x1", 2), parse_poly("2 + x1", 2),
                                     2, 2, dps=dps)
        for n, r, name in ((2, 2.5, "level"), (2.9, 2, "dimension")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                rational_upper_bound(parse_poly("x1", 2), parse_poly("2 + x1", 2), n, r)

    def test_assembles_only_the_localized_matrices(self, monkeypatch):
        # one float moment matrix for A_p and one for A_q in every block, no
        # Gram matrix; exactly, one for A_p and one for A_q as well
        p = parse_poly("x1", 2)
        q = parse_poly("2 + x1", 2)
        calls = {"float": 0, "exact": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bounds, "moment_matrix", counting("float", bounds.moment_matrix))
        monkeypatch.setattr(bounds, "gram_matrix_fraction",
                            counting("exact", bounds.gram_matrix_fraction))
        basis = sphere_basis(2, 3)
        blocks = len(bounds._parity_components(basis.elements, [(1, 0), (0, 0)])[0])
        expected = rational_upper_bound(p, q, 2, 3)
        assert calls == {"float": 2 * blocks, "exact": 0}
        calls["float"] = 0
        res = rational_upper_bound(p, q, 2, 3, dps=30)
        # the float A_q of each block gives the condition estimate
        assert calls == {"float": blocks, "exact": 2 * blocks}
        assert res.value == pytest.approx(expected.value, abs=1e-12)

    def test_json_payload_shape(self):
        res = rational_upper_bound(parse_poly("x1", 2), parse_poly("2 + x1", 2),
                                   2, 4)
        payload = res.to_json_dict()
        assert set(payload) == {"n", "r", "value", "basis_size", "condition_number",
                                "condition_warning", "degenerate", "coeffs"}


def _parity_components_reference(elements, shifts):
    """Reference block split: union-find over parity classes, then sorted."""
    class_ids = {}
    members = []
    for i, a in enumerate(elements):
        p = tuple(e & 1 for e in a)
        j = class_ids.setdefault(p, len(members))
        if j == len(members):
            members.append([])
        members[j].append(i)
    parent = list(range(len(members)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in shifts:
        gp = tuple(e & 1 for e in g)
        for p, j in class_ids.items():
            q = tuple((a + b) & 1 for a, b in zip(p, gp))
            k = class_ids.get(q)
            if k is not None:
                rj, rk = find(j), find(k)
                if rj != rk:
                    parent[rk] = rj
    groups = {}
    for j, idx in enumerate(members):
        groups.setdefault(find(j), []).extend(idx)
    comps = [np.array(sorted(g), dtype=np.intp) for g in groups.values()]
    comps.sort(key=lambda c: c[0])
    return comps


def _grid_local_maxima_reference(grid, resolution):
    """Reference maxima: rolled neighbors with inf padding, sorted as tuples."""
    resolution = int(resolution)
    H = np.asarray(grid)[:, 2].reshape(resolution + 1, resolution + 1)
    core = H[:, :resolution]
    strict = np.ones_like(core, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            shifted = np.roll(core, -dj, axis=1)
            if di == -1:
                neighbor = np.vstack([np.full((1, resolution), np.inf), shifted[:-1]])
            elif di == 1:
                neighbor = np.vstack([shifted[1:], np.full((1, resolution), np.inf)])
            else:
                neighbor = shifted
            strict &= core > neighbor
    strict[0, :] = False
    strict[resolution, :] = False
    out = []
    theta = np.asarray(grid)[:, 0].reshape(resolution + 1, resolution + 1)
    phi = np.asarray(grid)[:, 1].reshape(resolution + 1, resolution + 1)
    for i, j in zip(*np.nonzero(strict)):
        out.append((theta[i, j], phi[i, j], core[i, j]))
    out.sort(key=lambda row: -row[2])
    return np.array(out) if out else np.empty((0, 3))


def _orbit_firsts(comps, elements, term_sets, n):
    """For each block, the first block of its orbit under every permutation
    of x1..x_{n-1} that maps each term set onto itself, found by brute force
    over all (n-1)! permutations."""
    perms = [s + (n - 1,) for s in itertools.permutations(range(n - 1))]
    perms = [s for s in perms
             if all({tuple(a[k] for k in s): c for a, c in t.items()} == t for t in term_sets)]
    parities = [frozenset(tuple(e & 1 for e in elements[i]) for i in comp) for comp in comps]
    return [next(i for i, other in enumerate(parities)
                 if other in {frozenset(tuple(p[k] for k in s) for p in par) for s in perms})
            for par in parities]


def _solve_pencil_reference(num_terms, den_terms, basis, orbits=True):
    """Reference float solve: the full spectrum of each block of B for its
    2-norm condition, then eigh(A, B) on matrices it leaves untouched.  With
    orbits, a block after the first of its orbit (_orbit_firsts) repeats that
    block's eigenvalues unsolved; without, every block is solved.

    Returns (value, coeffs, degenerate, 2-norm condition of B).
    """
    n, E = basis.n, basis.exponent_array()
    comps, _ = bounds._parity_components(basis.elements, list(num_terms) + list(den_terms))
    firsts = (_orbit_firsts(comps, basis.elements, [num_terms, den_terms], n) if orbits
              else range(len(comps)))
    results = []
    bmin, bmax = np.inf, -np.inf
    for comp, first in zip(comps, firsts):
        if first < len(results):
            results.append((*results[first][:2], None, None))
            continue
        B = bounds.moment_matrix(E[comp], E[comp], n, terms=den_terms)
        bw = scipy.linalg.eigh(B, eigvals_only=True)
        assert bw[0] > 0.0
        A = bounds.moment_matrix(E[comp], E[comp], n, terms=num_terms)
        hi = min(1, len(B) - 1)
        w, V = scipy.linalg.eigh(A, B, subset_by_index=[0, hi])
        results.append((float(w[0]), float(w[1]) if hi else None, V[:, 0].copy(), comp))
        bmin = min(bmin, float(bw[0]))
        bmax = max(bmax, float(bw[-1]))
    value, coeffs, gap = bounds._pick_winner(results, len(basis))
    return value, coeffs, bool(gap < bounds.GAP_TOL), bmax / bmin


def _solve_block_hp_reference(Afrac, Bfrac, dps):
    """Reference extended-precision block solve: explicit loops for both
    substitutions, the symmetrization and the back-substitution, and the
    eigenvalues sorted after mp.eigsy."""
    import mpmath as mp

    m = len(Bfrac)
    with mp.workdps(dps):
        A = mp.matrix([[mp.mpf(x.numerator) / x.denominator for x in row] for row in Afrac])
        B = mp.matrix([[mp.mpf(x.numerator) / x.denominator for x in row] for row in Bfrac])
        L = mp.cholesky(B)
        Y = mp.matrix(m)
        for j in range(m):
            for i in range(m):
                s = A[i, j]
                for k in range(i):
                    s -= L[i, k] * Y[k, j]
                Y[i, j] = s / L[i, i]
        M = mp.matrix(m)
        for j in range(m):
            for i in range(m):
                s = Y[j, i]
                for k in range(i):
                    s -= L[i, k] * M[k, j]
                M[i, j] = s / L[i, i]
        for i in range(m):
            for j in range(i):
                avg = (M[i, j] + M[j, i]) / 2
                M[i, j] = avg
                M[j, i] = avg
        E, Q = mp.eigsy(M)
        order = sorted(range(m), key=lambda k: E[k])
        v = mp.matrix(m, 1)
        for i in range(m - 1, -1, -1):
            s = Q[i, order[0]]
            for k in range(i + 1, m):
                s -= L[k, i] * v[k]
            v[i] = s / L[i, i]
        return (float(E[order[0]]), float(E[order[1]]) if m > 1 else None,
                np.array([float(v[i]) for i in range(m)]))


def _smallest_hp_whole(Afrac, Bfrac, dps):
    """The extended-precision smallest eigenpair of the whole pencil (A, B)."""
    return bounds._smallest_hp(*bounds._reduce_hp(Afrac, Bfrac, dps), len(Bfrac), dps)


def _hp_outcome(L, M, k, dps):
    """_smallest_hp's (value, w1, vector bytes), or its ConditioningError's message."""
    try:
        w0, w1, vec = bounds._smallest_hp(L, M, k, dps)
    except ConditioningError as exc:
        return str(exc)
    return w0, w1, vec.tobytes()


HP_REFERENCE_CASES = [
    (Polynomial.variable(2, 1), None, 2, 6, 60),
    (motzkin_form(), None, 3, 2, 30),
    (parse_poly("x1", 2), parse_poly("2 + x1", 2), 2, 3, 40),
    (parse_poly("x3", 3), None, 3, 3, 40),
    (parse_poly("0.3*x1^2*x2 - 1.7*x2*x3 + 0.25*x3^2 + 2*x1", 3), None, 3, 2, 35),
]


REFERENCE_CASES = {
    "x5": [(Polynomial.variable(5, 5), None, 5, r) for r in range(4, 13)],
    "motzkin": [(motzkin_form(), None, 3, r) for r in range(0, 13)],
    "quartic6": [(Polynomial(6, {tuple(4 * (i == j) for i in range(6)): 1.0
                                 for j in range(6)}), None, 6, r) for r in range(0, 7)],
    "ratio": [(parse_poly("x1", 2), parse_poly("2 + x1", 2), 2, r) for r in range(1, 17)],
}


def _same_blocks(got, ref):
    return len(got) == len(ref) and all(
        g.dtype == r.dtype and np.array_equal(g, r) for g, r in zip(got, ref))


class TestAgainstReferences:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_parity_split_on_random_shifts(self, n):
        rng = np.random.default_rng(300 + n)
        joined = 0
        for r in range(0, 5):
            elements = sphere_basis(n, r).elements
            for _ in range(12):
                num = [tuple(int(v) for v in rng.integers(0, 3, size=n))
                       for _ in range(rng.integers(0, 4))]
                den = [tuple(int(v) for v in rng.integers(0, 2, size=n))
                       for _ in range(rng.integers(1, 3))]
                got, _ = bounds._parity_components(elements, num + den)
                assert _same_blocks(got, _parity_components_reference(elements, num + den))
                joined += len(got) < len({tuple(e & 1 for e in a) for a in elements})
        assert joined > 0

    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    def test_pencil_solve_matches_gram_spectrum_reference(self, name):
        for p, q, n, r in REFERENCE_CASES[name]:
            if q is None:
                res = upper_bound(p, n, r)
                den = _unit(n)
            else:
                res = rational_upper_bound(p, q, n, r)
                den = q.terms
            value, coeffs, degenerate, cond2 = _solve_pencil_reference(p.terms, den, res.basis)
            assert res.value == value
            assert np.array_equal(res.coeffs, coeffs)
            assert res.degenerate == degenerate
            # any 1-norm condition lies within a factor m of the 2-norm one
            m = len(res.basis)
            assert cond2 / m <= res.condition_number <= m * cond2
            if not res.condition_warning:
                # solving every block moves the minimum by rounding only
                every = _solve_pencil_reference(p.terms, den, res.basis, orbits=False)[0]
                assert abs(res.value - every) <= 1e-12 * (1.0 + abs(every))

    @pytest.mark.parametrize("p, q, n, r, dps", HP_REFERENCE_CASES)
    def test_hp_block_solve_matches_loop_reference(self, p, q, n, r, dps):
        den = _unit(n) if q is None else q.terms
        elements = sphere_basis(n, r).elements
        for comp in bounds._parity_components(elements, list(p.terms) + list(den))[0]:
            elems = [elements[i] for i in comp]
            Afrac = bounds.gram_matrix_fraction(elems, n, p.terms)
            Bfrac = bounds.gram_matrix_fraction(elems, n, den)
            w0, w1, vec = _smallest_hp_whole(Afrac, Bfrac, dps)
            ref0, ref1, ref_vec = _solve_block_hp_reference(Afrac, Bfrac, dps)
            # the value is exact to float64; w1 is the float64 guess, and
            # the eigenvector is fixed only up to sign and dps-level noise
            assert w0 == ref0
            if ref1 is None:
                assert w1 is None
            else:
                assert abs(w1 - ref1) <= 1e-14 * (1 + abs(ref1))
            sign = 1.0 if vec @ ref_vec >= 0 else -1.0
            tol = 10.0 ** -(dps // 2) * np.abs(ref_vec).max()
            assert np.abs(sign * vec - ref_vec).max() <= tol

    def test_parity_split_on_random_element_sets(self):
        # arbitrary exponent lists, out of order, leave many parity classes absent
        rng = np.random.default_rng(307)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            elements = [tuple(int(v) for v in row)
                        for row in rng.integers(0, 4, size=(int(rng.integers(0, 30)), n))]
            shifts = [tuple(int(v) for v in rng.integers(0, 2, size=n))
                      for _ in range(rng.integers(0, 4))]
            assert _same_blocks(bounds._parity_components(elements, shifts)[0],
                                _parity_components_reference(elements, shifts))

    @pytest.mark.parametrize("n, r", [(3, 7), (5, 16), (6, 9), (40, 1), (70, 2)])
    def test_parity_split_of_an_exponent_array_equals_tuples(self, n, r):
        # n = 40 and 70 take more than one 32-bit word of parities per row
        basis = sphere_basis(n, r)
        rng = np.random.default_rng(n + r)
        shifts = [tuple(int(v) for v in rng.integers(0, 3, size=n)) for _ in range(3)]
        for classes in (None, [list(range(n - 1))]):
            comps, keys = bounds._parity_components(basis.elements, shifts + [(0,) * n], classes)
            got, got_keys = bounds._parity_components(basis.exponent_array(),
                                                      shifts + [(0,) * n], classes)
            assert got_keys == keys
            assert _same_blocks(got, comps)
            assert _same_blocks(comps, _parity_components_reference(basis.elements,
                                                                    shifts + [(0,) * n]))

    def test_parity_split_through_absent_class(self):
        # classes joined only by a path through a parity class the basis lacks
        elements = sphere_basis(5, 2).elements
        shifts = [(1, 1, 1, 0, 0), (1, 1, 0, 1, 0)]
        got, _ = bounds._parity_components(elements, shifts)
        assert _same_blocks(got, _parity_components_reference(elements, shifts))

    @pytest.mark.parametrize("ties", [False, True])
    def test_grid_maxima_on_random_grids(self, ties):
        rng = np.random.default_rng(311 + ties)
        found = 0
        for res in range(1, 31):
            theta = np.linspace(0.0, np.pi, res + 1)
            phi = np.linspace(0.0, 2.0 * np.pi, res + 1)
            T, P = np.meshgrid(theta, phi, indexing="ij")
            size = (res + 1) ** 2
            h = rng.integers(0, 5, size=size).astype(float) if ties else rng.random(size)
            grid = np.column_stack([T.ravel(), P.ravel(), h])
            got = grid_local_maxima(grid, res)
            ref = _grid_local_maxima_reference(grid, res)
            assert got.shape == ref.shape and np.array_equal(got, ref)
            found += len(got)
        assert found > 0

    def test_grid_maxima_on_a_density(self):
        den = extract_density(upper_bound(motzkin_form(), 3, 9))
        for res in (1, 2, 7, 30):
            grid = density_grid(den, 3, resolution=res)
            assert np.array_equal(grid_local_maxima(grid, res),
                                  _grid_local_maxima_reference(grid, res))


_FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 9))


@st.composite
def _spd_pencils(draw):
    """Exact symmetric A and B = G G^T + I (so B >= I) of a random order 1..8."""
    m = draw(st.integers(1, 8))
    G = [[draw(_FRACTIONS) for _ in range(m)] for _ in range(m)]
    S = [[draw(_FRACTIONS) for _ in range(m)] for _ in range(m)]
    A = [[S[i][j] + S[j][i] for j in range(m)] for i in range(m)]
    B = [[sum((G[i][k] * G[j][k] for k in range(m)), Fraction(int(i == j)))
          for j in range(m)] for i in range(m)]
    return A, B


class TestExtendedPrecisionSolve:
    @settings(max_examples=60, deadline=None)
    @given(_spd_pencils(), st.sampled_from([20, 40, 60]))
    def test_smallest_pair_on_random_pencils(self, pencil, dps):
        Afrac, Bfrac = pencil
        w0, w1, vec = _smallest_hp_whole(Afrac, Bfrac, dps)
        ref0, ref1, _ = _solve_block_hp_reference(Afrac, Bfrac, dps)
        A = np.array(Afrac, dtype=float)
        B = np.array(Bfrac, dtype=float)
        scale = 1.0 + np.abs(A).max()
        if abs(ref0) > 10.0 ** (4 - dps) * scale:
            assert w0 == ref0
        else:
            # an exactly zero eigenvalue comes back as dps-level noise from
            # either solver, so only the noise level can be compared
            assert abs(w0 - ref0) <= 10.0 ** (4 - dps) * scale
        assert (w1 is None) == (ref1 is None)
        residual = np.linalg.norm(A @ vec - w0 * (B @ vec))
        assert residual <= 1e-12 * (np.linalg.norm(A, 2) + abs(w0) * np.linalg.norm(B, 2)) \
            * np.linalg.norm(vec)
        assert abs(vec @ B @ vec - 1.0) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(_spd_pencils(), st.sampled_from([20, 40, 60]))
    def test_leading_blocks_of_one_reduction_equal_reduced_slices(self, pencil, dps):
        # what keeps a sweep's levels bit-identical to per-level calls: level
        # k's solve from the leading block of one reduction of the whole
        # pencil equals the solve of the reduced k x k slices
        Afrac, Bfrac = pencil
        L, M = bounds._reduce_hp(Afrac, Bfrac, dps)
        for k in range(1, len(Bfrac) + 1):
            sliced = bounds._reduce_hp([row[:k] for row in Afrac[:k]],
                                       [row[:k] for row in Bfrac[:k]], dps)
            assert sliced[0] == [row[:k] for row in L[:k]]
            assert sliced[1] == [row[:k] for row in M[:k]]
            assert _hp_outcome(L, M, k, dps) == _hp_outcome(*sliced, k, dps)

    @pytest.mark.parametrize("dps", [20, 33, 47, 60])
    def test_triangular_solves_match_mpmath_and_a_substitution_loop(self, dps):
        # the order of the rounded operations is what keeps results
        # bit-identical, so the comparison is ==, element by element
        rng = np.random.default_rng(dps)
        with mpmath.workdps(dps):
            for m in (1, 2, 5, 11):
                L = [[mpmath.mpf(float(rng.standard_normal())) / 3 for _ in range(i)]
                     + [mpmath.mpf(float(rng.uniform(0.1, 2.0))) / 7] for i in range(m)]
                b = [mpmath.mpf(float(rng.standard_normal())) / 11 for _ in range(m)]
                Lmat = mpmath.matrix([row + [0] * (m - len(row)) for row in L])
                assert bounds._tri_solve(L, b, trans=True) == \
                    list(mpmath.mp.U_solve(Lmat.T, mpmath.matrix(b)))
                x = []
                for i in range(m):
                    s = b[i]
                    for j in range(i):
                        s -= L[i][j] * x[j]
                    x.append(s / L[i][i])
                assert bounds._tri_solve(L, b) == x
                # a shorter b reads only the leading block of L
                for k in range(1, m + 1):
                    lead = [row[:k] for row in L[:k]]
                    for trans in (False, True):
                        assert bounds._tri_solve(L, b[:k], trans) == \
                            bounds._tri_solve(lead, b[:k], trans)

    def test_exactly_double_smallest_eigenvalue(self):
        # a block whose smallest eigenvalue is exactly double: any vector of
        # the eigenspace is optimal, and the iteration's is reported
        f = parse_poly("x1^2*x2^2 + x2^2*x3^2 + x1^2*x3^2", 3)
        res = upper_bound(f, 3, 2, dps=30)
        assert abs(res.value - upper_bound(f, 3, 2).value) <= 1e-12
        assert res.degenerate
        o = MomentOracle(3)
        den = extract_density(res)
        assert abs(o.integrate(den.h) - 1.0) <= 1e-12
        assert abs(o.integrate(den.h * f) - res.value) <= 1e-12

    def test_no_full_spectrum(self, monkeypatch):
        # the dps path asks for the smallest eigenpair only
        def fail(*args, **kwargs):
            raise AssertionError("mpmath.eigsy must not be called")

        monkeypatch.setattr(mpmath, "eigsy", fail)
        monkeypatch.setattr(mpmath.mp, "eigsy", fail)
        f = parse_poly("x1", 2)
        for r in (1, 2, 7, 12, 20):
            value = upper_bound(f, 2, r, dps=60).value
            assert abs(value + math.cos(math.pi / (2 * r + 2))) <= 1e-12
        value = upper_bound(f, 2, 24, dps=60).value
        assert abs(value + math.cos(math.pi / 50)) <= 1e-12

    def test_iteration_cap_names_dps(self, monkeypatch):
        monkeypatch.setattr(bounds, "HP_MAX_STEPS", 1)
        with pytest.raises(ConditioningError, match="dps=40"):
            upper_bound(parse_poly("x3", 3), 3, 3, dps=40)


@st.composite
def _bound_cases(draw):
    """A random f of degree <= 6 on S^2 or S^3, a level, and an orthogonal U."""
    n = draw(st.sampled_from([3, 4]))
    r = draw(st.integers(0, 4 if n == 3 else 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = random_poly(n, 6, rng)
    p = random_poly(n, 2, rng)
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))
    U, _ = np.linalg.qr(np.reshape(entries, (n, n)))
    return f, p, n, r, U


class TestBoundProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 5), st.integers(0, 2 ** 32 - 1))
    def test_monotone_in_level_on_random_objectives(self, n, r, seed):
        # every level-r density is also a level-(r + 1) density
        f = random_poly(n, 4, np.random.default_rng(seed))
        value = upper_bound(f, n, r).value
        assert upper_bound(f, n, r + 1).value <= value + 1e-10 * (1.0 + abs(value))

    @settings(max_examples=60, deadline=None)
    @given(_bound_cases())
    def test_invariance_majorization_and_certificate(self, case):
        f, p, n, r, U = case
        assert np.max(np.abs(U.T @ U - np.eye(n))) <= 1e-12
        value = upper_bound(f, n, r).value
        tol = 1e-10 * (1.0 + abs(value))
        # the surface measure and the basis span are rotation invariant
        assert abs(upper_bound(f.compose_linear(U), n, r).value - value) <= tol
        # f + p^2 >= f pointwise, so its level-r bound cannot be smaller
        assert upper_bound(f + p * p, n, r).value >= value - tol
        # the cubature certificate bounds the level-r value from below
        assert cubature_lower_bound(f, n, r) <= value + tol


# (f, n, r_lo, r_hi): x5 from r_lo = 0 and 1, where parity classes are
# still missing; x1 x2 x3 + x1 x2, whose level-1 blocks {1} and {x3} are
# joined at r_hi only through classes of degree 2 and 3; and a dense
# quartic form on S^3
_LEVEL_CASES = [
    (Polynomial.variable(5, 5), 5, 0, 9),
    (Polynomial.variable(5, 5), 5, 1, 7),
    (parse_poly("x1*x2*x3 + x1*x2", 3), 3, 0, 6),
    (random_poly(4, 4, np.random.default_rng(5), terms=12), 4, 1, 6),
]


def _quartic_sum(n):
    """x1^4 + ... + x_n^4."""
    return Polynomial(n, {tuple(4 * (i == j) for i in range(n)): 1.0 for j in range(n)})


def _count_assemblies_and_pencils(monkeypatch):
    """Counts of bounds.moment_matrix calls and of pencil scipy.linalg.eigh calls."""
    calls = {"moment_matrix": 0, "pencil": 0}
    moment_matrix, eigh = bounds.moment_matrix, scipy.linalg.eigh

    def counted_moment_matrix(*args, **kwargs):
        calls["moment_matrix"] += 1
        return moment_matrix(*args, **kwargs)

    def counted_eigh(a, b=None, *args, **kwargs):
        calls["pencil"] += b is not None
        return eigh(a, b, *args, **kwargs)

    monkeypatch.setattr(bounds, "moment_matrix", counted_moment_matrix)
    monkeypatch.setattr(scipy.linalg, "eigh", counted_eigh)
    return calls


class TestLevelBounds:
    """level_bounds against per-level upper_bound calls."""

    @pytest.mark.parametrize("f, n, lo, hi", _LEVEL_CASES)
    def test_top_level_is_upper_bound_and_lower_levels_agree(self, f, n, lo, hi):
        got = level_bounds(f, n, lo, hi)
        assert [res.r for res, _ in got] == list(range(lo, hi + 1))
        for res, seconds in got:
            ref = upper_bound(f, n, res.r)
            assert seconds > 0.0
            assert res.basis == ref.basis
            if res.r == hi:
                assert res.value == ref.value
                assert res.coeffs.tobytes() == ref.coeffs.tobytes()
                assert res.condition_number == ref.condition_number
                assert (res.condition_warning, res.degenerate) == \
                    (ref.condition_warning, ref.degenerate)
            elif not ref.condition_warning:
                tol = 1e-10 * (1.0 + abs(ref.value))
                assert abs(res.value - ref.value) <= tol
                # the back-transformed vector is the level's own optimal density
                pen = build_pencil(f, res.basis)
                c = res.coeffs
                assert abs(c @ pen.B @ c - 1.0) <= 1e-9
                assert abs(c @ pen.A @ c - res.value) <= tol

    @pytest.mark.parametrize("f, n, lo, hi", [
        (parse_poly("x1", 2), 2, 1, 8),
        (parse_poly("x1*x2*x3 + x1*x2", 3), 3, 0, 3),
        (Polynomial.variable(5, 5), 5, 0, 2),
        # past r = 20, where float64 raises ConditioningError on S^1
        (parse_poly("x1", 2), 2, 18, 24),
    ])
    def test_dps_levels_equal_per_level_calls(self, f, n, lo, hi):
        got = level_bounds(f, n, lo, hi, dps=30)
        assert [res.r for res, _ in got] == list(range(lo, hi + 1))
        for res, _ in got:
            ref = upper_bound(f, n, res.r, dps=30)
            assert res.basis == ref.basis
            assert res.value == ref.value
            assert res.coeffs.tobytes() == ref.coeffs.tobytes()
            assert (res.condition_warning, res.degenerate) == \
                (ref.condition_warning, ref.degenerate)
            # the float64 condition estimate comes from the leading block of
            # the r_hi block's dpotrf factor, which LAPACK's recursive
            # Cholesky rounds apart from a factor of the leading block alone
            if res.r == hi:
                assert res.condition_number == ref.condition_number
            else:
                assert res.condition_number == pytest.approx(ref.condition_number, rel=1e-3)

    def test_dps_sweep_reduces_each_distinct_block_once(self, monkeypatch):
        calls = {"_reduce_hp": 0, "gram_matrix_fraction": 0, "_smallest_hp": 0}

        def counting(name):
            fn = getattr(bounds, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(bounds, name, wrapper)

        for name in calls:
            counting(name)
        f = parse_poly("x1", 2)
        comps, keys = bounds._parity_components(
            sphere_basis(2, 12).elements, list(f.terms) + [(0, 0)],
            bounds._symmetry_classes(2, [f.terms, _unit(2)]))
        level_bounds(f, 2, 1, 12, dps=40)
        # with x1 = cos t, the block of x1^a (a <= r) is p(cos t) with the
        # weight of T_{r+1}, least eigenvalue -cos(pi/(2r+2)); the block of
        # x2 x1^a (a < r) is sin t p(cos t) with the weight of U_r, least
        # eigenvalue -cos(pi/(r+1)).  The first is solved at r = 1..12, the
        # second at r = 12 and where -cos(pi/13) is not more than GAP_TOL
        # above -cos(pi/(2r+2)): at 2r + 2 <= 13, r = 1..5
        second = [r for r in range(1, 12)
                  if -math.cos(math.pi / 13) <= -math.cos(math.pi / (2 * r + 2)) + bounds.GAP_TOL]
        assert (len(comps), len(set(keys)), second) == (2, 2, [1, 2, 3, 4, 5])
        # every (block, level) pair was solved before interlacing: 24
        assert calls == {"_reduce_hp": 2, "gram_matrix_fraction": 4,
                         "_smallest_hp": 12 + 1 + len(second)}

    def test_constant_objective(self):
        for res, seconds in level_bounds(Polynomial.constant(3, 2.5), 3, 0, 4):
            ref = upper_bound(Polynomial.constant(3, 2.5), 3, res.r)
            assert (res.value, res.degenerate) == (ref.value, ref.degenerate) == \
                (2.5, res.r > 0)
            assert res.coeffs.tobytes() == ref.coeffs.tobytes()
            assert seconds > 0.0

    def test_one_assembly_pair_and_one_pencil_solve_per_top_level_block(self, monkeypatch):
        # per distinct block: one that a permutation fixing f maps onto an
        # earlier one is not assembled or solved
        calls = _count_assemblies_and_pencils(monkeypatch)
        f = Polynomial.variable(5, 5)
        comps, keys = bounds._parity_components(
            sphere_basis(5, 16).elements, list(f.terms) + [(0,) * 5],
            bounds._symmetry_classes(5, [f.terms, _unit(5)]))
        start = time.perf_counter()
        records = sweep(f, 5, 4, 16, certificates=False)
        wall_ms = (time.perf_counter() - start) * 1000.0
        # level by level this was 416 assemblies and 208 pencil solves; one
        # of each of the 16 blocks, 32 and 16.  x1..x4 are interchangeable,
        # so a block's orbit is fixed by how many of them have odd exponents
        assert (len(comps), len(set(keys))) == (16, 5)
        assert calls == {"moment_matrix": 10, "pencil": 5}
        assert all(rec.runtime_ms > 0.0 for rec in records)
        assert sum(rec.runtime_ms for rec in records) <= wall_ms
        calls.update(moment_matrix=0, pencil=0)
        # x1^4 + ... + x6^4 on S^5: 64 blocks, 12 orbits (odd counts 0..5 among
        # x1..x5, times the parity of x6)
        sweep(_quartic_sum(6), 6, 2, 9, certificates=False)
        assert calls == {"moment_matrix": 24, "pencil": 12}

    @pytest.mark.parametrize("name, f, n, lo, hi, dps", [
        ("moment_matrix", "x3", 3, 2, 8, None), ("dsygst", "x3", 3, 2, 8, None),
        ("dpocon", "x3", 3, 2, 8, None), ("_reduce_hp", "x1", 2, 1, 6, 30)])
    def test_each_level_is_charged_its_own_work(self, monkeypatch, name, f, n, lo, hi, dps):
        # every call of name sleeps PAUSE; the shared work (assembly, the
        # extended-precision reduction) lands on level hi, the dsygst on
        # level hi - 1, and each level's dpocon on that level, so a sweep's
        # runtime_ms shows where the time goes
        PAUSE = 0.05
        fn, calls = getattr(bounds, name), []

        def paused(*args, **kwargs):
            calls.append(name)
            time.sleep(PAUSE)
            return fn(*args, **kwargs)

        monkeypatch.setattr(bounds, name, paused)
        seconds = {res.r: s for res, s in level_bounds(parse_poly(f, n), n, lo, hi, dps=dps)}
        if name == "dpocon":  # x3 on S^2 has 3 distinct blocks, each at every level
            assert len(calls) == 3 * len(seconds) == 21
            assert all(3 * PAUSE <= s < 4 * PAUSE for s in seconds.values())
        else:
            charged = seconds.pop(hi - 1 if name == "dsygst" else hi)
            assert calls and charged >= len(calls) * PAUSE
            assert all(s < PAUSE for s in seconds.values())

    def test_sweep_fails_at_the_top_level_without_per_level_solves(self, monkeypatch):
        # the level-21 Gram matrix of S^2 does not factor in float64; levels
        # 18..20 do, but are neither assembled nor solved on their own
        def fail(*args, **kwargs):
            raise AssertionError("no level is solved on its own")

        monkeypatch.setattr(harness, "upper_bound", fail)
        calls = []
        moment_matrix = bounds.moment_matrix
        monkeypatch.setattr(bounds, "moment_matrix",
                            lambda E1, *a, **k: calls.append(len(E1)) or moment_matrix(E1, *a, **k))
        with pytest.raises(ConditioningError, match=r"level r=21: Cholesky"):
            sweep(parse_poly("x3", 3), 3, 18, 21, certificates=False)
        blocks, _ = bounds._parity_components(sphere_basis(3, 21).elements, [(0, 0, 1), (0, 0, 0)])
        assert len(calls) <= 2 * len(blocks)
        assert set(calls) <= {len(c) for c in blocks}


def _sweep_reference(f, n, r_lo, r_hi):
    """Reference float sweep that solves every distinct block at every level.

    Per distinct block: eigh(A, B) at r_hi, one dsygst of its whole part
    below r_hi, eigh of each lower level's leading block and a
    back-substitution with the whole factor and q padded by zeros; a block
    that a permutation maps onto an earlier one repeats its eigenvalues.
    Then _pick_winner per level.  Returns per level (value, coeffs,
    degenerate) and, per distinct block, its least eigenvalue at each level
    (None where the block is empty).
    """
    unit = _unit(n)
    E = sphere_basis(n, r_hi).exponent_array()
    ends = np.searchsorted(E.sum(axis=1), range(r_lo, r_hi + 1), side="right")
    comps, keys = bounds._parity_components(E, list(f.terms) + list(unit),
                                            bounds._symmetry_classes(n, [f.terms, unit]))
    results, solved = [[] for _ in ends], {}
    for comp, key in zip(comps, keys):
        first = key not in solved
        if first:
            ks = np.searchsorted(comp, ends).tolist()
            A = bounds.moment_matrix(E[comp], E[comp], n, terms=f.terms)
            B = bounds.moment_matrix(E[comp], E[comp], n)
            L = scipy.linalg.lapack.dpotrf(B.T, lower=1)[0]
            below = ks[-2] if len(ks) > 1 else 0
            if below:
                M = scipy.linalg.lapack.dsygst(A[:below, :below].copy(order="F"),
                                               L[:below, :below], lower=1)[0]
            solved[key] = []
            for r, k in zip(range(r_lo, r_hi), ks):
                w0, w1, q = bounds._solve_block(r, M[:k, :k]) if k else (None, None, None)
                v = None if q is None else scipy.linalg.solve_triangular(
                    L, np.pad(q, (0, len(L) - k)), trans="T", lower=True)[:k]
                solved[key].append(None if q is None else (w0, w1, v, comp[:k]))
            solved[key].append((*bounds._solve_block(r_hi, A.T, B.T), comp))
        for level, res in zip(results, solved[key]):
            if res is not None:
                level.append(res if first else (*res[:2], None, None))
    out = []
    for level, size in zip(results, ends):
        value, coeffs, gap = bounds._pick_winner(level, int(size))
        out.append((value, coeffs, bool(gap < bounds.GAP_TOL)))
    return out, [[None if res is None else res[0] for res in levels] for levels in solved.values()]


def _skipped_solves(per_block):
    """The (block, level) solves below the top that interlacing rules out,
    from _sweep_reference's per-block values: block j at level i where its
    top-level value lies more than GAP_TOL above an earlier block's level-i
    value (a later block, or one itself skipped there, cannot lower it)."""
    skipped = 0
    for j, values in enumerate(per_block):
        for i, w in enumerate(values[:-1]):
            earlier = [other[i] for other in per_block[:j] if other[i] is not None]
            skipped += w is not None and values[-1] > min(earlier, default=np.inf) + bounds.GAP_TOL
    return skipped


def _assert_sweep_equals_reference(f, n, r_lo, r_hi):
    """level_bounds equals _sweep_reference bit for bit, with one pencil
    eigh per distinct block and one standard eigh per lower-level solve that
    _skipped_solves leaves.  Returns level_bounds' results and the
    reference's per-block values."""
    ref, per_block = _sweep_reference(f, n, r_lo, r_hi)
    with mock.patch.object(scipy.linalg, "eigh", wraps=scipy.linalg.eigh) as eigh:
        got = level_bounds(f, n, r_lo, r_hi)
    assert [res.r for res, _ in got] == list(range(r_lo, r_hi + 1))
    for (res, _), (value, coeffs, degenerate) in zip(got, ref):
        assert res.value == value
        assert res.coeffs.tobytes() == coeffs.tobytes()
        assert res.degenerate == degenerate
    standard = sum(call.args[1] is None for call in eigh.call_args_list)
    lower = sum(w is not None for values in per_block for w in values[:-1])
    assert (standard, eigh.call_count - standard) == \
        (lower - _skipped_solves(per_block), len(per_block))
    return got, per_block


class TestInterlacingPruning:
    """level_bounds skips a block's lower-level solve where Cauchy
    interlacing shows that the block can neither win nor tie the level,
    and returns what solving every block returns."""

    @pytest.mark.parametrize("f, n, lo, hi", [
        (Polynomial.variable(5, 5), 5, 4, 12),
        (_quartic_sum(6), 6, 2, 7),
        (motzkin_form(), 3, 0, 9),
        (random_poly(4, 4, np.random.default_rng(5), terms=12), 4, 1, 6),
        (parse_poly("x1*x2*x3 + x1*x2", 3), 3, 0, 8),
    ], ids=["x5", "quartic_sum6", "motzkin", "seeded_quartic4", "x1x2x3"])
    def test_sweep_equals_all_blocks_reference(self, f, n, lo, hi):
        _assert_sweep_equals_reference(f, n, lo, hi)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    def test_sweep_equals_all_blocks_reference_on_random_objectives(self, n, terms, seed):
        f = random_poly(n, 4, np.random.default_rng(seed), terms=terms)
        assume(not f.is_constant())
        _assert_sweep_equals_reference(f, n, 0, {2: 8, 3: 6, 4: 4}[n])

    def test_x5_sweep_skips_the_solves_interlacing_rules_out(self):
        _, per_block = _assert_sweep_equals_reference(Polynomial.variable(5, 5), 5, 4, 16)
        lower = sum(w is not None for values in per_block for w in values[:-1])
        # 5 distinct blocks with 12 lower levels each; blocks 2..5 lie above
        # the first block's values from r = 12, 9, 7 and 5 on
        assert (len(per_block), lower, _skipped_solves(per_block)) == (5, 60, 30)


class TestClosedFormSweeps:
    """Sweeps against closed forms: one block, where nothing is skipped, and
    a zonal objective, where blocks are skipped."""

    @pytest.mark.parametrize("n, r_hi", [(3, 16), (4, 10), (5, 8)])
    def test_generic_direction_linear_objective(self, n, r_hi):
        # every coordinate is a parity shift, so the pencil is one block,
        # and rotation invariance gives x_n's value, a root of P^(a,a)_{r+1}
        u = np.random.default_rng(7).standard_normal(n)
        u /= np.linalg.norm(u)
        f = Polynomial(n, {tuple(int(i == j) for i in range(n)): float(c) for j, c in enumerate(u)})
        with mock.patch.object(scipy.linalg, "eigh", wraps=scipy.linalg.eigh) as eigh:
            got = level_bounds(f, n, 1, r_hi)
        # one block, solved at every level: nothing to skip
        assert eigh.call_count == r_hi
        alpha = (n - 3) / 2
        checked = 0
        for res, _ in got:
            if not res.condition_warning:
                ref = smallest_root(JacobiParams(alpha, alpha), res.r + 1)
                assert abs(res.value - ref) <= 1e-10 * (1.0 + abs(res.value))
                checked += 1
        assert checked >= r_hi // 2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_zonal_quartic_against_univariate_pencils(self, n):
        # by Lukacs' theorem the level-r value for phi(x_n) is the least
        # eigenvalue of phi(J_k)'s leading (r + 1 - k) block, k = 0 or 1,
        # with J_k the Jacobi matrix of (1 - t^2)^(k + (n - 3)/2); larger
        # k repeat k - 2 times (1 - t^2)^2
        def phi(t):
            return t @ t @ t @ t - t @ t

        got, per_block = _assert_sweep_equals_reference(parse_poly(f"x{n}^4 - x{n}^2", n), n, 1, 10)
        assert _skipped_solves(per_block) > 0
        checked = 0
        for res, _ in got:
            refs = []
            for k in (0, 1):
                J = jacobi_matrix(JacobiParams(k + (n - 3) / 2, k + (n - 3) / 2), res.r + 3)
                T = np.diag(J.diag) + np.diag(J.offdiag, 1) + np.diag(J.offdiag, -1)
                size = res.r + 1 - k
                refs.append(np.linalg.eigvalsh(phi(T)[:size, :size])[0])
            if not res.condition_warning:
                assert abs(res.value - min(refs)) <= 1e-9 * (1.0 + abs(res.value))
                checked += 1
        assert checked >= 5


def _bumped(f, alpha):
    """f with its coefficient at alpha moved up by one ulp."""
    return Polynomial(f.n, {**f.terms, alpha: np.nextafter(f.terms[alpha], np.inf)})


def _blocks_and_orbits(p, n, r, q=None):
    """The number of blocks of the level-r pencil (A_p, A_q), and of orbits."""
    den = _unit(n) if q is None else q.terms
    _, keys = bounds._parity_components(sphere_basis(n, r).elements, list(p.terms) + list(den),
                                        bounds._symmetry_classes(n, [p.terms, den]))
    return len(keys), len(set(keys))


class TestSymmetryOrbits:
    """Blocks that a permutation of x1..x_{n-1} fixing the pencil maps onto
    each other are solved once, and every block is solved otherwise."""

    def test_symmetry_classes(self):
        def classes(p, n, den=None):
            return bounds._symmetry_classes(n, [p.terms, den or _unit(n)])

        assert classes(Polynomial.variable(5, 5), 5) == [[0, 1, 2, 3], [4]]
        assert classes(_quartic_sum(6), 6) == [[0, 1, 2, 3, 4], [5]]
        assert classes(motzkin_form(), 3) == [[0, 1], [2]]
        assert classes(parse_poly("x1^2 + x3^2 + x2", 4), 4) == [[0, 2], [1], [3]]
        # x_n is never swapped, even where the objective allows it
        assert classes(parse_poly("x2^2*x3 + x2*x3^2", 3), 3) is None
        assert classes(_bumped(motzkin_form(), (4, 2, 0)), 3) is None
        assert classes(motzkin_form(), 3, parse_poly("3 + x1^2", 3).terms) is None
        assert classes(parse_poly("x1", 2), 2) is None

    @pytest.mark.parametrize("p, q, r", [
        (Polynomial.variable(5, 5), None, 6),
        (_quartic_sum(6), None, 5),
        (motzkin_form(), parse_poly("3 + x1^2 + x2^2", 3), 6),
        # two classes, {x1, x2} and {x3, x4}, and odd shifts joining blocks
        (parse_poly("x1^2*x2^2 + x3^4 + x4^4 + x3*x4*x5 + x1*x2", 5), None, 5),
        (parse_poly("x1^2*x2^2 + x2^2*x3^2 + x1^2*x3^2 + x4^3", 4), parse_poly("2 + x4^2", 4), 5),
    ])
    def test_orbit_keys_match_brute_force_orbits(self, p, q, r):
        n = p.n
        den = _unit(n) if q is None else q.terms
        elements = sphere_basis(n, r).elements
        comps, keys = bounds._parity_components(elements, list(p.terms) + list(den),
                                                bounds._symmetry_classes(n, [p.terms, den]))
        firsts = _orbit_firsts(comps, elements, [p.terms, den], n)
        assert [keys.index(key) for key in keys] == firsts
        assert len(set(firsts)) < len(comps)

    @pytest.mark.parametrize("f", [
        # symmetric only under x2 <-> x3, a swap with the last coordinate
        parse_poly("x2^2*x3 + x2*x3^2", 3),
        # the same, with the parity blocks (x2 odd) and (x3 odd) of equal size
        parse_poly("x2^2*x3^2 + x1", 3),
        # the Motzkin form with one coefficient one ulp off
        _bumped(motzkin_form(), (4, 2, 0)),
    ])
    def test_every_block_solved_without_the_symmetry(self, monkeypatch, f):
        calls = _count_assemblies_and_pencils(monkeypatch)
        res = upper_bound(f, 3, 6)
        blocks, distinct = _blocks_and_orbits(f, 3, 6)
        assert blocks == distinct > 1
        assert calls == {"moment_matrix": 2 * blocks, "pencil": blocks}
        every = _solve_pencil_reference(f.terms, _unit(3), res.basis, orbits=False)
        assert res.value == every[0]

    def test_one_ulp_off_symmetric_objective_agrees(self):
        f = motzkin_form()
        g = _bumped(f, (4, 2, 0))
        for r in range(0, 8):
            value = upper_bound(f, 3, r).value
            assert abs(upper_bound(g, 3, r).value - value) <= 1e-12 * (1.0 + abs(value))

    def test_rational_bound_needs_a_symmetric_denominator(self, monkeypatch):
        calls = _count_assemblies_and_pencils(monkeypatch)
        p = motzkin_form()
        for q, distinct in [(parse_poly("3 + x1^2", 3), 8), (parse_poly("3 + x1^2 + x2^2", 3), 6)]:
            calls.update(moment_matrix=0, pencil=0)
            res = rational_upper_bound(p, q, 3, 6)
            assert _blocks_and_orbits(p, 3, 6, q) == (8, distinct)
            assert calls == {"moment_matrix": 2 * distinct, "pencil": distinct}
            every = _solve_pencil_reference(p.terms, q.terms, res.basis, orbits=False)[0]
            assert abs(res.value - every) <= 1e-12 * (1.0 + abs(every))

    @pytest.mark.parametrize("f, n, r", [(motzkin_form(), 3, 3), (_quartic_sum(6), 6, 4)])
    def test_winning_orbit_of_several_blocks_is_degenerate(self, monkeypatch, f, n, r):
        # each block solve is moved by its own multiple of 10 GAP_TOL, so
        # blocks solved apart would differ by more than GAP_TOL
        solve_block, count = bounds._solve_block, itertools.count(1)

        def moved(*args, **kwargs):
            w0, w1, v = solve_block(*args, **kwargs)
            d = 10 * bounds.GAP_TOL * next(count)
            return w0 + d, (None if w1 is None else w1 + d), v

        monkeypatch.setattr(bounds, "_solve_block", moved)
        res = upper_bound(f, n, r)
        comps, keys = bounds._parity_components(
            res.basis.elements, list(f.terms) + [(0,) * n],
            bounds._symmetry_classes(n, [f.terms, _unit(n)]))
        winner = next(j for j, comp in enumerate(comps) if np.any(res.coeffs[comp]))
        assert keys.count(keys[winner]) >= 2
        assert res.degenerate


def _motzkin_grid_density():
    return extract_density(upper_bound(motzkin_form(), 3, 2))


def _floor(low, name):
    """A floor and the message its argument, named name, gives at low - 1."""
    return low, f"{name} must be an integer of at least {low}, got {low - 1}"


# each public integer argument, as a call of that argument, a valid value,
# its floor and the message at floor - 1: the integer rule's, except that
# exponents keep the exponent rule's and density grids take n = 3 only
_INTEGER_ARGUMENTS = {
    "exponent": (lambda k: Polynomial(2, {(k, 0): 1.0}), 2, 0, "negative exponent in (-1, 0)"),
    "dimension": (lambda k: Polynomial(k, {}), 2, *_floor(1, "dimension")),
    "Polynomial.constant n": (lambda k: Polynomial.constant(k, 1.0), 2, *_floor(1, "dimension")),
    "Polynomial.variable n": (lambda k: Polynomial.variable(k, 1), 2, *_floor(1, "dimension")),
    "parse_poly n": (lambda k: parse_poly("x1", k), 2, *_floor(1, "dimension")),
    "power": (lambda k: Polynomial.variable(3, 1) ** k, 2, *_floor(0, "power")),
    "variable index": (lambda k: Polynomial.variable(3, k), 2, *_floor(1, "variable index")),
    "circle_rule d": (lambda k: circle_rule(k).nodes, 5, *_floor(1, "node count")),
    "sphere_product_rule n": (lambda k: sphere_product_rule(k, 2).nodes, 3,
                              *_floor(2, "dimension")),
    "sphere_product_rule d": (lambda k: sphere_product_rule(3, k).nodes, 2,
                              *_floor(1, "parameter d")),
    "sphere_points m": (lambda k: sphere_points(k, 3), 10, *_floor(1, "point count")),
    "sphere_points n": (lambda k: sphere_points(10, k), 3, *_floor(1, "dimension")),
    "density_grid n": (lambda k: density_grid(_motzkin_grid_density(), k, 4), 3, 3,
                       "density grids are defined for n = 3 only"),
    "density_grid resolution": (lambda k: density_grid(_motzkin_grid_density(), 3, k), 4,
                                *_floor(1, "resolution")),
    "grid_local_maxima resolution": (lambda k: grid_local_maxima(
        density_grid(_motzkin_grid_density(), 3, 4), k), 4, *_floor(1, "resolution")),
    "surface_area n": (surface_area, 3, *_floor(1, "dimension")),
    "ball_constant d": (lambda k: ball_constant(k, 1.5), 2, *_floor(1, "dimension")),
    "interval_moment k": (lambda k: interval_moment(k, 0.5), 4, *_floor(0, "moment order")),
    "MomentOracle n": (lambda k: MomentOracle(k).n, 3, *_floor(2, "dimension")),
    "moment exponent": (lambda k: MomentOracle(3).moment((k, 2, 0)), 2, 0,
                        "negative exponent in (-1, 2, 0)"),
    "moment_fraction exponent": (lambda k: MomentOracle(3).moment_fraction((2, k, 0)), 2, 0,
                                 "negative exponent in (2, -1, 0)"),
    "jacobi_matrix d": (lambda k: jacobi_matrix(JacobiParams(1.0, 1.0), k).offdiag, 4,
                        *_floor(1, "degree")),
    "smallest_root d": (lambda k: smallest_root(JacobiParams(1.0, 1.0), k), 4,
                        *_floor(1, "degree")),
    "gauss_rule d": (lambda k: gauss_rule(0.5, k).nodes, 3, *_floor(1, "degree")),
    "moment_matrix n": (lambda k: moment_matrix(np.eye(3, dtype=int), np.eye(3, dtype=int), k), 3,
                        *_floor(1, "dimension")),
    "sphere_basis n": (lambda k: sphere_basis(k, 2).elements, 3, *_floor(2, "dimension")),
    "sphere_basis r": (lambda k: sphere_basis(3, k).elements, 2, *_floor(0, "level")),
    "upper_bound n": (lambda k: upper_bound(parse_poly("x1", 2), k, 1).value, 2,
                      *_floor(2, "dimension")),
    "upper_bound r": (lambda k: upper_bound(parse_poly("x1", 2), 2, k).value, 2,
                      *_floor(0, "level")),
    "upper_bound dps": (lambda k: upper_bound(parse_poly("x1", 2), 2, 1, dps=k).value, 20,
                        *_floor(16, "dps")),
    "level_bounds r_hi": (lambda k: [res.value for res, _ in level_bounds(
        parse_poly("x1", 2), 2, 0, k)], 2, *_floor(0, "level")),
    "cubature_lower_bound r": (lambda k: cubature_lower_bound(parse_poly("x3", 3), 3, k), 2,
                               *_floor(0, "level")),
    "select_rule_degree degree": (lambda k: select_rule_degree(k, 2), 1, *_floor(0, "degree")),
    "select_rule_degree r": (lambda k: select_rule_degree(1, k), 2, *_floor(0, "level")),
}


@pytest.mark.parametrize("name", sorted(_INTEGER_ARGUMENTS))
def test_integer_arguments_are_never_truncated(name):
    call, good, *_ = _INTEGER_ARGUMENTS[name]
    for bad in (good + 0.5, float(good), str(good)):
        with pytest.raises(ValueError, match="integer"):
            call(bad)
    expect = call(good)
    got = call(np.int64(good))
    if isinstance(expect, np.ndarray):
        assert np.array_equal(got, expect)
    else:
        assert got == expect


@pytest.mark.parametrize("name", sorted(_INTEGER_ARGUMENTS))
def test_integer_arguments_refuse_one_below_their_floor(name):
    call, _, low, message = _INTEGER_ARGUMENTS[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        call(low - 1)
