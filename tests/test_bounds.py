"""Upper bounds from the moment pencil, densities, and rational objectives."""

import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from conftest import random_poly
from spherebound import bounds
from spherebound import (CertificationError, ConditioningError, MomentOracle,
                         Polynomial, build_pencil, density_grid,
                         extract_density, grid_local_maxima, motzkin_form,
                         parse_poly, rational_upper_bound, sphere_basis,
                         sphere_points, upper_bound)

S3 = 1.0 / math.sqrt(3.0)


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

    def test_input_validation(self):
        f = parse_poly("x1", 2)
        with pytest.raises(ValueError):
            upper_bound(f, 1, 2)
        with pytest.raises(ValueError):
            upper_bound(f, 2, -1)
        with pytest.raises(ValueError):
            upper_bound(f, 3, 2)
        for dps in (0, -5):
            with pytest.raises(ValueError, match="dps"):
                upper_bound(f, 2, 2, dps=dps)

    def test_json_payload(self):
        res = upper_bound(motzkin_form(), 3, 2)
        payload = res.to_json_dict()
        assert set(payload) == {"n", "r", "value", "basis_size",
                                "condition_warning", "coeffs"}
        assert payload["n"] == 3 and payload["r"] == 2
        assert payload["basis_size"] == len(res.basis)
        assert len(payload["coeffs"]) == len(res.basis)


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

    def test_gram_breakdown_reported_and_rescued(self):
        f = parse_poly("x1", 2)
        with pytest.raises(ConditioningError):
            upper_bound(f, 2, 24)
        res = upper_bound(f, 2, 24, dps=60)
        assert abs(res.value + math.cos(math.pi / 50)) <= 1e-12

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

    def test_constant_density_grid(self):
        den = extract_density(upper_bound(Polynomial.constant(3, 2.0), 3, 0))
        grid = density_grid(den, 3, resolution=10)
        assert_allclose(grid[:, 2], 1.0, rtol=0, atol=1e-15)

    def test_grid_dimension_guard(self):
        den = extract_density(upper_bound(parse_poly("x1", 2), 2, 2))
        with pytest.raises(ValueError):
            density_grid(den, 2, resolution=10)

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


class TestRational:
    def test_unit_denominator_matches_polynomial_bound(self):
        f = motzkin_form()
        one = Polynomial.constant(3, 1.0)
        for r in range(0, 6):
            a = rational_upper_bound(f, one, 3, r).value
            b = upper_bound(f, 3, r).value
            assert abs(a - b) <= 1e-10

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

    def test_zero_denominator_rejected(self):
        with pytest.raises(CertificationError):
            rational_upper_bound(parse_poly("x1", 2), Polynomial.zero(2), 2, 1)

    def test_nonpositive_dps_rejected(self):
        for dps in (0, -5):
            with pytest.raises(ValueError, match="dps"):
                rational_upper_bound(parse_poly("x1", 2), parse_poly("2 + x1", 2),
                                     2, 2, dps=dps)

    def test_assembles_only_the_localized_matrices(self, monkeypatch):
        # one moment matrix per term of p and of q in every block, no Gram
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
        blocks = len(bounds._parity_components(basis.elements, [(1, 0), (0, 0)]))
        expected = rational_upper_bound(p, q, 2, 3)
        assert calls == {"float": 3 * blocks, "exact": 0}
        calls["float"] = 0
        res = rational_upper_bound(p, q, 2, 3, dps=30)
        # the float A_q of each block gives the condition estimate
        assert calls == {"float": 2 * blocks, "exact": 3 * blocks}
        assert res.value == pytest.approx(expected.value, abs=1e-12)

    def test_json_payload_shape(self):
        res = rational_upper_bound(parse_poly("x1", 2), parse_poly("2 + x1", 2),
                                   2, 4)
        payload = res.to_json_dict()
        assert set(payload) == {"n", "r", "value", "basis_size",
                                "condition_warning", "coeffs"}
