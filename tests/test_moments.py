"""Closed-form surface-measure moments and interval weight constants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from spherebound import (MomentOracle, ball_constant, interval_moment,
                         motzkin_form, parse_poly, sphere_points,
                         surface_area)


class TestSurfaceArea:
    def test_known_dimensions(self):
        assert_allclose(surface_area(2), 2 * math.pi, rtol=1e-14)
        assert_allclose(surface_area(3), 4 * math.pi, rtol=1e-14)
        assert_allclose(surface_area(4), 2 * math.pi ** 2, rtol=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            surface_area(0)


class TestBallConstant:
    def test_known_values(self):
        assert_allclose(ball_constant(1, 0.0), math.pi, rtol=1e-14)
        assert_allclose(ball_constant(1, 0.5), 2.0, rtol=1e-14)
        assert_allclose(ball_constant(2, 0.5), math.pi, rtol=1e-14)

    def test_matches_quadrature(self):
        # C_{1,lam} is the mass of (1-x^2)^(lam-1/2) on [-1,1]
        for lam in (0.0, 0.5, 1.0, 1.7):
            val, _ = quad(lambda t, lam=lam: math.cos(t) ** (2 * lam), -math.pi / 2,
                          math.pi / 2)
            assert_allclose(ball_constant(1, lam), val, rtol=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            ball_constant(0, 0.5)
        with pytest.raises(ValueError):
            ball_constant(2, -0.5)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_exponent_refused(self, lam):
        with pytest.raises(ValueError, match=r"requires finite lam > -1/2"):
            ball_constant(1, lam)


class TestIntervalMoment:
    def test_odd_is_exact_zero(self):
        for k in (1, 3, 7, 19):
            assert interval_moment(k, 0.3) == 0.0

    def test_arcsine_second_moment(self):
        assert_allclose(interval_moment(2, 0.0), 0.5, rtol=1e-14)

    def test_matches_quadrature(self):
        # substituted integrand sin^k t cos^(2 nu) t is smooth at nu = 0
        for k in (0, 2, 4, 8):
            for nu in (0.0, 0.5, 1.0, 2.5):
                val, _ = quad(lambda t, k=k, nu=nu:
                              math.sin(t) ** k * math.cos(t) ** (2 * nu),
                              -math.pi / 2, math.pi / 2)
                assert_allclose(interval_moment(k, nu),
                                val / ball_constant(1, nu), rtol=1e-10)

    def test_matches_the_exact_product(self):
        # Folland's product in one coordinate, within 1e-15 of the exact one
        # (exp of four lgamma terms is 9.95e-15 off at n = 3, k = 60)
        for n in range(2, 9):
            for k in range(0, 61, 2):
                exact = math.prod(Fraction(2 * j + 1, 2 * j + n) for j in range(k // 2))
                got = Fraction(interval_moment(k, (n - 2) / 2))
                assert abs(got - exact) <= Fraction(1e-15) * exact, (n, k)

    def test_domain(self):
        with pytest.raises(ValueError):
            interval_moment(-1, 0.5)
        with pytest.raises(ValueError):
            interval_moment(2, -0.5)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_exponent_refused(self, nu):
        with pytest.raises(ValueError, match=r"requires finite nu > -1/2"):
            interval_moment(2, nu)


class TestCrossSectionIdentity:
    # integrating the ball weight over a slice {x1 fixed} collapses to a
    # closed-form constant times a power of (1 - x1^2)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("x1", [0.0, 0.3, -0.3, 0.9, -0.9])
    def test_two_dimensional(self, lam, x1):
        rho = math.sqrt(1.0 - x1 * x1)
        val, _ = quad(lambda t: rho ** (2 * lam) * math.cos(t) ** (2 * lam),
                      -math.pi / 2, math.pi / 2)
        expect = ball_constant(1, lam) * (1.0 - x1 * x1) ** lam
        assert_allclose(val, expect, rtol=1e-6)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("x1", [0.0, 0.3, -0.3, 0.9, -0.9])
    def test_three_dimensional(self, lam, x1):
        # polar coordinates on the 2-ball slice, s = rho sin t
        rho = math.sqrt(1.0 - x1 * x1)
        val, _ = quad(lambda t: 2 * math.pi * rho ** (2 * lam + 1)
                      * math.cos(t) ** (2 * lam) * math.sin(t),
                      0.0, math.pi / 2)
        expect = ball_constant(2, lam) * (1.0 - x1 * x1) ** (lam + 0.5)
        assert_allclose(val, expect, rtol=1e-6)


class TestMonomialMoment:
    def test_zero_index_is_exactly_one(self):
        for n in range(2, 7):
            assert MomentOracle(n).moment((0,) * n) == 1.0

    def test_odd_entry_is_exact_zero(self):
        o = MomentOracle(3)
        assert o.moment((1, 0, 0)) == 0.0
        assert o.moment((2, 3, 0)) == 0.0

    def test_pure_square_is_one_over_n(self):
        for n in range(2, 7):
            alpha = (2,) + (0,) * (n - 1)
            assert_allclose(MomentOracle(n).moment(alpha), 1.0 / n, rtol=1e-14)

    def test_mixed_square_on_two_sphere(self):
        assert_allclose(MomentOracle(3).moment((2, 2, 2)), 1.0 / 105, rtol=1e-14)

    def test_quasirandom_cross_check_of_mixed_square(self):
        X = sphere_points(1 << 20, 3, seed=5)
        est = float(np.mean(X[:, 0] ** 2 * X[:, 1] ** 2 * X[:, 2] ** 2))
        assert abs(est - 1.0 / 105) < 1e-4

    def test_float_matches_exact_rational(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 5):
            o = MomentOracle(n)
            for _ in range(30):
                alpha = tuple(int(2 * v) for v in rng.integers(0, 7, size=n))
                assert o.moment(alpha) == float(o.moment_fraction(alpha))

    def test_exact_rational_values(self):
        o = MomentOracle(3)
        assert o.moment_fraction((2, 2, 2)) == Fraction(1, 105)
        assert o.moment_fraction((2, 0, 0)) == Fraction(1, 3)
        assert o.moment_fraction((4, 0, 0)) == Fraction(1, 5)

    def test_degree_interface(self):
        o = MomentOracle(3)
        with pytest.raises(ValueError):
            o.moment((2, 0))

    @pytest.mark.parametrize("alpha", [(-2, 4, 0), (-2, 0, 0)])
    def test_negative_exponent_rejected(self, alpha):
        o = MomentOracle(3)
        for moment in (o.moment, o.moment_fraction):
            with pytest.raises(ValueError, match="negative exponent"):
                moment(alpha)

    def test_sampled_consistency_low_degrees(self):
        # every moment of degree <= 8 sits within 3 standard errors of a
        # quasirandom sample mean (conservative: scrambled-net error is smaller)
        for n in (3, 4):
            m = 1 << 16
            X = sphere_points(m, n, seed=9)
            o = MomentOracle(n)
            for alpha in _even_indices(n, 8):
                vals = np.prod(X ** np.asarray(alpha), axis=1)
                se = float(np.std(vals)) / math.sqrt(m)
                assert abs(float(np.mean(vals)) - o.moment(alpha)) <= 3 * se + 1e-12


def _even_indices(n, degree):
    out = []

    def rec(prefix, rest):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for k in range(0, rest + 1, 2):
            rec(prefix + [k], rest - k)

    rec([], degree)
    return out


class TestIntegrate:
    def test_constant(self):
        o = MomentOracle(3)
        assert o.integrate(parse_poly("7", 3)) == 7.0

    def test_motzkin_mean(self):
        assert_allclose(MomentOracle(3).integrate(motzkin_form()), 6.0 / 35,
                        rtol=1e-14)

    def test_odd_product_vanishes(self):
        assert MomentOracle(3).integrate(parse_poly("x1*x2", 3)) == 0.0

    def test_linear_in_the_polynomial(self):
        o = MomentOracle(3)
        p = parse_poly("x1^2 + 2*x3^4", 3)
        q = parse_poly("x2^2 - x1^2", 3)
        assert_allclose(o.integrate(p + q), o.integrate(p) + o.integrate(q),
                        rtol=1e-14)

    def test_first_coordinate_power_matches_interval_moment(self):
        # the marginal of x1 on the sphere is the one-dimensional weight with
        # nu = (n-2)/2
        for n in range(2, 7):
            o = MomentOracle(n)
            for k in range(0, 21, 2):
                alpha = (k,) + (0,) * (n - 1)
                assert_allclose(o.moment(alpha), interval_moment(k, (n - 2) / 2),
                                rtol=1e-12)
