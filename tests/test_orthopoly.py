"""Jacobi/Gegenbauer recurrences, extremal roots, and Gauss rules."""

import ast
import inspect
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spherebound import (JacobiParams, ball_constant, gauss_rule, interval_moment,
                         jacobi_matrix, smallest_root)
import spherebound
from spherebound import cubature, orthopoly
from spherebound.orthopoly import QuadratureRule, TridiagonalMatrix


class TestJacobiParams:
    def test_domain(self):
        with pytest.raises(ValueError):
            JacobiParams(-1.0, 0.0)
        with pytest.raises(ValueError):
            JacobiParams(0.0, -1.5)

    def test_gegenbauer_mapping(self):
        p = JacobiParams.gegenbauer(1.0)
        assert p.a == p.b == 0.5


class TestJacobiMatrix:
    def test_symmetric_weight_zero_diagonal(self):
        for a in (-0.5, 0.0, 0.5, 1.5):
            T = jacobi_matrix(JacobiParams(a, a), 6)
            assert np.max(np.abs(T.diag)) == 0.0

    def test_chebyshev_degree_three_spectrum(self):
        T = jacobi_matrix(JacobiParams(-0.5, -0.5), 3)
        w = T.eigenvalues()
        assert_allclose(w, [-math.cos(math.pi / 6), 0.0, math.cos(math.pi / 6)],
                        rtol=0, atol=1e-14)

    def test_legendre_degree_two_spectrum(self):
        T = jacobi_matrix(JacobiParams(0.0, 0.0), 2)
        assert_allclose(sorted(T.eigenvalues()),
                        [-1 / math.sqrt(3), 1 / math.sqrt(3)], rtol=1e-14)

    def test_eigenvalues_distinct_inside_interval(self):
        for a, b in [(-0.5, -0.5), (0.0, 0.0), (0.5, 1.5)]:
            w = jacobi_matrix(JacobiParams(a, b), 12).eigenvalues()
            assert np.all(np.diff(w) > 0)
            assert w[0] > -1 and w[-1] < 1

    def test_degree_one(self):
        T = jacobi_matrix(JacobiParams(0.5, 0.5), 1)
        assert T.offdiag.shape == (0,)
        assert T.eigenvalues().shape == (1,)


class TestSmallestRoot:
    def test_chebyshev_closed_form(self):
        # smallest Chebyshev root of degree d at -cos(pi/(2d))
        for d in range(1, 51):
            got = smallest_root(JacobiParams(-0.5, -0.5), d)
            assert abs(got + math.cos(math.pi / (2 * d))) <= 1e-13

    def test_symmetric_degree_one_root_is_zero(self):
        for a in (-0.5, 0.0, 1.0):
            assert smallest_root(JacobiParams(a, a), 1) == 0.0

    def test_legendre_degree_two(self):
        assert_allclose(smallest_root(JacobiParams(0.0, 0.0), 2),
                        -1 / math.sqrt(3), rtol=1e-14)


class TestGegenbauerRoots:
    # the roots of C^lam_d are the eigenvalues of the Jacobi matrix that
    # gauss_rule and smallest_root use
    def test_degree_one(self):
        for lam in (0.0, 0.5, 2.0):
            assert_allclose(jacobi_matrix(JacobiParams.gegenbauer(lam), 1).eigenvalues(),
                            [0.0], atol=1e-16)

    def test_legendre_case(self):
        assert_allclose(jacobi_matrix(JacobiParams.gegenbauer(0.5), 2).eigenvalues(),
                        [-1 / math.sqrt(3), 1 / math.sqrt(3)], rtol=1e-14)

    def test_sorted_distinct_open_interval(self):
        for lam in (0.0, 0.5, 1.0, 1.5):
            for d in (3, 10, 25):
                t = jacobi_matrix(JacobiParams.gegenbauer(lam), d).eigenvalues()
                assert len(t) == d
                assert np.all(np.diff(t) > 0)
                assert t[0] > -1 and t[-1] < 1

    def test_interlacing(self):
        for lam in (0.0, 0.5, 1.0, 1.5):
            for d in range(1, 31):
                t = jacobi_matrix(JacobiParams.gegenbauer(lam), d).eigenvalues()
                u = jacobi_matrix(JacobiParams.gegenbauer(lam), d + 1).eigenvalues()
                # u_1 < t_1 < u_2 < ... < t_d < u_{d+1}
                assert np.all(u[:-1] < t) and np.all(t < u[1:])

    def test_extreme_root_gap_scaling(self):
        d = 20
        t1 = jacobi_matrix(JacobiParams.gegenbauer(0.5), d).eigenvalues()[0]
        assert 2.0 <= (1.0 + t1) * d * d <= 8.0


class TestGaussRule:
    def test_single_node(self):
        for lam in (0.0, 0.5, 1.0):
            rule = gauss_rule(lam, 1)
            assert_allclose(rule.nodes, [0.0], atol=1e-16)
            assert_allclose(rule.weights, [ball_constant(1, lam)], rtol=1e-14)

    def test_two_point_legendre(self):
        rule = gauss_rule(0.5, 2)
        assert_allclose(np.sort(rule.nodes),
                        [-1 / math.sqrt(3), 1 / math.sqrt(3)], rtol=1e-14)
        assert_allclose(rule.weights, [1.0, 1.0], rtol=1e-14)

    def test_weights_positive_with_exact_mass(self):
        for lam in (0.0, 0.5, 1.0, 1.5):
            for d in range(1, 21):
                rule = gauss_rule(lam, d)
                w = np.asarray(rule.weights)
                assert np.all(w > 0)
                assert_allclose(w.sum(), ball_constant(1, lam), rtol=1e-12)

    def test_exact_through_degree_2d_minus_1(self):
        for lam in (0.0, 0.5, 1.0, 1.5):
            mass = ball_constant(1, lam)
            for d in range(1, 21):
                rule = gauss_rule(lam, d)
                t = np.asarray(rule.nodes)
                w = np.asarray(rule.weights)
                assert rule.exactness_degree == 2 * d - 1
                for k in range(0, 2 * d):
                    got = float(w @ t ** k)
                    assert abs(got - interval_moment(k, lam) * mass) <= 1e-12

    def test_exactness_threshold_is_sharp(self):
        rule = gauss_rule(0.5, 5)
        t = np.asarray(rule.nodes)
        w = np.asarray(rule.weights)
        mass = ball_constant(1, 0.5)
        exact8 = interval_moment(8, 0.5) * mass
        exact10 = interval_moment(10, 0.5) * mass
        assert abs(float(w @ t ** 8) - exact8) <= 1e-14
        assert abs(float(w @ t ** 10) - exact10) > 1e-6

    def test_rule_type_is_defined_here_without_an_import_cycle(self):
        # the public paths all name the one class, and orthopoly, which
        # defines it, imports nothing from cubature, which uses it
        assert isinstance(gauss_rule(0.5, 3), QuadratureRule)
        assert spherebound.QuadratureRule is cubature.QuadratureRule is QuadratureRule
        imported = {node.module for node in ast.walk(ast.parse(inspect.getsource(orthopoly)))
                    if isinstance(node, ast.ImportFrom)}
        assert not any(m and m.endswith("cubature") for m in imported)

    def test_eigen_system_consistent(self):
        T = jacobi_matrix(JacobiParams(0.0, 0.0), 7)
        w, V = T.eigen_system()
        assert_allclose(w, T.eigenvalues(), rtol=1e-15, atol=1e-15)
        # columns orthonormal
        assert_allclose(V.T @ V, np.eye(7), atol=1e-12)


class TestTridiagonal:
    def test_order_one_is_its_diagonal(self):
        rng = np.random.default_rng(5)
        for a, b in rng.uniform(-0.99, 5.0, size=(50, 2)):
            T = jacobi_matrix(JacobiParams(a, b), 1)
            w, V = T.eigen_system()
            assert np.array_equal(T.eigenvalues(), T.diag)
            assert np.array_equal(w, T.diag)
            assert np.array_equal(V, [[1.0]])

    def test_matches_dense_eigenvalues(self):
        rng = np.random.default_rng(4)
        d = rng.uniform(-1, 1, size=9)
        e = rng.uniform(0.1, 1, size=8)
        T = TridiagonalMatrix(diag=d, offdiag=e)
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        assert_allclose(T.eigenvalues(), np.linalg.eigvalsh(dense), rtol=1e-12,
                        atol=1e-12)
