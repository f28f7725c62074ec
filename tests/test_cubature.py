"""Circle and product sphere rules, exactness, and certified lower bounds."""

import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spherebound import (JacobiParams, MomentOracle, circle_rule,
                         cubature_lower_bound, max_exactness_error, motzkin_form,
                         parse_poly, save_rule_csv, smallest_root, sphere_product_rule,
                         surface_area, upper_bound)
from spherebound import cubature
from spherebound.cubature import QuadratureRule, select_rule_degree
from spherebound.orthopoly import gauss_rule
from spherebound.polynomials import Polynomial


class TestCircleRule:
    def test_single_node(self):
        rule = circle_rule(1)
        assert rule.size == 1
        assert_allclose(rule.weights, [1.0])
        assert_allclose(rule.nodes[0], [1.0, 0.0], atol=1e-16)

    def test_equal_weights_on_uniform_grid(self):
        rule = circle_rule(8)
        ang = 2 * math.pi * np.arange(8) / 8
        assert_allclose(rule.weights, np.full(8, 1 / 8), rtol=0, atol=0)
        assert_allclose(rule.nodes, np.column_stack([np.cos(ang), np.sin(ang)]))

    def test_trig_exactness_below_node_count(self):
        for d in (3, 8, 13):
            rule = circle_rule(d)
            w, ang = np.asarray(rule.weights), 2 * math.pi * np.arange(d) / d
            assert rule.exactness_degree == d - 1
            for k in range(1, d):
                assert abs(float(w @ np.cos(k * ang))) <= 1e-13
                assert abs(float(w @ np.sin(k * ang))) <= 1e-13
            assert_allclose(float(w @ np.ones(d)), 1.0, rtol=1e-15)

    def test_node_count_frequency(self):
        # the d-point grid aliases cos(d theta) to 1 but kills sin(d theta)
        for d in (5, 8):
            rule = circle_rule(d)
            w, ang = np.asarray(rule.weights), 2 * math.pi * np.arange(d) / d
            assert_allclose(float(w @ np.cos(d * ang)), 1.0, rtol=1e-12)
            assert abs(float(w @ np.sin(d * ang))) <= 1e-13

    def test_linear_objective_node_minimum(self):
        for r in (1, 3, 6):
            d = 2 * r + 1
            rule = circle_rule(d)
            vals = np.asarray(rule.nodes)[:, 0]
            assert_allclose(vals.min(), math.cos(2 * math.pi * r / d), rtol=1e-14)


class TestQuadratureRule:
    def test_fields_are_nodes_weights_and_degree(self):
        names = [f.name for f in dataclasses.fields(QuadratureRule)]
        assert names == ["nodes", "weights", "exactness_degree"]

    def test_dim_read_from_nodes(self):
        assert gauss_rule(0.5, 3).dim == 1
        assert circle_rule(5).dim == 2
        for n in (2, 3, 5):
            assert sphere_product_rule(n, 2).dim == n

    def test_exactness_error_refuses_interval_rules(self):
        with pytest.raises(ValueError, match="interval"):
            max_exactness_error(gauss_rule(0.5, 3))


class TestSphereProductRule:
    def test_node_count_and_mass(self):
        for n in (2, 3, 4, 5):
            for d in (1, 2, 4):
                rule = sphere_product_rule(n, d)
                assert rule.size == 2 * d * d ** (n - 2)
                assert np.all(np.asarray(rule.weights) > 0)
                assert_allclose(rule.total_mass(), surface_area(n), rtol=1e-12)

    def test_nodes_on_sphere(self):
        rule = sphere_product_rule(4, 3)
        norms = np.linalg.norm(np.asarray(rule.nodes), axis=1)
        assert_allclose(norms, 1.0, rtol=0, atol=1e-12)

    def test_two_dimensional_case_is_scaled_circle_rule(self):
        d = 4
        rule = sphere_product_rule(2, d)
        circ = circle_rule(2 * d)
        assert_allclose(rule.nodes, circ.nodes, atol=1e-15)
        assert_allclose(rule.weights,
                        np.asarray(circ.weights) * surface_area(2), rtol=1e-14)

    def test_exact_through_declared_degree(self):
        for n in (3, 4):
            for d in range(1, 6):
                rule = sphere_product_rule(n, d)
                assert rule.exactness_degree == 2 * d - 1
                assert max_exactness_error(rule) <= 1e-10

    def test_exactness_threshold_is_sharp(self):
        # some monomial of degree 2d must fail; scan them all since a few
        # (e.g. pure powers in n=4) integrate exactly by accident
        o3, o4 = MomentOracle(3), MomentOracle(4)
        for n, oracle in [(3, o3), (4, o4)]:
            for d in (1, 2, 3, 5):
                rule = sphere_product_rule(n, d)
                X = np.asarray(rule.nodes)
                w = np.asarray(rule.weights)
                mass = rule.total_mass()
                worst = 0.0
                for alpha in _exact_degree(n, 2 * d):
                    target = mass * oracle.moment(alpha)
                    got = float(w @ np.prod(X ** np.asarray(alpha), axis=1))
                    err = abs(got - target) / (abs(target) if target else 1.0)
                    worst = max(worst, err)
                assert worst > 1e-6


def _angles_to_points_reference(T):
    """Generalized spherical coordinates of an (m, n-1) angle array, with
    trigonometric functions applied to the full array."""
    m, k = T.shape
    out = np.empty((m, k + 1))
    suffix = np.ones(m)
    out[:, k] = np.cos(T[:, k - 1])
    for j in range(k - 1, 0, -1):
        suffix = suffix * np.sin(T[:, j])
        out[:, j] = np.cos(T[:, j - 1]) * suffix
    out[:, 0] = suffix * np.sin(T[:, 0])
    return out


def _sphere_product_rule_reference(n, d):
    """The product rule built on a meshgrid of the angles: the construction
    sphere_product_rule replaced with 1-D trigonometry and broadcasting."""
    if n == 2:
        base = circle_rule(2 * d)
        return base.nodes, base.weights * surface_area(2)
    angle_grids = [math.pi * np.arange(2 * d) / d]
    weight_grids = [np.full(2 * d, math.pi / d)]
    for i in range(2, n):
        g = gauss_rule((i - 1) / 2.0, d)
        angle_grids.append(np.arccos(g.nodes[::-1]))
        weight_grids.append(g.weights[::-1])
    mesh = np.meshgrid(*angle_grids, indexing="ij")
    angles = np.column_stack([m.ravel() for m in mesh])
    weights = np.ones(len(angles))
    for w in np.meshgrid(*weight_grids, indexing="ij"):
        weights = weights * w.ravel()
    weights *= surface_area(n) / weights.sum()
    return _angles_to_points_reference(angles), weights


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_product_rule_bit_identical_to_meshgrid_reference(n, d):
    rule = sphere_product_rule(n, d)
    nodes, weights = _sphere_product_rule_reference(n, d)
    assert rule.nodes.shape == (2 * d ** (n - 1), n)
    assert np.array_equal(rule.nodes, nodes)
    assert np.array_equal(rule.weights, weights)


def test_product_rule_peak_memory_is_its_output():
    # no full grid of angles or other node-sized temporaries beyond a
    # quarter of the returned arrays
    tracemalloc.start()
    try:
        rule = sphere_product_rule(6, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (rule.nodes.nbytes + rule.weights.nbytes)


def _exact_degree(n, deg):
    def rec(prefix, remaining, budget):
        if remaining == 1:
            yield prefix + (budget,)
            return
        for e in range(budget + 1):
            yield from rec(prefix + (e,), remaining - 1, budget - e)

    yield from rec((), n, deg)


class TestLowerBound:
    def test_constant_objective(self):
        assert cubature_lower_bound(parse_poly("5", 3), 3, 4) == 5.0

    def test_rule_degree_selection(self):
        assert select_rule_degree(1, 4) == 5
        assert select_rule_degree(6, 0) == 4
        assert select_rule_degree(0, 0) == 1
        for bad in ((2.5, 1), (1, 2.5), (4.0, 1)):
            with pytest.raises(ValueError, match="integer"):
                select_rule_degree(*bad)
        assert select_rule_degree(np.int64(1), np.int64(4)) == 5

    def test_last_coordinate_hits_gegenbauer_root(self):
        f = parse_poly("x3", 3)
        got = cubature_lower_bound(f, 3, 4)
        assert_allclose(got, smallest_root(JacobiParams.gegenbauer(0.5), 5), rtol=1e-14)

    def test_circle_linear_objective(self):
        # deg 1 + 2r = 7 forces the 9-node rule; its minimum of x1 is the
        # grid angle nearest pi
        f = parse_poly("x1", 2)
        got = cubature_lower_bound(f, 2, 3)
        assert_allclose(got, math.cos(8 * math.pi / 9), rtol=1e-14)

    def test_circle_certificate_stays_below_bound(self):
        f = parse_poly("x1", 2)
        for r in range(1, 13):
            lb = cubature_lower_bound(f, 2, r)
            ub = upper_bound(f, 2, r).value
            assert lb <= ub + 1e-12
            assert -1.0 < lb

    def test_below_upper_bound(self):
        f = motzkin_form()
        for r in (2, 4, 6):
            lb = cubature_lower_bound(f, 3, r)
            ub = upper_bound(f, 3, r).value
            assert lb <= ub + 1e-12

    def test_node_budget_guard(self, monkeypatch):
        # the check comes before any grid: no Gauss rule, no node-sized array
        # (the refused certificate rule would hold 5.6 million nodes, the
        # refused product rule 2 * 100^5, 894 GiB of nodes)
        def no_grid(*args):
            raise AssertionError("grid built before the budget check")

        monkeypatch.setattr(cubature, "gauss_rule", no_grid)
        monkeypatch.setattr(cubature, "circle_rule", no_grid)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="over the budget"):
                cubature_lower_bound(parse_poly("x5", 5), 5, 40)
            with pytest.raises(ValueError, match="over the budget"):
                cubature_lower_bound(parse_poly("x1", 2), 2, cubature.NODE_BUDGET // 2)
            for n, d in ((6, 100), (3, 1582), (2, cubature.NODE_BUDGET)):
                with pytest.raises(ValueError, match="over the budget"):
                    sphere_product_rule(n, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        # d = 1582 is the smallest refused on S^2
        assert 2 * 1581 ** 2 <= cubature.NODE_BUDGET < 2 * 1582 ** 2

    def test_level_and_dimension_validated(self):
        f = parse_poly("x3", 3)
        for n, r in ((3, -1), (3, 2.5), (3.9, 2), (1, 2)):
            with pytest.raises(ValueError):
                cubature_lower_bound(f, n, r)
        assert cubature_lower_bound(f, np.int64(3), np.int64(2)) == cubature_lower_bound(f, 3, 2)

    def test_sandwich_for_last_coordinate(self):
        # lower certificate <= bound <= smallest Jacobi root of the matching
        # weight, and everything within a C/r^2 collar of -1; for this
        # objective the three agree exactly, so the comparisons carry a slack
        # for the pencil's eigensolve noise (Gram conditioning grows like 4^r)
        C = 5.1
        tol = 1e-7
        for n in (2, 3, 4, 5):
            f = parse_poly(f"x{n}", n)
            for r in (4, 8, 12):
                lb = cubature_lower_bound(f, n, r)
                ub = upper_bound(f, n, r).value
                root = smallest_root(JacobiParams((n - 3) / 2, (n - 3) / 2), r + 1)
                assert lb - tol <= ub <= root + tol
                for v in (lb, ub, root):
                    assert -1.0 < v <= -1.0 + C / r ** 2

    def test_tightness_window(self):
        for n in (3, 4):
            f = parse_poly(f"x{n}", n)
            for r in range(4, 21):
                lb = cubature_lower_bound(f, n, r)
                assert (1.0 + lb) * r * r >= 0.5


def _random_quartic(n, seed):
    rng = np.random.default_rng(seed)
    terms = {tuple(int(e) for e in rng.multinomial(4, [1 / n] * n)): float(rng.normal())
             for _ in range(8)}
    return Polynomial(n, terms)


# (n, r) with a quartic objective, so the rule has d = r + 3; the first of
# each n fits in one block of _node_blocks, the second takes several, the
# last one partly full
@pytest.mark.parametrize("n, r, blocks", [(3, 0, 1), (3, 47, 2), (4, 1, 1), (4, 17, 4),
                                          (5, 1, 1), (5, 4, 2), (6, 0, 1), (6, 3, 3),
                                          (6, 6, 18)])
def test_streamed_certificate_is_the_minimum_over_the_whole_rule(n, r, blocks):
    f = _random_quartic(n, seed=10 * n + r)
    d = select_rule_degree(f.degree, r)
    assert d == r + 3
    assert len(list(cubature._node_blocks(cubature._product_grids(n, d)[0]))) == blocks
    whole = float(f.eval_many(sphere_product_rule(n, d).nodes).min())
    assert cubature_lower_bound(f, n, r) == whole


def test_certificate_working_set_is_one_block():
    # the r = 9 rule on S^5 has 497,664 nodes (22.8 MiB); a block is one
    # first-angle slice of 20,736
    f = parse_poly("1.3*x1^4 + 1.3*x2^4 + 1.3*x3^4 + 1.3*x4^4 + 1.3*x5^4 + 1.3*x6^4", 6)
    tracemalloc.start()
    try:
        value = cubature_lower_bound(f, 6, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert 1.3 / 6 <= value <= 1.3 / 6 + 0.05


class TestExport:
    def test_csv_layout(self):
        rule = sphere_product_rule(3, 2)
        buf = io.StringIO()
        save_rule_csv(rule, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "x1,x2,x3,weight"
        assert len(lines) == rule.size + 1
        row = np.array([float(v) for v in lines[1].split(",")])
        assert_allclose(row[:3], np.asarray(rule.nodes)[0], rtol=1e-16)
        assert_allclose(row[3], np.asarray(rule.weights)[0], rtol=1e-16)

    def test_interval_rule_layout(self):
        rule = gauss_rule(0.5, 4)
        buf = io.StringIO()
        save_rule_csv(rule, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "x1,weight"
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert rows.shape == (4, 2)
        assert np.array_equal(rows, np.column_stack([rule.nodes, rule.weights]))
