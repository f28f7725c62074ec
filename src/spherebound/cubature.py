"""Positive quadrature on the circle and product cubature on spheres.

The product rule combines an equispaced angular grid with Gauss-Gegenbauer
nodes in generalized spherical coordinates and integrates every polynomial
of degree at most 2d-1 exactly; that threshold is sharp and is certified by
tests against the closed-form moments. Every rule is an orthopoly
QuadratureRule: its nodes, its positive weights and its certified exactness
degree. A product node is (sin t_1 y1, cos t_1 y1, x3, ..., xn) for a point y
of one slice grid, from which the rule and the lower certificate are built;
the certificate never forms the rule.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import check_level
from .moments import MomentOracle, surface_area
from .orthopoly import QuadratureRule, gauss_rule
from .polynomials import EVAL_BLOCK, Polynomial, as_index

# most nodes a product or circle rule (and most points a density grid) may
# have; check_budget refuses larger ones before any of their arrays is built
NODE_BUDGET = 5_000_000


def check_budget(count, what, unit):
    """Raise ValueError if count exceeds NODE_BUDGET: the one size rule."""
    if count > NODE_BUDGET:
        raise ValueError(f"{what} needs {count} {unit}, over the budget {NODE_BUDGET}")


def circle_rule(d):
    """Equispaced d-point rule for the normalized measure on the circle.

    Exact for trigonometric polynomials of degree <= d-1, and additionally
    for sin(d theta); it is not exact on cos(d theta) (the rule sums it to 1
    while the integral is 0), so the certified degree is d-1.  More than
    NODE_BUDGET nodes raise ValueError before any array is built.
    """
    d = as_index(d, "node count", 1)
    check_budget(d, "circle rule", "nodes")
    theta = 2.0 * math.pi * np.arange(d) / d
    nodes = np.column_stack([np.cos(theta), np.sin(theta)])
    weights = np.full(d, 1.0 / d)
    return QuadratureRule(nodes=nodes, weights=weights, exactness_degree=d - 1)


def sphere_product_rule(n, d):
    """Product cubature on S^{n-1}, exact for polynomials of degree <= 2d-1.

    Uses the 2d-point equispaced grid in the first angle and the arccosines
    of d-point Gauss-Gegenbauer nodes (index (i-1)/2) in the remaining ones;
    node count is 2d * d^(n-2) and the weights sum to surface_area(n).
    A rule of more than NODE_BUDGET nodes raises ValueError before any grid
    is built.
    """
    n, d = as_index(n, "dimension", 2), as_index(d, "parameter d", 1)
    check_budget(2 * d ** (n - 1), "product rule", "nodes")
    if n == 2:
        base = circle_rule(2 * d)
        return QuadratureRule(nodes=base.nodes,
                              weights=base.weights * surface_area(2),
                              exactness_degree=2 * d - 1)
    angle_grids, weight_grids = _product_grids(n, d)
    y = _slice_points(angle_grids[1:])
    t = angle_grids[0][:, None]
    nodes = np.empty((2 * d, len(y), n))  # first angle slowest
    np.multiply(np.sin(t), y[:, 0], out=nodes[..., 0])
    np.multiply(np.cos(t), y[:, 0], out=nodes[..., 1])
    nodes[..., 2:] = y[:, 1:]
    weights = 1.0
    for w in np.ix_(*weight_grids):
        weights = weights * w
    weights = weights.reshape(-1)
    weights *= surface_area(n) / weights.sum()
    return QuadratureRule(nodes=nodes.reshape(-1, n), weights=weights,
                          exactness_degree=2 * d - 1)


def _product_grids(n, d):
    """Angle and weight grids of the product rule on S^{n-1}, n >= 3."""
    angle_grids = [math.pi * np.arange(2 * d) / d]
    weight_grids = [np.full(2 * d, math.pi / d)]
    for i in range(2, n):
        g = gauss_rule((i - 1) / 2.0, d)
        angle_grids.append(np.arccos(g.nodes[::-1]))
        weight_grids.append(g.weights[::-1])
    return angle_grids, weight_grids


def _slice_points(angle_grids):
    """The slice grid y = (y1, x3, ..., xn) over the angles t_2..t_{n-1}, in ij order.

    x_n = cos t_{n-1}, x_j = cos t_{j-1} prod_{i>=j} sin t_i and y1 = prod sin t_i,
    on open meshes of the 1-D trig values, sines multiplied from the last angle down.
    """
    k = len(angle_grids)
    cos = np.ix_(*[np.cos(t) for t in angle_grids])
    sin = np.ix_(*[np.sin(t) for t in angle_grids])
    y = np.empty(tuple(len(t) for t in angle_grids) + (k + 1,))
    y[..., k] = cos[k - 1]
    suffix = 1.0
    for j in range(k - 1, 0, -1):
        suffix = suffix * sin[j]
        y[..., j] = cos[j - 1] * suffix
    y[..., 0] = suffix * sin[0]
    return y.reshape(-1, k + 1)


def max_exactness_error(rule, oracle=None):
    """Largest error over all monomials up to the declared exactness degree.

    Compares rule sums against (total mass) * normalized moment; relative
    error where the moment is nonzero, absolute otherwise.
    """
    if rule.dim == 1:
        raise ValueError("use interval_moment directly for interval rules")
    n = rule.dim
    oracle = oracle or MomentOracle(n)
    mass = rule.total_mass()
    worst = 0.0
    for alpha in _monomials_up_to(n, rule.exactness_degree):
        target = mass * oracle.moment(alpha)
        got = float(rule.weights @ Polynomial(n, {alpha: 1.0}).eval_many(rule.nodes))
        err = abs(got - target) / (abs(target) if target != 0.0 else 1.0)
        worst = max(worst, err)
    return worst


def _monomials_up_to(n, deg):
    def rec(prefix, remaining, budget):
        if remaining == 1:
            for e in range(budget + 1):
                yield prefix + (e,)
            return
        for e in range(budget + 1):
            yield from rec(prefix + (e,), remaining - 1, budget - e)

    yield from rec((), n, deg)


def select_rule_degree(f_degree, r):
    """Smallest d with 2d - 1 >= deg f + 2r."""
    return max(1, (as_index(f_degree, "degree", 0) + 2 * as_index(r, "level", 0) + 2) // 2)


def cubature_lower_bound(f, n, r):
    """Certified lower bound on the level-r upper bound: min of f over a rule.

    The rule is chosen exact to degree deg f + 2r, so for any admissible
    density the expectation of f is a convex combination of node values.
    On the circle an N-point equispaced rule is exact to trigonometric
    degree N - 1 only, so N must exceed deg f + 2r; the smallest odd such N
    is used (an odd grid never contains the antipode of a node, which keeps
    linear-objective certificates strictly above -1).  On higher spheres the
    product rule is never built: f = sum sin^a1 t_1 cos^a2 t_1 G(y) over the
    exponents (a1, a2) of x1 and x2 (G puts a1 + a2 on y1), and each G is
    evaluated on chunks of EVAL_BLOCK slice points, so the working set is one
    slice and one chunk.  The value is the minimum of f over the rule's nodes
    up to rounding, and exactly that when f has no x1 or x2.  A rule of more
    than NODE_BUDGET nodes raises ValueError before any grid is built.
    """
    n, r = check_level(n, r, f)
    d = select_rule_degree(f.degree, r)
    count = (f.degree + 2 * r + 1) | 1 if n == 2 else 2 * d ** (n - 1)
    check_budget(count, "certificate rule", "nodes")
    if n == 2:
        return float(f.eval_many(circle_rule(count).nodes).min())
    angle_grids, _ = _product_grids(n, d)
    groups = {}
    for a, c in f.terms.items():
        groups.setdefault(a[:2], {})[(a[0] + a[1],) + a[2:]] = c
    t = angle_grids[0][:, None]
    parts = [(np.sin(t) ** a1 * np.cos(t) ** a2, Polynomial(n - 1, g))
             for (a1, a2), g in groups.items()]
    y = _slice_points(angle_grids[1:])
    low = np.inf
    for start in range(0, len(y), EVAL_BLOCK):
        chunk = y[start:start + EVAL_BLOCK]
        total = np.zeros((2 * d, len(chunk)))
        for w, g in parts:
            total += w * g.eval_many(chunk)
        low = min(low, total.min())
    return float(low)


def save_rule_csv(rule, fh):
    """Write rule nodes and weights as CSV: x1,...,xn,weight."""
    fh.write(",".join(f"x{i + 1}" for i in range(rule.dim)) + ",weight\n")
    for row in np.column_stack([rule.nodes, rule.weights]):
        fh.write(",".join("%.17g" % v for v in row) + "\n")
