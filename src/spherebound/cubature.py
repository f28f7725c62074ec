"""Positive quadrature on the circle and product cubature on spheres.

The product rule combines an equispaced angular grid with Gauss-Gegenbauer
nodes in generalized spherical coordinates and integrates every polynomial
of degree at most 2d-1 exactly; that threshold is sharp and is certified by
tests against the closed-form moments. Every rule is a QuadratureRule: its
nodes, its positive weights and its certified exactness degree, nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import check_level
from .moments import MomentOracle, surface_area
from .orthopoly import gauss_rule
from .polynomials import EVAL_BLOCK, Polynomial, as_index


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes, positive weights, and the certified polynomial exactness degree.

    Interval rules have 1-D nodes, reals in [-1, 1]; circle and sphere rules
    have one point per row of a 2-D nodes array.
    """

    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    @property
    def dim(self):
        return 1 if self.nodes.ndim == 1 else self.nodes.shape[1]

    @property
    def size(self):
        return len(self.weights)

    def total_mass(self):
        return float(self.weights.sum())

    def integrate(self, p):
        """Apply the rule to a polynomial (1 variable for interval rules)."""
        if self.dim == 1:
            if p.n != 1:
                raise ValueError("interval rules integrate univariate polynomials")
            vals = p.eval_many(self.nodes[:, None])
        else:
            vals = p.eval_many(self.nodes)
        return float(self.weights @ vals)


def circle_rule(d):
    """Equispaced d-point rule for the normalized measure on the circle.

    Exact for trigonometric polynomials of degree <= d-1, and additionally
    for sin(d theta); it is not exact on cos(d theta) (the rule sums it to 1
    while the integral is 0), so the certified degree is d-1.
    """
    d = as_index(d, "node count")
    if d < 1:
        raise ValueError("need at least one node")
    theta = 2.0 * math.pi * np.arange(d) / d
    nodes = np.column_stack([np.cos(theta), np.sin(theta)])
    weights = np.full(d, 1.0 / d)
    return QuadratureRule(nodes=nodes, weights=weights, exactness_degree=d - 1)


def sphere_product_rule(n, d):
    """Product cubature on S^{n-1}, exact for polynomials of degree <= 2d-1.

    Uses the 2d-point equispaced grid in the first angle and the arccosines
    of d-point Gauss-Gegenbauer nodes (index (i-1)/2) in the remaining ones;
    node count is 2d * d^(n-2) and the weights sum to surface_area(n).
    """
    n = as_index(n, "dimension")
    d = as_index(d, "parameter d")
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if d < 1:
        raise ValueError("parameter d must be at least 1")
    if n == 2:
        base = circle_rule(2 * d)
        return QuadratureRule(nodes=base.nodes,
                              weights=base.weights * surface_area(2),
                              exactness_degree=2 * d - 1)
    angle_grids, weight_grids = _product_grids(n, d)
    nodes = np.empty((2 * d ** (n - 1), n))
    row = 0
    for block in _node_blocks(angle_grids):
        nodes[row:row + len(block)] = block
        row += len(block)
    weights = 1.0
    for w in np.ix_(*weight_grids):
        weights = weights * w
    weights = weights.reshape(-1)
    weights *= surface_area(n) / weights.sum()
    return QuadratureRule(nodes=nodes, weights=weights, exactness_degree=2 * d - 1)


def _product_grids(n, d):
    """Angle and weight grids of the product rule on S^{n-1}, n >= 3."""
    angle_grids = [math.pi * np.arange(2 * d) / d]
    weight_grids = [np.full(2 * d, math.pi / d)]
    for i in range(2, n):
        g = gauss_rule((i - 1) / 2.0, d)
        angle_grids.append(np.arccos(g.nodes[::-1]))
        weight_grids.append(g.weights[::-1])
    return angle_grids, weight_grids


def _node_blocks(angle_grids):
    """The product rule's nodes as consecutive (rows, n) blocks.

    Rows come in ij order of the angle grids, first angle slowest.  A block
    is a run of whole first-angle slices, d^(n-2) rows each, grouped until it
    holds at least EVAL_BLOCK rows or the whole grid.
    """
    # open meshes (np.ix_) broadcast over the ij-ordered product grid; the
    # trig functions run on the 1-D grids only
    k = len(angle_grids)
    n = k + 1
    cos = np.ix_(*[np.cos(t) for t in angle_grids])
    sin = np.ix_(*[np.sin(t) for t in angle_grids])
    # generalized spherical coordinates: x_n = cos t_{n-1},
    # x_j = cos t_{j-1} * prod_{i>=j} sin t_i for 1 < j < n, x_1 = prod sin t_i,
    # with the sines multiplied in from the last angle down; only cos t_1 and
    # sin t_1 vary along the first axis, so the suffix products are slice-sized
    suffixes = {}
    suffix = 1.0
    for j in range(k - 1, 0, -1):
        suffix = suffix * sin[j]
        suffixes[j] = suffix
    slice_shape = tuple(len(t) for t in angle_grids[1:])
    per_block = max(1, -(-EVAL_BLOCK // math.prod(slice_shape)))
    for start in range(0, len(angle_grids[0]), per_block):
        rows = slice(start, start + per_block)
        cos_b = [cos[0][rows]] + list(cos[1:])
        block = np.empty((len(cos_b[0]),) + slice_shape + (n,))
        block[..., k] = cos_b[k - 1]
        for j in range(k - 1, 0, -1):
            block[..., j] = cos_b[j - 1] * suffixes[j]
        block[..., 0] = suffixes[1] * sin[0][rows]
        yield block.reshape(-1, n)


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
    return max(1, (int(f_degree) + 2 * int(r) + 2) // 2)


def cubature_lower_bound(f, n, r, node_budget=5_000_000):
    """Certified lower bound on the level-r upper bound: min of f over a rule.

    The rule is chosen exact to degree deg f + 2r, so for any admissible
    density the expectation of f is a convex combination of node values.
    On the circle an N-point equispaced rule is exact to trigonometric
    degree N - 1 only, so N must exceed deg f + 2r; the smallest odd such N
    is used (an odd grid never contains the antipode of a node, which keeps
    linear-objective certificates strictly above -1).  On higher spheres the
    product rule is never built: its nodes are generated and evaluated one
    block of first-angle slices (at least EVAL_BLOCK rows) at a time, and no
    weights are formed, so the working set is one block, not the whole rule.
    """
    n, r = check_level(n, r)
    if f.n != n:
        raise ValueError(f"polynomial dimension {f.n}, expected {n}")
    if n == 2:
        count = max(1, f.degree + 2 * r + 1)
        rule = circle_rule(count + 1 if count % 2 == 0 else count)
        return float(f.eval_many(rule.nodes).min())
    d = select_rule_degree(f.degree, r)
    count = 2 * d * d ** (n - 2)
    if count > node_budget:
        raise ValueError(f"product rule needs {count} nodes, over the budget {node_budget}")
    angle_grids, _ = _product_grids(n, d)
    return float(np.min([f.eval_many(block).min() for block in _node_blocks(angle_grids)]))


def save_rule_csv(rule, fh):
    """Write rule nodes and weights as CSV: x1,...,xn,weight."""
    fh.write(",".join(f"x{i + 1}" for i in range(rule.dim)) + ",weight\n")
    for row in np.column_stack([rule.nodes, rule.weights]):
        fh.write(",".join("%.17g" % v for v in row) + "\n")
