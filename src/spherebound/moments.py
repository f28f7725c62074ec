"""Closed-form moments of the uniform measure on the unit sphere.

All sphere moments are taken against the normalized (probability) surface
measure.  MomentOracle holds the one monomial moment formula, in exact
rationals: moment_fraction backs the extended-precision pencil solves, and
moment is its value correctly rounded to float.  The surface area, the
ball constant and the interval moments are Gamma ratios evaluated in log
space, so degrees up to ~30 and dimensions up to ~10 stay well inside
double range.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polynomials import _check_exponents, as_index, check_dimension

_LOG_PI = math.log(math.pi)


def surface_area(n):
    """Total surface measure of the unit sphere in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    n = as_index(n, "dimension", 1)
    return 2.0 * math.exp(0.5 * n * _LOG_PI - math.lgamma(0.5 * n))


def ball_constant(d, lam):
    """Mass of the weight (1 - |x|^2)^(lam - 1/2) over the unit ball in R^d."""
    d = as_index(d, "dimension", 1)
    lam = float(lam)
    if not -0.5 < lam < math.inf:
        raise ValueError("weight exponent requires finite lam > -1/2")
    return math.exp(0.5 * d * _LOG_PI + math.lgamma(lam + 0.5)
                    - math.lgamma(lam + 0.5 * (d + 1)))


def interval_moment(k, nu):
    """Normalized k-th moment of (1 - t^2)^(nu - 1/2) on [-1, 1].

    Returns the integral of t^k against the weight, divided by the weight's
    total mass.  Zero for odd k by symmetry.
    """
    k = as_index(k, "moment order", 0)
    nu = float(nu)
    if not -0.5 < nu < math.inf:
        raise ValueError("weight exponent requires finite nu > -1/2")
    if k % 2 == 1:
        return 0.0
    # B((k+1)/2, nu+1/2) / B(1/2, nu+1/2)
    return math.exp(math.lgamma(0.5 * (k + 1)) + math.lgamma(nu + 1.0)
                    - math.lgamma(0.5 * k + nu + 1.0) - math.lgamma(0.5))


class MomentOracle:
    """Monomial moments of the normalized surface measure on S^{n-1}."""

    def __init__(self, n):
        self.n = as_index(n, "dimension", 2)

    def moment(self, alpha):
        """Normalized moment of x^alpha, the exact moment_fraction rounded to float."""
        return float(self.moment_fraction(alpha))

    def moment_fraction(self, alpha):
        """Exact rational moment: prod (a_i - 1)!! / prod_{k=1}^{s/2} (n + 2k - 2).

        Zero when any exponent is odd.
        """
        alpha = _check_exponents(self.n, alpha)
        if any(e % 2 for e in alpha):
            return Fraction(0)
        num = 1
        for e in alpha:
            for j in range(e - 1, 0, -2):
                num *= j
        den = 1
        for k in range(1, sum(alpha) // 2 + 1):
            den *= self.n + 2 * k - 2
        return Fraction(num, den)

    def integrate(self, p):
        """Normalized integral of a polynomial over the sphere."""
        check_dimension(self.n, p)
        return sum(c * self.moment(a) for a, c in p.terms.items())

