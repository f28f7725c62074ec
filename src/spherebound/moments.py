"""Closed-form moments of the uniform measure on the unit sphere.

All sphere moments are taken against the normalized (probability) surface
measure.  Every moment is one formula (G. B. Folland, Amer. Math. Monthly
108 (2001) 446-448): prod_k (a_k - 1)!! / prod_{j<|a|/2} (n + 2j), zero if
any a_k is odd.  Its integer tables (_moment_tables) back moment_fraction
exactly and basis.moment_matrix in float64, and interval_moment is its one
coordinate product with n = 2 nu + 2, in float64.  Only the two masses, the
surface area and the ball constant, are Gamma ratios, evaluated in log space.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

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
    total mass, by Folland's formula in one coordinate.  Zero for odd k by symmetry.
    """
    k = as_index(k, "moment order", 0)
    nu = float(nu)
    if not -0.5 < nu < math.inf:
        raise ValueError("weight exponent requires finite nu > -1/2")
    # prod_{j<k/2} (2j + 1) / (2j + 2 nu + 2), Folland's with n = 2 nu + 2
    return 0.0 if k % 2 else math.prod(((2 * j + 1) / (2 * j + 2 * nu + 2)
                                        for j in range(k // 2)), start=1.0)


@lru_cache(maxsize=32)
def _moment_tables(n, top):
    """(odd, rise, odd2, rise2): odd[h] = (2h - 1)!! and rise[h] = prod_{j<h} (n + 2j)
    for h < top as ints, and in float64 over top^h, rounded once, at the indices 2h and
    2h + 1 of a full exponent, for h < top - n up to the first h where it falls below
    float64's normal range.  The scales cancel in prod_k odd2[P_k] / rise2[|P|], and no
    scaled entry exceeds 1 (factors j and top - n - 1 - j of rise multiply to below top^2),
    where the ints pass float range.  Read-only, as the cache hands them to every caller."""
    odd, rise = [1], [1]
    for h in range(1, top):
        odd.append(odd[-1] * (2 * h - 1))
        rise.append(rise[-1] * (n + 2 * h - 2))
    scaled = [np.array([v / top ** h for h, v in enumerate(t[:max(top - n, 0)])] + [0.0])
              for t in (odd, rise)]
    # each table ends before its first entry below float64's normal range (the 0.0 at the latest)
    scaled = [np.repeat(t[:np.argmin(t >= np.finfo(float).tiny)], 2) for t in scaled]
    for t in scaled:
        t.flags.writeable = False
    return (tuple(odd), tuple(rise), *scaled)


class MomentOracle:
    """Monomial moments of the normalized surface measure on S^{n-1}."""

    def __init__(self, n):
        self.n = as_index(n, "dimension", 2)

    def moment(self, alpha):
        """Normalized moment of x^alpha, the exact moment_fraction rounded to float."""
        return float(self.moment_fraction(alpha))

    def moment_fraction(self, alpha):
        """Exact rational moment of x^alpha by Folland's formula; zero if any exponent is odd."""
        alpha = _check_exponents(self.n, alpha)
        if any(e % 2 for e in alpha):
            return Fraction(0)
        s = sum(alpha) // 2
        odd, rise = _moment_tables(self.n, 1 << s.bit_length())[:2]
        return Fraction(math.prod(odd[e // 2] for e in alpha), rise[s])

    def integrate(self, p):
        """Normalized integral of a polynomial over the sphere."""
        check_dimension(self.n, p)
        return sum(c * self.moment(a) for a, c in p.terms.items())

