"""Reference values and result checks, computed apart from spherebound.

Nothing here imports spherebound: the references come from closed forms,
from scipy.special and from quadrature rules built with numpy, so a fault
in the package cannot hide itself by also corrupting its own reference.
Every check returns a list of problems; an empty list means the value
passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import roots_jacobi

# published Motzkin-form bounds for levels 0..9 (four decimals)
MOTZKIN_TABLE = (0.1714, 0.0952, 0.0519, 0.0457, 0.0287,
                 0.0283, 0.0193, 0.0177, 0.0139, 0.0122)
MOTZKIN_TABLE_TOL = 5e-4

MONOTONE_TOL = 1e-10     # a level-(r+1) bound may exceed level r by this much
XN_ABS_TOL = 1e-4        # x_n bound within this of the exact level-r value
XN_BELOW_REL = 1e-9      # and at most this far below it, relative
EXACT_REL_TOL = 1e-12    # closed-form values computed in floating point
EQUAL_TOL = 1e-10        # two routes to the same number
DENSITY_TOL = 1e-10      # integral of h and E_h[f] on the independent rule
DIGITS_CAP = 15.0


def sphere_mean(terms, n):
    """Exact mean of sum c_a x^a over S^{n-1} under the normalized measure.

    The mean of x^a is prod (a_i - 1)!! / (n (n + 2) ... (n + |a| - 2)) for
    all-even a, and zero otherwise.  Coefficients are taken as exact
    rationals, so the result is exact for float coefficients too.
    """
    total = Fraction(0)
    for a, c in terms.items():
        if any(e % 2 for e in a):
            continue
        num = 1
        for e in a:
            num *= math.prod(range(e - 1, 0, -2))
        den = math.prod(n + 2 * k for k in range(sum(a) // 2))
        total += Fraction(c) * Fraction(num, den)
    return total


def xn_level_value(n, r):
    """Exact level-r bound for x_n on S^{n-1}.

    It is the smallest root of the Jacobi polynomial P^{(a,a)}_{r+1} with
    a = (n - 3)/2; on the circle that root is -cos(pi / (2r + 2)).
    """
    if n == 2:
        return -math.cos(math.pi / (2 * r + 2))
    a = 0.5 * (n - 3)
    return float(roots_jacobi(r + 1, a, a)[0].min())


def correct_digits(value, ref):
    """-log10 of the relative error against a nonzero reference, capped."""
    err = abs(value - ref) / abs(ref)
    return DIGITS_CAP if err == 0.0 else min(DIGITS_CAP, -math.log10(err))


def check_xn(value, ref):
    problems = []
    if not abs(value - ref) <= XN_ABS_TOL:
        problems.append(f"off the exact level value {ref!r} by {value - ref:.3e}")
    if not (value - ref) / abs(ref) >= -XN_BELOW_REL:
        problems.append(f"below the exact level value by {(value - ref) / abs(ref):.3e} relative")
    return problems


def check_close(value, ref, tol, what):
    """|value - ref| within tol, scaled by |ref| where that exceeds 1."""
    if abs(value - ref) <= tol * max(1.0, abs(ref)):
        return []
    return [f"{what}: {value!r} differs from {ref!r} by {value - ref:.3e}"]


def check_at_most(value, limit, tol, what):
    if value <= limit + tol:
        return []
    return [f"{what}: {value!r} exceeds {limit!r} by {value - limit:.3e}"]


def check_at_least(value, limit, tol, what):
    if value >= limit - tol:
        return []
    return [f"{what}: {value!r} is below {limit!r} by {limit - value:.3e}"]


def monotone_problems(values):
    """Problems per position where a bound rises above the previous level."""
    out = [[] for _ in values]
    for i in range(1, len(values)):
        if values[i] > values[i - 1] + MONOTONE_TOL:
            out[i].append(f"rises with r: {values[i]!r} after {values[i - 1]!r}")
    return out


def check_certificate(cert, bound):
    """A cubature certificate is a lower bound on the level-r bound."""
    return check_at_most(cert, bound, 1e-9 * (1.0 + abs(bound)),
                         "certificate above the bound")


def _monomial_values(X, elements):
    """(points, basis) array of x^a, by cumulative products of coordinates."""
    E = np.asarray(elements, dtype=np.int64)
    out = np.ones((len(X), len(E)))
    for i in range(X.shape[1]):
        for k in range(1, int(E[:, i].max(initial=0)) + 1):
            sel = E[:, i] >= k
            out[:, sel] *= X[:, i:i + 1]
    return out


def s2_rule(degree):
    """Points and weights on S^2, exact for polynomials up to degree.

    Gauss-Legendre in cos(theta) times the trapezoid rule in phi, built
    from numpy alone; the weights sum to 1 (normalized measure).
    """
    k = degree // 2 + 1
    t, wt = np.polynomial.legendre.leggauss(k)
    m = degree + 2
    phi = 2.0 * np.pi * np.arange(m) / m
    T, P = np.meshgrid(t, phi, indexing="ij")
    s = np.sqrt(1.0 - T ** 2)
    X = np.column_stack([(s * np.cos(P)).ravel(), (s * np.sin(P)).ravel(), T.ravel()])
    W = np.outer(wt / 2.0, np.full(m, 1.0 / m)).ravel()
    return X, W


def eval_terms(terms, X):
    """Evaluate a term dict {exponent tuple: coefficient} at the rows of X."""
    elements = list(terms)
    return _monomial_values(X, elements) @ np.array([terms[a] for a in elements])


def density_problems(coeffs, elements, f_terms, bound, h_terms, grid):
    """Checks on the density h = g^2, g = sum coeffs_a x^a, on S^2.

    The integral of h must be 1 and E_h[f] must equal the bound, both on
    an independent rule exact for deg(f h).  The expanded density h and
    the tabulated grid must agree with g^2 at their points.
    """
    r = max(sum(a) for a in elements)
    fdeg = max(sum(a) for a in f_terms)
    X, W = s2_rule(2 * r + fdeg)
    g = _monomial_values(X, elements) @ np.asarray(coeffs)
    h = g * g
    problems = check_close(float(W @ h), 1.0, DENSITY_TOL, "integral of h")
    problems += check_close(float(W @ (h * eval_terms(f_terms, X))), bound,
                            DENSITY_TOL, "E_h[f] against the bound")
    scale = float(np.abs(h).max())
    err = float(np.abs(eval_terms(h_terms, X) - h).max())
    if err > DENSITY_TOL * scale:
        problems.append(f"expanded density differs from g^2 by {err:.3e}")
    t, p, vals = grid[:, 0], grid[:, 1], grid[:, 2]
    st = np.sin(t)
    G = np.column_stack([st * np.sin(p), st * np.cos(p), np.cos(t)])
    gg = _monomial_values(G, elements) @ np.asarray(coeffs)
    err = float(np.abs(vals - gg * gg).max())
    if err > DENSITY_TOL * max(scale, float(np.abs(gg * gg).max())):
        problems.append(f"density grid differs from g^2 by {err:.3e}")
    return problems
