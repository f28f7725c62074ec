"""An exact oracle for the level-r value on small pencils.

For symmetric A and positive definite B, the number of eigenvalues of the
pencil (A, B) below c is the number of negative pivots in an LDL^T of
A - cB (Sylvester's law of inertia).  The blocks here are the exact
rational matrices of gram_matrix_fraction, split by exponent parity alone
(no symmetry classes), and the elimination runs in Fractions without
pivoting, so every count is exact.
"""

from fractions import Fraction

from spherebound import sphere_basis
from spherebound.basis import gram_matrix_fraction
from spherebound.bounds import _parity_components


def pencil_blocks(p, q, r):
    """The exact (A_p, A_q) blocks of the level-r pencil, as lists of Fraction rows."""
    basis = sphere_basis(p.n, r)
    comps, _ = _parity_components(basis.exponent_array(), list(p.terms) + list(q.terms))
    blocks = []
    for comp in comps:
        elements = [basis.elements[i] for i in comp]
        blocks.append(tuple(gram_matrix_fraction(elements, p.n, t) for t in (p.terms, q.terms)))
    return blocks


def count_below(A, B, c):
    """Eigenvalues of the pencil (A, B) below the rational c: the negative pivots of
    an unpivoted LDL^T of A - cB.  A zero pivot leaves the count undecided, and fails."""
    m = len(A)
    S = [[A[i][j] - c * B[i][j] for j in range(m)] for i in range(m)]
    negative = 0
    for k in range(m):
        d = S[k][k]
        assert d != 0, f"zero pivot at {k} of {m}: inertia at c = {c} undecided"
        negative += d < 0
        for i in range(k + 1, m):  # the upper triangle of the Schur complement
            f = S[k][i] / d
            if f:
                row, pivot_row = S[i], S[k]
                for j in range(i, m):
                    row[j] -= f * pivot_row[j]
    return negative


def assert_brackets(blocks, value, rel=1e-12):
    """Prove that the pencil's least eigenvalue lies in [value - delta, value + delta],
    delta = rel (1 + |value|): no block has an eigenvalue below value - delta, and
    some block has one below value + delta."""
    v = Fraction(value)
    delta = Fraction(rel) * (1 + abs(v))
    assert all(count_below(A, B, v - delta) == 0 for A, B in blocks), \
        f"the level-r value lies below {value} - {float(delta)!r}"
    assert any(count_below(A, B, v + delta) > 0 for A, B in blocks), \
        f"the level-r value lies above {value} + {float(delta)!r}"
