"""Monomial bases on the sphere and their moment matrices.

The basis at level r consists of all monomials x^alpha with |alpha| <= r and
the last exponent at most 1; modulo the sphere relation these represent every
polynomial of degree <= r on the sphere, and they are linearly independent
there, so the Gram matrix is positive definite.  moment_matrix assembles
localized moment matrices sum_g c_g M_g in float64, and gram_matrix_fraction
the same matrices exactly, in Fractions, for the extended-precision solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .moments import MomentOracle
from .polynomials import _check_exponent_array, as_index, check_dimension

# moment_matrix assembles about ASSEMBLY_ROWS * m2 entries at a time, to
# bound its working memory
ASSEMBLY_ROWS = 512


@dataclass(frozen=True)
class BasisSpec:
    """Ordered monomial basis {x^alpha : |alpha| <= r, alpha_n <= 1}."""

    n: int
    r: int
    elements: tuple

    def __len__(self):
        return len(self.elements)

    def exponent_array(self):
        return np.array(self.elements, dtype=np.int64)


def check_level(n, r, *polys):
    """Validated (n, r): integers (by as_index, so 2.5 never becomes 2) with
    n >= 2 and r >= 0, and each polynomial given of dimension n."""
    n, r = as_index(n, "dimension", 2), as_index(r, "level", 0)
    check_dimension(n, *polys)
    return n, r


def sphere_basis(n, r):
    """Basis of monomial representatives of degree <= r on S^{n-1}.

    Elements come degree by degree, each degree in descending
    lexicographic order.
    """
    n, r = check_level(n, r)
    # tails[s]: the exponent tuples of length k and sum s with the last one
    # at most 1, descending, for k = 2 (the first is s or s - 1) up to n;
    # built bottom-up, since a recursive closure refers to itself and would
    # leave its lists to the cycle collector
    tails = [[(s, 0), (s - 1, 1)] if s else [(0, 0)] for s in range(r + 1)]
    for _ in range(n - 2):
        tails = [[(e,) + t for e in range(s, -1, -1) for t in tails[s - e]]
                 for s in range(r + 1)]
    elems = tuple(a for d in range(r + 1) for a in tails[d])
    return BasisSpec(n=n, r=r, elements=elems)


@lru_cache(maxsize=32)
def _lgamma_tables(n, maxdeg):
    # lg_half[d] = lgamma((d+1)/2), lg_sum[d] = lgamma((d+n)/2)
    d = np.arange(maxdeg + 1)
    lg_half = np.array([math.lgamma(0.5 * (k + 1)) for k in d])
    lg_sum = np.array([math.lgamma(0.5 * (k + n)) for k in d])
    # n*lgamma(1/2) = (n/2) log pi, written so the zero index cancels exactly
    c0 = math.lgamma(0.5 * n) - n * math.lgamma(0.5)
    return lg_half, lg_sum, c0


def _parity_classes(P):
    """Index of each row's parity vector among the distinct ones."""
    cls = np.zeros(len(P), dtype=np.int64)
    for lo in range(0, P.shape[1], 32):
        bits = P[:, lo:lo + 32] & 1
        word = bits @ np.left_shift(1, np.arange(bits.shape[1]))
        # the class so far and the next 32 parity bits, packed in one int64
        _, cls = np.unique(np.left_shift(cls, 32) | word, return_inverse=True)
    return cls.reshape(-1)


def moment_matrix(E1, E2, n, terms=None):
    """Localized moment matrix sum_g c_g M_g over S^{n-1}, in one call.

    E1, E2 are integer exponent arrays of shapes (m1, n) and (m2, n);
    terms maps exponent tuples g to coefficients c_g, which are added onto
    zeros in mapping order, and defaults to {0: 1.0}, the Gram matrix.
    n, E1, E2 and the keys of terms are checked first: a float, negative or
    wrongly sized exponent raises ValueError.
    M_g[i, j] is the normalized moment of x^P, P = E1[i] + E2[j] + g: zero
    if any P_k is odd, else
    exp(c0 + sum_k lgamma((P_k + 1)/2) - lgamma((|P| + n)/2)).  The set-up
    (lgamma tables, codes and parity classes of the rows) is shared by all
    terms, and rows are assembled in chunks of about ASSEMBLY_ROWS * m2
    entries to bound memory.

    Where P is even, P_k / 2 = ceil(a_k / 2) + floor(c_k / 2) for a = E1[i]
    and c = E2[j] + g, so a mixed-radix code of these half-exponents is
    additive: code(i, j) = cu[i] + cv[j].  A moment table covers the box of
    half-exponents of the longest prefix of coordinates whose box has at
    most m1 * m2 cells, and holds the partial log-sums over that prefix,
    accumulated k = 1 first.  When the prefix covers all n coordinates,
    c0, lgamma((|P| + n)/2) and exp are folded in as well, so an entry of
    c_g M_g is one gather from the table times c_g.  Otherwise the
    remaining coordinates are gathered and added one by one, all n of them
    when not even the first fits.  Odd entries need no mask: rows and
    columns fall into parity classes, and each class shifts the codes so
    that a row and a column of different classes meet outside the table,
    where a clipped gather reads a padding cell that makes the entry zero.

    Every entry thus goes through the same floating-point operations in the
    same order as a coordinate-by-coordinate sum followed by the sum over
    terms.  That is the order in which numpy's add-reduce sums a
    contiguous axis shorter than 8, so for n <= 7 every M_g entry is
    bit-identical to the reduction
    c0 + lgamma_half[P].sum(axis=-1) - lgamma_sum[|P|]; for n >= 8 numpy
    sums in 8-way blocks and the two may differ in the last bit.
    """
    n = as_index(n, "dimension", 1)
    E1, E2 = _check_exponent_array(n, E1), _check_exponent_array(n, E2)
    if terms is None:
        terms = {(0,) * n: 1.0}
    G = _check_exponent_array(n, list(terms)) if terms else None
    m1, m2 = len(E1), len(E2)
    out = np.zeros((m1, m2))
    if not (m1 and m2 and terms):
        return out
    coeffs = np.array(list(terms.values()), dtype=float)
    # C[t] = E2 + g_t, the column exponents of term t
    C = E2 + G[:, None, :]
    U = (E1 + 1) >> 1
    V = C >> 1
    # radix[k] - 1 is the largest half-exponent sum in coordinate k
    radix = (U.max(axis=0) + V.max(axis=(0, 1)) + 1).tolist()
    prefix, box = 0, 1
    while prefix < n and box * radix[prefix] <= m1 * m2:
        box *= radix[prefix]
        prefix += 1
    full = prefix == n
    # every index into them is below 2 * sum(radix); a power of two keeps
    # the number of cached table sizes small
    lg_half, lg_sum, c0 = _lgamma_tables(n, 1 << (2 * sum(radix)).bit_length())
    # partial sums over the prefix from an empty sum of 0.0 (exact: no
    # lg_half entry is -0.0); each coordinate is a slower digit of the
    # code than the ones before it
    table = np.zeros(1)
    half_sum = np.zeros(1, dtype=np.int64)
    cu = np.zeros(m1, dtype=np.int64)
    cv = np.zeros(C.shape[:2], dtype=np.int64)
    for k in range(prefix):
        cu += U[:, k] * len(table)
        cv += V[:, :, k] * len(table)
        table = np.add.outer(lg_half[0:2 * radix[k]:2], table).ravel()
        if full:
            half_sum = np.add.outer(np.arange(radix[k]), half_sum).ravel()
    if full:
        table += c0
        table -= lg_sum[0::2][half_sum]
        np.exp(table, out=table)
    # classes lie box + 1 apart, so a code that pairs two classes is below
    # 0 or above box + 1 and is clipped onto a padding cell: 0.0, or -inf
    # where exp is still to come
    pad = 0.0 if full else -np.inf
    table = np.concatenate([[pad], table, [pad]])
    cls = _parity_classes(np.concatenate([E1, C.reshape(-1, n)])) * (box + 1)
    cu += 1 + cls[:m1]
    cv -= cls[m1:].reshape(cv.shape)
    if full:
        # per term, one gather from the table times c_g; the first term
        # lands in out directly, its + 0.0 being the zero the sum starts
        # from (1.0 * table + 0.0 is the table itself)
        rows = ASSEMBLY_ROWS
        for t, c in enumerate(coeffs):
            scaled = table if c == 1.0 else table * c + 0.0
            for lo in range(0, m1, rows):
                code = cu[lo:lo + rows, None] + cv[t]
                if t:
                    out[lo:lo + rows] += np.take(scaled, code, mode="clip")
                else:
                    np.take(scaled, code, mode="clip", out=out[lo:lo + rows])
        return out
    # all terms at once, so the chunks hold fewer rows
    rows = max(1, ASSEMBLY_ROWS // len(coeffs))
    d2 = C.sum(axis=2)[:, None, :]
    for lo in range(0, m1, rows):
        hi = min(lo + rows, m1)
        acc = np.take(table, cu[lo:hi, None] + cv[:, None, :], mode="clip")
        for k in range(prefix, n):
            acc += lg_half[E1[lo:hi, k][:, None] + C[:, None, :, k]]
        acc += c0
        acc -= lg_sum[E1[lo:hi].sum(axis=1)[:, None] + d2]
        np.exp(acc, out=acc)
        acc *= coeffs[:, None, None]
        block = out[lo:hi]
        for term in acc:
            block += term
    return out


def gram_matrix_fraction(elements, n, terms=None):
    """Exact localized moment matrix sum_g c_g M_g over the listed exponent tuples.

    The rational counterpart of moment_matrix with E1 = E2 = elements, as
    lists of Fractions; terms is as there, each c_g taken as Fraction(c_g),
    and defaults to {0: 1}.  Elements and term keys are checked as there, the
    loops run on the given ints, and each distinct moment is computed once.
    """
    oracle = MomentOracle(n)
    if terms is None:
        terms = {(0,) * n: 1}
    for rows in (elements, list(terms)):
        if len(rows):
            _check_exponent_array(n, rows)
    terms = [(g, Fraction(c)) for g, c in terms.items()]
    moments = {}
    m = len(elements)
    out = [[None] * m for _ in range(m)]
    for i, a in enumerate(elements):
        for j in range(i, m):
            ab = [x + y for x, y in zip(a, elements[j])]
            s = Fraction(0)
            for g, c in terms:
                alpha = tuple(x + y for x, y in zip(ab, g))
                if alpha not in moments:
                    moments[alpha] = oracle.moment_fraction(alpha)
                s += c * moments[alpha]
            out[i][j] = out[j][i] = s
    return out
