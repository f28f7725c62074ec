"""Monomial bases on the sphere and moment-matrix pencils.

The basis at level r consists of all monomials x^alpha with |alpha| <= r and
the last exponent at most 1; modulo the sphere relation these represent every
polynomial of degree <= r on the sphere, and they are linearly independent
there, so the Gram matrix is positive definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .moments import MomentOracle
from .polynomials import Polynomial

# positive-definiteness threshold for Gram-type matrices
TAU_PD = 1e-10


@dataclass(frozen=True)
class BasisSpec:
    """Ordered monomial basis {x^alpha : |alpha| <= r, alpha_n <= 1}."""

    n: int
    r: int
    elements: tuple

    def __len__(self):
        return len(self.elements)

    @property
    def size(self):
        return len(self.elements)

    def exponent_array(self):
        return np.array(self.elements, dtype=np.int64)

    def index(self, alpha):
        return self.elements.index(tuple(alpha))


@dataclass(frozen=True)
class Pencil:
    """Symmetric pencil (A, B): A holds moments of f*x^a*x^b, B of x^a*x^b."""

    A: np.ndarray
    B: np.ndarray
    basis: BasisSpec
    f: Polynomial


def sphere_basis(n, r):
    """Basis of monomial representatives of degree <= r on S^{n-1}."""
    n = int(n)
    r = int(r)
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if r < 0:
        raise ValueError("level must be nonnegative")
    elems = []

    def extend(prefix, remaining, budget):
        if remaining == 1:
            # last exponent capped at 1 by the sphere reduction
            for e in range(min(1, budget) + 1):
                elems.append(prefix + (e,))
            return
        for e in range(budget + 1):
            extend(prefix + (e,), remaining - 1, budget - e)

    extend((), n, r)
    elems.sort(key=lambda a: (sum(a), tuple(-e for e in a)))
    return BasisSpec(n=n, r=r, elements=tuple(elems))


@lru_cache(maxsize=32)
def _lgamma_tables(n, maxdeg):
    # lg_half[d] = lgamma((d+1)/2), lg_sum[d] = lgamma((d+n)/2)
    d = np.arange(maxdeg + 1)
    lg_half = np.array([math.lgamma(0.5 * (k + 1)) for k in d])
    lg_sum = np.array([math.lgamma(0.5 * (k + n)) for k in d])
    # n*lgamma(1/2) = (n/2) log pi, written so the zero index cancels exactly
    c0 = math.lgamma(0.5 * n) - n * math.lgamma(0.5)
    return lg_half, lg_sum, c0


def moment_matrix(E1, E2, n, shift=None, chunk=512):
    """Matrix of normalized moments of x^(a + b + shift) over S^{n-1}.

    E1, E2 are integer exponent arrays of shapes (m1, n) and (m2, n); the
    optional shift is a single exponent tuple.  Assembled in row chunks to
    bound memory at large sizes.

    Entry (i, j) with P = E1[i] + E2[j] + shift is zero if any P_k is odd,
    else exp(c0 + sum_k lgamma((P_k + 1)/2) - lgamma((|P| + n)/2)).  The
    sum over k is accumulated coordinate by coordinate, k = 1 first, into one
    (rows x cols) array, so no (rows x cols x n) tensor is formed.  That is
    the order in which numpy's add-reduce sums a contiguous axis shorter
    than 8, so for n <= 7 every entry is bit-identical to the reduction
    c0 + lgamma_half[P].sum(axis=-1) - lgamma_sum[|P|]; for n >= 8 numpy
    sums in 8-way blocks and the two may differ in the last bit.
    """
    E1 = np.asarray(E1, dtype=np.int64)
    E2 = np.asarray(E2, dtype=np.int64)
    g = np.zeros(n, dtype=np.int64) if shift is None else np.asarray(shift, dtype=np.int64)
    C = E2 + g
    d1 = E1.sum(axis=1)
    d2 = C.sum(axis=1)
    maxdeg = int(d1.max(initial=0) + d2.max(initial=0))
    lg_half, lg_sum, c0 = _lgamma_tables(n, maxdeg)
    # P has an odd coordinate iff the parity vectors of its two summands
    # differ; each vector is packed into one 64-bit code per 64 coordinates
    k = np.arange(n)
    weight = np.zeros((n, (n + 63) // 64), dtype=np.int64)
    weight[k, k // 64] = np.left_shift(1, k % 64)
    par1 = (E1 & 1) @ weight
    par2 = (C & 1) @ weight
    m1, m2 = len(E1), len(E2)
    out = np.empty((m1, m2))
    for lo in range(0, m1, chunk):
        hi = min(lo + chunk, m1)
        acc = lg_half[np.add.outer(E1[lo:hi, 0], C[:, 0])]
        for i in range(1, n):
            acc += lg_half[np.add.outer(E1[lo:hi, i], C[:, i])]
        acc += c0
        acc -= lg_sum[np.add.outer(d1[lo:hi], d2)]
        block = np.exp(acc, out=out[lo:hi])
        odd = np.not_equal.outer(par1[lo:hi, 0], par2[:, 0])
        for w in range(1, weight.shape[1]):
            odd |= np.not_equal.outer(par1[lo:hi, w], par2[:, w])
        block[odd] = 0.0
    return out


def gram_matrix(basis, oracle=None):
    """Gram matrix B[a, b] = normalized moment of x^a * x^b."""
    _check_oracle(basis, oracle)
    E = basis.exponent_array()
    return moment_matrix(E, E, basis.n)


def localized_matrix(f, basis, oracle=None):
    """Localized matrix A[a, b] = normalized moment of f * x^a * x^b."""
    _check_oracle(basis, oracle)
    if f.n != basis.n:
        raise ValueError(f"polynomial dimension {f.n}, basis dimension {basis.n}")
    E = basis.exponent_array()
    A = np.zeros((len(E), len(E)))
    for gamma, c in f.terms.items():
        A += c * moment_matrix(E, E, basis.n, shift=gamma)
    return A


def build_pencil(f, basis, oracle=None):
    """Assemble the pencil (A_f, B) over the given basis."""
    return Pencil(A=localized_matrix(f, basis, oracle),
                  B=gram_matrix(basis, oracle),
                  basis=basis, f=f)


def _check_oracle(basis, oracle):
    if oracle is not None and oracle.n != basis.n:
        raise ValueError(f"oracle dimension {oracle.n}, basis dimension {basis.n}")


def gram_matrix_fraction(elements, n, shift=None):
    """Exact rational moment matrix over the listed exponent tuples."""
    oracle = MomentOracle(n)
    zero = (0,) * n
    g = tuple(shift) if shift is not None else zero
    m = len(elements)
    rows = []
    for a in elements:
        row = []
        for b in elements:
            row.append(oracle.moment_fraction(tuple(x + y + z for x, y, z in zip(a, b, g))))
        rows.append(row)
    return rows


def dump_matrix(M, fh):
    """Write a matrix as plain text, row-major, one row per line, %.17g."""
    M = np.asarray(M)
    for row in np.atleast_2d(M):
        fh.write(" ".join("%.17g" % v for v in row) + "\n")
