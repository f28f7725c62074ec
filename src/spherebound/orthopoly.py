"""Jacobi and Gegenbauer orthogonal polynomials via three-term recurrences.

The recurrence coefficients are taken in symmetric (normalized) form, so the
Jacobi matrix is symmetric tridiagonal, roots are its eigenvalues, and Gauss
weights fall out of the eigenvectors (Golub-Welsch).  QuadratureRule, the
type of every rule in the package, lives here with gauss_rule, its first
producer; the circle and sphere rules of cubature build on both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .moments import ball_constant
from .polynomials import as_index


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


@dataclass(frozen=True)
class JacobiParams:
    """Weight exponents for (1-x)^a (1+x)^b on [-1, 1]."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= -1 or self.b <= -1:
            raise ValueError("Jacobi parameters require a > -1 and b > -1")

    @classmethod
    def gegenbauer(cls, lam):
        """Gegenbauer index lam maps to a = b = lam - 1/2."""
        if lam <= -0.5:
            raise ValueError("Gegenbauer index requires lam > -1/2")
        return cls(a=lam - 0.5, b=lam - 0.5)


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix given by its diagonal and off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray

    def eigenvalues(self):
        return eigh_tridiagonal(self.diag, self.offdiag, eigvals_only=True)

    def eigen_system(self):
        """Eigenvalues (ascending) and orthonormal eigenvector columns."""
        return eigh_tridiagonal(self.diag, self.offdiag)


def jacobi_matrix(params, d):
    """Jacobi matrix of order d; its eigenvalues are the roots of P^{a,b}_d."""
    d = as_index(d, "degree")
    if d < 1:
        raise ValueError("degree must be at least 1")
    a, b = params.a, params.b
    diag = np.zeros(d)
    diag[0] = (b - a) / (a + b + 2.0)
    k = np.arange(1, d, dtype=float)
    if d > 1:
        diag[1:] = (b * b - a * a) / ((2 * k + a + b) * (2 * k + a + b + 2.0))
    off = np.zeros(max(d - 1, 0))
    if d > 1:
        off[0] = 2.0 / (a + b + 2.0) * np.sqrt(
            (a + 1.0) * (b + 1.0) / (a + b + 3.0))
    if d > 2:
        k = np.arange(2, d, dtype=float)
        num = 4.0 * k * (k + a) * (k + b) * (k + a + b)
        den = (2 * k + a + b) ** 2 * (2 * k + a + b + 1.0) * (2 * k + a + b - 1.0)
        off[1:] = np.sqrt(num / den)
    return TridiagonalMatrix(diag=diag, offdiag=off)


def smallest_root(params, d):
    """Smallest root of the degree-d Jacobi polynomial P^{a,b}_d."""
    return float(jacobi_matrix(params, d).eigenvalues()[0])


def gauss_rule(lam, d):
    """Gauss rule for the weight (1-x^2)^(lam-1/2) on [-1, 1].

    Exact for polynomials of degree <= 2d-1; weights sum to the weight's
    total mass ball_constant(1, lam).
    """
    J = jacobi_matrix(JacobiParams.gegenbauer(lam), d)
    nodes, vecs = J.eigen_system()
    weights = vecs[0, :] ** 2 * ball_constant(1, lam)
    return QuadratureRule(nodes=nodes, weights=weights, exactness_degree=2 * d - 1)
