"""Minimum-expectation upper bounds over sum-of-squares densities.

The level-r bound for f on the sphere is the smallest generalized eigenvalue
of the pencil (A_f, B) over the reduced monomial basis, where A_g holds the
moments of g x^a x^b and B = A_1 is the Gram matrix.  The rational bound for
p/q is the same problem with B replaced by A_q, so the plain bound and the
rational bound share one solver: the plain one is its q = 1 case.  Both
matrices couple only exponent tuples whose parities match through some
monomial of the numerator or denominator, so the pencil splits into
independent blocks; the solver exploits that split, which leaves every
eigenvalue unchanged and keeps large levels tractable.  One loop over those
blocks serves every objective and precision: a block is solved in float64,
or with dps set from its exact A and B, one gram_matrix_fraction call each.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpocon, dpotrf

from .basis import BasisSpec, check_level, gram_matrix_fraction, moment_matrix, sphere_basis
from .cubature import NODE_BUDGET
from .polynomials import Polynomial, as_index
from .sampling import sphere_points

# 1-norm condition number of B (the Gram matrix, or A_q), as LAPACK dpocon
# estimates it from the Cholesky factor, beyond which results carry a warning
COND_LIMIT = 1e12
# eigenvalue gap under which the smallest eigenvalue is flagged as multiple
GAP_TOL = 1e-10
# smallest dps accepted: the extended-precision solve starts from a float64
# eigenpair, so fewer digits than float64 carries would only lose accuracy
DPS_MIN = 16
# inverse-iteration steps after which the extended-precision solve gives up
HP_MAX_STEPS = 100


class ConditioningError(RuntimeError):
    """The pencil's B (Gram matrix or A_q) is not numerically positive definite."""


class CertificationError(RuntimeError):
    """A required positivity certificate failed."""


@dataclass(frozen=True)
class BoundResult:
    """Bound value with the optimal density's coefficient vector.

    coeffs is normalized against the constraint matrix of the pencil (the
    Gram matrix, or A_q for rational bounds); degenerate marks a smallest
    eigenvalue with gap below GAP_TOL, where the density is non-unique and
    the reported one is the solver's canonical choice; with dps set and a
    multiple eigenvalue inside a block, that is the vector the inverse
    iteration converges to from the float64 guess.  condition_number is
    a LAPACK dpocon estimate of the 1-norm condition of the float64
    constraint matrix, taken from its Cholesky factor, even when dps is set
    (inf when that factorization fails), so a condition_warning on a dps
    result means that float64 alone would not have been enough.
    """

    n: int
    r: int
    value: float
    coeffs: np.ndarray
    basis: BasisSpec
    condition_number: float
    condition_warning: bool
    degenerate: bool

    def to_json_dict(self):
        """JSON-ready fields; a non-finite condition number becomes None."""
        cond = float(self.condition_number)
        return {
            "n": self.n,
            "r": self.r,
            "value": self.value,
            "basis_size": len(self.basis),
            "condition_number": cond if math.isfinite(cond) else None,
            "condition_warning": self.condition_warning,
            "degenerate": self.degenerate,
            "coeffs": [float(c) for c in self.coeffs],
        }


@dataclass(frozen=True)
class Pencil:
    """Symmetric pencil (A, B): A holds moments of f*x^a*x^b, B of x^a*x^b."""

    A: np.ndarray
    B: np.ndarray
    basis: BasisSpec


@dataclass(frozen=True)
class Density:
    """Optimal density h = (sum_a coeffs_a x^a)^2 at level r."""

    h: Polynomial
    r: int
    basis: BasisSpec
    coeffs: np.ndarray


def _parity_components(elements, shifts):
    """Indices of the pencil's independent blocks under exponent parity.

    Two basis elements interact iff their parities differ by the parity of
    some shift (monomial of the numerator or denominator); the components
    of that graph give a block structure shared by every matrix in the
    pencil.  A depth-first search over parity classes, taken in order of
    first appearance, lists the blocks by their smallest index.
    """
    classes = {}
    for i, a in enumerate(elements):
        classes.setdefault(tuple(e & 1 for e in a), []).append(i)
    flips = {tuple(e & 1 for e in g) for g in shifts}
    comps = []
    while classes:
        # reached classes leave the dict; the first one left starts the next block
        stack = [next(iter(classes))]
        idx = classes.pop(stack[0])
        while stack:
            p = stack.pop()
            for g in flips:
                q = tuple(a ^ b for a, b in zip(p, g))
                if q in classes:
                    idx += classes.pop(q)
                    stack.append(q)
        comps.append(np.sort(np.array(idx, dtype=np.intp)))
    return comps


def build_pencil(f, basis):
    """Assemble the whole pencil (A_f, B) over the given basis, unsplit."""
    if f.n != basis.n:
        raise ValueError(f"polynomial dimension {f.n}, basis dimension {basis.n}")
    E = basis.exponent_array()
    return Pencil(A=moment_matrix(E, E, basis.n, terms=f.terms),
                  B=moment_matrix(E, E, basis.n), basis=basis)


def _unit(n):
    """Terms of the constant polynomial 1, whose localized matrix is B."""
    return {(0,) * n: 1.0}


def _solve_block(A, B, r):
    """Two smallest eigenpairs of A v = lambda B v for a positive definite B.

    A and B must be exactly symmetric and are overwritten: their transposes
    are the Fortran-ordered arrays LAPACK works in, so neither is copied.
    """
    m = len(B)
    hi = min(1, m - 1)
    try:
        w, V = scipy.linalg.eigh(A.T, B.T, subset_by_index=[0, hi],
                                 overwrite_a=True, overwrite_b=True)
    except scipy.linalg.LinAlgError as exc:
        # B has already factored, so this is the eigensolver not converging
        raise ConditioningError(
            f"generalized eigensolve failed at level r={r}: {exc}; retry with dps set"
        ) from exc
    second = float(w[1]) if hi == 1 else None
    return float(w[0]), second, V[:, 0].copy()


def _solve_block_hp(Afrac, Bfrac, dps):
    """Smallest eigenpair of the pencil (A, B) from exact rational entries.

    With L the dps-digit Cholesky factor of B, the pencil's eigenvalues are
    those of M = L^{-1} A L^{-T}.  float64 eigh of M gives the guesses w0,
    w1 and q0.  The shift sigma = w0 - tau, tau = 1e-12 (1 + max|M_ij|)
    grown 100-fold until it holds, is proven to lie below the spectrum by a
    successful Cholesky of M - sigma I, so inverse iteration with that
    factor (two triangular solves per step, from q0) can only converge to
    the smallest eigenpair; the float ordering is never trusted.  The value
    is the Rayleigh quotient, which never falls below the smallest
    eigenvalue; iteration stops once it changes by at most 16 eps scale,
    and raises ConditioningError after HP_MAX_STEPS steps.  Returns
    (value, float64 w1 or None, v) with v = L^{-T} q, so v^T B v = 1.
    """
    import mpmath as mp

    m = len(Bfrac)
    with mp.workdps(dps):
        A = mp.matrix([[mp.mpf(x.numerator) / x.denominator for x in row] for row in Afrac])
        B = mp.matrix([[mp.mpf(x.numerator) / x.denominator for x in row] for row in Bfrac])
        try:
            L = mp.cholesky(B)
        except ValueError as exc:
            raise ConditioningError(
                f"high-precision Cholesky failed (dps={dps}): {exc}") from exc
        # M = L^{-1} A L^{-T} via two forward substitutions
        M = _lower_solve(L, _lower_solve(L, A).T)
        M = (M + M.T) / 2
        w, Q = np.linalg.eigh(np.array(M.tolist(), dtype=float))
        scale = 1 + max(abs(x) for x in M)
        tau = 1e-12 * scale
        # by the 12th try tau = 1e10 scale is past twice the spectral radius
        for _ in range(12):
            sigma = mp.mpf(w[0]) - tau
            try:
                C = mp.cholesky(M - sigma * mp.eye(m))
                break
            except ValueError:
                tau *= 100
        else:
            raise ConditioningError(f"no shift below the spectrum found (dps={dps})")
        Ct = C.T
        q = mp.matrix(Q[:, 0].tolist())
        tol = 16 * mp.eps * scale
        prev = None
        for _ in range(HP_MAX_STEPS):
            # (M - sigma I) y = q, so sigma + q.y / y.y is y's Rayleigh quotient
            y = mp.mp.U_solve(Ct, _lower_solve(C, q))
            yy = mp.fdot(y, y)
            rq = sigma + mp.fdot(q, y) / yy
            q = y / mp.sqrt(yy)
            if prev is not None and abs(rq - prev) <= tol:
                break
            prev = rq
        else:
            raise ConditioningError(
                f"inverse iteration did not settle in {HP_MAX_STEPS} steps (dps={dps}); "
                f"the smallest eigenvalues are nearly tied")
        # the reported value is the Rayleigh quotient of q taken on M itself,
        # which is exact wherever M's structure is (a zero or diagonal M)
        value = mp.fdot(q, M * q)
        v = mp.mp.U_solve(L.T, q)
        vec = np.array([float(v[i]) for i in range(m)])
    return float(value), (float(w[1]) if m > 1 else None), vec


def _lower_solve(L, X):
    """L^{-1} X for a lower-triangular mpmath L, column by column.

    Works on row lists, so each entry is read from the mpmath matrices once.
    """
    import mpmath as mp

    L = L.tolist()
    Y = X.tolist()
    for j in range(len(Y[0])):
        for i, row in enumerate(L):
            s = Y[i][j]
            for k in range(i):
                s -= row[k] * Y[k][j]
            Y[i][j] = s / row[i]
    return mp.matrix(Y)


def _pick_winner(results, size):
    """Combine per-block eigenpairs into the pencil's smallest one.

    The winner is the first block (deterministic order) whose minimum lies
    within GAP_TOL of the global minimum; below that resolution the blocks
    are numerically tied and the first one is the canonical choice.
    """
    lam0 = min(w0 for w0, _, _, _ in results)
    others = sorted(w0 for w0, _, _, _ in results)[1:]
    seconds = [w1 for _, w1, _, _ in results if w1 is not None]
    cands = others + seconds
    gap = (min(cands) - lam0) if cands else np.inf
    w0, _, vec, comp = next(res for res in results if res[0] <= lam0 + GAP_TOL)
    coeffs = np.zeros(size)
    coeffs[comp] = vec
    i = int(np.argmax(np.abs(coeffs)))
    if coeffs[i] < 0:
        coeffs = -coeffs
    return lam0, coeffs, gap


def _solve_pencil(num_terms, den_terms, basis, dps, constant=None):
    """Bound from the blockwise smallest eigenpair of the pencil (A_num, A_den).

    The coefficient vector is A_den-normalized.  Each block B_i of the
    float A_den is factored by Cholesky (a failure raises ConditioningError
    in float64) and dpocon gives its reciprocal condition, so the condition
    number is max ||B_i|| * max ||B_i^-1||, infinite if a block did not
    factor.  A constant objective passes its value as constant: the pencil
    is then c*B = lambda*B, and no block is solved.
    """
    n, r = basis.n, basis.r
    elements = basis.elements
    E = basis.exponent_array()
    comps = _parity_components(elements, list(num_terms) + list(den_terms))
    results = []
    norms = []
    for comp in comps:
        Ec = E[comp]
        B = moment_matrix(Ec, Ec, n, terms=den_terms)
        bnorm = float(np.linalg.norm(B, 1))
        L, info = dpotrf(B.T, lower=1)
        if info and dps is None:
            raise ConditioningError(
                f"B not numerically positive definite at level r={r}: Cholesky "
                f"of a {len(comp)}x{len(comp)} block failed at leading minor "
                f"{info}; retry with dps set")
        norms.append((bnorm, dpocon(L, bnorm, uplo="L")[0] if info == 0 else 0.0))
        del L  # only the estimate needs it; freed before A is assembled
        if constant is not None:
            continue
        if dps is None:
            w0, w1, vec = _solve_block(moment_matrix(Ec, Ec, n, terms=num_terms), B, r)
        else:
            elems_c = [elements[i] for i in comp]
            w0, w1, vec = _solve_block_hp(gram_matrix_fraction(elems_c, n, num_terms),
                                          gram_matrix_fraction(elems_c, n, den_terms), dps)
        results.append((w0, w1, vec, comp))
    if constant is None:
        value, coeffs, gap = _pick_winner(results, len(elements))
        degenerate = gap < GAP_TOL
    else:
        # every vector is optimal; the first basis vector is B-normalized
        # since the Gram entry at 1,1 is 1
        value, coeffs, degenerate = constant, np.zeros(len(elements)), len(elements) > 1
        coeffs[0] = 1.0
    bmax = max(bnorm for bnorm, _ in norms)
    bmin = min(rcond * bnorm for bnorm, rcond in norms)
    cond = bmax / bmin if bmin > 0 else np.inf
    return BoundResult(n=n, r=r, value=value, coeffs=coeffs, basis=basis,
                       condition_number=cond, condition_warning=bool(cond > COND_LIMIT),
                       degenerate=bool(degenerate))


def _check_args(n, r, polys, dps):
    """check_level's (n, r), with dps an integer of at least DPS_MIN if set."""
    n, r = check_level(n, r, *polys)
    if dps is not None and (not isinstance(dps, numbers.Integral) or dps < DPS_MIN):
        raise ValueError(f"dps must be an integer number of digits of at least "
                         f"{DPS_MIN} (float64 precision), got {dps!r}")
    return n, r


def upper_bound(f, n, r, dps=None):
    """Level-r upper bound for min f on S^{n-1}, with its optimal density.

    Solves A_f v = lambda B v over sphere_basis(n, r) by Cholesky reduction
    and a symmetric eigensolve; the bound is the smallest eigenvalue and is
    nonincreasing in r.  Set dps to a decimal precision (an integer of at
    least DPS_MIN) to solve in exact rational assembly plus high-precision
    arithmetic instead of float64 (needed when the Gram condition number
    approaches 1/eps).
    """
    n, r = _check_args(n, r, [f], dps)
    constant = f.constant_term() if f.is_constant() else None
    return _solve_pencil(f.terms, _unit(n), sphere_basis(n, r), dps, constant)


def rational_upper_bound(p, q, n, r, dps=None):
    """Level-r upper bound for min p/q on S^{n-1} (q > 0 on the sphere).

    Solves the pencil (A_p, A_q); the density constraint is the integral of
    q*h equal to 1, and coeffs is A_q-normalized.  The denominator is checked,
    not certified: q must be positive on a 4,096-point quasirandom sample of
    the sphere and A_q must be positive definite at this level.  A q that
    dips below zero between the sample points can pass both checks.
    """
    n, r = _check_args(n, r, [p, q], dps)
    if not q:
        raise CertificationError("denominator is the zero polynomial")
    samples = q.eval_many(_positivity_sample(n))
    if samples.min() <= 0.0:
        raise CertificationError(
            f"q not certified positive at level r={r}: sampled value "
            f"{samples.min():.3e} on the sphere")
    basis = sphere_basis(n, r)
    try:
        return _solve_pencil(p.terms, q.terms, basis, dps)
    except ConditioningError as exc:
        raise CertificationError(f"q not certified positive at level r={r}: {exc}") from exc


@functools.cache
def _positivity_sample(n):
    """rational_upper_bound's 4,096 Sobol points (seed 11) on S^{n-1}, drawn
    once per dimension and read-only, since every call shares them."""
    points = sphere_points(4096, n, seed=11)
    points.flags.writeable = False
    return points


def extract_density(res):
    """Expand the optimal density h = (sum coeffs_a x^a)^2 of a bound result."""
    terms = {}
    for i, a in enumerate(res.basis.elements):
        c = float(res.coeffs[i])
        if c != 0.0:
            terms[a] = c
    g = Polynomial(res.n, terms)
    return Density(h=g * g, r=res.r, basis=res.basis, coeffs=res.coeffs.copy())


def density_grid(den, n, resolution=100):
    """Tabulate the density on a spherical-coordinate grid (n = 3 only).

    Rows are (theta, phi, h) with theta in [0, pi] and phi in [0, 2 pi],
    both sampled at resolution+1 equispaced values, theta varying slowest;
    the point map is x = (sin t sin p, sin t cos p, cos t).  A grid of more
    than NODE_BUDGET points raises ValueError before any array is built.
    """
    if as_index(n, "dimension") != 3 or den.basis.n != 3:
        raise ValueError("density grids are defined for n = 3 only")
    resolution = as_index(resolution, "resolution")
    if resolution < 1:
        raise ValueError("resolution must be positive")
    if (resolution + 1) ** 2 > NODE_BUDGET:
        raise ValueError(f"density grid needs {(resolution + 1) ** 2} points, "
                         f"over the budget {NODE_BUDGET}")
    theta = np.linspace(0.0, np.pi, resolution + 1)
    phi = np.linspace(0.0, 2.0 * np.pi, resolution + 1)
    T, P = np.meshgrid(theta, phi, indexing="ij")
    t, p = T.ravel(), P.ravel()
    st = np.sin(t)
    X = np.column_stack([st * np.sin(p), st * np.cos(p), np.cos(t)])
    g = Polynomial(3, dict(zip(den.basis.elements, den.coeffs)))
    return np.column_stack([t, p, g.eval_many(X) ** 2])


def grid_local_maxima(grid, resolution):
    """Strict 8-neighbor local maxima of a density grid, highest first.

    phi wraps around (the duplicate phi = 2 pi column is dropped); the two
    pole rows are excluded since all their entries map to a single point.
    """
    resolution = as_index(resolution, "resolution")
    G = np.asarray(grid).reshape(resolution + 1, resolution + 1, 3)[:, :resolution]
    H = G[..., 2]
    # one wrapped column on each side, so every neighbor is a slice
    W = np.concatenate([H[:, -1:], H, H[:, :1]], axis=1)
    core = H[1:-1]
    strict = np.ones_like(core, dtype=bool)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            if (di, dj) != (1, 1):
                strict &= core > W[di:di + resolution - 1, dj:dj + resolution]
    rows = G[1:-1][strict]
    return rows[np.argsort(-rows[:, 2], kind="stable")]
