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
blocks serves every objective and precision: each block is reduced once, in
float64 or with dps from its exact A and B (one gram_matrix_fraction call
each), and every level is solved from a leading block of the reduction.
Blocks that a permutation of x1..x_{n-1} fixing the numerator and the
denominator maps onto each other have one spectrum, and are solved once.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpocon, dpotrf, dsygst

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
    iteration converges to from the float64 guess.  It is always set when a
    coordinate permutation fixing the objective maps the winning block onto
    another: the eigenvalue is then multiple in exact arithmetic.
    condition_number is a LAPACK dpocon estimate of the 1-norm condition of
    the float64 constraint matrix, taken from its Cholesky factor, even when
    dps is set (inf when that factorization fails), so a condition_warning
    on a dps result means that float64 alone would not have been enough.
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


def _symmetry_classes(n, term_sets):
    """Classes of x1..x_{n-1} whose transpositions leave every term set, with
    its exact coefficients, unchanged, then [n - 1] (the basis caps x_n's
    exponent); None if every class is a single coordinate.  (i j) and (j k)
    give (i k), so one test per class suffices."""
    classes = []
    for j in range(n - 1):
        for c in classes:
            swap = list(range(n))
            swap[c[0]], swap[j] = j, c[0]
            if all(t.get(tuple(a[k] for k in swap)) == v for t in term_sets for a, v in t.items()):
                c.append(j)
                break
        else:
            classes.append([j])
    return classes + [[n - 1]] if len(classes) < n - 1 else None


def _parity_components(elements, shifts, classes=None):
    """Indices of the pencil's independent blocks under exponent parity, and their keys.

    Two basis elements interact iff their parities differ by the parity of
    some shift (monomial of the numerator or denominator); the components
    of that graph give a block structure shared by every matrix in the
    pencil.  A search over parity classes, taken in order of first
    appearance, lists the blocks by their smallest index.  A block's key is
    its size and the least, over its parity vectors, of their odd counts per
    coordinate class (None: each coordinate alone).  Permutations within
    _symmetry_classes map the basis onto itself and a block onto a block,
    so two blocks share a key exactly when one maps onto the other.
    """
    by_parity = {}
    for i, a in enumerate(elements):
        by_parity.setdefault(tuple(e & 1 for e in a), []).append(i)
    flips = {tuple(e & 1 for e in g) for g in shifts}
    comps, keys = [], []
    while by_parity:
        # reached classes leave the dict, and are visited as they are appended
        reached = [next(iter(by_parity))]
        idx = by_parity.pop(reached[0])
        for p in reached:
            for g in flips:
                q = tuple(a ^ b for a, b in zip(p, g))
                if q in by_parity:
                    idx += by_parity.pop(q)
                    reached.append(q)
        comps.append(np.sort(np.array(idx, dtype=np.intp)))
        keys.append((len(idx), min(tuple(sum(p[k] for k in c) for c in classes) if classes
                                   else p for p in reached)))
    return comps, keys


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


def _solve_block(r, a, b=None, **kwargs):
    """Two smallest eigenvalues (the second None if 1x1) and first eigenvector
    of a's lower triangle, or of the pencil (a, b) for a positive definite b."""
    hi = min(1, len(a) - 1)
    try:
        w, V = scipy.linalg.eigh(a, b, subset_by_index=[0, hi], **kwargs)
    except scipy.linalg.LinAlgError as exc:
        # b has already factored, so this is the eigensolver not converging
        raise ConditioningError(
            f"generalized eigensolve failed at level r={r}: {exc}; retry with dps set"
        ) from exc
    return float(w[0]), (float(w[1]) if hi == 1 else None), V[:, 0].copy()


def _reduce_hp(Afrac, Bfrac, dps):
    """L, the dps-digit Cholesky factor of exact rational B, and M = L^-1 A L^-T
    symmetrized, as row lists of mpf.  Each step reads only leading rows and
    columns, so their leading k x k blocks are what k x k slices of A, B give."""
    import mpmath as mp

    with mp.workdps(dps):
        A, B = ([[mp.mpf(x.numerator) / x.denominator for x in row] for row in F]
                for F in (Afrac, Bfrac))
        try:
            L = mp.cholesky(mp.matrix(B)).tolist()
        except ValueError as exc:
            raise ConditioningError(f"high-precision Cholesky failed (dps={dps}): {exc}") from exc
        Y = [_tri_solve(L, col) for col in zip(*A)]  # the columns of L^-1 A
        M = [_tri_solve(L, col) for col in zip(*Y)]  # the columns of L^-1 (L^-1 A)^T
        M = [[(a + b) / 2 for a, b in zip(row, col)] for row, col in zip(zip(*M), M)]
    return L, M


def _smallest_hp(L, M, k, dps):
    """Smallest eigenpair of the leading k x k block of _reduce_hp's (L, M).

    float64 eigh of M gives the guesses w0, w1 and q0.  The shift sigma =
    w0 - tau, tau = 1e-12 (1 + max|M_ij|) grown 100-fold until it holds, is
    proven to lie below the spectrum by a successful Cholesky of M - sigma I,
    so inverse iteration with that factor (two triangular solves per step,
    from q0) can only converge to the smallest eigenpair; the float ordering
    is never trusted.  The value is the Rayleigh quotient, which never falls
    below the smallest eigenvalue; iteration stops once it changes by at
    most 16 eps scale, and raises ConditioningError after HP_MAX_STEPS
    steps.  Returns (value, float64 w1 or None, v) with v = L^-T q, so
    v^T B v = 1.
    """
    import mpmath as mp

    M = [row[:k] for row in M[:k]]
    with mp.workdps(dps):
        w, Q = np.linalg.eigh(np.array(M, dtype=float))
        scale = 1 + max(abs(x) for row in M for x in row)
        tau = 1e-12 * scale
        # by the 12th try tau = 1e10 scale is past twice the spectral radius
        for _ in range(12):
            sigma = mp.mpf(w[0]) - tau
            try:
                C = mp.cholesky(mp.matrix([[x - sigma if i == j else x for j, x in enumerate(row)]
                                           for i, row in enumerate(M)])).tolist()
                break
            except ValueError:
                tau *= 100
        else:
            raise ConditioningError(f"no shift below the spectrum found (dps={dps})")
        q = [mp.mpf(x) for x in Q[:, 0].tolist()]
        tol = 16 * mp.eps * scale
        prev = None
        for _ in range(HP_MAX_STEPS):
            # (M - sigma I) y = q, so sigma + q.y / y.y is y's Rayleigh quotient
            y = _tri_solve(C, _tri_solve(C, q), trans=True)
            yy = mp.fdot(y, y)
            rq = sigma + mp.fdot(q, y) / yy
            norm = mp.sqrt(yy)
            q = [x / norm for x in y]
            if prev is not None and abs(rq - prev) <= tol:
                break
            prev = rq
        else:
            raise ConditioningError(
                f"inverse iteration did not settle in {HP_MAX_STEPS} steps (dps={dps}); "
                f"the smallest eigenvalues are nearly tied")
        # the reported value is the Rayleigh quotient of q taken on M itself,
        # which is exact wherever M's structure is (a zero or diagonal M)
        value = mp.fdot(q, [mp.fdot(row, q) for row in M])
        vec = np.array([float(x) for x in _tri_solve(L, q, trans=True)])
    return float(value), (float(w[1]) if k > 1 else None), vec


def _tri_solve(L, b, trans=False):
    """L^-1 b, or L^-T b with trans, for lower-triangular row lists L of mpf
    (only the leading len(b) rows are read), subtracting one rounded product
    at a time in increasing column order, as mpmath's U_solve does."""
    x, n = list(b), len(b)
    for i in range(n - 1, -1, -1) if trans else range(n):
        pairs = zip([L[j][i] for j in range(i + 1, n)], x[i + 1:]) if trans else zip(L[i], x[:i])
        s = x[i]
        for a, y in pairs:
            s -= a * y
        x[i] = s / L[i][i]
    return x


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


def _solve_pencil(num_terms, den_terms, basis, dps, constant=None, r_lo=None, start=None):
    """(BoundResult, seconds) per level r_lo..basis.r (default basis.r) of (A_num, A_den).

    Coefficients are A_den-normalized.  Each block B_i of the float A_den is
    factored by Cholesky (in float64 a failure raises ConditioningError for
    level basis.r before the block is solved at any level), and the
    condition number is max ||B_i|| * max ||B_i^-1|| from dpocon, inf if a
    block did not factor.  A constant objective passes its value as
    constant: c*B = lambda*B needs no solve.  The basis comes degree by
    degree, so a lower level's part of a block is its leading k x k block,
    with factor L[:k, :k] and reduced matrix M[:k, :k], M = L^-1 A L^-T.
    In float64, level basis.r is solved by eigh(A, B) as if alone, M comes
    from one dsygst; with dps, L and M come from _reduce_hp of the exact A
    and B, and every level from _smallest_hp.  A block that a permutation of
    x1..x_{n-1} fixing both term sets maps onto an earlier one (same key) is
    not assembled, factored or solved: it repeats that block's eigenvalues
    at every level, and never wins.  Times run from start (default: the
    call): the top level carries the shared work (with dps, the reduction),
    level basis.r - 1 the dsygst, each level its own dpocon and solve.
    """
    marks = [time.perf_counter() if start is None else start]
    n, top = basis.n, basis.r
    levels = range(top if r_lo is None else r_lo, top + 1)
    E = basis.exponent_array()
    # the level sizes: elements come in order of degree
    ends = np.searchsorted(E.sum(axis=1), levels, side="right")
    comps, keys = _parity_components(basis.elements, list(num_terms) + list(den_terms),
                                     _symmetry_classes(n, [num_terms, den_terms]))
    results, norms, spent = [[] for _ in levels], [[] for _ in levels], [0.0] * len(levels)
    orbits = {}  # key -> per level, the eigenvalues of the orbit's first block, no vector
    solve_float = dps is None and constant is None

    def lap(i):
        marks.append(time.perf_counter())
        spent[i] += marks[-1] - marks[-2]

    for comp, key in zip(comps, keys):
        if key in orbits:  # repeating its first block's norms would move no max or min
            for res, copies in zip(results, orbits[key]):
                res += copies
            continue
        first = [len(res) for res in results]
        ks = np.searchsorted(comp, ends).tolist()
        below = ks[-2] if len(ks) > 1 else 0
        Ec = E[comp]
        A = moment_matrix(Ec, Ec, n, terms=num_terms) if solve_float else None
        B = moment_matrix(Ec, Ec, n, terms=den_terms)
        # top level first, so its lap takes the shared work; the norms'
        # temporaries come before L exists
        for i in range(len(ks) - 1, -1, -1):
            if ks[i]:
                norms[i].append(float(np.linalg.norm(B[:ks[i], :ks[i]], 1)))
            lap(i)
        L, info = dpotrf(B.T, lower=1)
        if info and dps is None:
            raise ConditioningError(
                f"B not numerically positive definite at level r={top}: Cholesky of a "
                f"{len(comp)}x{len(comp)} block failed at leading minor {info}; retry with dps set")
        for i in range(len(ks) - 1, -1, -1):
            k = ks[i]
            if k:  # a leading factor is complete below the minor that failed
                bnorm = norms[i][-1]
                norms[i][-1] = (bnorm, dpocon(L[:k, :k], bnorm, uplo="L")[0]
                                if info == 0 or k < info else 0.0)
            lap(i)
        if solve_float:
            # the lower levels' block of A, copied: the top level's solve
            # overwrites A and B (their transposes are LAPACK's F-order arrays)
            M = A[:below, :below].copy(order="F")
            results[-1].append((*_solve_block(top, A.T, B.T, overwrite_a=True,
                                              overwrite_b=True), comp))
            del A, B
            lap(-1)
            if below:
                M = dsygst(M, L[:below, :below], lower=1, overwrite_a=1)[0]
                lap(-2)
        elif constant is None:
            elems_c = [basis.elements[i] for i in comp]
            L, M = _reduce_hp(*(gram_matrix_fraction(elems_c, n, t)
                                for t in (num_terms, den_terms)), dps)
            lap(-1)
        for i in range(len(ks) - 1 - solve_float, -1, -1):
            k = ks[i]
            if k and solve_float:
                w0, w1, q = _solve_block(levels[i], M[:k, :k])
                # v = L[:k, :k]^-T q, solved with all of L and q padded by zeros
                v = scipy.linalg.solve_triangular(L, np.pad(q, (0, len(L) - k)),
                                                  trans="T", lower=True)
                results[i].append((w0, w1, v[:k], comp[:k]))
            elif k and constant is None:
                results[i].append((*_smallest_hp(L, M, k, dps), comp[:k]))
            lap(i)
        L = M = None  # freed before the next block is assembled
        orbits[key] = [[(*res[:2], None, None) for res in level[j:]]
                       for level, j in zip(results, first)]
    out = []
    for i, r in enumerate(levels):
        size = int(ends[i])
        if constant is None:
            value, coeffs, gap = _pick_winner(results[i], size)
            degenerate = gap < GAP_TOL
        else:
            # every vector is optimal; e_1 is B-normalized (the Gram entry at 1,1 is 1)
            value, coeffs, degenerate = constant, np.zeros(size), size > 1
            coeffs[0] = 1.0
        bmax = max(bnorm for bnorm, _ in norms[i])
        bmin = min(rcond * bnorm for bnorm, rcond in norms[i])
        cond = bmax / bmin if bmin > 0 else np.inf
        res = BoundResult(n=n, r=r, value=value, coeffs=coeffs,
                          basis=BasisSpec(n=n, r=r, elements=basis.elements[:size]),
                          condition_number=cond, condition_warning=bool(cond > COND_LIMIT),
                          degenerate=bool(degenerate))
        lap(i)
        out.append((res, spent[i]))
    return out


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
    return level_bounds(f, n, r, r, dps)[0][0]


def level_bounds(f, n, r_lo, r_hi, dps=None):
    """(upper_bound(f, n, r, dps), seconds) for r = r_lo..r_hi from the level-r_hi blocks
    (see _solve_pencil): exact at r_hi, with dps but for condition_number, else up to rounding."""
    start = time.perf_counter()
    n, r_lo = _check_args(n, r_lo, [f], dps)
    _, r_hi = check_level(n, r_hi)
    if r_lo > r_hi:
        raise ValueError("empty level range")
    constant = f.constant_term() if f.is_constant() else None
    return _solve_pencil(f.terms, _unit(n), sphere_basis(n, r_hi), dps, constant, r_lo, start)


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
        return _solve_pencil(p.terms, q.terms, basis, dps)[0][0]
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
    g = Polynomial(res.n, dict(zip(res.basis.elements, res.coeffs)))
    return Density(h=g * g, r=res.r, basis=res.basis, coeffs=res.coeffs.copy())


def check_grid(resolution, *dims):
    """density_grid's resolution, checked (with each dimension 3) before any solve."""
    if any(as_index(d, "dimension") != 3 for d in dims):
        raise ValueError("density grids are defined for n = 3 only")
    resolution = as_index(resolution, "resolution")
    if resolution < 1:
        raise ValueError("resolution must be positive")
    if (resolution + 1) ** 2 > NODE_BUDGET:
        raise ValueError(f"density grid needs {(resolution + 1) ** 2} points, "
                         f"over the budget {NODE_BUDGET}")
    return resolution


def density_grid(den, n, resolution=100):
    """Tabulate the density on a spherical-coordinate grid (n = 3 only).

    Rows are (theta, phi, h) with theta in [0, pi] and phi in [0, 2 pi],
    both sampled at resolution+1 equispaced values, theta varying slowest;
    the point map is x = (sin t sin p, sin t cos p, cos t).  A grid of more
    than NODE_BUDGET points raises ValueError before any array is built.
    """
    resolution = check_grid(resolution, n, den.basis.n)
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
