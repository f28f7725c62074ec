"""Minimum-expectation upper bounds over sum-of-squares densities.

The level-r bound for f on the sphere is the smallest generalized eigenvalue
of the pencil (A_f, B) over the reduced monomial basis, where A_g holds the
moments of g x^a x^b and B = A_1 is the Gram matrix.  The rational bound for
p/q is the same problem with B replaced by A_q, so the plain bound and the
rational bound share one solver, which takes only the problem (the
polynomials p and q, the levels, dps) and times itself: the plain bound is
its q = 1 case in every field, and a constant over a constant is the
quotient rounded up.  Both matrices couple only exponent tuples whose
parities match through some monomial of the numerator or denominator, so the
pencil splits into independent blocks; the solver exploits that split, which
leaves every eigenvalue unchanged and keeps large levels tractable.  Each
block is reduced once, in float64 or with dps from its exact A and B, and
every level is solved from a leading block of the reduction, except where
Cauchy interlacing shows that the block cannot hold that level's minimum.
Blocks that a permutation of x1..x_{n-1} fixing the numerator and the
denominator maps onto each other have one spectrum, and are solved once.
"""

from __future__ import annotations

import collections
import functools
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpocon, dpotrf, dsygst

from .basis import (BasisSpec, _parity_classes, check_level, gram_matrix_fraction, moment_matrix,
                    sphere_basis)
from .cubature import check_budget
from .polynomials import Polynomial, as_index, check_dimension
from .sampling import sphere_points  # noqa: F401 (kept for wrappers by name)

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
# points of the sample on which rational_upper_bound checks that q > 0
POSITIVITY_POINTS = 16_384


class ConditioningError(RuntimeError):
    """The pencil's B (Gram matrix or A_q) is not numerically positive definite."""


class CertificationError(RuntimeError):
    """A required positivity certificate failed."""


class _CholeskyError(ConditioningError):
    """B did not factor: rational_upper_bound reports A_q as not positive definite."""


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

    Two basis elements (exponent tuples, or rows of an exponent array)
    interact iff their parities differ by the parity of some shift (monomial
    of the numerator or denominator); the components of that graph give a
    block structure shared by every matrix in the pencil.  A search over
    parity classes, taken in order of first appearance, lists the blocks by
    their smallest index.  A block's key is its size and the least, over its
    parity vectors, of their odd counts per coordinate class (None: each
    coordinate alone).  Permutations within _symmetry_classes map the basis
    onto itself and a block onto a block, so two blocks share a key exactly
    when one maps onto the other.
    """
    if len(elements) == 0:
        return [], []
    E = np.asarray(elements, dtype=np.int64)
    cls = _parity_classes(E)
    by_parity = {tuple((E[i] & 1).tolist()): np.flatnonzero(cls == cls[i])
                 for i in np.sort(np.unique(cls, return_index=True)[1])}
    flips = {tuple(e & 1 for e in g) for g in shifts}
    comps, keys = [], []
    while by_parity:
        # reached classes leave the dict, and are visited as they are appended
        reached = [next(iter(by_parity))]
        idx = [by_parity.pop(reached[0])]
        for p in reached:
            for g in flips:
                q = tuple(a ^ b for a, b in zip(p, g))
                if q in by_parity:
                    idx.append(by_parity.pop(q))
                    reached.append(q)
        comps.append(np.sort(np.concatenate(idx)))
        keys.append((len(comps[-1]), min(tuple(sum(p[k] for k in c) for c in classes) if classes
                                   else p for p in reached)))
    return comps, keys


def build_pencil(f, basis):
    """Assemble the whole pencil (A_f, B) over the given basis, unsplit."""
    check_dimension(basis.n, f)
    E = basis.exponent_array()
    return Pencil(A=moment_matrix(E, E, basis.n, terms=f.terms),
                  B=moment_matrix(E, E, basis.n), basis=basis)


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
            raise _CholeskyError(f"high-precision Cholesky failed (dps={dps}): {exc}") from exc
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
    lam0, *others = sorted(w0 for w0, *_ in results)
    gap = min(others + [w1 for _, w1, _, _ in results if w1 is not None], default=np.inf) - lam0
    w0, _, vec, comp = next(res for res in results if res[0] <= lam0 + GAP_TOL)
    coeffs = np.zeros(size)
    coeffs[comp] = vec
    i = int(np.argmax(np.abs(coeffs)))
    if coeffs[i] < 0:
        coeffs = -coeffs
    return lam0, coeffs, gap


def _kept(ks, w_top, floor):
    """(index, size) of each lower level, top down, where a block of sizes ks whose top-level
    eigenvalue is w_top can win or tie: by Cauchy interlacing a leading block's least
    eigenvalue is at least w_top, so none where w_top lies more than GAP_TOL above floor."""
    return [(i, ks[i]) for i in range(len(floor) - 1, -1, -1)
            if ks[i] and w_top <= floor[i] + GAP_TOL]


def _float_levels(levels, ks, floor, A, B, L):
    """Float64 solves of one block: (level index, (w0, w1, v)) in the order done, and
    (index of level r_hi - 1, None) after the dsygst.

    A and B are the block at the top level, ks its size per level, L the Cholesky factor
    of B.  eigh(A, B) solves the top level as if alone, overwriting A and B, which are then
    freed.  One dsygst makes M = L^-1 A L^-T up to the largest level _kept leaves; each of
    those levels is eigh of M[:k, :k], with v = L[:k, :k]^-T q solved with all of L and q
    padded by zeros.
    """
    # copied: the top level's solve overwrites A and B (their transposes are
    # LAPACK's F-order arrays)
    M = A[:ks[-2], :ks[-2]].copy(order="F") if len(ks) > 1 else None
    top = _solve_block(levels[-1], A.T, B.T, overwrite_a=True, overwrite_b=True)
    del A, B
    yield len(ks) - 1, top
    kept = _kept(ks, top[0], floor)
    if kept:  # up to the largest level still to solve
        k = kept[0][1]
        M = dsygst(M[:k, :k], L[:k, :k], lower=1, overwrite_a=1)[0]
        yield len(ks) - 2, None
    for i, k in kept:
        w0, w1, q = _solve_block(levels[i], M[:k, :k])
        # the top level's eigh(A, B) has checked B, so L is finite
        padded = np.zeros(len(L))
        padded[:k] = q
        v = scipy.linalg.solve_triangular(L, padded, trans="T", lower=True, check_finite=False)
        yield i, (w0, w1, v[:k])


def _hp_levels(ks, floor, Afrac, Bfrac, dps):
    """dps-digit solves of one block from its exact A and B, yielded as by _float_levels:
    one _reduce_hp, then _smallest_hp at the top level and at each level _kept leaves."""
    L, M = _reduce_hp(Afrac, Bfrac, dps)
    top = _smallest_hp(L, M, ks[-1], dps)
    yield len(ks) - 1, top
    for i, k in _kept(ks, top[0], floor):
        yield i, _smallest_hp(L, M, k, dps)


def _solve_pencil(p, q, r_lo, r_hi, dps):
    """(BoundResult, seconds) per level r_lo..r_hi of (A_p, A_q) over sphere_basis(p.n, r_hi).

    Coefficients are A_q-normalized.  Blocks are factored in order, by a
    float Cholesky of A_q; without dps the first block that does not factor
    raises ConditioningError for level r_hi, after the blocks before it are
    solved.  condition_number is max ||B_i|| * max ||B_i^-1|| over a level's
    blocks, from dpocon, inf if a block did not factor.  Constants a over b
    take no solve: a/b rounded up, with the A_q-normalized e_1 / sqrt(b).
    Otherwise _float_levels (dps None) or _hp_levels solves the first block of
    each key, and its records are written once more, without a vector, for
    each other block of that key; those copies never win.  Times run from the
    call: the top level carries the basis and the shared work, level r_hi - 1
    the dsygst, and each level its own norm, dpocon and solves.
    """
    marks = [time.perf_counter()]
    n = p.n
    basis = sphere_basis(n, r_hi)
    levels = range(r_lo, r_hi + 1)
    E = basis.exponent_array()
    # the level sizes: elements come in order of degree
    ends = np.searchsorted(E.sum(axis=1), levels, side="right")
    comps, keys = _parity_components(E, list(p.terms) + list(q.terms),
                                     _symmetry_classes(n, [p.terms, q.terms]))
    results, bnorms, rconds = ([[] for _ in levels] for _ in range(3))
    constant = p.is_constant() and q.is_constant()
    if constant:  # (a B, b B): a/b rounded up, repeated if k > 1; B_11 = 1
        from fractions import Fraction
        a, b = p.constant_term(), q.constant_term()
        c = a / b if a / b >= Fraction(a) / Fraction(b) else math.nextafter(a / b, math.inf)
        results = [[(c, c if k > 1 else None, [b ** -0.5], [0])] for k in ends]
    spent = [0.0] * len(levels)
    orbit_sizes = collections.Counter(keys)

    def lap(i):
        marks.append(time.perf_counter())
        spent[i] += marks[-1] - marks[-2]

    for comp, key in zip(comps, keys):
        if key not in orbit_sizes:  # written by its orbit's first block; same norms
            continue
        copies = orbit_sizes.pop(key) - 1
        ks = np.searchsorted(comp, ends).tolist()
        floor = [min((w0 for w0, *_ in res), default=np.inf) for res in results[:-1]]
        Ec = E[comp]
        A = moment_matrix(Ec, Ec, n, p.terms) if dps is None and not constant else None
        B = moment_matrix(Ec, Ec, n, q.terms)
        # top level first, so its lap takes the assembly; the norms'
        # temporaries come before L exists
        for i, k in reversed(list(enumerate(ks))):
            if k:
                bnorms[i].append(float(np.linalg.norm(B[:k, :k], 1)))
            lap(i)
        L, info = dpotrf(B.T, lower=1)
        if info and dps is None:
            raise _CholeskyError(
                f"B not numerically positive definite at level r={r_hi}: Cholesky of a "
                f"{len(comp)}x{len(comp)} block failed at leading minor {info}; retry with dps set")
        for i, k in reversed(list(enumerate(ks))):
            if k:  # a leading factor is complete below the minor that failed
                rconds[i].append(dpocon(L[:k, :k], bnorms[i][-1], uplo="L")[0]
                                 if info == 0 or k < info else 0.0)
            lap(i)
        if constant:
            steps = ()
        elif dps is None:
            steps = _float_levels(levels, ks, floor, A, B, L)
        else:
            elems_c = [basis.elements[i] for i in comp]
            steps = _hp_levels(ks, floor, *(gram_matrix_fraction(elems_c, n, t)
                                             for t in (p.terms, q.terms)), dps)
        A = B = L = None  # so that _float_levels holds the only references, and frees A, B early
        for i, res in steps:
            if res:
                results[i] += [(*res, comp[:ks[i]])] + [(*res[:2], None, None)] * copies
            lap(i)
    out = []
    for i, r in enumerate(levels):
        size = int(ends[i])
        value, coeffs, gap = _pick_winner(results[i], size)
        bmin = min(rcond * bnorm for bnorm, rcond in zip(bnorms[i], rconds[i]))
        cond = max(bnorms[i]) / bmin if bmin > 0 else np.inf
        res = BoundResult(n=n, r=r, value=value, coeffs=coeffs,
                          basis=BasisSpec(n=n, r=r, elements=basis.elements[:size]),
                          condition_number=cond, condition_warning=bool(cond > COND_LIMIT),
                          degenerate=bool(gap < GAP_TOL))
        lap(i)
        out.append((res, spent[i]))
    return out


def _check_args(n, r, polys, dps):
    """check_level's (n, r), with dps an integer of at least DPS_MIN if set."""
    n, r = check_level(n, r, *polys)
    if dps is not None:
        as_index(dps, "dps", DPS_MIN)
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
    """(upper_bound(f, n, r, dps), seconds) for r = r_lo..r_hi: f over the constant 1 from the
    level-r_hi blocks (see _solve_pencil): exact at r_hi, with dps but for condition_number,
    else up to rounding.  Below r_hi a block is solved only where interlacing leaves it able to
    win.  The seconds are the solver's, whose clock starts after these argument checks: level
    r_hi's carry the basis, the shared assembly, factorization and (with dps) reduction, level
    r_hi - 1's the dsygst, and each level's its own norm, dpocon estimate and solves."""
    n, r_lo = _check_args(n, r_lo, [f], dps)
    _, r_hi = check_level(n, r_hi)
    if r_lo > r_hi:
        raise ValueError("empty level range")
    return _solve_pencil(f, Polynomial.constant(n, 1.0), r_lo, r_hi, dps)


def rational_upper_bound(p, q, n, r, dps=None):
    """Level-r upper bound for min p/q on S^{n-1} (q > 0 on the sphere).

    Solves the pencil (A_p, A_q); the density constraint is the integral of
    q*h equal to 1, and coeffs is A_q-normalized.  The denominator is checked,
    not certified: q must be positive on a fixed POSITIVITY_POINTS-point
    random sample of the sphere and A_q must be positive definite at this
    level.  A q that dips below zero between the sample points can pass both
    checks.  A constant a over a constant b takes no solve and gives a/b
    rounded up to the least float not below it.
    """
    n, r = _check_args(n, r, [p, q], dps)
    if not q:
        raise CertificationError("denominator is the zero polynomial")
    samples = q.eval_many(_positivity_sample(n))
    if samples.min() <= 0.0:
        raise CertificationError(
            f"q not certified positive at level r={r}: sampled value "
            f"{samples.min():.3e} on the sphere")
    try:
        return _solve_pencil(p, q, r, r, dps)[0][0]
    except _CholeskyError as exc:
        raise CertificationError(f"q not certified positive at level r={r}: {exc}") from exc


@functools.cache
def _positivity_sample(n):
    """rational_upper_bound's POSITIVITY_POINTS normalized Gaussian points on
    S^{n-1}, drawn once per dimension and read-only, since every call shares
    them.  RandomState(11), whose stream NumPy keeps fixed across versions
    (NEP 19), makes the sample reproducible without scipy.stats."""
    points = np.random.RandomState(11).standard_normal((POSITIVITY_POINTS, n))
    points /= np.linalg.norm(points, axis=1)[:, None]
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
    resolution = as_index(resolution, "resolution", 1)
    check_budget((resolution + 1) ** 2, "density grid", "points")
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
    resolution = as_index(resolution, "resolution", 1)
    grid = np.asarray(grid)
    if grid.shape != ((resolution + 1) ** 2, 3):
        raise ValueError(f"a density grid at resolution {resolution} must have "
                         f"{(resolution + 1) ** 2} rows of 3 columns, got shape {grid.shape}")
    G = grid.reshape(resolution + 1, resolution + 1, 3)[:, :resolution]
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
