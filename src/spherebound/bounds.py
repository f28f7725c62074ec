"""Minimum-expectation upper bounds over sum-of-squares densities.

The level-r bound for f on the sphere is the smallest generalized eigenvalue
of the pencil (A_f, B) over the reduced monomial basis.  Both matrices couple
only exponent tuples whose parities match through some monomial of f, so the
pencil splits into independent blocks; the solver exploits that split, which
leaves every eigenvalue unchanged and keeps large levels tractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from .basis import BasisSpec, gram_matrix_fraction, moment_matrix, sphere_basis
from .polynomials import Polynomial
from .sampling import sphere_points

# condition number of the Gram matrix beyond which results carry a warning
COND_LIMIT = 1e12
# eigenvalue gap under which the smallest eigenvalue is flagged as multiple
GAP_TOL = 1e-10


class ConditioningError(RuntimeError):
    """The Gram-type matrix is not numerically positive definite."""


class CertificationError(RuntimeError):
    """A required positivity certificate failed."""


@dataclass(frozen=True)
class BoundResult:
    """Bound value with the optimal density's coefficient vector.

    coeffs is normalized against the constraint matrix of the pencil (the
    Gram matrix, or A_q for rational bounds); degenerate marks a smallest
    eigenvalue with gap below GAP_TOL, where the density is non-unique and
    the reported one is the solver's canonical choice.
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
        return {
            "n": self.n,
            "r": self.r,
            "value": self.value,
            "basis_size": len(self.basis),
            "condition_warning": self.condition_warning,
            "coeffs": [float(c) for c in self.coeffs],
        }


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
    some shift (monomial of f); the components of that graph give a block
    structure shared by every matrix in the pencil.
    """
    class_ids = {}
    members = []
    for i, a in enumerate(elements):
        p = tuple(e & 1 for e in a)
        j = class_ids.setdefault(p, len(members))
        if j == len(members):
            members.append([])
        members[j].append(i)
    parent = list(range(len(members)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in shifts:
        gp = tuple(e & 1 for e in g)
        for p, j in class_ids.items():
            q = tuple((a + b) & 1 for a, b in zip(p, gp))
            k = class_ids.get(q)
            if k is not None:
                rj, rk = find(j), find(k)
                if rj != rk:
                    parent[rk] = rj
    groups = {}
    for j, idx in enumerate(members):
        groups.setdefault(find(j), []).extend(idx)
    comps = [np.array(sorted(g), dtype=np.intp) for g in groups.values()]
    comps.sort(key=lambda c: c[0])
    return comps


def _localized_block(terms, E, n):
    """Float localized block sum_g c_g M_g over exponent rows E."""
    A = np.zeros((len(E), len(E)))
    for gamma, c in terms.items():
        A += c * moment_matrix(E, E, n, shift=gamma)
    return A


def _assemble_block(terms, E, n):
    """Float pencil block: (sum_g c_g M_g, M_0) over exponent rows E."""
    B = moment_matrix(E, E, n)
    return _localized_block(terms, E, n), B


def _localized_block_fraction(terms, elements, n):
    m = len(elements)
    A = [[Fraction(0)] * m for _ in range(m)]
    for gamma, c in terms.items():
        cf = Fraction(c)
        M = gram_matrix_fraction(elements, n, shift=gamma)
        for i in range(m):
            for j in range(m):
                A[i][j] += cf * M[i][j]
    return A


def _assemble_block_fraction(terms, elements, n):
    B = gram_matrix_fraction(elements, n)
    return _localized_block_fraction(terms, elements, n), B


def _solve_block(A, B, r):
    """Two smallest eigenpairs of A v = lambda B v, plus B's spectrum range."""
    bw = scipy.linalg.eigh(B, eigvals_only=True)
    if bw[0] <= 0.0:
        raise ConditioningError(
            f"Gram matrix numerically indefinite at level r={r} "
            f"(smallest eigenvalue {bw[0]:.3e}); retry with dps set")
    m = len(B)
    hi = min(1, m - 1)
    try:
        w, V = scipy.linalg.eigh(A, B, subset_by_index=[0, hi])
    except scipy.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"Cholesky reduction failed at level r={r}: {exc}; retry with dps set"
        ) from exc
    second = float(w[1]) if hi == 1 else None
    return float(w[0]), second, V[:, 0].copy(), float(bw[0]), float(bw[-1])


def _solve_block_hp(Afrac, Bfrac, dps):
    """High-precision analogue of _solve_block from exact rational entries."""
    import mpmath as mp

    m = len(Bfrac)
    with mp.workdps(dps):
        A = mp.matrix(m)
        B = mp.matrix(m)
        for i in range(m):
            for j in range(m):
                A[i, j] = mp.mpf(Afrac[i][j].numerator) / Afrac[i][j].denominator
                B[i, j] = mp.mpf(Bfrac[i][j].numerator) / Bfrac[i][j].denominator
        try:
            L = mp.cholesky(B)
        except ValueError as exc:
            raise ConditioningError(
                f"high-precision Cholesky failed (dps={dps}): {exc}") from exc
        # M = L^{-1} A L^{-T} via two forward substitutions
        Y = mp.matrix(m)
        for j in range(m):
            for i in range(m):
                s = A[i, j]
                for k in range(i):
                    s -= L[i, k] * Y[k, j]
                Y[i, j] = s / L[i, i]
        M = mp.matrix(m)
        for j in range(m):
            for i in range(m):
                s = Y[j, i]
                for k in range(i):
                    s -= L[i, k] * M[k, j]
                M[i, j] = s / L[i, i]
        for i in range(m):
            for j in range(i):
                avg = (M[i, j] + M[j, i]) / 2
                M[i, j] = avg
                M[j, i] = avg
        E, Q = mp.eigsy(M)
        order = sorted(range(m), key=lambda k: E[k])
        lead = order[0]
        # back-substitute L^T v = q to recover the pencil eigenvector
        v = mp.matrix(m, 1)
        for i in range(m - 1, -1, -1):
            s = Q[i, lead]
            for k in range(i + 1, m):
                s -= L[k, i] * v[k]
            v[i] = s / L[i, i]
        w0 = float(E[lead])
        w1 = float(E[order[1]]) if m > 1 else None
        vec = np.array([float(v[i]) for i in range(m)])
    return w0, w1, vec


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


def _solve_pencil(terms, basis, r, dps):
    """Blockwise smallest eigenpair over the whole pencil."""
    elements = basis.elements
    E = basis.exponent_array()
    comps = _parity_components(elements, list(terms.keys()))
    results = []
    bmin, bmax = np.inf, -np.inf
    for comp in comps:
        Ec = E[comp]
        if dps is None:
            Ab, Bb = _assemble_block(terms, Ec, basis.n)
            w0, w1, vec, lo, hi = _solve_block(Ab, Bb, r)
        else:
            elems_c = [elements[i] for i in comp]
            Afrac, Bfrac = _assemble_block_fraction(terms, elems_c, basis.n)
            w0, w1, vec = _solve_block_hp(Afrac, Bfrac, dps)
            bw = np.linalg.eigvalsh(moment_matrix(Ec, Ec, basis.n))
            lo, hi = float(bw[0]), float(bw[-1])
        bmin = min(bmin, lo)
        bmax = max(bmax, hi)
        results.append((w0, w1, vec, comp))
    value, coeffs, gap = _pick_winner(results, len(elements))
    cond = bmax / bmin if bmin > 0 else np.inf
    return value, coeffs, gap, cond


def _check_dps(dps):
    if dps is not None and dps <= 0:
        raise ValueError(f"dps must be a positive number of digits, got {dps}")


def upper_bound(f, n, r, dps=None):
    """Level-r upper bound for min f on S^{n-1}, with its optimal density.

    Solves A_f v = lambda B v over sphere_basis(n, r) by Cholesky reduction
    and a symmetric eigensolve; the bound is the smallest eigenvalue and is
    nonincreasing in r.  Set dps to a decimal precision to solve in exact
    rational assembly plus high-precision arithmetic instead of float64
    (needed when the Gram condition number approaches 1/eps).
    """
    n = int(n)
    r = int(r)
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if r < 0:
        raise ValueError("level must be nonnegative")
    if f.n != n:
        raise ValueError(f"polynomial dimension {f.n}, expected {n}")
    _check_dps(dps)
    basis = sphere_basis(n, r)
    if f.is_constant():
        # pencil is c*B = lambda*B: every vector is optimal, pick the first
        # basis vector (B-normalized since the Gram entry at 1,1 is 1)
        coeffs = np.zeros(len(basis))
        coeffs[0] = 1.0
        _, _, gap, cond = _solve_pencil({(0,) * n: 1.0}, basis, r, None)
        return BoundResult(n=n, r=r, value=f.constant_term(), coeffs=coeffs,
                           basis=basis, condition_number=cond,
                           condition_warning=bool(cond > COND_LIMIT),
                           degenerate=len(basis) > 1)
    value, coeffs, gap, cond = _solve_pencil(f.terms, basis, r, dps)
    return BoundResult(n=n, r=r, value=value, coeffs=coeffs, basis=basis,
                       condition_number=cond,
                       condition_warning=bool(cond > COND_LIMIT),
                       degenerate=bool(gap < GAP_TOL))


def rational_upper_bound(p, q, n, r, dps=None):
    """Level-r upper bound for min p/q on S^{n-1} (q > 0 on the sphere).

    Solves the pencil (A_p, A_q); the density constraint is the integral of
    q*h equal to 1, and coeffs is A_q-normalized.  The denominator must be
    certified positive: q is sampled on a quasirandom grid and A_q must be
    positive definite at this level.
    """
    n = int(n)
    r = int(r)
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if r < 0:
        raise ValueError("level must be nonnegative")
    if p.n != n or q.n != n:
        raise ValueError("polynomial dimensions must match n")
    _check_dps(dps)
    if not q:
        raise CertificationError("denominator is the zero polynomial")
    samples = q.eval_many(sphere_points(4096, n, seed=11))
    if samples.min() <= 0.0:
        raise CertificationError(
            f"q not certified positive at level r={r}: sampled value "
            f"{samples.min():.3e} on the sphere")
    basis = sphere_basis(n, r)
    elements = basis.elements
    E = basis.exponent_array()
    shifts = list(p.terms.keys()) + list(q.terms.keys())
    comps = _parity_components(elements, shifts)
    results = []
    qmin, qmax = np.inf, -np.inf
    for comp in comps:
        Ec = E[comp]
        if dps is None:
            Ap = _localized_block(p.terms, Ec, n)
            Aq = _localized_block(q.terms, Ec, n)
            qw = np.linalg.eigvalsh(Aq)
            if qw[0] <= 0.0:
                raise CertificationError(
                    f"q not certified positive at level r={r}: A_q has "
                    f"eigenvalue {qw[0]:.3e}")
            try:
                w, V = scipy.linalg.eigh(Ap, Aq, subset_by_index=[0, min(1, len(comp) - 1)])
            except scipy.linalg.LinAlgError as exc:
                raise CertificationError(
                    f"q not certified positive at level r={r}: {exc}") from exc
            w0 = float(w[0])
            w1 = float(w[1]) if len(comp) > 1 else None
            vec = V[:, 0].copy()
        else:
            elems_c = [elements[i] for i in comp]
            Apf = _localized_block_fraction(p.terms, elems_c, n)
            Aqf = _localized_block_fraction(q.terms, elems_c, n)
            try:
                w0, w1, vec = _solve_block_hp(Apf, Aqf, dps)
            except ConditioningError as exc:
                raise CertificationError(
                    f"q not certified positive at level r={r}: {exc}") from exc
            qw = np.linalg.eigvalsh(_localized_block(q.terms, Ec, n))
        qmin = min(qmin, float(qw[0]))
        qmax = max(qmax, float(qw[-1]))
        results.append((w0, w1, vec, comp))
    value, coeffs, gap = _pick_winner(results, len(elements))
    cond = qmax / qmin if qmin > 0 else np.inf
    return BoundResult(n=n, r=r, value=value, coeffs=coeffs, basis=basis,
                       condition_number=cond,
                       condition_warning=bool(cond > COND_LIMIT),
                       degenerate=bool(gap < GAP_TOL))


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
    the point map is x = (sin t sin p, sin t cos p, cos t).
    """
    if int(n) != 3 or den.basis.n != 3:
        raise ValueError("density grids are defined for n = 3 only")
    resolution = int(resolution)
    if resolution < 1:
        raise ValueError("resolution must be positive")
    theta = np.linspace(0.0, np.pi, resolution + 1)
    phi = np.linspace(0.0, 2.0 * np.pi, resolution + 1)
    T, P = np.meshgrid(theta, phi, indexing="ij")
    t, p = T.ravel(), P.ravel()
    st = np.sin(t)
    X = np.column_stack([st * np.sin(p), st * np.cos(p), np.cos(t)])
    E = den.basis.exponent_array()
    vals = np.zeros(len(X))
    pows = [X[:, i][:, None] ** np.arange(E[:, i].max() + 1) for i in range(3)]
    for col, c in enumerate(den.coeffs):
        if c != 0.0:
            a = E[col]
            vals += c * pows[0][:, a[0]] * pows[1][:, a[1]] * pows[2][:, a[2]]
    return np.column_stack([t, p, vals ** 2])


def grid_local_maxima(grid, resolution):
    """Strict 8-neighbor local maxima of a density grid, highest first.

    phi wraps around (the duplicate phi = 2 pi column is dropped); the two
    pole rows are excluded since all their entries map to a single point.
    """
    resolution = int(resolution)
    H = np.asarray(grid)[:, 2].reshape(resolution + 1, resolution + 1)
    core = H[:, :resolution]
    strict = np.ones_like(core, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            shifted = np.roll(core, -dj, axis=1)
            if di == -1:
                neighbor = np.vstack([np.full((1, resolution), np.inf), shifted[:-1]])
            elif di == 1:
                neighbor = np.vstack([shifted[1:], np.full((1, resolution), np.inf)])
            else:
                neighbor = shifted
            strict &= core > neighbor
    strict[0, :] = False
    strict[resolution, :] = False
    out = []
    theta = np.asarray(grid)[:, 0].reshape(resolution + 1, resolution + 1)
    phi = np.asarray(grid)[:, 1].reshape(resolution + 1, resolution + 1)
    for i, j in zip(*np.nonzero(strict)):
        out.append((theta[i, j], phi[i, j], core[i, j]))
    out.sort(key=lambda row: -row[2])
    return np.array(out) if out else np.empty((0, 3))
