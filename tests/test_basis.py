"""Reduced monomial basis and moment-matrix pencil assembly."""

import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_poly, random_sphere
from spherebound import (MomentOracle, Polynomial, build_pencil, dump_matrix,
                         gram_matrix, localized_matrix, motzkin_form,
                         parse_poly, reduce_mod_sphere, sphere_basis,
                         sphere_points)
from spherebound.basis import _lgamma_tables, gram_matrix_fraction, moment_matrix
from spherebound.bounds import _parity_components


class TestSphereBasis:
    def test_smallest_case(self):
        b = sphere_basis(2, 1)
        assert b.elements == ((0, 0), (1, 0), (0, 1))
        assert len(b) == 3

    def test_reference_sizes(self):
        assert len(sphere_basis(3, 2)) == 9
        assert len(sphere_basis(3, 9)) == 100

    def test_counting_formula(self):
        for n in range(2, 6):
            for r in range(0, 8):
                size = math.comb(r + n - 1, n - 1)
                if r >= 1:
                    size += math.comb(r - 1 + n - 1, n - 1)
                assert len(sphere_basis(n, r)) == size

    def test_membership_and_order(self):
        b = sphere_basis(3, 4)
        elems = b.elements
        assert len(set(elems)) == len(elems)
        for a in elems:
            assert sum(a) <= 4 and a[-1] <= 1
        # graded lexicographic: degree first, then x1 before x2 before x3
        key = [(sum(a), tuple(-v for v in a)) for a in elems]
        assert key == sorted(key)

    def test_index_lookup(self):
        b = sphere_basis(3, 3)
        for i, a in enumerate(b.elements):
            assert b.index(a) == i

    def test_exponent_array(self):
        b = sphere_basis(4, 2)
        E = b.exponent_array()
        assert E.shape == (len(b), 4)
        assert all(tuple(row) == a for row, a in zip(E, b.elements))


class TestGramMatrix:
    def test_unit_entry(self):
        for n, r in [(2, 1), (3, 3), (4, 2)]:
            B = gram_matrix(sphere_basis(n, r))
            assert B[0, 0] == 1.0

    def test_circle_level_one(self):
        B = gram_matrix(sphere_basis(2, 1))
        assert_allclose(B, np.diag([1.0, 0.5, 0.5]), rtol=0, atol=1e-15)

    def test_symmetric(self):
        for n, r in [(3, 4), (4, 3)]:
            B = gram_matrix(sphere_basis(n, r))
            assert np.max(np.abs(B - B.T)) <= 1e-14

    def test_positive_definite_certificate(self):
        for n in (2, 3, 4):
            for r in range(0, 7):
                B = gram_matrix(sphere_basis(n, r))
                assert np.linalg.eigvalsh(B)[0] > 1e-10

    def test_matches_exact_rational(self):
        for n, r in [(2, 5), (3, 3)]:
            b = sphere_basis(n, r)
            B = gram_matrix(b)
            F = gram_matrix_fraction(b.elements, n)
            ref = np.array([[float(v) for v in row] for row in F])
            assert_allclose(B, ref, rtol=1e-14, atol=1e-16)

    def test_matches_quasirandom_sampling(self):
        b = sphere_basis(3, 3)
        B = gram_matrix(b)
        X = sphere_points(1 << 18, 3, seed=2)
        V = np.ones((len(X), len(b)))
        for j, a in enumerate(b.elements):
            V[:, j] = np.prod(X ** np.asarray(a), axis=1)
        est = (V.T @ V) / len(X)
        assert np.max(np.abs(est - B)) < 1e-3

    def test_completeness_of_reduced_monomials(self):
        # every monomial of degree <= r reconstructs from the basis through
        # the Gram system
        rng = np.random.default_rng(8)
        for n, r in [(2, 4), (3, 4)]:
            b = sphere_basis(n, r)
            B = gram_matrix(b)
            o = MomentOracle(n)
            X = random_sphere(50, n, rng)
            for gamma in _monomials(n, r):
                mono = Polynomial(n, {gamma: 1.0})
                reduced = reduce_mod_sphere(mono)
                v = np.array([o.integrate(reduced * Polynomial(n, {a: 1.0}))
                              for a in b.elements])
                c = np.linalg.solve(B, v)
                recon = Polynomial(n, {a: float(ci)
                                       for a, ci in zip(b.elements, c)
                                       if abs(ci) > 0})
                err = np.abs(recon.eval_many(X) - mono.eval_many(X))
                assert err.max() < 1e-10


def _monomials(n, degree):
    out = []

    def rec(prefix, rest):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for k in range(rest + 1):
            rec(prefix + [k], rest - k)

    rec([], degree)
    return out


class TestLocalizedMatrix:
    def test_identity_objective_recovers_gram(self):
        b = sphere_basis(3, 3)
        A = localized_matrix(Polynomial.constant(3, 1.0), b)
        B = gram_matrix(b)
        assert np.array_equal(A, B)

    def test_circle_linear_objective(self):
        b = sphere_basis(2, 1)
        A = localized_matrix(parse_poly("x1", 2), b)
        expect = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert_allclose(A, expect, rtol=0, atol=1e-15)

    def test_motzkin_level_zero(self):
        A = localized_matrix(motzkin_form(), sphere_basis(3, 0))
        assert_allclose(A, [[6.0 / 35]], rtol=1e-13)

    def test_linear_in_objective(self):
        rng = np.random.default_rng(15)
        b = sphere_basis(3, 2)
        f = random_poly(3, 4, rng)
        g = random_poly(3, 4, rng)
        Af = localized_matrix(f, b)
        Ag = localized_matrix(g, b)
        Afg = localized_matrix(f + g, b)
        assert np.max(np.abs(Afg - (Af + Ag))) <= 1e-14

    def test_measure_rescaling_preserves_eigenvalues(self):
        import scipy.linalg
        b = sphere_basis(3, 2)
        f = motzkin_form()
        A, B = localized_matrix(f, b), gram_matrix(b)
        w = scipy.linalg.eigh(A, B, eigvals_only=True)
        w_scaled = scipy.linalg.eigh(7.3 * A, 7.3 * B, eigvals_only=True)
        assert_allclose(w_scaled, w, rtol=1e-12, atol=1e-14)


class TestPencil:
    def test_fields_and_shapes(self):
        b = sphere_basis(3, 2)
        pen = build_pencil(motzkin_form(), b)
        assert pen.basis is b
        assert pen.A.shape == pen.B.shape == (len(b), len(b))
        assert np.max(np.abs(pen.A - pen.A.T)) <= 1e-14
        assert np.max(np.abs(pen.B - pen.B.T)) <= 1e-14

    def test_moment_matrix_shift(self):
        # shifting by a monomial multiplies the integrand
        b = sphere_basis(3, 2)
        E = b.exponent_array()
        o = MomentOracle(3)
        M = moment_matrix(E, E, 3, shift=(2, 0, 0))
        for i in (0, 3, 7):
            for j in (1, 4, 8):
                a = tuple(E[i] + E[j] + np.array([2, 0, 0]))
                assert_allclose(M[i, j], o.moment(a), rtol=1e-13, atol=1e-16)


def _moment_matrix_reference(E1, E2, n, shift=None, chunk=512):
    """Reference assembly: the (rows x cols x n) exponent tensor, reduced."""
    E1 = np.asarray(E1, dtype=np.int64)
    E2 = np.asarray(E2, dtype=np.int64)
    g = np.zeros(n, dtype=np.int64) if shift is None else np.asarray(shift, dtype=np.int64)
    maxdeg = int(E1.sum(axis=1).max(initial=0) + E2.sum(axis=1).max(initial=0) + g.sum())
    lg_half, lg_sum, c0 = _lgamma_tables(n, maxdeg)
    m1, m2 = len(E1), len(E2)
    out = np.empty((m1, m2))
    base = E2[None, :, :] + g[None, None, :]
    for lo in range(0, m1, chunk):
        hi = min(lo + chunk, m1)
        P = E1[lo:hi, None, :] + base
        odd = (P & 1).any(axis=2)
        S = P.sum(axis=2)
        block = np.exp(c0 + lg_half[P].sum(axis=2) - lg_sum[S])
        block[odd] = 0.0
        out[lo:hi] = block
    return out


def _random_exponents(rng, m1, m2, n, top, shift):
    """Random E1, E2 with zero rows; about half of E2's rows have the parity
    of some E1 row plus shift, so both zero and nonzero entries occur."""
    E1 = rng.integers(0, top + 1, size=(m1, n))
    E2 = rng.integers(0, top + 1, size=(m2, n))
    E1[rng.random(m1) < 0.2] = 0
    E2[rng.random(m2) < 0.2] = 0
    if m1:
        g = 0 if shift is None else np.asarray(shift)
        partner = (E1[rng.integers(0, m1, size=m2)] + g) & 1
        pick = rng.random(m2) < 0.5
        E2[pick] = (E2[pick] & ~1) | partner[pick]
    return E1, E2


class TestMomentMatrixAssembly:
    """moment_matrix against the tensor reduction and the exact moments."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_bit_identical_on_random_rectangular(self, n):
        rng = np.random.default_rng(100 + n)
        nonzero = zero = 0
        for m1, m2, chunk in [(37, 23, 512), (37, 23, 8), (1, 9, 512), (0, 5, 512), (6, 0, 4)]:
            for shift in (None, tuple(int(v) for v in rng.integers(0, 4, size=n))):
                E1, E2 = _random_exponents(rng, m1, m2, n, 6, shift)
                M = moment_matrix(E1, E2, n, shift=shift, chunk=chunk)
                ref = _moment_matrix_reference(E1, E2, n, shift=shift, chunk=chunk)
                assert M.shape == (m1, m2)
                assert np.array_equal(M, ref)
                nonzero += np.count_nonzero(M)
                zero += M.size - np.count_nonzero(M)
        assert nonzero > 0 and zero > 0

    def test_bit_identical_on_x5_sweep_blocks(self):
        n, shift = 5, (0, 0, 0, 0, 1)
        basis = sphere_basis(n, 16)
        E = basis.exponent_array()
        comps = _parity_components(basis.elements, [shift])
        assert len(comps) == 16
        for comp in comps:
            Ec = E[comp]
            for g in (None, shift):
                assert np.array_equal(moment_matrix(Ec, Ec, n, shift=g),
                                      _moment_matrix_reference(Ec, Ec, n, shift=g))

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_matches_exact_moments_beyond_seven_coordinates(self, n):
        rng = np.random.default_rng(200 + n)
        o = MomentOracle(n)
        for shift in (None, tuple(int(v) for v in rng.integers(0, 3, size=n))):
            E1, E2 = _random_exponents(rng, 9, 7, n, 4, shift)
            g = np.zeros(n, dtype=np.int64) if shift is None else np.array(shift)
            M = moment_matrix(E1, E2, n, shift=shift)
            ref = np.array([[float(o.moment_fraction(tuple(a + b + g))) for b in E2]
                            for a in E1])
            assert np.count_nonzero(ref) > 0
            assert_allclose(M, ref, rtol=1e-13, atol=0)


    def test_parity_beyond_64_coordinates(self):
        # coordinates past the first 64-bit parity code still decide oddness
        n = 70
        E1 = np.zeros((3, n), dtype=np.int64)
        E1[1, 66] = 1
        E1[2, 66] = 2
        E2 = np.zeros((2, n), dtype=np.int64)
        E2[1, 66] = 1
        o = MomentOracle(n)
        M = moment_matrix(E1, E2, n)
        ref = np.array([[float(o.moment_fraction(tuple(a + b))) for b in E2] for a in E1])
        assert np.array_equal(M == 0.0, ref == 0.0)
        assert_allclose(M, ref, rtol=1e-13, atol=0)


class TestDump:
    def test_round_trip(self):
        B = gram_matrix(sphere_basis(3, 2))
        buf = io.StringIO()
        dump_matrix(B, buf)
        back = np.loadtxt(io.StringIO(buf.getvalue()))
        assert np.array_equal(back, B)
