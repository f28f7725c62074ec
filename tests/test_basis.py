"""Reduced monomial basis and moment-matrix pencil assembly."""

import gc
import itertools
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_poly, random_sphere
from spherebound import (MomentOracle, Polynomial, build_pencil, motzkin_form,
                         parse_poly, sphere_basis, sphere_points, upper_bound)
from spherebound import basis as basis_module
from spherebound import bounds
from spherebound.basis import gram_matrix_fraction, moment_matrix
from spherebound.bounds import _parity_components
from spherebound.moments import _moment_tables


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
        for n, r in [(2, 0), (2, 9), (3, 4), (3, 40), (4, 7), (5, 16), (6, 9), (7, 6)]:
            # every a with |a| <= r and a_n <= 1, in graded lexicographic
            # order: degree first, then x1 before x2 before x3 ...
            ref = sorted((a + (e,) for a in itertools.product(range(r + 1), repeat=n - 1)
                          for e in (0, 1) if sum(a) + e <= r),
                         key=lambda a: (sum(a), tuple(-v for v in a)))
            assert sphere_basis(n, r).elements == tuple(ref)

    def test_enumerator_matches_a_product_filter(self):
        # degree by degree, each degree in descending lexicographic order,
        # with or without a cap on the last exponent
        for n in range(1, 6):
            for r in range(7):
                for cap in (None, 0, 1, 2):
                    ref = tuple(a for d in range(r + 1)
                                for a in itertools.product(range(d, -1, -1), repeat=n)
                                if sum(a) == d and (cap is None or a[-1] <= cap))
                    assert basis_module._exponent_tuples(n, r, cap) == ref

    def test_leaves_no_cyclic_garbage(self):
        # the basis must be freed by reference counting alone: cyclic
        # garbage would hold its working lists until a full collection
        gc.collect()
        gc.disable()
        try:
            sphere_basis(6, 9)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_exponent_array(self):
        b = sphere_basis(4, 2)
        E = b.exponent_array()
        assert E.shape == (len(b), 4)
        assert all(tuple(row) == a for row, a in zip(E, b.elements))


def _gram(b):
    """Gram matrix B[a, b] = normalized moment of x^a * x^b."""
    E = b.exponent_array()
    return moment_matrix(E, E, b.n)


class TestGramMatrix:
    def test_unit_entry(self):
        for n, r in [(2, 1), (3, 3), (4, 2)]:
            B = _gram(sphere_basis(n, r))
            assert B[0, 0] == 1.0

    def test_circle_level_one(self):
        B = _gram(sphere_basis(2, 1))
        assert_allclose(B, np.diag([1.0, 0.5, 0.5]), rtol=0, atol=1e-15)

    def test_symmetric(self):
        for n, r in [(3, 4), (4, 3)]:
            B = _gram(sphere_basis(n, r))
            assert np.max(np.abs(B - B.T)) <= 1e-14

    def test_positive_definite_certificate(self):
        for n in (2, 3, 4):
            for r in range(0, 7):
                B = _gram(sphere_basis(n, r))
                assert np.linalg.eigvalsh(B)[0] > 1e-10

    def test_matches_exact_rational(self):
        for n, r in [(2, 5), (3, 3)]:
            b = sphere_basis(n, r)
            B = _gram(b)
            F = gram_matrix_fraction(b.elements, n)
            ref = np.array([[float(v) for v in row] for row in F])
            assert_allclose(B, ref, rtol=1e-14, atol=1e-16)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_exact_localized_matrix_is_the_per_entry_sum(self, n):
        # each entry is sum_g Fraction(c_g) * moment(a + b + g), exactly, and
        # within float rounding of moment_matrix on the same terms
        rng = np.random.default_rng(500 + n)
        o = MomentOracle(n)
        for r in (0, 1, 2, 3):
            elems = sphere_basis(n, r).elements
            E = np.array(elems, dtype=np.int64)
            for count in (1, 2, 4):
                terms = _random_terms(rng, n, count, 3)
                F = gram_matrix_fraction(elems, n, terms)
                ref = [[sum((Fraction(c) * o.moment_fraction(tuple(x + y + z for x, y, z
                                                                   in zip(a, b, g)))
                             for g, c in terms.items()), Fraction(0))
                        for b in elems] for a in elems]
                assert F == ref
                assert all(isinstance(v, Fraction) for row in F for v in row)
                M = moment_matrix(E, E, n, terms=terms)
                assert_allclose(np.array(F, dtype=float), M, rtol=1e-13, atol=0)
        elems = sphere_basis(n, 2).elements
        assert gram_matrix_fraction(elems, n, {}) == [[Fraction(0)] * len(elems)] * len(elems)
        assert gram_matrix_fraction(elems, n, {(0,) * n: 1}) == gram_matrix_fraction(elems, n)
        assert gram_matrix_fraction([], n) == []
        assert gram_matrix_fraction([], n, _random_terms(rng, n, 2, 2)) == []

    def test_exact_localized_matrix_computes_each_moment_once(self, monkeypatch):
        calls = []
        orig = MomentOracle.moment_fraction

        def counting(self, alpha):
            calls.append(tuple(alpha))
            return orig(self, alpha)

        monkeypatch.setattr(MomentOracle, "moment_fraction", counting)
        elems = sphere_basis(3, 4).elements
        terms = {(1, 0, 0): 0.5, (0, 0, 0): 2.0, (1, 2, 0): -1.0}
        gram_matrix_fraction(elems, 3, terms)
        assert len(calls) == len(set(calls))
        assert set(calls) == {tuple(x + y + z for x, y, z in zip(a, b, g))
                              for a in elems for b in elems for g in terms}

    def test_exact_localized_matrix_rejects_bad_exponents(self, monkeypatch):
        # the elements and term keys are checked on their own, before any
        # moment is summed, with moment_matrix's messages: a term key cannot
        # cancel a negative element, and zip cannot drop a third exponent
        def fail(self, alpha):
            raise AssertionError("checked before any moment")

        cases = [
            ([(-1, 0)], {(2, 0): 1}, "negative exponent in (-1, 0)"),
            ([(0.5, 0)], {(1, 0): 1}, "exponents must be integers, got an array of float64"),
            ([(1, 0, 0)], None, "exponent array of shape (1, 3), expected (m, 2)"),
            ([(1, 0)], {(0, 0): 1, (1, -1): 2}, "negative exponent in (1, -1)"),
            ([(1, 0)], {(1.0, 0): 1}, "exponents must be integers, got an array of float64"),
            ([], {(0, 0, 0): 1}, "exponent array of shape (1, 3), expected (m, 2)"),
            ([(1, 0), (1,)], None, "exponent tuple (1,) has length 1, expected 2"),
            ([(1,), (1, 0)], {(0, 0): 1}, "exponent tuple (1,) has length 1, expected 2"),
            ([(0, 0)], {(1, 0): 1.0, (1,): 2.0}, "exponent tuple (1,) has length 1, expected 2"),
        ]
        monkeypatch.setattr(MomentOracle, "moment_fraction", fail)
        for elements, terms, message in cases:
            E = elements if elements else np.zeros((0, 2), dtype=np.int64)
            with pytest.raises(ValueError, match=re.escape(message)):
                moment_matrix(E, E, 2, terms=terms)
            with pytest.raises(ValueError, match=re.escape(message)):
                gram_matrix_fraction(elements, 2, terms)

    def test_matches_quasirandom_sampling(self):
        b = sphere_basis(3, 3)
        B = _gram(b)
        X = sphere_points(1 << 18, 3, seed=2)
        V = np.ones((len(X), len(b)))
        for j, a in enumerate(b.elements):
            V[:, j] = np.prod(X ** np.asarray(a), axis=1)
        est = (V.T @ V) / len(X)
        assert np.max(np.abs(est - B)) < 1e-3

    def test_completeness_of_reduced_monomials(self):
        # every monomial of degree <= r reconstructs from the basis through
        # the Gram system; the right-hand side integrates the monomial itself,
        # which agrees on the sphere with its reduction to the basis
        rng = np.random.default_rng(8)
        for n, r in [(2, 4), (3, 4)]:
            b = sphere_basis(n, r)
            B = _gram(b)
            o = MomentOracle(n)
            X = random_sphere(50, n, rng)
            for gamma in _monomials(n, r):
                mono = Polynomial(n, {gamma: 1.0})
                v = np.array([o.integrate(mono * Polynomial(n, {a: 1.0}))
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
        A = build_pencil(Polynomial.constant(3, 1.0), b).A
        B = _gram(b)
        assert np.array_equal(A, B)

    def test_circle_linear_objective(self):
        b = sphere_basis(2, 1)
        A = build_pencil(parse_poly("x1", 2), b).A
        expect = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert_allclose(A, expect, rtol=0, atol=1e-15)

    def test_motzkin_level_zero(self):
        A = build_pencil(motzkin_form(), sphere_basis(3, 0)).A
        assert_allclose(A, [[6.0 / 35]], rtol=1e-13)

    def test_linear_in_objective(self):
        rng = np.random.default_rng(15)
        b = sphere_basis(3, 2)
        f = random_poly(3, 4, rng)
        g = random_poly(3, 4, rng)
        Af = build_pencil(f, b).A
        Ag = build_pencil(g, b).A
        Afg = build_pencil(f + g, b).A
        assert np.max(np.abs(Afg - (Af + Ag))) <= 1e-14

    def test_measure_rescaling_preserves_eigenvalues(self):
        import scipy.linalg
        b = sphere_basis(3, 2)
        f = motzkin_form()
        A, B = build_pencil(f, b).A, _gram(b)
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
        assert np.array_equal(pen.B, _gram(b))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            build_pencil(parse_poly("x1", 2), sphere_basis(3, 2))

    def test_moment_matrix_shift(self):
        # shifting by a monomial multiplies the integrand
        b = sphere_basis(3, 2)
        E = b.exponent_array()
        o = MomentOracle(3)
        M = moment_matrix(E, E, 3, terms={(2, 0, 0): 1.0})
        for i in (0, 3, 7):
            for j in (1, 4, 8):
                a = tuple(E[i] + E[j] + np.array([2, 0, 0]))
                assert_allclose(M[i, j], o.moment(a), rtol=1e-13, atol=1e-16)


def _radix(E1, E2, n, shifts):
    """moment_matrix's mixed radix: one more than the largest half-exponent
    sum in each coordinate, over rows E1, columns E2 and every shift."""
    G = np.array(shifts, dtype=np.int64).reshape(-1, 1, n)
    return ((E1 + 1) // 2).max(axis=0) + ((E2 + G) // 2).max(axis=(0, 1)) + 1


def _moment_matrix_reference(E1, E2, n, shift=None, shifts=None):
    """Reference assembly: over the (rows x cols x n) exponent tensor, the
    scaled odd tables multiplied coordinate by coordinate, k = 1 first, over
    the scaled rise table at |P|, then the parity mask.  The tables are the
    ones moment_matrix reads for the given shifts (default: shift alone)."""
    E1 = np.asarray(E1, dtype=np.int64)
    E2 = np.asarray(E2, dtype=np.int64)
    g = np.zeros(n, dtype=np.int64) if shift is None else np.asarray(shift, dtype=np.int64)
    out = np.zeros((len(E1), len(E2)))
    if not out.size:
        return out
    radix = _radix(E1, E2, n, [g] if shifts is None else shifts)
    odd2, rise2 = _moment_tables(n, 1 << int(radix.sum()).bit_length())[2:]
    for lo in range(0, len(E1), 128):
        P = E1[lo:lo + 128, None, :] + (E2 + g)[None, :, :]
        odd = (P & 1).any(axis=2)
        block = odd2[P[:, :, 0]]
        for k in range(1, n):
            block = block * odd2[P[:, :, k]]
        block = block / rise2[np.where(odd, 0, P.sum(axis=2))]
        block[odd] = 0.0
        out[lo:lo + 128] = block
    return out


def _single(shift):
    """The one-term mapping {shift: 1.0}, or None (the Gram matrix) for None."""
    return None if shift is None else {shift: 1.0}


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
    def test_bit_identical_on_random_rectangular(self, n, monkeypatch):
        rng = np.random.default_rng(100 + n)
        nonzero = zero = 0
        for m1, m2, chunk in [(37, 23, 512), (37, 23, 8), (1, 9, 512), (0, 5, 512), (6, 0, 4)]:
            monkeypatch.setattr(basis_module, "ASSEMBLY_ROWS", chunk)
            for shift in (None, tuple(int(v) for v in rng.integers(0, 4, size=n))):
                E1, E2 = _random_exponents(rng, m1, m2, n, 6, shift)
                M = moment_matrix(E1, E2, n, terms=_single(shift))
                ref = _moment_matrix_reference(E1, E2, n, shift=shift)
                assert M.shape == (m1, m2)
                assert np.array_equal(M, ref)
                nonzero += np.count_nonzero(M)
                zero += M.size - np.count_nonzero(M)
        assert nonzero > 0 and zero > 0

    def test_bit_identical_on_x5_sweep_blocks(self):
        n, shift = 5, (0, 0, 0, 0, 1)
        basis = sphere_basis(n, 16)
        E = basis.exponent_array()
        comps, _ = _parity_components(basis.elements, [shift])
        assert len(comps) == 16
        for comp in comps:
            Ec = E[comp]
            for g in (None, shift):
                assert np.array_equal(moment_matrix(Ec, Ec, n, terms=_single(g)),
                                      _moment_matrix_reference(Ec, Ec, n, shift=g))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", ["x5-sweep-r16", "s2-r20", "s1-degree-2000", "x1-n400-r1"])
    def test_within_two_ulps_of_exact_moments(self, case, monkeypatch):
        # every entry lies within 2 ulps of the exact moment rounded to float:
        # each table entry is rounded once and the scales top^h cancel, so
        # neither the error of a sum of logarithms nor an overflow of (2h - 1)!!
        # (n = 400 builds tables to h = 1023) reaches the matrix
        calls = []
        if case == "x5-sweep-r16":
            n, shift = 5, (0, 0, 0, 0, 1)
            basis = sphere_basis(n, 16)
            E = basis.exponent_array()
            for comp in _parity_components(basis.elements, [shift])[0]:
                calls += [(E[comp], E[comp], n, g) for g in (None, shift)]
        elif case == "s2-r20":
            E = sphere_basis(3, 20).exponent_array()
            calls.append((E, E, 3, None))
        elif case == "s1-degree-2000":
            E = sphere_basis(2, 1000).exponent_array()
            calls.append((E[-40:], E, 2, None))
        else:
            record = moment_matrix

            def recording(E1, E2, n, terms=None):
                assert terms is None or len(terms) == 1
                calls.append((E1, E2, n, None if terms is None else next(iter(terms))))
                return record(E1, E2, n, terms=terms)

            monkeypatch.setattr(bounds, "moment_matrix", recording)
            assert upper_bound(Polynomial.variable(400, 1), 400, 1).value < 0
            assert len(calls) >= 2
        for E1, E2, n, g in calls:
            M = moment_matrix(E1, E2, n, terms=_single(g))
            P = E1[:, None, :] + (E2 if g is None else E2 + np.array(g))[None, :, :]
            even = ~(P & 1).any(axis=2)
            assert np.all(M[~even] == 0.0)
            # one exact moment per distinct P, found by a code over the first
            # coordinate and those where some P is nonzero
            Pe = P[even]
            keep = Pe.any(axis=0)
            keep[0] = True
            Q = Pe[:, keep]
            code = np.ravel_multi_index(Q.T, Q.max(axis=0, initial=0) + 1)
            _, first, where = np.unique(code, return_index=True, return_inverse=True)
            o = MomentOracle(n)
            exact = np.array([float(o.moment_fraction(tuple(Pe[i].tolist()))) for i in first])
            ref = exact[where.reshape(-1)]
            assert np.all(np.abs(M[even] - ref) <= 2 * np.spacing(ref))

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_matches_exact_moments_beyond_seven_coordinates(self, n):
        rng = np.random.default_rng(200 + n)
        o = MomentOracle(n)
        for shift in (None, tuple(int(v) for v in rng.integers(0, 3, size=n))):
            E1, E2 = _random_exponents(rng, 9, 7, n, 4, shift)
            g = np.zeros(n, dtype=np.int64) if shift is None else np.array(shift)
            M = moment_matrix(E1, E2, n, terms=_single(shift))
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


def _localized_block_reference(terms, E1, E2, n):
    """Reference localized matrix: c_g * M_g added term by term onto zeros."""
    A = np.zeros((len(E1), len(E2)))
    for g, c in terms.items():
        A += c * _moment_matrix_reference(E1, E2, n, shift=g, shifts=list(terms))
    return A


def _table_prefix(E1, E2, n, terms):
    """Coordinates the moment table covers: the longest prefix whose box of
    half-exponent sums has at most m1 * m2 cells."""
    radix = _radix(E1, E2, n, list(terms))
    k, box = 0, 1
    while k < n and box * radix[k] <= len(E1) * len(E2):
        box *= int(radix[k])
        k += 1
    return k


def _random_terms(rng, n, count, top):
    return {tuple(int(v) for v in rng.integers(0, top + 1, size=n)): float(rng.normal())
            for _ in range(count)}


class TestLocalizedKernel:
    """moment_matrix with a multi-term mapping against the per-term sum."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_bit_identical_to_per_term_sum_on_random_rectangular(self, n, monkeypatch):
        rng = np.random.default_rng(300 + n)
        negative = 0
        for m1, m2, chunk in [(37, 23, 512), (37, 23, 8), (23, 37, 8), (1, 9, 512),
                              (9, 1, 512)]:
            monkeypatch.setattr(basis_module, "ASSEMBLY_ROWS", chunk)
            for count in (1, 2, 5):
                terms = _random_terms(rng, n, count, 3)
                negative += sum(c < 0 for c in terms.values())
                E1, E2 = _random_exponents(rng, m1, m2, n, 6, next(iter(terms)))
                M = moment_matrix(E1, E2, n, terms=terms)
                assert np.array_equal(M, _localized_block_reference(terms, E1, E2, n))
        assert negative > 0

    @pytest.mark.parametrize("rows, cols, n, top, prefix", [
        (30, 30, 3, 4, 3),   # full table: the division by rise folded in
        (3, 4, 4, 8, 1),     # partial prefix: one coordinate in the table
        (1, 1, 3, 6, 0),     # no table: every coordinate gathered
    ])
    def test_each_table_regime(self, rows, cols, n, top, prefix):
        rng = np.random.default_rng(400 + prefix)
        terms = {(0,) * n: 1.5, (1,) + (0,) * (n - 1): -0.5, (2,) * n: 2.0}
        E1 = rng.integers(0, top + 1, size=(rows, n))
        E2 = rng.integers(0, top + 1, size=(cols, n))
        E1[0] = top
        E2[0] = top
        assert _table_prefix(E1, E2, n, terms) == prefix
        M = moment_matrix(E1, E2, n, terms=terms)
        assert np.array_equal(M, _localized_block_reference(terms, E1, E2, n))
        assert np.count_nonzero(M) > 0
        if rows * cols > 1:
            assert np.count_nonzero(M) < M.size

    def test_empty_shapes_and_mappings(self):
        rng = np.random.default_rng(17)
        terms = _random_terms(rng, 3, 3, 2)
        for m1, m2 in [(0, 5), (6, 0), (0, 0)]:
            E1 = rng.integers(0, 4, size=(m1, 3))
            E2 = rng.integers(0, 4, size=(m2, 3))
            for t in (None, terms):
                M = moment_matrix(E1, E2, 3, terms=t)
                assert M.shape == (m1, m2)
        E = rng.integers(0, 4, size=(4, 3))
        assert np.array_equal(moment_matrix(E, E, 3, terms={}), np.zeros((4, 4)))

    def test_bad_exponents_rejected_before_assembly(self):
        # the rules of single exponent tuples, on every row and term key
        E = np.array([[0, 0, 0], [1, 0, 1]])
        empty = np.zeros((0, 3), dtype=np.int64)
        cases = [
            (np.array([[-2, 0, 0]]), E, None, "negative exponent in (-2, 0, 0)"),
            (E, np.array([[0, 0, 0], [0, 3, -1]]), None, "negative exponent in (0, 3, -1)"),
            (E, E, {(0, 0, 0): 1.0, (0, -1, 0): 2.0}, "negative exponent in (0, -1, 0)"),
            (empty, E, {(-1, 0, 0): 1.0}, "negative exponent in (-1, 0, 0)"),
            (E + 0.5, E, None, "exponents must be integers, got an array of float64"),
            (E, E.astype(float), None, "exponents must be integers, got an array of float64"),
            (E, E, {(2.0, 0, 0): 1.0}, "exponents must be integers, got an array of float64"),
            (E[:, :2], E, None, "exponent array of shape (2, 2), expected (m, 3)"),
            (E, E, {(2, 0): 1.0}, "exponent array of shape (1, 2), expected (m, 3)"),
        ]
        for E1, E2, terms, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                moment_matrix(E1, E2, 3, terms=terms)
        # the same message as the exact moment gives
        with pytest.raises(ValueError, match=re.escape("negative exponent in (-2, 0, 0)")):
            MomentOracle(3).moment((-2, 0, 0))
        # any integer dtype is taken, with the same matrix
        assert np.array_equal(moment_matrix(E.astype(np.int32), E.astype(np.uint8), 3),
                              moment_matrix(E, E, 3))

    def test_tables_below_the_normal_range_raise(self):
        # at r = 1,021 on S^1 the scaled tables would be read below float64's
        # normal range, where 2,043 entries would come out NaN
        for r in (1020, 1021):
            E = sphere_basis(2, r).exponent_array()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                if r == 1020:
                    assert np.isfinite(moment_matrix(E[E.sum(1) >= r - 1], E, 2)).all()
                else:
                    with pytest.raises(ValueError, match="half-exponent sums up to 1022 leave "
                                                         "float64's normal range"):
                        moment_matrix(E[E.sum(1) >= r - 1], E, 2)

    def test_parity_beyond_64_coordinates(self, monkeypatch):
        # parity classes of 70 coordinates, with shifts that flip the last ones
        n = 70
        rng = np.random.default_rng(70)
        monkeypatch.setattr(basis_module, "ASSEMBLY_ROWS", int(rng.integers(1, 4)))
        E1 = np.zeros((5, n), dtype=np.int64)
        E1[1, 66] = 1
        E1[2, 66] = 2
        E1[3, [3, 40, 69]] = 1
        E1[4, 69] = 3
        E2 = np.zeros((4, n), dtype=np.int64)
        E2[1, 66] = 1
        E2[2, [3, 40]] = 1
        E2[3, 69] = 1
        terms = {(0,) * n: 1.0, tuple(int(k == 69) for k in range(n)): -2.0,
                 tuple(int(k in (66, 69)) for k in range(n)): 0.5}
        M = moment_matrix(E1, E2, n, terms=terms)
        ref = _localized_block_reference(terms, E1, E2, n)
        assert np.array_equal(M, ref)
        assert 0 < np.count_nonzero(M) < M.size

    def test_peak_memory_of_the_largest_x5_block(self):
        # the largest parity block of x5 at n = 5, r = 16: assembly may
        # allocate at most 3.5 times its output, the moment table included
        basis = sphere_basis(5, 16)
        e5 = (0, 0, 0, 0, 1)
        comps, _ = _parity_components(basis.elements, [e5])
        E = basis.exponent_array()[max(comps, key=len)]
        for terms in (None, {e5: 1.0}):
            tracemalloc.start()
            try:
                M = moment_matrix(E, E, 5, terms=terms)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert M.shape == (825, 825)
            assert peak <= 3.5 * M.nbytes
