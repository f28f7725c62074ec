"""Sparse polynomial arithmetic, parsing, and sphere reduction."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_poly
from spherebound import MOTZKIN_TEXT, ParseError, Polynomial, motzkin_form, parse_poly


class TestParse:
    def test_sum_of_squares_literal(self):
        p = parse_poly("x1^2 + x2^2", 2)
        assert p.terms == {(2, 0): 1.0, (0, 2): 1.0}

    def test_motzkin_text(self):
        p = parse_poly(MOTZKIN_TEXT, 3)
        assert p.terms == {(0, 0, 6): 1.0, (4, 2, 0): 1.0,
                           (2, 4, 0): 1.0, (2, 2, 2): -3.0}
        assert p == motzkin_form()

    def test_zero_literal(self):
        p = parse_poly("0", 3)
        assert p.terms == {}
        assert p.degree == 0
        assert not p

    def test_like_terms_merge(self):
        assert parse_poly("x1 + x1", 2).terms == {(1, 0): 2.0}
        assert parse_poly("x1 - x1", 2).terms == {}

    def test_coefficient_forms(self):
        p = parse_poly("2.5*x1 - x2 + 3 + 1e-2*x1*x2^3", 2)
        assert p.terms == {(1, 0): 2.5, (0, 1): -1.0, (0, 0): 3.0, (1, 3): 0.01}

    def test_whitespace_insignificant(self):
        assert parse_poly(" x1^2+x2 ", 2) == parse_poly("x1^2 + x2", 2)

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = random_poly(3, 5, rng)
            assert parse_poly(str(p), 3) == p
        assert parse_poly(str(motzkin_form()), 3) == motzkin_form()
        assert parse_poly(str(Polynomial.zero(2)), 2) == Polynomial.zero(2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.dictionaries(
        st.tuples(*[st.integers(0, 6)] * n),
        st.floats(allow_nan=False, allow_infinity=False).filter(bool), max_size=8))))
    def test_round_trip_random_terms(self, n_terms):
        n, terms = n_terms
        p = Polynomial(n, terms)
        assert parse_poly(str(p), n) == p

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x1 + @", 2)
        assert info.value.position == 5

    def test_variable_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse_poly("x4", 3)
        with pytest.raises(ParseError):
            parse_poly("x0", 3)

    def test_malformed_exponent(self):
        with pytest.raises(ParseError):
            parse_poly("x1^", 2)
        with pytest.raises(ParseError):
            parse_poly("x1^2.5", 2)

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("", 2)
        with pytest.raises(ParseError):
            parse_poly("x1 +", 2)

    def test_non_finite_coefficient_rejected_at_literal(self):
        for text, position in [("1e400*x1", 0), ("x2 - 1e200*x1*1e200", 14),
                               ("x1 + 1e309", 5)]:
            with pytest.raises(ParseError) as info:
                parse_poly(text, 2)
            assert info.value.position == position
        assert parse_poly("1e300*x1", 2).terms == {(1, 0): 1e300}

    def test_terms_are_summed_in_input_order(self):
        # a term that cancels leaves the dict, and comes back at the end
        assert list(parse_poly("x1 - x1 + x2 + x1", 2).terms.items()) == [((0, 1), 1.0),
                                                                         ((1, 0), 1.0)]
        # a sum that overflows is refused at its term, before the later syntax error
        with pytest.raises(ValueError, match=r"coefficient of \(1, 0\) is not finite: inf"):
            parse_poly("1e308*x1 + 1e308*x1 + x1^", 2)

    def test_one_polynomial_per_parse(self, monkeypatch):
        # adding term by term would build a Polynomial per term, re-checking
        # every earlier one: quadratic in the number of terms
        expos = [e for e in itertools.product(range(13), repeat=4) if sum(e) <= 12]
        text = " + ".join(f"{i + 1.5}*" + "*".join(f"x{k + 1}^{a}" for k, a in enumerate(e))
                          for i, e in enumerate(expos))
        init, calls = Polynomial.__init__, []

        def counted(self, *args):
            calls.append(1)
            init(self, *args)

        monkeypatch.setattr(Polynomial, "__init__", counted)
        counts = []
        for t in ("x1", text):
            calls.clear()
            p = parse_poly(t, 4)
            counts.append(len(calls))
        monkeypatch.undo()
        assert len(expos) == 1820 and counts[0] == counts[1] <= 2
        direct = Polynomial(4, {e: i + 1.5 for i, e in enumerate(expos)})
        assert p == direct and list(p.terms) == list(direct.terms)

    def test_misplaced_operator_and_missing_join_carry_positions(self):
        for text, message, position in [
                ("x1 + * x2", "unexpected operator '*'", 5),
                ("x1 x2", "expected '+' or '-' between terms, got 'x2'", 3)]:
            with pytest.raises(ParseError) as info:
                parse_poly(text, 2)
            assert str(info.value) == f"{message} (at position {position})"
            assert info.value.position == position


class TestEvaluate:
    def test_motzkin_vanishes_at_minimizers(self):
        f = motzkin_form()
        s = 1.0 / math.sqrt(3.0)
        for x in [(s, s, s), (s, -s, s), (-s, s, -s), (1.0, 0.0, 0.0),
                  (0.0, -1.0, 0.0)]:
            assert abs(f.evaluate(x)) < 1e-15

    def test_origin_gives_constant_term(self):
        p = parse_poly("4 + x1 - 2*x2^3", 2)
        assert p.evaluate((0.0, 0.0)) == 4.0
        assert p.constant_term() == 4.0

    def test_eval_many_matches_pointwise(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(40, 3))
        for _ in range(10):
            p = random_poly(3, 6, rng)
            vals = p.eval_many(X)
            ref = [p.evaluate(x) for x in X]
            assert_allclose(vals, ref, rtol=1e-13, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            parse_poly("x1", 2).evaluate((1.0,))


class TestEvalManyBlocks:
    """eval_many works through EVAL_BLOCK = 4096 rows at a time."""

    @staticmethod
    def _poly(rng, terms=12):
        # exponents up to 12 in each variable, mixed-sign coefficients
        E = rng.integers(0, 13, size=(terms, 3))
        E[0] = 0
        C = rng.uniform(-2.0, 2.0, size=terms)
        return Polynomial(3, {tuple(int(e) for e in a): c for a, c in zip(E, C)})

    @pytest.mark.parametrize("m", [0, 1, 4095, 4096, 4097, 10_000])
    def test_matches_pointwise_evaluation(self, m):
        rng = np.random.default_rng(m)
        p = self._poly(rng)
        X = rng.uniform(-1.2, 1.2, size=(m, 3))
        vals = p.eval_many(X)
        assert vals.shape == (m,)
        ref = np.array([p.evaluate(x) for x in X])
        scale = sum(abs(c) for c in p.terms.values())
        assert_allclose(vals, ref, rtol=1e-13, atol=1e-13 * scale)

    def test_blocks_do_not_change_results(self):
        # each row depends on itself only, so any split gives the same bits
        rng = np.random.default_rng(5)
        p = self._poly(rng)
        X = rng.uniform(-1.0, 1.0, size=(10_000, 3))
        whole = p.eval_many(X)
        parts = np.concatenate([p.eval_many(X[s:s + 999]) for s in range(0, len(X), 999)])
        assert np.array_equal(whole, parts)
        assert np.array_equal(whole[[0, 4095, 4096, 8191, 8192, 9999]],
                              [p.eval_many(X[i:i + 1])[0] for i in (0, 4095, 4096, 8191, 8192, 9999)])

    def test_zero_polynomial(self):
        X = np.random.default_rng(6).uniform(-1.0, 1.0, size=(5000, 4))
        vals = Polynomial.zero(4).eval_many(X)
        assert vals.shape == (5000,)
        assert not vals.any()

    def test_no_points(self):
        for p in (Polynomial.zero(3), Polynomial.constant(3, 2.0), motzkin_form()):
            vals = p.eval_many(np.empty((0, 3)))
            assert vals.shape == (0,)
        with pytest.raises(ValueError):
            motzkin_form().eval_many(np.empty((0, 2)))

    def test_constant_term_and_unit_powers(self):
        p = Polynomial(3, {(0, 0, 0): 3.0, (0, 1, 0): -1.0, (1, 0, 1): 2.0})
        X = np.random.default_rng(7).uniform(-1.0, 1.0, size=(4097, 3))
        ref = (3.0 + (-1.0) * X[:, 1]) + (2.0 * X[:, 0]) * X[:, 2]
        assert np.array_equal(p.eval_many(X), ref)


class TestArithmetic:
    def test_ring_laws_at_random_points(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, size=(100, 3))
        for _ in range(10):
            p = random_poly(3, 4, rng)
            q = random_poly(3, 4, rng)
            pv, qv = p.eval_many(X), q.eval_many(X)
            assert_allclose((p + q).eval_many(X), pv + qv,
                            rtol=1e-12, atol=1e-12)
            assert_allclose((p - q).eval_many(X), pv - qv,
                            rtol=1e-12, atol=1e-12)
            assert_allclose((p * q).eval_many(X), pv * qv,
                            rtol=1e-12, atol=1e-10)

    def test_power_matches_repeated_product(self):
        rng = np.random.default_rng(12)
        p = random_poly(2, 3, rng)
        assert p ** 2 == p * p
        assert p ** 0 == Polynomial.constant(2, 1.0)

    def test_zero_coefficients_dropped(self):
        p = parse_poly("x1 + x2", 2) - parse_poly("x2", 2)
        assert p.terms == {(1, 0): 1.0}

    def test_scalar_multiplication(self):
        p = parse_poly("x1^2 - 2", 2)
        assert (3.0 * p).terms == {(2, 0): 3.0, (0, 0): -6.0}

    def test_numpy_scalars_on_either_side(self):
        p = parse_poly("x1^2 - 0.1", 2)
        two = Polynomial.constant(2, 2.0)
        for s in (np.int64(2), np.int32(2), np.float32(2), np.float64(2), 2, 2.0):
            assert p * s == s * p == p * two
            assert p + s == s + p == p + two
            assert p - s == p - two
            assert s - p == two - p
        # the product is taken in float64, not in the scalar's precision
        assert (p * np.float32(3)).terms == {(2, 0): 3.0, (0, 0): -0.1 * 3.0}
        for bad in ("2", None, 1j, np.array([2.0])):
            for op in (lambda: p * bad, lambda: p + bad, lambda: p - bad):
                with pytest.raises(TypeError, match="cannot combine"):
                    op()

    def test_non_finite_coefficient_rejected(self):
        for c in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="not finite"):
                Polynomial(2, {(1, 0): c})
        big = Polynomial(2, {(1, 0): 1e308})
        with pytest.raises(ValueError, match="not finite"):
            big + big

    def test_immutable(self):
        p = parse_poly("x1", 2)
        with pytest.raises(AttributeError):
            p.n = 5


class TestGradient:
    def test_square_and_constant(self):
        g = parse_poly("x1^2", 3).gradient()
        assert g[0] == parse_poly("2*x1", 3)
        assert g[1] == Polynomial.zero(3)
        assert g[2] == Polynomial.zero(3)
        for gi in Polynomial.constant(3, 5.0).gradient():
            assert gi == Polynomial.zero(3)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(21)
        h = 1e-6
        for _ in range(8):
            p = random_poly(3, 5, rng)
            grads = p.gradient()
            for _ in range(12):
                x = rng.uniform(-1, 1, size=3)
                for i in range(3):
                    xp, xm = x.copy(), x.copy()
                    xp[i] += h
                    xm[i] -= h
                    fd = (p.evaluate(xp) - p.evaluate(xm)) / (2 * h)
                    ref = grads[i].evaluate(x)
                    assert abs(fd - ref) <= 1e-6 * max(1.0, abs(ref))

    def test_motzkin_gradient_parallel_to_diagonal_minimizer(self):
        # stationary point of the restriction: gradient is normal to the sphere
        f = motzkin_form()
        s = 1.0 / math.sqrt(3.0)
        a = np.array([s, s, s])
        g = np.array([gi.evaluate(a) for gi in f.gradient()])
        tangential = g - (g @ a) * a
        assert np.linalg.norm(tangential) < 1e-12


class TestPrinting:
    def test_graded_lex_descending(self):
        p = parse_poly("x2 + x1 + x1^2", 2)
        assert str(p) == "x1^2 + x1 + x2"

    def test_zero_prints_as_zero(self):
        assert str(Polynomial.zero(3)) == "0"

    def test_integer_coefficients_stay_integral(self):
        assert str(parse_poly("3*x1 - 2", 2)) == "3*x1 - 2"


class TestComposeLinear:
    def test_rotation_agrees_pointwise(self):
        rng = np.random.default_rng(41)
        theta = 0.7
        M = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        p = random_poly(2, 4, rng)
        q = p.compose_linear(M)
        for _ in range(30):
            x = rng.uniform(-1, 1, size=2)
            assert_allclose(q.evaluate(x), p.evaluate(M @ x),
                            rtol=1e-12, atol=1e-12)

    def test_terms_summed_once_and_each_power_built_once(self, monkeypatch):
        # summing term by term rebuilt the whole result per term, and
        # subs[i] ** e rebuilt each power per term: both quadratic
        expos = [e for e in itertools.product(range(9), repeat=4) if sum(e) <= 8]
        p = Polynomial(4, {e: (-1) ** i * (i % 7 + 1) for i, e in enumerate(expos)})
        M = np.array([[1, 2, 0, -1], [0, 1, 1, 0], [-1, 0, 1, 2], [1, 1, 0, 1]])

        def refuse(*args):
            raise AssertionError("compose_linear adds or raises to a power")

        mul, products = Polynomial.__mul__, []

        def counted(self, other):
            products.append(1)
            return mul(self, other)

        for name in ("__add__", "__radd__", "__pow__"):
            monkeypatch.setattr(Polynomial, name, refuse)
        monkeypatch.setattr(Polynomial, "__mul__", counted)
        q = p.compose_linear(M)
        monkeypatch.undo()
        # one product per factor of a term, and one per power beyond the first
        assert len(expos) == 495
        assert len(products) <= sum(map(bool, itertools.chain(*expos))) + 4 * 7
        rng = np.random.default_rng(43)
        X = rng.uniform(-1, 1, size=(20, 4))
        assert_allclose(q.eval_many(X), p.eval_many(X @ M.T), rtol=1e-12)
