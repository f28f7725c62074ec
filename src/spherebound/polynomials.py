"""Sparse multivariate polynomials over x1..xn.

Polynomials are stored as a map from exponent tuples to nonzero float
coefficients.  The module provides arithmetic, evaluation, differentiation,
linear changes of variables, and a small text grammar (parser and printer).
"""

from __future__ import annotations

import math
import numbers
import operator
import re

import numpy as np

# Rows per block in Polynomial.eval_many: a block's power tables stay in
# cache (32 KB per row of a table).
EVAL_BLOCK = 4096


class ParseError(ValueError):
    """Syntax error in polynomial text, with the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def as_index(value, name, low=None):
    """value as an int by operator.index, of at least low if given: the one
    integer rule.  A float raises, so 2.5 never becomes 2."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or low is not None and index < low:
        floor = "" if low is None else f" of at least {low}"
        raise ValueError(f"{name} must be an integer{floor}, got {value!r}")
    return index


def _check_exponents(n, alpha):
    try:
        alpha = tuple(map(operator.index, alpha))
    except TypeError:
        raise ValueError(f"exponents must be integers, got {alpha!r}") from None
    if len(alpha) != n:
        raise ValueError(f"exponent tuple {alpha} has length {len(alpha)}, expected {n}")
    if any(e < 0 for e in alpha):
        raise ValueError(f"negative exponent in {alpha}")
    return alpha


def _check_exponent_array(n, E):
    """E as an (m, n) int64 array, by _check_exponents' rules, one array test each."""
    try:
        E = np.asarray(E)
    except ValueError:  # ragged: the tuple rule names the tuple of another length
        E = np.asarray([_check_exponents(n, alpha) for alpha in E])
    if E.dtype.kind not in "iu":
        raise ValueError(f"exponents must be integers, got an array of {E.dtype}")
    if E.ndim != 2 or E.shape[1] != n:
        raise ValueError(f"exponent array of shape {E.shape}, expected (m, {n})")
    if (E < 0).any():
        raise ValueError(f"negative exponent in {tuple(E[(E < 0).any(axis=1)][0].tolist())}")
    return E.astype(np.int64, copy=False)


def check_dimension(n, *polys):
    """Raise unless every polynomial given has dimension n."""
    for p in polys:
        if p.n != n:
            raise ValueError(f"polynomial dimension {p.n}, expected {n}")


def _grevorder(alpha):
    # graded-lex: degree first, then lexicographically larger exponents first
    return (sum(alpha), alpha)


class Polynomial:
    """Sparse polynomial in n variables with float coefficients.

    Instances are immutable by convention: no method mutates ``terms`` after
    construction, so values can be shared freely.  terms is a dict from
    exponent tuples to coefficients, or (exponents, coefficient) pairs,
    summed in order: the one summation rule of +, -, gradient and
    compose_linear.  A key whose sum reaches 0 leaves, and comes back last.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        n = as_index(n, "dimension", 1)
        object.__setattr__(self, "n", n)
        clean = {}
        for alpha, c in terms.items() if isinstance(terms, dict) else terms or ():
            alpha = _check_exponents(n, alpha)
            c = float(c)
            if c != 0.0:
                clean[alpha] = clean.get(alpha, 0.0) + c
                if not math.isfinite(clean[alpha]):
                    raise ValueError(f"coefficient of {alpha} is not finite: {clean[alpha]!r}")
                if clean[alpha] == 0.0:
                    del clean[alpha]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * as_index(n, "dimension", 1): c})

    @classmethod
    def variable(cls, n, i):
        """The monomial x_i (1-based index)."""
        n = as_index(n, "dimension", 1)
        i = as_index(i, "variable index", 1)
        if i > n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        alpha = [0] * n
        alpha[i - 1] = 1
        return cls(n, {tuple(alpha): 1.0})

    @property
    def degree(self):
        """Total degree; 0 for the zero polynomial by convention."""
        if not self.terms:
            return 0
        return max(sum(a) for a in self.terms)

    def is_constant(self):
        return all(sum(a) == 0 for a in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.n, 0.0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __add__(self, other):
        other = self._coerce(other)
        return Polynomial(self.n, [*self.terms.items(), *other.terms.items()])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.n, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            other = float(other)
            return Polynomial(self.n, {a: c * other for a, c in self.terms.items()})
        other = self._coerce(other)
        # its own sums: the constructor would move a key whose sum passes through 0 to the end
        out = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, 0.0) + ca * cb
        return Polynomial(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        k = as_index(k, "power", 0)
        out = Polynomial.constant(self.n, 1.0)
        for _ in range(k):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            check_dimension(self.n, other)
            return other
        if isinstance(other, numbers.Real):
            return Polynomial.constant(self.n, other)
        raise TypeError(f"cannot combine Polynomial with {type(other).__name__}")

    def evaluate(self, x):
        """Evaluate at a point (sequence of n reals)."""
        x = tuple(float(v) for v in x)
        if len(x) != self.n:
            raise ValueError(f"point has length {len(x)}, expected {self.n}")
        total = 0.0
        for a, c in self.terms.items():
            t = c
            for xi, e in zip(x, a):
                if e:
                    t *= xi ** e
            total += t
        return total

    def eval_many(self, points):
        """Evaluate at an (m, n) array of points, returning an (m,) array.

        Points are taken EVAL_BLOCK rows at a time.  For each block, row e
        of variable i's power table is x_i^e, built by repeated
        multiplication; each term is its coefficient times its powers in
        variable order, and terms are added in dict order.  Every output
        entry depends on its own row only, so the block size does not
        change any result.
        """
        X = np.asarray(points, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"expected an (m, {self.n}) array, got {X.shape}")
        m = len(X)
        out = np.zeros(m)
        if not self.terms:
            return out
        tops = [max(a[i] for a in self.terms) for i in range(self.n)]
        width = min(EVAL_BLOCK, m)
        tables = [np.empty((top + 1, width)) for top in tops]
        term = np.empty(width)
        factors = [(c, [(i, e) for i, e in enumerate(a) if e])
                   for a, c in self.terms.items()]
        for start in range(0, m, EVAL_BLOCK):
            k = min(EVAL_BLOCK, m - start)
            for i, table in enumerate(tables):
                if len(table) > 1:
                    table[1, :k] = X[start:start + k, i]
                for e in range(2, len(table)):
                    np.multiply(table[e - 1, :k], table[1, :k], out=table[e, :k])
            acc = out[start:start + k]
            t = term[:k]
            for c, powers in factors:
                if not powers:
                    acc += c
                    continue
                (i, e), rest = powers[0], powers[1:]
                np.multiply(tables[i][e, :k], c, out=t)
                for i, e in rest:
                    t *= tables[i][e, :k]
                acc += t
        return out

    def gradient(self):
        """Partial derivatives [dp/dx1, ..., dp/dxn]."""
        return [Polynomial(self.n, [(a[:i] + (a[i] - 1,) + a[i + 1:], c * a[i])
                                    for a, c in self.terms.items() if a[i]])
                for i in range(self.n)]

    def compose_linear(self, M):
        """The polynomial p(M x), for an (n, n) matrix M."""
        M = np.asarray(M, dtype=float)
        if M.shape != (self.n, self.n):
            raise ValueError(f"expected an ({self.n}, {self.n}) matrix")
        subs = [
            Polynomial(self.n, {tuple(int(k == j) for k in range(self.n)): M[i, j]
                                for j in range(self.n) if M[i, j] != 0.0})
            for i in range(self.n)
        ]
        powers = [[s] for s in subs]  # powers[i][e - 1] is subs[i] ** e, built as needed
        pairs = []
        for a, c in self.terms.items():
            t = Polynomial.constant(self.n, c)
            for i, e in enumerate(a):
                if e:
                    while len(powers[i]) < e:
                        powers[i].append(powers[i][-1] * subs[i])
                    t = t * powers[i][e - 1]
            pairs += t.terms.items()
        return Polynomial(self.n, pairs)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for a in sorted(self.terms, key=_grevorder, reverse=True):
            c = self.terms[a]
            mono = "*".join(
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(a) if e
            )
            mag = abs(c)
            if not mono:
                body = _format_coeff(mag)
            elif mag == 1.0:
                body = mono
            else:
                body = _format_coeff(mag) + "*" + mono
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"Polynomial({self.n}, {self.terms!r})"


def _format_coeff(c):
    if c == int(c) and abs(c) < 1e16:
        return str(int(c))
    return repr(c)


_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x(?P<idx>\d+))"
    r"|(?P<op>[-+*^]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            # skip over a whitespace-only tail
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        kind = "num" if m.group("num") else ("var" if m.group("var") else "op")
        value = m.group(kind)
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    return tokens


def parse_poly(text, n):
    """Parse polynomial text into a Polynomial in n variables.

    Grammar: terms joined by + or -, each term a *-separated product of
    factors; a factor is a decimal literal or xI^E with integer E >= 0
    (^E optional).  Whitespace is insignificant.  A term whose coefficient
    overflows to infinity is rejected at the literal that overflows it.  The
    terms are summed in input order into one Polynomial, which checks n first
    and takes each term as it is parsed, so a sum that overflows is rejected
    at its term, before any later syntax error.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    return Polynomial(n, _parse_terms(tokens, n))


def _parse_terms(tokens, n):
    """(exponents, coefficient) of each term of parse_poly's tokens, in input order."""
    i = 0
    while i < len(tokens):
        sign = 1.0
        # one optional leading sign per term (the joining +/- doubles as it)
        if tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -1.0
            i += 1
        coeff = sign
        expo = [0] * n
        while True:
            if i >= len(tokens):
                raise ParseError("unexpected end of input", tokens[-1][2] + len(tokens[-1][1]))
            kind, value, pos = tokens[i]
            if kind == "num":
                coeff *= float(value)
                if not math.isfinite(coeff):
                    raise ParseError(f"coefficient is not finite after literal {value!r}", pos)
                i += 1
            elif kind == "var":
                idx = int(value[1:])
                if not 1 <= idx <= n:
                    raise ParseError(f"variable {value} out of range for n={n}", pos)
                e = 1
                if i + 1 < len(tokens) and tokens[i + 1][:2] == ("op", "^"):
                    if i + 2 >= len(tokens) or tokens[i + 2][0] != "num":
                        raise ParseError("expected exponent after '^'", tokens[i + 1][2] + 1)
                    etext = tokens[i + 2][1]
                    if not etext.isdigit():
                        raise ParseError(f"exponent must be a nonnegative integer, got {etext!r}",
                                         tokens[i + 2][2])
                    e = int(etext)
                    i += 2
                expo[idx - 1] += e
                i += 1
            else:
                raise ParseError(f"unexpected operator {value!r}", pos)
            if i < len(tokens) and tokens[i][:2] == ("op", "*"):
                i += 1
                continue
            break
        yield tuple(expo), coeff
        if i < len(tokens):
            kind, value, pos = tokens[i]
            if kind != "op" or value not in "+-":
                raise ParseError(f"expected '+' or '-' between terms, got {value!r}", pos)
