"""Sparse multivariate polynomials over x1..xn.

Polynomials are stored as a map from exponent tuples to nonzero float
coefficients.  The module provides arithmetic, evaluation, differentiation,
a small text grammar (parser and printer), and canonical reduction modulo
the sphere relation x1^2 + ... + xn^2 = 1.
"""

from __future__ import annotations

import math
import re

import numpy as np

# Tolerances for sphere-related checks: membership of a point on the unit
# sphere, and agreement of two polynomials as functions on the sphere.
TAU_SPHERE = 1e-9
TAU_EVAL = 1e-12


class ParseError(ValueError):
    """Syntax error in polynomial text, with the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _check_exponents(n, alpha):
    alpha = tuple(int(e) for e in alpha)
    if len(alpha) != n:
        raise ValueError(f"exponent tuple {alpha} has length {len(alpha)}, expected {n}")
    if any(e < 0 for e in alpha):
        raise ValueError(f"negative exponent in {alpha}")
    return alpha


def _grevorder(alpha):
    # graded-lex: degree first, then lexicographically larger exponents first
    return (sum(alpha), alpha)


class Polynomial:
    """Sparse polynomial in n variables with float coefficients.

    Instances are immutable by convention: no method mutates ``terms`` after
    construction, so values can be shared freely.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        n = int(n)
        if n < 1:
            raise ValueError("dimension must be at least 1")
        object.__setattr__(self, "n", n)
        clean = {}
        for alpha, c in (terms or {}).items():
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
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n, i):
        """The monomial x_i (1-based index)."""
        if not 1 <= i <= n:
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
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, 0.0) + c
        return Polynomial(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.n, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(self.n, {a: c * other for a, c in self.terms.items()})
        other = self._coerce(other)
        out = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, 0.0) + ca * cb
        return Polynomial(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.n, 1.0)
        for _ in range(k):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
            return other
        if isinstance(other, (int, float)):
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
        """Evaluate at an (m, n) array of points, returning an (m,) array."""
        X = np.asarray(points, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"expected an (m, {self.n}) array, got {X.shape}")
        out = np.zeros(len(X))
        if not self.terms:
            return out
        # per-variable power tables shared by all terms
        maxes = [max(a[i] for a in self.terms) for i in range(self.n)]
        pows = [X[:, i][:, None] ** np.arange(maxes[i] + 1) for i in range(self.n)]
        for a, c in self.terms.items():
            t = np.full(len(X), c)
            for i, e in enumerate(a):
                if e:
                    t *= pows[i][:, e]
            out += t
        return out

    def gradient(self):
        """Partial derivatives [dp/dx1, ..., dp/dxn]."""
        parts = []
        for i in range(self.n):
            d = {}
            for a, c in self.terms.items():
                if a[i] > 0:
                    b = list(a)
                    b[i] -= 1
                    d[tuple(b)] = d.get(tuple(b), 0.0) + c * a[i]
            parts.append(Polynomial(self.n, d))
        return parts

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
        out = Polynomial.zero(self.n)
        for a, c in self.terms.items():
            t = Polynomial.constant(self.n, c)
            for i, e in enumerate(a):
                if e:
                    t = t * subs[i] ** e
            out = out + t
        return out

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
    overflows to infinity is rejected at the literal that overflows it.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    result = Polynomial.zero(n)
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
        saw_factor = False
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
            saw_factor = True
            if i < len(tokens) and tokens[i][:2] == ("op", "*"):
                i += 1
                continue
            break
        if not saw_factor:
            raise ParseError("empty term", tokens[i][2] if i < len(tokens) else 0)
        result = result + Polynomial(n, {tuple(expo): coeff})
        if i < len(tokens):
            kind, value, pos = tokens[i]
            if kind != "op" or value not in "+-":
                raise ParseError(f"expected '+' or '-' between terms, got {value!r}", pos)
    return result


def reduce_mod_sphere(p):
    """Canonical representative of p modulo the sphere relation.

    Substitutes x_n^2 = 1 - x_1^2 - ... - x_{n-1}^2 until every term has
    x_n-exponent at most 1.  The result agrees with p everywhere on the
    unit sphere.
    """
    n = p.n
    rest = {(0,) * n: 1.0}
    for i in range(n - 1):
        a = [0] * n
        a[i] = 2
        rest[tuple(a)] = -1.0
    s = Polynomial(n, rest)
    powers = {0: Polynomial.constant(n, 1.0)}

    def s_power(q):
        if q not in powers:
            powers[q] = s_power(q - 1) * s
        return powers[q]

    out = Polynomial.zero(n)
    for a, c in p.terms.items():
        q, rem = divmod(a[n - 1], 2)
        base = list(a)
        base[n - 1] = rem
        out = out + s_power(q) * Polynomial(n, {tuple(base): c})
    return out
