"""Exact multivariate polynomial arithmetic over the rationals.

Monomials are exponent tuples ("multi-indices"); polynomials are sparse
dictionaries multi-index -> Fraction.  A single global monomial order is
used everywhere: graded reverse lexicographic with x1 > x2 > ... > xn.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterator

MultiIndex = tuple  # tuple[int, ...], all entries >= 0


def mi_degree(a: MultiIndex) -> int:
    return sum(a)


def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


def mi_unit(n: int, i: int) -> MultiIndex:
    """The i-th unit multi-index (0-based axis)."""
    return tuple(1 if k == i else 0 for k in range(n))


def grevlex_key(a: MultiIndex):
    """Sort key realizing grevlex with x1 > ... > xn.

    a > b in grevlex iff |a| > |b|, or degrees tie and the last nonzero
    entry of a-b is negative; that is exactly lexicographic comparison of
    (|a|, (-a_n, ..., -a_1)).
    """
    return (sum(a), tuple(-e for e in reversed(a)))


def mono_basis(n: int, j: int) -> list[MultiIndex]:
    """All multi-indices of degree j in n variables, descending grevlex.

    The position in this list (1-based) is the canonical numbering of the
    degree-j monomials used by every other module.  The list is built once
    per (n, j) and shared, so callers must not mutate it.
    """
    out = _BASIS_CACHE.get((n, j))
    if out is not None:
        return out
    if n < 1 or j < 0:
        raise ValueError("need n >= 1 and j >= 0")
    out = []

    def rec(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], j, n)
    out.sort(key=grevlex_key, reverse=True)
    if len(out) != comb(n - 1 + j, j):
        raise AssertionError("mono_basis(%d, %d) has %d monomials, expected %d"
                             % (n, j, len(out), comb(n - 1 + j, j)))
    _BASIS_CACHE[n, j] = out
    return out


_BASIS_CACHE: dict = {}
_MONO_CACHE: dict = {}


def mono_index(n: int, j: int) -> dict:
    """Map multi-index -> 0-based position in mono_basis(n, j)."""
    key = (n, j)
    if key not in _MONO_CACHE:
        _MONO_CACHE[key] = {a: p for p, a in enumerate(mono_basis(n, j))}
    return _MONO_CACHE[key]


class RatPoly:
    """Sparse polynomial over Fraction coefficients; immutable by convention."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        self.terms: dict = {}
        if terms:
            for a, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[a] = c

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "RatPoly":
        return cls(n)

    @classmethod
    def const(cls, n: int, c) -> "RatPoly":
        return cls(n, {tuple([0] * n): Fraction(c)})

    @classmethod
    def var(cls, n: int, i: int) -> "RatPoly":
        """x_{i+1} as a polynomial (0-based axis)."""
        return cls(n, {mi_unit(n, i): Fraction(1)})

    @classmethod
    def monomial(cls, a: MultiIndex, c=1) -> "RatPoly":
        return cls(len(a), {tuple(a): Fraction(c)})

    # -- queries -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, a: MultiIndex) -> Fraction:
        return self.terms.get(tuple(a), Fraction(0))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(a) for a in self.terms}
        return len(degs) <= 1

    def leading_monomial(self) -> MultiIndex:
        """The grevlex-maximal stored multi-index."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    # -- arithmetic ----------------------------------------------------
    def _check(self, other: "RatPoly") -> None:
        if self.n != other.n:
            raise ValueError("dimension mismatch: %d vs %d" % (self.n, other.n))

    def __add__(self, other: "RatPoly") -> "RatPoly":
        self._check(other)
        terms = dict(self.terms)
        for a, c in other.terms.items():
            s = terms.get(a, Fraction(0)) + c
            if s:
                terms[a] = s
            else:
                terms.pop(a, None)
        return RatPoly(self.n, terms)

    def __neg__(self) -> "RatPoly":
        return RatPoly(self.n, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other) -> "RatPoly":
        if not isinstance(other, RatPoly):
            return self.scale(other)
        self._check(other)
        terms: dict = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                k = mi_add(a, b)
                s = terms.get(k, Fraction(0)) + ca * cb
                if s:
                    terms[k] = s
                else:
                    terms.pop(k, None)
        return RatPoly(self.n, terms)

    __rmul__ = __mul__

    def scale(self, c) -> "RatPoly":
        c = Fraction(c)
        if not c:
            return RatPoly(self.n)
        return RatPoly(self.n, {a: c * v for a, v in self.terms.items()})

    def partial(self, i: int) -> "RatPoly":
        """Exact partial derivative along axis i (0-based)."""
        if not (0 <= i < self.n):
            raise ValueError("axis out of range")
        terms: dict = {}
        for a, c in self.terms.items():
            if a[i] == 0:
                continue
            b = list(a)
            b[i] -= 1
            terms[tuple(b)] = c * a[i]
        return RatPoly(self.n, terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatPoly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def __repr__(self) -> str:
        return "RatPoly(%d, %s)" % (self.n, format_poly(self))

    def __str__(self) -> str:
        return format_poly(self)


# ----------------------------------------------------------------------
# Text syntax: integer/rational coefficients, x1..xn variables, + - * ^;
# implicit multiplication is not accepted (write 4*x1*x2 + x3^2).
# ----------------------------------------------------------------------

class PolyParseError(ValueError):
    pass


# p^e is expanded by e multiplications; no homogeneous structure of this
# program comes near this degree, and a larger e could run for hours
MAX_EXPONENT = 32
# a product of a- and b-term polynomials is expanded in a*b term products;
# (x1 + ... + x9)^5 needs 4455, and without a cap a short line such as
# (x1 + ... + x9)^32 expands to about 7.7e7 terms
MAX_PRODUCT_TERMS = 10_000


def _tokenize(text: str) -> Iterator[tuple]:
    i, m = 0, len(text)
    while i < m:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            yield ("op", ch)
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < m and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            # rational literal a/b
            if j < m and text[j] == "/":
                k = j + 1
                while k < m and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise PolyParseError("bad rational literal near %r" % text[i:j + 1])
                den = int(text[j + 1:k])
                if not den:
                    raise PolyParseError("zero denominator in %r" % text[i:k])
                yield ("num", Fraction(num, den))
                i = k
            else:
                yield ("num", Fraction(num))
                i = j
            continue
        if ch in ("x", "d"):
            j = i + 1
            while j < m and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise PolyParseError("bad symbol near %r" % text[i:i + 2])
            yield (ch, int(text[i + 1:j]))
            i = j
            continue
        raise PolyParseError("unexpected character %r" % ch)
    yield ("end", None)


def _product(a: RatPoly, b: RatPoly) -> RatPoly:
    """a * b, refused before expansion when it takes more than
    MAX_PRODUCT_TERMS term products."""
    if len(a.terms) * len(b.terms) > MAX_PRODUCT_TERMS:
        raise PolyParseError("product of %d by %d terms exceeds the cap of %d term products"
                             % (len(a.terms), len(b.terms), MAX_PRODUCT_TERMS))
    return a * b


class _Parser:
    """Recursive descent for sums of *-joined powered atoms.  With fields
    set, d1..dn are the variables n+1..2n of a ring in 2n variables, and a
    d<i> factor may follow its coefficient without '*'."""

    def __init__(self, text: str, n: int, fields: bool = False):
        self.toks = list(_tokenize(text))
        self.pos = 0
        self.nx = n
        self.fields = fields
        self.n = 2 * n if fields else n

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def parse_poly(self) -> RatPoly:
        p = self.parse_sum()
        if self.peek()[0] != "end":
            raise PolyParseError("trailing input at token %r" % (self.peek(),))
        return p

    def parse_sum(self) -> RatPoly:
        sign = 1
        if self.peek() == ("op", "+"):
            self.take()
        elif self.peek() == ("op", "-"):
            self.take()
            sign = -1
        p = self.parse_term().scale(sign)
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            q = self.parse_term()
            p = p + q.scale(-1 if op == "-" else 1)
        return p

    def parse_term(self) -> RatPoly:
        p = self.parse_factor()
        while self.peek() == ("op", "*") or (self.fields and self.peek()[0] == "d"):
            if self.peek()[0] == "op":
                self.take()
            p = _product(p, self.parse_factor())
        return p

    def parse_factor(self) -> RatPoly:
        p = self.parse_atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, val = self.take()
            if kind != "num" or val.denominator != 1 or val < 0:
                raise PolyParseError("exponent must be a non-negative integer")
            if val > MAX_EXPONENT:
                raise PolyParseError("exponent %d exceeds the cap of %d"
                                     % (val, MAX_EXPONENT))
            out = RatPoly.const(self.n, 1)
            for _ in range(int(val)):
                out = _product(out, p)
            return out
        return p

    def parse_atom(self) -> RatPoly:
        kind, val = self.take()
        if kind == "num":
            return RatPoly.const(self.n, val)
        if kind == "x" or (kind == "d" and self.fields):
            if not (1 <= val <= self.nx):
                raise PolyParseError("variable %s%d out of range for n=%d" % (kind, val, self.nx))
            return RatPoly.var(self.n, val - 1 + (self.nx if kind == "d" else 0))
        if kind == "op" and val == "(":
            p = self.parse_sum()
            if self.take() != ("op", ")"):
                raise PolyParseError("missing closing parenthesis")
            return p
        raise PolyParseError("unexpected token %r" % ((kind, val),))


def parse_poly(text: str, n: int) -> RatPoly:
    return _Parser(text, n).parse_poly()


def parse_vector_field(text: str, n: int) -> list:
    """A polynomial vector field such as 'x1*d3 + x3*d3', '(x1 - x2)*d3' or
    '1 d1 - 1 d3', as [(RatPoly, axis)] by ascending 0-based axis; after
    expansion every term must carry exactly one d<i> factor."""
    parts: dict = {}
    for a, c in _Parser(text, n, fields=True).parse_poly().terms.items():
        axes = [i for i in range(n) for _ in range(a[n + i])]
        if len(axes) != 1:
            term = [format_poly(RatPoly.monomial(a[:n], c))] + ["d%d" % (i + 1) for i in axes]
            raise PolyParseError("vector-field term %s needs exactly one d<i> factor"
                                 % "*".join(term))
        parts.setdefault(axes[0], {})[a[:n]] = c
    return [(RatPoly(n, parts[i]), i) for i in sorted(parts)]


def format_poly(p: RatPoly) -> str:
    """Canonical text form; round-trips through parse_poly."""
    if p.is_zero():
        return "0"
    parts = []
    for a, c in p.sorted_terms():
        factors = []
        for i, e in enumerate(a):
            if e == 1:
                factors.append("x%d" % (i + 1))
            elif e > 1:
                factors.append("x%d^%d" % (i + 1, e))
        mag = abs(c)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]
