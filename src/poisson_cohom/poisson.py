"""Poisson structures, Poisson brackets and Schouten brackets.

A Poisson structure carries one integer 2-vector, its terms over one
denominator; the Jacobi identity is checked as the Schouten self-bracket
[pi, pi] = 0 of that 2-vector, the bracket the module differential
u -> [pi, u] also uses.

Two multivector flavors live here.  MultiVector absorbs polynomial
coefficients into one coefficient per wedge of coordinate vector fields
(the usual C^inf-module picture).  GradedMultiVector keeps each wedge
factor as a separate homogeneous generator w^A d_i, so x1*d1 ^ x1^2*d1
is nonzero there; it is the carrier of the R-linear Schouten bracket.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from .algebra import (MultiIndex, RatPoly, format_poly, mi_add, mi_degree,
                      mono_index, parse_poly, parse_vector_field)
from .linalg import clear_denominators


class PoissonStructure:
    """Antisymmetric table p_ij of h-homogeneous polynomial entries."""

    def __init__(self, n: int, h: int, entries: dict, name: str = "", check: bool = True):
        """entries maps (i, j) with 0 <= i < j < n to RatPoly."""
        if n < 1 or h < 0:
            raise ValueError("need n >= 1 and h >= 0, got n = %d, h = %d" % (n, h))
        self.n = n
        self.h = h
        self.name = name
        self.p: dict = {}
        for (i, j), poly in entries.items():
            if not (0 <= i < j < n):
                raise ValueError("entry indices must satisfy 0 <= i < j < n")
            if poly.is_zero():
                continue
            if not poly.is_homogeneous() or poly.degree() != h:
                raise ValueError("entry p[%d,%d] is not %d-homogeneous" % (i + 1, j + 1, h))
            self.p[(i, j)] = poly
        # the terms (i, j, monomial of p_ij, int) over one denominator
        terms = [(i, j, mono, c) for (i, j), poly in self.p.items()
                 for mono, c in poly.terms.items()]
        ints, self.denom = clear_denominators([t[3] for t in terms])
        self.terms = [t[:3] + (c,) for t, c in zip(terms, ints)]
        self.two_vector = MultiVector(n, 2, {(mono, (i, j)): c for i, j, mono, c in self.terms})
        if check:
            ok, cert = jacobi_check(self)
            if not ok:
                (i, j, k), res = cert
                raise ValueError("Jacobi identity fails at (%d,%d,%d): %s"
                                 % (i + 1, j + 1, k + 1, format_poly(res)))
        # true when the check above ran and passed, so users need not rerun it
        self.jacobi_passed = check

    def is_trivial(self) -> bool:
        return not self.p

    def mono_bracket(self, a: MultiIndex, b: MultiIndex) -> dict:
        """{x^a, x^b} = sum_{i<j} (a_i b_j - a_j b_i) p_ij x^(a+b-e_i-e_j),
        as monomial -> int over self.denom (zero values included)."""
        out: dict = {}
        for i, j, mono, c in self.terms:
            k = a[i] * b[j] - a[j] * b[i]
            if k:
                e = [x + y + z for x, y, z in zip(a, b, mono)]
                e[i] -= 1
                e[j] -= 1
                e = tuple(e)
                out[e] = out.get(e, 0) + k * c
        return out

    def bracket(self, f: RatPoly, g: RatPoly) -> RatPoly:
        """Poisson bracket {f, g}: the bilinear extension of mono_bracket."""
        if f.n != self.n or g.n != self.n:
            raise ValueError("dimension mismatch")
        out: dict = {}
        for a, ca in f.terms.items():
            for b, cb in g.terms.items():
                for e, c in self.mono_bracket(a, b).items():
                    out[e] = out.get(e, 0) + ca * cb * c
        return RatPoly(self.n, {e: c / self.denom for e, c in out.items()})

    def serialize(self) -> str:
        lines = ["n = %d" % self.n, "h = %d" % self.h]
        for (i, j) in sorted(self.p):
            lines.append("p %d %d = %s" % (i + 1, j + 1, format_poly(self.p[(i, j)])))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "PoissonStructure(%s)" % (self.name or "n=%d,h=%d" % (self.n, self.h))


def jacobi_check(pi: PoissonStructure):
    """(True, None) if the Schouten self-bracket [pi, pi] of the integer
    2-vector vanishes, else (False, ((i, j, k), residual)) at its smallest
    nonzero axes i < j < k.  The coefficient there is 2 * denom^2 times
    the cyclic sum {x_i, p_jk} + {x_j, p_ki} + {x_k, p_ij}, and the
    residual is that cyclic sum."""
    sb = schouten(pi.two_vector, pi.two_vector).terms
    if not sb:
        return True, None
    axes = min(ax for _, ax in sb)
    scale = 2 * pi.denom ** 2
    return False, (axes, RatPoly(pi.n, {a: Fraction(c, scale)
                                        for (a, ax), c in sb.items() if ax == axes}))


# ----------------------------------------------------------------------
# The shared term-dict core of both multivector types
# ----------------------------------------------------------------------

def _sort_wedge(factors, key=None) -> tuple | None:
    """Sort wedge factors (by key when given), returning (sorted tuple,
    sign); None when a factor repeats, since the wedge then vanishes."""
    lst = list(factors)
    keys = lst[:] if key is None else [key(f) for f in lst]
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and keys[j - 1] > keys[j]:
            keys[j - 1], keys[j] = keys[j], keys[j - 1]
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    if any(keys[i - 1] == keys[i] for i in range(1, len(keys))):
        return None
    return tuple(lst), sign


def _exact(c):
    """A coefficient as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class _WedgeSum:
    """A degree-m multivector as a dict from canonical wedge keys to
    nonzero coefficients.  Integral coefficients are stored as ints, so
    brackets of integer multivectors run without Fraction arithmetic.
    Subclasses define _canonical(key) -> (key, sign) or None."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int, terms: dict | None = None):
        self.n = n
        self.degree = degree
        self.terms: dict = {}
        for key, c in (terms or {}).items():
            self._add(key, c)

    def _add(self, key, c) -> None:
        """Accumulate c times the wedge key, normalizing its order."""
        c = _exact(c)
        if not c:
            return
        norm = self._canonical(key)
        if norm is None:
            return
        key, sign = norm
        s = self.terms.get(key, 0) + sign * c
        if s:
            self.terms[key] = s
        else:
            self.terms.pop(key, None)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self) or (self.n, self.degree) != (other.n, other.degree):
            raise ValueError("mismatched multivectors")
        out = type(self)(self.n, self.degree, self.terms)
        for key, c in other.terms.items():
            out._add(key, c)
        return out

    def scale(self, c):
        c = _exact(c)
        return type(self)(self.n, self.degree,
                          {k: c * v for k, v in self.terms.items()} if c else {})

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.n == other.n
                and self.degree == other.degree and self.terms == other.terms)

    def __repr__(self):
        return "%s(n=%d, m=%d, %d terms)" % (type(self).__name__, self.n,
                                             self.degree, len(self.terms))


# ----------------------------------------------------------------------
# MultiVector: coefficients absorbed per coordinate wedge
# ----------------------------------------------------------------------

class MultiVector(_WedgeSum):
    """Degree-m polynomial multivector: sum of c * w^A d_{i1}^...^d_{im},
    keyed by (A, ascending axes)."""

    __slots__ = ()

    def _canonical(self, key):
        a, axes = key
        if len(axes) != self.degree:
            raise ValueError("axis tuple of wrong length")
        norm = _sort_wedge(axes)
        return None if norm is None else ((tuple(a), norm[0]), norm[1])

    def add_term(self, a: MultiIndex, axes, c) -> None:
        """Accumulate c * w^A d_axes, normalizing axis order."""
        self._add((a, axes), c)


def schouten(p: MultiVector, q: MultiVector) -> MultiVector:
    """Schouten bracket on MultiVector, degree p+q-1.

    On monomial terms f d_I, g d_J (f = w^A, g = w^B):

      [f d_I, g d_J] = sum_a (-1)^(|I|-a) f (d_{I_a} g) d_{I\\a} ^ d_J
                     + sum_b (-1)^b      g (d_{J_b} f) d_I ^ d_{J\\b}

    with 1-based slot positions a, b; this is the bilinear extension of
    the decomposable formula and reduces to <X, df> against functions.
    """
    if p.n != q.n:
        raise ValueError("dimension mismatch")
    out = MultiVector(p.n, max(p.degree + q.degree - 1, 0))
    terms = out.terms

    def put(e: list, ax: int, axes_x: tuple, axes_y: tuple, coeff) -> None:
        merged = _merge_axes(axes_x, axes_y)
        if merged is None:
            return
        axes, sign = merged
        e = e.copy()
        e[ax] -= 1
        key = (tuple(e), axes)
        s = terms.get(key, 0) + sign * coeff
        if s:
            terms[key] = s
        else:
            del terms[key]

    for (a, axes_i), ca in p.terms.items():
        pl = len(axes_i)
        for (b, axes_j), cb in q.terms.items():
            c = ca * cb
            ab = [x + y for x, y in zip(a, b)]
            # derivative of g-side along each I slot
            for pos, ax in enumerate(axes_i):
                if b[ax]:
                    put(ab, ax, axes_i[:pos] + axes_i[pos + 1:], axes_j,
                        c * b[ax] * (-1 if (pl - (pos + 1)) % 2 else 1))
            # derivative of f-side along each J slot
            for pos, ax in enumerate(axes_j):
                if a[ax]:
                    put(ab, ax, axes_i, axes_j[:pos] + axes_j[pos + 1:],
                        c * a[ax] * (-1 if (pos + 1) % 2 else 1))
    return out


def _merge_axes(x: tuple, y: tuple):
    """Wedge of two sorted axis tuples: (sorted tuple, sign) or None on a
    repeat; the sign counts the pairs (x_i, y_j) with x_i > y_j."""
    inv = 0
    for ax in x:
        k = bisect_left(y, ax)
        if k < len(y) and y[k] == ax:
            return None
        inv += k
    return tuple(sorted(x + y)), (-1 if inv % 2 else 1)


# ----------------------------------------------------------------------
# GradedMultiVector: R-linear wedges of homogeneous generators w^A d_i
# ----------------------------------------------------------------------

def gen_sort_key(gen) -> tuple:
    """Canonical order of generators (A, i): by |A|, then the descending
    grevlex position of A inside its degree, then the axis."""
    a, i = gen
    deg = mi_degree(a)
    return (deg, mono_index(len(a), deg)[a], i)


class GradedMultiVector(_WedgeSum):
    """R-linear combination of wedges of generators (A, i) = w^A d_{i+1},
    keyed by the factor tuple in gen_sort_key order.  The name slot is
    set only by load_structure; an unset name reports as empty."""

    __slots__ = ("name",)

    def _canonical(self, factors):
        if len(factors) != self.degree:
            raise ValueError("wrong number of wedge factors")
        return _sort_wedge(factors, gen_sort_key)

    add_term = _WedgeSum._add

    def poly_degree(self) -> int:
        """Total polynomial degree, assuming homogeneity across terms."""
        degs = {sum(mi_degree(a) for a, _ in factors) for factors in self.terms}
        if len(degs) > 1:
            raise ValueError("not homogeneous")
        return degs.pop() if degs else 0

    def serialize(self) -> str:
        lines = ["n = %d" % self.n, "h = %d" % self.poly_degree()]
        for factors in sorted(self.terms, key=lambda fs: [gen_sort_key(g) for g in fs]):
            c = self.terms[factors]
            slot = " ; ".join(_format_vf([(RatPoly.monomial(a), i)]) for a, i in factors)
            lines.append("v %s : %s" % (c, slot))
        return "\n".join(lines) + "\n"


def _lie_bracket_gens(u, v) -> list:
    """Jacobi-Lie bracket [w^A d_i, w^B d_j] as a list of (gen, coeff)."""
    (a, i), (b, j) = u, v
    out = []
    if b[i]:
        bb = list(b)
        bb[i] -= 1
        out.append(((mi_add(a, tuple(bb)), j), b[i]))
    if a[j]:
        aa = list(a)
        aa[j] -= 1
        out.append(((mi_add(tuple(aa), b), i), -a[j]))
    return out


def r_schouten(p: GradedMultiVector, q: GradedMultiVector) -> GradedMultiVector:
    """R-linear Schouten bracket keeping wedge factors unmerged:
    [u1^..^up, v1^..^vq] = sum_{i,j} (-1)^{i+j} [u_i, v_j] ^ rest."""
    if p.n != q.n:
        raise ValueError("dimension mismatch")
    out = GradedMultiVector(p.n, p.degree + q.degree - 1)
    for fu, cu in p.terms.items():
        for fv, cv in q.terms.items():
            base = cu * cv
            for i, u in enumerate(fu):
                for j, v in enumerate(fv):
                    sign = -1 if (i + j) % 2 else 1  # (-1)^{(i+1)+(j+1)}
                    for gen, bc in _lie_bracket_gens(u, v):
                        rest = (gen,) + fu[:i] + fu[i + 1:] + fv[:j] + fv[j + 1:]
                        out.add_term(rest, base * bc * sign)
    return out


def phi_flatten(p: GradedMultiVector) -> MultiVector:
    """Absorb polynomial parts: the natural map onto MultiVector."""
    out = MultiVector(p.n, p.degree)
    zero = tuple([0] * p.n)
    for factors, c in p.terms.items():
        total = zero
        axes = []
        for a, i in factors:
            total = mi_add(total, a)
            axes.append(i)
        out.add_term(total, tuple(axes), c)
    return out


def wedge2(vf1: list, vf2: list, n: int) -> GradedMultiVector:
    """R-bilinear wedge of two polynomial vector fields given as lists of
    (RatPoly, axis); expands polynomials into homogeneous generators."""
    out = GradedMultiVector(n, 2)
    for p1, i1 in vf1:
        for a1, c1 in p1.terms.items():
            for p2, i2 in vf2:
                for a2, c2 in p2.terms.items():
                    out.add_term(((a1, i1), (a2, i2)), c1 * c2)
    return out


# ----------------------------------------------------------------------
# Structure-definition files
# ----------------------------------------------------------------------

class StructureFileError(ValueError):
    pass


def parse_structure(text: str, check: bool = True):
    """Parse a structure-definition file.

    Lines: 'n = <int>', 'h = <int>', then either Poisson entries
    'p i j = <polynomial>' (1-based, i < j) or R-wedge 2-vector lines
    'v [<coeff> :] <vfield> ; <vfield>' for Poisson-like structures, the
    coeff a constant in parse_poly's grammar (such as 3, -1/2 or 2*(1/4))
    and each vfield read by parse_vector_field.  A line's first
    word must be exactly one of the keywords n, h, p, v, and n and h are
    given once each.  Returns a PoissonStructure or a GradedMultiVector.
    Entries must be h-homogeneous; check=False skips only the Jacobi
    identity (p files) or the R-Schouten self-bracket (v files).
    """
    n = h = None
    p_entries: dict = {}
    v_terms = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key = line.split()[0].split("=", 1)[0]
        body = line[len(key):].strip()
        if key in ("n", "h"):
            if not body.startswith("="):
                raise StructureFileError("bad %s line: %r" % (key, raw))
            if key == "n" and n is None:
                n = int(body[1:])
            elif key == "h" and h is None:
                h = int(body[1:])
            else:
                raise StructureFileError("repeated %s line: %r" % (key, raw))
            continue
        if key == "p":
            if n is None:
                raise StructureFileError("n must come before entries")
            head, eq, rhs = line.partition("=")
            parts = head.split()
            if not eq or len(parts) != 3:
                raise StructureFileError("bad entry line: %r" % raw)
            i, j = int(parts[1]) - 1, int(parts[2]) - 1
            if not (0 <= i < j < n):
                raise StructureFileError("entry indices must satisfy 1 <= i < j <= n")
            if (i, j) in p_entries:
                raise StructureFileError("duplicate entry p %d %d" % (i + 1, j + 1))
            p_entries[(i, j)] = parse_poly(rhs.strip(), n)
            continue
        if key == "v":
            if n is None:
                raise StructureFileError("n must come before entries")
            if ":" in body:
                coeff_text, body = body.split(":", 1)
                cpoly = parse_poly(coeff_text, n)
                if cpoly.degree() > 0:
                    raise StructureFileError("v coefficient must be a constant, got %r"
                                             % coeff_text.strip())
                coeff = cpoly.coeff(tuple([0] * n))
            else:
                coeff = Fraction(1)
            slots = body.split(";")
            if len(slots) != 2:
                raise StructureFileError("v lines take exactly two ';'-separated fields")
            term = wedge2(parse_vector_field(slots[0], n),
                          parse_vector_field(slots[1], n), n).scale(coeff)
            v_terms.append(term)
            continue
        raise StructureFileError("unrecognized line: %r" % raw)
    if n is None or h is None:
        raise StructureFileError("both n and h are required")
    if v_terms and p_entries:
        raise StructureFileError("cannot mix p and v entries")
    if v_terms:
        acc = GradedMultiVector(n, 2)
        for t in v_terms:
            acc = acc + t
        if acc.poly_degree() != h:
            raise StructureFileError("2-vector is not %d-homogeneous" % h)
        if check and not r_schouten(acc, acc).is_zero():
            raise StructureFileError("R-Schouten self-bracket does not vanish")
        return acc
    return PoissonStructure(n, h, p_entries, check=check)


def _format_vf(vf: list) -> str:
    parts = []
    for poly, axis in vf:
        parts.append("%s*d%d" % (format_poly(poly), axis + 1))
    return " + ".join(parts)
