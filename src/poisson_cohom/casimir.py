"""Casimir subspaces per degree and the Hamiltonian quotient.

casimir_space is the one owner of the quotient: its CasimirBasis holds
the integer echelon basis, the quotient monomials and the integer rules
of the normal form, which normal_form, quotient_basis and the
Hamiltonian differential matrices all use."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .algebra import RatPoly, mi_unit, mono_basis, mono_index
from .linalg import Record, SparseMatrix, rank_kernel
from .poisson import PoissonStructure


class CasimirBasis:
    """The degree-j Casimir polynomials in reduced echelon form: primitive
    integer coefficients, positive leading coefficients, leading monomials
    (lms) strictly descending in grevlex, and no element holding another's
    leading monomial.  primal lists the other monomials, which span the
    quotient.  The normal form in integers: a coefficient c off the leading
    monomials becomes c * big, and a coefficient c on a leading monomial lm
    becomes c * f * t on each tail monomial, for rules[lm] = (f, [(monomial,
    t)]); one pass suffices because the basis is reduced."""

    def __init__(self, n: int, degree: int, rows: list):
        self.degree = degree
        self.basis = [RatPoly(n, r) for r in rows]
        self.lms = [next(iter(r)) for r in rows]
        lead = set(self.lms)
        self.primal = [a for a in mono_basis(n, degree) if a not in lead]
        self.big = lcm(1, *(r[lm] for r, lm in zip(rows, self.lms)))
        self.rules = {lm: (self.big // r[lm], [(m, -c) for m, c in r.items() if m != lm])
                      for r, lm in zip(rows, self.lms)}

    def __len__(self) -> int:
        return len(self.basis)

    def reduce(self, terms: dict) -> dict:
        """big times the normal form of the polynomial monomial -> coeff."""
        big, rules = self.big, self.rules
        out: dict = {}
        for mono, c in terms.items():
            rule = rules.get(mono)
            if rule is None:
                out[mono] = out.get(mono, 0) + c * big
            else:
                f, tail = rule
                for m2, t in tail:
                    out[m2] = out.get(m2, 0) + c * f * t
        return {m: c for m, c in out.items() if c}


def casimir_space(pi: PoissonStructure, j: int) -> CasimirBasis:
    """Basis of {f in S_j : {x_i, f} = 0 for all i}, echelonized so the
    leading monomials are distinct and no element contains another's LM."""
    n = pi.n
    monos = mono_basis(n, j)
    target_deg = j + pi.h - 1
    if target_deg < 0:
        return CasimirBasis(n, j, [{a: 1} for a in monos])
    tindex = mono_index(n, target_deg)
    cols = [{i * len(tindex) + tindex[b]: c for i in range(n)
             for b, c in pi.mono_bracket(mi_unit(n, i), a).items() if c}
            for a in monos]
    mat = SparseMatrix(n * len(tindex), cols, pi.denom)
    kernel = rank_kernel(mat, want_basis=True).kernel
    return CasimirBasis(n, j, _echelonize(kernel, monos))


def _echelonize(vectors: list, monos: list) -> list:
    """Fraction-free reduced row echelon form of integer vectors (dicts
    coordinate -> int) with pivots taken in ascending coordinate order,
    that is descending grevlex: rows come back as dicts monomial -> int,
    primitive with a positive leading coefficient, leading monomial first."""
    rows = [dict(v) for v in vectors if v]
    done = []
    for k in range(len(monos)):
        pick = next((r for r in rows if r.get(k)), None)
        if pick is None:
            continue
        rows.remove(pick)
        for other in rows + done:
            c = other.get(k)
            if c:
                for key in set(other) | set(pick):
                    s = pick[k] * other.get(key, 0) - c * pick.get(key, 0)
                    if s:
                        other[key] = s
                    else:
                        del other[key]
                g = gcd(*other.values())
                for key in other:
                    other[key] //= g
        done.append(pick)
    out = []
    for r in done:
        g = gcd(*r.values()) if r[min(r)] > 0 else -gcd(*r.values())
        out.append({monos[key]: r[key] // g for key in sorted(r)})
    return out


def normal_form(basis: CasimirBasis, g: RatPoly) -> RatPoly:
    """Remainder of the homogeneous polynomial g modulo the Casimir basis,
    in one pass of the basis's rules.  Idempotent; kernel = span of the
    basis."""
    if not g.is_zero() and (not g.is_homogeneous() or g.degree() != basis.degree):
        raise ValueError("degree mismatch with the Casimir context")
    return RatPoly(g.n, {m: Fraction(c, basis.big) for m, c in basis.reduce(g.terms).items()})


class QuotientBasis(Record):
    """primal lists the monomials (MultiIndex) the normal form fixes, and
    dual the degree-j dual functionals, dicts MultiIndex -> Fraction."""

    __slots__ = _shown = ("degree", "primal", "dual")

    def __init__(self, degree: int, primal: list, dual: list):
        self.degree, self.primal, self.dual = degree, primal, dual

    def __len__(self) -> int:
        return len(self.primal)


def quotient_basis(pi: PoissonStructure, j: int) -> QuotientBasis:
    """Primal monomials (non leading of any Casimir) and dual functionals
    annihilating the Casimir space, pairing to the identity: the dual of b
    reads the b-coefficient of the normal form, so it is the transpose of
    the rules."""
    cas = casimir_space(pi, j)
    dual = {b: {b: Fraction(1)} for b in cas.primal}
    for lm, (f, tail) in cas.rules.items():
        for m, t in tail:
            dual[m][lm] = Fraction(f * t, cas.big)
    return QuotientBasis(j, cas.primal, list(dual.values()))


def quotient_bracket(pi: PoissonStructure, f: RatPoly, g: RatPoly) -> RatPoly:
    """Bracket of the Hamiltonian quotient: the normal form of {f, g}."""
    br = pi.bracket(f, g)
    if br.is_zero():
        return br
    return normal_form(casimir_space(pi, br.degree()), br)
