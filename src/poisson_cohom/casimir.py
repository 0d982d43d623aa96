"""Casimir subspaces per degree, the normal-form projector, and bases of
the Hamiltonian quotient together with their dual functionals."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .algebra import RatPoly, grevlex_key, mi_unit, mono_basis, mono_index
from .linalg import SparseMatrix, clear_denominators, rank_kernel
from .poisson import PoissonStructure


@dataclass
class CasimirBasis:
    degree: int
    basis: list  # RatPoly, echelonized: LMs strictly descending, mutually reduced

    @property
    def lms(self) -> list:
        return [f.leading_monomial() for f in self.basis]

    def __len__(self) -> int:
        return len(self.basis)


def _primitive(p: RatPoly) -> RatPoly:
    """Scale to integer coefficients with content 1 and positive leading term."""
    if p.is_zero():
        return p
    ints, denom = clear_denominators(list(p.terms.values()))
    scale = Fraction(denom, gcd(*ints))
    return p.scale(-scale if p.leading_coeff() < 0 else scale)


def casimir_space(pi: PoissonStructure, j: int) -> CasimirBasis:
    """Basis of {f in S_j : {x_i, f} = 0 for all i}, echelonized so the
    leading monomials are distinct and no element contains another's LM."""
    n = pi.n
    monos = mono_basis(n, j)
    target_deg = j + pi.h - 1
    if target_deg < 0:
        return CasimirBasis(j, [RatPoly.monomial(a) for a in monos])
    tindex = mono_index(n, target_deg)
    entries: dict = {}
    for col, a in enumerate(monos):
        for i in range(n):
            for b, c in pi.mono_bracket(mi_unit(n, i), a).items():
                if c:
                    entries[(i * len(tindex) + tindex[b], col)] = c
    mat = SparseMatrix.from_ints(n * len(tindex), len(monos), entries, pi.denom)
    result = rank_kernel(mat, want_basis=True)
    polys = [RatPoly(n, {monos[k]: v for k, v in vec.items()})
             for vec in result.kernel]
    return CasimirBasis(j, _echelonize(polys, monos))


def _echelonize(polys: list, monos: list) -> list:
    """Reduced row echelon over the descending-grevlex coordinates, then
    primitive-integer normalization; rows come back LM-descending."""
    rows = [dict(p.terms) for p in polys if not p.is_zero()]
    done = []
    for a in monos:  # descending grevlex: first hit is the LM
        pick = None
        for r in rows:
            if a in r:
                pick = r
                break
        if pick is None:
            continue
        rows.remove(pick)
        pv = pick[a]
        pick = {k: v / pv for k, v in pick.items()}
        reduce_against = rows + [d for d in done]
        for other in reduce_against:
            c = other.get(a)
            if c:
                for k, v in pick.items():
                    s = other.get(k, Fraction(0)) - c * v
                    if s:
                        other[k] = s
                    else:
                        other.pop(k, None)
        done.append(pick)
    n = len(monos[0]) if monos else 0
    out = [_primitive(RatPoly(n, r)) for r in done]
    out.sort(key=lambda p: grevlex_key(p.leading_monomial()), reverse=True)
    return out


def normal_form(basis: CasimirBasis, g: RatPoly) -> RatPoly:
    """Remainder of the homogeneous polynomial g modulo the Casimir basis:
    r = g - sum_i (LM_i-coefficient of g / leading coeff of f_i) f_i,
    re-passed until stable.  Idempotent; kernel = span of the basis."""
    if not g.is_zero() and (not g.is_homogeneous() or g.degree() != basis.degree):
        raise ValueError("degree mismatch with the Casimir context")
    r = g
    while True:
        delta = RatPoly.zero(g.n)
        for f in basis.basis:
            lm = f.leading_monomial()
            c = r.coeff(lm)
            if c:
                delta = delta + f.scale(c / f.leading_coeff())
        if delta.is_zero():
            return r
        r = r - delta


@dataclass
class QuotientBasis:
    degree: int
    primal: list       # MultiIndex: monomials fixed by the normal form
    dual: list         # dict MultiIndex -> Fraction over the degree-j duals

    def __len__(self) -> int:
        return len(self.primal)


def quotient_basis(pi: PoissonStructure, j: int, cas: CasimirBasis | None = None) -> QuotientBasis:
    """Primal monomials (non leading of any Casimir) and dual functionals
    annihilating the Casimir space, pairing to the identity."""
    if cas is None:
        cas = casimir_space(pi, j)
    lms = set(cas.lms)
    primal = [a for a in mono_basis(pi.n, j) if a not in lms]
    dual = []
    for b in primal:
        func = {b: Fraction(1)}
        for f in cas.basis:
            c = f.coeff(b)
            if c:
                func[f.leading_monomial()] = -c / f.leading_coeff()
        dual.append(func)
    return QuotientBasis(j, primal, dual)


def quotient_bracket(pi: PoissonStructure, f: RatPoly, g: RatPoly,
                     cas: CasimirBasis | None = None) -> RatPoly:
    """Bracket of the Hamiltonian quotient: the normal form of {f, g}."""
    br = pi.bracket(f, g)
    if br.is_zero():
        return br
    if cas is None:
        cas = casimir_space(pi, br.degree())
    return normal_form(cas, br)
