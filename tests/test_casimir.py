import hashlib
import random
from fractions import Fraction
from math import comb, gcd

import pytest

from poisson_cohom import fixtures as fx
from poisson_cohom.algebra import RatPoly, grevlex_key, mono_basis, parse_poly
from poisson_cohom.casimir import (QuotientBasis, _echelonize, casimir_space,
                                   normal_form, quotient_basis, quotient_bracket)
from poisson_cohom.linalg import clear_denominators, rank_kernel
from poisson_cohom.poisson import PoissonStructure

from test_linalg import cells_matrix


def span_equal(polys_a, polys_b, n, degree):
    index = {a: i for i, a in enumerate(mono_basis(n, degree))}

    def mat(polys, col0):
        return {(index[a], col0 + k): c for k, p in enumerate(polys)
                for a, c in p.terms.items()}

    both = cells_matrix(len(index), len(polys_a) + len(polys_b),
                        {**mat(polys_a, 0), **mat(polys_b, len(polys_a))})
    ra = rank_kernel(cells_matrix(len(index), len(polys_a), mat(polys_a, 0))).rank
    rb = rank_kernel(cells_matrix(len(index), len(polys_b), mat(polys_b, 0))).rank
    return ra == rb == rank_kernel(both).rank


def test_sl2_casimirs_per_degree():
    s = fx.sl2()
    assert len(casimir_space(s, 1)) == 0
    cb2 = casimir_space(s, 2)
    assert len(cb2) == 1
    assert span_equal(cb2.basis, [parse_poly("4*x1*x2 + x3^2", 3)], 3, 2)
    assert len(casimir_space(s, 3)) == 0
    cb4 = casimir_space(s, 4)
    quad = parse_poly("4*x1*x2 + x3^2", 3)
    assert span_equal(cb4.basis, [quad * quad], 3, 4)


def test_heisenberg_casimirs():
    h = fx.heisenberg()
    for k in range(1, 5):
        cb = casimir_space(h, k)
        assert len(cb) == 1
        assert cb.basis[0] == RatPoly.monomial((0, 0, k))


def test_sl2_r4_casimir_dims_and_lms():
    s = fx.sl2_r4()
    expect = {1: [(0, 0, 0, 1)],
              2: [(1, 1, 0, 0), (0, 0, 0, 2)],
              3: [(1, 1, 0, 1), (0, 0, 0, 3)],
              4: [(2, 2, 0, 0), (1, 1, 0, 2), (0, 0, 0, 4)]}
    for j, lms in expect.items():
        cb = casimir_space(s, j)
        assert cb.lms == lms


def test_casimirs_are_central_and_echelonized():
    for s in (fx.sl2(), fx.solvable22(), fx.h2_case1(), fx.h2_case2(), fx.h2_case3()):
        for j in range(1, 6):
            cb = casimir_space(s, j)
            lms = cb.lms
            assert len(set(lms)) == len(lms)
            keys = [grevlex_key(a) for a in lms]
            assert keys == sorted(keys, reverse=True)
            for f in cb.basis:
                for i in range(s.n):
                    assert s.bracket(RatPoly.var(s.n, i), f).is_zero()
                for lm in lms:
                    if lm != f.leading_monomial():
                        assert f.coeff(lm) == 0


def test_normal_form_sl2_values():
    s = fx.sl2()
    cb = casimir_space(s, 2)
    assert normal_form(cb, parse_poly("x1*x2", 3)) == parse_poly("-1/4*x3^2", 3)
    assert normal_form(cb, parse_poly("x3^2", 3)) == parse_poly("x3^2", 3)
    assert normal_form(cb, parse_poly("4*x1*x2 + x3^2", 3)).is_zero()


def test_normal_form_idempotent_and_kernel():
    rng = random.Random(12)
    for s in (fx.sl2(), fx.solvable22(), fx.h2_case3()):
        for j in (2, 3, 4):
            cb = casimir_space(s, j)
            basis = mono_basis(s.n, j)
            for _ in range(10):
                g = RatPoly(s.n, {a: Fraction(rng.randint(-3, 3))
                                  for a in rng.sample(basis, k=min(4, len(basis)))})
                r = normal_form(cb, g)
                assert normal_form(cb, r) == r
            # kernel of the projector is exactly the Casimir span
            idx = {a: i for i, a in enumerate(basis)}
            entries = {}
            for col, a in enumerate(basis):
                r = normal_form(cb, RatPoly.monomial(a))
                for b, c in r.terms.items():
                    entries[(idx[b], col)] = c
            proj = cells_matrix(len(basis), len(basis), entries)
            assert rank_kernel(proj).kernel_dim == len(cb)
            for f in cb.basis:
                assert normal_form(cb, f).is_zero()


def test_normal_form_matches_three_step_recipe():
    """Cross-check against the substitution recipe: non-leading monomials
    are fixed, and the image of each leading monomial follows from the
    basis element summing to zero."""
    for s, j in ((fx.sl2(), 2), (fx.sl2(), 4), (fx.sl2_r4(), 2), (fx.solvable22(), 3)):
        cb = casimir_space(s, j)
        lms = set(cb.lms)
        for a in mono_basis(s.n, j):
            if a not in lms:
                assert normal_form(cb, RatPoly.monomial(a)) == RatPoly.monomial(a)
        for f in cb.basis:
            lm = f.leading_monomial()
            lc = f.terms[lm]
            tail = f - RatPoly.monomial(lm, lc)
            expect = tail.scale(Fraction(-1) / lc)
            # expect is supported off the leading set, so it is its own form
            assert normal_form(cb, RatPoly.monomial(lm)) == expect


def test_normal_form_degree_mismatch():
    cb = casimir_space(fx.sl2(), 2)
    with pytest.raises(ValueError):
        normal_form(cb, parse_poly("x1", 3))


def test_quotient_basis_counts_and_pairing():
    for s in (fx.sl2(), fx.heisenberg(), fx.sl2_r4()):
        for j in range(1, 6):
            cb = casimir_space(s, j)
            qb = quotient_basis(s, j)
            assert len(qb.primal) + len(cb) == comb(s.n - 1 + j, j)
            # dual functionals annihilate Casimirs ...
            for func in qb.dual:
                for f in cb.basis:
                    pairing = sum(c * f.coeff(a) for a, c in func.items())
                    assert pairing == 0
            # ... and pair with the primal monomials as the identity
            for i, func in enumerate(qb.dual):
                for k, b in enumerate(qb.primal):
                    assert func.get(b, Fraction(0)) == (1 if i == k else 0)


def test_sl2_dual_basis_degree_two():
    qb = quotient_basis(fx.sl2(), 2)
    combo = qb.dual[qb.primal.index((0, 0, 2))]
    assert combo == {(0, 0, 2): Fraction(1), (1, 1, 0): Fraction(-1, 4)}
    for b in qb.primal:
        if b != (0, 0, 2):
            assert qb.dual[qb.primal.index(b)] == {b: Fraction(1)}


def test_quotient_basis_keeps_the_dataclass_behaviour():
    """QuotientBasis is a plain slotted class that keeps the repr and ==
    it had as a dataclass, and has no hash."""
    qb = QuotientBasis(1, [(1, 0)], [{(1, 0): Fraction(1, 2)}])
    assert repr(qb) == "QuotientBasis(degree=1, primal=[(1, 0)], dual=[{(1, 0): Fraction(1, 2)}])"
    assert qb == QuotientBasis(1, [(1, 0)], [{(1, 0): Fraction(1, 2)}])
    assert qb != QuotientBasis(2, [(1, 0)], [{(1, 0): Fraction(1, 2)}])
    assert len(qb) == 1 and not hasattr(qb, "__dict__")
    with pytest.raises(TypeError):
        hash(qb)


def test_sl2_r4_dual_basis_degree_one():
    qb = quotient_basis(fx.sl2_r4(), 1)
    assert qb.primal == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    assert all(func == {b: Fraction(1)} for func, b in zip(qb.dual, qb.primal))


def test_quotient_bracket_values():
    s = fx.sl2()
    got = quotient_bracket(s, parse_poly("x1", 3), parse_poly("x2*x3", 3))
    assert got == parse_poly("3/2*x3^2", 3)
    assert quotient_bracket(fx.heisenberg(), parse_poly("x1", 3),
                            parse_poly("x2", 3)).is_zero()


def test_quotient_bracket_jacobi_random():
    rng = random.Random(6)
    s = fx.sl2()
    mono1 = mono_basis(3, 1)
    for _ in range(10):
        f, g, k = (RatPoly.monomial(rng.choice(mono1)) for _ in range(3))
        cyc = (quotient_bracket(s, f, quotient_bracket(s, g, k))
               + quotient_bracket(s, g, quotient_bracket(s, k, f))
               + quotient_bracket(s, k, quotient_bracket(s, f, g)))
        assert cyc.is_zero()


def test_casimir_bases_are_stable():
    """sha256 of the Casimir bases (terms and leading monomials) of every
    builtin Poisson structure at degrees 0..4, recorded from the Fraction
    Gauss-Jordan echelon that the integer echelon replaced."""
    h = hashlib.sha256()
    for name in fx.builtin_names():
        pi = fx.load_structure("builtin:" + name)
        if not isinstance(pi, PoissonStructure):
            continue
        for j in range(5):
            cb = casimir_space(pi, j)
            h.update(repr((name, j, [sorted(f.terms.items()) for f in cb.basis],
                           list(cb.lms))).encode())
    assert h.hexdigest() == "e3e85e3ee8f946c528d58422097552ccd5af9c22560fdadc9054bbcb7171bf7f"


def fraction_echelon(vectors: list, monos: list) -> list:
    """Oracle: reduced row echelon over Fractions with pivots in ascending
    coordinate order, then each row scaled to primitive integers with a
    positive leading coefficient; rows as dicts monomial -> int."""
    rows = [{k: Fraction(v) for k, v in vec.items()} for vec in vectors]
    done = []
    for k in range(len(monos)):
        pick = next((r for r in rows if r.get(k)), None)
        if pick is None:
            continue
        rows.remove(pick)
        pick = {c: v / pick[k] for c, v in pick.items()}
        for other in rows + done:
            c = other.get(k)
            if c:
                for key, v in pick.items():
                    s = other.get(key, Fraction(0)) - c * v
                    if s:
                        other[key] = s
                    else:
                        other.pop(key, None)
        done.append(pick)
    out = []
    for r in done:
        ints, _ = clear_denominators(list(r.values()))
        g = gcd(*ints) if r[min(r)] > 0 else -gcd(*ints)
        out.append({monos[c]: v // g for c, v in zip(r, ints)})
    return out


def test_integer_echelon_matches_fraction_oracle():
    """Random integer vector sets, rank-deficient ones (integer combinations
    of earlier vectors) and negative pivots included."""
    rng = random.Random(31)
    monos = mono_basis(3, 3)
    for _ in range(200):
        vectors = []
        for _ in range(rng.randint(1, 6)):
            if vectors and rng.random() < 0.3:
                vec: dict = {}
                for base in rng.sample(vectors, k=min(2, len(vectors))):
                    f = rng.choice((-3, -1, 2))
                    for c, v in base.items():
                        vec[c] = vec.get(c, 0) + f * v
                vec = {c: v for c, v in vec.items() if v}
            else:
                cols = rng.sample(range(len(monos)), k=rng.randint(1, 5))
                vec = {c: rng.choice((-7, -2, -1, 1, 3, 4, 6)) for c in cols}
            if vec:
                vectors.append(vec)
        got = _echelonize(vectors, monos)
        assert got == fraction_echelon(vectors, monos)
        assert [next(iter(r)) for r in got] == sorted((next(iter(r)) for r in got),
                                                      key=grevlex_key, reverse=True)
        assert all(r[next(iter(r))] > 0 for r in got)
